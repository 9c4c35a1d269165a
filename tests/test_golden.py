"""Golden hashes: every file written by three seeded CLI runs, pinned by sha256.

These pins make "byte-identical output" checkable across changes, not just
across two runs in one session. A change that alters output on purpose
updates the pins here and says so in CHANGES.md.

The hashes were taken with Python 3.11.7, numpy 2.4.6 and scipy 1.17.1.
Another numpy may draw different variates from the same seed, and another
scipy may round ``ndtr``/``kolmogorov`` differently in the last bit.
"""

import hashlib

import pytest

from metaaudit.cli import main

RUNS = {
    "report": ["report", "--fixtures"],
    "simulate_null": [
        "simulate", "--regime", "null", "--m", "30", "--replicates", "200",
        "--seed", "42",
    ],
    "simulate_mixture": [
        "simulate", "--regime", "mixture", "--m", "30", "--s-tests", "1000",
        "--pi", "0.4", "--replicates", "200", "--seed", "42",
    ],
}

GOLDEN = {
    "report": {
        "backcalc.csv": "f56470b07229326d37939af60cd620db15b8e050a82ed059a96391c22e17644b",
        "descriptives.csv": "74885e31cc6ca4d7a74db4a590a6b8c604cfa165badfa1ca53d209263093b6ee",
        "diagnostics.csv": "7a14d0f0585b4bf90c39641230dfa3f5f6eb25bdfe6519a483de3106661a974c",
        "pplot_CO.csv": "c58c62a6aaf24a4a27cf86c8c32a0a7e8a779a59a1da950f3d6c06ba9da31081",
        "pplot_CO.svg": "733a674072a95636d19522bc3811efa96ead388800194ed81b84e5330e4337c5",
        "pplot_NO2.csv": "cbb9605646fdc4e5423163f0efcf09cbc5266dd7fc7cf31fce9d0831d40a5268",
        "pplot_NO2.svg": "e1767f840bf9f54b65dce0d01b68bbf330056b56636d635123acdd7e5f223c46",
        "pplot_PM10.csv": "ade1820fc17530c46cad998491e7493b1278a1b8b8d13087f06e01015948466f",
        "pplot_PM10.svg": "3f1fe687732bf7f21d69e9fd2bba3c7a5833207276e68bfa85b8e9a20fb7e766",
        "pplot_PM2.5.csv": "f8c63eadfd8c8439c5c43e7791dc028e07d4ff5664d760188e2fec239ec655ac",
        "pplot_PM2.5.svg": "205dfc4865c0295845589026cc7010b35cfd9e975d242f549572460f24c7bc98",
        "pplot_SO2.csv": "1b21391a8920739079092d807624c9f759704313bdd8b88d45dd5efee5f07796",
        "pplot_SO2.svg": "a26407c94a539e91ea595e8f2928bd61f5c879d2a3506653c6b5791e09d325d4",
        "pplot_ozone.csv": "dab0f71a837a5dd8b389a25872183d30112c816b9968b6e66ee4683ec66ab0fd",
        "pplot_ozone.svg": "4ed5f5a7c7ec8ca59dc33078a699abe485e4013a50369c97ca5dbea98e54d7e6",
        "space_summary.csv": "7c90ff7b1bce571951b3fe7a66d816e5272154783c339d4094db83ea2043a457",
        "spaces.csv": "3e4c79d06316c95297829f9290711d800473ded4dc99c51e01a0eb36a08d56da",
        "volcano.csv": "6f3cfff2f17473bcd7b911cb508225ddf1760a6deed8c76535095702151dd336",
        "volcano.svg": "ffe60d41b4b8eb294d7f7699651fe0e477dd6aeb8eee0ef295861f435cccfc7f",
    },
    "simulate_null": {
        "pvalues.csv": "1ae4c801242add584901eb1d0a980ae033db9bada847673aa2ce9a6deda2cfba",
        "shape_stats.csv": "aff185d3a17c5510c094c3dc22b6b033cd98c26ee4bb94f938d524fc78712f02",
    },
    "simulate_mixture": {
        "pvalues.csv": "f934666925442ed5a15e46a3b58a274267680399a0517badbb50b9ba26d71723",
        "shape_stats.csv": "19f615f4574ef70dc9c0281f6589a474fb1d5cbe7f262f91b885b340fb784593",
    },
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_outputs_match_golden_hashes(run, tmp_path):
    out = tmp_path / run
    assert main(RUNS[run] + ["--out", str(out)]) == 0
    written = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
    }
    assert written == GOLDEN[run]
