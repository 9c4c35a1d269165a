"""Golden hashes: every file and the stdout of twelve CLI runs, pinned by sha256.

These pins make "byte-identical output" checkable across changes, not just
between two runs in a row. The single commands are pinned next to
``report``, which writes the same tables through the same writers, so
neither side can drift unnoticed. Stdout is hashed with the output
directory replaced by ``<out>``. A change that alters output on purpose
updates the pins here and says so in CHANGES.md.

The hashes were taken with Python 3.11.7, numpy 2.4.6 and scipy 1.17.1.
Another numpy may draw different variates from the same seed, and another
scipy may round ``ndtr``/``kolmogorov`` differently in the last bit.
"""

import hashlib

import pytest

from metaaudit import case_counts_path, case_effects_path, case_pvalues_path
from metaaudit.cli import main

COUNTS, PVALUES, EFFECTS = (
    str(path()) for path in (case_counts_path, case_pvalues_path, case_effects_path)
)

RUNS = {
    "report": ["report", "--fixtures"],
    "report_alpha_0.1": ["report", "--fixtures", "--alpha", "0.1"],
    "spaces": ["spaces", "--in", COUNTS],
    "pplot_NO2": ["pplot", "--in", PVALUES, "--endpoint", "NO2"],
    "pplot_PM2.5_alpha_0.1": ["pplot", "--in", PVALUES, "--endpoint", "PM2.5", "--alpha", "0.1"],
    "volcano": ["volcano", "--in", EFFECTS],
    "volcano_m_tests": ["volcano", "--in", EFFECTS, "--m-tests", "104"],
    "pool_fixed": ["pool", "--in", EFFECTS, "--method", "fixed"],
    "pool_dl": ["pool", "--in", EFFECTS, "--method", "dl"],
    "pfromci": ["pfromci", "--in", EFFECTS],
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
    "report_alpha_0.1": {
        "backcalc.csv": "f56470b07229326d37939af60cd620db15b8e050a82ed059a96391c22e17644b",
        "descriptives.csv": "74885e31cc6ca4d7a74db4a590a6b8c604cfa165badfa1ca53d209263093b6ee",
        "diagnostics.csv": "3b25a78e29d4e1adef33d3d71b9b93e2a4063998d7e4dc4fe78b08b6f63a400e",
        "pplot_CO.csv": "c58c62a6aaf24a4a27cf86c8c32a0a7e8a779a59a1da950f3d6c06ba9da31081",
        "pplot_CO.svg": "ab622db7246a0cc8717651d07dd7e64f19d8fa7aa26096de8c0b1ad05dca592d",
        "pplot_NO2.csv": "cbb9605646fdc4e5423163f0efcf09cbc5266dd7fc7cf31fce9d0831d40a5268",
        "pplot_NO2.svg": "a5538b1c86fa910a33c4bc96aaf3713d2242c8cfeef2d0f76495d3fd42280220",
        "pplot_PM10.csv": "ade1820fc17530c46cad998491e7493b1278a1b8b8d13087f06e01015948466f",
        "pplot_PM10.svg": "cfbe30df6bd475469b93353ac000b95ba52ca2e1dd6859cefb24ab104fa3ed1e",
        "pplot_PM2.5.csv": "f8c63eadfd8c8439c5c43e7791dc028e07d4ff5664d760188e2fec239ec655ac",
        "pplot_PM2.5.svg": "2ff20d847209977d1a34df4e6125d17be33840cf369b746d8c63c5de845a4a63",
        "pplot_SO2.csv": "1b21391a8920739079092d807624c9f759704313bdd8b88d45dd5efee5f07796",
        "pplot_SO2.svg": "5178e5cdc67360b6a0efe52a70733f3ce8ecfbaf8a314889bd7d299390b445fe",
        "pplot_ozone.csv": "dab0f71a837a5dd8b389a25872183d30112c816b9968b6e66ee4683ec66ab0fd",
        "pplot_ozone.svg": "8d84392eb42388baff595d2fa057d9f272725849a77777e060259c8e2058b765",
        "space_summary.csv": "7c90ff7b1bce571951b3fe7a66d816e5272154783c339d4094db83ea2043a457",
        "spaces.csv": "3e4c79d06316c95297829f9290711d800473ded4dc99c51e01a0eb36a08d56da",
        "volcano.csv": "6f3cfff2f17473bcd7b911cb508225ddf1760a6deed8c76535095702151dd336",
        "volcano.svg": "2f5600202208934d4add0bec4f53fa5253a826bfd336bb5de455994b726c7efa",
    },
    "spaces": {
        "space_summary.csv": "7c90ff7b1bce571951b3fe7a66d816e5272154783c339d4094db83ea2043a457",
        "spaces.csv": "3e4c79d06316c95297829f9290711d800473ded4dc99c51e01a0eb36a08d56da",
    },
    "pplot_NO2": {
        "diagnostics.csv": "3335765ad49549ca2ef3fdd965871e3e5b337bf03f8885186bd4dce7fc7c5034",
        "pplot_NO2.csv": "cbb9605646fdc4e5423163f0efcf09cbc5266dd7fc7cf31fce9d0831d40a5268",
        "pplot_NO2.svg": "6c7e2c63615a58cbd1edfc96e49449f53ee71243596ff241b6b70da6e2f58dce",
    },
    "pplot_PM2.5_alpha_0.1": {
        "diagnostics.csv": "3a56f3b8ee13d708e5a166ae9a2430558af8723af619043b13b3166d1b1ea05f",
        "pplot_PM2.5.csv": "f8c63eadfd8c8439c5c43e7791dc028e07d4ff5664d760188e2fec239ec655ac",
        "pplot_PM2.5.svg": "7df0a8bceea433edcd2147c7c5269c6377dcd4945dd9e9c3872a0a3a4ceb1dca",
    },
    "volcano": {
        "volcano.csv": "6f3cfff2f17473bcd7b911cb508225ddf1760a6deed8c76535095702151dd336",
        "volcano.svg": "cac43e65270d290a2d0450e187cfcfe82811619d276ca48db485a98e4e002ba3",
    },
    "volcano_m_tests": {
        "volcano.csv": "6f3cfff2f17473bcd7b911cb508225ddf1760a6deed8c76535095702151dd336",
        "volcano.svg": "36305679b0412fb48bf2dcca9443515accf3258f5cb9f82271f15b66392bec69",
    },
    "pool_fixed": {
        "pooled.csv": "1cdee73792347baefd8a160a29e062d99b9f2b30f4cfbf0289d717b75c7418f5",
    },
    "pool_dl": {
        "pooled.csv": "91ab72c45ed89608feead09b20d2156d2676707ca6dad9564fb683b7d4bf9c4c",
    },
    "pfromci": {
        "backcalc.csv": "f56470b07229326d37939af60cd620db15b8e050a82ed059a96391c22e17644b",
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

STDOUT = {
    "report": "8b585475cd00a882a087b572f6c48c460bd80511507ce472c346f9daabd2ab75",
    "report_alpha_0.1": "8b585475cd00a882a087b572f6c48c460bd80511507ce472c346f9daabd2ab75",
    "spaces": "4357d04e43a6f2f5cc5976cb8b9e4842cb5e9431ef945b90f8e599da4a26d895",
    "pplot_NO2": "6f68c5cd64de4d6f4bec0674c5e9e5ab32e0dd763b3e8effdaae2e7c753079fe",
    "pplot_PM2.5_alpha_0.1": "d38a1736dca0608a0612d70707f7b4d03b1608007b5686e3b525653db08db7c9",
    "volcano": "a383a2d78664a6f6e5705a4f15ea80822c68f228561602824c9e37920107b52f",
    "volcano_m_tests": "5958254e9d13f203fe35fc0db3350d5f10c3cd2b2a26d894f242a38eaf893881",
    "pool_fixed": "0e3e797862daad6d67443edb627a0f49135d80d6abf2b1559b0577a3e145abab",
    "pool_dl": "14e09f1b52903fd903896b427b11664d5d3f54f2eaee62067aede3b86169df90",
    "pfromci": "5e6dd07f4c281808850bb87c78e981c650342614fb0f511f9ef485141cb7710a",
    "simulate_null": "41c1b0269b6d775a5b7574ab492e75ed61fb43901c4741c5721773983515627a",
    "simulate_mixture": "bb99dcb05e9c065d3fd205e7bd901ef628c29cb1590a502ea974739ce0120eab",
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_outputs_match_golden_hashes(run, tmp_path, capsys):
    out = tmp_path / run
    assert main(RUNS[run] + ["--out", str(out)]) == 0
    written = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
    }
    assert written == GOLDEN[run]
    stdout = capsys.readouterr().out.replace(str(out), "<out>")
    assert hashlib.sha256(stdout.encode()).hexdigest() == STDOUT[run]
