"""Golden hashes: every file and the stdout of thirteen CLI runs, pinned by sha256.

These pins make "byte-identical output" checkable across changes, not just
between two runs in a row. The single commands are pinned next to
``report``, which writes the same tables through the same builders, so
neither side can drift unnoticed. Stdout is hashed with the output
directory replaced by ``<out>``. A change that alters output on purpose
updates the pins here and says so in CHANGES.md. The three ``simulate``
runs are also made in a fresh process started as the command line starts,
which on two or more CPUs formats ``pvalues.csv`` in two processes.

The hashes were taken with Python 3.11.7 and numpy 2.4.6 on x86-64 Linux
with glibc 2.36. Another numpy may draw different variates from the same
seed. The normal quantile, the two-sided p-values and the Kolmogorov tail
go through ``math.erf``/``math.erfc``/``math.exp``, which call the
platform's C math library (libm); another libm may round them differently
in the last bit. Under CPython 3.10.13, 3.12.1 and 3.13.0 on the same
platform, the files and stdout of the 10 runs other than ``simulate`` matched
these pins; those interpreters had no numpy, so the 3 ``simulate`` runs were
not checked there.
"""

import hashlib
import os
from xml.etree import ElementTree

import pytest

from metaaudit import case_counts_path, case_effects_path, case_pvalues_path
from metaaudit.cli import main
from test_cli import FORKS, run_fresh

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
    "simulate_phack": [
        "simulate", "--regime", "phack", "--m", "30", "--s-tests", "10000",
        "--replicates", "200", "--seed", "42",
    ],
}

GOLDEN = {
    "report": {
        "backcalc.csv": "63ed438eb7d66dd95b4de2883b9c101e214ec7323816b21b7016334cb484937e",
        "descriptives.csv": "74885e31cc6ca4d7a74db4a590a6b8c604cfa165badfa1ca53d209263093b6ee",
        "diagnostics.csv": "9d50efdd56dffd3ea1c5d9bd2c2d9382af5eace73a921bfea4879c941843f1a6",
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
        "volcano.csv": "2515a37c21e09c4fc4b8fe245b58731caa7d3d3d49bda03ed372a96041857eb9",
        "volcano.svg": "ffe60d41b4b8eb294d7f7699651fe0e477dd6aeb8eee0ef295861f435cccfc7f",
    },
    "report_alpha_0.1": {
        "backcalc.csv": "63ed438eb7d66dd95b4de2883b9c101e214ec7323816b21b7016334cb484937e",
        "descriptives.csv": "74885e31cc6ca4d7a74db4a590a6b8c604cfa165badfa1ca53d209263093b6ee",
        "diagnostics.csv": "dbad37d1eba05e108b867e4d6e1b900bfeb03a93a0b116d5901fe08ed8a8b8c7",
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
        "volcano.csv": "2515a37c21e09c4fc4b8fe245b58731caa7d3d3d49bda03ed372a96041857eb9",
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
        "volcano.csv": "2515a37c21e09c4fc4b8fe245b58731caa7d3d3d49bda03ed372a96041857eb9",
        "volcano.svg": "cac43e65270d290a2d0450e187cfcfe82811619d276ca48db485a98e4e002ba3",
    },
    "volcano_m_tests": {
        "volcano.csv": "2515a37c21e09c4fc4b8fe245b58731caa7d3d3d49bda03ed372a96041857eb9",
        "volcano.svg": "36305679b0412fb48bf2dcca9443515accf3258f5cb9f82271f15b66392bec69",
    },
    "pool_fixed": {
        "pooled.csv": "7552a5ec0399ebf4c7cd4468accdf4f1e93b6f699de591e1472834ff121c8d5e",
    },
    "pool_dl": {
        "pooled.csv": "fe344d9d84a3c5d1bdf4255d710f9568951188998a6cf190a7ff7a9e491c6dd6",
    },
    "pfromci": {
        "backcalc.csv": "63ed438eb7d66dd95b4de2883b9c101e214ec7323816b21b7016334cb484937e",
    },
    "simulate_null": {
        "pvalues.csv": "4981d6f2bdd8f0419d73d6711c65281486afd34b5711ffe5d56d51df7226a79e",
        "shape_stats.csv": "3923165d10f16091785e2d19eb077ceaf17cf04b71a41fd25e6e8cdcab1ae295",
    },
    "simulate_mixture": {
        "pvalues.csv": "fe5e982e20018cade0d4314451a5fb858eed5400f90d6bab4ef7bdf3ef600d6b",
        "shape_stats.csv": "b7e30c2d84b3066f961d8d95a02d7b899d57d633e287fe9a655cd07c495362fe",
    },
    "simulate_phack": {
        "pvalues.csv": "927854cf919ba61557bfc2488de1f16c169042ecce191532537bd58508cd78e9",
        "shape_stats.csv": "da2e7ebca58ac396ac91ba0cc53e8f73c2b9e70c8e7087fe218027bc04c47bb7",
    },
}

STDOUT = {
    "report": "8b585475cd00a882a087b572f6c48c460bd80511507ce472c346f9daabd2ab75",
    "report_alpha_0.1": "8b585475cd00a882a087b572f6c48c460bd80511507ce472c346f9daabd2ab75",
    "spaces": "4357d04e43a6f2f5cc5976cb8b9e4842cb5e9431ef945b90f8e599da4a26d895",
    "pplot_NO2": "6f68c5cd64de4d6f4bec0674c5e9e5ab32e0dd763b3e8effdaae2e7c753079fe",
    "pplot_PM2.5_alpha_0.1": "d38a1736dca0608a0612d70707f7b4d03b1608007b5686e3b525653db08db7c9",
    "volcano": "98329e676425200eda1c2cf33981a4f9bd9cf36c0e8b1b5999446161d3866343",
    "volcano_m_tests": "6883fe11c30b605c7de3703a55ed26a245fd1ab6acbf09213c473c38659da5b5",
    "pool_fixed": "a26a8071444b31c4793ba8aa98f531aad5c81ffa6a5ddd58f2210e9e430407a2",
    "pool_dl": "2cde69084092a71f0a82f79b9c1007f1f1c68bd4d80dccf094881c9dda98eee3",
    "pfromci": "67f307fb04725f38a846657d6bb64ccea19d5e2741a6db59ce667e1436c0cb88",
    "simulate_null": "f663391fc38e911ef654bc7cd1cde4a99329c3315f92a955ee22e924aebd4643",
    "simulate_mixture": "676ff76918c94d17267f86fdd19653f8028a6b76c23bf841481ea734d27bd658",
    "simulate_phack": "7521a7af4159fc94dd1464174917c2a469bac2a8c2bc601cb767cd9f0bb66c02",
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


@pytest.mark.parametrize(
    "run", sorted(run for run in RUNS if any(name.endswith(".svg") for name in GOLDEN[run]))
)
def test_every_written_svg_is_well_formed_xml(run, tmp_path):
    out = tmp_path / run
    assert main(RUNS[run] + ["--out", str(out)]) == 0
    for path in sorted(out.glob("*.svg")):
        ElementTree.parse(path)  # raises ParseError on text that is not well-formed


def test_rerun_into_an_old_bundle_writes_new_files(tmp_path):
    # Each old file is unlinked, not truncated: a hard link keeps its inode
    # and its stale text, so the new file cannot reuse the inode number.
    out, kept = tmp_path / "report", tmp_path / "kept"
    out.mkdir()
    kept.mkdir()
    for name in GOLDEN["report"]:
        (out / name).write_text("stale\n" * 10_000)
        os.link(out / name, kept / name)
    assert main(RUNS["report"] + ["--out", str(out)]) == 0
    for name, digest in GOLDEN["report"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
        assert (out / name).stat().st_ino != (kept / name).stat().st_ino
        assert (kept / name).read_text() == "stale\n" * 10_000


def test_fresh_process_simulate_runs_match_golden_hashes(tmp_path):
    # A process started by the entry point has one thread, so with FORKS a second
    # process formats half of pvalues.csv; in-process runs under pytest, which has
    # OpenBLAS workers, format it alone.
    runs = {run: RUNS[run] for run in GOLDEN if run.startswith("simulate")}
    code = f"""
import os, runpy, sys
forks = []
fork = os.fork
def counted():
    pid = fork()
    if pid:
        forks.append(pid)
    return pid
os.fork = counted
for run, argv in {runs!r}.items():
    sys.argv = ["metaaudit", *argv, "--out", os.path.join({str(tmp_path)!r}, run)]
    try:
        runpy.run_module("metaaudit.cli", run_name="__main__")
    except SystemExit as exc:
        print(run, exc.code, len(forks), file=sys.stderr)
"""
    bare = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    assert run_fresh("-c", code, env=bare).stderr == "".join(
        f"{run} 0 {k * FORKS}\n" for k, run in enumerate(runs, start=1))
    for run in runs:
        written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in sorted((tmp_path / run).iterdir())}
        assert written == GOLDEN[run]
