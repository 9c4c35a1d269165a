"""Smoke test of the demo scripts: each runs to the end and writes its plots.

Every demo is copied into a temporary directory and run in this process, so
its ``out/`` directory lands there and the package is imported only once.
"""

import runpy
import shutil
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

SVGS = {
    "audit_search_spaces.py": set(),
    "plot_reported_pvalues.py": {
        f"pplot_{endpoint}.svg" for endpoint in ("ozone", "CO", "NO2", "SO2", "PM10", "PM2.5")
    },
    "pool_effect_estimates.py": set(),
    "simulated_pvalue_shapes.py": {
        f"sim_{regime}.svg" for regime in ("null", "effect", "phack", "mixture")
    },
    "volcano_and_bonferroni.py": {"volcano.svg"},
}


def test_every_demo_is_listed():
    assert sorted(path.name for path in DEMOS.glob("*.py")) == sorted(SVGS)


@pytest.mark.parametrize("demo", sorted(SVGS))
def test_demo_runs_and_writes_its_plots(demo, tmp_path, capsys):
    script = tmp_path / demo
    shutil.copyfile(DEMOS / demo, script)
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out
    assert {path.name for path in tmp_path.glob("out/*.svg")} == SVGS[demo]
