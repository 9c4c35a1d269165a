"""Compare simulated p-value plot shapes under four reporting regimes.

The null regime draws every p-value from a true null; effect shifts the
underlying test statistic; phack reports only the smallest of many
candidate tests per study; mixture blends phack'd studies into a majority
of honest nulls.  Averaged over replicates, the shape statistics separate
the regimes: a null series stays near the 45-degree line while a mixture
bends into a hockey stick, which shows up as a small two-segment to
one-segment fit ratio.  One example plot per regime is written as SVG.
"""

from pathlib import Path

from metaaudit import (
    PValuePlotSeries,
    SimConfig,
    draw_pvalues,
    render_pplot_svg,
    shape_stats,
)

out_dir = Path(__file__).parent / "out"
out_dir.mkdir(exist_ok=True)

configs = {
    "null": SimConfig(regime="null", m=30, seed=11, replicates=200),
    "effect": SimConfig(regime="effect", m=30, seed=11, delta=3.0,
                        replicates=200),
    "phack": SimConfig(regime="phack", m=30, seed=11, s_tests=1000,
                       replicates=200),
    "mixture": SimConfig(regime="mixture", m=30, seed=11, s_tests=1000,
                         pi_mix=0.4, replicates=200),
}

print(f"{'regime':<8} {'frac<=.05':>9} {'mean KS D':>9} {'bilinearity':>11}")
for name, cfg in configs.items():
    p = draw_pvalues(cfg)
    stats = shape_stats(p)
    print(f"{name:<8} {stats.mean_frac_le_005:>9.3f} {stats.mean_ks_d:>9.3f} "
          f"{stats.mean_bilinearity_ratio:>11.3f}")
    # Render the first replicate as a concrete example of the shape.
    series = PValuePlotSeries(endpoint=name, p=p[0])
    (out_dir / f"sim_{name}.svg").write_text(render_pplot_svg(series),
                                             encoding="utf-8")

print(f"\nwrote {len(configs)} example plots to {out_dir}/")
