"""Simulation at block boundaries: bit-identical results and bounded working memory.

``shape_stats`` sorts and fits its rows a block at a time, and ``draw_pvalues``
overwrites its draws in place. At m = 30, 2,500 replicates span several blocks
and end in a partial one. The pinned hashes and reprs were computed with the
whole-array code that both functions replaced, so they hold them to its bytes.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from metaaudit import (
    PValueRecord, ValidationError, bilinearity_fit, build_pplot, simulate, uniformity_ks,
)
from metaaudit.simulate import SimConfig, draw_pvalues, shape_stats

M, REPLICATES, SEED = 30, 2500, 1919

REGIMES = {
    "null": {"regime": "null"},
    "effect": {"regime": "effect", "delta": 1.5},
    "phack": {"regime": "phack", "s_tests": 20},
    "mixture_phack": {"regime": "mixture", "pi_mix": 0.3, "s_tests": 50},
    "mixture_effect": {"regime": "mixture", "pi_mix": 0.3, "delta": 2.0,
                       "mix_component": "effect"},
}

PINS = {
    "null": (
        "f9bfd5f808399631c3abb7112c8821255fb76cad025ea636940b29c1915d4c51",
        "ShapeStats(mean_frac_le_005=0.051346666666665854, mean_ks_d=0.15346015368952676, "
        "mean_bilinearity_ratio=0.38136639488841784)",
    ),
    "effect": (
        "30b28fdfc5353c3bdc3f72d00161ab356a0f8239585a19bd45fbadbd74c40c7d",
        "ShapeStats(mean_frac_le_005=0.32449333333333213, mean_ks_d=0.4484266662636015, "
        "mean_bilinearity_ratio=0.10611571417445846)",
    ),
    "phack": (
        "1eecee766c1ab8c8bcf3fdb99eac98735ed5328872c27061bca05147caf0da61",
        "ShapeStats(mean_frac_le_005=0.6411466666666723, mean_ks_d=0.841940967368233, "
        "mean_bilinearity_ratio=0.11774150394471776)",
    ),
    "mixture_phack": (
        "785c65dbdf888a6602ea41cc30b9793fe4f84eb27d4da7c04d0527b76a74f192",
        "ShapeStats(mean_frac_le_005=0.31095999999999785, mean_ks_d=0.31547689147288605, "
        "mean_bilinearity_ratio=0.191527505208474)",
    ),
    "mixture_effect": (
        "82487bb1df478b41b3968a5c4ccf3c73f6f1b9cb7133de20db45ab98c8dbcd4e",
        "ShapeStats(mean_frac_le_005=0.18957333333333365, mean_ks_d=0.2432796134794646, "
        "mean_bilinearity_ratio=0.26329261644652246)",
    ),
}


def drawn(name, replicates=REPLICATES, seed=SEED):
    return draw_pvalues(SimConfig(m=M, seed=seed, replicates=replicates, **REGIMES[name]))


def test_pinned_replicates_span_several_blocks_and_end_in_a_partial_one():
    rows = simulate._BLOCK // M
    assert REPLICATES >= 3 * rows and REPLICATES % rows


@pytest.mark.parametrize("name", sorted(REGIMES))
def test_draws_and_shape_stats_match_pins(name):
    p = drawn(name)
    digest, stats = PINS[name]
    assert hashlib.sha256(p.tobytes()).hexdigest() == digest
    assert repr(shape_stats(p)) == stats


@pytest.mark.parametrize("name", sorted(REGIMES))
def test_shape_stats_equals_per_row_scalar_diagnostics(name):
    p = drawn(name)
    fracs, ks_ds, ratios = [], [], []
    for row in p.tolist():
        series = build_pplot(
            [PValueRecord(citation=1, author="t", endpoint="e", p=value) for value in row], "e"
        )
        fracs.append(series.frac_le_alpha)
        ks_ds.append(uniformity_ks(series).d_stat)
        ratios.append(bilinearity_fit(series).ratio)
    expected = (sum(fracs) / REPLICATES, sum(ks_ds) / REPLICATES, sum(ratios) / REPLICATES)
    assert tuple(shape_stats(p)) == expected


@pytest.mark.parametrize("block", [1, 7 * M + 5, 2**40])
def test_shape_stats_does_not_depend_on_the_block_size(monkeypatch, block):
    # 1 is less than a row, so each block is one row; 2**40 puts every row in one block.
    p = drawn("mixture_phack", replicates=300)
    expected = repr(shape_stats(p))
    monkeypatch.setattr(simulate, "_BLOCK", block)
    assert repr(shape_stats(p)) == expected


def test_shape_stats_rejects_a_bad_value_in_the_last_block():
    p = drawn("null")
    p[-1, -1] = np.nan
    with pytest.raises(ValidationError, match=r"^shape_stats needs p-values in \(0, 1\]$"):
        shape_stats(p)


# Memory: tracemalloc sees numpy's array buffers, so its peak is the working
# memory a call allocates on top of what already exists.

def peak_bytes(function, *args):
    tracemalloc.start()
    try:
        result = function(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_shape_stats_working_memory_is_bounded_by_its_input():
    # Sorting and fitting every row at once took about 14 times p.
    p = drawn("null", replicates=20_000, seed=3)
    _, peak = peak_bytes(shape_stats, p)
    assert peak <= 1.5 * p.nbytes


@pytest.mark.parametrize("name, bound", [
    ("null", 1.3), ("effect", 1.3), ("phack", 1.3),
    # a mixture also holds its selection flags, one byte per value ...
    ("mixture_effect", 1.3),
    # ... and a phack mixture its candidate uniforms too
    ("mixture_phack", 2.3),
])
def test_draw_pvalues_working_memory_is_bounded_by_its_output(name, bound):
    cfg = SimConfig(m=M, seed=3, replicates=20_000, **REGIMES[name])
    draw_pvalues(SimConfig(m=M, seed=3, replicates=1, **REGIMES[name]))  # first-call caches
    p, peak = peak_bytes(draw_pvalues, cfg)
    assert peak <= bound * p.nbytes
