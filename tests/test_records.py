"""The record types' contract: construction, defaults, equality, hashing,
repr, immutability, copying and pickling, one case per record type."""

import copy
import pickle

import pytest

from metaaudit import (
    BackCalcResult, Dataset, EffectEstimate, PooledResult, PValuePlotSeries, PValueRecord,
    SearchSpace, SimConfig, SpaceSummary, StudyCounts, VolcanoPoint,
)

_COUNTS = StudyCounts(1, "Ab", 2, 3, 4, 5)
_RECORD = PValueRecord(7, "Lee", "CO", 0.03)
_EFFECT = EffectEstimate("NO2", 1.5, 1.2, 1.9)

# (type, every field by position, the field names, the required fields by
# position, the defaults those leave, one field changed, the exact repr)
CASES = [
    (StudyCounts, (1, "Ab", 2, 3, 4, 5),
     ("citation", "author", "outcomes", "predictors", "covariates", "lags"),
     (1, "Ab", 2, 3, 4, 5), {}, {"lags": 6},
     "StudyCounts(citation=1, author='Ab', outcomes=2, predictors=3, covariates=4, lags=5)"),
    (SearchSpace, (6, 16, 96), ("space1", "space2", "space3"), (6, 16, 96), {},
     {"space3": 97}, "SearchSpace(space1=6, space2=16, space3=96)"),
    (SpaceSummary, ((1.0, 2.0, 2.5, 3.0, 4.0),) * 3, ("space1", "space2", "space3"),
     ((1.0, 2.0, 2.5, 3.0, 4.0),) * 3, {}, {"space2": (1.0, 1.0, 1.0, 1.0, 1.0)},
     "SpaceSummary(space1=(1.0, 2.0, 2.5, 3.0, 4.0), space2=(1.0, 2.0, 2.5, 3.0, 4.0), "
     "space3=(1.0, 2.0, 2.5, 3.0, 4.0))"),
    (EffectEstimate, ("NO2", 1.5, 1.2, 1.9, 0.9), ("label", "rr", "ci_low", "ci_high", "level"),
     ("NO2", 1.5, 1.2, 1.9), {"level": 0.95}, {"rr": 1.6},
     "EffectEstimate(label='NO2', rr=1.5, ci_low=1.2, ci_high=1.9, level=0.9)"),
    (BackCalcResult, (0.25, 0.125, 2.0, 0.0455), ("log_effect", "se", "z", "p"),
     (0.25, 0.125, 2.0, 0.0455), {}, {"p": 0.05},
     "BackCalcResult(log_effect=0.25, se=0.125, z=2.0, p=0.0455)"),
    (PooledResult, (3, 0.1, 0.05, 0.002, 0.198, 1.5, 0.0, 0.0, "fixed"),
     ("k", "pooled_log", "pooled_se", "ci_low", "ci_high", "q_stat", "tau2", "i2_percent",
      "method"),
     (3, 0.1, 0.05, 0.002, 0.198, 1.5, 0.0, 0.0, "fixed"), {}, {"method": "random_DL"},
     "PooledResult(k=3, pooled_log=0.1, pooled_se=0.05, ci_low=0.002, ci_high=0.198, "
     "q_stat=1.5, tau2=0.0, i2_percent=0.0, method='fixed')"),
    (PValueRecord, (7, "Lee", "CO", 0.03, True, True),
     ("citation", "author", "endpoint", "p", "direction_negative", "truncated"),
     (7, "Lee", "CO", 0.03), {"direction_negative": False, "truncated": False}, {"p": 0.04},
     "PValueRecord(citation=7, author='Lee', endpoint='CO', p=0.03, direction_negative=True, "
     "truncated=True)"),
    (PValuePlotSeries, ("CO", (0.1, 0.3, 0.5), 0.1), ("endpoint", "p", "alpha"),
     ("CO", (0.1, 0.3, 0.5)), {"alpha": 0.05}, {"endpoint": "NO2"},
     "PValuePlotSeries(endpoint='CO', p=(0.1, 0.3, 0.5), alpha=0.1)"),
    (VolcanoPoint, ("NO2", 0.4, 2.5), ("label", "effect", "neg_log10_p"), ("NO2", 0.4, 2.5), {},
     {"effect": 0.5}, "VolcanoPoint(label='NO2', effect=0.4, neg_log10_p=2.5)"),
    (Dataset, ([_COUNTS], [_RECORD], [_EFFECT], "bundled"),
     ("counts", "pvalues", "effects", "provenance"),
     ([_COUNTS], [_RECORD], [_EFFECT]), {"provenance": ""}, {"effects": []},
     "Dataset(counts=[StudyCounts(citation=1, author='Ab', outcomes=2, predictors=3, "
     "covariates=4, lags=5)], pvalues=[PValueRecord(citation=7, author='Lee', endpoint='CO', "
     "p=0.03, direction_negative=False, truncated=False)], effects=[EffectEstimate("
     "label='NO2', rr=1.5, ci_low=1.2, ci_high=1.9, level=0.95)], provenance='bundled')"),
    (SimConfig, ("mixture", 30, 801, 0.5, 10, 0.25, 200, "effect"),
     ("regime", "m", "seed", "delta", "s_tests", "pi_mix", "replicates", "mix_component"),
     ("null", 30, 801),
     {"delta": 0.0, "s_tests": 1, "pi_mix": 0.0, "replicates": 1, "mix_component": "phack"},
     {"seed": 802},
     "SimConfig(regime='mixture', m=30, seed=801, delta=0.5, s_tests=10, pi_mix=0.25, "
     "replicates=200, mix_component='effect')"),
]
IDS = [case[0].__name__ for case in CASES]


def _values(record, names):
    return tuple(getattr(record, name) for name in names)


@pytest.mark.parametrize("cls, args, names, required, defaults, changed, text", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, args, names, required, defaults,
                                                   changed, text):
    record = cls(*args)
    assert record == cls(**dict(zip(names, args)))
    assert _values(record, names) == args


@pytest.mark.parametrize("cls, args, names, required, defaults, changed, text", CASES, ids=IDS)
def test_defaults(cls, args, names, required, defaults, changed, text):
    record = cls(*required)
    assert {name: getattr(record, name) for name in defaults} == defaults
    assert record == cls(*required, **defaults)


@pytest.mark.parametrize("cls, args, names, required, defaults, changed, text", CASES, ids=IDS)
def test_equality_and_hash_go_by_field(cls, args, names, required, defaults, changed, text):
    record, twin = cls(*args), cls(*args)
    assert record == twin and not record != twin
    assert record != cls(**{**dict(zip(names, args)), **changed})
    compared = tuple(name for name in names if name != "provenance" or cls is not Dataset)
    if cls is Dataset:  # its fields are lists, and lists cannot be hashed
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin) == hash(_values(record, compared))


@pytest.mark.parametrize("cls, args, names, required, defaults, changed, text", CASES, ids=IDS)
def test_repr(cls, args, names, required, defaults, changed, text):
    assert repr(cls(*args)) == text


@pytest.mark.parametrize("cls, args, names, required, defaults, changed, text", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, args, names, required, defaults, changed,
                                              text):
    record = cls(*args)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert _values(record, names) == args


@pytest.mark.parametrize("cls, args, names, required, defaults, changed, text", CASES, ids=IDS)
def test_copy_and_pickle_round_trip(cls, args, names, required, defaults, changed, text):
    record = cls(*args)
    copies = [copy.copy(record), copy.deepcopy(record)]
    copies += [pickle.loads(pickle.dumps(record, protocol)) for protocol in (2, 5)]
    for other in copies:
        assert type(other) is cls and other == record
        assert _values(other, names) == args and repr(other) == text


def test_dataset_equality_ignores_provenance():
    assert Dataset([_COUNTS], [_RECORD], [_EFFECT], "a.csv") == Dataset(
        [_COUNTS], [_RECORD], [_EFFECT], "b.csv")
    assert Dataset([_COUNTS], [], [], "a.csv") != Dataset([], [], [], "a.csv")
