"""The result records behave as the frozen dataclasses they replace."""

import re

import pytest

from discmax.allocsim import AllocationSpec, AllocationSummary
from discmax.datafit import CountSeries, DataError, NBFit
from discmax.extremes import ExtremalProfile, OscillationScan, Regime, TieDistribution
from discmax.tailmodel import GammaDiagnostic

PROFILE = dict(n=1e6, gamma=0.0, x_n=7.25, m_n=7, theta_n=0.5, p_n=0.6065306597126334,
               z_n=3.5, regime=Regime.GAMMA_ZERO)

# one instance's fields per record type, in declaration order
CASES = [
    (ExtremalProfile, PROFILE),
    (TieDistribution, dict(p_n=0.6, at_least={0: 0.4}, exactly={0: 0.3}, t_max=0)),
    (OscillationScan, dict(rows=(ExtremalProfile(**PROFILE),), breakpoints=(1e6,))),
    (AllocationSpec, dict(n_boxes=4, n_balls=3, kind="dirichlet", trials=10, seed=1, r=0.5)),
    (AllocationSummary, dict(max_histogram={1: 2}, tie_histogram={0: 2}, cluster_freq=1.0,
                             mean_top_two_occupancy=1.5, ge_anchor_histogram={1: 2}, trials=2)),
    (CountSeries, dict(counts=(0, 2, 1), block_size=3, label="quakes")),
    (NBFit, dict(mean=1.0, variance=2.0, r=1.0, p=0.5, overdispersed=True)),
    (GammaDiagnostic, dict(estimate=0.5, stable=False, last_delta=0.125)),
]


@pytest.mark.parametrize("cls, fields", CASES, ids=[c.__name__ for c, _ in CASES])
def test_record_behaves_as_frozen_dataclass(cls, fields):
    rec = cls(**fields)
    values = tuple(fields.values())
    inner = ", ".join(f"{k}={v!r}" for k, v in fields.items())
    assert repr(rec) == f"{cls.__name__}({inner})"

    assert cls(*values) == rec and not cls(*values) != rec
    assert rec != values and values != rec
    for other_cls, other_fields in CASES:
        if other_cls is not cls:
            assert rec != other_cls(**other_fields)

    try:
        want = hash(values)
    except TypeError:  # a dict field: unhashable, as the dataclass was
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == want

    first = next(iter(fields))
    for name in (first, "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert cls(**fields) == rec

    with pytest.raises(TypeError):
        cls(**{k: v for k, v in fields.items() if k != first})
    with pytest.raises(TypeError):
        cls(**fields, extra=0)


def test_defaults():
    assert AllocationSpec(n_boxes=4, n_balls=3, kind="multinomial", trials=1, seed=0).r is None
    assert CountSeries(counts=(1, 2), block_size=2).label == "series"


@pytest.mark.parametrize("build, error, message", [
    (lambda: AllocationSpec(0, 1, "multinomial", 1, 0), ValueError, "n_boxes must be >= 1, got 0"),
    (lambda: AllocationSpec(2, -1, "multinomial", 1, 0), ValueError,
     "n_balls must be >= 0, got -1"),
    (lambda: AllocationSpec(2, 1, "multinomial", 0, 0), ValueError, "trials must be >= 1, got 0"),
    (lambda: AllocationSpec(2, 1, "urn", 1, 0), ValueError,
     "kind must be one of ('multinomial', 'dirichlet'), got 'urn'"),
    (lambda: AllocationSpec(2, 1, "dirichlet", 1, 0), ValueError,
     "dirichlet allocations need a positive finite r, got None"),
    (lambda: AllocationSpec(2, 1, "multinomial", 1, 0, 2.0), ValueError,
     "multinomial allocations take no r, got 2.0"),
    (lambda: AllocationSpec(2, 1, "multinomial", 1, -3), ValueError,
     "seed must be a nonnegative int, got -3"),
    (lambda: AllocationSpec(10.5, 5, "multinomial", 10, 0), ValueError,
     "n_boxes must be an integer, got 10.5"),
    (lambda: AllocationSpec(2, 1.0, "multinomial", 1, 0), ValueError,
     "n_balls must be an integer, got 1.0"),
    (lambda: AllocationSpec(2, 1, "multinomial", "10", 0), ValueError,
     "trials must be an integer, got '10'"),
    (lambda: CountSeries((1, 2), 0), ValueError, "block_size must be >= 1, got 0"),
    # 2.5 was accepted, and empirical_daily_max then raised TypeError
    (lambda: CountSeries((1, 2, 3, 4, 5), 2.5), ValueError, "block_size must be an integer, got 2.5"),
    (lambda: CountSeries((1, 2), 3), DataError,
     "series of length 2 is shorter than one block (3)"),
    (lambda: CountSeries((1, -2), 1), DataError, "counts must be nonnegative"),
])
def test_construction_checks(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        build()
    assert type(info.value) is error
