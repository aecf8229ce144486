import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discmax.allocsim import (
    KINDS,
    AllocationSpec,
    AllocationSummary,
    MemoryBudgetError,
    enumerate_conditional,
    matched_model,
    merging_report,
    simulate,
    trial_counts,
)
from discmax.extremes import limiting_max_pmf, profile
from discmax.tailmodel import NegativeBinomialModel, PoissonModel


def asym_profile(n_boxes: int, n_balls: int, sigfigs=6):
    lam = n_balls / n_boxes
    return profile(PoissonModel(lam, extension="asymptotic"), n_boxes, x_sigfigs=sigfigs)


def composition_walk(n_boxes: int, n_balls: int, kind: str,
                     lam: float = 1.0, r: float = 1.0, p: float = 0.4) -> dict:
    """Reference for enumerate_conditional: the same two columns, summed
    over every composition of n_balls into n_boxes parts."""
    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    def rising_factorial(a, m):
        out = Fraction(1)
        for j in range(m):
            out *= a + j
        return out

    if kind == "multinomial":
        model = PoissonModel(lam)
    else:
        model = NegativeBinomialModel(r, p)
        r_frac = Fraction(r)

    fact = [math.factorial(i) for i in range(n_balls + 1)]
    alloc: dict = {}
    weight: dict = {}
    total_weight = 0.0
    for comp in compositions(n_balls, n_boxes):
        key = tuple(sorted(comp, reverse=True))
        coeff = fact[n_balls]
        for c in comp:
            coeff //= fact[c]
        if kind == "multinomial":
            pr = Fraction(coeff, n_boxes ** n_balls)
        else:
            num = Fraction(coeff)
            for c in comp:
                num *= rising_factorial(r_frac, c)
            pr = num / rising_factorial(n_boxes * r_frac, n_balls)
        alloc[key] = alloc.get(key, Fraction(0)) + pr

        w = math.exp(math.fsum(model.log_pmf(c) for c in comp))
        weight[key] = weight.get(key, 0.0) + w
        total_weight += w

    return {key: (float(alloc[key]), weight[key] / total_weight) for key in sorted(alloc)}


# (n_boxes, n_balls, kind, mixing parameters) for the oracle comparison
ORACLE_CASES = {
    "criterion4": [(boxes, balls, "multinomial", {"lam": lam})
                   for boxes in (2, 3, 4) for balls in range(2, 9) for lam in (0.3, 1.0, 2.0)]
                  + [(boxes, balls, "dirichlet", {"r": r, "p": 0.4})
                     for boxes in (2, 3, 4) for balls in range(2, 9) for r in (0.5, 1.0, 2.0)],
    "cap": [(6, 12, kind, {}) for kind in KINDS],
    "edges": [(boxes, 0, kind, {}) for boxes in (1, 3, 6) for kind in KINDS]
             + [(1, balls, kind, {}) for balls in (1, 5, 12) for kind in KINDS],
}


class TestAllocationSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            AllocationSpec(n_boxes=0, n_balls=1, kind="multinomial", trials=1, seed=0)
        with pytest.raises(ValueError):
            AllocationSpec(n_boxes=2, n_balls=1, kind="multinomial", trials=0, seed=0)
        with pytest.raises(ValueError):
            AllocationSpec(n_boxes=2, n_balls=1, kind="urn", trials=1, seed=0)
        with pytest.raises(ValueError):
            AllocationSpec(n_boxes=2, n_balls=1, kind="dirichlet", trials=1, seed=0)
        for r in (math.nan, math.inf):
            with pytest.raises(ValueError):
                AllocationSpec(n_boxes=2, n_balls=1, kind="dirichlet", trials=1, seed=0, r=r)
        AllocationSpec(n_boxes=2, n_balls=1, kind="dirichlet", trials=1, seed=0, r=0.5)


class TestTrialCounts:
    def test_conservation(self):
        for kind, r in (("multinomial", None), ("dirichlet", 1.5)):
            spec = AllocationSpec(n_boxes=7, n_balls=23, kind=kind, trials=1, seed=11, r=r)
            for t in range(25):
                counts = trial_counts(spec, t)
                assert int(counts.sum()) == 23

    @pytest.mark.parametrize("n_boxes,n_balls", [(50, 20), (20, 60), (8, 8), (10, 0)])
    def test_multinomial_returns_occupied_boxes(self, n_boxes, n_balls):
        spec = AllocationSpec(n_boxes=n_boxes, n_balls=n_balls, kind="multinomial",
                              trials=1, seed=41)
        for t in range(20):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=41, spawn_key=(t,)))
            dense = np.bincount(rng.integers(0, n_boxes, size=n_balls), minlength=n_boxes)
            counts = trial_counts(spec, t)
            assert counts.tolist() == dense[dense > 0].tolist()
            assert int(counts.sum()) == n_balls

    def test_deterministic_per_trial(self):
        spec = AllocationSpec(n_boxes=5, n_balls=9, kind="multinomial", trials=1, seed=3)
        a = trial_counts(spec, 4)
        b = trial_counts(spec, 4)
        assert (a == b).all()
        c = trial_counts(spec, 5)
        assert a.shape != c.shape or not (a == c).all()


class TestSimulate:
    def test_bit_reproducible(self):
        spec = AllocationSpec(n_boxes=200, n_balls=40, kind="multinomial",
                              trials=100, seed=99)
        prof = asym_profile(200, 40)
        assert simulate(spec, prof) == simulate(spec, prof)

    def test_dirichlet_bit_reproducible(self):
        spec = AllocationSpec(n_boxes=100, n_balls=50, kind="dirichlet",
                              trials=60, seed=5, r=1.0)
        prof = asym_profile(100, 50)
        assert simulate(spec, prof) == simulate(spec, prof)

    def test_histograms_sum_to_trials(self):
        spec = AllocationSpec(n_boxes=300, n_balls=60, kind="multinomial",
                              trials=80, seed=1)
        s = simulate(spec, asym_profile(300, 60))
        assert sum(s.max_histogram.values()) == 80
        assert sum(s.tie_histogram.values()) == 80
        assert sum(s.ge_anchor_histogram.values()) == 80
        assert 0.0 <= s.cluster_freq <= 1.0

    def test_zero_balls(self):
        spec = AllocationSpec(n_boxes=10, n_balls=0, kind="multinomial",
                              trials=20, seed=0)
        prof = asym_profile(10, 5)  # anchor irrelevant; maxima must all be 0
        s = simulate(spec, prof)
        assert s.max_histogram == {0: 20}
        assert s.tie_histogram == {9: 20}  # all ten boxes tie at zero

    # summaries computed before simulate read occupancy histograms; the
    # rewrite must reproduce them exactly
    @pytest.mark.parametrize("spec,anchor_spec,want", [
        (AllocationSpec(n_boxes=50, n_balls=20, kind="multinomial", trials=200, seed=12345),
         (50, 20),
         AllocationSummary(
             max_histogram={1: 4, 2: 130, 3: 64, 4: 2},
             tie_histogram={0: 85, 1: 33, 2: 30, 3: 33, 4: 12, 5: 2, 6: 1, 19: 4},
             cluster_freq=0.97, mean_top_two_occupancy=3.0,
             ge_anchor_histogram={0: 4, 1: 25, 2: 39, 3: 57, 4: 52, 5: 19, 6: 3, 7: 1},
             trials=200)),
        (AllocationSpec(n_boxes=20, n_balls=60, kind="multinomial", trials=200, seed=2024),
         (20, 60),
         AllocationSummary(
             max_histogram={5: 22, 6: 68, 7: 74, 8: 26, 9: 8, 10: 2},
             tie_histogram={0: 137, 1: 39, 2: 12, 3: 8, 4: 4},
             cluster_freq=0.45, mean_top_two_occupancy=2.995,
             ge_anchor_histogram={1: 4, 2: 23, 3: 66, 4: 62, 5: 35, 6: 8, 7: 2},
             trials=200)),
        (AllocationSpec(n_boxes=30, n_balls=45, kind="dirichlet", trials=150, seed=77, r=0.7),
         (30, 45),
         AllocationSummary(
             max_histogram={4: 1, 5: 8, 6: 33, 7: 28, 8: 31, 9: 18, 10: 14, 11: 7, 12: 4,
                            13: 2, 14: 2, 17: 1, 19: 1},
             tie_histogram={0: 125, 1: 18, 2: 5, 3: 1, 4: 1},
             cluster_freq=1 / 150, mean_top_two_occupancy=4.12,
             ge_anchor_histogram={4: 4, 5: 23, 6: 37, 7: 48, 8: 27, 9: 8, 10: 3},
             trials=150)),
        (AllocationSpec(n_boxes=10, n_balls=0, kind="multinomial", trials=20, seed=0),
         (10, 5),
         AllocationSummary(
             max_histogram={0: 20}, tie_histogram={9: 20}, cluster_freq=0.0,
             mean_top_two_occupancy=0.0, ge_anchor_histogram={0: 20}, trials=20)),
        (AllocationSpec(n_boxes=20, n_balls=3, kind="multinomial", trials=100, seed=5),
         (20, 1),  # anchor m_n = 0: every box counts as holding at least m_n
         AllocationSummary(
             max_histogram={1: 90, 2: 10}, tie_histogram={0: 10, 2: 90}, cluster_freq=0.9,
             mean_top_two_occupancy=19.9, ge_anchor_histogram={20: 100}, trials=100)),
    ], ids=["multinomial_sparse", "multinomial_dense", "dirichlet", "zero_balls",
            "anchor_zero"])
    def test_pinned_summary(self, spec, anchor_spec, want):
        assert simulate(spec, asym_profile(*anchor_spec)) == want

    def test_memory_budget(self):
        spec = AllocationSpec(n_boxes=10 ** 6, n_balls=1, kind="multinomial",
                              trials=10 ** 6, seed=0)
        with pytest.raises(MemoryBudgetError):
            simulate(spec, asym_profile(100, 10))

    def test_cluster_split_within_4_sigma_small_rate(self):
        # lam = 0.1, n = 1e5: the cluster probabilities are approximated
        # well; the observed anchor frequency must sit within 4 binomial
        # standard errors of p_n
        trials = 400
        spec = AllocationSpec(n_boxes=10 ** 5, n_balls=10 ** 4, kind="multinomial",
                              trials=trials, seed=20240601)
        prof = asym_profile(10 ** 5, 10 ** 4)
        assert prof.m_n == 3
        assert prof.p_n == pytest.approx(0.675268, abs=1e-6)
        s = simulate(spec, prof)
        f = s.max_histogram.get(prof.m_n, 0) / trials
        sigma = math.sqrt(prof.p_n * (1 - prof.p_n) / trials)
        assert abs(f - prof.p_n) <= 4 * sigma
        assert s.cluster_freq >= 0.95


class TestEnumerateConditional:
    def test_two_boxes_two_balls(self):
        law = enumerate_conditional(2, 2, "multinomial", lam=0.7)
        assert law[(1, 1)][0] == pytest.approx(0.5, abs=1e-15)
        assert law[(2, 0)][0] == pytest.approx(0.5, abs=1e-15)

    def test_conditional_matches_allocation_multinomial(self):
        for lam in (0.3, 1.0, 2.0):
            law = enumerate_conditional(3, 5, "multinomial", lam=lam)
            for key, (alloc, cond) in law.items():
                assert cond == pytest.approx(alloc, abs=1e-12), (lam, key)

    def test_conditional_matches_allocation_dirichlet(self):
        for r in (0.5, 1.0, 2.0):
            law = enumerate_conditional(3, 4, "dirichlet", r=r, p=0.35)
            for key, (alloc, cond) in law.items():
                assert cond == pytest.approx(alloc, abs=1e-12), (r, key)

    def test_probabilities_sum_to_one(self):
        law = enumerate_conditional(4, 6, "dirichlet", r=0.5)
        assert math.fsum(a for a, _ in law.values()) == pytest.approx(1.0, abs=1e-12)
        assert math.fsum(c for _, c in law.values()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("group", sorted(ORACLE_CASES))
    def test_matches_composition_walk(self, group):
        for boxes, balls, kind, kw in ORACLE_CASES[group]:
            law = enumerate_conditional(boxes, balls, kind, **kw)
            ref = composition_walk(boxes, balls, kind, **kw)
            case = (boxes, balls, kind, kw)
            assert list(law) == list(ref), case
            assert [a for a, _ in law.values()] == [a for a, _ in ref.values()], case
            for key in ref:
                assert law[key][1] == pytest.approx(ref[key][1], abs=1e-12), (case, key)

    @settings(deadline=None)
    @given(boxes=st.integers(1, 6), balls=st.integers(0, 12), kind=st.sampled_from(KINDS),
           lam=st.floats(0.05, 5.0), r=st.floats(0.1, 5.0), p=st.floats(0.05, 0.95))
    def test_law_properties(self, boxes, balls, kind, lam, r, p):
        law = enumerate_conditional(boxes, balls, kind, lam=lam, r=r, p=p)
        for key in law:
            assert len(key) == boxes and sum(key) == balls
            assert list(key) == sorted(key, reverse=True)
        assert math.fsum(a for a, _ in law.values()) == pytest.approx(1.0, abs=1e-12)
        assert math.fsum(c for _, c in law.values()) == pytest.approx(1.0, abs=1e-12)
        for key, (alloc, cond) in law.items():
            assert cond == pytest.approx(alloc, abs=1e-12), key

    def test_size_caps(self):
        with pytest.raises(ValueError):
            enumerate_conditional(7, 3, "multinomial")
        with pytest.raises(ValueError):
            enumerate_conditional(3, 13, "multinomial")


class TestMergingReport:
    def test_row_structure(self):
        spec = AllocationSpec(n_boxes=400, n_balls=4, kind="multinomial",
                              trials=200, seed=8)
        prof = asym_profile(400, 4)
        rows = merging_report(spec, prof, t_max=2, summary=simulate(spec, prof))
        quantities = [r["quantity"] for r in rows]
        assert "max_eq_anchor" in quantities
        assert "max_eq_anchor_plus_1" in quantities
        assert "ties_eq_0" in quantities and "ties_eq_2" in quantities
        assert "top_two_occupancy" in quantities
        for r in rows:
            if r["theory"] is not None:
                assert r["abs_error"] == pytest.approx(
                    abs(r["empirical"] - r["theory"]), abs=1e-15)
            if r["stderr"] is not None and r["quantity"] != "top_two_occupancy":
                f = r["empirical"]
                assert r["stderr"] == pytest.approx(
                    math.sqrt(max(f * (1 - f), 0.0) / 200), abs=1e-15)

    def test_single_trial_deviations_bounded(self):
        spec = AllocationSpec(n_boxes=50, n_balls=5, kind="multinomial",
                              trials=1, seed=0)
        prof = asym_profile(50, 5)
        rows = merging_report(spec, prof, t_max=1, summary=simulate(spec, prof))
        for r in rows:
            if r["abs_error"] is not None and r["quantity"] != "top_two_occupancy":
                assert r["abs_error"] <= 1.0

    def test_phase_transition_rows(self):
        spec = AllocationSpec(n_boxes=2000, n_balls=20, kind="multinomial",
                              trials=150, seed=77)
        prof = asym_profile(2000, 20)
        rows = merging_report(spec, prof, summary=simulate(spec, prof))
        phase = [r for r in rows if r["quantity"].startswith("depth_")]
        assert len(phase) == 2
        # shallow depth nearly always exceeded, deep depth nearly never
        assert phase[0]["theory"] == 1.0 and phase[0]["empirical"] >= 0.8
        assert phase[1]["theory"] == 0.0 and phase[1]["empirical"] <= 0.2

    def test_dirichlet_max_theory_is_limiting_law(self):
        # gamma = 0.5: the max spreads over the p^(gamma^x) law, not over
        # the gamma = 0 pair {p_n, 1 - p_n}
        spec = AllocationSpec(n_boxes=2000, n_balls=2000, kind="dirichlet", trials=1000,
                              seed=1, r=1.0)
        prof = profile(matched_model(spec), spec.n_boxes)
        assert prof.gamma == 0.5 and prof.m_n == 10
        rows = {r["quantity"]: r for r in merging_report(spec, prof, summary=simulate(spec, prof))}
        for quantity, x in (("max_eq_anchor", 0), ("max_eq_anchor_plus_1", 1)):
            theory = limiting_max_pmf(prof, x)
            assert rows[quantity]["theory"] == theory
            sigma = math.sqrt(theory * (1.0 - theory) / spec.trials)
            assert abs(rows[quantity]["empirical"] - theory) <= 4.0 * sigma, rows[quantity]
        # no tie law and no phase transition outside gamma = 0
        assert rows["ties_eq_0"]["theory"] is None
        assert not any(q.startswith("depth_") for q in rows)


class TestMatchedModel:
    def test_multinomial_is_poisson_of_mean_occupancy(self):
        spec = AllocationSpec(n_boxes=400, n_balls=100, kind="multinomial", trials=1, seed=0)
        m = matched_model(spec)
        assert isinstance(m, PoissonModel) and m.lam == 0.25 and m.extension == "natural"
        assert matched_model(spec, "asymptotic").extension == "asymptotic"

    def test_dirichlet_is_negative_binomial_with_that_mean(self):
        spec = AllocationSpec(n_boxes=50, n_balls=25, kind="dirichlet", trials=1, seed=0, r=2.0)
        m = matched_model(spec, "loglinear")
        assert isinstance(m, NegativeBinomialModel) and m.extension == "loglinear"
        assert m.r * m.p / (1.0 - m.p) == pytest.approx(0.5, rel=1e-15)
        with pytest.raises(ValueError):
            matched_model(spec, "asymptotic")
