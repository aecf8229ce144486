import functools
import inspect
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discmax import allocsim
from discmax.allocsim import (
    CHUNK_CELLS,
    CHUNK_DRAWS,
    KINDS,
    POISSON_MARGIN,
    AllocationSpec,
    AllocationSummary,
    _chunks,
    comparison_tables,
    enumerate_conditional,
    matched_model,
    merging_report,
    simulate,
    trial_counts,
)
from discmax.extremes import limiting_max_pmf, profile, tie_distribution
from discmax.specfun import reg_beta_log, reg_gamma_q_log
from discmax.tailmodel import _LOG_TABLE_TAIL, NegativeBinomialModel, PoissonModel


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


def poisson_rate(spec) -> float:
    """lambda' = max(0, k - POISSON_MARGIN sqrt(k)) / n, the rate of a
    multinomial trial's Poisson table (see TestPoissonTable.test_rate)."""
    return max(0.0, spec.n_balls - allocsim.POISSON_MARGIN * math.sqrt(spec.n_balls)) / spec.n_boxes


def histograms(drawn) -> tuple:
    """(first, occupancy rows) of a trial_counts chunk: histograms as they
    come, box counts histogrammed row by row."""
    if isinstance(drawn, tuple):
        return drawn
    width = int(drawn.max(initial=0)) + 1
    return 0, np.array([np.bincount(row, minlength=width) for row in drawn])


def version(spec) -> int:
    """The stream version of the spec's route: 3 for the multinomial, 6 for
    a Dirichlet spec on histograms, 4 for one on box counts."""
    return next(_chunks(spec))[0][0]


def dirichlet_spec(n_boxes, n_balls, r, trials=1, seed=0) -> AllocationSpec:
    return AllocationSpec(n_boxes=n_boxes, n_balls=n_balls, kind="dirichlet", trials=trials,
                          seed=seed, r=r)


def least_sum(n_boxes: int, first: int, pvals) -> int:
    """Reference for allocsim._least_sum, in exact rationals: the least
    integer L >= n mean - sqrt(n var), mean and var those of one box under
    the table's (float) probabilities."""
    probs = [Fraction(p) for p in pvals]
    mean = sum(p * (first + j) for j, p in enumerate(probs))
    var = sum(p * (first + j - mean) ** 2 for j, p in enumerate(probs))
    center, spread = n_boxes * mean, n_boxes * var
    # L >= center - sqrt(spread) iff L >= center or (center - L)^2 <= spread
    least = math.ceil(center)
    while (center - least + 1) ** 2 <= spread:
        least -= 1
    return least


def reference_polya(rng, hists: list, missing: list, r: float) -> None:
    """Reference for _polya_steps, on {balls: boxes} dicts in plain Python,
    in place and in trial order: the trials missing the most step first (a
    stable sort), and at each step every trial still missing a ball takes
    the next uniform, in that order, and moves one box up from the first
    class whose cumulative weight boxes x (r + balls) exceeds the uniform
    times the total."""
    order = sorted(range(len(hists)), key=lambda t: -missing[t])
    step = 0
    while live := [t for t in order if missing[t] > step]:
        for t, x in zip(live, rng.random(len(live)).tolist()):
            occ = hists[t]
            classes = sorted(v for v in occ if occ[v])
            cum = list(accumulate(occ[v] * (r + v) for v in classes))
            v = next(v for v, c in zip(classes, cum) if c > x * cum[-1])
            occ[v] -= 1
            occ[v + 1] = occ.get(v + 1, 0) + 1
        step += 1


def reference_rows(spec, key, size) -> list:
    """Reference for trial_counts: each trial's box counts, drawn from the
    chunk's stream in plain Python, one trial at a time (the Pólya steps of
    version 6 in lock step).  A Dirichlet trial on box counts (version 4)
    draws its weights and one multinomial.  A trial on histograms takes the
    histogram of its Poisson (version 3) or NB (version 6) counts, drawn
    again, in the kernel's rounds, while it holds more than n_balls balls
    or, on NB rows, fewer than `least_sum`; a multinomial trial writes it
    out as boxes in class order and adds its missing balls to those boxes
    one by one, a Dirichlet trial adds them by `reference_polya`, and a
    version-6 chunk comes in the order its trials step in."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=spec.seed, spawn_key=key))
    if spec.kind == "dirichlet":
        table = allocsim._negbinom_table(spec.n_boxes, spec.n_balls, spec.r)
        if table is None:  # stream version 4
            weights = rng.dirichlet([spec.r] * spec.n_boxes, size)
            return [rng.multinomial(spec.n_balls, w).tolist() for w in weights]
        first, pvals = table
        least = least_sum(spec.n_boxes, first, pvals)
    else:
        first, pvals = allocsim._poisson_table(poisson_rate(spec))
        least = 0

    def draw() -> list:
        return rng.multinomial(spec.n_boxes, pvals).tolist()

    def balls(row) -> int:
        return sum((first + j) * c for j, c in enumerate(row))

    def outside(row) -> bool:
        return not least <= balls(row) <= spec.n_balls

    rows = [draw() for _ in range(size)]
    redraw = [t for t in range(size) if outside(rows[t])]
    while redraw:
        for t in redraw:
            rows[t] = draw()
        redraw = [t for t in redraw if outside(rows[t])]
    if spec.kind == "dirichlet":  # returned in the order the trials step in
        hists = [{first + j: c for j, c in enumerate(row) if c} for row in rows]
        missing = [spec.n_balls - balls(row) for row in rows]
        reference_polya(rng, hists, missing, spec.r)
        order = sorted(range(size), key=lambda t: -missing[t])
        return [[v for v in sorted(hists[t]) for _ in range(hists[t][v])] for t in order]
    trials = []
    for row in rows:
        boxes = [first + j for j, c in enumerate(row) for _ in range(c)]
        for box in rng.integers(0, spec.n_boxes, spec.n_balls - balls(row)).tolist():
            boxes[box] += 1
        trials.append(boxes)
    return trials


def occupancy(first: int, row) -> dict:
    """{balls: boxes holding them} of one trial_counts row."""
    return {first + j: int(c) for j, c in enumerate(row) if c}


def reference_summary(spec, prof) -> AllocationSummary:
    """Reference for simulate: the same chunks and draws, tallied in Python
    one trial at a time from its box counts."""
    m = prof.m_n
    max_hist, tie_hist, ge_hist = {}, {}, {}
    cluster = top_two_total = 0
    for key, size in _chunks(spec):
        for counts in reference_rows(spec, key, size):
            occ = np.bincount(counts).tolist()
            mx = len(occ) - 1
            ge_anchor = sum(occ[max(m, 0):])
            max_hist[mx] = max_hist.get(mx, 0) + 1
            tie_hist[occ[mx] - 1] = tie_hist.get(occ[mx] - 1, 0) + 1
            ge_hist[ge_anchor] = ge_hist.get(ge_anchor, 0) + 1
            cluster += mx in (m, m + 1)
            top_two_total += sum(occ[v] for v in (m, m + 1) if 0 <= v <= mx)
    return AllocationSummary(
        max_histogram=dict(sorted(max_hist.items())),
        tie_histogram=dict(sorted(tie_hist.items())),
        cluster_freq=cluster / spec.trials,
        mean_top_two_occupancy=top_two_total / spec.trials,
        ge_anchor_histogram=dict(sorted(ge_hist.items())),
        trials=spec.trials)


def exact_max_tie_law(n_boxes: int, n_balls: int) -> dict:
    """{(max, tie count): probability} of the uniform multinomial, from
    exact integers: k!/n^k [z^k] (sum_{j<=x} z^j/j!)^n is P(max <= x), and
    P(max = x, t + 1 boxes at x) = k!/n^k C(n, t+1)/(x!)^(t+1)
    [z^(k-(t+1)x)] A_(x-1)(z)^(n-t-1), A_x(z) = sum_{j<=x} z^j/j!.
    r! [z^r] A_x(z)^m counts the ways to put r labelled balls in m boxes of
    at most x balls each."""
    @functools.lru_cache(maxsize=None)
    def ways(boxes: int, balls: int, cap: int) -> int:
        if boxes == 0:
            return int(balls == 0)
        return sum(math.comb(balls, j) * ways(boxes - 1, balls - j, cap)
                   for j in range(min(cap, balls) + 1))

    k, n = n_balls, n_boxes
    law = {}
    for x in range(k + 1):
        for t in range(n):
            rest = k - (t + 1) * x
            if rest < 0:
                break
            # k! / ((x!)^(t+1) rest!) orders the balls of the boxes at x
            count = (math.comb(n, t + 1) * math.factorial(k)
                     // (math.factorial(x) ** (t + 1) * math.factorial(rest))
                     * ways(n - t - 1, rest, x - 1))
            if count:
                law[(x, t)] = count / n ** k
    return law


def exact_dirichlet_max_tie_law(n_boxes: int, n_balls: int, r: float) -> dict:
    """{(max, tie count): probability} of the symmetric Dirichlet mixture
    from exact integers, the rising-factorial twin of exact_max_tie_law.
    With r = a/d and R_j = a (a + d) ... (a + (j - 1) d), a count vector c
    has probability k!/prod c_i! prod R_(c_i) / N, N = na (na + d) ...
    (na + (k - 1) d) (the powers of d cancel), so P(max = x, t + 1 boxes at
    x) is C(n, t+1) k!/((x!)^(t+1) s!) R_x^(t+1) E(n - t - 1, s) / N with
    s = k - (t + 1) x, where E(m, s) sums s!/prod c_i! prod R_(c_i) over the
    ways to put s balls in m boxes of at most x - 1 each.  E(m, s) is
    sum_i C(m, i) F_i(s), F_i the i-th binomial-convolution power of
    (0, R_1, ..., R_(x-1)), the i boxes that are not empty; the powers are
    built one box at a time, not by recursion."""
    k, n = n_balls, n_boxes
    a, d = float(r).as_integer_ratio()
    rising = allocsim._rising_factorials(a, d, k)
    total = allocsim._rising_factorials(n * a, d, k)[-1]
    if k == 0:
        return {(0, n - 1): 1.0}
    counts = {}
    for x in range(1, k + 1):
        top = k - x  # the most balls the boxes below x hold
        cap = min(x - 1, top)
        powers = [[1] + [0] * top]
        for _ in range(min(n - 1, top)):
            prev = powers[-1]
            powers.append([sum(math.comb(s, j) * rising[j] * prev[s - j]
                               for j in range(1, min(cap, s) + 1)) for s in range(top + 1)])
        for t in range(min(n, k // x)):
            s, m = k - (t + 1) * x, n - t - 1
            ways = sum(math.comb(m, i) * powers[i][s] for i in range(min(m, s) + 1))
            if ways:
                counts[(x, t)] = (math.comb(n, t + 1) * rising[x] ** (t + 1) * ways
                                  * (math.factorial(k)
                                     // (math.factorial(x) ** (t + 1) * math.factorial(s))))
    assert sum(counts.values()) == total
    return {cell: count / total for cell, count in counts.items()}


def max_tie_cells(first: int, hist) -> Counter:
    """{(max, tie count): trials} of a chunk of occupancy histograms."""
    top = hist.shape[1] - 1 - np.argmax(hist[:, ::-1] > 0, axis=1)
    return Counter(zip((first + top).tolist(), (hist[np.arange(len(hist)), top] - 1).tolist()))


def record_draws(monkeypatch) -> list:
    """(method, shape) of every draw from the generators made from now on."""
    calls = []
    real = np.random.default_rng

    class Recording:
        def __init__(self, seed):
            self.rng = real(seed)

        def __getattr__(self, name):
            def draw(*args, **kwargs):
                out = getattr(self.rng, name)(*args, **kwargs)
                calls.append((name, out.shape))
                return out
            return draw

    monkeypatch.setattr(np.random, "default_rng", Recording)
    return calls


def assert_law_within_5_sigma(histogram: dict, law: dict, trials: int) -> None:
    """Every value's frequency within 5 binomial sigma of its exact
    probability, sigma taken at an expected count of at least 5."""
    assert set(histogram) <= set(law), set(histogram) - set(law)
    for value, prob in law.items():
        f = histogram.get(value, 0) / trials
        sigma = math.sqrt(max(prob, 5.0 / trials) * (1.0 - prob) / trials)
        assert abs(f - prob) <= 5.0 * sigma, (value, f, prob)


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

    @pytest.mark.parametrize("r", [5.0, 1.0, math.nan])
    def test_multinomial_refuses_r(self, r):
        with pytest.raises(ValueError, match="multinomial allocations take no r"):
            AllocationSpec(n_boxes=2, n_balls=1, kind="multinomial", trials=1, seed=0, r=r)

    @pytest.mark.parametrize("kind,r", [("multinomial", None), ("dirichlet", 1.0)])
    @pytest.mark.parametrize("seed", [-1, 1.5, 2.0, "3", None, True, np.int64(3)])
    def test_refuses_seed_not_a_nonnegative_int(self, kind, r, seed):
        with pytest.raises(ValueError, match="seed must be a nonnegative int"):
            AllocationSpec(n_boxes=2, n_balls=1, kind=kind, trials=1, seed=seed, r=r)

    def test_sizes_must_be_integers(self):
        # n_boxes=10.5 was accepted, and simulate returned a tie histogram
        # with float keys: {0.0: 6, 1.0: 2, 4.0: 2}
        with pytest.raises(ValueError, match="n_boxes must be an integer, got 10.5"):
            AllocationSpec(n_boxes=10.5, n_balls=5, kind="multinomial", trials=10, seed=0)
        # numpy integers pass, kept as Python ints: a uint8 n_balls
        # overflowed in CHUNK_DRAWS // n_balls
        spec = AllocationSpec(n_boxes=np.int64(10), n_balls=np.uint8(5), kind="multinomial",
                              trials=np.int32(10), seed=0)
        assert spec == AllocationSpec(n_boxes=10, n_balls=5, kind="multinomial", trials=10, seed=0)
        assert simulate(spec, asym_profile(10, 5)).trials == 10

    def test_accepts_seeds_past_64_bits(self):
        spec = AllocationSpec(n_boxes=3, n_balls=4, kind="multinomial", trials=2, seed=2 ** 70)
        assert simulate(spec, asym_profile(3, 4)).trials == 2


class TestChunks:
    @pytest.mark.parametrize("n_boxes,n_balls,kind,r,trials", [
        (50, 20, "multinomial", None, 10000), (20, 60, "multinomial", None, 1),
        (10, 0, "multinomial", None, 20000), (30, 45, "dirichlet", 0.7, 999),
        (100_000, 10 ** 6, "multinomial", None, 40),
        (2, 10 ** 9, "multinomial", None, 3),
        (50, 20, "dirichlet", 1.0, 328),
        (50, 200, "dirichlet", 1.0, 326),   # exactly 2 full chunks of box counts
        (2000, 2000, "dirichlet", 1.0, 1000),
        (400, 60, "dirichlet", 0.5, 20000)])
    def test_plans(self, n_boxes, n_balls, kind, r, trials):
        # the multinomial is stream version 3, about sqrt(k) draws a trial;
        # a Dirichlet spec is version 6 on histograms, CHUNK_CELLS over its
        # table's width, or version 4 on box counts, two draws a box
        spec = AllocationSpec(n_boxes=n_boxes, n_balls=n_balls, kind=kind, trials=trials,
                              seed=0, r=r)
        plan = list(_chunks(spec))
        table = allocsim._negbinom_table(n_boxes, n_balls, r) if r else None
        stream = 3 if kind == "multinomial" else 4 if table is None else 6
        assert [key for key, _ in plan] == [(stream, c) for c in range(len(plan))]
        assert sum(size for _, size in plan) == trials
        if stream == 6:
            full = max(1, CHUNK_CELLS // len(table[1]))
        else:
            full = max(1, CHUNK_DRAWS // (math.isqrt(n_balls) + 1 if stream == 3 else 2 * n_boxes))
        assert all(size == full for _, size in plan[:-1]) and 1 <= plan[-1][1] <= full


class TestPoissonTable:
    @pytest.mark.parametrize("lam", [1e-300, 0.0076, 1.0, 10.0, 36.0, 1e4, 5e8])
    def test_window_ends_where_each_tail_falls_below_2_to_the_minus_53(self, lam):
        first, pvals = allocsim._poisson_table(lam)
        last = first + len(pvals) - 1
        end = -53 * math.log(2.0)
        model = PoissonModel(lam)
        # P(X < first) < 2^-53 <= P(X < first + 1), and P(X > last) < 2^-53 <=
        # P(X > last - 1), unless the window reaches 0 or the mode
        assert first == 0 or reg_gamma_q_log(first, lam) < end <= reg_gamma_q_log(first + 1, lam)
        assert model.log_tail(last) < end
        assert last == math.floor(lam) or model.log_tail(last - 1) >= end
        assert len(pvals) < 20 * math.sqrt(lam) + 20  # not every class from 0
        assert math.fsum(pvals) == pytest.approx(1.0, abs=1e-12)
        # the end classes absorb the tails; the others are the pmf
        lower, upper = reg_gamma_q_log(first + 1, lam), model.log_tail(last - 1)
        assert pvals[0] == pytest.approx(math.exp(lower), rel=1e-13, abs=0)
        assert pvals[-1] == pytest.approx(math.exp(upper), rel=1e-13, abs=0)
        inner = range(first + 1, last, max(1, (last - first) // 200))
        for v in inner:
            assert pvals[v - first] == pytest.approx(math.exp(model.log_pmf(v)), rel=1e-9, abs=0), v
        assert isinstance(pvals, tuple)  # the cache shares it

    def test_rate_zero_is_one_empty_class(self):
        first, pvals = allocsim._poisson_table(0.0)
        assert (first, pvals) == (0, (1.0,))

    def test_rate(self, monkeypatch):
        # the rate trial_counts builds its table at, and the tests' poisson_rate
        rates, table = [], allocsim._poisson_table
        monkeypatch.setattr(allocsim, "_poisson_table", lambda lam: rates.append(lam) or table(lam))
        specs = [AllocationSpec(n_boxes=n_boxes, n_balls=n_balls, kind="multinomial", trials=1,
                                seed=0) for n_boxes, n_balls in ((100_000, 10 ** 6), (3, 1))]
        for spec in specs:
            trial_counts(spec, (3, 0), 1)
        # below POISSON_MARGIN^2 balls every ball is thrown
        assert POISSON_MARGIN >= 1.0
        assert rates == [(10 ** 6 - POISSON_MARGIN * 1000) / 100_000, 0.0]
        assert rates == [poisson_rate(spec) for spec in specs]


class TestTrialCounts:
    @pytest.mark.parametrize("n_boxes,n_balls,kind,r", [
        (7, 23, "multinomial", None), (50, 20, "multinomial", None), (8, 8, "multinomial", None),
        (10, 0, "multinomial", None), (3, 1, "multinomial", None),
        (50, 40000, "multinomial", None), (7, 23, "dirichlet", 1.5), (10, 0, "dirichlet", 1.5),
        (3, 6, "dirichlet", 1e-8), (2000, 2000, "dirichlet", 1.0), (200, 40, "dirichlet", 0.5)])
    def test_rows_conserve_boxes_and_balls(self, n_boxes, n_balls, kind, r):
        spec = AllocationSpec(n_boxes=n_boxes, n_balls=n_balls, kind=kind, trials=1, seed=11,
                              r=r)
        drawn = trial_counts(spec, (version(spec), 3), 25)
        if not isinstance(drawn, tuple):  # box counts, one row of n_boxes per trial
            assert drawn.shape == (25, n_boxes) and (drawn.sum(axis=1) == n_balls).all()
        first, hist = histograms(drawn)
        assert hist.shape[0] == 25 and (hist >= 0).all()
        assert (hist.sum(axis=1) == n_boxes).all()
        assert (hist @ np.arange(first, first + hist.shape[1]) == n_balls).all()

    @pytest.mark.parametrize("n_boxes,n_balls,kind,r", [
        (50, 20, "multinomial", None), (20, 60, "multinomial", None),
        (8, 8, "multinomial", None), (10, 0, "multinomial", None), (30, 45, "dirichlet", 0.7),
        # Poisson windows that start above class 0
        (50, 40000, "multinomial", None), (3, 3 * CHUNK_DRAWS, "multinomial", None),
        (2000, 200_000, "multinomial", None),
        # more boxes than CHUNK_DRAWS, on histograms and on box counts (more
        # Dirichlet weights than CHUNK_DRAWS in one call)
        (CHUNK_DRAWS + 9, 100, "dirichlet", 0.5), (CHUNK_DRAWS + 9, 100, "dirichlet", 1e-8),
        # shapes below 1 that drove gamma weights to 0 / 0
        (3, 6, "dirichlet", 1e-3), (5, 12, "dirichlet", 1e-8),
        # Dirichlet histograms: the benchmark's spec, and an NB window from class 1
        (2000, 2000, "dirichlet", 1.0), (200, 40, "dirichlet", 2.0),
        (5000, 190000, "dirichlet", 1000.0)])
    def test_matches_per_trial_reference(self, n_boxes, n_balls, kind, r):
        spec = AllocationSpec(n_boxes=n_boxes, n_balls=n_balls, kind=kind, trials=1, seed=41,
                              r=r)
        stream = version(spec)
        for key, size in (((4,), 1), ((stream, 0), 13), ((stream, 7), 13)):
            first, hist = histograms(trial_counts(spec, key, size))
            rows = reference_rows(spec, key, size)
            assert len(hist) == len(rows) == size
            for got, ref in zip(hist, rows):
                assert occupancy(first, got) == dict(sorted(Counter(ref).items())), key

    def test_generator_calls(self, monkeypatch):
        # a multinomial chunk draws its histograms by one multinomial call,
        # its redrawn rows by one call a round, and its missing balls by one
        # integers call; a Dirichlet chunk on box counts its weights and
        # counts by one each; one on histograms its rows as a multinomial
        # chunk does (drawn again outside [least, k] rather than above k),
        # then one uniform a live trial a Pólya step, at most k - least steps
        calls = record_draws(monkeypatch)

        def record(n_boxes, n_balls, kind, trials, r=None):
            spec = AllocationSpec(n_boxes=n_boxes, n_balls=n_balls, kind=kind, trials=1,
                                  seed=2, r=r)
            calls.clear()
            first, hist = histograms(trial_counts(spec, (version(spec), 0), trials))
            assert (hist @ np.arange(first, first + hist.shape[1]) == n_balls).all()
            return list(calls)

        for n_boxes, n_balls in ((20, 3 * CHUNK_DRAWS + 5), (10 ** 6, CHUNK_DRAWS + 7),
                                 (2, 10 ** 9)):
            width = len(allocsim._poisson_table(poisson_rate(AllocationSpec(
                n_boxes=n_boxes, n_balls=n_balls, kind="multinomial", trials=1, seed=0)))[1])
            made = record(n_boxes, n_balls, "multinomial", 8)
            *draws, (last, thrown) = made
            assert draws[0] == ("multinomial", (8, width)), made
            assert all(name == "multinomial" and shape[0] < 8 for name, shape in draws[1:]), made
            # no call grows with k: the thrown balls are a few sqrt(k) a trial
            assert last == "integers" and thrown[0] <= 8 * 6 * math.isqrt(n_balls), made
        dirichlet = record(CHUNK_DRAWS + 9, 100, "dirichlet", 2, 1e-8)
        assert dirichlet == [("dirichlet", (2, CHUNK_DRAWS + 9)),
                             ("multinomial", (2, CHUNK_DRAWS + 9))]
        first, pvals = allocsim._negbinom_table(CHUNK_DRAWS + 9, 100, 0.5)
        width, least = len(pvals), allocsim._least_sum(CHUNK_DRAWS + 9, first, pvals)
        made = record(CHUNK_DRAWS + 9, 100, "dirichlet", 8, 0.5)
        rows = [shape for name, shape in made if name == "multinomial"]
        steps = [shape[0] for name, shape in made if name == "random"]
        assert rows[0] == (8, width) and all(s[0] < 8 for s in rows[1:]), made
        assert [name for name, _ in made] == ["multinomial"] * len(rows) + ["random"] * len(steps)
        # the trials still missing balls only fall, step by step
        assert steps and steps == sorted(steps, reverse=True) and steps[0] <= 8, made
        assert least == 90 and len(steps) <= 100 - least, made

    def test_two_boxes_a_billion_balls(self):
        # the cost follows the table's width and sqrt(k), not k
        spec = AllocationSpec(n_boxes=2, n_balls=10 ** 9, kind="multinomial", trials=3, seed=8)
        t0 = time.perf_counter()
        first, hist = trial_counts(spec, (3, 0), 3)
        assert time.perf_counter() - t0 < 1.0
        assert first > 4 * 10 ** 8
        assert (hist.sum(axis=1) == 2).all()
        assert (hist @ np.arange(first, first + hist.shape[1]) == 10 ** 9).all()
        s = simulate(spec, asym_profile(50, 20))
        assert s.trials == 3 and min(s.max_histogram) >= 5 * 10 ** 8

    def test_deterministic_per_key(self):
        spec = AllocationSpec(n_boxes=5, n_balls=9, kind="multinomial", trials=1, seed=3)

        def occupancies(key):
            first, hist = trial_counts(spec, key, 10)
            return [occupancy(first, row) for row in hist]

        a = occupancies((3, 4))
        assert a == occupancies((3, 4))
        assert a != occupancies((3, 5))
        # a two-word key is not the one-word key of the same index
        assert a != occupancies((4,))


# (spec, anchor (n_boxes, n_balls), summary) pinned on multinomial stream
# version 3 and Dirichlet stream versions 4 (box counts) and 6 (histograms)
PINNED = {
    "multinomial_sparse": (
        dict(n_boxes=50, n_balls=20, kind="multinomial", trials=200, seed=12345), (50, 20),
        AllocationSummary(
            max_histogram={1: 3, 2: 140, 3: 53, 4: 4},
            tie_histogram={0: 67, 1: 45, 2: 40, 3: 34, 4: 10, 5: 1, 19: 3},
            cluster_freq=0.965, mean_top_two_occupancy=2.91,
            ge_anchor_histogram={0: 3, 1: 17, 2: 54, 3: 61, 4: 49, 5: 14, 6: 2},
            trials=200)),
    "multinomial_dense": (
        dict(n_boxes=20, n_balls=60, kind="multinomial", trials=200, seed=2024), (20, 60),
        AllocationSummary(
            max_histogram={5: 29, 6: 71, 7: 55, 8: 33, 9: 10, 10: 2},
            tie_histogram={0: 137, 1: 38, 2: 12, 3: 6, 4: 6, 5: 1},
            cluster_freq=0.5, mean_top_two_occupancy=2.98,
            ge_anchor_histogram={1: 8, 2: 24, 3: 65, 4: 56, 5: 38, 6: 9},
            trials=200)),
    "dirichlet": (
        dict(n_boxes=30, n_balls=45, kind="dirichlet", trials=150, seed=77, r=0.7), (30, 45),
        AllocationSummary(
            max_histogram={4: 2, 5: 12, 6: 23, 7: 30, 8: 25, 9: 25, 10: 14, 11: 11, 12: 4,
                           13: 2, 14: 1, 19: 1},
            tie_histogram={0: 124, 1: 18, 2: 6, 3: 2},
            cluster_freq=2 / 150, mean_top_two_occupancy=622 / 150,
            ge_anchor_histogram={4: 4, 5: 23, 6: 32, 7: 54, 8: 25, 9: 9, 10: 2, 11: 1},
            trials=150)),
    "dirichlet_histograms": (
        dict(n_boxes=200, n_balls=40, kind="dirichlet", trials=150, seed=77, r=1.0), (200, 40),
        AllocationSummary(
            max_histogram={2: 52, 3: 77, 4: 16, 5: 5},
            tie_histogram={0: 70, 1: 22, 2: 20, 3: 11, 4: 11, 5: 6, 6: 3, 7: 4, 8: 3},
            cluster_freq=52 / 150, mean_top_two_occupancy=4857 / 150,
            ge_anchor_histogram={27: 1, 28: 1, 29: 5, 30: 7, 31: 21, 32: 17, 33: 25, 34: 21,
                                 35: 25, 36: 12, 37: 12, 38: 3},
            trials=150)),
    "zero_balls": (
        dict(n_boxes=10, n_balls=0, kind="multinomial", trials=20, seed=0), (10, 5),
        AllocationSummary(
            max_histogram={0: 20}, tie_histogram={9: 20}, cluster_freq=0.0,
            mean_top_two_occupancy=0.0, ge_anchor_histogram={0: 20}, trials=20)),
    # a Poisson window from class 750: every box holds more than m_n = 14
    "windowed": (
        dict(n_boxes=200, n_balls=200_000, kind="multinomial", trials=6, seed=31337),
        (10000, 50000),
        AllocationSummary(
            max_histogram={1068: 1, 1079: 1, 1082: 1, 1095: 1, 1096: 1, 1097: 1},
            tie_histogram={0: 5, 1: 1}, cluster_freq=0.0, mean_top_two_occupancy=0.0,
            ge_anchor_histogram={200: 6}, trials=6)),
    # anchor m_n = 0: every box counts as holding at least m_n
    "anchor_zero": (
        dict(n_boxes=20, n_balls=3, kind="multinomial", trials=100, seed=5), (20, 1),
        AllocationSummary(
            max_histogram={1: 85, 2: 15}, tie_histogram={0: 15, 2: 85}, cluster_freq=0.85,
            mean_top_two_occupancy=19.85, ge_anchor_histogram={20: 100}, trials=100)),
}


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

    @pytest.mark.parametrize("name", list(PINNED))
    def test_pinned_summary(self, name):
        spec, anchor, want = PINNED[name]
        assert simulate(AllocationSpec(**spec), asym_profile(*anchor)) == want

    @pytest.mark.parametrize("name", list(PINNED))
    def test_pin_matches_per_trial_reference(self, name):
        spec, anchor, want = PINNED[name]
        assert reference_summary(AllocationSpec(**spec), asym_profile(*anchor)) == want

    @pytest.mark.parametrize("n_boxes,n_balls,kind,r,trials,seed,cells", [
        (50, 20, "multinomial", None, 7000, 321, CHUNK_CELLS),  # fewer balls than boxes, 3 chunks
        (20, 20, "multinomial", None, 1000, 321, CHUNK_CELLS),  # as many balls as boxes
        (20, 60, "multinomial", None, 300, 321, CHUNK_CELLS),
        (10, 0, "multinomial", None, 30, 321, CHUNK_CELLS),
        (30, 45, "dirichlet", 0.7, 200, 321, CHUNK_CELLS),
        (400, 4, "multinomial", None, 1, 321, CHUNK_CELLS),
        (12, 40, "dirichlet", 2.0, 1, 321, CHUNK_CELLS),
        # fewer balls than POISSON_MARGIN^2: all thrown
        (3, 2, "multinomial", None, 50, 321, CHUNK_CELLS),
        # 3 chunks, a window from class 746
        (20, 20000, "multinomial", None, 300, 321, CHUNK_CELLS),
        (200, 40, "dirichlet", 1.0, 300, 321, CHUNK_CELLS),  # histograms (stream version 6)
        (100, 50, "dirichlet", 0.5, 200, 321, CHUNK_CELLS),
        (50, 20, "multinomial", None, 8000, 606, CHUNK_CELLS),  # 3 chunks
        (20, 60, "multinomial", None, 5000, 606, CHUNK_CELLS),  # 3 chunks
        (30, 45, "dirichlet", 0.7, 800, 606, CHUNK_CELLS),  # 3 chunks of box counts
        # 3 chunks, a window from class 1635
        (20, 40000, "multinomial", None, 200, 606, CHUNK_CELLS),
        # a small CHUNK_CELLS makes the 400 trials 22 chunks of histograms, 21 of 19
        (200, 40, "dirichlet", 1.0, 400, 8, 400),
    ])
    def test_matches_per_trial_reference(self, monkeypatch, n_boxes, n_balls, kind, r, trials,
                                         seed, cells):
        monkeypatch.setattr(allocsim, "CHUNK_CELLS", cells)
        spec = AllocationSpec(n_boxes=n_boxes, n_balls=n_balls, kind=kind, trials=trials,
                              seed=seed, r=r)
        for anchor in ((20, 1), (50, 20), (20, 60)):  # m_n = 0, 2 and 5
            prof = asym_profile(*anchor)
            assert simulate(spec, prof) == reference_summary(spec, prof), anchor

    @pytest.mark.parametrize("kind,r,chunks", [("multinomial", None, [5000]),
                                               ("dirichlet", 1.0, [2048, 2048, 904])])
    def test_max_law_at_4_boxes_8_balls(self, kind, r, chunks):
        # every max value's frequency within 5 binomial sigma of the exact
        # law, from one chunk (version 3) or three (version 4)
        trials = 5000
        spec = AllocationSpec(n_boxes=4, n_balls=8, kind=kind, trials=trials, seed=2718, r=r)
        assert [size for _, size in _chunks(spec)] == chunks
        law: dict = {}
        for key, (prob, _) in enumerate_conditional(4, 8, kind, r=r or 1.0).items():
            law[key[0]] = law.get(key[0], 0.0) + prob
        s = simulate(spec, asym_profile(4, 8))
        assert set(s.max_histogram) <= set(law)
        for value, prob in law.items():
            f = s.max_histogram.get(value, 0) / trials
            sigma = math.sqrt(prob * (1.0 - prob) / trials)
            assert abs(f - prob) <= 5.0 * sigma, (value, f, prob)

    @pytest.mark.parametrize("n_boxes,n_balls", [(3, 60), (4, 100), (5, 40)])
    def test_version_3_max_and_tie_laws_are_exact(self, n_boxes, n_balls):
        # k > POISSON_MARGIN^2, so most balls come from the Poisson rows
        assert poisson_rate(AllocationSpec(
            n_boxes=n_boxes, n_balls=n_balls, kind="multinomial", trials=1, seed=0)) > 0
        trials = 20000
        spec = AllocationSpec(n_boxes=n_boxes, n_balls=n_balls, kind="multinomial",
                              trials=trials, seed=1978)
        s = simulate(spec, asym_profile(50, 20))
        law = exact_max_tie_law(n_boxes, n_balls)
        max_law, tie_law = Counter(), Counter()
        for (x, t), prob in law.items():
            max_law[x] += prob
            tie_law[t] += prob
        assert_law_within_5_sigma(s.max_histogram, max_law, trials)
        assert_law_within_5_sigma(s.tie_histogram, tie_law, trials)

    @pytest.mark.parametrize("r", [1e-3, 0.01, 0.05, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n_boxes,n_balls", [(3, 6), (6, 12)])
    def test_version_4_dirichlet_law_is_exact(self, n_boxes, n_balls, r):
        # every sorted allocation of the chunks, and simulate's max and tie
        # histograms of the same chunks, against enumerate_conditional's law;
        # at r = 1e-3 version 2 drew 0 / 0 weights
        trials = 20000
        spec = AllocationSpec(n_boxes=n_boxes, n_balls=n_balls, kind="dirichlet",
                              trials=trials, seed=1996, r=r)
        law = {key: prob for key, (prob, _) in
               enumerate_conditional(n_boxes, n_balls, "dirichlet", r=r).items()}
        cells = Counter(tuple(sorted(row, reverse=True)) for key, size in _chunks(spec)
                        for row in trial_counts(spec, key, size).tolist())
        assert_law_within_5_sigma(cells, law, trials)
        max_law, tie_law = Counter(), Counter()
        for key, prob in law.items():
            max_law[key[0]] += prob
            tie_law[key.count(key[0]) - 1] += prob
        s = simulate(spec, asym_profile(50, 20))
        assert_law_within_5_sigma(s.max_histogram, max_law, trials)
        assert_law_within_5_sigma(s.tie_histogram, tie_law, trials)

    def test_rejected_rows_keep_the_law(self, monkeypatch):
        # with no margin the Poisson rows hold k balls on average, and about
        # half of them hold more and are drawn again
        monkeypatch.setattr(allocsim, "POISSON_MARGIN", 0.0)
        calls = record_draws(monkeypatch)
        trials = 20000
        spec = AllocationSpec(n_boxes=4, n_balls=100, kind="multinomial", trials=trials,
                              seed=1986)
        assert poisson_rate(spec) == 25.0
        s = simulate(spec, asym_profile(50, 20))
        rows = sum(shape[0] for name, shape in calls if name == "multinomial")
        assert 1.6 * trials < rows < 2.4 * trials, rows
        law = exact_max_tie_law(4, 100)
        max_law = Counter()
        for (x, _), prob in law.items():
            max_law[x] += prob
        assert_law_within_5_sigma(s.max_histogram, max_law, trials)

    def test_dirichlet_memory_follows_the_boxes_not_the_balls(self):
        # a Dirichlet chunk is tallied from its box counts, 2 a trial here;
        # an occupancy histogram would be as wide as the fullest box
        spec = AllocationSpec(n_boxes=2, n_balls=10 ** 7, kind="dirichlet", trials=1000,
                              seed=5, r=1.0)
        tracemalloc.start()
        try:
            counts = trial_counts(spec, *next(_chunks(spec)))
            s = simulate(spec, asym_profile(50, 20))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.shape == (1000, 2) and (counts.sum(axis=1) == 10 ** 7).all()
        assert s.trials == sum(s.max_histogram.values()) == 1000
        assert min(s.max_histogram) >= 5 * 10 ** 6
        assert peak < 16 * 2 ** 20, peak

    def test_single_trial(self):
        for kind, r in (("multinomial", None), ("dirichlet", 1.0)):
            spec = AllocationSpec(n_boxes=30, n_balls=12, kind=kind, trials=1, seed=4, r=r)
            s = simulate(spec, asym_profile(30, 12))
            assert s.trials == 1 and sum(s.max_histogram.values()) == 1
            assert s.cluster_freq in (0.0, 1.0)

    def test_goes_through_the_module_kernel_once_per_chunk(self, monkeypatch):
        # the traced benchmark patches allocsim.trial_counts to time it
        calls = []

        def counting(spec, key, trials):
            calls.append((key, trials))
            return kernel(spec, key, trials)

        kernel = allocsim.trial_counts
        monkeypatch.setattr(allocsim, "trial_counts", counting)
        spec = AllocationSpec(n_boxes=16000, n_balls=160, kind="multinomial", trials=3000,
                              seed=8)
        per_chunk = CHUNK_DRAWS // (math.isqrt(160) + 1)
        want = simulate(spec, asym_profile(16000, 160))
        assert len(calls) == -(-3000 // per_chunk)
        assert calls == list(_chunks(spec))
        monkeypatch.setattr(allocsim, "trial_counts", kernel)
        assert simulate(spec, asym_profile(16000, 160)) == want

    def test_starts_no_thread(self, monkeypatch):
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self))
        spec = dirichlet_spec(30, 45, 0.7, trials=800, seed=606)
        assert version(spec) == 4 and len(list(_chunks(spec))) == 3
        assert simulate(spec, asym_profile(50, 20)).trials == 800
        assert started == []

    @pytest.mark.parametrize("failing,error", [((3, 3), ValueError("chunk (3, 3)")),
                                               ((3, 0), KeyboardInterrupt())])
    def test_a_failing_chunk_stops_the_draws(self, monkeypatch, failing, error):
        calls = []
        kernel = allocsim.trial_counts

        def failing_kernel(spec, key, trials):
            calls.append(key)
            if key == failing:
                raise error
            return kernel(spec, key, trials)

        monkeypatch.setattr(allocsim, "trial_counts", failing_kernel)
        spec = AllocationSpec(n_boxes=50, n_balls=20, kind="multinomial", trials=40 * 3276,
                              seed=3)
        with pytest.raises(type(error)) as raised:
            simulate(spec, asym_profile(50, 20))
        assert raised.value is error
        # the chunks up to the failing one, of 40, and none after it
        assert calls == [(3, c) for c in range(failing[1] + 1)]

    def test_import_leaves_numpy_unloaded(self):
        # the traced benchmark patches these five module globals by name
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, discmax\n"
             "from discmax import allocsim\n"
             "for name in ('trial_counts', 'tie_distribution', 'enumerate_conditional',\n"
             "             'simulate', 'merging_report'):\n"
             "    assert callable(allocsim.__dict__[name]), name\n"
             "assert 'numpy' not in sys.modules, 'import discmax loaded numpy'\n"],
            capture_output=True, text=True, timeout=60, check=False,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert proc.returncode == 0, proc.stderr

    def test_only_the_spawn_key_bounds_trials(self):
        # a chunk index is one 32-bit word of its spawn key: 2^32 trials are
        # refused by the spec, so before any draw
        for kind, r in (("multinomial", None), ("dirichlet", 1.0)):
            with pytest.raises(ValueError, match="below 2\\^32"):
                AllocationSpec(n_boxes=1, n_balls=1, kind=kind, trials=2 ** 32, seed=0, r=r)
        # 10^6 boxes x 2001 trials, once refused as 2.001e9 box tallies, now runs
        spec = AllocationSpec(n_boxes=10 ** 6, n_balls=10 ** 6, kind="multinomial",
                              trials=2001, seed=0)
        summary = simulate(spec, asym_profile(10 ** 6, 10 ** 6))
        assert sum(summary.max_histogram.values()) == 2001

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


class TestDirichletRoute:
    """Stream version 6, the Dirichlet mixture on occupancy histograms, and
    the rule that sends each Dirichlet spec to it or to box counts."""

    @pytest.mark.parametrize("n_boxes,n_balls", [(1, 5), (2, 3), (3, 6), (4, 8), (6, 12), (5, 0)])
    def test_oracle_matches_enumerate_conditional(self, n_boxes, n_balls):
        for r in (1e-3, 0.5, 0.7, 1.0, 2.0):
            law = exact_dirichlet_max_tie_law(n_boxes, n_balls, r)
            ref = Counter()
            for key, (prob, _) in enumerate_conditional(n_boxes, n_balls, "dirichlet", r=r).items():
                ref[(key[0], key.count(key[0]) - 1)] += prob
            assert set(law) == set(ref), r
            for cell, prob in law.items():
                assert prob == pytest.approx(ref[cell], abs=1e-15), (r, cell)

    @pytest.mark.parametrize("n_boxes,n_balls,r,stream", [
        (200, 40, 0.5, 6), (200, 40, 1.0, 6), (200, 40, 2.0, 6),
        (400, 60, 0.5, 6), (400, 60, 1.0, 6), (400, 60, 2.0, 6),
        (3, 60, 0.5, 4), (3, 60, 1.0, 4), (3, 60, 2.0, 4),
        (4, 100, 0.5, 4), (4, 100, 1.0, 4), (4, 100, 2.0, 4),
        (5, 40, 0.5, 4), (5, 40, 1.0, 4), (5, 40, 2.0, 4),
        (15, 8, 2.0, 4), (16, 8, 2.0, 6)])  # the two sides of the switch at k = n / 2, r = 2
    def test_max_and_tie_laws_are_exact(self, n_boxes, n_balls, r, stream):
        # the (max, ties) cells of the chunks, and simulate's max and tie
        # histograms of the same chunks, within 5 sigma of the exact law
        trials = 20000
        spec = dirichlet_spec(n_boxes, n_balls, r, trials, seed=1962)
        assert version(spec) == stream
        law = exact_dirichlet_max_tie_law(n_boxes, n_balls, r)
        cells = Counter()
        for key, size in _chunks(spec):
            cells += max_tie_cells(*histograms(trial_counts(spec, key, size)))
        assert_law_within_5_sigma(cells, law, trials)
        max_law, tie_law = Counter(), Counter()
        for (x, t), prob in law.items():
            max_law[x] += prob
            tie_law[t] += prob
        s = simulate(spec, asym_profile(50, 20))
        assert_law_within_5_sigma(s.max_histogram, max_law, trials)
        assert_law_within_5_sigma(s.tie_histogram, tie_law, trials)

    @pytest.mark.parametrize("n_boxes,n_balls,r", [(3, 6, 0.5), (3, 6, 2.0), (6, 12, 0.5),
                                                   (6, 12, 1.0), (6, 12, 2.0)])
    def test_polya_steps_from_empty_boxes_are_the_dirichlet_law(self, n_boxes, n_balls, r):
        # k steps from n empty boxes draw the whole allocation; the rows
        # start one class wide, so they grow a column at nearly every step
        trials = 20000
        rng = np.random.default_rng(np.random.SeedSequence(entropy=1977, spawn_key=(5, 0)))
        rows = np.full((trials, 1), n_boxes, dtype=np.int64)
        hist = allocsim._polya_steps(rng, rows, np.full(trials, n_balls), 0, r)
        assert hist.shape[1] > 2
        assert (hist.sum(axis=1) == n_boxes).all()
        assert (hist @ np.arange(hist.shape[1]) == n_balls).all()
        cells = Counter(tuple(v for v in range(hist.shape[1] - 1, -1, -1) for _ in range(c[v]))
                        for c in hist.tolist())
        law = {key: prob for key, (prob, _) in
               enumerate_conditional(n_boxes, n_balls, "dirichlet", r=r).items()}
        assert_law_within_5_sigma(cells, law, trials)
        # the same stream, replayed per trial in plain Python
        rng = np.random.default_rng(np.random.SeedSequence(entropy=1977, spawn_key=(5, 0)))
        hists = [{0: n_boxes} for _ in range(trials)]
        reference_polya(rng, hists, [n_balls] * trials, r)
        assert [occupancy(0, row) for row in hist] == [
            {v: c for v, c in sorted(occ.items()) if c} for occ in hists]

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    def test_polya_steps_from_any_sum_are_the_dirichlet_law(self, r):
        # version 6 keeps NB rows by their sum alone, so it rests on this:
        # NB counts given their sum s are DirMult(s), and k - s Pólya steps
        # take them to DirMult(k), for every s <= k
        n_boxes, n_balls, trials = 6, 12, 4000
        law = {key: prob for key, (prob, _) in
               enumerate_conditional(n_boxes, n_balls, "dirichlet", r=r).items()}
        rng = np.random.default_rng(np.random.SeedSequence(entropy=1977, spawn_key=(6, 1)))
        for s in (1, 4, 8, 11):
            # NB(r, p) counts of mean s / n a box, kept where they hold s balls
            counts = rng.negative_binomial(r, r / (r + s / n_boxes), (30 * trials, n_boxes))
            counts = counts[counts.sum(axis=1) == s][:trials]
            assert len(counts) == trials, s
            rows = (counts[:, :, None] == np.arange(s + 1)).sum(axis=1)
            hist = allocsim._polya_steps(rng, rows, np.full(trials, n_balls - s), 0, r)
            assert (hist.sum(axis=1) == n_boxes).all()
            assert (hist @ np.arange(hist.shape[1]) == n_balls).all()
            cells = Counter(tuple(v for v in range(hist.shape[1] - 1, -1, -1)
                                  for _ in range(c[v])) for c in hist.tolist())
            assert_law_within_5_sigma(cells, law, trials)

    @pytest.mark.parametrize("n_boxes,n_balls,width", [(2 ** 56, 3, 1), (2 ** 60, 50, 1),
                                                       (2 ** 56, 10, 2)])
    def test_rows_below_k_minus_sd_terminate(self, n_boxes, n_balls, width):
        # k - sd of the NB sum lies above n first, the least sum the table
        # gives: a window from there would draw the one-class tables' rows
        # (0 balls each) again forever.  The window starts at the table's
        # own mean less its sd, which the table's sums reach.
        first, pvals = allocsim._negbinom_table(n_boxes, n_balls, 1.0)
        assert len(pvals) == width
        sd = math.sqrt(n_balls * (1.0 + n_balls / n_boxes))
        least = allocsim._least_sum(n_boxes, first, pvals)
        assert least == least_sum(n_boxes, first, pvals)
        assert n_boxes * first < n_balls - sd
        assert n_boxes * first <= least <= min(n_balls, n_boxes * (first + len(pvals) - 1))
        spec = dirichlet_spec(n_boxes, n_balls, 1.0, trials=5)
        assert list(_chunks(spec)) == [((6, 0), 5)]
        first, hist = trial_counts(spec, (6, 0), 5)
        assert len(hist) == 5 and (hist.sum(axis=1) == n_boxes).all()
        assert (hist @ np.arange(first, first + hist.shape[1]) == n_balls).all()

    @pytest.mark.parametrize("n_boxes,n_balls,r", [
        (2000, 2000, 1.0), (200, 40, 0.5), (16, 8, 2.0), (CHUNK_DRAWS + 9, 100, 0.5),
        (5000, 190000, 1000.0), (1000, 1000, 2.0 ** 31), (10, 0, 1.5)])
    def test_window_ends_where_each_tail_falls_below_2_to_the_minus_53(self, n_boxes, n_balls, r):
        first, pvals = allocsim._negbinom_table(n_boxes, n_balls, r)
        last = first + len(pvals) - 1
        total = n_balls + n_boxes * r
        p, q = n_balls / total, n_boxes * r / total
        end = _LOG_TABLE_TAIL
        mode = math.floor((r - 1.0) * n_balls / (n_boxes * r)) if r > 1.0 else 0
        # P(X < first) < 2^-53 <= P(X < first + 1), and P(X > last) < 2^-53 <=
        # P(X > last - 1), unless the window reaches 0 or the mode
        assert first == 0 or reg_beta_log(r, first, q) < end <= reg_beta_log(r, first + 1.0, q)
        assert reg_beta_log(last + 1.0, r, p) < end or p == 0.0
        assert last == mode or reg_beta_log(float(last), r, p) >= end
        assert math.fsum(pvals) == pytest.approx(1.0, abs=1e-13)
        if len(pvals) > 1:
            # the inner classes are the pmf, the end classes also hold the tails
            model = NegativeBinomialModel(r, p)
            pmf = [math.exp(model.log_pmf(v)) for v in range(first, last + 1)]
            assert list(pvals[1:-1]) == pmf[1:-1]
            below = math.exp(reg_beta_log(r, first, q)) if first else 0.0
            assert pvals[0] == pmf[0] + below
            assert pvals[-1] == pmf[-1] + math.exp(model.log_tail(last))

    @pytest.mark.parametrize("n_boxes,n_balls,r", [
        (41, 41, 1.0), (42, 42, 1.0), (15, 8, 2.0), (16, 8, 2.0), (86, 86, 0.5),
        (87, 87, 0.5), (2000, 2000, 1.0), (2000, 2000, 1e-8), (2, 10 ** 7, 1.0), (3, 6, 1.0),
        (6, 12, 1.0), (30, 45, 0.7), (50, 200, 1.0), (10, 0, 1.5), (6, 0, 1.5),
        (5000, 190000, 1000.0), (1000, 1000, 2.0 ** 32)])
    def test_route_weighs_the_table_and_the_polya_steps_against_the_boxes(self, n_boxes,
                                                                          n_balls, r):
        # histograms where width (ROUTE_CLASS_COST + sd) is below
        # ROUTE_BOX_COST n, the table's ends walked class by class
        sd = math.sqrt(n_balls * (1.0 + n_balls / (n_boxes * r)))
        total = n_balls + n_boxes * r
        p, q = n_balls / total, n_boxes * r / total
        mode = math.floor((r - 1.0) * n_balls / (n_boxes * r)) if r > 1.0 else 0
        first = 0
        while first < mode and reg_beta_log(r, first + 1.0, q) < _LOG_TABLE_TAIL:
            first += 1
        last, cap = mode, first + 10 * n_boxes
        while last < cap and reg_beta_log(last + 1.0, r, p) >= _LOG_TABLE_TAIL:
            last += 1
        cost = (last - first + 1) * (allocsim.ROUTE_CLASS_COST + sd)
        cheaper = last < cap and cost < allocsim.ROUTE_BOX_COST * n_boxes
        table = allocsim._negbinom_table(n_boxes, n_balls, r)
        assert (table is not None) == (cheaper and r < allocsim.ROUTE_MAX_R)
        if table is not None:
            assert (table[0], table[0] + len(table[1]) - 1) == (first, last)

    def test_the_route_follows_the_spec_alone(self):
        # no argument, option or key picks the route: not simulate's or
        # trial_counts' (they take none), nor the seed, the trial count or
        # the chunk's key
        assert list(inspect.signature(simulate).parameters) == ["spec", "prof"]
        assert list(inspect.signature(trial_counts).parameters) == ["spec", "key", "trials"]
        for n_boxes, n_balls, r, stream in ((2000, 2000, 1.0, 6), (2, 10 ** 7, 1.0, 4),
                                            (2000, 2000, 1e-8, 4), (3, 6, 1.0, 4),
                                            (6, 12, 1.0, 4), (30, 45, 0.7, 4),
                                            (2000, 2000, 2.0 ** 32, 4), (41, 41, 1.0, 4),
                                            (42, 42, 1.0, 6)):
            for trials, seed in ((1, 0), (10 ** 6, 2 ** 70), (999, 7)):
                assert version(dirichlet_spec(n_boxes, n_balls, r, trials, seed)) == stream
            spec = dirichlet_spec(n_boxes, n_balls, r, seed=3)
            for key in ((4, 0), (5, 0), (9,)):
                assert isinstance(trial_counts(spec, key, 2), tuple) == (stream == 6), key


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

    @pytest.mark.parametrize("boxes, balls, kind, kw", [
        # (1 - p)^r = 0.6^1e10 underflows, and with it every pmf product
        (2, 3, "dirichlet", {"r": 1e10}),
        (6, 12, "dirichlet", {"r": 1e10, "p": 0.9}),
        (4, 8, "dirichlet", {"r": 1e30}),
        # e^-lam underflows
        (6, 12, "multinomial", {"lam": 1e6}),
    ], ids=["r1e10", "r1e10-6x12", "r1e30", "lam1e6"])
    def test_pmf_products_that_underflow(self, boxes, balls, kind, kw):
        law = enumerate_conditional(boxes, balls, kind, **kw)
        assert math.fsum(a for a, _ in law.values()) == pytest.approx(1.0, abs=1e-12)
        assert math.fsum(c for _, c in law.values()) == pytest.approx(1.0, abs=1e-12)
        for key, (alloc, cond) in law.items():
            assert cond == pytest.approx(alloc, abs=1e-12), key

    @pytest.mark.parametrize("kind, kw", [
        ("multinomial", {"lam": 5e-324}),
        ("dirichlet", {"r": 5e-324}),
        ("dirichlet", {"r": 0.5, "p": 5e-324}),
    ], ids=["lam", "r", "p"])
    def test_term_ratios_that_underflow(self, kind, kw):
        # lam / 2, p r or p r / 1 rounds to 0; as a sum of logs it does not,
        # and the conditioned column still matches the allocation
        law = enumerate_conditional(3, 4, kind, **kw)
        assert math.fsum(c for _, c in law.values()) == pytest.approx(1.0, abs=1e-12)
        for key, (alloc, cond) in law.items():
            assert cond == pytest.approx(alloc, abs=1e-12), key

    @pytest.mark.parametrize("kind, base, others", [
        ("multinomial", {"lam": 1.0},
         [{"lam": lam} for lam in (0.3, 2.0, 50.0, 100.0, 115.0, 1e6)]),
        ("dirichlet", {"r": 50.0, "p": 0.4}, [{"r": 50.0, "p": p} for p in (0.1, 0.9, 0.999)]),
    ])
    def test_mixing_parameter_cancels_in_the_conditioned_column(self, kind, base, others):
        # sums of ln pmf values of size ~600 (lam = 100, p = 0.9) lose ~1e-13 here
        want = enumerate_conditional(6, 12, kind, **base)
        for kw in others:
            law = enumerate_conditional(6, 12, kind, **kw)
            for key, (_, cond) in law.items():
                assert cond == pytest.approx(want[key][1], rel=5e-14, abs=0), (kw, key)

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

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind must be one of .*, got 'urn'"):
            enumerate_conditional(3, 2, "urn")


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


class TestComparisonTables:
    @pytest.mark.parametrize("kind,r,t_max", [("multinomial", None, 3),
                                              ("multinomial", None, 0),
                                              ("dirichlet", 1.0, 3)])
    def test_tables_read_one_tie_law(self, monkeypatch, kind, r, t_max):
        spec = AllocationSpec(n_boxes=50, n_balls=200, kind=kind, trials=100, seed=3, r=r)
        prof = profile(matched_model(spec), spec.n_boxes)
        summary = simulate(spec, prof)
        calls = []

        def counting(*args):
            calls.append(args)
            return tie_distribution(*args)

        # the module global: the traced benchmark patches it
        monkeypatch.setattr(allocsim, "tie_distribution", counting)
        tables = comparison_tables(spec, prof, t_max, summary=summary)
        assert calls == ([(prof, t_max)] if kind == "multinomial" else [])
        assert tables["merging"] == merging_report(spec, prof, t_max, summary=summary)
        for name, hist in (("max", summary.max_histogram), ("ties", summary.tie_histogram)):
            rows = tables[name]
            assert sum(row["count"] for row in rows) == spec.trials
            assert [(row["value"], row["count"]) for row in rows] == list(hist.items())
            for row in rows:
                assert row["quantity"] == row["value"]
                assert row["empirical"] == row["count"] / spec.trials
        for row in tables["max"]:
            assert row["theory"] == limiting_max_pmf(prof, row["value"] - prof.m_n)
        law = tie_distribution(prof, t_max).exactly if kind == "multinomial" else {}
        for row in tables["ties"]:
            assert row["theory"] == law.get(row["value"])
        # the merging rows carry no count and read the same builders
        merging = {row["quantity"]: row for row in tables["merging"]}
        assert not any("count" in row for row in tables["merging"])
        assert merging["max_eq_anchor"]["theory"] == limiting_max_pmf(prof, 0)
        assert [merging[f"ties_eq_{t}"]["theory"] for t in range(t_max + 1)] == [
            law.get(t) for t in range(t_max + 1)]

    def test_refuses_negative_t_max(self):
        spec = AllocationSpec(n_boxes=50, n_balls=20, kind="multinomial", trials=5, seed=0)
        prof = asym_profile(50, 20)
        with pytest.raises(ValueError, match="t_max must be >= 0, got -1"):
            comparison_tables(spec, prof, -1, summary=simulate(spec, prof))


class TestBenchmarkContract:
    def test_traced_targets_exist(self):
        # the traced benchmark patches each (owner, attribute) by name; a
        # rename or removal would break its run, not this suite
        perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys\nsys.path.insert(0, {perfbench!r})\n"
             "import spans\n"
             "targets = spans._targets()\n"
             "assert targets\n"
             "for owner, attr, name in targets:\n"
             "    assert callable(owner.__dict__.get(attr)), (owner, attr, name)\n"],
            capture_output=True, text=True, timeout=60, check=False,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert proc.returncode == 0, proc.stderr


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

    @pytest.mark.parametrize("kind,r", [("multinomial", None), ("dirichlet", 1.0)])
    def test_refuses_zero_balls(self, kind, r):
        # the spec itself is valid: simulate tallies an empty allocation
        spec = AllocationSpec(n_boxes=10, n_balls=0, kind=kind, trials=1, seed=0, r=r)
        with pytest.raises(ValueError, match=r"^n_balls must be >= 1: an empty allocation"):
            matched_model(spec)

    def test_refuses_r_whose_p_rounds_to_1(self):
        spec = AllocationSpec(n_boxes=10, n_balls=5, kind="dirichlet", trials=1, seed=0,
                              r=1e-300)
        assert 0.5 / (spec.r + 0.5) == 1.0
        with pytest.raises(ValueError, match=r"^r = 1e-300 is too small for n_balls / n_boxes"):
            matched_model(spec)
        # a small r whose p stays below 1 still has its model
        spec = AllocationSpec(n_boxes=10, n_balls=5, kind="dirichlet", trials=1, seed=0,
                              r=1e-16)
        assert matched_model(spec).p < 1.0
