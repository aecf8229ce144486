import math
import os
import subprocess
import sys
import threading
import time
from collections.abc import Iterator
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discmax import allocsim
from discmax.allocsim import (
    CHUNK_DRAWS,
    KINDS,
    AllocationSpec,
    AllocationSummary,
    MemoryBudgetError,
    _chunks,
    comparison_tables,
    enumerate_conditional,
    matched_model,
    merging_report,
    simulate,
    trial_counts,
)
from discmax.extremes import limiting_max_pmf, profile, tie_distribution
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


def reference_rows(spec, key, size) -> Iterator:
    """Reference for trial_counts: the chunk's draws, each trial's counts
    of all n_boxes boxes by its own bincount or multinomial call, made one
    row at a time (a 10^6-box row is 8 MB)."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=spec.seed, spawn_key=key))
    if spec.kind == "multinomial":
        return (np.bincount(d, minlength=spec.n_boxes)
                for d in rng.integers(0, spec.n_boxes, size=(size, spec.n_balls)))
    weights = rng.gamma(spec.r, 1.0, size=(size, spec.n_boxes))
    weights /= weights.sum(axis=1, keepdims=True)
    return (rng.multinomial(spec.n_balls, w) for w in weights)


def reference_summary(spec, prof) -> AllocationSummary:
    """Reference for simulate: the same chunks and draws, tallied in Python
    one trial at a time from its occupancy list, as before chunking."""
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
        (50, 20, "multinomial", None, 5000), (20, 60, "multinomial", None, 1),
        (10, 0, "multinomial", None, 20000), (30, 45, "dirichlet", 0.7, 999),
        (100_000, 10 ** 6, "multinomial", None, 3),
        (50, 20, "multinomial", None, 1638)])   # exactly 2 full chunks
    def test_version_2_plan(self, n_boxes, n_balls, kind, r, trials):
        spec = AllocationSpec(n_boxes=n_boxes, n_balls=n_balls, kind=kind, trials=trials,
                              seed=0, r=r)
        plan = list(_chunks(spec))
        assert [key for key, _ in plan] == [(2, c) for c in range(len(plan))]
        assert sum(size for _, size in plan) == trials
        draws = n_balls if kind == "multinomial" else 2 * n_boxes
        full = max(1, CHUNK_DRAWS // max(draws, 1))
        assert all(size == full for _, size in plan[:-1]) and 1 <= plan[-1][1] <= full


class TestTrialCounts:
    @pytest.mark.parametrize("n_boxes,n_balls,kind,r", [
        (7, 23, "multinomial", None), (50, 20, "multinomial", None), (8, 8, "multinomial", None),
        (10, 0, "multinomial", None), (7, 23, "dirichlet", 1.5), (10, 0, "dirichlet", 1.5)])
    def test_rows_conserve_balls(self, n_boxes, n_balls, kind, r):
        spec = AllocationSpec(n_boxes=n_boxes, n_balls=n_balls, kind=kind, trials=1, seed=11,
                              r=r)
        counts = trial_counts(spec, (2, 3), 25)
        width = n_balls if kind == "multinomial" and n_balls < n_boxes else n_boxes
        assert counts.shape == (25, width)
        assert (counts.sum(axis=1) == n_balls).all() and (counts >= 0).all()

    @pytest.mark.parametrize("n_boxes,n_balls,kind,r", [
        (50, 20, "multinomial", None), (20, 60, "multinomial", None),
        (8, 8, "multinomial", None), (10, 0, "multinomial", None), (30, 45, "dirichlet", 0.7),
        # more balls than CHUNK_DRAWS and boxes: counted slice by slice
        (50, 40000, "multinomial", None), (7, CHUNK_DRAWS + 1, "multinomial", None),
        (3, 3 * CHUNK_DRAWS, "multinomial", None),
        # more balls or gamma weights than CHUNK_DRAWS in one call
        (10 ** 6, CHUNK_DRAWS + 7, "multinomial", None),
        (CHUNK_DRAWS + 9, 100, "dirichlet", 0.5)])
    def test_matches_per_trial_bincounts(self, n_boxes, n_balls, kind, r):
        # the occupied boxes' counts in box order, and every box where a row
        # lists them all; the reference draws each trial in one call
        spec = AllocationSpec(n_boxes=n_boxes, n_balls=n_balls, kind=kind, trials=1, seed=41,
                              r=r)
        for key, size in (((4,), 1), ((2, 0), 13), ((2, 7), 13)):
            rows = reference_rows(spec, key, size)
            counts = trial_counts(spec, key, size)
            assert counts.shape[0] == size
            for got, ref in zip(counts, rows):
                assert got[got > 0].tolist() == ref[ref > 0].tolist(), key
                if counts.shape[1] == n_boxes:
                    assert got.tolist() == ref.tolist(), key

    def test_only_the_dense_loop_slices_its_draws(self, monkeypatch):
        # balls that outnumber CHUNK_DRAWS and the boxes are drawn in slices
        # of at most CHUNK_DRAWS; every other array is drawn by one call
        sizes = []
        real = np.random.default_rng

        class Recording:
            def __init__(self, seed):
                self.rng = real(seed)

            def __getattr__(self, name):
                def draw(*args, **kwargs):
                    out = getattr(self.rng, name)(*args, **kwargs)
                    sizes.append((name, out.size))
                    return out
                return draw

        monkeypatch.setattr(np.random, "default_rng", Recording)

        def calls(n_boxes, n_balls, kind, r=None):
            spec = AllocationSpec(n_boxes=n_boxes, n_balls=n_balls, kind=kind, trials=1,
                                  seed=2, r=r)
            sizes.clear()
            counts = trial_counts(spec, (2, 0), 2)
            assert (counts.sum(axis=1) == n_balls).all()
            return list(sizes)

        dense = calls(20, 3 * CHUNK_DRAWS + 5, "multinomial")
        assert {name for name, _ in dense} == {"integers"} and len(dense) > 2, dense
        assert max(size for _, size in dense) <= CHUNK_DRAWS
        assert sum(size for _, size in dense) == 2 * (3 * CHUNK_DRAWS + 5)
        sparse = calls(10 ** 6, CHUNK_DRAWS + 7, "multinomial")
        assert sparse == [("integers", 2 * (CHUNK_DRAWS + 7))]
        dirichlet = calls(CHUNK_DRAWS + 9, 100, "dirichlet", 0.5)
        assert dirichlet == [("gamma", 2 * (CHUNK_DRAWS + 9)),
                             ("multinomial", 2 * (CHUNK_DRAWS + 9))]

    def test_deterministic_per_key(self):
        spec = AllocationSpec(n_boxes=5, n_balls=9, kind="multinomial", trials=1, seed=3)
        a = trial_counts(spec, (2, 4), 10)
        assert (a == trial_counts(spec, (2, 4), 10)).all()
        c = trial_counts(spec, (2, 5), 10)
        assert a.shape != c.shape or not (a == c).all()
        # a two-word key is not the one-word key of the same index
        d = trial_counts(spec, (4,), 10)
        assert a.shape != d.shape or not (a == d).all()


# (spec, anchor (n_boxes, n_balls), summary) pinned on stream version 2
PINNED = {
    "multinomial_sparse": (
        dict(n_boxes=50, n_balls=20, kind="multinomial", trials=200, seed=12345), (50, 20),
        AllocationSummary(
            max_histogram={1: 3, 2: 145, 3: 45, 4: 7},
            tie_histogram={0: 67, 1: 43, 2: 48, 3: 29, 4: 6, 5: 4, 19: 3},
            cluster_freq=0.95, mean_top_two_occupancy=2.89,
            ge_anchor_histogram={0: 3, 1: 29, 2: 39, 3: 64, 4: 44, 5: 16, 6: 5},
            trials=200)),
    "multinomial_dense": (
        dict(n_boxes=20, n_balls=60, kind="multinomial", trials=200, seed=2024), (20, 60),
        AllocationSummary(
            max_histogram={4: 1, 5: 24, 6: 81, 7: 53, 8: 28, 9: 7, 10: 6},
            tie_histogram={0: 129, 1: 44, 2: 16, 3: 6, 4: 3, 5: 2},
            cluster_freq=0.525, mean_top_two_occupancy=3.1,
            ge_anchor_histogram={0: 1, 1: 5, 2: 23, 3: 58, 4: 72, 5: 28, 6: 12, 7: 1},
            trials=200)),
    "dirichlet": (
        dict(n_boxes=30, n_balls=45, kind="dirichlet", trials=150, seed=77, r=0.7), (30, 45),
        AllocationSummary(
            max_histogram={4: 1, 5: 7, 6: 18, 7: 32, 8: 27, 9: 22, 10: 11, 11: 10, 12: 7,
                           13: 9, 14: 3, 15: 2, 16: 1},
            tie_histogram={0: 126, 1: 19, 2: 5},
            cluster_freq=1 / 150, mean_top_two_occupancy=559 / 150,
            ge_anchor_histogram={3: 1, 4: 9, 5: 24, 6: 45, 7: 45, 8: 19, 9: 6, 10: 1},
            trials=150)),
    "zero_balls": (
        dict(n_boxes=10, n_balls=0, kind="multinomial", trials=20, seed=0), (10, 5),
        AllocationSummary(
            max_histogram={0: 20}, tie_histogram={9: 20}, cluster_freq=0.0,
            mean_top_two_occupancy=0.0, ge_anchor_histogram={0: 20}, trials=20)),
    # each trial's 50000 balls drawn in four slices
    "sliced": (
        dict(n_boxes=10000, n_balls=50000, kind="multinomial", trials=6, seed=31337),
        (10000, 50000),
        AllocationSummary(
            max_histogram={14: 1, 15: 4, 16: 1}, tie_histogram={0: 2, 1: 2, 2: 2},
            cluster_freq=5 / 6, mean_top_two_occupancy=40 / 6,
            ge_anchor_histogram={2: 2, 6: 1, 8: 1, 9: 1, 14: 1}, trials=6)),
    # anchor m_n = 0: every box counts as holding at least m_n
    "anchor_zero": (
        dict(n_boxes=20, n_balls=3, kind="multinomial", trials=100, seed=5), (20, 1),
        AllocationSummary(
            max_histogram={1: 78, 2: 21, 3: 1}, tie_histogram={0: 22, 2: 78}, cluster_freq=0.78,
            mean_top_two_occupancy=19.78, ge_anchor_histogram={20: 100}, trials=100)),
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

    @pytest.mark.parametrize("n_boxes,n_balls,kind,r,trials", [
        (50, 20, "multinomial", None, 2500),   # fewer balls than boxes, 3 chunks
        (20, 20, "multinomial", None, 1000),   # as many balls as boxes
        (20, 60, "multinomial", None, 300),
        (10, 0, "multinomial", None, 30),
        (30, 45, "dirichlet", 0.7, 200),
        (400, 4, "multinomial", None, 1),
        (12, 40, "dirichlet", 2.0, 1),
        (20, 20000, "multinomial", None, 3),   # 3 chunks of one trial, more balls than boxes
    ])
    def test_matches_per_trial_reference(self, n_boxes, n_balls, kind, r, trials):
        spec = AllocationSpec(n_boxes=n_boxes, n_balls=n_balls, kind=kind, trials=trials,
                              seed=321, r=r)
        for anchor in ((20, 1), (50, 20), (20, 60)):  # m_n = 0, 2 and 5
            prof = asym_profile(*anchor)
            assert simulate(spec, prof) == reference_summary(spec, prof), anchor

    @pytest.mark.parametrize("kind,r", [("multinomial", None), ("dirichlet", 1.0)])
    def test_version_2_max_law_at_4_boxes_8_balls(self, kind, r):
        # every max value's frequency within 5 binomial sigma of the exact
        # law; 5000 trials are 2 full chunks of 2048 and one of 904
        trials = 5000
        spec = AllocationSpec(n_boxes=4, n_balls=8, kind=kind, trials=trials, seed=2718, r=r)
        assert [size for _, size in _chunks(spec)] == [2048, 2048, 904]
        law: dict = {}
        for key, (prob, _) in enumerate_conditional(4, 8, kind, r=r or 1.0).items():
            law[key[0]] = law.get(key[0], 0.0) + prob
        s = simulate(spec, asym_profile(4, 8))
        assert set(s.max_histogram) <= set(law)
        for value, prob in law.items():
            f = s.max_histogram.get(value, 0) / trials
            sigma = math.sqrt(prob * (1.0 - prob) / trials)
            assert abs(f - prob) <= 5.0 * sigma, (value, f, prob)

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
        per_chunk = CHUNK_DRAWS // 160
        want = simulate(spec, asym_profile(16000, 160))
        assert len(calls) == -(-3000 // per_chunk)
        # threads call the kernel in no fixed order
        assert sorted(calls) == list(_chunks(spec))
        monkeypatch.setattr(allocsim, "trial_counts", kernel)
        assert simulate(spec, asym_profile(16000, 160)) == want

    @pytest.mark.parametrize("n_boxes,n_balls,kind,r,trials", [
        (50, 20, "multinomial", None, 2500),   # fewer balls than boxes
        (20, 60, "multinomial", None, 1500),
        (30, 45, "dirichlet", 0.7, 800),
        (20, 40000, "multinomial", None, 7),   # each trial drawn in slices
    ])
    def test_summary_does_not_depend_on_the_thread_count(self, monkeypatch, n_boxes, n_balls,
                                                         kind, r, trials):
        spec = AllocationSpec(n_boxes=n_boxes, n_balls=n_balls, kind=kind, trials=trials,
                              seed=606, r=r)
        prof = asym_profile(50, 20)
        want = reference_summary(spec, prof)
        chunks = len(list(_chunks(spec)))
        kernel = allocsim.trial_counts
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads switch often: a lost tally would show
        try:
            for cpus in (1, 2, 5):
                threads = set()

                def recording(spec, key, trials):
                    threads.add(threading.get_ident())
                    return kernel(spec, key, trials)

                monkeypatch.setattr(allocsim, "trial_counts", recording)
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                    raising=False)
                assert simulate(spec, prof) == want, cpus
                # no more threads than usable CPUs or chunks; one CPU runs on the caller
                assert 1 <= len(threads) <= min(cpus, chunks)
                if cpus == 1:
                    assert threads == {threading.get_ident()}
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("failing,error", [((2, 3), ValueError("chunk (2, 3)")),
                                               ((2, 0), KeyboardInterrupt())])
    def test_a_failing_chunk_stops_every_thread(self, monkeypatch, failing, error):
        # on two CPUs the calling thread takes the even chunks: (2, 3) fails
        # in the started thread, (2, 0) in the calling one
        calls = []
        kernel = allocsim.trial_counts

        def failing_kernel(spec, key, trials):
            calls.append(key)
            if key == failing:
                raise error
            time.sleep(0.05)  # the failure lands while the other threads draw
            return kernel(spec, key, trials)

        monkeypatch.setattr(allocsim, "trial_counts", failing_kernel)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        spec = AllocationSpec(n_boxes=50, n_balls=20, kind="multinomial", trials=40 * 819,
                              seed=3)
        before = threading.active_count()
        with pytest.raises(type(error)) as raised:
            simulate(spec, asym_profile(50, 20))
        assert raised.value is error
        assert threading.active_count() == before
        # the other thread stops at its next chunk, not after its stride of 20
        assert len(calls) <= 8, calls

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
