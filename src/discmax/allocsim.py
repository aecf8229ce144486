"""Monte Carlo and exact oracles for balls-in-boxes allocation models.

Two allocation laws are covered: the uniform multinomial (each of k balls
lands in one of n boxes independently) and its Bayesian variant, the
symmetric Dirichlet mixture of multinomials.  Both admit a conditional
representation by i.i.d. counts given their sum (Poisson for the
multinomial, negative binomial for the Dirichlet mixture), which is what
``enumerate_conditional`` verifies exactly on small instances and what
``simulate`` checks statistically at scale.  ``comparison_tables`` is the
one source of every theory cell set against a simulation: the limiting
law of the matched model, gamma = 0 (Poisson) for the multinomial and
0 < gamma < 1 (negative binomial) for the Dirichlet mixture.

Reproducibility: ``simulate`` draws its trials in chunks of at most
CHUNK_DRAWS variates (at least one trial each), chunk c from the stream
``SeedSequence(entropy=seed, spawn_key=(2, c))``, and counts every chunk
with one kernel, ``trial_counts``; results are bit-identical for a given
spec.  This is stream version 2, named by the key's first word (a future
scheme takes a new one), and CHUNK_DRAWS is part of its definition.  The
chunks run on threads, one stride of them each, and the summary does not
depend on how many.

numpy is imported inside the functions that draw or tally samples, so
importing this module (and the package) does not load it.
"""

from __future__ import annotations

import math
import os
import threading
from collections import Counter
from collections.abc import Iterator
from itertools import accumulate, islice

from .extremes import (ExtremalProfile, Regime, limiting_max_pmf, tie_distribution,
                       tie_phase_threshold)
from .record import Record, check_int
from .tailmodel import NegativeBinomialModel, PoissonModel

KINDS = ("multinomial", "dirichlet")

ENUMERATION_MAX_BOXES = 6
ENUMERATION_MAX_BALLS = 12

# simulate refuses specs whose n_boxes x trials box tallies exceed this;
# it also keeps every chunk index below 2^32, one word of a spawn key
MAX_BOX_TALLIES = 2_000_000_000

# variates one chunk of several trials draws at most, and the slice in
# which trial_counts counts a trial of more balls than both CHUNK_DRAWS and
# its boxes.  Chosen by peak memory when the dense benchmark spec drew its
# 10^6 balls in one 8 MB call: 2^16 raised peak RSS by ~2 % and 2^17 by up
# to 9 %, 2^14 and 2^15 by under 1 %.
CHUNK_DRAWS = 2 ** 14

# tie phase-transition depths ceil(c z_n) checked by merging_report
PHASE_CS = (0.5, 2.0)


class MemoryBudgetError(RuntimeError):
    """n_boxes * trials box tallies exceed MAX_BOX_TALLIES (a bound on work, not memory)."""


class AllocationSpec(Record):
    n_boxes: int
    n_balls: int
    kind: str
    trials: int
    seed: int
    r: float | None = None

    def __post_init__(self) -> None:
        # kept as Python ints: a numpy uint8 n_balls overflows CHUNK_DRAWS // n_balls
        for name, least in (("n_boxes", 1), ("n_balls", 0), ("trials", 1)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), least))
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.kind == "dirichlet":
            if self.r is None or not 0.0 < self.r < math.inf:  # also rejects nan
                raise ValueError(f"dirichlet allocations need a positive finite r, got {self.r}")
        elif self.r is not None:
            raise ValueError(f"multinomial allocations take no r, got {self.r}")
        if type(self.seed) is not int or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative int, got {self.seed!r}")


class AllocationSummary(Record):
    """Aggregates over trials; histogram values are raw trial counts.

    tie count = (number of boxes achieving the maximum) - 1.
    ge_anchor_histogram tallies how many boxes hold at least m_n balls,
    which feeds the tie phase-transition rows of the merging report.
    """

    max_histogram: dict
    tie_histogram: dict
    cluster_freq: float
    mean_top_two_occupancy: float
    ge_anchor_histogram: dict
    trials: int


def _chunks(spec: AllocationSpec) -> Iterator[tuple]:
    """(spawn key, trials) of each chunk, in trial order."""
    # variates per trial: one integer per ball, or one gamma weight and
    # one binomial per box
    per_trial = spec.n_balls if spec.kind == "multinomial" else 2 * spec.n_boxes
    size = max(1, CHUNK_DRAWS // max(per_trial, 1))
    return (((2, c), min(size, spec.trials - first))
            for c, first in enumerate(range(0, spec.trials, size)))


def trial_counts(spec: AllocationSpec, key: tuple, trials: int) -> np.ndarray:
    """Box counts of one chunk: `trials` trials drawn from the stream
    (spec.seed, key), one row each; boxes a row does not list are empty.

    Each array of variates (the balls, or the Dirichlet gamma weights and
    multinomial) is drawn by one generator call, except the balls of a
    trial that outnumber both CHUNK_DRAWS and its boxes: those are counted
    slice by slice, in calls of at most CHUNK_DRAWS.

    Rows list all n_boxes boxes in box order, except for the uniform
    multinomial with fewer balls than boxes: there a row has one entry per
    ball, the count of each occupied box at its first ball and zeros
    elsewhere, so no array is as wide as the mostly empty boxes.
    """
    import numpy as np
    rng = np.random.default_rng(np.random.SeedSequence(entropy=spec.seed, spawn_key=key))
    if spec.kind == "dirichlet":
        weights = rng.gamma(spec.r, 1.0, (trials, spec.n_boxes))
        weights /= weights.sum(axis=1, keepdims=True)
        return rng.multinomial(spec.n_balls, weights)
    if spec.n_balls >= spec.n_boxes and spec.n_balls > CHUNK_DRAWS:
        # each trial (a chunk has one) counted slice by slice into its row,
        # so the draws stay in cache.  The slices continue the stream of one
        # call: numpy's bounded integers, whose range n_boxes MAX_BOX_TALLIES
        # keeps below 2^32, take 32-bit halves of PCG64's words, the unused
        # half held over to the next call
        counts = np.zeros((trials, spec.n_boxes), dtype=np.int64)
        for row in counts:
            for first in range(0, spec.n_balls, CHUNK_DRAWS):
                size = min(CHUNK_DRAWS, spec.n_balls - first)
                np.add.at(row, rng.integers(0, spec.n_boxes, size), 1)
        return counts
    draws = rng.integers(0, spec.n_boxes, (trials, spec.n_balls))
    if spec.n_balls >= spec.n_boxes:
        # one bincount over the chunk, each trial's boxes at its own offset
        if trials > 1:
            draws += np.arange(0, trials * spec.n_boxes, spec.n_boxes)[:, None]
        return np.bincount(draws.ravel(), minlength=trials * spec.n_boxes).reshape(
            trials, spec.n_boxes)
    # run lengths of each trial's sorted draws
    draws.sort(axis=1)
    run_start = np.ones(draws.shape, dtype=bool)
    np.not_equal(draws[:, 1:], draws[:, :-1], out=run_start[:, 1:])
    starts = run_start.ravel().nonzero()[0]
    counts = np.zeros(draws.size, dtype=np.int64)
    counts[starts] = np.diff(starts, append=draws.size)
    return counts.reshape(draws.shape)


def _holding_at_least(counts: np.ndarray, v: int, n_boxes: int) -> np.ndarray:
    """Boxes of each trial (row) holding at least v balls; a box the row
    does not list holds 0."""
    import numpy as np
    if v <= 0:
        return np.full(counts.shape[0], n_boxes)
    return np.count_nonzero(counts >= v, axis=1)


def simulate(spec: AllocationSpec, prof: ExtremalProfile) -> AllocationSummary:
    """Run spec.trials allocations and tally maxima, ties and occupancy.

    Each chunk of trials is tallied from its box-count matrix (see
    `trial_counts`), with no per-trial Python.  The chunks run on every
    usable CPU, W = min(usable CPUs, chunks): the calling thread takes
    chunks 0, W, 2W, ... and W - 1 threads the other strides, as numpy
    releases the GIL while it draws, sorts and counts.  A thread holds one
    chunk at a time, of at most CHUNK_DRAWS variates or else one trial, so
    memory grows by one chunk per thread.  The tallies are
    integers, merged once the threads join, so the summary does not depend
    on W.  An exception in any thread (a KeyboardInterrupt in the calling
    one too) stops the others at their next chunk and is raised once all
    have joined.
    """
    import numpy as np
    if spec.n_boxes * spec.trials > MAX_BOX_TALLIES:
        raise MemoryBudgetError(
            f"n_boxes * trials = {spec.n_boxes * spec.trials} box tallies, "
            f"more than the limit {MAX_BOX_TALLIES}")
    m = prof.m_n
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    # one thread per usable CPU, but none without a chunk
    workers = sum(1 for _ in islice(_chunks(spec), cpus or 1))
    tallies, failures = [], []

    def tally(first: int) -> None:
        max_hist, tie_hist, ge_hist = Counter(), Counter(), Counter()
        top_two_total = 0
        try:
            for key, size in islice(_chunks(spec), first, None, workers):
                if failures:
                    return
                counts = trial_counts(spec, key, size)  # the module global: tracers patch it
                mx = counts.max(axis=1, initial=0)
                # a maximum of 0 leaves every box empty
                at_max = np.where(mx > 0, np.count_nonzero(counts == mx[:, None], axis=1),
                                  spec.n_boxes)
                ge_anchor = _holding_at_least(counts, m, spec.n_boxes)
                max_hist.update(mx.tolist())
                tie_hist.update((at_max - 1).tolist())
                ge_hist.update(ge_anchor.tolist())
                # boxes holding m or m + 1 balls
                top_two_total += int(
                    (ge_anchor - _holding_at_least(counts, m + 2, spec.n_boxes)).sum())
                # free the box counts before the next chunk draws: an array held
                # across chunks fragments the heap and raises peak memory on dense specs
                del counts
        except BaseException as exc:
            failures.append(exc)
        else:
            tallies.append((max_hist, tie_hist, ge_hist, top_two_total))

    threads = [threading.Thread(target=tally, args=(first,)) for first in range(1, workers)]
    try:
        for thread in threads:
            thread.start()
        tally(0)
    except BaseException as exc:  # a thread that could not start, or an interrupt
        failures.append(exc)
    for thread in threads:
        while thread.is_alive():
            try:
                thread.join()
            except BaseException as exc:  # interrupted while waiting
                failures.append(exc)
    if failures:
        raise failures[0]

    max_hist, tie_hist, ge_hist = Counter(), Counter(), Counter()
    top_two_total = 0
    for thread_max, thread_tie, thread_ge, thread_top_two in tallies:
        max_hist.update(thread_max)
        tie_hist.update(thread_tie)
        ge_hist.update(thread_ge)
        top_two_total += thread_top_two
    return AllocationSummary(
        max_histogram=dict(sorted(max_hist.items())),
        tie_histogram=dict(sorted(tie_hist.items())),
        cluster_freq=(max_hist[m] + max_hist[m + 1]) / spec.trials,
        mean_top_two_occupancy=top_two_total / spec.trials,
        ge_anchor_histogram=dict(sorted(ge_hist.items())),
        trials=spec.trials,
    )


def _partitions(total: int, parts: int, largest: int):
    """Non-increasing tuples of `parts` counts, each <= largest, summing to total."""
    if parts == 1:
        if total <= largest:
            yield (total,)
        return
    for first in range(min(total, largest), -(-total // parts) - 1, -1):
        for rest in _partitions(total - first, parts - 1, first):
            yield (first,) + rest


def _rising_factorials(a: int, d: int, m: int) -> list:
    """[d^c (a/d)_c for c = 0..m], the integers a (a + d) ... (a + (c - 1) d)."""
    out = [1]
    for j in range(m):
        out.append(out[-1] * (a + j * d))
    return out


def enumerate_conditional(n_boxes: int, n_balls: int, kind: str,
                          lam: float = 1.0, r: float = 1.0, p: float = 0.4) -> dict:
    """Exact law of the sorted box counts, by two independent routes.

    Returns {sorted_counts: (allocation_prob, conditioned_iid_prob)}.
    The allocation route evaluates the multinomial (or Dirichlet mixture)
    probability as a ratio of exact integers, rounded once; the conditioning
    route evaluates products of i.i.d. pmf values (Poisson(lam), or NB(r, p))
    normalized by the total mass on the sum, as products of the term ratios
    pmf(c + 1) / pmf(c) (pmf(0)^n_boxes cancels) summed in logs, over the
    largest.  The two columns must agree: the mixing parameter (lam or p)
    cancels in the conditional law.

    Both probabilities are symmetric in the boxes, so the walk is over
    partitions (non-increasing count tuples), each weighted by its number
    of arrangements n_boxes! / prod_v mult(v)!, instead of over every
    composition of n_balls into n_boxes parts.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    n_boxes, n_balls = check_int("n_boxes", n_boxes), check_int("n_balls", n_balls)
    if n_boxes < 1 or n_boxes > ENUMERATION_MAX_BOXES:
        raise ValueError(f"enumeration supports 1..{ENUMERATION_MAX_BOXES} boxes, got {n_boxes}")
    if n_balls < 0 or n_balls > ENUMERATION_MAX_BALLS:
        raise ValueError(f"enumeration supports 0..{ENUMERATION_MAX_BALLS} balls, got {n_balls}")

    if kind == "multinomial":
        PoissonModel(lam)  # refuses a bad lam
        ratios = [lam / (c + 1) for c in range(n_balls)]
        denom = n_boxes ** n_balls
    else:
        NegativeBinomialModel(r, p)  # refuses a bad r or p
        ratios = [p * (r + c) / (c + 1) for c in range(n_balls)]
        # r = a/d exactly; the d^c cleared from each (r)_c cancel against the
        # d^k cleared from (n_boxes r)_k, as the counts sum to k = n_balls
        a, d = float(r).as_integer_ratio()
        rising = _rising_factorials(a, d, n_balls)
        denom = _rising_factorials(n_boxes * a, d, n_balls)[-1]
    log_term = [0.0, *accumulate(map(math.log, ratios))]  # ln pmf(c) / pmf(0)

    fact = [math.factorial(i) for i in range(max(n_balls, n_boxes) + 1)]
    alloc: dict = {}
    arrangements_of: dict = {}
    for key in _partitions(n_balls, n_boxes, n_balls):
        arrangements = fact[n_boxes]
        coeff = fact[n_balls]
        for c in key:
            coeff //= fact[c]
        for v in set(key):
            arrangements //= fact[key.count(v)]
        num = arrangements * coeff
        if kind == "dirichlet":
            for c in key:
                num *= rising[c]
        alloc[key] = num / denom
        arrangements_of[key] = arrangements

    log_weight = {key: math.fsum(log_term[c] for c in key) for key in alloc}
    shift = max(log_weight.values())
    weight = {key: arrangements_of[key] * math.exp(lw - shift) for key, lw in log_weight.items()}
    total_weight = math.fsum(weight.values())

    return {key: (alloc[key], weight[key] / total_weight) for key in sorted(alloc)}


def merging_report(spec: AllocationSpec, prof: ExtremalProfile, t_max: int = 3, *,
                   summary: AllocationSummary) -> list:
    """Empirical-vs-theory comparison rows for the simulated allocation summary.

    Each row carries the empirical frequency, the limiting theoretical
    value, their absolute difference, and the binomial standard error
    sqrt(f(1-f)/trials) where a frequency is being estimated.  The max
    rows read the regime's limiting law; tie and phase rows need gamma = 0.
    """
    return comparison_tables(spec, prof, t_max, summary=summary)["merging"]


def comparison_tables(spec: AllocationSpec, prof: ExtremalProfile, t_max: int = 3, *,
                      summary: AllocationSummary) -> dict:
    """Every empirical-vs-theory row of a simulated allocation, by table:
    "max" and "ties" hold one row (quantity = value, plus its raw "count")
    per simulated maximum v and tie count t, against the limiting law at
    v - m_n and the gamma = 0 tie law (None past t_max); "merging" holds the
    `merging_report` rows, made by the same two row builders."""
    t_max = check_int("t_max", t_max, 0)
    trials = summary.trials
    m = prof.m_n
    # the module global: tracers patch it
    tie_law = tie_distribution(prof, t_max).exactly if prof.regime is Regime.GAMMA_ZERO else {}

    def max_row(quantity, v: int) -> dict:
        return _comparison_row(quantity, v, summary.max_histogram.get(v, 0) / trials,
                               limiting_max_pmf(prof, v - m), trials)

    def ties_row(quantity, t: int) -> dict:
        return _comparison_row(quantity, t, summary.tie_histogram.get(t, 0) / trials,
                               tie_law.get(t), trials)

    rows = [max_row("max_eq_anchor", m), max_row("max_eq_anchor_plus_1", m + 1),
            _comparison_row("max_in_cluster", (m, m + 1), summary.cluster_freq, None, trials)]
    rows += [ties_row(f"ties_eq_{t}", t) for t in range(t_max + 1)]

    # expected number of boxes holding m or m+1 balls, from the matched model
    matched = matched_model(spec)
    occ_theory = spec.n_boxes * (
        math.exp(matched.log_pmf(m)) + math.exp(matched.log_pmf(m + 1))) if m >= 0 else None
    # a mean count, not a frequency: no binomial standard error
    rows.append(_comparison_row("top_two_occupancy", (m, m + 1), summary.mean_top_two_occupancy,
                                occ_theory, trials) | {"stderr": None})

    if tie_law:  # the phase rows, like the tie law, need gamma = 0
        for c in PHASE_CS:
            k = tie_phase_threshold(prof, c)
            hit = sum(cnt for j, cnt in summary.ge_anchor_histogram.items() if j >= k + 1)
            rows.append(_comparison_row(f"depth_{k}_above_anchor_minus_1", k, hit / trials,
                                        1.0 if c < 1.0 else 0.0, trials))
    return {"max": [max_row(v, v) | {"count": c} for v, c in summary.max_histogram.items()],
            "ties": [ties_row(t, t) | {"count": c} for t, c in summary.tie_histogram.items()],
            "merging": rows}


def _comparison_row(quantity, value, empirical: float, theory: float | None,
                    trials: int) -> dict:
    """One empirical-vs-theory row: the frequency, the theory value, their
    absolute difference, and the binomial standard error of the frequency."""
    return {"quantity": quantity, "value": value, "empirical": empirical, "theory": theory,
            "abs_error": abs(empirical - theory) if theory is not None else None,
            "stderr": math.sqrt(max(empirical * (1.0 - empirical), 0.0) / trials)}


def matched_model(spec: AllocationSpec, extension: str = "natural"):
    """The i.i.d. model whose conditional law is the allocation law: Poisson
    with the mean occupancy, or the negative binomial with that mean."""
    if spec.n_balls == 0:
        raise ValueError("n_balls must be >= 1: an empty allocation has no matched model")
    lam = spec.n_balls / spec.n_boxes
    if spec.kind == "multinomial":
        return PoissonModel(lam, extension)
    p = lam / (spec.r + lam)
    if p == 1.0:
        raise ValueError(f"r = {spec.r} is too small for n_balls / n_boxes = {lam}: "
                         "the matched p = mean / (r + mean) rounds to 1")
    return NegativeBinomialModel(spec.r, p, extension)
