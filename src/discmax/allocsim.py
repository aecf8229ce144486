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

Reproducibility: ``simulate`` draws chunk c of its trials from the stream
``SeedSequence(entropy=seed, spawn_key=(version, c))`` by ``trial_counts``,
the chunks in order on the calling thread; a scheme's constants are part of
it.  The multinomial is version 3, the Poissonization (Devroye 1986) of the
representation above: the occupancy histogram of n Poisson(lambda') counts,
lambda' = max(0, k - POISSON_MARGIN sqrt(k)) / n, drawn again while their
sum S exceeds k, plus k - S uniform balls; its table, from the model's pmf
run, absorbs the tails beyond 2^-53 in its end classes, so a trial is within
n 2^-50 of the multinomial in total variation.  The Dirichlet mixture takes
one of two routes, picked by the spec alone (``_negbinom_table``).  On
histograms it is version 6: the occupancy histogram of n NB(r, p') counts of
total mean k (p' cancels given their sum S, which is Dirichlet-multinomial),
drawn again while S lies outside [L, k], L one sd of the table's sum below
its mean (``_least_sum``), completed by k - S Pólya-urn steps, which take
DirMult(S) to DirMult(k) from any S (Johnson & Kotz 1977); a redraw rule
that reads only S keeps that law.  On box counts, where the NB table is too
wide for its Pólya steps to pay, it is version 4, weights from numpy's
Dirichlet sampler (no NaN at small r on numpy 2.4.6, down to r = 1e-8;
version 2's gamma weights over their sum could be 0 / 0).  Dirichlet
summaries of versions 2 and 5 (histograms redrawn only above k), and of
version 4 for specs now on histograms, cannot be reproduced.  A spec holds
fewer than 2^32 trials (its chunk indices).

numpy is imported inside the functions that draw or tally samples, so
importing this module (and the package) does not load it.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterator
from itertools import accumulate, islice

from .extremes import (ExtremalProfile, Regime, limiting_max_pmf, tie_distribution,
                       tie_phase_threshold)
from .record import Record, check_int
from .specfun import reg_beta_log, reg_gamma_q_log
from .tailmodel import _LOG_TABLE_TAIL, NegativeBinomialModel, PoissonModel

KINDS = ("multinomial", "dirichlet")

ENUMERATION_MAX_BOXES = 6
ENUMERATION_MAX_BALLS = 12

# variates one chunk of several trials draws at most.  It fixes the chunk
# plan, and so the draws, of every allocation stream: it is part of their
# definitions and stays as it is.
CHUNK_DRAWS = 2 ** 14

# cells (trials x table classes) one chunk of Dirichlet histograms holds at
# most; like CHUNK_DRAWS it fixes the chunk plan of stream version 6
CHUNK_CELLS = 2 ** 17

# The route of a Dirichlet spec: histograms where width (ROUTE_CLASS_COST +
# sd) < ROUTE_BOX_COST n, width that of its NB table and sd = sqrt(k (1 + k /
# (n r))) that of the NB sum; a box-count trial draws a weight and a binomial
# a box.  The two constants are a fit to 120 specs timed on both routes under
# version 5, whose histogram trial drew its table row about twice and took
# ~0.8 sd Pólya steps (version 6 draws it ~2.8 times and takes ~0.45 sd).
# They are kept as fitted, so that no spec changes route; a refit is open in
# ROADMAP.md.  Past ROUTE_MAX_R the incomplete beta behind the table loses ~r
# 2^-52 ln r to cancelling lgamma terms, so those specs stay on box counts.
# These constants are part of the stream definitions.
ROUTE_CLASS_COST = 16.0
ROUTE_BOX_COST = 32.0
ROUTE_MAX_R = 2.0 ** 32

# a multinomial trial starts from Poisson box counts of total mean
# k - POISSON_MARGIN sqrt(k), POISSON_MARGIN standard deviations below k:
# ~16 % of rows are drawn again, and ~1.3 sqrt(k) balls are thrown per row
POISSON_MARGIN = 1.0

# tie phase-transition depths ceil(c z_n) checked by merging_report
PHASE_CS = (0.5, 2.0)


class AllocationSpec(Record):
    n_boxes: int
    n_balls: int
    kind: str
    trials: int
    seed: int
    r: float | None = None

    def __post_init__(self) -> None:
        # kept as Python ints: a numpy uint8 n_boxes overflows 2 * n_boxes in _chunks
        for name, least in (("n_boxes", 1), ("n_balls", 0), ("trials", 1)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), least))
        if self.trials >= 2 ** 32:  # a chunk's index is one 32-bit word of its spawn key
            raise ValueError(f"trials must be below 2^32, got {self.trials}")
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


# one table per spec, built by its first chunk and read by the others
@functools.lru_cache(maxsize=1)
def _poisson_table(lam: float) -> tuple:
    """(first, pvals): Poisson(lam) probabilities of the ~17 sqrt(lam) classes
    from the largest first to the smallest last >= lam whose outer tails are
    below 2^-53, which the end classes absorb (2^-52 in total variation); inner
    classes are read from the model's pmf run."""
    if lam == 0.0:
        return 0, (1.0,)
    model, mode = PoissonModel(lam), math.floor(lam)
    # the number of v in 1..mode with P(X < v) = Q(v, lam) below the end
    first = bisect_left(range(1, mode + 1), True,
                        key=lambda v: reg_gamma_q_log(v, lam) >= _LOG_TABLE_TAIL)
    # P(X > 2 lam + 64) < e^-72 by Bennett's inequality, so last <= 2 mode + 66
    last = mode + bisect_left(range(mode, 2 * mode + 66), True,
                              key=lambda v: model.log_tail(v) < _LOG_TABLE_TAIL)
    pvals = list(islice(model.pmf_from(first), last - first + 1))
    pvals[0] = math.exp(reg_gamma_q_log(first + 1, lam))  # P(X <= first)
    pvals[-1] = math.exp(model.log_tail(last - 1))  # P(X >= last)
    return first, tuple(pvals)


@functools.lru_cache(maxsize=1)
def _negbinom_table(n_boxes: int, n_balls: int, r: float) -> tuple | None:
    """(first, pvals): NB(r, p) probabilities, p = k / (k + n r) so that the
    n counts hold k balls on average, of the classes from the largest first
    to the smallest last whose outer tails are below 2^-53, which the end
    classes absorb as `_poisson_table`'s do; or None where the spec stays on
    box counts: where r >= ROUTE_MAX_R, or where the table is not narrower
    than the width at which a histogram trial would cost as much as a
    box-count trial (the route constants above).  The ends are found by
    bisection on the incomplete beta tails up to that width, so only a
    histogram spec's table is listed.  Inner classes are read from the
    model's pmf run; the tails are added to the end classes' pmf rather
    than taken whole from the incomplete beta, whose lgamma prefactor loses
    ~r 2^-52 ln r (4e-11 at r = 1e5 on P(X <= 0) = (1 - p)^r)."""
    if r >= ROUTE_MAX_R:
        return None
    sd = math.sqrt(n_balls * (1.0 + n_balls / (n_boxes * r)))
    widest = math.ceil(ROUTE_BOX_COST * n_boxes / (ROUTE_CLASS_COST + sd)) - 1
    if widest < 1:
        return None
    total = n_balls + n_boxes * r
    p, q = n_balls / total, n_boxes * r / total
    mode = math.floor((r - 1.0) * n_balls / (n_boxes * r)) if r > 1.0 else 0
    # the number of v in 1..mode with P(X < v) = I_q(r, v) below the end
    first = bisect_left(range(1, mode + 1), True,
                        key=lambda v: reg_beta_log(r, v, q) >= _LOG_TABLE_TAIL)
    top = first + widest - 1  # the last class the widest table holds
    if top < mode or reg_beta_log(top + 1.0, r, p) >= _LOG_TABLE_TAIL:
        return None
    # P(X > v) = I_p(v + 1, r)
    last = mode + bisect_left(range(mode, top + 1), True,
                              key=lambda v: reg_beta_log(v + 1.0, r, p) < _LOG_TABLE_TAIL)
    if first == last:  # no ball (p = 0), or fewer than 2^-53 a box
        return first, (1.0,)
    model = NegativeBinomialModel(r, p)
    pvals = list(islice(model.pmf_from(first), last - first + 1))
    if first:
        pvals[0] += math.exp(reg_beta_log(r, first, q))  # P(X < first)
    pvals[-1] += math.exp(model.log_tail(last))  # P(X > last)
    return first, tuple(pvals)


def _chunks(spec: AllocationSpec) -> Iterator[tuple]:
    """(spawn key, trials) of each chunk, in trial order: stream version 3
    for the multinomial, max(1, CHUNK_DRAWS // (isqrt(k) + 1)) trials a chunk
    (~1.3 sqrt(k) balls thrown a trial); for the Dirichlet mixture, version 6
    on the histogram route, max(1, CHUNK_CELLS // width) trials a chunk (the
    plan of version 5, whose rows were redrawn only above k), and
    version 4 on box counts, max(1, CHUNK_DRAWS // (2 n)) trials a chunk (one
    weight and one binomial a box)."""
    if spec.kind == "multinomial":
        version, size = 3, CHUNK_DRAWS // (math.isqrt(spec.n_balls) + 1)
    elif (table := _negbinom_table(spec.n_boxes, spec.n_balls, spec.r)) is None:
        version, size = 4, CHUNK_DRAWS // (2 * spec.n_boxes)
    else:
        version, size = 6, CHUNK_CELLS // len(table[1])
    size = max(1, size)
    return (((version, c), min(size, spec.trials - first))
            for c, first in enumerate(range(0, spec.trials, size)))


def _least_sum(n_boxes: int, first: int, pvals: tuple) -> int:
    """The fewest balls a Dirichlet histogram row may hold before its Pólya
    steps: its table sum's mean less one sd, rounded up.  The sums are fsum
    of Python floats, so the bound is the same on every machine; a one-class
    table gives its only sum, n_boxes first, and every row is kept."""
    mean = math.fsum(p * (first + j) for j, p in enumerate(pvals))
    var = math.fsum(p * (first + j - mean) ** 2 for j, p in enumerate(pvals))
    return math.ceil(n_boxes * mean - math.sqrt(n_boxes * var))


def _polya_steps(rng, rows, missing, first: int, r: float):
    """The rows, in an order in which `missing` does not increase, completed
    by Pólya-urn steps, each step adding one ball to every trial that still
    misses one: class j is picked with probability proportional to
    rows[t, j] (r + first + j), the first class whose cumulative weight
    exceeds a uniform times the total, and one of its boxes moves to class
    j + 1.  The trials step together, so the live ones are a prefix of the
    rows and each step draws one uniform per live trial.  The sums stop at
    the highest class any row occupies (the classes above weigh 0), and the
    rows grow by one column when a box may reach their last."""
    import numpy as np
    top = int(np.flatnonzero(rows.any(axis=0))[-1])
    at = np.arange(len(rows))
    # live[s]: the trials still missing a ball at step s
    live = np.searchsorted(-missing, -np.arange(missing.max(initial=0)), side="left")
    for size in live.tolist():
        if top + 1 == rows.shape[1]:
            rows = np.pad(rows, ((0, 0), (0, 1)))
        cum = np.cumsum(rows[:size, :top + 1] * (r + np.arange(first, first + top + 1)), axis=1)
        # u < cum[:, -1] by rounding, so the class picked is never empty
        j = np.count_nonzero(cum <= (rng.random(size) * cum[:, -1])[:, None], axis=1)
        rows[at[:size], j] -= 1
        rows[at[:size], j + 1] += 1
        top += int(j.max() == top)
    return rows


def trial_counts(spec: AllocationSpec, key: tuple, trials: int):
    """One chunk, `trials` trials drawn from the stream (spec.seed, key), on
    the spec's route: box counts, one row of n_boxes per trial, for a
    Dirichlet spec on box counts (weights from numpy's Dirichlet sampler, one
    multinomial per trial); otherwise occupancy histograms (first, rows),
    rows[t, j] boxes of trial t holding first + j balls, drawn over the
    classes of the Poisson or NB table again while they hold more than
    n_balls balls, or, on NB rows, fewer than `_least_sum` (one sd of the
    table's sum below its mean), then completed: a multinomial chunk's
    missing balls hit uniform boxes numbered class by class, a Dirichlet
    chunk's come by `_polya_steps`, its rows in the order they step in (a
    chunk's trials are exchangeable).  Given its sum S <= k a row is
    DirMult(S) or multinomial(S), and the completion takes it to the law at
    k from any S, so a redraw rule that reads only S keeps the law."""
    import numpy as np
    rng = np.random.default_rng(np.random.SeedSequence(entropy=spec.seed, spawn_key=key))
    if spec.kind == "dirichlet":
        table = _negbinom_table(spec.n_boxes, spec.n_balls, spec.r)
        if table is None:
            weights = rng.dirichlet(np.full(spec.n_boxes, spec.r), trials)
            return rng.multinomial(spec.n_balls, weights)
        first, pvals = table
        least = _least_sum(spec.n_boxes, first, pvals)
    else:
        lam = max(0.0, spec.n_balls - POISSON_MARGIN * math.sqrt(spec.n_balls)) / spec.n_boxes
        first, pvals = _poisson_table(lam)
        least = 0
    balls_at = np.arange(first, first + len(pvals))

    def outside(rows):  # the rows whose balls lie outside [least, n_balls]
        balls = rows @ balls_at
        return (balls > spec.n_balls) | (balls < least)

    rows = rng.multinomial(spec.n_boxes, pvals, size=trials)
    draw = np.flatnonzero(outside(rows))
    while draw.size:  # drawn again, all those of a round in one call
        redrawn = rng.multinomial(spec.n_boxes, pvals, size=draw.size)
        rows[draw] = redrawn
        draw = draw[outside(redrawn)]
    missing = spec.n_balls - rows @ balls_at
    if spec.kind == "dirichlet":
        # the trials missing the most first (a stable sort), cut to the
        # classes up to one above the highest occupied, so that the
        # table-wide rows are freed before the steps
        order = np.argsort(-missing, kind="stable")
        rows = rows[order, :int(np.flatnonzero(rows.any(axis=0))[-1]) + 2]
        return first, _polya_steps(rng, rows, missing[order], first, spec.r)
    # boxes are exchangeable, so those of trial t are t n, ..., t n + n - 1 in
    # class order
    hits = rng.integers(0, spec.n_boxes, int(missing.sum()))
    hits += np.repeat(np.arange(0, trials * spec.n_boxes, spec.n_boxes), missing)
    boxes, extra = np.unique(hits, return_counts=True)
    hist = np.pad(rows, ((0, 0), (0, int(extra.max(initial=0)))))
    flat = hist.ravel()
    # each row's boxes sum to n, so over the whole chunk the boxes of the
    # flat class i are numbered from cumsum[i - 1]
    at = np.searchsorted(flat.cumsum(), boxes, side="right")
    flat += np.bincount(at + extra, minlength=flat.size) - np.bincount(at, minlength=flat.size)
    return first, hist


def simulate(spec: AllocationSpec, prof: ExtremalProfile) -> AllocationSummary:
    """Run spec.trials allocations and tally maxima, ties and occupancy.

    The chunks run in order on the calling thread, each tallied as
    `trial_counts` returns it, box counts or occupancy histograms (whatever
    the kind), with no per-trial Python.  A chunk that fails raises at once,
    and no later chunk is drawn.
    """
    import numpy as np
    m = prof.m_n
    max_hist, tie_hist, ge_hist = Counter(), Counter(), Counter()
    top_two_total = 0
    for key, size in _chunks(spec):
        drawn = trial_counts(spec, key, size)  # the module global: tracers patch it
        # per trial: the maximum, the boxes holding it, at least m and at least m + 2
        if not isinstance(drawn, tuple):  # box counts
            mx = drawn.max(axis=1)
            at_max, ge, ge2 = (np.count_nonzero(drawn >= v, 1) for v in (mx[:, None], m, m + 2))
        else:  # occupancy histograms; the maximum is a row's last occupied class
            first, hist = drawn
            top = hist.shape[1] - 1 - np.argmax(hist[:, ::-1] > 0, axis=1)
            mx, at_max = first + top, hist[np.arange(size), top]
            ge, ge2 = (hist[:, max(v - first, 0):].sum(axis=1) for v in (m, m + 2))
        max_hist.update(mx.tolist())
        tie_hist.update((at_max - 1).tolist())
        ge_hist.update(ge.tolist())
        top_two_total += int((ge - ge2).sum())  # boxes holding m or m + 1 balls
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

    # ln of each term ratio as a sum of logs: a ratio such as lam / 2 at
    # lam = 5e-324 rounds to 0, its log does not
    if kind == "multinomial":
        PoissonModel(lam)  # refuses a bad lam
        log_ratios = [math.log(lam) - math.log(c + 1) for c in range(n_balls)]
        denom = n_boxes ** n_balls
    else:
        NegativeBinomialModel(r, p)  # refuses a bad r or p
        log_ratios = [math.log(p) + math.log(r + c) - math.log(c + 1) for c in range(n_balls)]
        # r = a/d exactly; the d^c cleared from each (r)_c cancel against the
        # d^k cleared from (n_boxes r)_k, as the counts sum to k = n_balls
        a, d = float(r).as_integer_ratio()
        rising = _rising_factorials(a, d, n_balls)
        denom = _rising_factorials(n_boxes * a, d, n_balls)[-1]
    log_term = [0.0, *accumulate(log_ratios)]  # ln pmf(c) / pmf(0)

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
