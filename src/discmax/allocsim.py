"""Monte Carlo and exact oracles for balls-in-boxes allocation models.

Two allocation laws are covered: the uniform multinomial (each of k balls
lands in one of n boxes independently) and its Bayesian variant, the
symmetric Dirichlet mixture of multinomials.  Both admit a conditional
representation by i.i.d. counts given their sum (Poisson for the
multinomial, negative binomial for the Dirichlet mixture), which is what
``enumerate_conditional`` verifies exactly on small instances and what
``simulate``/``merging_report`` check statistically at scale against the
limiting law of the matched model: gamma = 0 (Poisson) for the
multinomial, 0 < gamma < 1 (negative binomial) for the Dirichlet mixture.

Reproducibility: each trial draws from its own stream derived from
(seed, trial_index) via a spawn key, and all aggregation is commutative,
so results are bit-identical for a given spec regardless of execution
order.

numpy is imported inside the functions that draw or tally samples, so
importing this module (and the package) does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .extremes import (ExtremalProfile, Regime, limiting_max_pmf, tie_distribution,
                       tie_phase_threshold)
from .tailmodel import NegativeBinomialModel, PoissonModel

KINDS = ("multinomial", "dirichlet")

ENUMERATION_MAX_BOXES = 6
ENUMERATION_MAX_BALLS = 12

# simulate refuses specs whose n_boxes x trials box tallies exceed this
MAX_BOX_TALLIES = 2_000_000_000

# tie phase-transition depths ceil(c z_n) checked by merging_report
PHASE_CS = (0.5, 2.0)


class MemoryBudgetError(RuntimeError):
    """n_boxes * trials box tallies exceed MAX_BOX_TALLIES (a bound on work, not memory)."""


@dataclass(frozen=True)
class AllocationSpec:
    n_boxes: int
    n_balls: int
    kind: str
    trials: int
    seed: int
    r: float | None = None

    def __post_init__(self) -> None:
        if self.n_boxes < 1:
            raise ValueError(f"n_boxes must be >= 1, got {self.n_boxes}")
        if self.n_balls < 0:
            raise ValueError(f"n_balls must be >= 0, got {self.n_balls}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.kind == "dirichlet":
            if self.r is None or self.r <= 0.0:
                raise ValueError("dirichlet allocations need a positive hyperparameter r")


@dataclass(frozen=True)
class AllocationSummary:
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


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    import numpy as np
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))


def trial_counts(spec: AllocationSpec, trial: int) -> np.ndarray:
    """Box counts of one trial; deterministic in (spec.seed, trial).

    For the uniform multinomial the array holds the counts of the occupied
    boxes only, in box order (empty boxes are left out, so it sums to
    n_balls and has no zero entry); Dirichlet trials return all n_boxes
    entries since every box carries its own weight.
    """
    import numpy as np
    rng = _trial_rng(spec.seed, trial)
    if spec.kind == "multinomial":
        if spec.n_balls >= spec.n_boxes:
            # the draws are freed before filtering, so peak memory stays at
            # draws + one box array
            counts = np.bincount(rng.integers(0, spec.n_boxes, size=spec.n_balls))
            return counts[counts > 0]
        # fewer balls than boxes: run lengths of the sorted draws, with no
        # pass over the mostly empty boxes
        draws = rng.integers(0, spec.n_boxes, size=spec.n_balls)
        draws.sort()
        run_edge = np.ones(spec.n_balls + 1, dtype=bool)
        np.not_equal(draws[1:], draws[:-1], out=run_edge[1:-1])
        edges = run_edge.nonzero()[0]
        return edges[1:] - edges[:-1]
    weights = rng.gamma(spec.r, 1.0, size=spec.n_boxes)
    weights /= weights.sum()
    return rng.multinomial(spec.n_balls, weights)


def simulate(spec: AllocationSpec, prof: ExtremalProfile) -> AllocationSummary:
    """Run spec.trials allocations and tally maxima, ties and occupancy.

    Each trial is read from its occupancy histogram: occ[v] is the number
    of boxes holding exactly v balls, empty boxes included.
    """
    import numpy as np
    if spec.n_boxes * spec.trials > MAX_BOX_TALLIES:
        raise MemoryBudgetError(
            f"n_boxes * trials = {spec.n_boxes * spec.trials} box tallies, "
            f"more than the limit {MAX_BOX_TALLIES}")
    m = prof.m_n
    max_hist: dict = {}
    tie_hist: dict = {}
    ge_hist: dict = {}
    cluster = 0
    top_two_total = 0
    for t in range(spec.trials):
        counts = trial_counts(spec, t)
        occ = np.bincount(counts, minlength=1).tolist()
        occ[0] += spec.n_boxes - counts.size
        # free the box array before the next trial draws: one held across
        # trials fragments the heap and raises peak memory on dense specs
        del counts

        mx = len(occ) - 1
        ties = occ[mx] - 1
        ge_anchor = sum(occ[max(m, 0):])

        max_hist[mx] = max_hist.get(mx, 0) + 1
        tie_hist[ties] = tie_hist.get(ties, 0) + 1
        ge_hist[ge_anchor] = ge_hist.get(ge_anchor, 0) + 1
        if mx in (m, m + 1):
            cluster += 1
        top_two_total += sum(occ[v] for v in (m, m + 1) if 0 <= v <= mx)

    return AllocationSummary(
        max_histogram=dict(sorted(max_hist.items())),
        tie_histogram=dict(sorted(tie_hist.items())),
        cluster_freq=cluster / spec.trials,
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


def _rising_factorials(a: Fraction, m: int) -> list:
    """[(a)_0, (a)_1, ..., (a)_m] with (a)_c = a (a + 1) ... (a + c - 1)."""
    out = [Fraction(1)]
    for j in range(m):
        out.append(out[-1] * (a + j))
    return out


def enumerate_conditional(n_boxes: int, n_balls: int, kind: str,
                          lam: float = 1.0, r: float = 1.0, p: float = 0.4) -> dict:
    """Exact law of the sorted box counts, by two independent routes.

    Returns {sorted_counts: (allocation_prob, conditioned_iid_prob)}.
    The allocation route evaluates the multinomial (or Dirichlet mixture)
    probability in exact rational arithmetic; the conditioning route
    evaluates products of i.i.d. pmf values (Poisson(lam), or NB(r, p))
    normalized by the total mass on the sum.  The two columns must agree:
    the mixing parameter (lam or p) cancels in the conditional law.

    Both probabilities are symmetric in the boxes, so the walk is over
    partitions (non-increasing count tuples), each weighted by its number
    of arrangements n_boxes! / prod_v mult(v)!, instead of over every
    composition of n_balls into n_boxes parts.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    if n_boxes < 1 or n_boxes > ENUMERATION_MAX_BOXES:
        raise ValueError(f"enumeration supports 1..{ENUMERATION_MAX_BOXES} boxes, got {n_boxes}")
    if n_balls < 0 or n_balls > ENUMERATION_MAX_BALLS:
        raise ValueError(f"enumeration supports 0..{ENUMERATION_MAX_BALLS} balls, got {n_balls}")

    if kind == "multinomial":
        model = PoissonModel(lam)
        denom = Fraction(n_boxes ** n_balls)
    else:
        model = NegativeBinomialModel(r, p)
        r_frac = Fraction(r)
        rising = _rising_factorials(r_frac, n_balls)
        denom = _rising_factorials(n_boxes * r_frac, n_balls)[-1]
    log_pmf = [model.log_pmf(c) for c in range(n_balls + 1)]

    fact = [math.factorial(i) for i in range(max(n_balls, n_boxes) + 1)]
    alloc: dict = {}
    weight: dict = {}
    for key in _partitions(n_balls, n_boxes, n_balls):
        arrangements = fact[n_boxes]
        coeff = fact[n_balls]
        for c in key:
            coeff //= fact[c]
        for v in set(key):
            arrangements //= fact[key.count(v)]
        num = Fraction(arrangements * coeff)
        if kind == "dirichlet":
            for c in key:
                num *= rising[c]
        alloc[key] = num / denom
        weight[key] = arrangements * math.exp(math.fsum(log_pmf[c] for c in key))
    total_weight = math.fsum(weight.values())

    return {key: (float(alloc[key]), weight[key] / total_weight) for key in sorted(alloc)}


def merging_report(spec: AllocationSpec, prof: ExtremalProfile, t_max: int = 3,
                   summary: AllocationSummary | None = None) -> list:
    """Empirical-vs-theory comparison rows for a simulated allocation.

    Each row carries the empirical frequency, the limiting theoretical
    value, their absolute difference, and the binomial standard error
    sqrt(f(1-f)/trials) where a frequency is being estimated.  The max
    rows read the regime's limiting law; tie and phase rows need gamma = 0.
    """
    if summary is None:
        summary = simulate(spec, prof)
    trials = summary.trials
    m = prof.m_n

    def freq(hist: dict, value: int) -> float:
        return hist.get(value, 0) / trials

    gamma_zero = prof.regime is Regime.GAMMA_ZERO
    rows = [comparison_row(quantity, m + x, freq(summary.max_histogram, m + x),
                           limiting_max_pmf(prof, x), trials)
            for x, quantity in enumerate(("max_eq_anchor", "max_eq_anchor_plus_1"))]
    rows.append(comparison_row("max_in_cluster", (m, m + 1), summary.cluster_freq, None, trials))

    ties = tie_distribution(prof, t_max) if gamma_zero else None
    for t in range(t_max + 1):
        theory = ties.exactly[t] if ties is not None else None
        rows.append(comparison_row(f"ties_eq_{t}", t, freq(summary.tie_histogram, t), theory,
                                   trials))

    # expected number of boxes holding m or m+1 balls, from the matched model
    matched = matched_model(spec)
    occ_theory = spec.n_boxes * (
        math.exp(matched.log_pmf(m)) + math.exp(matched.log_pmf(m + 1))) if m >= 0 else None
    # a mean count, not a frequency: no binomial standard error
    rows.append(comparison_row("top_two_occupancy", (m, m + 1), summary.mean_top_two_occupancy,
                               occ_theory, trials) | {"stderr": None})

    if gamma_zero:
        for c in PHASE_CS:
            k = tie_phase_threshold(prof, c)
            hit = sum(cnt for j, cnt in summary.ge_anchor_histogram.items() if j >= k + 1)
            rows.append(comparison_row(f"depth_{k}_above_anchor_minus_1", k, hit / trials,
                                       1.0 if c < 1.0 else 0.0, trials))
    return rows


def comparison_row(quantity: str, value, empirical: float, theory: float | None,
                   trials: int) -> dict:
    """One empirical-vs-theory row: the frequency, the theory value, their
    absolute difference, and the binomial standard error of the frequency."""
    return {"quantity": quantity, "value": value, "empirical": empirical, "theory": theory,
            "abs_error": abs(empirical - theory) if theory is not None else None,
            "stderr": math.sqrt(max(empirical * (1.0 - empirical), 0.0) / trials)}


def matched_model(spec: AllocationSpec, extension: str = "natural"):
    """The i.i.d. model whose conditional law is the allocation law: Poisson
    with the mean occupancy, or the negative binomial with that mean."""
    lam = spec.n_balls / spec.n_boxes
    if spec.kind == "multinomial":
        return PoissonModel(lam, extension)
    return NegativeBinomialModel(spec.r, lam / (spec.r + lam), extension)
