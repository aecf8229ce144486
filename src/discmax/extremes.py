"""Extremal profiles and limiting laws for maxima of i.i.d. discrete samples.

The central object is the profile of a sample size n against a tail model:
the continuous crossing point x_n where the extended tail equals 1/n, the
cluster anchor m_n = floor(x_n + 1/2), the cluster weight theta_n with
p_n = e^-theta_n, and the tie depth z_n.  In the gamma = 0 regime the
maximum concentrates on {m_n, m_n + 1} with P(max = m_n) ~ p_n, and p_n
oscillates in n instead of converging.

For a Poisson model carrying the ``asymptotic`` extension, theta_n is
evaluated as (lam/(x_n+1))^(m_n - x_n), the closed form the published
reference tables use; for calibrated extensions theta_n = n G(m_n), which
equals n F(m_n) at the integer anchor.  ``x_sigfigs`` optionally rounds
x_n to a fixed number of significant digits before the derived quantities
are evaluated, replicating how those tables derive p_n from their printed
x_n column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .specfun import lambert_w0, log1mexp, log_binomial, log_sum_exp
from .tailmodel import DiscreteTailModel, PoissonModel


class RootBracketError(RuntimeError):
    """The extended tail never crosses 1/n (bounded tail or n too small)."""


class Regime(Enum):
    GAMMA_ZERO = "GammaZero"
    GAMMA_MID = "GammaMid"
    GAMMA_ONE = "GammaOne"


@dataclass(frozen=True)
class ExtremalProfile:
    n: float
    gamma: float
    x_n: float
    m_n: int
    theta_n: float
    p_n: float
    z_n: float
    regime: Regime


@dataclass(frozen=True)
class TieDistribution:
    """Limiting law of the number of ties at the sample maximum (gamma = 0).

    ``exactly[t]`` is the probability of exactly t ties; ``at_least[k]``
    of at least k.  The residual mass p_n not covered by any finite t is
    the branch where the maximum sits at m_n and ties proliferate.
    """

    p_n: float
    at_least: dict
    exactly: dict
    t_max: int


@dataclass(frozen=True)
class OscillationScan:
    rows: tuple
    breakpoints: tuple


def _round_sigfigs(x: float, sigfigs: int) -> float:
    if x == 0.0:
        return 0.0
    return round(x, sigfigs - 1 - math.floor(math.log10(abs(x))))


def _cluster_anchor(x: float) -> int:
    # floor(x + 1/2), snapping first when x + 1/2 sits within 1e-9 of an
    # integer so solver noise cannot flip the anchor
    y = x + 0.5
    r = round(y)
    if abs(y - r) <= 1e-9:
        return int(r)
    return int(math.floor(y))


def profile(model: DiscreteTailModel, n, x_sigfigs: int | None = None) -> ExtremalProfile:
    """Solve G(x_n) = 1/n and assemble the derived extremal quantities."""
    if not 2 <= n < math.inf:  # also rejects nan
        raise ValueError(f"profile requires a finite n >= 2, got {n}")
    # G is 1 at the support edge lo, above the target 1/n <= 1/2: double
    # the bracket until G drops below it, keeping the last point above
    target = -math.log(n)
    lo = float(model.support_min - 1)
    a = lo
    for i in range(200):
        b = lo + 2.0 ** i
        if model.log_tail_ext(b) < target:
            break
        a = b
    else:
        raise RootBracketError(f"extended tail never drops below 1/n (n={n}); tail bounded?")

    for _ in range(200):
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        if model.log_tail_ext(mid) >= target:
            a = mid
        else:
            b = mid
        if b - a <= 1e-10:
            break
    x = 0.5 * (a + b)

    residual = model.log_tail_ext(x) - target
    if not math.isfinite(residual) or abs(residual) > 1e-6:
        raise RootBracketError(
            f"no genuine crossing of 1/n at x={x} (discontinuous tail extension); "
            "the tail is bounded or n is too small")

    if x_sigfigs is not None:
        raw, x = x, _round_sigfigs(x, x_sigfigs)
    m = _cluster_anchor(x)
    if m < lo:  # only rounding can put the anchor outside the support
        raise ValueError(f"x_sigfigs={x_sigfigs} rounds x_n = {raw!r} to {x!r}, whose anchor "
                         f"lies below the support edge support_min - 1 = {lo:.0f}")
    gamma = model.tail_ratio_gamma()
    if gamma == 0.0:
        regime = Regime.GAMMA_ZERO
    elif gamma == 1.0:
        regime = Regime.GAMMA_ONE
    else:
        regime = Regime.GAMMA_MID

    if model.extension == "asymptotic":
        # the asymptotic extension exists only on the Poisson model
        theta = _cluster_escape(model.lam, x, m)
    else:
        theta = math.exp(math.log(n) + model.log_tail_ext(float(m)))
    z = math.exp(math.log(n) + model.log_tail_ext(max(m - 1.0, lo)))
    return ExtremalProfile(
        n=float(n), gamma=gamma, x_n=x, m_n=m, theta_n=theta,
        p_n=math.exp(-theta), z_n=z, regime=regime)


def limiting_max_cdf(prof: ExtremalProfile, x: int) -> float:
    """Limiting P(max <= m_n + x) under the profile's regime."""
    if prof.regime is Regime.GAMMA_ZERO:
        if x <= -1:
            return 0.0
        if x == 0:
            return prof.p_n
        return 1.0
    if prof.regime is Regime.GAMMA_ONE:
        return prof.p_n
    if math.isnan(prof.gamma):
        raise ValueError("the limiting law needs a tail ratio gamma; it is nan (not estimable)")
    return prof.p_n ** (prof.gamma ** x)


def limiting_max_pmf(prof: ExtremalProfile, x: int) -> float:
    """Limiting P(max = m_n + x): the step of limiting_max_cdf at x."""
    return limiting_max_cdf(prof, x) - limiting_max_cdf(prof, x - 1)


def exact_max_cdf_log(model: DiscreteTailModel, n, x: int) -> float:
    """ln P(max of n i.i.d. samples <= x), exact at finite n."""
    if n < 1:
        raise ValueError(f"exact_max_cdf_log requires n >= 1, got {n}")
    if x < model.support_min:
        return -math.inf
    lt = model.log_tail(x)
    if lt == 0.0:
        return -math.inf
    return n * log1mexp(lt)


def exact_order_stat_cdf_log(model: DiscreteTailModel, n, k: int, x: int) -> float:
    """ln P(X_(n-k) <= x): at most k of n samples exceed x (binomial sum)."""
    if not (0 <= k < n):
        raise ValueError(f"order statistic requires 0 <= k < n, got k={k}, n={n}")
    if x < model.support_min:
        return -math.inf
    lt = model.log_tail(x)
    lF = log1mexp(lt)
    if lF == -math.inf:
        return -math.inf
    terms = []
    for j in range(k + 1):
        term = log_binomial(n, j) + (n - j) * lF
        term += j * lt if j > 0 else 0.0
        terms.append(term)
    return min(log_sum_exp(terms), 0.0)


def tie_distribution(prof: ExtremalProfile, t_max: int) -> TieDistribution:
    """Tie-count law at the maximum in the gamma = 0 regime.

    at_least(k) = p + 1 - p sum_{j<=k} ln^j(1/p)/j!, and
    exactly(t) = p ln^(t+1)(1/p)/(t+1)!.  For p in {0, 1} every at_least
    equals one (0 ln 0 read as 0): ties accumulate without bound.
    """
    if prof.regime is not Regime.GAMMA_ZERO:
        raise ValueError("tie distribution is defined for the gamma = 0 clustering regime only")
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    p = prof.p_n
    if p <= 0.0 or p >= 1.0:
        at_least = {k: 1.0 for k in range(t_max + 2)}
        exactly = {t: 0.0 for t in range(t_max + 1)}
        return TieDistribution(p_n=p, at_least=at_least, exactly=exactly, t_max=t_max)

    log_inv = -math.log(p)
    at_least = {}
    exactly = {}
    term = 1.0           # ln^j(1/p)/j!
    partial = 1.0        # sum_{j<=k}
    at_least[0] = 1.0
    for k in range(1, t_max + 2):
        term *= log_inv / k
        partial += term
        at_least[k] = p + 1.0 - p * partial
    for t in range(t_max + 1):
        exactly[t] = at_least[t] - at_least[t + 1]
    return TieDistribution(p_n=p, at_least=at_least, exactly=exactly, t_max=t_max)


def tie_phase_threshold(prof: ExtremalProfile, c: float) -> int:
    """Order-statistic depth ceil(c z_n) of the tie phase transition."""
    if prof.regime is not Regime.GAMMA_ZERO:
        raise ValueError("the tie phase transition is defined for the gamma = 0 regime only")
    if c <= 0.0:
        raise ValueError(f"c must be positive, got {c}")
    return int(math.ceil(c * prof.z_n))


def _cluster_escape(lam: float, x: float, m: int) -> float:
    # (lam/(x+1))^(m - x), in the exp/log form the reference tables use
    return math.exp((m - x) * (math.log(lam) - math.log(x + 1.0)))


def anderson_cluster_bound(model: DiscreteTailModel, prof: ExtremalProfile) -> float:
    """(lam/(x_n+1))^(m_n - x_n): bound on the maximum escaping the cluster."""
    if not isinstance(model, PoissonModel):
        raise ValueError("the cluster-escape bound is defined for Poisson models only")
    return _cluster_escape(model.lam, prof.x_n, prof.m_n)


def briggs_approximation(lam: float, n) -> float:
    """Closed-form Lambert-W refinement of the crossing point x_n (Poisson)."""
    if lam <= 0.0:
        raise ValueError(f"lam must be positive, got {lam}")
    if n < 3:
        raise ValueError(f"briggs_approximation requires n >= 3, got {n}")
    log_n = math.log(n)
    y = log_n / lambert_w0(log_n / (lam * math.e))
    denom = math.log(y) - math.log(lam)
    if abs(denom) < 1e-12:
        raise ValueError("degenerate geometry: ln y_n equals ln lam")
    return y + (math.log(lam) - lam - 0.5 * math.log(2.0 * math.pi)
                - 1.5 * math.log(y)) / denom


def scan_oscillation(model: DiscreteTailModel, n_values, x_sigfigs: int | None = None) -> OscillationScan:
    """Profiles over an increasing n grid, with cluster-jump breakpoints.

    A breakpoint records the last n of a constant-m_n window: the next
    grid point has a strictly larger anchor.
    """
    ns = list(n_values)
    if not ns:
        raise ValueError("scan requires at least one n")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n values must be strictly increasing")
    rows = tuple(profile(model, n, x_sigfigs=x_sigfigs) for n in ns)
    breakpoints = tuple(rows[i].n for i in range(len(rows) - 1)
                        if rows[i + 1].m_n > rows[i].m_n)
    return OscillationScan(rows=rows, breakpoints=breakpoints)
