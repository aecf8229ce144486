"""Extremal profiles and limiting laws for maxima of i.i.d. discrete samples.

The central object is the profile of a sample size n against a tail model:
the continuous crossing point x_n where the extended tail equals 1/n, the
cluster anchor m_n with G(m_n - 1/2) >= 1/n > G(m_n + 1/2), the cluster
weight theta_n with p_n = e^-theta_n, and the tie depth z_n.  The number of
samples above m_n + x is asymptotically Poisson(theta_n gamma^x), which
gives both limiting laws: P(max <= m_n + x) = exp(-theta_n gamma^x) in each
of the three families, and, at gamma = 0, the ties at the maximum.  There
the maximum concentrates on {m_n, m_n + 1} with P(max = m_n) ~ p_n, and p_n
oscillates in n instead of converging.

For a Poisson model carrying the ``asymptotic`` extension, theta_n is
evaluated as (lam/(x_n+1))^(m_n - x_n), the closed form the published
reference tables use; for calibrated extensions theta_n = n G(m_n), which
equals n F(m_n) at the integer anchor.  ``x_sigfigs`` optionally rounds
x_n to a fixed number of significant digits before the derived quantities
are evaluated, replicating how those tables derive p_n from their printed
x_n column.

x_n is the root of ln G(x) + ln n, bracketed by doubling steps and
narrowed by Illinois (modified regula falsi) steps, each probing a point
of a 2^-34 grid, to the grid cell that holds it; x_n is the cell's
midpoint, as a bisection to 1e-10 gives it, certified by the values at
the cell's ends.  ``scan_oscillation`` brackets each row from the lower
end of the previous row's cell, by a first step predicted from the last
two rows, and hands each row the ln G values the last row evaluated
there and at its m_n and m_n - 1.  The order statistic
X_(n-k) sums the binomial count of samples above x from its anchor term
outward by term ratios: the lower tail below the mode, the upper tail
(read as log1p(-upper)) from the mode on.
"""

from __future__ import annotations

import math
import sys
from enum import Enum

from .record import Record, check_int
from .specfun import (lambert_w0, log1mexp, log_binomial_pmf, log_poisson_pmf,
                      reg_gamma_p_log)
from .tailmodel import DiscreteTailModel, PoissonModel

# the root solve ends in a cell of the multiples of 2^-34, the largest power
# of 2 not above 1e-10: the cells a bisection to 1e-10 from integer ends
# reaches; x_n is the midpoint, within 2.9e-11 of the crossing
_CELL = 2.0 ** -34
# the largest x with x / _CELL finite, the float below 2^990: the bracket's end
_TOP = math.nextafter(2.0 ** 990, 0.0)
# binomial terms below this fraction of the largest are left out of the
# order-statistic sums: the rest of a tail that falls at least geometrically
_NEGLIGIBLE_TERM = math.exp(-40.0)


class RootBracketError(RuntimeError):
    """The extended tail does not cross 1/n below 2^990 (bounded tail or n too small)."""


class Regime(Enum):
    GAMMA_ZERO = "GammaZero"
    GAMMA_MID = "GammaMid"
    GAMMA_ONE = "GammaOne"


class ExtremalProfile(Record):
    n: float
    gamma: float
    x_n: float
    m_n: int
    theta_n: float
    p_n: float
    z_n: float
    regime: Regime


class TieDistribution(Record):
    """Limiting law of the number of ties at the sample maximum (gamma = 0).

    ``exactly[t]`` is the probability of exactly t ties, P(N = t + 1) for
    the Poisson(theta_n) count N of samples above m_n; ``at_least[k]`` is
    the probability of at least k.  The residual mass p_n = P(N = 0) not
    covered by any finite t is the branch where the maximum sits at m_n
    and ties proliferate.
    """

    p_n: float
    at_least: dict
    exactly: dict
    t_max: int


class OscillationScan(Record):
    rows: tuple
    breakpoints: tuple


def _round_sigfigs(x: float, sigfigs: int) -> float:
    if x == 0.0:
        return 0.0
    return round(x, sigfigs - 1 - math.floor(math.log10(abs(x))))


def _crossing(model: DiscreteTailModel, n, log_n: float, a: float, la: float,
              step: float) -> tuple:
    """(x, m, a, ln G(a), ln G(b)) for the crossing of f(x) = ln G(x) + ln n
    above a, ln G(a) = la >= -ln n, and the final bracket [a, b].

    Steps of step, 2 step, 4 step, ... from a, the last cut to _TOP, bracket
    the crossing in [a, b], f(a) >= 0 > f(b).  Illinois steps then probe the
    _CELL grid point nearest the regula-falsi root inside (a, b), the value
    at an end that two steps in a row left in place halved as its secant
    weight, until [a, b] holds no grid point.  A step bisects where three
    steps did not halve the bracket, or while f(a) == 0.  x is the midpoint
    of the cell that holds the crossing, the point a bisection to 1e-10
    from integer ends returns, so it is the same nondecreasing function of
    n, whatever a and step are, wherever ln G is monotone on the grid.
    m = floor(c + 1/2), c the cell's left end, is the sign rule below 2^52,
    where half-integers are grid points.  ln G at the ends is returned as
    evaluated, unhalved, for the caller to certify the crossing.
    """
    fa = la + log_n
    start = a
    while (fb := (lb := model.log_tail_ext(b := min(start + step, _TOP))) + log_n) >= 0.0:
        if b == _TOP:
            raise RootBracketError(
                f"extended tail does not drop below 1/n up to x = {b!r} (n={n}): x_n lies "
                "beyond the solver's range, or the tail is bounded")
        a, fa, la = b, fb, lb
        step *= 2.0
    side = 0  # the end last replaced
    # the bracket's width one, two and three steps back
    width1 = width2 = width3 = math.inf
    # above and below are the grid points next to a and b inside [a, b]
    # (every float is one, where floats are coarser than _CELL)
    while (above := max(math.floor(a / _CELL) * _CELL + _CELL, math.nextafter(a, math.inf))) < b:
        if b - a > 0.5 * width3 or not math.isfinite(fb) or fa == 0.0:
            # three steps that did not halve the bracket, a tail that ends,
            # or a secant that would return a: bisect
            x = 0.5 * (a + b)
        else:
            x = b - fb * (b - a) / (fb - fa)
        below = min(math.ceil(b / _CELL) * _CELL - _CELL, math.nextafter(b, -math.inf))
        x = min(max(round(x / _CELL) * _CELL, above), below)
        width3, width2, width1 = width2, width1, b - a
        fx = (lx := model.log_tail_ext(x)) + log_n
        if fx >= 0.0:
            a, fa, la = x, fx, lx
            if side > 0:
                fb *= 0.5
            side = 1
        else:
            b, fb, lb = x, fx, lx
            if side < 0:
                fa *= 0.5
            side = -1
    c = math.floor(a / _CELL) * _CELL  # the last grid point with f(c) >= 0
    x = 0.5 * (c + above)  # the cell around [a, b]
    m = math.floor((c if c < 2.0 ** 52 else x) + 0.5)  # from 2^52 on no half-integer is a float
    return x, m, a, la, lb


class _ScanState:
    """What one scan row leaves to the next row's profile.

    ``log_tails`` maps x to ln G(x), as log_tail_ext returned it, at the
    points the next row may read again: the lower end a of the last row's
    final bracket, where G is at least 1/n, from which the next row's
    bracket grows at no start-check evaluation, and m_n and m_n - 1, where
    theta_n and z_n land for as long as m_n stays.  ``last`` is (ln n, a)
    of the last row, and ``slope`` is da/d ln n between the last two rows
    whose ends differ (0.0 before there are two), which predicts the first
    bracket step.  A cold profile starts from an empty state.
    """

    __slots__ = ("log_tails", "last", "slope")

    def __init__(self) -> None:
        self.log_tails: dict = {}
        self.last: tuple | None = None
        self.slope = 0.0

    def log_tail(self, model: DiscreteTailModel, x: float) -> float:
        """ln G(x), read from log_tails, or evaluated and stored there."""
        lg = self.log_tails.get(x)
        if lg is None:
            lg = self.log_tails[x] = model.log_tail_ext(x)
        return lg

    def bracket_start(self, model: DiscreteTailModel, log_n: float, lo: float) -> tuple:
        """(a, ln G(a), first step) for _crossing: the last row's end a,
        where G is still at least 1/n, with the step the slope predicts (1
        while none is known); else the support edge lo, with steps of 1."""
        if self.last is not None and (a := self.last[1]) > lo:
            la = self.log_tail(model, a)
            if la + log_n >= 0.0:
                step = max(self.slope * (log_n - self.last[0]), _CELL) if self.slope else 1.0
                return a, la, step
        return lo, 0.0, 1.0

    def advance(self, log_n: float, a: float, la: float, keep: tuple) -> None:
        """Take a solved row's ln n and final bracket end a with ln G(a) =
        la; keep ln G only at a and the points of keep (m_n never falls
        along a scan)."""
        if self.last is not None and a > self.last[1] and log_n > self.last[0]:
            self.slope = (a - self.last[1]) / (log_n - self.last[0])
        self.last = (log_n, a)
        tails = self.log_tails
        self.log_tails = {k: tails[k] for k in keep if k in tails}
        self.log_tails[a] = la


def profile(model: DiscreteTailModel, n, x_sigfigs: int | None = None, *,
            _scan: _ScanState | None = None) -> ExtremalProfile:
    """Solve G(x_n) = 1/n and assemble the derived extremal quantities.

    m_n is the sign rule: ln G(m_n - 1/2) + ln n >= 0 > ln G(m_n + 1/2) + ln n
    (floor(x_n + 1/2) from 2^52 on, and of the rounded x_n under ``x_sigfigs``).
    The crossing is genuine when f = ln G + ln n is within 1e-6 of 0 at
    both ends of the final bracket, f(a) <= 1e-6 and f(b) >= -1e-6, read
    from the solve's own evaluations; else RootBracketError.

    ``_scan`` is for scan_oscillation: the _ScanState its previous rows
    left, which this row updates.  The bracket then grows from the last
    row's final end a by a predicted first step, and ln G is read from
    the state where the last row evaluated it at the same point; x_n is
    the midpoint of the same sign-change cell as from a cold start.
    """
    if not 2 <= n <= sys.float_info.max:  # also rejects nan, and ints no float holds
        raise ValueError(f"profile requires a finite n >= 2, got {n}")
    if x_sigfigs is not None:
        x_sigfigs = check_int("x_sigfigs", x_sigfigs)
        if x_sigfigs < 1:
            raise ValueError(f"x_sigfigs must be at least 1, got {x_sigfigs}")
    # G is 1 at the support edge lo, above the target 1/n <= 1/2
    log_n = math.log(n)
    lo = float(model.support_min - 1)
    scan = _ScanState() if _scan is None else _scan
    raw, m, a, la, lb = _crossing(model, n, log_n, *scan.bracket_start(model, log_n, lo))
    if not (la + log_n <= 1e-6 and lb + log_n >= -1e-6):  # also refuses f(b) = -inf or nan
        raise RootBracketError(
            f"no genuine crossing of 1/n at x={raw} (discontinuous tail extension); "
            "the tail is bounded or n is too small")

    x = raw
    if x_sigfigs is not None:
        x = _round_sigfigs(raw, x_sigfigs)
        m = math.floor(x + 0.5)  # a rounded k + 1/2 is exact
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
        theta = math.exp(log_n + scan.log_tail(model, float(m)))
    below = max(m - 1.0, lo)
    z = math.exp(log_n + scan.log_tail(model, below))
    scan.advance(log_n, a, la, (float(m), below))
    return ExtremalProfile(
        n=float(n), gamma=gamma, x_n=x, m_n=m, theta_n=theta,
        p_n=math.exp(-theta), z_n=z, regime=regime)


def _require_gamma(prof: ExtremalProfile) -> None:
    # an unestimable empirical tail ratio is filed under GAMMA_MID, so this
    # comes before any regime check
    if math.isnan(prof.gamma):
        raise ValueError("the limiting law needs a tail ratio gamma; it is nan (not estimable)")


def limiting_max_cdf(prof: ExtremalProfile, x: int) -> float:
    """Limiting P(max <= m_n + x) = exp(-theta_n gamma^x).

    One formula for the three families: p_n at every x when gamma = 1, the
    doubly geometric law when 0 < gamma < 1.  At gamma = 0 the maximum
    clusters on {m_n, m_n + 1}: the law is 0 below m_n, p_n at m_n, 1 above.
    """
    _require_gamma(prof)
    if prof.gamma == 0.0 and x != 0:
        return 0.0 if x < 0 else 1.0
    return math.exp(-prof.theta_n * prof.gamma ** x)


def limiting_max_pmf(prof: ExtremalProfile, x: int) -> float:
    """Limiting P(max = m_n + x): the step of limiting_max_cdf at x."""
    return limiting_max_cdf(prof, x) - limiting_max_cdf(prof, x - 1)


def exact_max_cdf_log(model: DiscreteTailModel, n, x: int) -> float:
    """ln P(max of n i.i.d. samples <= x), exact at finite n; x an integer."""
    if not 1 <= n <= sys.float_info.max:  # also rejects nan, and ints no float holds
        raise ValueError(f"exact_max_cdf_log requires a finite n >= 1, got {n}")
    x = check_int("x", x)
    if x < model.support_min:
        return -math.inf
    return n * log1mexp(model.log_tail(x))  # -inf where the tail is 1


def exact_order_stat_cdf_log(model: DiscreteTailModel, n, k: int, x: int) -> float:
    """ln P(X_(n-k) <= x): at most k of n samples exceed x (binomial sum).

    The count of samples above x is Binomial(n, q), q = G(x), whose terms
    fall away from the mode.  Below the mode ln P is the lower tail, summed
    from t_k down; from the mode on it is log1p(-upper tail), the upper
    tail summed from t_(k+1) up, so results near 0 keep their digits.  The
    anchor term comes from the saddle-point pmf and the others from the
    ratio t_j / t_(j-1) = (n - j + 1) q / (j (1 - q)), until they fall
    below _NEGLIGIBLE_TERM of it.
    """
    k, x = check_int("k", k), check_int("x", x)
    if not 0 <= k < n <= sys.float_info.max:
        raise ValueError(f"order statistic requires 0 <= k < n < inf, got k={k}, n={n}")
    if x < model.support_min:
        return -math.inf
    lt = model.log_tail(x)
    lF = log1mexp(lt)
    if lF == -math.inf:
        return -math.inf
    odds = math.exp(lt - lF)
    total, t = 1.0, 1.0  # the tail's terms over its anchor term
    if k + 1 <= (n + 1) * math.exp(lt):  # k below the mode floor((n + 1) q)
        for j in range(k, 0, -1):
            t *= j / ((n - j + 1) * odds)
            if t < _NEGLIGIBLE_TERM:
                break
            total += t
        return min(log_binomial_pmf(k, n, lt) + math.log(total), 0.0)
    j = k + 1
    while j < n:
        t *= (n - j) * odds / (j + 1)
        if t < _NEGLIGIBLE_TERM:
            break
        total += t
        j += 1
    return log1mexp(min(log_binomial_pmf(k + 1, n, lt) + math.log(total), 0.0))


def tie_distribution(prof: ExtremalProfile, t_max: int) -> TieDistribution:
    """Tie-count law at the maximum in the gamma = 0 regime.

    The N ~ Poisson(theta_n) samples above m_n sit at m_n + 1, so t ties
    means N = t + 1: exactly(t) = e^-theta theta^(t+1)/(t+1)!, one
    saddle-point pmf at the cell nearest the mode, clamp(floor(theta) - 1,
    0, t_max), and the others from it by the term ratio
    exactly(t + 1) / exactly(t) = theta / (t + 2).  at_least(k) = p_n +
    P(N >= k + 1), k >= 1.
    P(N >= t_max + 2) comes from the lower incomplete gamma and the rest
    by adding exactly(t) downward, so no cell is a difference.  For theta
    in {0, inf} (p in {1, 0}) every exactly is 0 and every at_least is 1:
    ties accumulate without bound.
    """
    _require_gamma(prof)
    if prof.regime is not Regime.GAMMA_ZERO:
        raise ValueError("tie distribution is defined for the gamma = 0 clustering regime only")
    t_max = check_int("t_max", t_max, 0)
    theta = prof.theta_n
    if not 0.0 < theta < math.inf:
        return TieDistribution(p_n=prof.p_n, at_least=dict.fromkeys(range(t_max + 2), 1.0),
                               exactly=dict.fromkeys(range(t_max + 1), 0.0), t_max=t_max)
    # every ratio taken walks away from the mode, so it is at most 1
    anchor = min(max(math.floor(theta) - 1, 0), t_max)
    cells = [0.0] * (t_max + 1)
    cells[anchor] = math.exp(log_poisson_pmf(anchor + 1, theta))
    for t in range(anchor, t_max):
        cells[t + 1] = cells[t] * theta / (t + 2)
    for t in range(anchor, 0, -1):
        cells[t - 1] = cells[t] * (t + 1) / theta
    exactly = dict(enumerate(cells))
    beyond = math.exp(reg_gamma_p_log(t_max + 2.0, theta))  # P(N >= t_max + 2)
    # capped at at_least[0] = 1: where P(N = 1) is below the rounding of
    # the sums, p_n + P(N >= 2) can round above 1
    at_least = {t_max + 1: min(prof.p_n + beyond, 1.0)}
    for t in range(t_max, 0, -1):
        beyond += exactly[t]
        at_least[t] = min(prof.p_n + beyond, 1.0)
    at_least[0] = 1.0
    return TieDistribution(p_n=prof.p_n, at_least=dict(sorted(at_least.items())),
                           exactly=exactly, t_max=t_max)


def tie_phase_threshold(prof: ExtremalProfile, c: float) -> int:
    """Order-statistic depth ceil(c z_n) of the tie phase transition."""
    _require_gamma(prof)
    if prof.regime is not Regime.GAMMA_ZERO:
        raise ValueError("the tie phase transition is defined for the gamma = 0 regime only")
    depth = c * prof.z_n
    if not (c > 0.0 and depth < math.inf):  # also rejects nan
        raise ValueError(f"c must be positive with c z_n finite, got c={c}, z_n={prof.z_n}")
    return int(math.ceil(depth))


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
    if not 0.0 < lam < math.inf:  # also rejects nan
        raise ValueError(f"lam must be positive and finite, got {lam}")
    if not 3 <= n <= sys.float_info.max:  # also rejects nan, and ints no float holds
        raise ValueError(f"briggs_approximation requires a finite n >= 3, got {n}")
    log_n = math.log(n)
    z = log_n / (lam * math.e)
    if z < math.inf:
        w = lambert_w0(z)
    else:
        # z overflows (lam below ~5e-308): Newton steps on w + ln w = ln z,
        # from the asymptotic w = ln z - ln ln z; ln z > 709 makes it exact
        # to ~1e-2 and four steps to rounding
        log_z = math.log(log_n) - math.log(lam) - 1.0
        w = log_z - math.log(log_z)
        for _ in range(4):
            w -= (w + math.log(w) - log_z) * w / (w + 1.0)
    y = log_n / w
    denom = math.log(y) - math.log(lam)
    if abs(denom) < 1e-12:
        raise ValueError("degenerate geometry: ln y_n equals ln lam")
    return y + (math.log(lam) - lam - 0.5 * math.log(2.0 * math.pi)
                - 1.5 * math.log(y)) / denom


def scan_oscillation(model: DiscreteTailModel, n_values, x_sigfigs: int | None = None) -> OscillationScan:
    """Profiles over an increasing n grid, with cluster-jump breakpoints.

    Each row equals ``profile(model, n, x_sigfigs)``, solved from the
    state one row leaves to the next: ln G at the lower end of the last
    row's final bracket, m_n and m_n - 1, which the next row's start
    check, theta_n and z_n read, and the slope of that end in ln n, which
    predicts its first bracket step.
    A breakpoint records the last n of a constant-m_n window: the next
    grid point has a strictly larger anchor.
    """
    ns = list(n_values)
    if not ns:
        raise ValueError("scan requires at least one n")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n values must be strictly increasing")
    scan = _ScanState()
    rows = tuple(profile(model, n, x_sigfigs=x_sigfigs, _scan=scan) for n in ns)
    breakpoints = tuple(rows[i].n for i in range(len(rows) - 1)
                        if rows[i + 1].m_n > rows[i].m_n)
    return OscillationScan(rows=rows, breakpoints=breakpoints)
