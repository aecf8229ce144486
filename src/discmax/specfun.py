"""Log-space special-function kernel.

Everything downstream (tail models, extremal profiles, order statistics)
runs in log space so that tail quantities far below the smallest positive
float stay representable.  The routines here therefore return logarithms:
``reg_gamma_q_log(a, x)`` is ln Q(a, x), not Q(a, x).

Regularized incomplete gamma uses the standard split: a power series for
the lower function when x < a + 1 and a Lentz continued fraction for the
upper function otherwise, with an alternating series patch for the small-x
corner where 1 - P would cancel.  The incomplete beta uses the Numerical
Recipes continued fraction with the symmetric swap.  Lambert W is solved
by Halley iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class AccuracyError(RuntimeError):
    """An iterative kernel failed to reach its tolerance within max_iter.

    ``inputs`` holds the arguments of the kernel that gave up, as named in
    the message, and ``iterations`` the max_iter it reached.
    """

    def __init__(self, message: str, *, inputs: dict, iterations: int):
        super().__init__(message)
        self.inputs = inputs
        self.iterations = iterations


@dataclass(frozen=True)
class Accuracy:
    """Convergence contract for the iterative kernels.

    rel_tol is the target relative error of the *returned probability*
    (not its log); max_iter caps series/continued-fraction/Halley steps.
    """

    rel_tol: float = 1e-15
    max_iter: int = 500

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol <= 1e-6):
            raise ValueError(f"rel_tol must be in (0, 1e-6], got {self.rel_tol}")
        if self.max_iter < 32:
            raise ValueError(f"max_iter must be >= 32, got {self.max_iter}")


DEFAULT_ACCURACY = Accuracy()

_LOG_HALF = math.log(0.5)


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if x <= 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def log1mexp(log_p: float) -> float:
    """ln(1 - e^t) for t <= 0, stable at both ends."""
    if log_p > 0.0:
        raise ValueError(f"log1mexp requires a nonpositive argument, got {log_p}")
    if log_p == 0.0:
        return -math.inf
    if log_p > _LOG_HALF:
        return math.log(-math.expm1(log_p))
    return math.log1p(-math.exp(log_p))


def log_sum_exp(terms) -> float:
    """ln sum(e^t_i), overflow-safe; -inf entries are ignored."""
    ts = [float(t) for t in terms]
    if not ts:
        raise ValueError("log_sum_exp requires a non-empty sequence")
    m = max(ts)
    if m == -math.inf:
        return -math.inf
    return m + math.log(math.fsum(math.exp(t - m) for t in ts if t > -math.inf))


def _stirling_series(x: float) -> float:
    # ln Gamma(x) - [(x - 1/2) ln x - x + ln(2 pi)/2], to 1e-17 for x >= 30
    r = 1.0 / (x * x)
    return (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r / 1680.0))) / x


def log_binomial(n: int, k: int) -> float:
    """ln C(n, k), to ~1e-14 relative error at any size of n.

    With m = min(k, n - k), ln C(n, k) = D - ln m! where
    D = ln Gamma(a) - ln Gamma(b), a = n + 1, b = n - m + 1.  Once b is
    large, D is taken from the difference of Stirling series, with
    ln(a/b) = -log1p(-m/a), so nothing of size n ln n cancels; the plain
    lgamma difference loses every digit for n beyond 2^53.  n may be a
    float (profiles carry it as one), in which case n - k is rounded.
    """
    if k < 0 or k > n:
        raise ValueError(f"log_binomial requires 0 <= k <= n, got n={n}, k={k}")
    m = k if k + k <= n else n - k  # min(k, n - k) without a builtin call
    b = n - m + 1.0
    if b < 30.0:  # so n < 58: lgamma values this small leave little to cancel
        return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    a = n + 1.0
    return ((a - 0.5) * -math.log1p(-m / a) + m * (math.log(b) - 1.0)
            + _stirling_series(a) - _stirling_series(b) - math.lgamma(m + 1))


def _log_gamma_pq(a: float, x: float, acc: Accuracy) -> tuple[float, float]:
    """(ln P(a,x), ln Q(a,x)) for the regularized incomplete gamma pair."""
    if a <= 0.0:
        raise ValueError(f"incomplete gamma requires a > 0, got a={a}")
    if x < 0.0:
        raise ValueError(f"incomplete gamma requires x >= 0, got x={x}")
    if x == 0.0:
        return -math.inf, 0.0

    if x < a + 1.0:
        # pick the lower P series unless P would be close to 1 there, in
        # which case the alternating upper series avoids the 1 - P loss
        if x <= 0.5:
            use_q_series = a <= -0.4 / math.log(x)
        elif x <= 1.1:
            use_q_series = a <= 1.1 * x
        else:
            use_q_series = False
        if use_q_series:
            log_q = _log_gamma_q_small_x(a, x, acc)
            return log1mexp(log_q), log_q
        log_p = _log_gamma_p_via_series(a, x, acc)
        return log_p, log1mexp(log_p)

    log_q = _log_gamma_q_contfrac(a, x, acc)
    return log1mexp(log_q), log_q


def _log_gamma_p_via_series(a: float, x: float, acc: Accuracy) -> float:
    term = 1.0
    total = 1.0
    ak = a
    for _ in range(acc.max_iter):
        ak += 1.0
        term *= x / ak
        total += term
        if term < total * acc.rel_tol:
            return a * math.log(x) - x - math.lgamma(a + 1.0) + math.log(total)
    raise AccuracyError(f"lower gamma series did not converge (a={a}, x={x})",
                        inputs={"a": a, "x": x}, iterations=acc.max_iter)


def _log_gamma_q_small_x(a: float, x: float, acc: Accuracy) -> float:
    # Q(a,x) = -expm1(a ln x - lgamma(a+1)) - x^a/Gamma(a) * D,
    # D = sum_{n>=1} (-x)^n / (n! (a+n)); alternating and tiny for x <= 1.1
    fac = 1.0
    d = 0.0
    for n in range(1, acc.max_iter):
        fac *= -x / n
        term = fac / (a + n)
        d += term
        if abs(term) <= abs(d) * acc.rel_tol + 1e-300:
            break
    else:
        raise AccuracyError(f"upper gamma series did not converge (a={a}, x={x})",
                            inputs={"a": a, "x": x}, iterations=acc.max_iter)
    lead = -math.expm1(a * math.log(x) - math.lgamma(a + 1.0))
    q = lead - math.exp(a * math.log(x) - math.lgamma(a)) * d
    if q <= 0.0:
        return -math.inf
    return math.log(q)


def _log_gamma_q_contfrac(a: float, x: float, acc: Accuracy) -> float:
    # Lentz continued fraction for Q(a,x), x >= a + 1
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, acc.max_iter):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < acc.rel_tol:
            return a * math.log(x) - x - math.lgamma(a) + math.log(h)
    raise AccuracyError(f"upper gamma continued fraction did not converge (a={a}, x={x})",
                        inputs={"a": a, "x": x}, iterations=acc.max_iter)


def reg_gamma_q_log(a: float, x: float, acc: Accuracy = DEFAULT_ACCURACY) -> float:
    """ln Q(a, x), upper regularized incomplete gamma."""
    return _log_gamma_pq(a, x, acc)[1]


def reg_gamma_p_log(a: float, x: float, acc: Accuracy = DEFAULT_ACCURACY) -> float:
    """ln P(a, x), lower regularized incomplete gamma."""
    return _log_gamma_pq(a, x, acc)[0]


def _beta_contfrac(a: float, b: float, x: float, acc: Accuracy) -> float:
    # Lentz evaluation of the continued fraction in I_x(a,b)
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, acc.max_iter):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < acc.rel_tol:
            return h
    raise AccuracyError(
        f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})",
        inputs={"a": a, "b": b, "x": x}, iterations=acc.max_iter)


def reg_beta_log(a: float, b: float, x: float, acc: Accuracy = DEFAULT_ACCURACY) -> float:
    """ln I_x(a, b), lower regularized incomplete beta."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"incomplete beta requires a, b > 0, got a={a}, b={b}")
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"incomplete beta requires 0 <= x <= 1, got x={x}")
    if x == 0.0:
        return -math.inf
    if x == 1.0:
        return 0.0
    log_pre = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
               + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return log_pre - math.log(a) + math.log(_beta_contfrac(a, b, x, acc))
    # I_x(a,b) = 1 - I_{1-x}(b,a)
    log_upper = log_pre - math.log(b) + math.log(_beta_contfrac(b, a, 1.0 - x, acc))
    return log1mexp(log_upper)


_INV_E = math.exp(-1.0)


def lambert_w0(z: float, acc: Accuracy = DEFAULT_ACCURACY) -> float:
    """Principal branch of w e^w = z for finite z >= -1/e."""
    if not -_INV_E <= z < math.inf:  # also rejects nan
        raise ValueError(f"lambert_w0 requires a finite z >= -1/e, got {z}")
    if z == 0.0:
        return 0.0
    # seed: asymptotic log for large z, branch-point expansion near -1/e,
    # first-order series otherwise
    if z > math.e:
        lz = math.log(z)
        w = lz - math.log(lz)
    elif z < -0.25:
        p = math.sqrt(2.0 * (math.e * z + 1.0))
        w = -1.0 + p - p * p / 3.0 + 11.0 * p ** 3 / 72.0
    else:
        w = z * (1.0 - z + 1.5 * z * z)
    target = 1e-12 * max(1.0, abs(z))
    # Halley steps on f(w) = w e^w - z, carried as g = f / e^w = w - z e^-w,
    # which stays finite where w e^w, e^w (w + 1) or (w + 2) f overflow
    # (z near the float maximum)
    for _ in range(acc.max_iter):
        ew = math.exp(w)
        g = w - z / ew
        if abs(g) * ew <= target * 0.01 or g == 0.0:
            return w
        wp1 = w + 1.0
        w -= g / (wp1 - (w + 2.0) * g / (2.0 * wp1))
    ew = math.exp(w)
    if abs(w - z / ew) * ew <= target:
        return w
    raise AccuracyError(f"lambert_w0 did not converge for z={z}",
                        inputs={"z": z}, iterations=acc.max_iter)
