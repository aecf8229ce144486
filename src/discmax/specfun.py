"""Log-space special-function kernel.

Everything downstream (tail models, extremal profiles, order statistics)
runs in log space so that tail quantities far below the smallest positive
float stay representable.  The routines here therefore return logarithms:
``reg_gamma_q_log(a, x)`` is ln Q(a, x), not Q(a, x).

Regularized incomplete gamma uses the standard split: a power series for
the lower function when x < a + 1 and a Lentz continued fraction for the
upper function otherwise, with an alternating series patch for the small-x
corner where 1 - P would cancel.  From a = LARGE_A on, with x within 20 %
of a, where the series needs about 8 sqrt(a) terms, the pair comes from
Gauss-Legendre quadrature of the density in the Stirling-scaled variable
u = t/a - 1.  The incomplete beta uses the Numerical Recipes continued
fraction with the symmetric swap.  Lambert W is solved by Halley
iteration.  The Poisson and negative binomial pmfs use Loader's
saddle-point form (Stirling remainders and deviances), which does not
cancel lgamma terms at large counts.  Their Stirling remainder and
ln(1 + u) - u series are the module's only copies, shared with
``log_binomial`` and the large-a quadrature; below 15 the remainder
comes from Gamma(n + 1) = n Gamma(n), not from cancelling lgamma terms.

The iterative kernels share one convergence contract, the module
constants REL_TOL (target relative error of the returned probability, not
of its log) and MAX_ITER (cap on series, continued-fraction and Halley
steps, and on quadrature panels).  They are read at call time; a kernel
that reaches MAX_ITER raises AccuracyError.
"""

from __future__ import annotations

import math


class AccuracyError(RuntimeError):
    """An iterative kernel failed to reach REL_TOL within MAX_ITER steps or overflowed.

    ``inputs`` holds the arguments of the kernel that gave up, as named in
    the message, and ``iterations`` the MAX_ITER it reached (0 on overflow).
    """

    def __init__(self, message: str, *, inputs: dict, iterations: int):
        super().__init__(message)
        self.inputs = inputs
        self.iterations = iterations


REL_TOL = 1e-15  # the kernels' convergence contract; see the module docstring
MAX_ITER = 500

# from this a on, incomplete gamma with |x - a| <= 0.2 a is integrated by
# quadrature: the lower series there needs about 8 sqrt(a) terms
LARGE_A = 1000.0
_PANEL_FALL = 12.0  # fall of ln(integrand) each quadrature panel is sized for
_LOG_NEGLIGIBLE = -50.0  # ln(integrand / its top) below which the rest is dropped

_LOG_HALF = math.log(0.5)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def log1mexp(log_p: float) -> float:
    """ln(1 - e^t) for t <= 0, stable at both ends."""
    if log_p > 0.0:
        raise ValueError(f"log1mexp requires a nonpositive argument, got {log_p}")
    if log_p == 0.0:
        return -math.inf
    if log_p > _LOG_HALF:
        return math.log(-math.expm1(log_p))
    return math.log1p(-math.exp(log_p))


def log_binomial(n: int, k: int) -> float:
    """ln C(n, k), to ~1e-14 relative error at any size of n.

    With m = min(k, n - k), ln C(n, k) = D - ln m! where
    D = ln Gamma(a) - ln Gamma(b), a = n + 1, b = n - m + 1.  D is taken
    from ln Gamma(x) = (x - 1/2) ln x - x + ln(2 pi)/2 + stirlerr(x) at any
    size of b, with ln(a/b) = -log1p(-m/a), so nothing of size n ln n
    cancels; the plain lgamma difference loses every digit for n beyond
    2^53.  m = 0 gives 0.0.  n may be a float (profiles carry it as one),
    in which case n - k is rounded.
    """
    if k < 0 or k > n:
        raise ValueError(f"log_binomial requires 0 <= k <= n, got n={n}, k={k}")
    m = k if k + k <= n else n - k  # min(k, n - k) without a builtin call
    a = n + 1.0
    b = n - m + 1.0
    return ((0.5 - a) * math.log1p(-m / a) + m * (math.log(b) - 1.0)
            + _stirlerr(a) - _stirlerr(b) - math.lgamma(m + 1))


def _stirlerr(n: float) -> float:
    # ln n! - [(n + 1/2) ln n - n + ln(2 pi)/2], which is also
    # ln Gamma(n) - [(n - 1/2) ln n - n + ln(2 pi)/2], for n > 0: the
    # Stirling series above 15, reached from below by the recurrence
    # stirlerr(n) = stirlerr(n + 1) + (n + 1/2) ln(1 + 1/n) - 1, each step
    # rounding by ~1e-16 absolute; below 1, ln(1 + 1/n) is log1p(n) - ln n,
    # because 1/n overflows at subnormal n.  The half-integers up to 15,
    # the small counts and shapes of the pmfs, are read from
    # _STIRLERR_HALVES, which holds this recurrence's value at each
    if n <= 15.0 and (value := _STIRLERR_HALVES.get(n)) is not None:
        return value
    shift = 0.0
    while n <= 15.0:
        step = math.log1p(1.0 / n) if n >= 1.0 else math.log1p(n) - math.log(n)
        shift += (n + 0.5) * step - 1.0
        n += 1.0
    r = 1.0 / (n * n)
    return shift + (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r * (1.0 / 1680.0
                                                                             - r / 1188.0)))) / n


# stirlerr at n = 0.5, 1, ..., 15 (Loader 2000 tabulates the same points),
# each evaluated once by the recurrence above while the table is still empty
_STIRLERR_HALVES: dict = {}
_STIRLERR_HALVES.update({k / 2.0: _stirlerr(k / 2.0) for k in range(1, 31)})


# ln(1 + u) - u = 2 atanh(s) - 2s/(1 - s) = -2 s^2 sum_{j>=0} c_j s^j with
# s = u/(2 + u), c_j = 1 for even j and (j+1)/(j+2) for odd j; for
# |u| <= 0.2, |s| <= 1/9 and 19 terms reach 1e-18
_LOG1PMX_COEFFS = tuple(1.0 if j % 2 == 0 else (j + 1.0) / (j + 2.0) for j in range(19))[::-1]


def _log1pmx(u: float) -> float:
    # ln(1 + u) - u without the cancellation of log1p(u) - u, for
    # |u/(2 + u)| <= 1/9, which holds for |u| <= 0.2
    s = u / (2.0 + u)
    acc = 0.0
    for c in _LOG1PMX_COEFFS:
        acc = acc * s + c
    return -2.0 * s * s * acc


_EULER_GAMMA = 0.5772156649015329

# (zeta(k) - 1) / k for k = 2..21 (from mpmath at 40 digits), highest k
# first; for |a| <= 0.2 the k-th term is below (a/2)^k / k, so the last is
# below 1e-22
_LGAMMA1P_COEFFS = (
    0.3224670334241132, 0.0673523010531981, 0.020580808427784546, 0.007385551028673986,
    0.0028905103307415234, 0.001192753911703261, 0.0005096695247430425,
    0.00022315475845357939, 9.945751278180853e-05, 4.492623673813314e-05,
    2.050721277567069e-05, 9.439488275268397e-06, 4.374866789907488e-06,
    2.039215753801366e-06, 9.55141213040742e-07, 4.492469198764566e-07,
    2.1207184805554665e-07, 1.0043224823968099e-07, 4.7698101693639804e-08,
    2.2711094608943164e-08)[::-1]


def _lgamma1p(a: float) -> float:
    """ln Gamma(1 + a).  For |a| <= 0.2 the series -gamma a - ln1pmx(a) +
    sum_{k>=2} (-1)^k (zeta(k) - 1) a^k / k: lgamma of the rounded 1 + a is
    ~2e-16 off absolutely, which swamps the -gamma a it should return at
    small a (6.5e-4 relative at a = 1e-12)."""
    if abs(a) > 0.2:
        return math.lgamma(a + 1.0)
    acc = 0.0
    for c in _LGAMMA1P_COEFFS:
        acc = acc * -a + c
    return -_EULER_GAMMA * a - _log1pmx(a) + a * a * acc


def _bd0(x: float, m: float, diff: float | None = None) -> float:
    # the deviance x ln(x/m) + m - x, as m [(1 + u) ln1pmx(u) + u^2] with
    # u = (x - m)/m when x ~ m, where the closed form cancels: there
    # |u/(2 + u)| = |x - m|/(x + m) < 0.1 and x - m is exact, unless the
    # caller passes it as diff because x and m themselves were rounded; x/m
    # overflows only at a subnormal m, where ln x - ln m is taken instead
    if diff is None:
        diff = x - m
    if abs(diff) < 0.1 * (x + m):
        u = diff / m
        return m * ((1.0 + u) * _log1pmx(u) + u * u)
    ratio = x / m
    return x * (math.log(ratio) if ratio < math.inf else math.log(x) - math.log(m)) + m - x


def log_poisson_pmf(k: int, lam: float) -> float:
    """ln(e^-lam lam^k / k!) in Loader's saddle-point form.

    -stirlerr(k) - bd0(k, lam) - ln(2 pi k)/2 keeps every term small near
    the mode, where k ln lam - lam - ln k! would cancel terms of size k ln k.
    """
    if k == 0:
        return -lam
    return -_stirlerr(k) - _bd0(k, lam) - 0.5 * (2.0 * _LOG_SQRT_2PI + math.log(k))


def log_negbinom_pmf(k: int, r: float, p: float) -> float:
    """ln[C(k + r - 1, k) (1 - p)^r p^k] in Loader's saddle-point form.

    The pmf is r/(r + k) times the binomial probability of r successes of
    chance 1 - p in k + r trials, taken from Stirling remainders and
    deviances, so no lgamma difference of size r ln r cancels.  Where n p
    (n = k + r) is subnormal, the product keeps only a few bits, so the
    result is finite but can be off by ~1e-4 relative (6.9e-5 at p = 2e-323).
    """
    if k == 0:
        return r * math.log1p(-p)
    n = k + r
    return (_stirlerr(n) - _stirlerr(r) - _stirlerr(k) - _bd0(r, n * (1.0 - p)) - _bd0(k, n * p)
            - 0.5 * (2.0 * _LOG_SQRT_2PI + math.log(k) + math.log1p(k / r)))


def log_binomial_pmf(k: int, n: float, log_p: float) -> float:
    """ln[C(n, k) p^k (1 - p)^(n - k)] for p = e^log_p, 0 <= k <= n.

    Loader's saddle-point form, as for the Poisson pmf: near the mean, ln C(n,
    k), k ln p and (n - k) ln(1 - p) are each of size k ln(n/k) and cancel,
    which leaves ~eps k ln(n/k) of noise in their sum.  n may be a float
    beyond 2^53: n - k and n (1 - p) then round, but their difference is
    taken as n p - k.  Where a mean is below 1e-300 of its count, the
    deviance overflows and the plain sum is taken; it does not cancel there.
    """
    if not 0 <= k <= n:
        raise ValueError(f"log_binomial_pmf requires 0 <= k <= n, got n={n}, k={k}")
    log_q = log1mexp(log_p)
    if k == 0:
        return n * log_q
    if k == n:
        return n * log_p
    mean_k, mean_rest = n * math.exp(log_p), n * math.exp(log_q)
    rest = n - k
    if mean_k < 1e-300 * k or mean_rest < 1e-300 * rest:
        return log_binomial(n, k) + k * log_p + rest * log_q
    return (_stirlerr(n) - _stirlerr(k) - _stirlerr(rest) - _bd0(k, mean_k)
            - _bd0(rest, mean_rest, mean_k - k)
            + 0.5 * (math.log(n) - math.log(k) - math.log(rest)) - _LOG_SQRT_2PI)


def _log_gamma_pq(a: float, x: float) -> tuple[float, float]:
    """(ln P(a,x), ln Q(a,x)) for the regularized incomplete gamma pair."""
    if a <= 0.0:
        raise ValueError(f"incomplete gamma requires a > 0, got a={a}")
    if x < 0.0:
        raise ValueError(f"incomplete gamma requires x >= 0, got x={x}")
    if x == 0.0:
        return -math.inf, 0.0

    if a >= LARGE_A and abs(x - a) <= 0.2 * a:
        return _log_gamma_pq_large_a(a, x)

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
            log_q = _log_gamma_q_small_x(a, x)
            return log1mexp(log_q), log_q
        log_p = _log_gamma_p_via_series(a, x)
        return log_p, log1mexp(log_p)

    log_q = _log_gamma_q_contfrac(a, x)
    return log1mexp(log_q), log_q


def _log_gamma_p_via_series(a: float, x: float) -> float:
    term = 1.0
    total = 1.0
    ak = a
    for _ in range(MAX_ITER):
        ak += 1.0
        term *= x / ak
        total += term
        if term < total * REL_TOL:
            return a * math.log(x) - x - _lgamma1p(a) + math.log(total)
    raise AccuracyError(f"lower gamma series did not converge (a={a}, x={x})",
                        inputs={"a": a, "x": x}, iterations=MAX_ITER)


def _log_gamma_q_small_x(a: float, x: float) -> float:
    # Q(a,x) = -expm1(a ln x - lgamma(1+a)) - x^a/Gamma(a) * D,
    # D = sum_{n>=1} (-x)^n / (n! (a+n)); alternating and tiny for x <= 1.1
    fac = 1.0
    d = 0.0
    for n in range(1, MAX_ITER):
        fac *= -x / n
        term = fac / (a + n)
        d += term
        if abs(term) <= abs(d) * REL_TOL + 1e-300:
            break
    else:
        raise AccuracyError(f"upper gamma series did not converge (a={a}, x={x})",
                            inputs={"a": a, "x": x}, iterations=MAX_ITER)
    lead = -math.expm1(a * math.log(x) - _lgamma1p(a))
    q = lead - math.exp(a * math.log(x) - math.lgamma(a)) * d
    if q <= 0.0:
        return -math.inf
    return math.log(q)


def _log_gamma_q_contfrac(a: float, x: float) -> float:
    # Lentz continued fraction for Q(a,x), x >= a + 1
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, MAX_ITER):
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
        if abs(delta - 1.0) < REL_TOL:
            return a * math.log(x) - x - math.lgamma(a) + math.log(h)
    raise AccuracyError(f"upper gamma continued fraction did not converge (a={a}, x={x})",
                        inputs={"a": a, "x": x}, iterations=MAX_ITER)


def _gauss_legendre(n: int) -> tuple:
    # n-point Gauss-Legendre (node, weight) pairs on [0, 1], by Newton
    # steps on P_n from the Chebyshev-like starting guesses
    pairs = []
    for i in range(1, n + 1):
        t = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(100):
            p0, p1 = 1.0, t
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * t * p1 - (k - 1) * p0) / k
            dp = n * (t * p1 - p0) / (t * t - 1.0)
            step = p1 / dp
            t -= step
            if abs(step) <= 1e-16:
                break
        pairs.append((0.5 * (1.0 - t), 1.0 / ((1.0 - t * t) * dp * dp)))
    return tuple(pairs)


_GAUSS_20 = _gauss_legendre(20)


def _log_gamma_pq_large_a(a: float, x: float) -> tuple[float, float]:
    # With t = a (1 + u), the density t^(a-1) e^-t / Gamma(a) dt is
    # sqrt(a/(2 pi)) e^-S(a) e^phi(u) du, phi(u) = a ln1pmx(u) - ln(1 + u),
    # S the Stirling remainder: nothing of size a ln a cancels.  phi is
    # concave with its top at u = -1/a; the side of u0 = x/a - 1 away from
    # the top is integrated by 20-point Gauss-Legendre panels, each as
    # wide as a fall of phi by _PANEL_FALL predicts, until phi has fallen
    # by _LOG_NEGLIGIBLE.  Within |u0| <= 0.2 that happens by |u| ~ 0.5.
    u0 = (x - a) / a
    sign = -1.0 if u0 < -1.0 / a else 1.0  # -1: the P side, +1: the Q side

    def phi(u: float) -> float:
        return a * (_log1pmx(u) if abs(u) <= 0.2 else math.log1p(u) - u) - math.log1p(u)

    top = phi(u0)
    total = 0.0
    u = u0
    for _ in range(MAX_ITER):
        slope = abs((1.0 + a * u) / (1.0 + u))  # |phi'(u)|
        curv = (a - 1.0) / ((1.0 + u) * (1.0 + u))  # -phi''(u)
        # the step where slope * w + curv * w^2 / 2 reaches _PANEL_FALL
        width = 2.0 * _PANEL_FALL / (slope + math.hypot(slope, math.sqrt(2.0 * curv * _PANEL_FALL)))
        total += width * math.fsum(w * math.exp(phi(u + sign * width * t) - top)
                                   for t, w in _GAUSS_20)
        u += sign * width
        if phi(u) - top < _LOG_NEGLIGIBLE:
            log_side = (0.5 * math.log(a) - _LOG_SQRT_2PI - _stirlerr(a)
                        + top + math.log(total))
            return (log_side, log1mexp(log_side)) if sign < 0 else (log1mexp(log_side), log_side)
    raise AccuracyError(f"large-a incomplete gamma quadrature did not converge (a={a}, x={x})",
                        inputs={"a": a, "x": x}, iterations=MAX_ITER)


def reg_gamma_q_log(a: float, x: float) -> float:
    """ln Q(a, x), upper regularized incomplete gamma."""
    return _log_gamma_pq(a, x)[1]


def reg_gamma_p_log(a: float, x: float) -> float:
    """ln P(a, x), lower regularized incomplete gamma."""
    return _log_gamma_pq(a, x)[0]


def _beta_contfrac(a: float, b: float, x: float) -> float:
    # Lentz evaluation of the continued fraction in I_x(a,b), one coefficient
    # j = 2m or 2m + 1 a step; convergence is tested after odd j only, once
    # both coefficients of m are in
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
    for j in range(2, 2 * MAX_ITER):
        m, odd = j >> 1, j & 1
        m2 = j - odd
        if odd:
            aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        else:
            aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if odd and abs(delta - 1.0) < REL_TOL:
            return h
    raise AccuracyError(
        f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})",
        inputs={"a": a, "b": b, "x": x}, iterations=MAX_ITER)


def reg_beta_log(a: float, b: float, x: float) -> float:
    """ln I_x(a, b), lower regularized incomplete beta."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"incomplete beta requires a, b > 0, got a={a}, b={b}")
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"incomplete beta requires 0 <= x <= 1, got x={x}")
    if x == 0.0:
        return -math.inf
    if x == 1.0:
        return 0.0
    try:
        log_pre = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                   + a * math.log(x) + b * math.log1p(-x))
    except OverflowError:  # lgamma past ~2.5e305
        raise AccuracyError(f"incomplete beta prefactor overflowed (a={a}, b={b}, x={x})",
                            inputs={"a": a, "b": b, "x": x}, iterations=0) from None
    if x < (a + 1.0) / (a + b + 2.0):
        return log_pre - math.log(a) + math.log(_beta_contfrac(a, b, x))
    # I_x(a,b) = 1 - I_{1-x}(b,a)
    log_upper = log_pre - math.log(b) + math.log(_beta_contfrac(b, a, 1.0 - x))
    return log1mexp(log_upper)


_INV_E = math.exp(-1.0)


def lambert_w0(z: float) -> float:
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
    for _ in range(MAX_ITER):
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
                        inputs={"z": z}, iterations=MAX_ITER)
