"""Property tests of the tail extensions, the extremal profile, the tie law
and the block-maximum law.

Poisson, negative binomial and geometric models with their natural
(calibrated) tail extensions, over log-uniform sample sizes:

- p_n lies in [0, 1];
- x_n is nondecreasing in n;
- at_least of the tie law is non-increasing in t, and exactly sums to at
  most 1 (the gamma = 0 models, i.e. Poisson);
- the block-maximum law is nonnegative, lists contiguous values from
  support_min, has mass 1 within 1e-9 and matches mpmath step by step
  within 1e-12 (worst of 3000 random laws: 1.9e-13); its last value,
  found by bisection, is where a linear scan of P(max > v) stops.

The same models under the natural and the loglinear extension:

- log_tail_ext is non-increasing, and equals log_tail at integers;
- the crossing point solves ln G(x_n) = -ln n within 1e-6.

The same holds, evaluated at x_n itself, for every profile and scan row
of the root-solve models below, whose crossing profile certifies from
the values at its last bracket's ends.

The two limiting laws of a profile against mpmath, over theta_n
log-uniform in [1e-12, 700]:

- the tie law exactly(t) = P(N = t + 1), N ~ Poisson(theta_n), for t up
  to 40, relative to max(1, |ln P|) within 3e-15 (worst of 3.4 10^4
  random laws of 41 cells and 2 10^5 cells at theta in [15, 50] and
  t >= 25: 2.3e-15);
- P(max <= m_n + x) = exp(-theta_n gamma^x) for gamma in [1e-10, 1] and
  |x| <= 30, relative to max(1, theta_n gamma^x) within 5e-16 (worst of
  10^5 arguments: 2.5e-16); at gamma = 0 and gamma = 1 it is bit-equal to
  the cluster pair (0, p_n, 1) and to p_n.

The root solve against a bisection to a 1e-10 bracket written here, for
Poisson models (natural, loglinear, asymptotic; lam log-uniform in
[1e-2, 1e4]), negative binomial, geometric and a noisy 200-atom
empirical pmf, at n log-uniform in [1e3, 1e50]:

- profile's x_n, and the x_n of a two-row scan whose second row brackets
  from the first, lie within 1e-10 of the bisection (both probe only
  points of the same 2^-34 grid: none of 5804 random solves differs), or
  the computed ln G is not monotone on that grid between the two; both
  refuse the n where the bisection finds no genuine crossing.

The anchor m_n for Poisson(1) (natural, loglinear, asymptotic), NB(2,
0.3) and Geometric(0.5), at n log-uniform in [1e3, 1e50] or within a
relative 1e-13..1e-8 of a jump n_j = 1/G(j - 1/2):

- the sign rule ln G(m_n - 1/2) + ln n >= 0 > ln G(m_n + 1/2) + ln n,
  in profiles and in every row of a scan;
- each scan breakpoint n_b and the next grid n bracket the exact jump
  n_(m_n + 1) = exp(-ln G(m_n + 1/2));
- with a noisy 200-atom empirical pmf too, every row of a scan over an
  uneven grid in [1e3, 1e40] with one n near a jump equals the cold
  profile at its n (x_sigfigs 6 for the asymptotic extension).

The loglinear extension of five models (Poisson, negative binomial,
geometric, discrete Cauchy, empirical with zero atoms): after any
sequence of calls, every value equals that of a fresh model.

The order statistic P(X_(n-k) <= m_n - 1) on the reference tables' gamma
= 0 rows, at depths ceil(c z_n), c = 0.5, 1, 2, against an mpmath binomial
sum (n <= 2^53) or ln Q(k + 1, n q) (n = 1e50), relative to
max(1, |ln P|) within 1e-12 (worst: 6.8e-15).

The tie law's at_least[k] = p_n + P(N >= k + 1) for t_max up to 120,
over theta_n log-uniform in [1e-12, 700], within 4e-13 relative (worst of
600 laws of 41 cells: 1.6e-13, in the incomplete gamma's prefactor).

The regularized incomplete gamma pair for a from 1 to 1e8 and x within
a factor 2 of a (the series, continued-fraction and large-a branches):

- P + Q = 1, and ln Q is non-increasing in x.

The log-space helpers against mpmath, with errors measured as a fraction
of max(1, |ln value|); each bound sits just above the worst of 44000
random arguments:

- the Poisson pmf for k up to 2 10^4 and lam log-uniform in [1e-2, 1e4]
  (worst 7.2e-15), and the negative binomial pmf for k up to 2 10^4, r
  log-uniform in [1e-2, 1e5] and p in [0.01, 0.99] (worst 5.9e-15);
- ln C(n, k) for float n log-uniform in [1, 1e50], which includes
  n > 2^53, and k up to 10^5 (worst 7.9e-15);
- the binomial pmf for the same n and k, with p log-uniform in
  [e^-800, 1) or within a factor e^0.5 of k / n (worst 1.2e-14, beyond
  2^53, and 9.4e-15 below);
- the Stirling remainder on both sides of 15, at subnormal arguments and
  at the half-integers, which are read from a table (worst 1.2e-15;
  3.5e-16 at the half-integers).
"""

import math
import random

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from discmax.datafit import LAW_TAIL_MASS, daily_max_law
from discmax.extremes import (ExtremalProfile, Regime, RootBracketError, exact_max_cdf_log,
                              exact_order_stat_cdf_log, limiting_max_cdf, profile,
                              scan_oscillation, tie_distribution, tie_phase_threshold)
from discmax.specfun import (_stirlerr, log_binomial, log_binomial_pmf, log_negbinom_pmf,
                              log_poisson_pmf, reg_gamma_p_log, reg_gamma_q_log)
from discmax.tailmodel import (DiscreteCauchyModel, EmpiricalModel, GeometricModel,
                               NegativeBinomialModel, PoissonModel, make_model)

poisson_models = st.builds(PoissonModel, st.floats(1e-3, 50.0))
negbinom_models = st.builds(NegativeBinomialModel, st.floats(0.05, 20.0), st.floats(0.01, 0.95))
geometric_models = st.builds(GeometricModel, st.floats(0.01, 0.99))
models = st.one_of(poisson_models, negbinom_models, geometric_models)

# the same models under either calibrated extension
extended_models = st.builds(lambda model, extension: make_model(model.name, model.params, extension),
                            models, st.sampled_from(["natural", "loglinear"]))

# n from 2 to 1e15, log-uniform
sizes = st.floats(math.log(2.0), math.log(1e15)).map(math.exp)


@settings(deadline=None)
@given(model=extended_models, x=st.floats(-1.0, 1000.0), dx=st.floats(0.0, 100.0))
def test_log_tail_ext_non_increasing(model, x, dx):
    assert model.log_tail_ext(x + dx) <= model.log_tail_ext(x), (model, x, dx)


@settings(deadline=None)
@given(model=extended_models, k=st.integers(-1, 1000))
def test_log_tail_ext_calibrated_at_integers(model, k):
    assert model.log_tail_ext(float(k)) == model.log_tail(k), (model, k)


@settings(deadline=None)
@given(a=st.floats(0.0, math.log(1e8)).map(math.exp), t=st.floats(-0.5, 1.0),
       dt=st.floats(0.0, 0.1))
def test_incomplete_gamma_pair(a, t, dt):
    x = a * (1.0 + t)
    assert math.exp(reg_gamma_p_log(a, x)) + math.exp(reg_gamma_q_log(a, x)) == \
        pytest.approx(1.0, abs=1e-13), (a, x)
    assert reg_gamma_q_log(a, x * (1.0 + dt)) <= reg_gamma_q_log(a, x), (a, x, dt)


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def assert_log_close(got, ref, bound, args):
    """got within bound * max(1, |ref|) of the mpmath value ref."""
    assert abs(got - float(ref)) <= bound * max(1.0, abs(float(ref))), (args, got, ref)


@settings(deadline=None)
@given(k=st.integers(0, 2 * 10 ** 4), lam=log_uniform(1e-2, 1e4))
def test_poisson_pmf_vs_mpmath(k, lam):
    with mp.workdps(40):
        ref = k * mp.log(lam) - lam - mp.loggamma(k + 1)
    assert_log_close(log_poisson_pmf(k, lam), ref, 1e-14, (k, lam))


@settings(deadline=None)
@given(k=st.integers(0, 2 * 10 ** 4), r=log_uniform(1e-2, 1e5), p=st.floats(0.01, 0.99))
def test_negbinom_pmf_vs_mpmath(k, r, p):
    with mp.workdps(40):
        # k + r summed in mpmath: the float sum rounds, by ~1e-11 relative
        # in the result
        kr = mp.mpf(k) + mp.mpf(r)
        ref = (mp.loggamma(kr) - mp.loggamma(r) - mp.loggamma(k + 1)
               + r * mp.log1p(-mp.mpf(p)) + k * mp.log(p))
    assert_log_close(log_negbinom_pmf(k, r, p), ref, 1e-14, (k, r, p))


@settings(deadline=None)
@given(n=log_uniform(1.0, 1e50), frac=st.floats(0.0, 1.0))
def test_log_binomial_vs_mpmath(n, frac):
    k = int(frac * min(n, 1e5))
    with mp.workdps(120):  # ln n! reaches 1e52 at n = 1e50
        ref = mp.loggamma(mp.mpf(n) + 1) - mp.loggamma(k + 1) - mp.loggamma(mp.mpf(n) - k + 1)
    assert_log_close(log_binomial(n, k), ref, 1e-14, (n, k))


@settings(deadline=None)
@given(n=log_uniform(1.0, 1e50), frac=st.floats(0.0, 1.0), near=st.booleans(),
       shift=st.floats(-0.5, 0.5), log_p=log_uniform(1e-14, 800.0).map(lambda v: -v))
# n p = 1.6e-319: the deviance's k / (n p) overflowed
@example(n=403.67710655920973, frac=293.5 / 403.67710655920973, near=False, shift=0.0,
         log_p=-740.7937694327718)
# k = n and p = 1 - 1.3e-288: the oracle's 1 - e^(ln p) rounded to 0 at 120 digits
@example(n=1.0, frac=1.0, near=True, shift=-1.2916652508388516e-288, log_p=-1.0)
def test_binomial_pmf_vs_mpmath(n, frac, near, shift, log_p):
    k = int(frac * min(n, 1e5))
    if near and 0 < k and math.log(k / n) + shift < 0.0:
        log_p = math.log(k / n) + shift  # p ~ k / n, where the plain sum cancels most
    with mp.workdps(120):
        big_n = mp.mpf(n)
        ref = (mp.loggamma(big_n + 1) - mp.loggamma(k + 1) - mp.loggamma(big_n - k + 1)
               + k * mp.mpf(log_p) + (big_n - k) * mp.log(-mp.expm1(mp.mpf(log_p))))
    assert_log_close(log_binomial_pmf(k, n, log_p), ref, 3e-14, (n, k, log_p))


@settings(deadline=None)
@given(n=st.one_of(st.floats(0.0, 40.0, exclude_min=True), log_uniform(15.0, 1e8),
                   st.integers(1, 30).map(lambda i: i / 2)))
@example(n=5e-324)  # 1/n overflows: the first recurrence step must not form it
@example(n=14.10111626316651)  # 9.6e-15 off through lgamma(n + 1) - (n + 1/2) ln n + n
@example(n=15.0)  # the last half-integer read from the table
@example(n=15.5)  # the first one above it, from the series
@example(n=7.25)  # below 15 but no half-integer: the recurrence
def test_stirlerr_vs_mpmath(n):
    with mp.workdps(40):
        x = mp.mpf(n)
        ref = mp.loggamma(x + 1) - (x + 0.5) * mp.log(x) + x - mp.log(2 * mp.pi) / 2
    assert_log_close(_stirlerr(n), ref, 3e-15, n)


@settings(deadline=None)
@given(model=extended_models, n=sizes)
def test_root_residual(model, n):
    prof = profile(model, n)
    assert abs(model.log_tail_ext(prof.x_n) + math.log(n)) <= 1e-6, (model, n, prof.x_n)


@settings(deadline=None)
@given(model=models, n=sizes)
def test_p_n_in_unit_interval(model, n):
    prof = profile(model, n)
    assert 0.0 <= prof.p_n <= 1.0, (model, n, prof)


@settings(deadline=None)
@given(model=models, n=sizes, factor=st.floats(1.0, 1e6))
def test_x_n_nondecreasing_in_n(model, n, factor):
    small, big = profile(model, n), profile(model, n * factor)
    assert small.x_n <= big.x_n, (model, n, factor, small.x_n, big.x_n)


def assert_tie_law(prof, t_max):
    ties = tie_distribution(prof, t_max)
    at_least = [ties.at_least[t] for t in range(t_max + 2)]
    assert all(b <= a for a, b in zip(at_least, at_least[1:])), (prof, at_least)
    assert math.fsum(ties.exactly.values()) <= 1.0 + 1e-12, (prof, ties.exactly)


@settings(deadline=None)
@given(model=poisson_models, n=sizes, t_max=st.integers(0, 40))
def test_tie_law_of_poisson_profiles(model, n, t_max):
    prof = profile(model, n)
    assert prof.regime is Regime.GAMMA_ZERO
    assert_tie_law(prof, t_max)


@settings(deadline=None)
@given(p_n=st.floats(0.0, 1.0), t_max=st.integers(0, 40))
def test_tie_law_at_any_weight(p_n, t_max):
    theta = -math.log(p_n) if p_n > 0.0 else math.inf
    assert_tie_law(ExtremalProfile(n=1000.0, gamma=0.0, x_n=1.0, m_n=1, theta_n=theta,
                                   p_n=p_n, z_n=2.0, regime=Regime.GAMMA_ZERO), t_max)


def weight_profile(theta, gamma=0.0):
    """A profile with weight theta_n, as profile would assemble it."""
    regime = {0.0: Regime.GAMMA_ZERO, 1.0: Regime.GAMMA_ONE}.get(gamma, Regime.GAMMA_MID)
    return ExtremalProfile(n=1000.0, gamma=gamma, x_n=1.0, m_n=1, theta_n=theta,
                           p_n=math.exp(-theta), z_n=2.0, regime=regime)


@settings(deadline=None)
@given(theta=log_uniform(1e-12, 700.0), t=st.integers(0, 40))
# taken as a difference of two cumulatives near 1 these came out 0, against
# mpmath's 3.4e-18, 9.5e-21 and 2.4e-23
@example(theta=0.024787889738385804, t=7)
@example(theta=0.024787889738385804, t=8)
@example(theta=0.024787889738385804, t=9)
@example(theta=39.5468583487772, t=0)  # 16 % off as such a difference
def test_tie_law_vs_mpmath(theta, t):
    got = tie_distribution(weight_profile(theta), t).exactly[t]
    with mp.workdps(40):
        ref = mp.exp(-mp.mpf(theta)) * mp.mpf(theta) ** (t + 1) / mp.factorial(t + 1)
        if ref < 1e-300:  # below the normal floats
            assert got <= 1e-300, (theta, t, got, ref)
            return
        # relative to max(1, |ln P|): exp turns the pmf's log error into that
        assert abs(got - ref) <= 3e-15 * max(1.0, -mp.log(ref)) * ref, (theta, t, got, ref)


@settings(deadline=None)
@given(theta=log_uniform(1e-12, 700.0), gamma=st.floats(1e-10, 1.0), x=st.integers(-30, 30))
def test_limiting_max_cdf_vs_mpmath(theta, gamma, x):
    got = limiting_max_cdf(weight_profile(theta, gamma), x)
    with mp.workdps(40):
        u = mp.mpf(theta) * mp.mpf(gamma) ** x
        ref = mp.exp(-u)
        if ref < 1e-300:
            assert got <= 1e-300, (theta, gamma, x, got, ref)
            return
        assert abs(got - ref) <= 5e-16 * max(1.0, u) * ref, (theta, gamma, x, got, ref)


@given(theta=st.one_of(log_uniform(1e-12, 700.0), st.sampled_from([0.0, math.inf])),
       x=st.integers(-30, 30))
def test_limiting_max_cdf_at_gamma_zero_and_one(theta, x):
    # bit-equal to the two-point cluster and the flat law read from p_n
    p_n = math.exp(-theta)
    assert limiting_max_cdf(weight_profile(theta, 1.0), x) == p_n
    assert limiting_max_cdf(weight_profile(theta, 0.0), x) == (
        0.0 if x < 0 else p_n if x == 0 else 1.0)


def mp_pmfs(model):
    """The model's pmf at 0, 1, ... in mpmath, by the ratio recursion."""
    if isinstance(model, PoissonModel):
        lam = mp.mpf(model.lam)
        pmf, ratio = mp.exp(-lam), lambda j: lam / (j + 1)
    elif isinstance(model, NegativeBinomialModel):
        r, p = mp.mpf(model.r), mp.mpf(model.p)
        pmf, ratio = (1 - p) ** r, lambda j: (j + r) / (j + 1) * p
    else:
        q = mp.mpf(model.q)
        pmf, ratio = 1 - q, lambda j: q
    j = 0
    while True:
        yield pmf
        pmf *= ratio(j)
        j += 1


@settings(deadline=None)
@given(model=models, block=st.integers(1, 48))
def test_block_max_law(model, block):
    law = daily_max_law(model, block)
    assert list(law) == list(range(model.support_min, model.support_min + len(law)))
    assert all(step >= 0.0 for step in law.values()), law
    assert abs(math.fsum(law.values()) - 1.0) <= 1e-9
    pmfs = [mp.mpf(math.exp(model.log_pmf(v))) for v in law]  # the model's own float f(v)
    with mp.workdps(40):
        # the law's construction from those f and the float G(end), summed
        # exactly: F(v) forward below the median, 1 - G(v) above it
        tails = [mp.mpf(math.exp(model.log_tail(max(law))))]
        for pmf in reversed(pmfs[1:]):
            tails.append(tails[-1] + pmf)
        cdf = prev = forward = mp.mpf(0)
        for (v, step), pmf, own_pmf, tail in zip(law.items(), mp_pmfs(model), pmfs,
                                                 reversed(tails)):
            cdf += pmf
            forward += own_pmf
            own_cdf = 1 - tail if tail < 0.5 else forward
            # only the float arithmetic of the step separates it from own
            own = own_cdf ** block - (own_cdf - own_pmf) ** block
            # the true step F(v)^B - F(v-1)^B: the kernels' own error
            # (~1e-15 relative in log_pmf, and in G(end)) enters, amplified
            # by up to B
            true = cdf ** block - prev ** block
            prev = cdf
            if true < 1e-300:  # below the normal floats
                assert step <= 1e-300, (v, step, true)
                continue
            assert abs(step - own) <= 1e-12 * own, (v, step, own)
            assert abs(step - true) <= 1e-12 * true, (v, step, true)


@settings(deadline=None)
@given(model=models, block=st.integers(1, 10_000))
def test_block_max_law_ends_where_a_scan_ends(model, block):
    # the law's end row, found by bisection, is the first v of a linear scan
    # with P(max > v) below LAW_TAIL_MASS
    v = model.support_min
    while -math.expm1(exact_max_cdf_log(model, block, v)) >= LAW_TAIL_MASS:
        v += 1
    assert max(daily_max_law(model, block)) == v


def bisect_crossing(model, n):
    """x_n by the doubling bracket and bisection to a 1e-10 bracket, or None
    where the point found is no genuine crossing (|residual| > 1e-6)."""
    target = -math.log(n)
    lo = model.support_min - 1.0
    a = lo
    for i in range(200):
        b = lo + 2.0 ** i
        if model.log_tail_ext(b) < target:
            break
        a = b
    else:
        return None
    while b - a > 1e-10:
        mid = 0.5 * (a + b)
        if mid in (a, b):
            break
        if model.log_tail_ext(mid) >= target:
            a = mid
        else:
            b = mid
    x = 0.5 * (a + b)
    return x if abs(model.log_tail_ext(x) - target) <= 1e-6 else None


def noisy_halving_pmf(seed):
    """200 atoms of a geometric(1/2) decay with +-50 % noise on each: the
    tail reaches 1e-50 before it ends."""
    rng = random.Random(seed)
    weights = [rng.uniform(0.5, 1.5) * 0.5 ** i for i in range(200)]
    total = math.fsum(weights)
    return [w / total for w in weights]


solver_models = st.one_of(
    st.builds(PoissonModel, log_uniform(1e-2, 1e4),
              st.sampled_from(["natural", "loglinear", "asymptotic"])),
    negbinom_models, geometric_models,
    st.builds(lambda seed: EmpiricalModel(noisy_halving_pmf(seed)), st.integers(0, 2 ** 32 - 1)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the noisy pmf's tail ratio
@settings(deadline=None)
@given(model=solver_models, n=log_uniform(1e3, 1e50), factor=log_uniform(1.01, 1e3))
# ln G is not monotone within 1e-10 of the crossing: 2 grid steps apart
@example(model=NegativeBinomialModel(17.0, 0.9453125), n=math.exp(92.0), factor=math.exp(6.0))
def test_root_solve_vs_bisection(model, n, factor):
    # profile brackets from the support edge; the second scan row brackets
    # from the first row's x_n
    ns = [n, n * factor]
    refs = [bisect_crossing(model, m) for m in ns]
    for m, ref in zip(ns, refs):
        if ref is None:
            with pytest.raises(RootBracketError):
                profile(model, m)
        else:
            assert_same_crossing(model, m, profile(model, m).x_n, ref)
    if None not in refs:
        rows = scan_oscillation(model, ns).rows
        for row, ref in zip(rows, refs):
            assert_same_crossing(model, row.n, row.x_n, ref)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the noisy pmf's tail ratio
@settings(deadline=None)
@given(model=solver_models, n=log_uniform(1e3, 1e50), factor=log_uniform(1.01, 1e3))
def test_certified_crossing_residual(model, n, factor):
    # profile certifies x_n from the values at its last bracket's ends and
    # does not evaluate ln G at x_n itself; evaluated here, the residual
    # is within 1e-6, in cold profiles and in the rows of a scan
    ns = [n, n * factor]
    rows = []
    for m in ns:
        try:
            rows.append(profile(model, m))
        except RootBracketError:  # refusals: test_root_solve_vs_bisection
            pass
    if len(rows) == 2:
        rows += scan_oscillation(model, ns).rows
    for row in rows:
        assert abs(model.log_tail_ext(row.x_n) + math.log(row.n)) <= 1e-6, (model, row.n, row.x_n)


def assert_same_crossing(model, n, x, ref):
    """x within 1e-10 of the bisection's ref, unless the computed ln G is
    not monotone on the 2^-34 grid between them: then the crossing is not
    defined to 1e-10 and either is a sign change of it.  The negative
    binomial tail is ~3e-12 off in ln G at x ~ 2600, where it falls by
    3e-12 a grid step (p = 0.945)."""
    if abs(x - ref) <= 1e-10:
        return
    assert abs(x - ref) <= 1e-8, (model, n, x, ref)
    step = 2.0 ** -34
    lo = math.floor(min(x, ref) / step) * step
    values = [model.log_tail_ext(lo + j * step) for j in range(int(abs(x - ref) / step) + 3)]
    assert any(b > a for a, b in zip(values, values[1:])), (model, n, x, ref)


# ln G falls by more than its rounding over one 2^-34 cell here; not so for
# the negative binomial with p near 1 at x ~ 1e6
anchor_models = st.sampled_from([
    PoissonModel(1.0), PoissonModel(1.0, "loglinear"), PoissonModel(1.0, "asymptotic"),
    NegativeBinomialModel(2.0, 0.3), GeometricModel(0.5)])


def assert_sign_rule(model, n, m):
    """ln G(m - 1/2) + ln n >= 0 > ln G(m + 1/2) + ln n."""
    log_n = math.log(n)
    assert model.log_tail_ext(m - 0.5) + log_n >= 0.0 > model.log_tail_ext(m + 0.5) + log_n, (
        model, n, m)


@settings(deadline=None)
@given(model=anchor_models, n=log_uniform(1e3, 1e50), near=st.booleans(),
       eps=log_uniform(1e-13, 1e-8), below=st.booleans())
def test_anchor_sign_rule(model, n, near, eps, below):
    # near: n moves to within eps of the step of m_n at n_j = 1/G(j - 1/2)
    if near:
        j = profile(model, n).m_n
        n = math.exp(-model.log_tail_ext(j - 0.5)) * (1.0 - eps if below else 1.0 + eps)
    prof = profile(model, n)
    assert prof.x_n < 2.0 ** 52
    assert_sign_rule(model, n, prof.m_n)


@settings(deadline=None)
@given(model=anchor_models, lo=log_uniform(1e3, 1e40), span=log_uniform(10.0, 1e10),
       count=st.integers(2, 60), eps=log_uniform(1e-13, 1e-9))
def test_scan_breakpoints_bracket_jumps(model, lo, span, count, eps):
    # log-spaced n plus one n just below a jump n_j = 1/G(j - 1/2); a
    # breakpoint n_b and the next grid n bracket n_(m_n + 1)
    ns = [lo * span ** (i / (count - 1)) for i in range(count)]
    n_j = math.exp(-model.log_tail_ext(profile(model, ns[-1]).m_n - 0.5))
    scan = scan_oscillation(model, sorted(set(ns + [n_j * (1.0 - eps)])))
    for row in scan.rows:
        assert_sign_rule(model, row.n, row.m_n)
    for a, b in zip(scan.rows, scan.rows[1:]):
        if a.n in scan.breakpoints:
            jump = math.exp(-model.log_tail_ext(a.m_n + 0.5))
            assert a.n < jump <= b.n, (model, a.n, jump, b.n)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the noisy pmf's tail ratio
@settings(deadline=None)
@given(model=st.one_of(anchor_models, st.builds(lambda seed: EmpiricalModel(noisy_halving_pmf(seed)),
                                                st.integers(0, 2 ** 32 - 1))),
       logs=st.lists(st.floats(math.log(1e3), math.log(1e40)), min_size=1, max_size=40),
       eps=log_uniform(1e-13, 1e-9), below=st.booleans())
def test_scan_rows_equal_cold_profiles(model, logs, eps, below):
    # a scan row reuses the last row's tail values and predicts its first
    # bracket step; a cold profile does neither.  The grid has uneven gaps
    # and one n within eps of the jump n_j = 1/G(j - 1/2) into the last
    # row's window
    sigfigs = 6 if model.extension == "asymptotic" else None
    ns = sorted({math.exp(v) for v in logs})
    n_j = math.exp(-model.log_tail_ext(profile(model, ns[-1]).m_n - 0.5))
    ns = sorted(set(ns) | {n_j * (1.0 - eps if below else 1.0 + eps)})
    for row in scan_oscillation(model, ns, x_sigfigs=sigfigs).rows:
        assert row == profile(model, row.n, sigfigs), (model, row.n)


loglinear_models = st.sampled_from([
    lambda: PoissonModel(1.0, "loglinear"), lambda: NegativeBinomialModel(2.0, 0.3, "loglinear"),
    lambda: GeometricModel(0.5, "loglinear"), lambda: DiscreteCauchyModel(),
    lambda: EmpiricalModel([0.5, 0.25, 0.125, 0.0, 0.0625, 0.0625])])


@settings(deadline=None)
@given(factory=loglinear_models,
       xs=st.lists(st.builds(lambda k, t: k + t, st.integers(-1, 40),
                             st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0, exclude_max=True)),
                   max_size=30))
def test_loglinear_after_any_calls_equals_fresh(factory, xs):
    # the model keeps the last interval it interpolated on; no sequence of
    # calls may change a value
    model = factory()
    for x in xs:
        assert model.log_tail_ext(x) == factory().log_tail_ext(x), (model, xs, x)


def tables_rows():
    """The gamma = 0 rows of the reference tables that carry order statistics."""
    models = [(PoissonModel(1.0, "asymptotic"), 6, 1e3), (PoissonModel(0.01, "asymptotic"), 6, 2e3),
              (PoissonModel(1.0, "natural"), None, 1e3), (PoissonModel(1.0, "loglinear"), None, 1e3)]
    return [pytest.param(model, sigfigs, n, id=f"{model!r}-{n:g}")
            for model, sigfigs, first in models
            for n in (1e3, 1e4, 1e5, 1e6, 1e9, 1e50) if n >= first]


@pytest.mark.parametrize("model, sigfigs, n", tables_rows())
def test_order_stat_at_tie_phase_depths_vs_mpmath(model, sigfigs, n):
    # depths ceil(c z_n) at x = m_n - 1; at n = 1e50 (Poisson(0.01):
    # k = 23660, 47320, 94639) the binomial sum is Poisson(n q) to ~1e-40
    prof = profile(model, n, x_sigfigs=sigfigs)
    x = prof.m_n - 1
    for c in (0.5, 1.0, 2.0):
        k = tie_phase_threshold(prof, c)
        got = exact_order_stat_cdf_log(model, n, k, x)
        with mp.workdps(40):
            q = mp.exp(mp.mpf(model.log_tail(x)))
            if n <= 2.0 ** 53:
                term = total = (1 - q) ** int(n)
                for j in range(1, k + 1):
                    term *= (int(n) - j + 1) * q / (j * (1 - q))
                    total += term
                ref = mp.log(total)
            else:
                ref = mp.log(mp.gammainc(k + 1, mp.mpf(n) * q, mp.inf, regularized=True))
        assert_log_close(got, ref, 1e-12, (model, n, k))


@settings(deadline=None)
@given(theta=log_uniform(1e-12, 700.0), t_max=st.integers(0, 120))
@example(theta=39.5468583487772, t_max=120)  # at_least[80] was 5.9e-8 off as 1 - sum
def test_tie_at_least_vs_mpmath(theta, t_max):
    ties = tie_distribution(weight_profile(theta), t_max)
    assert ties.at_least[0] == 1.0
    with mp.workdps(40):
        for k in range(1, t_max + 2):
            # p_n + P(N >= k + 1), N ~ Poisson(theta)
            ref = mp.exp(-mp.mpf(theta)) + mp.gammainc(k + 1, 0, theta, regularized=True)
            assert abs(ties.at_least[k] - ref) <= 4e-13 * ref, (theta, k, ties.at_least[k], ref)
