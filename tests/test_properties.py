"""Property tests of the tail extensions, the extremal profile, the tie law
and the block-maximum law.

Poisson, negative binomial and geometric models with their natural
(calibrated) tail extensions, over log-uniform sample sizes:

- p_n lies in [0, 1];
- x_n is nondecreasing in n;
- at_least of the tie law is non-increasing in t, and exactly sums to at
  most 1 (the gamma = 0 models, i.e. Poisson);
- the block-maximum law is nonnegative, lists contiguous values from
  support_min, has mass 1 within 1e-9 and matches mpmath step by step.

The same models under the natural and the loglinear extension:

- log_tail_ext is non-increasing, and equals log_tail at integers;
- the crossing point solves ln G(x_n) = -ln n within 1e-6.

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
- the Stirling remainder on both sides of 15, at subnormal arguments and
  at the half-integers (worst 1.2e-15; 3.5e-16 at the half-integers).
"""

import math

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from discmax.datafit import daily_max_law
from discmax.extremes import (ExtremalProfile, Regime, limiting_max_cdf, profile,
                              tie_distribution)
from discmax.specfun import (_stirlerr, log_binomial, log_negbinom_pmf, log_poisson_pmf,
                              reg_gamma_p_log, reg_gamma_q_log)
from discmax.tailmodel import GeometricModel, NegativeBinomialModel, PoissonModel, make_model

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
@given(n=st.one_of(st.floats(0.0, 40.0, exclude_min=True), log_uniform(15.0, 1e8),
                   st.integers(1, 30).map(lambda i: i / 2)))
@example(n=5e-324)  # 1/n overflows: the first recurrence step must not form it
@example(n=14.10111626316651)  # 9.6e-15 off through lgamma(n + 1) - (n + 1/2) ln n + n
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
    with mp.workdps(40):
        cdf = prev = mp.mpf(0)
        for (v, step), pmf in zip(law.items(), mp_pmfs(model)):
            cdf += pmf
            # the step from the model's own float F(v) and f(v): only the
            # law's construction separates the two
            own_cdf = 1 - mp.exp(model.log_tail(v))
            own = own_cdf ** block - (own_cdf - mp.exp(model.log_pmf(v))) ** block
            # the true step F(v)^B - F(v-1)^B: the kernels' own error
            # (~1e-13 relative in the incomplete beta and lgamma terms at
            # v in the hundreds) enters, amplified by up to B
            true = cdf ** block - prev ** block
            prev = cdf
            if true < 1e-300:  # below the normal floats
                assert step <= 1e-300, (v, step, true)
                continue
            assert abs(step - own) <= 1e-12 * own, (v, step, own)
            assert abs(step - true) <= 1e-10 * true, (v, step, true)
