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

The regularized incomplete gamma pair for a from 1 to 1e8 and x within
a factor 2 of a (the series, continued-fraction and large-a branches):

- P + Q = 1, and ln Q is non-increasing in x.
"""

import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discmax.datafit import daily_max_law
from discmax.extremes import ExtremalProfile, Regime, profile, tie_distribution
from discmax.specfun import reg_gamma_p_log, reg_gamma_q_log
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
