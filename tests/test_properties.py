"""Property tests of the extremal profile and the tie law.

Poisson, negative binomial and geometric models with their natural
(calibrated) tail extensions, over log-uniform sample sizes:

- p_n lies in [0, 1];
- x_n is nondecreasing in n;
- at_least of the tie law is non-increasing in t, and exactly sums to at
  most 1 (the gamma = 0 models, i.e. Poisson).
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from discmax.extremes import ExtremalProfile, Regime, profile, tie_distribution
from discmax.tailmodel import GeometricModel, NegativeBinomialModel, PoissonModel

poisson_models = st.builds(PoissonModel, st.floats(1e-3, 50.0))
negbinom_models = st.builds(NegativeBinomialModel, st.floats(0.05, 20.0), st.floats(0.01, 0.95))
geometric_models = st.builds(GeometricModel, st.floats(0.01, 0.99))
models = st.one_of(poisson_models, negbinom_models, geometric_models)

# n from 2 to 1e15, log-uniform
sizes = st.floats(math.log(2.0), math.log(1e15)).map(math.exp)


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
