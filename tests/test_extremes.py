import math
import re

import pytest

from discmax.allocsim import enumerate_conditional
from discmax.extremes import (
    ExtremalProfile,
    Regime,
    RootBracketError,
    anderson_cluster_bound,
    briggs_approximation,
    exact_max_cdf_log,
    exact_order_stat_cdf_log,
    limiting_max_cdf,
    limiting_max_pmf,
    profile,
    scan_oscillation,
    tie_distribution,
    tie_phase_threshold,
)
from discmax.tailmodel import (
    DiscreteCauchyModel,
    DiscreteTailModel,
    EmpiricalModel,
    GeometricModel,
    NegativeBinomialModel,
    PoissonModel,
)


def poisson_tail(k: int, lam: float) -> float:
    """Independent oracle: P(X > k) by direct partial summation."""
    return 1.0 - math.exp(-lam) * math.fsum(lam ** j / math.factorial(j)
                                            for j in range(k + 1))


@pytest.fixture
def tail_args(monkeypatch):
    """The arguments of every log_tail_ext call made while the test runs."""
    args = []
    log_tail_ext = DiscreteTailModel.log_tail_ext

    def recorded(self, x):
        args.append(x)
        return log_tail_ext(self, x)

    monkeypatch.setattr(DiscreteTailModel, "log_tail_ext", recorded)
    return args


def synthetic_profile(p_n: float, regime=Regime.GAMMA_ZERO, gamma=0.0,
                      x_n=4.5, m_n=5, z_n=3.0) -> ExtremalProfile:
    theta = -math.log(p_n) if p_n > 0 else math.inf
    return ExtremalProfile(n=1000.0, gamma=gamma, x_n=x_n, m_n=m_n,
                           theta_n=theta, p_n=p_n, z_n=z_n, regime=regime)


class TestProfile:
    @pytest.mark.parametrize("model", [
        PoissonModel(1.0), PoissonModel(1.0, "loglinear"), PoissonModel(1.0, "asymptotic"),
        NegativeBinomialModel(2.0, 0.3), GeometricModel(0.5)], ids=repr)
    def test_root_satisfies_definition(self, model):
        # m_n steps to j at n_j = 1/G(j - 1/2); at n_j (1 -+ eps), x_n lies
        # within ~1e-9 of j - 1/2, so snapping x_n + 1/2 to a near integer
        # would give j on both sides
        cases = [(100, None), (10 ** 4, None)]
        for j in range(5, 25):
            n_j = math.exp(-model.log_tail_ext(j - 0.5))
            cases += [(n_j * (1.0 + s * eps), j - (s < 0))
                      for eps in (1e-13, 1e-11, 1e-9) for s in (-1, 1)]
        for n, m in cases:
            prof = profile(model, n)
            log_n = math.log(n)
            assert model.log_tail_ext(prof.x_n) == pytest.approx(-log_n, abs=1e-8)
            assert prof.m_n == math.floor(prof.x_n + 0.5)
            assert (model.log_tail_ext(prof.m_n - 0.5) + log_n >= 0.0
                    > model.log_tail_ext(prof.m_n + 0.5) + log_n), n
            assert m is None or prof.m_n == m, (n, m, prof.m_n)
            assert prof.p_n == pytest.approx(math.exp(-prof.theta_n), rel=1e-12)

    def test_reference_table_row_1e3(self):
        prof = profile(PoissonModel(1.0, "asymptotic"), 1e3, x_sigfigs=6)
        assert prof.x_n == pytest.approx(4.63591, abs=1e-5)
        assert prof.m_n == 5
        assert prof.p_n == pytest.approx(0.58694674, abs=1e-7)

    def test_reference_table_row_1e6(self):
        prof = profile(PoissonModel(1.0, "asymptotic"), 1e6, x_sigfigs=6)
        assert prof.x_n == pytest.approx(8.00608, abs=1e-5)
        assert prof.m_n == 8
        assert prof.p_n == pytest.approx(0.36296353, abs=1e-7)

    def test_z_n_equals_scaled_true_tail(self):
        # calibrated extensions: z_n = n F(m_n - 1), checked against the
        # direct partial-sum oracle (lam=1, n=1e3: 1000 * F(4) = 3.65985...)
        prof = profile(PoissonModel(1.0), 1000)
        want = 1000.0 * poisson_tail(prof.m_n - 1, 1.0)
        assert prof.z_n == pytest.approx(want, rel=1e-9)
        assert want == pytest.approx(3.6598, abs=1e-4)

    def test_theta_is_scaled_anchor_tail(self):
        # calibrated extensions: theta_n = n F(m_n)
        for model in (PoissonModel(1.0), NegativeBinomialModel(2.0, 0.3)):
            prof = profile(model, 10 ** 4)
            assert prof.theta_n == pytest.approx(
                1e4 * math.exp(model.log_tail(prof.m_n)), rel=1e-9)

    def test_invariant_chain(self):
        prof = profile(PoissonModel(0.1), 10 ** 5)
        assert prof.x_n - 0.5 <= prof.m_n <= prof.x_n + 0.5
        assert prof.z_n >= prof.theta_n >= 0.0
        assert prof.regime is Regime.GAMMA_ZERO

    def test_regimes(self):
        assert profile(PoissonModel(2.0), 100).regime is Regime.GAMMA_ZERO
        assert profile(NegativeBinomialModel(1.0, 0.4), 100).regime is Regime.GAMMA_MID
        assert profile(GeometricModel(0.5), 2).regime is Regime.GAMMA_MID
        assert profile(DiscreteCauchyModel(), 100).regime is Regime.GAMMA_ONE

    def test_geometric_small_n_well_formed(self):
        prof = profile(GeometricModel(0.5), 2)
        assert prof.gamma == 0.5
        assert math.isfinite(prof.x_n) and math.isfinite(prof.p_n)

    def test_bounded_tail_raises(self):
        # the last bracket's upper end sits where the tail has ended; at
        # n just above 1/G(0) = 2.5 its lower end is within 1e-6 of the
        # target, and only the upper end's -inf refuses the jump
        model = EmpiricalModel([0.6, 0.4])
        for n in (10 ** 6, 2.5 * (1.0 + 1e-7)):
            with pytest.raises(RootBracketError, match="no genuine crossing"):
                profile(model, n)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_bounded_tail_small_n_ok(self):
        model = EmpiricalModel([0.6, 0.3, 0.1])
        prof = profile(model, 4)
        assert model.log_tail_ext(prof.x_n) == pytest.approx(-math.log(4), abs=1e-8)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_empirical_gamma_not_estimable(self):
        # three atoms leave one usable tail ratio: the root solve still
        # succeeds, and gamma comes back NaN rather than a made-up value
        # (`discmax profile` refuses such a row, see test_cli)
        model = EmpiricalModel([0.5, 0.3, 0.2])
        prof = profile(model, 3)
        assert model.log_tail_ext(prof.x_n) == pytest.approx(-math.log(3), abs=1e-8)
        assert math.isnan(prof.gamma)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # two ratios, unstable
    @pytest.mark.parametrize("model,n", [
        (PoissonModel(0.1), 2),  # x_n ~ -0.7: the anchor is the edge -1
        (EmpiricalModel([0.9, 0.05, 0.05], support_min=3), 2),  # x_n ~ 2.3, edge 2
    ], ids=["poisson", "empirical_offset"])
    def test_z_n_at_support_edge_anchor(self, model, n):
        # m_n = support_min - 1: z_n is read at the edge itself, where G = 1
        prof = profile(model, n)
        assert prof.m_n == model.support_min - 1
        assert prof.z_n == n

    @pytest.mark.parametrize("extension", ["natural", "loglinear"])
    def test_poisson_large_rate(self, extension):
        # x_n ~ lam puts the tail's incomplete gamma at a ~ x, where the
        # lower series needs about 8 sqrt(a) terms
        for lam in (1e4, 1e6):
            x_prev = -math.inf
            for n in (2.0, 1e3, 1e50):
                model = PoissonModel(lam, extension)
                prof = profile(model, n)
                assert abs(model.log_tail_ext(prof.x_n) + math.log(n)) <= 1e-6
                assert x_prev < prof.x_n < lam + 16.0 * math.sqrt(lam)
                x_prev = prof.x_n

    @pytest.mark.parametrize("sigfigs", [0, -2])
    def test_x_sigfigs_below_one(self, sigfigs):
        # without the check, 0 and -2 gave x_n = 10 and x_n = 0
        with pytest.raises(ValueError, match=f"x_sigfigs must be at least 1, got {sigfigs}"):
            profile(PoissonModel(1.0), 1e6, x_sigfigs=sigfigs)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # unstable tail ratio
    def test_x_sigfigs_below_support_edge(self):
        # x_n ~ 1004.3 rounds to 1000 at 3 digits: an anchor outside the
        # support, refused in the terms of the option that put it there
        model = EmpiricalModel([0.9, 0.05, 0.03, 0.02], support_min=1005)
        with pytest.raises(ValueError) as info:
            profile(model, 2, x_sigfigs=3)
        assert str(info.value) == (
            f"x_sigfigs=3 rounds x_n = {profile(model, 2).x_n!r} to 1000.0, whose anchor "
            "lies below the support edge support_min - 1 = 1004")

    def test_n_too_small(self):
        with pytest.raises(ValueError):
            profile(PoissonModel(1.0), 1)

    @pytest.mark.parametrize("model", [PoissonModel(1.0), NegativeBinomialModel(2.0, 0.3)])
    @pytest.mark.parametrize("n", [1e3, 1e9, 1e50])
    def test_probes_on_the_grid(self, tail_args, model, n):
        # from an integer support edge, every tail evaluation is a doubling
        # step, a solver probe or an anchor: all on the 2^-34 grid, whose
        # cells the answer is made of; x_n, a cell's midpoint, is not
        # evaluated, as the crossing is certified from the cell's ends
        profile(model, n)
        assert [a for a in tail_args if not (a / 2.0 ** -34).is_integer()] == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # zeros in the tail ratios
    def test_flat_stretch(self, tail_args):
        # ln G + ln n == 0.0 on [1, 4]: the sign change is at 4, and the
        # secant, which returns a while f(a) == 0, gives way to bisection
        model = EmpiricalModel([0.5, 0.25, 0, 0, 0, 0.125, 0.125])
        assert profile(model, 4).x_n == 4.0 + 2.0 ** -35
        assert len(tail_args) <= 45

    @pytest.mark.parametrize("n", [math.nan, math.inf])
    def test_non_finite_n(self, n):
        # must fail as bad input, not late as a root-bracketing failure
        with pytest.raises(ValueError):
            profile(PoissonModel(1.0), n)

    def test_dcauchy_profile_linear_growth(self):
        # gamma = 1: the crossing point grows like n / (normalizer sum)
        prof = profile(DiscreteCauchyModel(), 10 ** 4)
        assert prof.regime is Regime.GAMMA_ONE
        assert 3000 < prof.x_n < 6000

    def test_dcauchy_profile_large_n(self):
        # G(x) = 1 / (S (x + 1/2)) to relative O(x^-2), S the normalizer sum;
        # the tail closure lost every digit here when it took pi/2 - atan(m)
        s = (1.0 + math.pi / math.tanh(math.pi)) / 2.0
        for e in range(12, 51):
            n = 10.0 ** e
            prof = profile(DiscreteCauchyModel(), n)
            assert (prof.x_n + 0.5) * s / n == pytest.approx(1.0, abs=2e-14), e

    @pytest.mark.parametrize("n", [1e61, 1e200, 1e297])
    def test_dcauchy_beyond_doubling_range(self, n):
        # x_n far past 2^199, and past m ~ 1.3e154, where m * m overflows;
        # ln G is ~ -690 here, so its rounding is ~1e-13
        model = DiscreteCauchyModel()
        s = (1.0 + math.pi / math.tanh(math.pi)) / 2.0
        prof = profile(model, n)
        assert prof.x_n * s / n == pytest.approx(1.0, abs=3e-13)
        assert abs(model.log_tail_ext(prof.x_n) + math.log(n)) <= 2e-13
        rows = scan_oscillation(model, [n / 3.0, n]).rows
        assert rows[1].x_n == prof.x_n
        assert rows[0].x_n * 3.0 * s / n == pytest.approx(1.0, abs=3e-13)

    def test_dcauchy_beyond_solver_range(self):
        # x_n ~ 4.8e299 > 2^990, past the last bracket end whose grid is finite
        with pytest.raises(RootBracketError, match="beyond the solver's range"):
            profile(DiscreteCauchyModel(), 1e300)

    @pytest.mark.parametrize("n", [1.2e298, 2.17e298])
    def test_dcauchy_profile_reaches_scan_range(self, n):
        # x_n ~ 5.8e297 and 1.04e298 lie past 2^989, the last doubling step
        # from the support edge; the last step, cut to the float below
        # 2^990, reaches them as a scan row's bracket from 1e298 does
        model = DiscreteCauchyModel()
        row = scan_oscillation(model, [1e298, n]).rows[1]
        assert row.x_n > 2.0 ** 989
        assert profile(model, n) == row


class TestLimitingMaxCdf:
    def test_gamma_zero_steps(self):
        prof = synthetic_profile(0.42)
        assert limiting_max_cdf(prof, -2) == 0.0
        assert limiting_max_cdf(prof, -1) == 0.0
        assert limiting_max_cdf(prof, 0) == 0.42
        assert limiting_max_cdf(prof, 1) == 1.0
        assert limiting_max_cdf(prof, 7) == 1.0

    def test_gamma_mid_power_law(self):
        prof = synthetic_profile(0.36, regime=Regime.GAMMA_MID, gamma=0.5)
        assert limiting_max_cdf(prof, 1) == pytest.approx(0.36 ** 0.5, rel=1e-12)
        assert limiting_max_cdf(prof, 0) == pytest.approx(0.36, rel=1e-12)
        assert limiting_max_cdf(prof, -1) == pytest.approx(0.36 ** 2.0, rel=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_gamma_raises(self):
        # three atoms: profile solves x_n with gamma NaN, and the limiting
        # law, which has no gamma to use, says so instead of returning NaN
        prof = profile(EmpiricalModel([0.5, 0.3, 0.2]), 3)
        with pytest.raises(ValueError, match="gamma"):
            limiting_max_cdf(prof, 0)

    def test_gamma_one_flat(self):
        prof = synthetic_profile(0.77, regime=Regime.GAMMA_ONE, gamma=1.0)
        for x in (-3, 0, 5):
            assert limiting_max_cdf(prof, x) == 0.77


class TestLimitingMaxPmf:
    def test_gamma_zero_two_point(self):
        prof = synthetic_profile(0.42)
        assert [limiting_max_pmf(prof, x) for x in range(-2, 4)] == [
            0.0, 0.0, 0.42, 1.0 - 0.42, 0.0, 0.0]

    def test_gamma_mid_steps_of_the_cdf(self):
        prof = synthetic_profile(0.36, regime=Regime.GAMMA_MID, gamma=0.5)
        assert limiting_max_pmf(prof, 0) == pytest.approx(0.36 - 0.36 ** 2, rel=1e-12)
        assert limiting_max_pmf(prof, 1) == pytest.approx(0.6 - 0.36, rel=1e-12)
        assert math.fsum(limiting_max_pmf(prof, x) for x in range(-10, 60)) == pytest.approx(
            1.0, abs=1e-12)

    def test_gamma_one_has_no_mass_at_any_point(self):
        prof = synthetic_profile(0.77, regime=Regime.GAMMA_ONE, gamma=1.0)
        assert all(limiting_max_pmf(prof, x) == 0.0 for x in (-3, 0, 5))


class TestExactMaxCdf:
    @pytest.mark.parametrize("n", [0, 0.5, math.nan, math.inf])
    def test_domain(self, n):
        # nan gave nan, not an error
        with pytest.raises(ValueError, match="requires a finite n >= 1"):
            exact_max_cdf_log(PoissonModel(1.0), n, 3)

    def test_single_sample_is_cdf(self):
        m = PoissonModel(1.0)
        for x in (0, 2, 6):
            want = math.log(1.0 - poisson_tail(x, 1.0))
            assert exact_max_cdf_log(m, 1, x) == pytest.approx(want, rel=1e-10)

    def test_certain_event(self):
        m = EmpiricalModel([0.5, 0.5])
        assert exact_max_cdf_log(m, 100, 1) == 0.0
        assert exact_max_cdf_log(m, 100, 50) == 0.0

    def test_impossible_event(self):
        m = PoissonModel(1.0)
        assert exact_max_cdf_log(m, 10, -1) == -math.inf

    def test_value_at_anchor_1e3(self):
        # against the independent partial-sum oracle: 1000 ln F(5)
        m = PoissonModel(1.0)
        want = 1000.0 * math.log(1.0 - poisson_tail(5, 1.0))
        assert exact_max_cdf_log(m, 1000, 5) == pytest.approx(want, rel=1e-10)

    def test_sandwich_bounds(self):
        # (1 - F)^n between exp(-nF/F_cdf) and exp(-nF)
        m = PoissonModel(1.0)
        for n in (10 ** 3, 10 ** 4, 10 ** 5):
            prof = profile(PoissonModel(1.0, "asymptotic"), n)
            x = prof.m_n
            tail = math.exp(m.log_tail(x))
            cdf = 1.0 - tail
            got = math.exp(exact_max_cdf_log(m, n, x))
            assert math.exp(-n * tail / cdf) <= got <= math.exp(-n * tail)

    def test_clustering_two_point(self):
        m = PoissonModel(0.1)
        prof = profile(m, 10 ** 5)
        below = math.exp(exact_max_cdf_log(m, 10 ** 5, prof.m_n - 1))
        above = math.exp(exact_max_cdf_log(m, 10 ** 5, prof.m_n + 1))
        assert below <= 0.02
        assert above >= 0.98

    @pytest.mark.parametrize("model", [PoissonModel(1.0), EmpiricalModel([0.5, 0.25, 0.25])],
                             ids=["poisson", "empirical"])
    def test_non_integer_x(self, model):
        # the extension's value is no probability of the discrete maximum:
        # Poisson(1) gave -0.4099 at x = 2.5, where ln P(max <= 2.5) = -0.837
        with pytest.raises(ValueError, match=r"^x must be an integer, got 2\.5$"):
            exact_max_cdf_log(model, 10, 2.5)
        with pytest.raises(ValueError, match=r"^x must be an integer, got 2\.5$"):
            exact_order_stat_cdf_log(model, 10, 1, 2.5)
        assert exact_max_cdf_log(model, 10, 1) == 10 * math.log1p(-math.exp(model.log_tail(1)))

    def test_gamma_mid_limit_law(self):
        # finite-n maximum cdf tracks p_n^(gamma^x); the residual reflects
        # how slowly the finite-k tail ratio approaches gamma, which caps
        # the agreement near 0.023 at this n for x = 1
        m = NegativeBinomialModel(2.0, 0.3)
        prof = profile(m, 10 ** 5)
        for x in (-1, 0, 1, 2):
            exact = math.exp(exact_max_cdf_log(m, 10 ** 5, prof.m_n + x))
            limit = prof.p_n ** (0.3 ** x)
            assert abs(exact - limit) <= 0.025, x


class TestExactOrderStat:
    def test_k_zero_matches_max(self):
        m = PoissonModel(1.0)
        for x in (3, 5):
            assert exact_order_stat_cdf_log(m, 500, 0, x) == pytest.approx(
                exact_max_cdf_log(m, 500, x), rel=1e-12)

    def test_two_samples_hand_expansion(self):
        # F(x) = 0.5: P(second largest <= x) = F^2 + 2 F (1-F) = 0.75
        m = GeometricModel(0.5)  # F(0) = 0.5
        got = exact_order_stat_cdf_log(m, 2, 1, 0)
        assert got == pytest.approx(math.log(0.75), rel=1e-12)

    def test_below_the_support(self):
        m = EmpiricalModel([0.5, 0.5], support_min=3)
        assert exact_order_stat_cdf_log(m, 10, 2, 2) == -math.inf

    def test_minimum_of_ten_nearly_certain(self):
        m = GeometricModel(0.5)
        got = exact_order_stat_cdf_log(m, 10, 9, 9)  # P(min <= 9), tail 2^-10 each
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_monotone_vanishing_below_anchor(self):
        # P(X_(n-k) <= m_n - 1) decreases towards 0 along growing n
        m = PoissonModel(1.0)
        vals = []
        for n in (10 ** 4, 10 ** 5, 10 ** 6):
            prof = profile(m, n)
            vals.append(math.exp(exact_order_stat_cdf_log(m, n, 2, prof.m_n - 1)))
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 0.01

    @pytest.mark.parametrize("n, k", [(10, 10), (10, -1), (math.nan, 3), (math.inf, 3)])
    def test_domain(self, n, k):
        # n = inf raised "math domain error" from the binomial pmf
        with pytest.raises(ValueError, match="requires 0 <= k < n < inf"):
            exact_order_stat_cdf_log(PoissonModel(1.0), n, k, 3)


class TestTieDistribution:
    def test_reference_values(self):
        ties = tie_distribution(synthetic_profile(0.44924115), 3)
        assert ties.exactly[0] == pytest.approx(0.35948, abs=5e-5)
        assert ties.exactly[1] == pytest.approx(0.14382742, abs=1e-7)
        assert ties.exactly[2] == pytest.approx(0.03836335, abs=1e-7)
        assert ties.exactly[3] == pytest.approx(0.00767454, abs=1e-7)

    def test_no_tie_probability_formula(self):
        for p in (0.1, 1 / math.e, 0.9):
            ties = tie_distribution(synthetic_profile(p), 0)
            assert ties.exactly[0] == pytest.approx(-p * math.log(p), rel=1e-12)

    def test_no_tie_maximized_at_inv_e(self):
        peak = tie_distribution(synthetic_profile(1 / math.e), 0).exactly[0]
        assert peak == pytest.approx(1 / math.e, abs=1e-9)
        for p in (0.05 * i for i in range(1, 20)):
            val = tie_distribution(synthetic_profile(p), 0).exactly[0]
            assert val <= peak + 1e-12

    def test_at_least_explicit_formula(self):
        p = 0.3
        big_l = -math.log(p)
        ties = tie_distribution(synthetic_profile(p), 4)
        for k in range(5):
            want = p + 1.0 - p * math.fsum(big_l ** j / math.factorial(j)
                                           for j in range(k + 1))
            assert ties.at_least[k] == pytest.approx(want, abs=1e-13)

    def test_structural_invariants(self):
        ties = tie_distribution(synthetic_profile(0.3), 6)
        assert ties.at_least[0] == 1.0
        vals = [ties.at_least[k] for k in range(8)]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
        for t in range(7):
            assert ties.exactly.get(t, ties.at_least[6] - ties.at_least[7]) >= -1e-15
        for t in range(6):
            assert ties.exactly[t] == pytest.approx(
                ties.at_least[t] - ties.at_least[t + 1], abs=1e-12)
        total = math.fsum(ties.exactly[t] for t in range(7)) + ties.at_least[7]
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_p_convention(self):
        for p in (0.0, 1.0):
            ties = tie_distribution(synthetic_profile(p), 4)
            assert all(v == 1.0 for v in ties.at_least.values())

    def test_regime_mismatch(self):
        prof = synthetic_profile(0.4, regime=Regime.GAMMA_MID, gamma=0.5)
        with pytest.raises(ValueError):
            tie_distribution(prof, 3)

    def test_negative_t_max(self):
        with pytest.raises(ValueError, match="t_max must be >= 0, got -1"):
            tie_distribution(synthetic_profile(0.4), -1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_gamma_raises(self):
        # the unestimable gamma is filed under GAMMA_MID; it was refused as
        # outside the gamma = 0 regime
        prof = profile(EmpiricalModel([0.5, 0.3, 0.2]), 3)
        with pytest.raises(ValueError, match="tail ratio gamma; it is nan"):
            tie_distribution(prof, 3)


class TestTiePhaseThreshold:
    def test_ceiling_arithmetic(self):
        assert tie_phase_threshold(synthetic_profile(0.5, z_n=3.6598), 1.0) == 4
        assert tie_phase_threshold(synthetic_profile(0.5, z_n=3.6598), 2.0) == 8
        assert tie_phase_threshold(synthetic_profile(0.5, z_n=0.2), 1e-3) == 1

    def test_profile_value(self):
        prof = profile(PoissonModel(1.0), 1000)
        assert tie_phase_threshold(prof, 1.0) == 4

    @pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf, 1e308])
    def test_c_domain(self, c):
        # c = inf, or c z_n past the float maximum, raised OverflowError
        with pytest.raises(ValueError, match="c must be positive with c z_n finite"):
            tie_phase_threshold(synthetic_profile(0.5), c)

    def test_regime_mismatch(self):
        prof = synthetic_profile(0.4, regime=Regime.GAMMA_ONE, gamma=1.0)
        with pytest.raises(ValueError):
            tie_phase_threshold(prof, 1.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_gamma_raises(self):
        prof = profile(EmpiricalModel([0.5, 0.3, 0.2]), 3)
        with pytest.raises(ValueError, match="tail ratio gamma; it is nan"):
            tie_phase_threshold(prof, 1.0)


class TestAndersonClusterBound:
    def test_reference_value_1e3(self):
        model = PoissonModel(1.0, "asymptotic")
        prof = profile(model, 1000, x_sigfigs=6)
        want = (1.0 / 5.63591) ** (5 - 4.63591)
        assert anderson_cluster_bound(model, prof) == pytest.approx(want, rel=1e-9)
        assert want == pytest.approx(0.533, abs=1e-3)

    def test_equals_asymptotic_theta(self):
        # one expression: under the asymptotic extension the bound is theta_n
        for lam, n in ((1.0, 1e3), (1.0, 1e50), (0.01, 16000), (10.0, 1e5)):
            model = PoissonModel(lam, "asymptotic")
            prof = profile(model, n, x_sigfigs=6)
            assert anderson_cluster_bound(model, prof) == prof.theta_n

    def test_zero_exponent(self):
        model = PoissonModel(1.0)
        prof = synthetic_profile(0.5, x_n=5.0, m_n=5)
        assert anderson_cluster_bound(model, prof) == 1.0

    def test_small_rate_small_bound(self):
        prof = synthetic_profile(0.5, x_n=4.6, m_n=5)
        b1 = anderson_cluster_bound(PoissonModel(0.1), prof)
        b2 = anderson_cluster_bound(PoissonModel(1e-3), prof)
        assert b2 < b1 < 1.0

    def test_model_mismatch(self):
        with pytest.raises(ValueError):
            anderson_cluster_bound(GeometricModel(0.5), synthetic_profile(0.5))


class TestBriggs:
    def test_close_to_crossing_point_1e3(self):
        assert abs(briggs_approximation(1.0, 1e3) - 4.63591) <= 0.15

    def test_close_to_crossing_point_1e50(self):
        assert abs(briggs_approximation(1.0, 1e50) - 40.0255) <= 0.5

    def test_beats_crude_log_ratio(self):
        n = 1e6
        x_true = profile(PoissonModel(1.0, "asymptotic"), n).x_n
        crude = math.log(n) / math.log(math.log(n))
        assert abs(briggs_approximation(1.0, n) - x_true) < abs(crude - x_true)

    def test_subnormal_rate(self):
        # ln n / (lam e) overflows below lam ~ 5e-308; W then comes from ln z
        x_true = profile(PoissonModel(1e-310), 1e6).x_n
        assert abs(briggs_approximation(1e-310, 1e6) - x_true) <= 0.01
        across = [briggs_approximation(lam, 1e6) for lam in (3e-308, 2.5e-308)]
        assert math.inf > across[0] > across[1] > across[0] - 1e-5

    def test_domain(self):
        # nan gave nan, lam = inf a bare ZeroDivisionError, and an int n
        # past the float range an x (209.66 at 10^400)
        for lam, n in [(0.0, 100), (1.0, 2), (1.0, math.nan), (1.0, math.inf),
                       (math.nan, 100), (math.inf, 100), (1.0, 10 ** 400)]:
            with pytest.raises(ValueError):
                briggs_approximation(lam, n)


class TestScanOscillation:
    def test_single_n(self):
        scan = scan_oscillation(PoissonModel(1.0), [1000])
        assert len(scan.rows) == 1
        assert scan.breakpoints == ()

    def test_reference_oscillation_column(self):
        model = PoissonModel(0.01, extension="asymptotic")
        ns = [2000 * 2 ** i for i in range(9)]
        scan = scan_oscillation(model, ns, x_sigfigs=6)
        reference = [0.8902, 0.8039, 0.6602, 0.4492, 0.2106, 0.0469, 0.0023, 0.0000, 0.9103]
        for prof, ref in zip(scan.rows, reference):
            assert prof.p_n == pytest.approx(ref, abs=5e-4)
        assert [r.m_n for r in scan.rows] == [1] * 8 + [2]
        assert scan.breakpoints == (256000.0,)

    def test_adjacent_large_n_rows(self):
        model = PoissonModel(1.0, extension="asymptotic")
        scan = scan_oscillation(model, [10 ** 9, 10 ** 9 + 10 ** 7], x_sigfigs=6)
        a, b = scan.rows
        assert a.m_n == b.m_n == 11
        assert a.p_n == pytest.approx(0.46225972, abs=5e-6)
        assert b.p_n == pytest.approx(0.45873497, abs=5e-6)
        assert b.p_n < a.p_n

    def test_p_monotone_within_constant_m_window(self):
        model = PoissonModel(0.01, extension="asymptotic")
        ns = [1000 * i for i in range(2, 200, 7)]
        scan = scan_oscillation(model, ns)
        for a, b in zip(scan.rows, scan.rows[1:]):
            if a.m_n == b.m_n:
                assert b.p_n <= a.p_n + 1e-12

    @pytest.mark.parametrize("model, sigfigs, per_row", [
        (PoissonModel(1.0), None, 4.20), (PoissonModel(1.0, "loglinear"), None, 3.32),
        (PoissonModel(0.01, "asymptotic"), 6, 4.05), (NegativeBinomialModel(2.0, 0.3), None, 4.00),
        (GeometricModel(0.5), None, 3.61)])
    def test_tail_evaluations_per_profile(self, tail_args, model, sigfigs, per_row):
        # a bisection to 1e-10 took 43-50 per profile on this grid; counts
        # include the evaluations for theta_n and z_n.  per_row is the
        # measured count of a scan row: 0.5 above it, a change that brings
        # back evaluations the scan state saves fails here
        ns = [10.0 ** (3 + 47 * i / 479) for i in range(480)]
        for n in ns:
            profile(model, n, x_sigfigs=sigfigs)
        assert len(tail_args) / len(ns) <= 17  # from the support edge
        tail_args.clear()
        scan_oscillation(model, ns, x_sigfigs=sigfigs)
        assert len(tail_args) / len(ns) <= per_row + 0.5  # from the last row's x_n

    @pytest.mark.parametrize("ns, message", [
        ([100, 100], "n values must be strictly increasing"),
        ([], "scan requires at least one n"),
    ], ids=["repeated", "empty"])
    def test_rejects_nonincreasing(self, ns, message):
        with pytest.raises(ValueError, match=message):
            scan_oscillation(PoissonModel(1.0), ns)


@pytest.mark.parametrize("call, message", [
    (lambda: tie_distribution(synthetic_profile(0.5), 2.5), "t_max must be an integer, got 2.5"),
    (lambda: enumerate_conditional(3, 2.5, "multinomial"), "n_balls must be an integer, got 2.5"),
    (lambda: enumerate_conditional(3.0, 2, "multinomial"), "n_boxes must be an integer, got 3.0"),
    (lambda: exact_order_stat_cdf_log(PoissonModel(1.0), 1000, 2.5, 3),
     "k must be an integer, got 2.5"),
    (lambda: profile(PoissonModel(1.0), 1e3, x_sigfigs=2.5),
     "x_sigfigs must be an integer, got 2.5"),
    (lambda: scan_oscillation(PoissonModel(1.0), [1e3, 1e4], x_sigfigs=2.5),
     "x_sigfigs must be an integer, got 2.5"),
], ids=["tie_t_max", "enum_balls", "enum_boxes", "order_k", "profile_sigfigs", "scan_sigfigs"])
def test_non_integer_sizes(call, message):
    # refused as bad input, not as a TypeError from deep in the arithmetic
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is ValueError


@pytest.mark.parametrize("call, message", [
    (lambda: profile(PoissonModel(1.0), 10 ** 400), "profile requires a finite n >= 2"),
    (lambda: scan_oscillation(PoissonModel(1.0), [10 ** 400]),
     "profile requires a finite n >= 2"),
    (lambda: exact_max_cdf_log(PoissonModel(1.0), 10 ** 400, 3),
     "exact_max_cdf_log requires a finite n >= 1"),
    (lambda: exact_order_stat_cdf_log(PoissonModel(1.0), 10 ** 400, 2, 3),
     "order statistic requires 0 <= k < n < inf"),
], ids=["profile", "scan", "max_cdf", "order_stat"])
def test_int_n_past_the_float_range(call, message):
    # 10**400 < math.inf is True: such an n was accepted and then raised
    # OverflowError where it was converted to a float
    with pytest.raises(ValueError, match=re.escape(message)) as info:
        call()
    assert type(info.value) is ValueError
