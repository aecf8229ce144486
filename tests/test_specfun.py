import math
import sys
from unittest import mock

import pytest

from discmax import specfun
from discmax.specfun import (
    AccuracyError,
    lambert_w0,
    log1mexp,
    log_binomial,
    log_gamma,
    log_sum_exp,
    reg_beta_log,
    reg_gamma_p_log,
    reg_gamma_q_log,
)


class TestLogGamma:
    def test_gamma_one_and_two(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert log_gamma(2.0) == pytest.approx(0.0, abs=1e-14)

    def test_factorial_ten(self):
        # Gamma(11) = 10!
        assert log_gamma(11.0) == pytest.approx(math.log(math.factorial(10)), rel=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(-3.5)


class TestRegGammaQ:
    def test_a_one_is_exponential(self):
        for x in (0.0, 0.3, 1.0, 7.5, 120.0):
            assert reg_gamma_q_log(1.0, x) == pytest.approx(-x, rel=1e-12, abs=1e-12)

    def test_x_zero(self):
        assert reg_gamma_q_log(3.7, 0.0) == 0.0

    def test_poisson_tail_sum_a3(self):
        # Q(3,1) = e^-1 (1 + 1 + 1/2)
        want = math.log(math.exp(-1.0) * 2.5)
        assert reg_gamma_q_log(3.0, 1.0) == pytest.approx(want, rel=1e-12)

    def test_poisson_tail_identity_grid(self):
        # Q(k+1, z) = e^-z sum_{j<=k} z^j/j!, checked by direct summation
        for z in (0.5, 1.0, 5.0):
            for k in range(31):
                direct = math.exp(-z) * math.fsum(z ** j / math.factorial(j)
                                                  for j in range(k + 1))
                assert math.exp(reg_gamma_q_log(k + 1.0, z)) == pytest.approx(
                    direct, abs=1e-10)

    def test_monotone_decreasing_in_x(self):
        xs = [0.1 * i for i in range(1, 200)]
        vals = [reg_gamma_q_log(4.2, x) for x in xs]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_deep_tail_stays_finite(self):
        # far below the smallest positive double, representable as a log
        v = reg_gamma_q_log(1.0, 2000.0)
        assert v == pytest.approx(-2000.0, rel=1e-12)
        v = reg_gamma_p_log(201.0, 1.0)
        assert math.isfinite(v) and v < -750.0

    def test_pq_complement(self):
        for a, x in [(2.5, 1.0), (7.0, 3.0), (0.5, 0.2), (3.0, 8.0)]:
            p = math.exp(reg_gamma_p_log(a, x))
            q = math.exp(reg_gamma_q_log(a, x))
            assert p + q == pytest.approx(1.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            reg_gamma_q_log(0.0, 1.0)
        with pytest.raises(ValueError):
            reg_gamma_q_log(1.0, -0.5)

    def test_non_convergence_aborts(self, monkeypatch):
        monkeypatch.setattr(specfun, "REL_TOL", 1e-16)
        monkeypatch.setattr(specfun, "MAX_ITER", 32)
        with pytest.raises(AccuracyError):
            reg_gamma_q_log(900.0, 899.0)


class TestRegGammaLargeA:
    """a >= LARGE_A with |x - a| <= 0.2 a, where the quadrature branch runs."""

    # (a, x, ln P, ln Q) from mpmath at 50 digits: the lower series for
    # x < a and the Legendre continued fraction for x >= a, each summed to
    # 1e-45, the other side as ln(1 - .)
    @pytest.mark.parametrize("a,x,log_p,log_q", [
        (1000.0, 1000.0, -0.68477186329031015, -0.7015932366459725),
        (5000.0, 4999.0, -0.70069870956832914, -0.68565225000401712),
        (5000.0, 5002.0, -0.66716666016511213, -0.71982073376876464),
        (1e5, 97000.0, -49.100091127547147, -4.7435268410334277e-22),
        (1e6, 1.001e6, -0.17275373112418319, -1.8410218990178857),
        (3e6, 2.5e6, -46971.254632378679, 0.0),
        (3e6, 3.5e6, 0.0, -37554.544772739696),
    ])
    def test_vs_mpmath(self, a, x, log_p, log_q):
        assert abs(reg_gamma_p_log(a, x) - log_p) <= 1e-14 * max(1.0, abs(log_p))
        assert abs(reg_gamma_q_log(a, x) - log_q) <= 1e-14 * max(1.0, abs(log_q))

    def test_where_the_lower_series_gave_up(self):
        # ~8 sqrt(a) series terms at x ~ a, over MAX_ITER from a ~ 4000
        for a in (5000.0, 1e5, 1e9):
            log_p = reg_gamma_p_log(a, a)
            assert -math.log(2.0) < log_p < 0.0
            assert math.exp(log_p) + math.exp(reg_gamma_q_log(a, a)) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("a,x", [
        (specfun.LARGE_A, 1000.0), (specfun.LARGE_A, 800.0), (specfun.LARGE_A, 1200.0),
        (20000.0, 16000.0), (20000.0, 24000.0),
    ], ids=["large_a_edge", "lower_edge", "upper_edge", "lower_edge_20000", "upper_edge_20000"])
    def test_continuous_across_branch_edges(self, a, x):
        # the next float down in a (or in x, away from a) takes the
        # series or the continued fraction, whose lgamma prefactor loses
        # about 1e-16 a ln a: 1.5e-13 at (1000, 1000), where the quadrature
        # matches mpmath to the last digit
        a_out = math.nextafter(a, 0.0) if x == a else a
        x_out = x if x == a else math.nextafter(x, 2.0 * x - a)
        for fn in (reg_gamma_p_log, reg_gamma_q_log):
            inside, outside = fn(a, x), fn(a_out, x_out)
            assert abs(inside - outside) <= 1e-12 * max(1.0, abs(inside)), fn


class TestRegBeta:
    def test_a_one_closed_form(self):
        for b in (0.7, 2.0, 5.5):
            for x in (0.1, 0.5, 0.9):
                want = math.log(1.0 - (1.0 - x) ** b)
                assert reg_beta_log(1.0, b, x) == pytest.approx(want, rel=1e-12)

    def test_endpoints(self):
        assert reg_beta_log(2.3, 4.5, 1.0) == 0.0
        assert reg_beta_log(2.3, 4.5, 0.0) == -math.inf

    def test_symmetry_half(self):
        # Beta(2,2) is symmetric about 1/2
        assert math.exp(reg_beta_log(2.0, 2.0, 0.5)) == pytest.approx(0.5, rel=1e-12)

    def test_complement_identity(self):
        for a, b, x in [(3.0, 0.05, 0.4), (0.5, 0.5, 0.3), (6.0, 2.0, 0.7)]:
            lhs = math.exp(reg_beta_log(a, b, x))
            rhs = 1.0 - math.exp(reg_beta_log(b, a, 1.0 - x))
            assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_integer_binomial_identity(self):
        # I_p(k+1, n-k) = P(Binomial(n, p) > k), checked by direct summation
        n, p = 12, 0.37
        for k in range(n):
            direct = math.fsum(math.comb(n, j) * p ** j * (1 - p) ** (n - j)
                               for j in range(k + 1, n + 1))
            assert math.exp(reg_beta_log(k + 1.0, n - k, p)) == pytest.approx(
                direct, rel=1e-11)

    def test_domain(self):
        with pytest.raises(ValueError):
            reg_beta_log(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            reg_beta_log(1.0, 1.0, 1.5)


class TestLambertW:
    def test_fixed_points(self):
        assert lambert_w0(0.0) == 0.0
        assert lambert_w0(math.e) == pytest.approx(1.0, abs=1e-12)

    def test_at_one_vs_bisection_oracle(self):
        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if mid * math.exp(mid) < 1.0:
                lo = mid
            else:
                hi = mid
        assert lambert_w0(1.0) == pytest.approx(0.5 * (lo + hi), abs=1e-12)

    def test_round_trip_grid(self):
        for i in range(100):
            w = -0.9 + (10.0 + 0.9) * i / 99.0
            z = w * math.exp(w)
            assert lambert_w0(z) == pytest.approx(w, abs=1e-10)

    def test_residual_contract(self):
        for z in (1e-8, 0.2, 3.0, 1e6, -0.36, -1.0 / math.e + 1e-12):
            w = lambert_w0(z)
            assert abs(w * math.exp(w) - z) <= 1e-12 * max(1.0, abs(z))

    def test_domain(self):
        with pytest.raises(ValueError):
            lambert_w0(-1.0 / math.e - 1e-6)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_non_finite_fails_fast(self, z):
        # a ValueError before any Halley step, not an AccuracyError after 500
        with mock.patch.object(math, "exp", side_effect=AssertionError("iterated")):
            with pytest.raises(ValueError, match="finite z"):
                lambert_w0(z)

    @pytest.mark.parametrize("z", [1e307, 1e308, sys.float_info.max])
    def test_near_float_maximum(self, z):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        w = lambert_w0(z)
        assert w == pytest.approx(float(mp.lambertw(z).real), rel=1e-15)


class TestLogSumExp:
    def test_single(self):
        assert log_sum_exp([0.0]) == 0.0

    def test_pair_equal(self):
        a = -3.7
        assert log_sum_exp([a, a]) == pytest.approx(a + math.log(2.0), abs=1e-13)

    def test_neg_inf_sentinel_ignored(self):
        assert log_sum_exp([0.0, -math.inf]) == 0.0
        assert log_sum_exp([-math.inf, -math.inf]) == -math.inf

    def test_permutation_invariance(self):
        ts = [0.3, -7.0, 2.2, -0.1, 5.5]
        assert log_sum_exp(ts) == pytest.approx(log_sum_exp(ts[::-1]), abs=1e-13)

    def test_translation_covariance(self):
        ts = [0.3, -7.0, 2.2, -0.1]
        c = 123.456
        assert log_sum_exp([t + c for t in ts]) == pytest.approx(
            log_sum_exp(ts) + c, abs=1e-12)

    def test_overflow_safe(self):
        assert log_sum_exp([1e5, 1e5]) == pytest.approx(1e5 + math.log(2.0), rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            log_sum_exp([])


class TestLogBinomial:
    def test_k_zero(self):
        assert log_binomial(9, 0) == pytest.approx(0.0, abs=1e-12)

    def test_five_choose_two(self):
        assert log_binomial(5, 2) == pytest.approx(math.log(10.0), rel=1e-12)

    def test_exact_integer_oracle(self):
        # poker: C(52, 5)
        assert math.exp(log_binomial(52, 5)) == pytest.approx(
            math.comb(52, 5), rel=1e-12)

    def test_symmetry(self):
        for n, k in [(10, 3), (77, 20), (400, 111)]:
            assert log_binomial(n, k) == pytest.approx(log_binomial(n, n - k), abs=1e-12)

    @pytest.mark.parametrize("n", [10, 1000, 10 ** 10, 2 ** 53, 10 ** 17, 1e50])
    def test_large_n_vs_mpmath(self, n):
        # ln Gamma(n + 1) alone is ~n ln n: a plain lgamma difference loses
        # every digit of ln C(n, k) for n beyond 2^53
        mp = pytest.importorskip("mpmath")
        ks = {0, 1, 2, 3, 5, 29, 30, 31, 100, 10 ** 4, 10 ** 6, int(n // 3), int(n // 2)}
        if isinstance(n, int):
            ks |= {n - 1, n - 30, n}
        for k in sorted(k for k in ks if 0 <= k <= n):
            with mp.workdps(120):
                big = mp.mpf(n)
                ref = float(mp.loggamma(big + 1) - mp.loggamma(k + 1) - mp.loggamma(big - k + 1))
            got = log_binomial(n, k)
            assert abs(got - ref) <= 1e-12 * abs(ref) + (1e-15 if ref == 0 else 0.0), (n, k)

    def test_domain(self):
        with pytest.raises(ValueError):
            log_binomial(5, 6)
        with pytest.raises(ValueError):
            log_binomial(5, -1)


def lambert_w0_with_nan_exp(z: float) -> float:
    # Halley steps converge well inside 32 for every valid z, so the cap is
    # reached through an exp that returns nan: every step stays nan
    with mock.patch.object(math, "exp", lambda x: math.nan):
        return lambert_w0(z)


class TestAccuracyError:
    # one case per raise site: (call, REL_TOL, message, inputs), messages
    # pinned exactly; each call runs with specfun.MAX_ITER patched to 32
    @pytest.mark.parametrize("call,rel_tol,message,inputs", [
        (lambda: reg_gamma_q_log(900.0, 899.0), specfun.REL_TOL,
         "lower gamma series did not converge (a=900.0, x=899.0)",
         {"a": 900.0, "x": 899.0}),
        # the small-x series converges in ~20 terms unless the tolerance
        # asks for terms below 1e-300
        (lambda: reg_gamma_q_log(0.5, 0.5), 1e-300,
         "upper gamma series did not converge (a=0.5, x=0.5)",
         {"a": 0.5, "x": 0.5}),
        (lambda: reg_gamma_p_log(900.0, 902.0), specfun.REL_TOL,
         "upper gamma continued fraction did not converge (a=900.0, x=902.0)",
         {"a": 900.0, "x": 902.0}),
        (lambda: reg_beta_log(1e4, 3e4, 0.25), specfun.REL_TOL,
         "incomplete beta continued fraction did not converge (a=10000.0, b=30000.0, x=0.25)",
         {"a": 1e4, "b": 3e4, "x": 0.25}),
        # above (a + 1)/(a + b + 2) the fraction runs on I_{1-x}(b, a), and
        # the error names those arguments
        (lambda: reg_beta_log(1e4, 3e4, 0.25 + 2.0 ** -12), specfun.REL_TOL,
         "incomplete beta continued fraction did not converge "
         "(a=30000.0, b=10000.0, x=0.749755859375)",
         {"a": 3e4, "b": 1e4, "x": 0.749755859375}),
        (lambda: lambert_w0_with_nan_exp(2.0), specfun.REL_TOL,
         "lambert_w0 did not converge for z=2.0",
         {"z": 2.0}),
    ], ids=["gamma_p_series", "gamma_q_series", "gamma_q_contfrac", "beta_contfrac",
            "beta_contfrac_swapped", "lambert_w0"])
    def test_carries_inputs_and_iterations(self, monkeypatch, call, rel_tol, message, inputs):
        monkeypatch.setattr(specfun, "MAX_ITER", 32)
        monkeypatch.setattr(specfun, "REL_TOL", rel_tol)
        with pytest.raises(AccuracyError) as info:
            call()
        exc = info.value
        assert str(exc) == message
        assert exc.iterations == 32
        assert exc.inputs.keys() == inputs.keys()
        for key, want in inputs.items():
            got = exc.inputs[key]
            assert got == want or (math.isnan(got) and math.isnan(want)), key

    def test_iterations_is_the_cap_reached(self, monkeypatch):
        monkeypatch.setattr(specfun, "MAX_ITER", 100)
        with pytest.raises(AccuracyError) as info:
            reg_gamma_q_log(900.0, 899.0)
        assert info.value.iterations == 100

    def test_large_a_quadrature_panel_cap(self, monkeypatch):
        # a handful of panels suffice, so the cap is reached only when set
        # below that
        monkeypatch.setattr(specfun, "MAX_ITER", 2)
        with pytest.raises(AccuracyError) as info:
            reg_gamma_p_log(5000.0, 4999.0)
        exc = info.value
        assert str(exc) == "large-a incomplete gamma quadrature did not converge (a=5000.0, x=4999.0)"
        assert exc.inputs == {"a": 5000.0, "x": 4999.0}
        assert exc.iterations == 2


def test_log1mexp_edges():
    assert log1mexp(-math.inf) == 0.0
    assert log1mexp(0.0) == -math.inf
    assert math.exp(log1mexp(-0.1)) == pytest.approx(1.0 - math.exp(-0.1), rel=1e-13)
    assert math.exp(log1mexp(-40.0)) == pytest.approx(1.0 - math.exp(-40.0), rel=1e-13)


class TestCrossValidation:
    """Arbitrary-precision spot checks over the working parameter domain."""

    def test_incomplete_gamma_vs_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        for a in (0.05, 0.5, 1.6, 7.5, 41.0, 150.0):
            for x in (1e-6, 0.01, 0.5, 1.0, 1.05, 5.0, 100.0):
                ref = float(mp.log(mp.gammainc(a, x, mp.inf, regularized=True)))
                got = reg_gamma_q_log(a, x)
                assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (a, x)

    def test_incomplete_beta_vs_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        for a in (0.05, 1.0, 2.5, 41.0):
            for b in (0.0496, 0.5, 2.0, 9.0):
                for x in (0.001, 0.0472, 0.3, 0.7, 0.97):
                    ref = float(mp.log(mp.betainc(a, b, 0, x, regularized=True)))
                    got = reg_beta_log(a, b, x)
                    assert abs(got - ref) <= 1e-11 * max(1.0, abs(ref)), (a, b, x)
