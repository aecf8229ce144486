import math
import random
import re

import pytest

from discmax.tailmodel import (
    DiscreteCauchyModel,
    DiscreteTailModel,
    EmpiricalModel,
    GeometricModel,
    NegativeBinomialModel,
    PoissonModel,
    make_model,
)


def builtin_models():
    return [
        PoissonModel(1.0),
        PoissonModel(0.1),
        NegativeBinomialModel(2.0, 0.3),
        NegativeBinomialModel(0.5, 0.6),
        GeometricModel(0.5),
        DiscreteCauchyModel(),
        # support off zero, and a pmf short of 1 by less than the 1e-9 the
        # constructor accepts: the tail at support_min - 1 is still exactly 1
        EmpiricalModel([0.5, 0.5 - 5e-10], support_min=3),
    ]


def infinite_support_models():
    """The built-in models whose tails stay positive and whose parameters
    rebuild them through make_model."""
    return [m for m in builtin_models() if m.name != "empirical"]


class TestLogPmf:
    def test_poisson_at_zero(self):
        assert PoissonModel(1.0).log_pmf(0) == pytest.approx(-1.0, abs=1e-14)

    def test_poisson_direct_formula(self):
        want = math.log(math.exp(-2.0) * 8.0 / 6.0)
        assert PoissonModel(2.0).log_pmf(3) == pytest.approx(want, rel=1e-13)

    def test_negbinom_at_zero(self):
        m = NegativeBinomialModel(2.5, 0.3)
        assert m.log_pmf(0) == pytest.approx(2.5 * math.log(0.7), rel=1e-13)

    def test_negbinom_mean_convention(self):
        # mean r p/(1-p), checked against the pmf by direct summation
        m = NegativeBinomialModel(1.5, 0.4)
        mean = math.fsum(k * math.exp(m.log_pmf(k)) for k in range(400))
        assert mean == pytest.approx(1.5 * 0.4 / 0.6, rel=1e-10)

    def test_geometric(self):
        m = GeometricModel(0.25)
        assert m.log_pmf(3) == pytest.approx(math.log(0.75 * 0.25 ** 3), rel=1e-13)

    @pytest.mark.parametrize("model", [
        PoissonModel(1.0), NegativeBinomialModel(2.0, 0.3), GeometricModel(0.5),
        DiscreteCauchyModel(), EmpiricalModel([0.5, 0.5], support_min=3)], ids=lambda m: m.name)
    def test_domain(self, model):
        # the models implement _log_pmf only: the base class refuses k below
        # the support
        edge = model.support_min
        with pytest.raises(ValueError, match=f"support starts at {edge}, got k={edge - 1}") as raised:
            model.log_pmf(edge - 1)
        assert raised.traceback[-1].frame.code.raw is DiscreteTailModel.log_pmf.__code__
        assert "_log_pmf" in type(model).__dict__

    def test_pmfs_sum_to_one(self):
        for m in builtin_models():
            total = math.fsum(math.exp(m.log_pmf(k))
                              for k in range(m.support_min, m.support_min + 4000))
            tol = {"dcauchy": 1e-3,  # 1/k^2 tail truncation
                   "empirical": 1e-9}.get(m.name, 1e-10)  # the accepted normalization error
            assert total == pytest.approx(1.0, abs=tol), m.name


class TestLogTail:
    def test_below_support_is_one(self):
        for m in builtin_models():
            assert m.log_tail(m.support_min - 1) == 0.0, m
            with pytest.raises(ValueError):
                m.log_tail(m.support_min - 2)

    def test_poisson_partial_sum(self):
        # P(X > 4), lam = 1: 1 - e^-1 (1 + 1 + 1/2 + 1/6 + 1/24)
        want = math.log(1.0 - math.exp(-1.0) * (65.0 / 24.0))
        assert PoissonModel(1.0).log_tail(4) == pytest.approx(want, rel=1e-12)

    def test_geometric_closed_form(self):
        m = GeometricModel(0.5)
        for k in (0, 3, 10, 100):
            assert m.log_tail(k) == pytest.approx((k + 1) * math.log(0.5), rel=1e-14)

    def test_pmf_tail_consistency(self):
        # F(k-1) - F(k) = pmf(k) over the first 50 support points
        for m in infinite_support_models():
            for k in range(50):
                diff = math.exp(m.log_tail(k - 1)) - math.exp(m.log_tail(k))
                assert diff == pytest.approx(math.exp(m.log_pmf(k)), abs=1e-10), m.name

    def test_strictly_decreasing(self):
        for m in infinite_support_models():
            vals = [m.log_tail(k) for k in range(60)]
            assert all(b < a for a, b in zip(vals, vals[1:])), m.name


class TestDiscreteCauchy:
    def test_normalizer_oracle(self):
        # sum_{k>=0} 1/(1+k^2) = (1 + pi coth pi)/2
        want = (1.0 + math.pi / math.tanh(math.pi)) / 2.0
        m = DiscreteCauchyModel()
        assert math.exp(-m._log_norm) == pytest.approx(want, rel=1e-12)

    def test_tail_vs_direct_sum(self):
        m = DiscreteCauchyModel()
        for k in (0, 5, 31, 32, 100):
            direct = math.fsum(1.0 / (1.0 + j * j) for j in range(k + 1, 200000))
            direct += math.pi / 2 - math.atan(199999.5)  # midpoint closure
            assert math.exp(m.log_tail(k)) == pytest.approx(
                direct * math.exp(m._log_norm), rel=1e-11)

    def test_tail_sum_vs_digamma(self):
        # sum_{j>=m} 1/(1+j^2) = Im psi(m + i); pi/2 - atan(m) in the
        # closure lost 1.3e-4 relative at m = 1e12 and 11 % at 1e15
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        for m in [0, 1, 5, 31, 32, 33, 100] + [10 ** e for e in range(3, 16)] + [3 * 10 ** 15]:
            ref = mp.im(mp.digamma(m + 1j))
            rel = float(abs(DiscreteCauchyModel._tail_sum(m) / ref - 1))
            # the closure is truncated at the 5th derivative: ~3e-14 at the
            # cutoff 32, rounding only from m = 1000 on
            assert rel <= (1e-15 if m >= 1000 else 5e-14), (m, rel)


class TestExtensions:
    def test_integer_agreement_calibrated(self):
        # natural and loglinear extensions reproduce the true tail at integers
        for base in infinite_support_models():
            for ext in ("natural", "loglinear"):
                m = make_model(base.name, base.params, ext)
                for k in range(0, 30):
                    assert abs(m.log_tail_ext(float(k)) - m.log_tail(k)) <= 1e-10, (
                        base.name, ext, k)

    def test_asymptotic_not_calibrated(self):
        # the table-reproduction form undershoots the true Poisson tail by
        # the correction-series factor; it is deliberately uncalibrated
        m = PoissonModel(1.0, extension="asymptotic")
        gap = m.log_tail(5) - m.log_tail_ext(5.0)
        assert gap > 0.1

    def test_loglinear_midpoint(self):
        m = PoissonModel(1.0, extension="loglinear")
        for k in range(0, 12):
            want = 0.5 * (m.log_tail(k) + m.log_tail(k + 1))
            assert m.log_tail_ext(k + 0.5) == pytest.approx(want, abs=1e-12)

    def test_non_increasing(self):
        for base in infinite_support_models():
            for ext in ("natural", "loglinear"):
                m = make_model(base.name, base.params, ext)
                xs = [base.support_min - 1 + 0.25 * i for i in range(120)]
                vals = [m.log_tail_ext(x) for x in xs]
                assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:])), (base.name, ext)

    def test_midpoint_log_convexity_where_it_holds(self):
        # holds when tail ratios F(k+1)/F(k) are nondecreasing: geometric
        # (exactly linear), negative binomial with r < 1, discrete Cauchy.
        # Poisson tails steepen (ratios decrease), so they are excluded.
        models = [
            GeometricModel(0.5),
            NegativeBinomialModel(0.5, 0.6),
            DiscreteCauchyModel(),
        ]
        for m in models:
            for i in range(60):
                a = m.support_min + 0.25 * i
                b = a + 3.0
                mid = 0.5 * (a + b)
                lhs = m.log_tail_ext(mid)
                rhs = 0.5 * (m.log_tail_ext(a) + m.log_tail_ext(b))
                assert lhs <= rhs + 1e-9, (m.name, a)

    def test_extension_ratio_approaches_gamma(self):
        # G(x+1)/G(x) is monotone in x and tends to the tail-ratio limit
        cases = [
            (PoissonModel(1.0), 0.0),
            (NegativeBinomialModel(2.0, 0.3), 0.3),
            (GeometricModel(0.5), 0.5),
            (DiscreteCauchyModel(), 1.0),
        ]
        for m, gamma in cases:
            ratios = [math.exp(m.log_tail_ext(x + 1.0) - m.log_tail_ext(x))
                      for x in (10.0, 20.0, 40.0)]
            diffs = [abs(r - gamma) for r in ratios]
            assert diffs[0] >= diffs[1] - 1e-12 and diffs[1] >= diffs[2] - 1e-12, m.name
            increasing = all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))
            decreasing = all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))
            assert increasing or decreasing, m.name

    def test_support_edge_for_every_extension(self):
        # G = 1 at support_min - 1 and undefined below it, whatever the
        # extension; the asymptotic form alone would give e^-lam there
        models = [PoissonModel(2.0, "asymptotic")]
        for ext in ("natural", "loglinear"):
            models += [make_model(m.name, m.params, ext) for m in infinite_support_models()]
            models.append(EmpiricalModel([0.5, 0.5], support_min=3, extension=ext))
        for m in models:
            assert m.log_tail_ext(m.support_min - 1.0) == 0.0, m
            with pytest.raises(ValueError):
                m.log_tail_ext(m.support_min - 1.5)

    @pytest.mark.parametrize("cls, args", [
        (NegativeBinomialModel, (2.0, 0.3)), (GeometricModel, (0.5,)), (DiscreteCauchyModel, ()),
        (EmpiricalModel, ([0.5, 0.5],)),
    ], ids=["negbinom", "geometric", "dcauchy", "empirical"])
    def test_asymptotic_requires_poisson(self, cls, args):
        with pytest.raises(ValueError, match=f"^the asymptotic extension is not defined "
                                             f"for the {cls.name} model$"):
            cls(*args, extension="asymptotic")

    def test_extension_is_the_models_method(self):
        # the base class names no model: a model that defines
        # _log_tail_asymptotic gets the asymptotic extension
        class Squared(GeometricModel):
            def _log_tail_asymptotic(self, x):
                return 2.0 * self._log_tail(x)

        model = Squared(0.5, "asymptotic")
        assert model.log_tail_ext(2.5) == 2.0 * GeometricModel(0.5).log_tail_ext(2.5)
        assert model.log_tail_ext(-1.0) == 0.0  # the base class keeps the support edge

    def test_unknown_extension(self):
        with pytest.raises(ValueError):
            PoissonModel(1.0, extension="spline")


class TestTailRatioGamma:
    def test_analytic_values(self):
        assert PoissonModel(3.0).tail_ratio_gamma() == 0.0
        assert NegativeBinomialModel(2.0, 0.3).tail_ratio_gamma() == 0.3
        assert GeometricModel(0.7).tail_ratio_gamma() == 0.7
        assert DiscreteCauchyModel().tail_ratio_gamma() == 1.0

    def test_empirical_ratio_limits(self):
        # numerical tail ratios of the true models approach the analytic gamma
        m = NegativeBinomialModel(2.0, 0.3)
        r60 = math.exp(m.log_tail(61) - m.log_tail(60))
        assert r60 == pytest.approx(0.3, abs=0.01)


class TestEmpirical:
    def test_validation(self):
        with pytest.raises(ValueError):
            EmpiricalModel([0.5, 0.4])  # does not sum to 1
        with pytest.raises(ValueError):
            EmpiricalModel([1.2, -0.2])
        with pytest.raises(ValueError):
            EmpiricalModel([])
        # nan passes both p < 0 and the sum check
        with pytest.raises(ValueError, match="entries must be nonnegative"):
            EmpiricalModel([0.5, math.nan, 0.5])

    def test_tail_exactly_zero_beyond_support(self):
        m = EmpiricalModel([0.25, 0.25, 0.5])
        assert m.log_tail(2) == -math.inf
        assert m.log_tail(10) == -math.inf
        assert math.exp(m.log_tail(0)) == pytest.approx(0.75, rel=1e-12)

    def test_truncated_geometric_gamma_stabilizes(self):
        q = 0.5
        probs = [(1 - q) * q ** k for k in range(40)]
        probs.append(1.0 - math.fsum(probs))  # remainder atom keeps the sum at 1
        m = EmpiricalModel(probs)
        d = m.gamma_diagnostic
        assert d.stable
        assert m.tail_ratio_gamma() == pytest.approx(q, abs=1e-3)

    def test_irregular_pmf_flags_nonconvergence(self):
        m = EmpiricalModel([0.4, 0.1, 0.3, 0.1, 0.1])
        assert not m.gamma_diagnostic.stable
        with pytest.warns(RuntimeWarning):
            m.tail_ratio_gamma()

    @pytest.mark.parametrize("weights", [
        [rng.uniform(0.5, 1.5) * 0.995 ** i for rng in [random.Random(2000)]
         for i in range(2000)],
        # zero and subnormal atoms
        [0.5, 0.0, 5e-324, 0.25, 0.0, 2.5e-310, 1e-300],
        # atoms spread over 300 decades
        [rng.random() * 10.0 ** -rng.randrange(300) for rng in [random.Random(6)]
         for _ in range(3000)],
    ], ids=["decaying", "subnormal", "300-decades"])
    def test_suffix_sums_match_fsum(self, weights):
        # the one-pass exact suffix sums round like fsum over each suffix
        total = math.fsum(weights)
        probs = [w / total for w in weights]
        m = EmpiricalModel(probs)
        assert m._tails == [math.fsum(probs[i:]) for i in range(len(probs))] + [0.0]

    def test_support_min_offset(self):
        m = EmpiricalModel([0.5, 0.5], support_min=3)
        assert m.log_pmf(3) == pytest.approx(math.log(0.5))
        assert m.log_tail(2) == 0.0
        with pytest.raises(ValueError):
            m.log_pmf(2)

    @pytest.mark.parametrize("support_min", [2.5, 3.0, math.inf, math.nan, "3"])
    def test_support_min_not_an_integer(self, support_min):
        # 2.5 was truncated to 2, and inf raised OverflowError
        message = re.escape(f"support_min must be an integer, got {support_min!r}")
        with pytest.raises(ValueError, match=message):
            EmpiricalModel([0.5, 0.5], support_min=support_min)
        # make_model passes the ValueError through, not as "bad parameters"
        with pytest.raises(ValueError, match=message):
            make_model("empirical", {"probabilities": [0.5, 0.5], "support_min": support_min})


class TestMakeModel:
    def test_round_trip_spec_records(self):
        m = make_model("poisson", {"lam": 2.0}, "asymptotic")
        assert isinstance(m, PoissonModel) and m.lam == 2.0
        m = make_model("negbinom", {"r": 1.5, "p": 0.2})
        assert isinstance(m, NegativeBinomialModel) and m.extension == "natural"
        m = make_model("empirical", {"probabilities": [0.5, 0.5]})
        assert m.extension == "loglinear"

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            make_model("zeta", {})

    @pytest.mark.parametrize("name, params, fragment", [
        ("poisson", {}, "missing 1 required positional argument: 'lam'"),
        ("poisson", {"lam": 1.0, "foo": 2.0}, "unexpected keyword argument 'foo'"),
        ("dcauchy", {"lam": 1.0}, "unexpected keyword argument 'lam'"),
        ("geometric", {"q": [0.5, 0.3]}, "not supported between instances"),
        ("empirical", {"probabilities": 0.5}, "'float' object is not iterable"),
    ])
    def test_bad_params_value_error(self, name, params, fragment):
        with pytest.raises(ValueError, match=f"bad parameters .* for model '{name}'") as exc:
            make_model(name, params)
        assert fragment in str(exc.value)

    @pytest.mark.parametrize("build", [
        lambda v: PoissonModel(v),
        lambda v: NegativeBinomialModel(v, 0.5),
    ], ids=["poisson", "negbinom"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_parameter_value_error(self, build, value):
        with pytest.raises(ValueError, match=f"must be positive and finite, got {value}"):
            build(value)

    @pytest.mark.parametrize("build, message", [
        (lambda: NegativeBinomialModel(2.0, 1.0), "negative binomial p must be in (0, 1), got 1.0"),
        (lambda: GeometricModel(1.0), "geometric q must be in (0, 1), got 1.0"),
    ], ids=["negbinom", "geometric"])
    def test_probability_of_one_value_error(self, build, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()
