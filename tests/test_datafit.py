import math

import numpy as np
import pytest

from discmax.datafit import (
    CountSeries,
    DataError,
    NBFit,
    daily_max_law,
    empirical_daily_max,
    fit_nb_moments,
    ingest,
    simulate_daily_max,
)
from discmax.extremes import exact_max_cdf_log
from discmax.tailmodel import (
    DiscreteCauchyModel,
    EmpiricalModel,
    GeometricModel,
    NegativeBinomialModel,
    PoissonModel,
)


class TestIngest:
    def test_counts_mode(self):
        series = ingest(["0"] * 48, block_size=24)
        assert series.counts == (0,) * 48
        assert series.n_blocks == 2

    def test_malformed_row_reports_line(self):
        with pytest.raises(DataError, match="line 3"):
            ingest(["1", "2", "two", "4"], block_size=2)

    def test_negative_count_rejected(self):
        with pytest.raises(DataError, match="negative"):
            ingest(["1", "-2"], block_size=1)

    def test_blank_lines_skipped(self):
        series = ingest(["1", "", "2", "  "], block_size=2)
        assert series.counts == (1, 2)

    def test_timestamps_single_hour(self):
        lines = ["2024-05-01T13:05:00", "2024-05-01T13:59:59", "2024-05-01T13:00:00"]
        series = ingest(lines, block_size=1, bin_by="hour")
        assert series.counts == (3,)

    def test_timestamps_binned_consecutively(self):
        lines = ["2024-05-01T00:30:00", "2024-05-01T02:30:00", "2024-05-01T02:45:00"]
        series = ingest(lines, block_size=1, bin_by="hour")
        assert series.counts == (1, 0, 2)

    def test_bad_timestamp_reports_line(self):
        with pytest.raises(DataError, match="line 2"):
            ingest(["2024-05-01T00:30:00", "yesterday"], block_size=1, bin_by="hour")

    def test_from_path(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("0\n1\n0\n2\n", encoding="utf-8")
        series = ingest(str(path), block_size=2)
        assert series.counts == (0, 1, 0, 2)

    def test_series_validation(self):
        with pytest.raises(DataError):
            CountSeries(counts=(1,), block_size=24)
        with pytest.raises(DataError):
            CountSeries(counts=(1, -1), block_size=1)


class TestFitNbMoments:
    def test_overdispersed_identities(self):
        rng = np.random.default_rng(7)
        draws = rng.negative_binomial(2.0, 0.5, size=20000)  # our p = 0.5
        series = CountSeries(counts=tuple(int(v) for v in draws), block_size=24)
        fit = fit_nb_moments(series)
        assert fit.overdispersed
        assert fit.r * fit.p / (1 - fit.p) == pytest.approx(fit.mean, abs=1e-9)
        assert fit.p == pytest.approx(1 - fit.mean / fit.variance, abs=1e-12)

    def test_sparse_nb_pipeline_recovery(self):
        # r = p = 0.05 gives an extremely sparse series whose moment
        # estimates carry ~40% noise at 1e6 draws; the fixed seed keeps the
        # run deterministic and the bounds reflect that spread honestly
        r, p = 0.05, 0.05
        rng = np.random.default_rng(20240515)
        draws = rng.negative_binomial(r, 1 - p, size=10 ** 6)
        series = CountSeries(counts=tuple(int(v) for v in draws), block_size=24)
        fit = fit_nb_moments(series)
        assert fit.overdispersed
        assert 0.2 * r < fit.r < 5.0 * r
        assert 0.0 < fit.p < 0.15
        se_mean = math.sqrt(fit.variance / 10 ** 6)
        assert abs(fit.mean - r * p / (1 - p)) <= 3 * se_mean

    def test_moment_round_trip_mean(self):
        fit0 = NBFit(mean=0.8, variance=1.6, r=0.8, p=0.5, overdispersed=True)
        rng = np.random.default_rng(99)
        draws = rng.negative_binomial(fit0.r, 1 - fit0.p, size=200000)
        series = CountSeries(counts=tuple(int(v) for v in draws), block_size=24)
        fit = fit_nb_moments(series)
        se = math.sqrt(fit.variance / len(series.counts))
        assert abs(fit.mean - fit0.mean) <= 3 * se

    def test_poisson_like_fallback(self):
        rng = np.random.default_rng(3)
        draws = rng.binomial(1, 0.2, size=5000)  # variance < mean
        series = CountSeries(counts=tuple(int(v) for v in draws), block_size=10)
        fit = fit_nb_moments(series)
        assert not fit.overdispersed
        assert fit.r is None and fit.p is None
        assert isinstance(fit.to_model(), PoissonModel)

    def test_constant_series_rejected(self):
        series = CountSeries(counts=(2,) * 50, block_size=10)
        with pytest.raises(DataError):
            fit_nb_moments(series)


class TestDailyMaxLaw:
    def test_block_one_is_pmf(self):
        model = NegativeBinomialModel(0.5, 0.3)
        law = daily_max_law(model, 1)
        for v, pr in law.items():
            assert pr == pytest.approx(math.exp(model.log_pmf(v)), rel=1e-9)

    def test_point_mass(self):
        law = daily_max_law(EmpiricalModel([1.0]), 24)
        assert law == {0: pytest.approx(1.0)}

    def test_mass_sums_to_one(self):
        fit = NBFit(mean=0.5, variance=1.0, r=0.5, p=0.5, overdispersed=True)
        law = daily_max_law(fit, 24)
        assert math.fsum(law.values()) == pytest.approx(1.0, abs=1e-9)

    def test_consistent_with_exact_max_cdf(self):
        # the steps are built on exact_max_cdf_log; their running sums must
        # give it back, so no step is lost or counted twice
        model = NegativeBinomialModel(0.7, 0.4)
        law = daily_max_law(model, 24)
        running = 0.0
        for v in sorted(law):
            running += law[v]
            want = math.exp(exact_max_cdf_log(model, 24, v))
            assert running == pytest.approx(want, abs=1e-10), v

    def test_acceptance_fit_matches_scipy(self):
        # the acceptance criterion 7 fit: the law of its own inputs is
        # right, so the gap to its reference columns is in the inputs
        stats = pytest.importorskip("scipy.stats")
        r, p = 0.0496, 0.0472
        fit = NBFit(mean=r * p / (1 - p), variance=float("nan"),
                    r=r, p=p, overdispersed=True)
        law = daily_max_law(fit, 24)
        oracle = stats.nbinom(r, 1 - p)  # scipy's p is our 1 - p
        for v, pr in law.items():
            want = oracle.cdf(v) ** 24 - oracle.cdf(v - 1) ** 24
            assert pr == pytest.approx(want, abs=1e-10), v
        pct = [round(100 * law[v], 2) for v in (0, 1, 2)]
        assert pct == [94.41, 5.45, 0.14]

    def test_zero_first_atom_keeps_its_key(self):
        law = daily_max_law(EmpiricalModel([0.0, 0.5, 0.5]), 24)
        assert list(law) == [0, 1, 2]
        assert law[0] == 0.0

    def test_deep_tail_cell_and_stop_row(self):
        # 2400 hours holding four counts of 3000, fitted r ~ 0.00167 and
        # p ~ 0.99967.  By mpmath (60 digits) P(max = 44192) = 3.5543327e-13
        # and 1 - F(44193)^24 = 9.99986e-10 is the first below 1e-9, so the
        # listing ends at 44193
        counts = [0] * 2400
        for hour in (100, 700, 1300, 1900):
            counts[hour] = 3000
        law = daily_max_law(fit_nb_moments(CountSeries(tuple(counts), 24)), 24)
        assert f"{law[44192]:.8g}" == "3.5543327e-13"
        assert max(law) == 44193

    @pytest.mark.parametrize("fit,stop,cells", [
        (NBFit(mean=5000.0, variance=4900.0, r=None, p=None, overdispersed=False), 5466,
         {5129: "0.011460377", 5329: "3.2867417e-06"}),
        (NBFit(mean=5000.0, variance=5050.0, r=500000.0, p=1.0 - 5000.0 / 5050.0,
               overdispersed=True), 5468,
         {5130: "0.011401098", 5330: "3.4160253e-06"}),
    ], ids=["poisson", "negbinom"])
    def test_large_mean_fits(self, fit, stop, cells):
        # counts averaging 5000: a Poisson fallback fit and a near-Poisson
        # negative binomial (variance 1.01 x mean).  The stop row (the first
        # v with 1 - F(v)^24 < 1e-9) and the cells are from mpmath sums of
        # the pmf at 50 digits
        law = daily_max_law(fit, 24)
        assert list(law) == list(range(stop + 1))
        assert abs(math.fsum(law.values()) - 1.0) <= 1e-9
        for v, want in cells.items():
            assert f"{law[v]:.8g}" == want, v

    @pytest.mark.parametrize("fit", [
        DiscreteCauchyModel(),
        # one count of 100000 in 2400 hours
        fit_nb_moments(CountSeries((0,) * 1000 + (100000,) + (0,) * 1399, 24)),
    ], ids=["dcauchy", "one_spike"])
    def test_tail_too_long_to_list(self, fit):
        with pytest.raises(ValueError, match="its law needs more than 100000 values"):
            daily_max_law(fit, 24)


class TestEmpiricalDailyMax:
    def test_all_zero(self):
        series = CountSeries(counts=(0,) * 72, block_size=24)
        assert empirical_daily_max(series) == {0: 1.0}

    def test_single_block(self):
        series = CountSeries(counts=(0,) * 23 + (2,), block_size=24)
        assert empirical_daily_max(series) == {2: 1.0}

    def test_incomplete_trailing_block_dropped(self):
        series = CountSeries(counts=(1, 0, 0, 0, 9), block_size=2)
        out = empirical_daily_max(series)
        assert out == {0: 0.5, 1: 0.5}


# block-maximum counts out of 3000 blocks of 24 with seed 2024: numpy's
# negative_binomial(r, 1 - p) and poisson(mean) streams for these fits, so a
# change in how the draws are made shows here
PINNED_NB_COUNTS = {0: 1, 1: 163, 2: 709, 3: 873, 4: 604, 5: 339, 6: 161, 7: 78, 8: 38,
                    9: 19, 10: 8, 11: 4, 13: 2, 18: 1}
PINNED_POISSON_COUNTS = {2: 144, 3: 1186, 4: 1140, 5: 434, 6: 81, 7: 13, 8: 2}


class TestSimulateDailyMax:
    @pytest.mark.parametrize("fit, counts", [
        (NBFit(mean=0.5, variance=1.0, r=0.5, p=0.5, overdispersed=True), PINNED_NB_COUNTS),
        (NBFit(mean=1.2, variance=1.0, r=None, p=None, overdispersed=False),
         PINNED_POISSON_COUNTS),
    ], ids=["negbinom", "poisson"])
    def test_pinned_draws(self, fit, counts):
        got = simulate_daily_max(fit, 24, trials=3000, seed=2024)
        assert got == {v: c / 3000 for v, c in counts.items()}

    def test_geometric_simulates(self):
        model = GeometricModel(0.3)
        law = daily_max_law(model, 24)
        sim = simulate_daily_max(model, 24, trials=20000, seed=3)
        assert math.fsum(sim.values()) == pytest.approx(1.0, abs=1e-12)
        for v, pr in law.items():
            if pr > 0.01:
                sigma = math.sqrt(pr * (1 - pr) / 20000)
                assert abs(sim.get(v, 0.0) - pr) <= 5 * sigma, v

    @pytest.mark.parametrize("model", [DiscreteCauchyModel(), EmpiricalModel([0.5, 0.5])],
                             ids=["dcauchy", "empirical"])
    def test_models_without_sampler(self, model):
        with pytest.raises(ValueError, match="cannot simulate from model"):
            simulate_daily_max(model, 24, trials=10, seed=0)

    def test_reproducible(self):
        fit = NBFit(mean=0.5, variance=1.0, r=0.5, p=0.5, overdispersed=True)
        a = simulate_daily_max(fit, 24, trials=5000, seed=42)
        b = simulate_daily_max(fit, 24, trials=5000, seed=42)
        assert a == b

    def test_matches_theory_at_scale(self):
        fit = NBFit(mean=0.5, variance=1.0, r=0.5, p=0.5, overdispersed=True)
        law = daily_max_law(fit, 24)
        sim = simulate_daily_max(fit, 24, trials=200000, seed=11)
        for v, pr in law.items():
            if pr > 0.01:
                sigma = math.sqrt(pr * (1 - pr) / 200000)
                assert abs(sim.get(v, 0.0) - pr) <= 5 * sigma, v
