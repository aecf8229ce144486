import math
import sys
import threading
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discmax import datafit
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
    PMF_ANCHOR_STRIDE,
    DiscreteCauchyModel,
    EmpiricalModel,
    GeometricModel,
    NegativeBinomialModel,
    PoissonModel,
)


_LINE_CHARS = "0123456789+-_ \t\x1c\x85\u3000\u0663x"
_SPACE = st.sampled_from(["", " ", "\t", "\x1c", "\x85", "\u3000"])
# mostly integers, some negative, some with misplaced underscores
_COUNT_LINE = st.builds("".join, st.tuples(_SPACE, st.sampled_from(["", "+", "-"]),
                                           st.text("0123456789_\u0663", min_size=1, max_size=3),
                                           _SPACE))


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

    @pytest.mark.parametrize("bin_by, what", [(None, "counts"), ("hour", "timestamps")])
    def test_only_blank_lines_is_a_data_error(self, bin_by, what):
        with pytest.raises(DataError, match=f"^no {what} found in input$"):
            ingest(["", " "], 1, bin_by=bin_by)

    def test_unsupported_binning_is_a_data_error(self):
        with pytest.raises(DataError, match="unsupported binning 'day', expected 'hour'"):
            ingest(["2024-05-01T00:30:00"], 1, bin_by="day")

    def test_timestamps_single_hour(self):
        lines = ["2024-05-01T13:05:00", "2024-05-01T13:59:59", "2024-05-01T13:00:00"]
        series = ingest(lines, block_size=1, bin_by="hour")
        assert series.counts == (3,)

    def test_timestamps_binned_consecutively(self):
        lines = ["2024-05-01T00:30:00", "2024-05-01T02:30:00", "2024-05-01T02:45:00"]
        series = ingest(lines, block_size=1, bin_by="hour")
        assert series.counts == (1, 0, 2)

    @pytest.mark.parametrize("lines, counts", [
        # hours floor before the epoch too: -1.5 h is hour -2, not -1
        (["1969-12-31T22:59:59.5+00:00", "1969-12-31T23:00:00.5", "1969-12-31T23:30"], (1, 2)),
        # exact for any date: a float timestamp here rounds 22:59:59.999999 to 23:00
        (["9999-12-31T22:59:59.999999", "9999-12-31T23:00:00"], (1, 1)),
        # an offset is read as such; naive means UTC
        (["2024-05-01T02:30:00+02:00", "2024-05-01T01:59:59"], (1, 1)),
    ], ids=["before-1970", "year-9999", "offset"])
    def test_timestamps_binned_by_exact_hour(self, lines, counts):
        assert ingest(lines, block_size=1, bin_by="hour").counts == counts

    @pytest.mark.parametrize("bound, refused", [(None, False), (876577, False), (876576, True)],
                             ids=["default", "exact", "one-hour-short"])
    def test_span_bound(self, monkeypatch, bound, refused):
        # two events a century apart span 876577 hours
        if bound is not None:
            monkeypatch.setattr(datafit, "MAX_HOURLY_BINS", bound)
        lines = ["1900-01-01T00:00", "2000-01-01T00:00"]
        if refused:
            with pytest.raises(DataError, match="span 876577 hours, more than the 876576"):
                ingest(lines, 24, bin_by="hour")
        else:
            series = ingest(lines, 24, bin_by="hour")
            assert len(series.counts) == 876577
            assert series.counts[0] == series.counts[-1] == 1

    def test_refuses_span_before_binning(self):
        # years 1 and 9999 would need ~8.8e7 bins, over 1 GB
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="span 87649416 hours"):
                ingest(["0001-01-01T00:00", "9999-12-31T23:00"], 24, bin_by="hour")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_bad_timestamp_reports_line(self):
        with pytest.raises(DataError, match="line 2"):
            ingest(["2024-05-01T00:30:00", "yesterday"], block_size=1, bin_by="hour")

    @pytest.mark.parametrize("as_input", [str, lambda path: path], ids=["str", "pathlike"])
    def test_from_path(self, tmp_path, as_input):
        path = tmp_path / "counts.csv"
        path.write_text("0\n1\n0\n2\n", encoding="utf-8")
        series = ingest(as_input(path), block_size=2)
        assert series.counts == (0, 1, 0, 2)

    def test_byte_order_mark_skipped(self, tmp_path):
        # spreadsheets export UTF-8 with a BOM; it was read as part of line 1
        path = tmp_path / "counts.csv"
        path.write_bytes(b"\xef\xbb\xbf1\n0\n2\n")
        assert ingest(path, block_size=1).counts == (1, 0, 2)
        path.write_bytes(b"\xef\xbb\xbf2024-05-01T00:30:00\n2024-05-01T01:30:00\n")
        assert ingest(path, block_size=1, bin_by="hour").counts == (1, 1)

    def test_not_utf8_is_a_data_error(self, tmp_path):
        # UnicodeDecodeError is a ValueError, and so passed for a usage error
        path = tmp_path / "latin1.csv"
        path.write_bytes("1\n2\n# caf\u00e9\n".encode("latin-1"))
        with pytest.raises(DataError, match="latin1.csv is not UTF-8 text: .* byte 0xe9"):
            ingest(path, block_size=1)

    def test_unopenable_path_raises_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ingest(tmp_path / "missing.csv", block_size=1)
        with pytest.raises(IsADirectoryError):
            ingest(tmp_path, block_size=1)

    def test_series_validation(self):
        with pytest.raises(DataError):
            CountSeries(counts=(1,), block_size=24)
        with pytest.raises(DataError):
            CountSeries(counts=(1, -1), block_size=1)

    @pytest.mark.parametrize("block_size", [0, -3])
    def test_block_size_below_one_is_not_a_data_fault(self, block_size):
        with pytest.raises(ValueError, match="block_size must be >= 1") as exc:
            CountSeries(counts=(1, 2, 3), block_size=block_size)
        assert not isinstance(exc.value, DataError)

    @settings(deadline=None)
    @given(st.lists(st.one_of(_COUNT_LINE, st.sampled_from(["", " ", "7", "-0"])), max_size=30),
           st.lists(st.text(_LINE_CHARS, max_size=4), max_size=2), st.integers(0, 30))
    def test_memoised_parse_matches_the_line_loop(self, lines, junk, at):
        # each distinct line is parsed once; the counts and the error are
        # those of int(line.strip()) line by line, blanks skipped
        lines[at:at] = junk
        want = []
        try:
            for i, line in enumerate(lines, start=1):
                if not (text := line.strip()):
                    continue
                try:
                    value = int(text)
                except ValueError:
                    raise DataError(f"line {i}: not an integer count: {text!r}") from None
                if value < 0:
                    raise DataError(f"line {i}: negative count {value}")
                want.append(value)
            if not want:
                raise DataError("no counts found in input")
        except DataError as exc:
            with pytest.raises(DataError) as got:
                ingest(lines, 1)
            assert str(got.value) == str(exc)
        else:
            assert ingest(lines, 1).counts == tuple(want)

    def test_lines_that_are_not_str(self):
        with pytest.raises(AttributeError):
            ingest(["1", 2.5], 1)
        with pytest.raises(DataError, match="^line 1: not an integer count: 'x'$"):
            ingest(["x", 2.5], 1)
        assert ingest([b"1", b" 2 ", "3", b""], 1).counts == (1, 2, 3)
        lines = (line for line in ["4", "", "5", "4"])
        assert ingest(lines, 1).counts == (4, 5, 4)
        assert next(lines, None) is None
        with pytest.raises(DataError, match="^line 3: negative count -1$"):
            ingest(iter(["1", "2", "-1", "y"]), 1)


class TestCountSeries:
    @pytest.mark.parametrize("counts", [
        (0.5, 1.5, 0.0, 2.0),
        (0, 1, 2.0, 3),
        (0, 1, np.float64(2.0), 3),
        (0, Fraction(1), 2, 3),
    ], ids=["floats", "one_float", "numpy_float", "fraction"])
    def test_non_integer_counts_are_a_data_error(self, counts):
        # (0.5, 1.5, 0.0, 2.0) was accepted, and fit_nb_moments then raised
        # TypeError
        with pytest.raises(DataError, match="counts must be integers"):
            CountSeries(counts=counts, block_size=2)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint64, np.int64])
    def test_numpy_integer_counts_accepted(self, dtype):
        counts = tuple(np.array([0, 1, 0, 3], dtype=dtype))
        assert CountSeries(counts=counts, block_size=2).counts == (0, 1, 0, 3)
        # a numpy block size is kept as a Python int: block offsets past 127
        # overflowed an int8
        series = CountSeries(counts=(0,) * 398 + (1, 3), block_size=dtype(2))
        assert type(series.block_size) is int
        assert empirical_daily_max(series) == {0: 199 / 200, 3: 1 / 200}
        with pytest.raises(DataError, match="nonnegative"):
            CountSeries(counts=(np.int64(1), np.int64(-1)), block_size=1)


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

    def test_moments_are_exactly_rounded(self):
        # mean 7/5 and variance (5 * 49 - 7^2) / 5^2 = 7.84; numpy's
        # two-pass var gives 7.839999999999999, one ulp below
        fit = fit_nb_moments(CountSeries(counts=(0, 0, 7, 0, 0), block_size=1))
        assert fit.mean == 1.4
        assert fit.variance == float(Fraction(196, 25)) == 7.84

    @pytest.mark.parametrize("scale", [1, 3 ** 20, 2 ** 40], ids=["small", "3^20", "2^40"])
    def test_numpy_int64_counts_do_not_wrap(self, scale):
        # at 2^40 the squares pass 2^63; summed in int64 they would wrap
        base = [0, 1, 0, 0, 3, 1, 0, 7, 0, 2]
        counts = tuple(np.array(base, dtype=np.int64) * scale)
        n, xs = len(base), [Fraction(c * scale) for c in base]
        mean = sum(xs) / n
        fit = fit_nb_moments(CountSeries(counts=counts, block_size=2))
        assert fit.mean == float(mean)
        assert fit.variance == float(sum((x - mean) ** 2 for x in xs) / n)
        assert fit == fit_nb_moments(CountSeries(counts=tuple(map(int, counts)), block_size=2))

    def test_moments_past_the_float_range_are_a_data_error(self):
        series = CountSeries(counts=(0, 0, 10 ** 200, 0), block_size=2)
        with pytest.raises(DataError, match="moments of these counts overflow a float"):
            fit_nb_moments(series)

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
    @pytest.mark.parametrize("block_size", [2.5, 24.0])
    def test_block_size_must_be_an_integer(self, block_size):
        # 2.5 gave the steps of F^2.5 as if they were a law
        with pytest.raises(ValueError, match=f"^block_size must be an integer, got {block_size}$"):
            daily_max_law(PoissonModel(1.0), block_size)
        assert daily_max_law(PoissonModel(1.0), np.int64(24)) == daily_max_law(PoissonModel(1.0), 24)

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
        # the steps are built from pmf sums, not from exact_max_cdf_log;
        # their running sums must still give it back, so no step is lost or
        # counted twice
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

    def test_long_law_cells_match_mpmath(self):
        # the same 44194-row law: each step from the pmf sums is within
        # 1e-12 relative of an mpmath (60 digits) sum of the pmf.  A tail
        # evaluation per row was 4e-12..6.6e-11 off here, from the
        # incomplete beta's swapped branch
        counts = [0] * 2400
        for hour in (100, 700, 1300, 1900):
            counts[hour] = 3000
        law = daily_max_law(fit_nb_moments(CountSeries(tuple(counts), 24)), 24)
        for v, want in {300: 1.1236868379292502881e-4, 1000: 2.7777946094039106442e-5,
                        2000: 1.0123299392367232749e-5}.items():
            assert abs(law[v] - want) <= 1e-12 * want, v

    def test_one_tail_evaluation_per_bisection_step(self, monkeypatch):
        # the zero-heavy fit's 628 rows: the refusal check at the last
        # listable value, 17 bisection steps below it and G(end), where a
        # tail evaluation per row made 629 calls
        calls = []
        log_tail = NegativeBinomialModel.log_tail
        monkeypatch.setattr(NegativeBinomialModel, "log_tail",
                            lambda self, v: calls.append(v) or log_tail(self, v))
        law = daily_max_law(NegativeBinomialModel(0.00116, 43.0 / 44.0), 24)
        assert len(law) > 500
        assert len(calls) <= 20

    @pytest.mark.parametrize("model,every_row", [
        (PoissonModel(60.0), False),
        (PoissonModel(800.0), False),  # e^-800 underflows: the rows below v = 21 are re-anchored
        (NegativeBinomialModel(300.0, 0.6), True),
    ], ids=["poisson", "poisson_underflow", "negbinom"])
    def test_log_pmf_calls(self, monkeypatch, model, every_row):
        # the law's rows and the simulation's rows (with the one that ends
        # them) read the pmf run: a Poisson fit takes one log_pmf per 64 rows
        # and one after each value below the normal floats (2 and 37 calls
        # for the two Poisson laws, not 118 and 991); other models one a row
        rows = {"law": len(daily_max_law(model, 24)), "cdf": len([*datafit._cdf_rows(model)]) + 1}
        run = list(islice(model.pmf_from(0), max(rows.values())))
        calls = []
        log_pmf = model.log_pmf
        monkeypatch.setattr(model, "log_pmf", lambda v: calls.append(v) or log_pmf(v))
        for table, build in (("law", lambda: daily_max_law(model, 24)),
                             ("cdf", lambda: [*datafit._cdf_rows(model)])):
            calls.clear()
            build()
            n = rows[table]
            below_normal = sum(f < sys.float_info.min for f in run[:n - 1])
            if every_row:
                assert len(calls) == n, table
            else:
                assert len(calls) <= -(-n // PMF_ANCHOR_STRIDE) + below_normal, table

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

    @pytest.mark.parametrize("block", [1, 2, 24, "all"])
    def test_blocks_are_the_slices(self, block):
        # 24 * 41 + 17 counts: blocks of 2 and of 24 leave a partial last block
        rng = np.random.default_rng(5)
        counts = tuple(rng.negative_binomial(0.5, 0.4, size=24 * 41 + 17).tolist())
        b = len(counts) if block == "all" else block
        nb = len(counts) // b
        maxima = Counter(max(counts[i * b:(i + 1) * b]) for i in range(nb))
        want = {v: c / nb for v, c in sorted(maxima.items())}
        got = empirical_daily_max(CountSeries(counts=counts, block_size=b))
        assert list(got.items()) == list(want.items())


# block-maximum counts out of 3000 blocks of 24 with seed 2024, under
# block-maximum stream version 3 (uniforms from SeedSequence(2024,
# spawn_key=(3,)), one per block), so a change in how the draws are made
# shows here
PINNED_NB_COUNTS = {0: 1, 1: 134, 2: 712, 3: 893, 4: 618, 5: 335, 6: 159, 7: 78, 8: 37,
                    9: 19, 10: 10, 11: 2, 12: 2}
PINNED_POISSON_COUNTS = {1: 1, 2: 116, 3: 1195, 4: 1201, 5: 388, 6: 85, 7: 13, 8: 1}
PINNED_FITS = [
    (NBFit(mean=0.5, variance=1.0, r=0.5, p=0.5, overdispersed=True), PINNED_NB_COUNTS),
    (NBFit(mean=1.2, variance=1.0, r=None, p=None, overdispersed=False), PINNED_POISSON_COUNTS),
]


class _ConstantUniforms:
    """Stands in for numpy's Generator: every uniform is `value`, as a
    broadcast view, so nothing is drawn or allocated; records each shape."""

    def __init__(self, value: float):
        self.value = value
        self.shapes = []

    def random(self, size):
        u = np.broadcast_to(np.float64(self.value), size)
        self.shapes.append(u.shape)
        return u


def _stub_generator(monkeypatch, value: float) -> _ConstantUniforms:
    stub = _ConstantUniforms(value)
    monkeypatch.setattr(np.random, "default_rng", lambda *args: stub)
    return stub


class TestSimulateDailyMax:
    @pytest.mark.parametrize("fit, counts", PINNED_FITS, ids=["negbinom", "poisson"])
    def test_pinned_draws(self, fit, counts):
        got = simulate_daily_max(fit, 24, trials=3000, seed=2024)
        assert got == {v: c / 3000 for v, c in counts.items()}

    @pytest.mark.parametrize("fit, counts", PINNED_FITS, ids=["negbinom", "poisson"])
    def test_pins_are_a_per_block_lookup_on_scipy(self, fit, counts):
        # each block's uniform looked up in scipy's CDF raised to the block
        # size, P(max <= v) = F(v)^24: the same histogram, count for count
        stats = pytest.importorskip("scipy.stats")
        dist = (stats.nbinom(fit.r, 1.0 - fit.p) if fit.overdispersed  # scipy's p is our 1 - p
                else stats.poisson(fit.mean))
        rng = np.random.default_rng(np.random.SeedSequence(2024, spawn_key=(3,)))
        blocks = np.searchsorted(dist.cdf(np.arange(100)) ** 24, rng.random(3000), side="right")
        values, hits = np.unique(blocks, return_counts=True)
        assert dict(zip(values.tolist(), hits.tolist())) == counts

    # blocks per call; 3000 draws every block in one call
    @pytest.mark.parametrize("draws", [1, 7, 1000 + 23, 3000])
    def test_calls_do_not_define_the_stream(self, monkeypatch, draws):
        monkeypatch.setattr(datafit, "SIMULATION_DRAWS", draws)
        fit = NBFit(mean=0.5, variance=1.0, r=0.5, p=0.5, overdispersed=True)
        got = simulate_daily_max(fit, 24, trials=3000, seed=2024)
        assert got == {v: c / 3000 for v, c in PINNED_NB_COUNTS.items()}

    @pytest.mark.parametrize("block", [1, 24, 10 ** 6])
    def test_calls_hold_at_most_the_bound(self, monkeypatch, block):
        # one uniform per block, SIMULATION_DRAWS blocks a call, whatever the block size
        stub = _stub_generator(monkeypatch, 0.0)
        draws = datafit.SIMULATION_DRAWS
        got = simulate_daily_max(PoissonModel(1.0), block, trials=2 * draws + 4, seed=0)
        assert list(got.values()) == [1.0]  # every block takes the first row of F^block > 0
        assert stub.shapes == [(draws,)] * 2 + [(4,)]

    @pytest.mark.parametrize("block", [24, 10 ** 6])
    def test_calls_bound_memory(self, block):
        # a call holds SIMULATION_DRAWS uniforms and their table indices,
        # whatever the block size: a block's 10^6 hourly doubles are 8 MB
        fit = NBFit(mean=0.5, variance=1.0, r=0.5, p=0.5, overdispersed=True)
        simulate_daily_max(fit, 24, trials=10, seed=1)  # numpy's own first-use allocations
        tracemalloc.start()
        try:
            simulate_daily_max(fit, block, trials=100_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * datafit.SIMULATION_DRAWS * 8, peak

    def test_starts_no_thread(self, monkeypatch):
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self))
        fit = NBFit(mean=0.5, variance=1.0, r=0.5, p=0.5, overdispersed=True)
        simulate_daily_max(fit, 24, trials=100_000, seed=1)
        assert started == []

    @pytest.mark.parametrize("block", [1, 24, 10 ** 6])
    def test_table_ends_below_the_largest_uniform(self, monkeypatch, block):
        # the zero-heavy fit: its forward pmf sum stops short of 1 - 2^-53,
        # so a block whose uniform is the largest one takes the table's last row
        model = NegativeBinomialModel(0.0012, 0.975)
        *_, last_sum = datafit._cdf_rows(model)
        assert last_sum < 1.0 - 2.0 ** -53
        _stub_generator(monkeypatch, 1.0 - 2.0 ** -53)
        got = simulate_daily_max(model, block, trials=5, seed=0)
        [(v, share)] = got.items()
        assert share == 1.0
        # the rows end where the tail falls below 2^-53, one value past v
        assert model.log_tail(v + 1) < -53 * math.log(2.0) <= model.log_tail(v)

    @pytest.mark.parametrize("model", [GeometricModel(0.3), NegativeBinomialModel(2.0, 0.3)],
                             ids=["geometric", "busy"])
    def test_million_hour_blocks(self, model):
        # a block of 10^6 costs one uniform, as a block of 24 does
        law = daily_max_law(model, 10 ** 6)
        sim = simulate_daily_max(model, 10 ** 6, trials=20000, seed=7)
        assert math.fsum(sim.values()) == pytest.approx(1.0, abs=1e-12)
        cells = [(v, pr) for v, pr in law.items() if pr > 0.01]
        assert len(cells) >= 3
        for v, pr in cells:
            sigma = math.sqrt(pr * (1 - pr) / 20000)
            assert abs(sim.get(v, 0.0) - pr) <= 5 * sigma, v

    def test_geometric_simulates(self):
        model = GeometricModel(0.3)
        law = daily_max_law(model, 24)
        sim = simulate_daily_max(model, 24, trials=20000, seed=3)
        assert math.fsum(sim.values()) == pytest.approx(1.0, abs=1e-12)
        for v, pr in law.items():
            if pr > 0.01:
                sigma = math.sqrt(pr * (1 - pr) / 20000)
                assert abs(sim.get(v, 0.0) - pr) <= 5 * sigma, v

    @pytest.mark.parametrize("model", [
        EmpiricalModel([0.5, 0.5]),
        # a zero atom inside the support, and a pmf one part in 1e10 short of 1
        EmpiricalModel([0.2, 0.0, 0.5, 0.2999999999], support_min=3),
    ], ids=["two_atoms", "gap"])
    def test_models_without_sampler(self, model):
        # no model carries a sampler; the table of its pmf sums simulates it
        law = daily_max_law(model, 3)
        sim = simulate_daily_max(model, 3, trials=20000, seed=5)
        assert set(sim) <= {v for v, pr in law.items() if pr > 0.0}
        for v, pr in law.items():
            sigma = math.sqrt(pr * (1 - pr) / 20000)
            assert abs(sim.get(v, 0.0) - pr) <= 5 * sigma, v

    @pytest.mark.parametrize("fit", [
        DiscreteCauchyModel(),
        fit_nb_moments(CountSeries((0,) * 1000 + (100000,) + (0,) * 1399, 24)),
    ], ids=["dcauchy", "one_spike"])
    def test_refuses_what_the_law_refuses(self, monkeypatch, fit):
        stub = _stub_generator(monkeypatch, 0.0)
        with pytest.raises(ValueError, match="its law needs more than 100000 values"):
            simulate_daily_max(fit, 24, trials=10, seed=0)
        assert stub.shapes == []

    def test_one_tail_evaluation_before_drawing(self, monkeypatch):
        # the refusal is one exact_max_cdf_log call; a bisection for the
        # law's end row, which the draws never used, made 17 more
        calls = []
        tail = datafit.exact_max_cdf_log
        monkeypatch.setattr(datafit, "exact_max_cdf_log", lambda *a: calls.append(a) or tail(*a))
        stub = _stub_generator(monkeypatch, 0.0)
        draw, calls_at_draws = stub.random, []
        monkeypatch.setattr(stub, "random", lambda size: calls_at_draws.append(len(calls))
                            or draw(size))
        simulate_daily_max(NegativeBinomialModel(0.00116, 43 / 44), 24, trials=10, seed=0)
        assert calls_at_draws == [1]

    @pytest.mark.parametrize("block_size, trials, message", [
        (24, 2.5, "trials must be an integer, got 2.5"),
        (24, 10.0, "trials must be an integer, got 10.0"),
        (2.5, 10, "block_size must be an integer, got 2.5"),
    ])
    def test_refuses_sizes_not_integers(self, monkeypatch, block_size, trials, message):
        stub = _stub_generator(monkeypatch, 0.0)
        with pytest.raises(ValueError, match=f"^{message}$"):
            simulate_daily_max(PoissonModel(1.2), block_size, trials=trials, seed=0)
        assert stub.shapes == []
        # numpy integers are integers, taken as Python ints: an int8 block
        # size cannot overflow in the sampler's arithmetic
        simulate_daily_max(PoissonModel(1.2), np.int8(24), trials=np.int64(10), seed=0)
        assert stub.shapes == [(10,)]

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True])
    def test_refuses_seed_not_a_nonnegative_int(self, monkeypatch, seed):
        stub = _stub_generator(monkeypatch, 0.0)
        with pytest.raises(ValueError, match="seed must be a nonnegative int"):
            simulate_daily_max(PoissonModel(1.2), 24, trials=10, seed=seed)
        assert stub.shapes == []
        # the stub does see the draws of a valid seed
        simulate_daily_max(PoissonModel(1.2), 24, trials=10, seed=0)
        assert stub.shapes == [(10,)]

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
