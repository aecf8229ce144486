"""Count-series ingestion, negative binomial moment fits, block-maximum laws.

Intended for event-count series such as hourly earthquake counts: fit a
negative binomial by method of moments, compute the exact distribution of
the per-block (e.g. per-day) maximum from the model's tail, and compare it
against the block maxima observed in the data and against simulation.

The simulation draws each block's maximum directly, by inversion of its
law F(v)^B: one uniform per block, looked up in a table of the powers of
the forward sums of the model's pmf run (``pmf_from``), F(v) =
f(support_min) + ... + f(v).  The table grows as far as the largest
uniform drawn, and ends where a pmf term no longer changes the sum and
P(X > v) < 2^-53.  The exact law shares these sums below its median, so
the simulation checks its steps, upper half and end row, not the pmf run.
Its uniforms are block-maximum stream version 3,
SeedSequence(entropy=seed, spawn_key=(3,)), drawn on the calling thread.

numpy is imported inside simulate_daily_max only: importing this module,
ingesting, fitting and listing laws leave it unloaded.
"""

from __future__ import annotations

import math
import operator
import os
from bisect import bisect_left
from collections import Counter
from itertools import accumulate, islice

from .extremes import exact_max_cdf_log
from .record import Record, check_int
from .tailmodel import _LOG_TABLE_TAIL, DiscreteTailModel, NegativeBinomialModel, PoissonModel


# daily_max_law lists values until P(max > v) falls below LAW_TAIL_MASS,
# and refuses a tail that needs more than MAX_LAW_VALUES of them
LAW_TAIL_MASS = 1e-9
MAX_LAW_VALUES = 100_000

# blocks simulate_daily_max draws per call, one uniform each.  It bounds
# memory only (a call holds ~16 bytes a block); the seeded stream is the same
# however the blocks are split into calls.  Measured on the two benchmark
# fits, 10^5 blocks of 24 each (best-worst of 5 medians of 10 calls, 2-core
# Xeon): 2^12 took 3.2-3.4 ms (zero-heavy) and 2.3-2.5 ms (busy), 2^14 to
# 2^17 3.0-3.3 and 2.2-2.3 ms; the traced peak is 1.05 MB at 2^16.
SIMULATION_DRAWS = 2 ** 16

# hourly bins ingest(..., bin_by="hour") builds at most (~456 years); at the
# bound, ingest, fit_nb_moments and empirical_daily_max of two timestamps
# take ~0.55 s and ~76 MB of peak RSS (Python 3.11, 2 cores), ~15 bytes a bin
MAX_HOURLY_BINS = 4_000_000


class DataError(ValueError):
    """Malformed or unusable input data."""


class CountSeries(Record):
    counts: tuple
    block_size: int
    label: str = "series"

    def __post_init__(self) -> None:
        # kept as a Python int: block offsets past 127 overflow a numpy int8
        object.__setattr__(self, "block_size", check_int("block_size", self.block_size, 1))
        if len(self.counts) < self.block_size:
            raise DataError(
                f"series of length {len(self.counts)} is shorter than one block "
                f"({self.block_size})")
        try:
            least = min(map(operator.index, self.counts))  # numpy integers pass, floats do not
        except TypeError as exc:
            raise DataError(f"counts must be integers: {exc}") from None
        if least < 0:
            raise DataError("counts must be nonnegative")

    @property
    def n_blocks(self) -> int:
        return len(self.counts) // self.block_size


class NBFit(Record):
    """Method-of-moments negative binomial fit.

    Overdispersed data (variance > mean) yields p = 1 - mean/variance and
    r = mean^2/(variance - mean), so that r p/(1-p) reproduces the mean.
    Otherwise the fit falls back to a Poisson with the sample mean and
    r, p are None.
    """

    mean: float
    variance: float
    r: float | None
    p: float | None
    overdispersed: bool

    def to_model(self) -> DiscreteTailModel:
        if self.overdispersed:
            return NegativeBinomialModel(self.r, self.p)
        return PoissonModel(self.mean)


def ingest(lines, block_size: int, label: str = "series", bin_by: str | None = None) -> CountSeries:
    """Build a CountSeries from an iterable of text lines, or from a file
    path (str or os.PathLike) of UTF-8 text, its leading byte-order mark
    skipped (other bytes raise DataError); blank lines are skipped.

    Plain mode expects one nonnegative integer per line.  With
    bin_by="hour", lines are ISO-8601 timestamps (naive ones in UTC),
    tallied into consecutive hourly bins spanning the observed range by
    their hour since the epoch, floored: exact for any date.  A range of
    more than MAX_HOURLY_BINS hours raises DataError before any bin is made.
    Each distinct line is parsed once, so a series that repeats a few dozen
    counts costs a dictionary lookup per line.
    """
    if isinstance(lines, (str, os.PathLike)):
        try:
            with open(lines, "r", encoding="utf-8-sig") as fh:
                lines = fh.read().splitlines()
        except UnicodeDecodeError as exc:
            raise DataError(f"{os.fspath(lines)} is not UTF-8 text: {exc}") from None

    if bin_by is None:
        read, what = int, "an integer count"
    elif bin_by == "hour":
        from datetime import datetime, timedelta, timezone
        naive_epoch, hour = datetime(1970, 1, 1), timedelta(hours=1)
        epoch = naive_epoch.replace(tzinfo=timezone.utc)

        def read(text: str) -> int:
            dt = datetime.fromisoformat(text)
            return (dt - (naive_epoch if dt.tzinfo is None else epoch)) // hour
        what = "an ISO-8601 timestamp"
    else:
        raise DataError(f"unsupported binning {bin_by!r}, expected 'hour'")

    values, seen = [], {}  # a line's value, parsed once per distinct line
    for i, raw in enumerate(lines, start=1):
        value = seen.get(raw)
        if value is None:
            text = raw.strip()
            if not text:
                continue
            try:
                value = read(text)
            except ValueError:
                raise DataError(f"line {i}: not {what}: {text!r}") from None
            if value < 0 and bin_by is None:
                raise DataError(f"line {i}: negative count {value}")
            seen[raw] = value
        values.append(value)
    if not values:
        raise DataError(f"no {'counts' if bin_by is None else 'timestamps'} found in input")
    if bin_by is not None:  # hours since the epoch, tallied from the first
        first = min(values)
        span = max(values) - first + 1
        if span > MAX_HOURLY_BINS:
            raise DataError(f"timestamps span {span} hours, more than the {MAX_HOURLY_BINS} "
                            "hourly bins a series may hold")
        counts = [0] * span
        for h in values:
            counts[h - first] += 1
        values = counts
    return CountSeries(counts=tuple(values), block_size=block_size, label=label)


def fit_nb_moments(series: CountSeries) -> NBFit:
    """Sample-moment negative binomial fit with a Poisson fallback.  From the
    exact sums S = sum c and Q = sum c^2 of the n counts, of any integer
    type: mean = S/n and variance = (nQ - S^2)/n^2, each rounded once."""
    n, s, q = len(series.counts), 0, 0
    for value, times in Counter(series.counts).items():
        value = operator.index(value)  # a Python int, so int64 squares cannot wrap
        s, q = s + times * value, q + times * value * value
    try:
        mean, variance = s / n, (n * q - s * s) / (n * n)
    except OverflowError:
        raise DataError("the moments of these counts overflow a float") from None
    if variance == 0.0:
        raise DataError("zero-variance series cannot be fitted")
    if variance <= mean:
        return NBFit(mean=mean, variance=variance, r=None, p=None, overdispersed=False)
    return NBFit(mean=mean, variance=variance, r=mean * mean / (variance - mean),
                 p=1.0 - mean / variance, overdispersed=True)


def _law_model(fit, block_size: int) -> tuple:
    """(model, block_size as an int) for fit, an NBFit or a model; ValueError
    for a block_size that is no integer >= 1, or where P(max > v) is still
    LAW_TAIL_MASS or more at v = support_min + MAX_LAW_VALUES - 1."""
    model = fit.to_model() if isinstance(fit, NBFit) else fit
    block_size = check_int("block_size", block_size, 1)
    last = model.support_min + MAX_LAW_VALUES - 1
    beyond = -math.expm1(exact_max_cdf_log(model, block_size, last))
    if beyond >= LAW_TAIL_MASS:
        raise ValueError(f"the maximum of {block_size} draws from {model!r} exceeds {last} with "
                         f"probability {beyond:.3g}: its law needs more than {MAX_LAW_VALUES} values")
    return model, block_size


def daily_max_law(fit, block_size: int) -> dict:
    """Exact law {v: P(max = v)} of the maximum of block_size i.i.d. counts.

    Rows run from support_min to end, the first v with P(max > v) below
    LAW_TAIL_MASS, found here by bisection once _law_model has refused, with
    ValueError, a bad block_size and a law of more than MAX_LAW_VALUES rows.
    With f the pmf run, F(v) is the forward sum of f below the median and
    1 - G(v) above, G summed down from G(end), one tail evaluation: nothing
    cancels in F(v)^B (1 - (1 - f(v)/F(v))^B).  Takes an NBFit or any model.
    """
    model, block_size = _law_model(fit, block_size)
    first = model.support_min
    # the first v with P(max > v) < LAW_TAIL_MASS; _law_model found that the
    # last listable v is one
    end = first + bisect_left(range(first, first + MAX_LAW_VALUES - 1), True, key=lambda v:
                              -math.expm1(exact_max_cdf_log(model, block_size, v)) < LAW_TAIL_MASS)
    values = range(first, end + 1)
    pmf = list(islice(model.pmf_from(first), len(values)))
    tails = list(accumulate(reversed(pmf[1:]), initial=math.exp(model.log_tail(end))))[::-1]
    law = {}
    for v, f, forward, g in zip(values, pmf, accumulate(pmf), tails):
        if g < 0.5:  # above the median: F(v) = 1 - G(v), F(v)^B from ln(1 - G(v))
            cdf, cdf_b = 1.0 - g, math.exp(block_size * math.log1p(-g))
        else:
            cdf, cdf_b = forward, forward ** block_size
        # f = F at the first row with mass, where the step is F^B; F = 0 gives 0
        law[v] = cdf_b * -math.expm1(block_size * math.log1p(-f / cdf)) if f < cdf else cdf_b
    return law


def empirical_daily_max(series: CountSeries) -> dict:
    """Relative frequencies of the per-block maxima (complete blocks only)."""
    nb = series.n_blocks
    # block_size references to one iterator: zip takes consecutive blocks
    # and stops before an incomplete last one
    maxima = Counter(map(max, zip(*[iter(series.counts)] * series.block_size)))
    return {v: c / nb for v, c in sorted(maxima.items())}


def _cdf_rows(model: DiscreteTailModel):
    """F(v) for v = support_min, support_min + 1, ...: forward sums of the
    model's pmf run, ending before the first v whose pmf no longer changes
    the sum and whose tail ln P(X > v) is below _LOG_TABLE_TAIL; every
    model with a proper tail gets there."""
    total = 0.0
    for v, f in enumerate(model.pmf_from(model.support_min), model.support_min):
        before, total = total, total + f
        if total == before and model.log_tail(v) < _LOG_TABLE_TAIL:
            return
        yield total


def simulate_daily_max(fit, block_size: int, trials: int, seed: int) -> dict:
    """Monte Carlo block maxima from a fitted model, reproducible for a given
    (fit, block_size, trials, seed).  Refuses, with ValueError and before
    any draw, what daily_max_law refuses, by _law_model's one tail
    evaluation; only daily_max_law bisects for the law's end row.

    A block's maximum M has P(M <= v) = F(v)^B, B = block_size, F(v) the
    forward pmf sums from support_min.  Each block is drawn by inversion of
    that law: one uniform u, and the value v with F(v - 1)^B <= u < F(v)^B,
    found by a search in the table of those powers.  This is the law of the
    largest of B uniforms looked up in F, drawn with one uniform instead of
    B, so the cost of a block does not grow with B.  The table grows only as
    far as the largest uniform drawn so far, and ends where a pmf term no
    longer changes the sum and P(X > v) < 2^-53; a uniform past its last row
    takes the last row's value.  Per block this misplaces at most B times
    the rounding of the pmf sum (~1e-14 of probability per unit of B).

    Block-maximum stream version 3: the uniforms come from the single
    stream SeedSequence(entropy=seed, spawn_key=(3,)), one per block, in
    calls of at most SIMULATION_DRAWS blocks on the calling thread.  Each
    double takes one PCG64 word, so the seeded result does not depend on
    how the blocks are split into calls.
    """
    import numpy as np

    trials = check_int("trials", trials, 1)
    if type(seed) is not int or seed < 0:
        raise ValueError(f"seed must be a nonnegative int, got {seed!r}")
    model, block_size = _law_model(fit, block_size)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(3,)))
    rows = _cdf_rows(model)
    steps = [next(rows) ** block_size]  # F(v)^B
    # F(v)^B below the last row: a uniform past the last row takes the last row
    inner, tally = np.zeros(0), np.zeros(0, dtype=np.int64)
    for done in range(0, trials, SIMULATION_DRAWS):
        u = rng.random(min(SIMULATION_DRAWS, trials - done))
        if steps[-1] <= (largest := u.max()):
            while steps[-1] <= largest and (row := next(rows, None)) is not None:
                steps.append(row ** block_size)
            inner = np.array(steps[:-1])
        hits = np.bincount(np.searchsorted(inner, u, side="right"), minlength=len(steps))
        hits[:len(tally)] += tally
        tally = hits
    return {model.support_min + int(i): int(tally[i]) / trials for i in np.flatnonzero(tally)}
