"""Count-series ingestion, negative binomial moment fits, block-maximum laws.

Intended for event-count series such as hourly earthquake counts: fit a
negative binomial by method of moments, compute the exact distribution of
the per-block (e.g. per-day) maximum from the model's tail, and compare it
against the block maxima observed in the data and against simulation.

numpy is imported inside the two functions that use it, so importing this
module does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timezone

from .extremes import exact_max_cdf_log
from .specfun import log1mexp
from .tailmodel import DiscreteTailModel, NegativeBinomialModel, PoissonModel


# daily_max_law lists values until P(max > v) falls below LAW_TAIL_MASS,
# and refuses a tail that needs more than MAX_LAW_VALUES of them
LAW_TAIL_MASS = 1e-9
MAX_LAW_VALUES = 100_000

# blocks drawn per sampler call in simulate_daily_max; it fixes the random
# stream, so changing it changes every seeded result
SIMULATION_CHUNK = 100_000


class DataError(ValueError):
    """Malformed or unusable input data."""


@dataclass(frozen=True)
class CountSeries:
    counts: tuple
    block_size: int
    label: str = "series"

    def __post_init__(self) -> None:
        if self.block_size < 1:
            raise DataError(f"block_size must be >= 1, got {self.block_size}")
        if len(self.counts) < self.block_size:
            raise DataError(
                f"series of length {len(self.counts)} is shorter than one block "
                f"({self.block_size})")
        if any(c < 0 for c in self.counts):
            raise DataError("counts must be nonnegative")

    @property
    def n_blocks(self) -> int:
        return len(self.counts) // self.block_size


@dataclass(frozen=True)
class NBFit:
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
    """Build a CountSeries from an iterable of text lines (or a file path).

    Plain mode expects one nonnegative integer per line.  With
    bin_by="hour", lines are ISO-8601 timestamps that get tallied into
    consecutive hourly bins spanning the observed range.
    """
    if isinstance(lines, str):
        with open(lines, "r", encoding="utf-8") as fh:
            return ingest(fh.read().splitlines(), block_size, label=label, bin_by=bin_by)

    if bin_by is not None and bin_by != "hour":
        raise DataError(f"unsupported binning {bin_by!r}, expected 'hour'")

    if bin_by is None:
        counts = []
        for i, raw in enumerate(lines, start=1):
            text = raw.strip()
            if not text:
                continue
            try:
                value = int(text)
            except ValueError:
                raise DataError(f"line {i}: not an integer count: {text!r}") from None
            if value < 0:
                raise DataError(f"line {i}: negative count {value}")
            counts.append(value)
        if not counts:
            raise DataError("no counts found in input")
        return CountSeries(counts=tuple(counts), block_size=block_size, label=label)

    stamps = []
    for i, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text:
            continue
        try:
            dt = datetime.fromisoformat(text)
        except ValueError:
            raise DataError(f"line {i}: not an ISO-8601 timestamp: {text!r}") from None
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        stamps.append(int(dt.timestamp()) // 3600)
    if not stamps:
        raise DataError("no timestamps found in input")
    first, last = min(stamps), max(stamps)
    counts = [0] * (last - first + 1)
    for h in stamps:
        counts[h - first] += 1
    return CountSeries(counts=tuple(counts), block_size=block_size, label=label)


def fit_nb_moments(series: CountSeries) -> NBFit:
    """Sample-moment negative binomial fit with a Poisson fallback."""
    import numpy as np
    xs = np.asarray(series.counts, dtype=float)
    mean = float(xs.mean())
    variance = float(xs.var())
    if variance == 0.0:
        raise DataError("zero-variance series cannot be fitted")
    if variance > mean:
        p = 1.0 - mean / variance
        r = mean * mean / (variance - mean)
        return NBFit(mean=mean, variance=variance, r=r, p=p, overdispersed=True)
    return NBFit(mean=mean, variance=variance, r=None, p=None, overdispersed=False)


def daily_max_law(fit, block_size: int) -> dict:
    """Exact law {v: P(max = v)} of the maximum of block_size i.i.d. counts.

    F(v)^B = P(max <= v) comes from exact_max_cdf_log, and each step is
    F(v)^B (1 - (1 - f(v)/F(v))^B), which does not cancel where F(v) ~ 1.
    The law runs from support_min to the first v with P(max > v) below
    LAW_TAIL_MASS; a tail that needs more than MAX_LAW_VALUES values raises
    ValueError before any is listed.  Accepts an NBFit or any tail model.
    """
    model = fit.to_model() if isinstance(fit, NBFit) else fit
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    last = model.support_min + MAX_LAW_VALUES - 1
    beyond = -math.expm1(exact_max_cdf_log(model, block_size, last))
    if beyond >= LAW_TAIL_MASS:
        raise ValueError(f"the maximum of {block_size} draws from {model!r} exceeds {last} with "
                         f"probability {beyond:.3g}: its law needs more than {MAX_LAW_VALUES} values")
    law = {}
    for v in range(model.support_min, last + 1):
        log_f = exact_max_cdf_log(model, 1, v)  # ln F(v), the law of one draw
        log_cdf = block_size * log_f  # ln F(v)^B, as exact_max_cdf_log(model, block_size, v)
        # ln f(v)/F(v), at most 0; while F(v) = 0 any value gives the zero step
        log_ratio = min(model.log_pmf(v) - log_f, 0.0) if log_f > -math.inf else 0.0
        law[v] = math.exp(log_cdf) * -math.expm1(block_size * log1mexp(log_ratio))
        if -math.expm1(log_cdf) < LAW_TAIL_MASS:
            break
    return law


def empirical_daily_max(series: CountSeries) -> dict:
    """Relative frequencies of the per-block maxima (complete blocks only)."""
    b = series.block_size
    nb = series.n_blocks
    out: dict = {}
    for i in range(nb):
        mx = max(series.counts[i * b:(i + 1) * b])
        out[mx] = out.get(mx, 0) + 1
    return {v: c / nb for v, c in sorted(out.items())}


def simulate_daily_max(fit, block_size: int, trials: int, seed: int) -> dict:
    """Monte Carlo block maxima from a fitted model, SIMULATION_CHUNK blocks
    per draw, so results are reproducible for a given (trials, seed)."""
    import numpy as np
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    model = fit.to_model() if isinstance(fit, NBFit) else fit
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    out: dict = {}
    remaining = trials
    while remaining > 0:
        size = min(SIMULATION_CHUNK, remaining)
        maxima = model.sample(rng, (size, block_size)).max(axis=1)
        for v, c in zip(*np.unique(maxima, return_counts=True)):
            out[int(v)] = out.get(int(v), 0) + int(c)
        remaining -= size
    return {v: c / trials for v, c in sorted(out.items())}
