"""Workload `blockmax`: block maxima of hourly count series.

Two seeded negative binomial series run through ingest -> fit_nb_moments ->
daily_max_law -> empirical_daily_max -> simulate_daily_max (block 24):

* zero_heavy: mean ~0.05 per hour in rare bursts, so ~90 % of 24-hour
  blocks are all zero (the shape of the earthquake example); given as ISO
  timestamps, one line per event, and binned by hour;
* busy: NB(r=2, p=0.3), almost no block is all zero; one count per line.

A sampler change that only helps all-zero blocks shows on the first
series and not on the second; `zero_block_frac` measures the share.
"""

from __future__ import annotations

import math
import time
from datetime import datetime, timedelta, timezone

import numpy as np

from discmax import datafit

from common import NUMPY, binomial_bound, median

HOURS = 100_000
BLOCK = 24
TRIALS = 100_000          # simulated blocks per series per pass
EPOCH = datetime(2010, 1, 1, tzinfo=timezone.utc)

# label -> (NB r, NB p in the package's convention: mean r p / (1 - p), bin_by)
SERIES = {
    "zero_heavy": (0.00116, 43.0 / 44.0, "hour"),
    "busy": (2.0, 0.3, None),
}


def _timestamps(rng, counts) -> list:
    """One ISO-8601 line per event, sorted, seconds drawn within the hour.
    Half the lines carry an explicit +00:00 offset, half are naive (UTC)."""
    lines = []
    for hour in np.flatnonzero(counts):
        base = EPOCH + timedelta(hours=int(hour))
        for sec in np.sort(rng.integers(0, 3600, size=int(counts[hour]))):
            stamp = base + timedelta(seconds=int(sec))
            lines.append(stamp.isoformat() if rng.random() < 0.5
                         else stamp.replace(tzinfo=None).isoformat())
    return lines


def setup(seed: int, work) -> dict:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0xB10C,)))
    inputs = {}
    for label, (r, p, bin_by) in SERIES.items():
        counts = rng.negative_binomial(r, 1.0 - p, size=HOURS)
        if bin_by == "hour":
            lines = _timestamps(rng, counts)
            nonzero = np.flatnonzero(counts)
            # hourly binning spans the observed range, first to last event
            expected = counts[nonzero[0]:nonzero[-1] + 1]
        else:
            lines = [str(int(c)) for c in counts]
            expected = counts
        inputs[label] = {"lines": lines, "bin_by": bin_by,
                         "expected": tuple(int(c) for c in expected),
                         "seed": int(rng.integers(2 ** 32))}
    return inputs


def run_pass(inputs: dict, clock) -> dict:
    # nearly all of a pass is in the numpy sampler
    return clock.time("pass", NUMPY, _blockmax, inputs)[3]


def traced_pass(inputs: dict, clock, tracer) -> dict:
    return tracer.run(run_pass, inputs, clock)


def _blockmax(inputs: dict) -> dict:
    out = {}
    for label, inp in inputs.items():
        t0 = time.perf_counter()
        series = datafit.ingest(inp["lines"], BLOCK, label=label, bin_by=inp["bin_by"])
        ingest_s = time.perf_counter() - t0
        fit = datafit.fit_nb_moments(series)
        law = datafit.daily_max_law(fit, BLOCK)
        empirical = datafit.empirical_daily_max(series)
        t0 = time.perf_counter()
        simulated = datafit.simulate_daily_max(fit, BLOCK, TRIALS, inp["seed"])
        out[label] = {"series": series, "fit": fit, "law": law, "empirical": empirical,
                      "simulated": simulated, "simulate_s": time.perf_counter() - t0,
                      "ingest_s": ingest_s}
    return out


def check(inputs: dict, outputs: dict, ck) -> None:
    for label, res in outputs.items():
        series = res["series"]
        ck.expect(series.counts == inputs[label]["expected"],
                  f"{label}: ingested counts differ from the generated series")
        fit = res["fit"]
        ck.expect(fit.overdispersed and fit.r > 0.0 and 0.0 < fit.p < 1.0
                  and math.isclose(fit.r * fit.p / (1.0 - fit.p), fit.mean, rel_tol=1e-9),
                  f"{label}: fit {fit}")
        mass = math.fsum(res["law"].values())
        ck.expect(abs(mass - 1.0) <= 1e-9, f"{label}: block-maximum law mass {mass}")

        counts, nb = series.counts, series.n_blocks
        maxima = {}
        for i in range(nb):
            mx = max(counts[i * BLOCK:(i + 1) * BLOCK])
            maxima[mx] = maxima.get(mx, 0) + 1
        ck.expect(res["empirical"] == {v: c / nb for v, c in sorted(maxima.items())},
                  f"{label}: empirical block maxima differ from a direct count")

        sim = res["simulated"]
        ck.expect(abs(math.fsum(sim.values()) - 1.0) <= 1e-9, f"{label}: simulated mass")
        # 5 sigma per value, plus 5 counts for values the law makes rare
        for v in sorted(set(sim) | {v for v, pr in res["law"].items() if pr * TRIALS >= 1.0}):
            theory = res["law"].get(v, 0.0)
            bound = binomial_bound(theory, TRIALS, 5.0 / TRIALS)
            ck.expect(abs(sim.get(v, 0.0) - theory) <= bound,
                      f"{label} max={v}: simulated {sim.get(v, 0.0):.5f} vs law {theory:.5f}")


def layer_metrics(inputs: dict, untraced: list) -> dict:
    """Parser times and sampler rates from the untraced (outputs,
    normalising factor) pairs (medians); the share of all-zero simulated
    blocks per series."""
    out = {}
    for label, parser in (("zero_heavy", "timestamps"), ("busy", "integers")):
        out[f"datafit.ingest.{parser}.total_s"] = median(o[label]["ingest_s"] * f
                                                         for o, f in untraced)
    for label in SERIES:
        seconds = median(o[label]["simulate_s"] * f for o, f in untraced)
        out[f"datafit.simulate_daily_max.{label}.draws_per_s"] = TRIALS * BLOCK / seconds
        out[f"datafit.simulate_daily_max.{label}.zero_block_frac"] = (
            untraced[0][0][label]["simulated"].get(0, 0.0))
    return out
