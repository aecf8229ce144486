"""Workload `tables`: the reference-table use of the analytic core.

Every call goes extremes.profile -> tailmodel.log_tail_ext -> specfun; no
numpy and no Monte Carlo, so sampler changes must leave it flat.
"""

from __future__ import annotations

import math
import random
import sys

from discmax import extremes, tailmodel

from common import PYTHON, stratified_log_grid

ROWS_PER_MODEL = 480      # seeded n values per model, on top of the reference rows
EMPIRICAL_ATOMS = 3000
PHASE_CS = (0.5, 2.0)

# criterion 1: Poisson(1), asymptotic extension, x_n at 6 significant digits
PROFILE_TABLE = [
    (1e3, 4.63591, 5, 0.58694674, 5e-6),
    (1e4, 5.84299, 6, 0.47741767, 5e-6),
    (1e5, 6.95712, 7, 0.40055502, 5e-6),
    (1e6, 8.00608, 8, 0.36296353, 5e-6),
    (1e9, 10.89530, 11, 0.46225972, 5e-6),
    (1e50, 40.0255, 40, 0.333090, 5e-4),
]
# gamma = 0 rows that also get order statistics at the tie phase depths.
# They are fixed, not seeded: the depth ceil(c z_n) jumps by orders of
# magnitude between neighbouring n, and so would the cost of a pass.
ORDER_STAT_NS = (1e3, 1e4, 1e5, 1e6, 1e9, 1e50)
# criterion 2: Poisson(0.01), asymptotic extension, n = 2000 * 2^i
OSCILLATION_NS = [2000.0 * 2 ** i for i in range(9)]
OSCILLATION_COLUMN = [0.8902, 0.8039, 0.6602, 0.4492, 0.2106, 0.0469, 0.0023, 0.0000, 0.9103]

# (label, model factory, x_sigfigs, first n); Poisson(0.01) starts at the
# first criterion-2 row, below which m_n = 0 and the tie depths exceed n
MODELS = (
    ("poisson1_asymptotic", lambda: tailmodel.PoissonModel(1.0, "asymptotic"), 6, 1e3),
    ("poisson0.01_asymptotic", lambda: tailmodel.PoissonModel(0.01, "asymptotic"), 6, 2e3),
    ("poisson1_natural", lambda: tailmodel.PoissonModel(1.0, "natural"), None, 1e3),
    ("poisson1_loglinear", lambda: tailmodel.PoissonModel(1.0, "loglinear"), None, 1e3),
    ("negbinom2_0.3_natural", lambda: tailmodel.NegativeBinomialModel(2.0, 0.3), None, 1e3),
    ("geometric0.5", lambda: tailmodel.GeometricModel(0.5), None, 1e3),
)


def empirical_atoms(rng) -> tuple:
    """A seeded pmf: a geometric(0.99) decay with +-50 % noise on each atom,
    the shape of a histogram built from data."""
    weights = [rng.uniform(0.5, 1.5) * 0.99 ** i for i in range(EMPIRICAL_ATOMS)]
    total = math.fsum(weights)
    return tuple(w / total for w in weights)


def setup(seed: int, work) -> dict:
    rng = random.Random(f"tables:{seed}")
    grids = {}
    for label, _, _, lo in MODELS:
        fixed = [n for n in ORDER_STAT_NS if n >= lo]
        if label == "poisson0.01_asymptotic":
            fixed += OSCILLATION_NS
        grids[label] = stratified_log_grid(rng, lo, 1e50, ROWS_PER_MODEL, fixed)
    atoms = empirical_atoms(rng)
    # the empirical tail is bounded: G reaches its last positive value,
    # P(X = last atom), at the second-to-last atom, so n must stay below
    # 1/P(X = last atom) for the crossing to exist
    grids["empirical"] = stratified_log_grid(rng, 1e3, 0.5 / atoms[-1], ROWS_PER_MODEL)
    return {"grids": grids, "atoms": atoms}


def run_pass(inputs: dict, clock) -> dict:
    return clock.time("pass", PYTHON, _tables, inputs)[3]


def traced_pass(inputs: dict, clock, tracer) -> dict:
    return tracer.run(run_pass, inputs, clock)


def _tables(inputs: dict) -> dict:
    grids = inputs["grids"]
    out = {}
    for label, factory, sigfigs, _ in MODELS:
        model = factory()
        out[label] = _scan_rows(model, grids[label], sigfigs)
    model = tailmodel.EmpiricalModel(inputs["atoms"])
    out["empirical"] = _scan_rows(model, grids["empirical"], None)
    return out


def _scan_rows(model, ns, sigfigs) -> dict:
    scan = extremes.scan_oscillation(model, ns, x_sigfigs=sigfigs)
    result = {"model": model, "sigfigs": sigfigs, "scan": scan, "ties": [], "order": []}
    if scan.rows[0].regime is extremes.Regime.GAMMA_ZERO:
        result["ties"] = [extremes.tie_distribution(prof, 3) for prof in scan.rows]
        for prof in (r for r in scan.rows if r.n in ORDER_STAT_NS):
            depths = [extremes.tie_phase_threshold(prof, c) for c in PHASE_CS]
            values = [extremes.exact_order_stat_cdf_log(model, prof.n, k, prof.m_n - 1)
                      for k in depths]
            result["order"].append((prof, depths, values))
    return result


def check(inputs: dict, outputs: dict, ck) -> None:
    for label, res in outputs.items():
        rows = res["scan"].rows
        ck.expect([r.n for r in rows] == inputs["grids"][label], f"{label}: scan rows != grid")
        ck.expect(all(b.x_n >= a.x_n for a, b in zip(rows, rows[1:])),
                  f"{label}: x_n decreases along the scan")
        for r in rows:
            ck.expect(0.0 <= r.p_n <= 1.0, f"{label} n={r.n:g}: p_n={r.p_n} outside [0, 1]")
            if res["sigfigs"] is None:
                resid = abs(res["model"].log_tail_ext(r.x_n) + math.log(r.n))
                ck.expect(resid <= 1e-6, f"{label} n={r.n:g}: root residual {resid:.3g}")
        for ties in res["ties"]:
            total = math.fsum(ties.exactly.values())
            ck.expect(total <= 1.0 + 1e-12 and min(ties.exactly.values()) >= -1e-12,
                      f"{label}: tie law sums to {total}")
        for prof, depths, values in res["order"]:
            ck.expect(values[1] >= values[0] - 1e-12,
                      f"{label} n={prof.n:g}: order-statistic cdf {values} decreases with depth "
                      f"{depths}")
            if prof.n > 2.0 ** 53:
                continue
            lt = res["model"].log_tail(prof.m_n - 1)
            # lgamma(n + 1) in the program's binomial rounds by ~eps n ln n
            tol = 1e-9 + 8.0 * sys.float_info.epsilon * prof.n * math.log(prof.n)
            for k, v in zip(depths, values):
                ref = _binomial_cdf_log(prof.n, lt, k)
                ck.expect(abs(v - ref) <= tol, f"{label} n={prof.n:g} k={k}: order-statistic "
                                               f"cdf {v} vs {ref} by term ratios")
    _check_references(outputs, ck)


def _binomial_cdf_log(n: float, log_q: float, k: int) -> float:
    """ln P(Binomial(n, q) <= k), summed from P(0) = (1 - q)^n by the term
    ratio (n - j + 1) q / (j (1 - q)): no binomial coefficients, so it is
    independent of the program's log_binomial."""
    log_1mq = math.log1p(-math.exp(log_q))
    terms = [n * log_1mq]
    for j in range(1, k + 1):
        terms.append(terms[-1] + math.log((n - j + 1) / j) + log_q - log_1mq)
    top = max(terms)
    return top + math.log(math.fsum(math.exp(t - top) for t in terms))


def _check_references(outputs: dict, ck) -> None:
    by_n = {r.n: r for r in outputs["poisson1_asymptotic"]["scan"].rows}
    for n, x_ref, m_ref, p_ref, p_tol in PROFILE_TABLE:
        r = by_n[n]
        ck.expect(abs(r.x_n - x_ref) <= 5e-4 and r.m_n == m_ref and abs(r.p_n - p_ref) <= p_tol,
                  f"criterion 1 n={n:g}: x={r.x_n} m={r.m_n} p={r.p_n}")
    scan = outputs["poisson0.01_asymptotic"]["scan"]
    by_n = {r.n: r for r in scan.rows}
    for n, ref, m_ref in zip(OSCILLATION_NS, OSCILLATION_COLUMN, [1] * 8 + [2]):
        r = by_n[n]
        ck.expect(abs(r.p_n - ref) <= 5e-4 and r.m_n == m_ref,
                  f"criterion 2 n={n:g}: p={r.p_n} m={r.m_n}")
    first = scan.breakpoints[0] if scan.breakpoints else None
    ck.expect(first is not None and 256000 <= first < 512000,
              f"criterion 2: first breakpoint {first} outside [256000, 512000)")


def layer_metrics(inputs: dict, untraced: list) -> dict:
    return {}
