"""Workload `allocation`: exact enumeration and allocation Monte Carlo.

Nearly all time is in allocsim.  The sparse and dense specs use the same
`simulate` in opposite ways (160 draws over 16000 boxes per trial, against
10^6 draws over 10^5 boxes, whose draw arrays are larger than L2), so a
change that helps one has to show what it costs the other.
"""

from __future__ import annotations

import random
import time

from discmax import allocsim, extremes, tailmodel

from common import NUMPY, PYTHON, binomial_bound, median

# criterion-4 grid: boxes x balls x mixing parameters; then the current cap
ENUM_GRID = ([(boxes, balls, "multinomial", {"lam": lam})
              for boxes in (2, 3, 4) for balls in range(2, 9) for lam in (0.3, 1.0, 2.0)]
             + [(boxes, balls, "dirichlet", {"r": r, "p": 0.4})
                for boxes in (2, 3, 4) for balls in range(2, 9) for r in (0.5, 1.0, 2.0)])
CAP_GRID = [(allocsim.ENUMERATION_MAX_BOXES, allocsim.ENUMERATION_MAX_BALLS, kind, {})
            for kind in allocsim.KINDS]

# label -> (boxes, balls, kind, r, trials per pass, matched model, x_sigfigs)
SPECS = {
    "sparse": (16000, 160, "multinomial", None, 3000,
               lambda: tailmodel.PoissonModel(0.01, "asymptotic"), 6),
    "dense": (100_000, 1_000_000, "multinomial", None, 40,
              lambda: tailmodel.PoissonModel(10.0, "asymptotic"), 6),
    "dirichlet": (2000, 2000, "dirichlet", 1.0, 1000,
                  lambda: tailmodel.NegativeBinomialModel(1.0, 0.5), None),
}

# The theory column of the sparse spec is the n -> infinity law; at n = 16000,
# k = 160 the exact finite-n frequencies differ from it by about 1e-3
# (P(max = 1) is 0.45038 by the birthday product, against p_n = 0.44924).
FINITE_N_SLACK = 0.01


def draws_per_trial(label: str) -> int:
    """Random variates one trial consumes, computed from the spec: one
    integer per ball for the multinomial; one gamma weight and one
    binomial per box for the Dirichlet mixture."""
    boxes, balls, kind, *_ = SPECS[label]
    return balls if kind == "multinomial" else 2 * boxes


def setup(seed: int, work) -> dict:
    rng = random.Random(f"allocation:{seed}")
    return {"seeds": {label: rng.randrange(2 ** 32) for label in SPECS}}


def _enumerate(grid) -> list:
    return [(boxes, balls, kind, allocsim.enumerate_conditional(boxes, balls, kind, **kw))
            for boxes, balls, kind, kw in grid]


def _simulate(label: str, seed: int) -> dict:
    boxes, balls, kind, r, trials, model, sigfigs = SPECS[label]
    prof = extremes.profile(model(), boxes, x_sigfigs=sigfigs)
    spec = allocsim.AllocationSpec(n_boxes=boxes, n_balls=balls, kind=kind, trials=trials,
                                   seed=seed, r=r)
    t0 = time.perf_counter()
    summary = allocsim.simulate(spec, prof)
    simulate_s = time.perf_counter() - t0
    report = allocsim.merging_report(spec, prof, summary=summary)
    return {"summary": summary, "report": report, "simulate_s": simulate_s}


def run_pass(inputs: dict, clock) -> dict:
    """A pass takes ~2 s, so each of its five steps is a unit of its own:
    the machine speed is sampled around each, enumeration (exact rational
    arithmetic) by the Python probe and simulation by the numpy probe."""
    enum = (clock.time("enumerate.criterion4", PYTHON, _enumerate, ENUM_GRID)[3]
            + clock.time("enumerate.cap", PYTHON, _enumerate, CAP_GRID)[3])
    sims = {}
    for label in SPECS:
        norm, wall, _, sims[label] = clock.time(f"simulate.{label}", NUMPY, _simulate, label,
                                                inputs["seeds"][label])
        sims[label]["factor"] = norm / wall
    return {"enum": enum, "sims": sims}


def traced_pass(inputs: dict, clock, tracer) -> dict:
    return tracer.run(run_pass, inputs, clock)


def check(inputs: dict, outputs: dict, ck) -> None:
    for boxes, balls, kind, law in outputs["enum"]:
        worst = max(abs(a - c) for a, c in law.values())
        mass = sum(a for a, _ in law.values())
        ck.expect(worst <= 1e-12 and abs(mass - 1.0) <= 1e-12,
                  f"enumerate {boxes}x{balls} {kind}: columns differ by {worst:.3g}, mass {mass}")

    sparse = outputs["sims"]["sparse"]
    trials = sparse["summary"].trials
    for row in sparse["report"]:
        if row["quantity"].startswith(("max_eq_anchor", "ties_eq_")):
            bound = binomial_bound(row["theory"], trials, FINITE_N_SLACK)
            ck.expect(row["abs_error"] <= bound,
                      f"sparse {row['quantity']}: {row['empirical']:.4f} vs theory "
                      f"{row['theory']:.4f} (bound {bound:.4f})")

    dense = outputs["sims"]["dense"]["summary"]
    ck.expect(dense.cluster_freq < 0.9, f"dense cluster_freq {dense.cluster_freq} not < 0.9")

    dirichlet = outputs["sims"]["dirichlet"]["summary"]
    for name in ("max_histogram", "tie_histogram", "ge_anchor_histogram"):
        mass = sum(getattr(dirichlet, name).values())
        ck.expect(mass == dirichlet.trials, f"dirichlet {name} holds {mass} of {dirichlet.trials}")


def layer_metrics(inputs: dict, untraced: list) -> dict:
    """Simulation rates over the untraced passes (medians, each simulate
    call normalised by the factor of its step), and draws per pass."""
    out = {}
    for label in SPECS:
        trials = SPECS[label][4]
        seconds = median(o["sims"][label]["simulate_s"] * o["sims"][label]["factor"]
                         for o, _ in untraced)
        out[f"allocsim.simulate.{label}.trials_per_s"] = trials / seconds
    out["allocsim.simulate.draws"] = sum(SPECS[label][4] * draws_per_trial(label)
                                         for label in SPECS)
    return out
