"""Workload `cli`: a fixed mix of `python -m discmax` invocations.

The only workload where interpreter start-up and `import discmax` dominate.
One pass is one cycle of MIX invocations, run one after another, each a
fresh child process; most are pure-math commands (profile, ties, scan),
and one each is a small numpy command (simulate, fit).  Every invocation
prints JSON, which must equal what the library returns for the same
inputs.
"""

from __future__ import annotations

import json
import math
import random
import sys

from discmax import allocsim, datafit, extremes, tailmodel

from common import BENCH, WORK, median, percentile, run_child

MIX = {"profile": 8, "ties": 6, "scan": 4, "simulate": 1, "fit": 1}
SCAN_POINTS = 40
FIT_HOURS = 2400
FIT_TRIALS = 2000
SIM_BOXES, SIM_BALLS, SIM_TRIALS = 2000, 20, 200


def _nb_count(rng, r: float, p: float) -> int:
    """NB(r, p) with mean r p / (1 - p), as a gamma-mixed Poisson."""
    lam = rng.gammavariate(r, p / (1.0 - p))
    k, prod, floor = 0, rng.random(), math.exp(-lam)
    while prod > floor:
        k += 1
        prod *= rng.random()
    return k


def _model_args(rng, poisson_only: bool = False) -> dict:
    name = ("poisson" if poisson_only
            else rng.choice(["poisson", "poisson", "negbinom", "geometric"]))
    if name == "poisson":
        ext = rng.choice(["natural", "loglinear", "asymptotic"])
        return {"model": name, "params": {"lam": round(rng.uniform(0.5, 3.0), 4)}, "extension": ext,
                "x_sigfigs": 6 if ext == "asymptotic" else None}
    if name == "negbinom":
        params = {"r": round(rng.uniform(1.0, 4.0), 4), "p": round(rng.uniform(0.2, 0.6), 4)}
    else:
        params = {"q": round(rng.uniform(0.3, 0.8), 4)}
    return {"model": name, "params": params, "extension": None, "x_sigfigs": None}


def _model_flags(m: dict) -> list:
    params = ",".join(f"{k}={v!r}" for k, v in m["params"].items())
    flags = ["--model", m["model"], "--params", params]
    if m["extension"]:
        flags += ["--extension", m["extension"]]
    if m["x_sigfigs"]:
        flags += ["--x-sigfigs", str(m["x_sigfigs"])]
    return flags


def setup(seed: int, work) -> dict:
    rng = random.Random(f"cli:{seed}")
    fit_path = work / f"cli-fit-{seed}.txt"
    fit_path.write_text("".join(f"{_nb_count(rng, 2.0, 0.3)}\n" for _ in range(FIT_HOURS)),
                        encoding="utf-8")
    calls = []
    for kind, count in MIX.items():
        for _ in range(count):
            call = {"kind": kind}
            if kind in ("profile", "ties"):
                call["model"] = _model_args(rng, poisson_only=kind == "ties")
                call["n"] = f"{10.0 ** rng.uniform(3.0, 12.0):.6g}"
                call["t_max"] = rng.randint(3, 6)
                args = [kind, *_model_flags(call["model"]), "--n", call["n"]]
                if kind == "ties":
                    args += ["--t-max", str(call["t_max"])]
            elif kind == "scan":
                call["model"] = _model_args(rng)
                start = float(f"{10.0 ** rng.uniform(3.0, 6.0):.4g}")
                factor = round(10.0 ** rng.uniform(0.05, 0.2), 4)
                call["range"] = f"{start!r}:{start * factor ** (SCAN_POINTS - 1)!r}:x{factor!r}"
                args = [kind, *_model_flags(call["model"]), "--n-range", call["range"]]
            elif kind == "simulate":
                call["seed"] = rng.randrange(2 ** 31)
                args = [kind, "--boxes", str(SIM_BOXES), "--balls", str(SIM_BALLS),
                        "--trials", str(SIM_TRIALS), "--seed", str(call["seed"])]
            else:
                call["seed"] = rng.randrange(2 ** 31)
                call["input"] = str(fit_path.relative_to(work.parent))
                args = [kind, "--input", call["input"], "--block", "24",
                        "--trials", str(FIT_TRIALS), "--seed", str(call["seed"])]
            call["args"] = args + ["--format", "json"]
            calls.append(call)
    rng.shuffle(calls)
    return {"calls": calls}


def _run_calls(inputs: dict, clock, argv_for) -> dict:
    """One cycle of the mix, each invocation timed on `clock` as a unit
    named after its command."""
    results = []
    for i, call in enumerate(inputs["calls"]):
        norm, wall, _, proc = run_child(clock, call["kind"], argv_for(i, call))
        results.append({"kind": call["kind"], "norm_s": norm, "wall_s": wall,
                        "returncode": proc.returncode, "stdout": proc.stdout,
                        "stderr": proc.stderr})
    return {"calls": results}


def run_pass(inputs: dict, clock) -> dict:
    return _run_calls(inputs, clock, lambda i, call: [sys.executable, "-m", "discmax",
                                                      *call["args"]])


def traced_pass(inputs: dict, clock, tracer) -> dict:
    """A cycle in which each child records its spans through
    perfbench/traced_cli.py into its own file; `tracer` takes them in
    when the cycle ends."""
    span_dir = WORK / "cli-spans"
    span_dir.mkdir(exist_ok=True)
    paths = [span_dir / f"{i}.csv.gz" for i in range(len(inputs["calls"]))]
    out = _run_calls(inputs, clock, lambda i, call: [
        sys.executable, str(BENCH / "traced_cli.py"), str(paths[i]), *call["args"]])
    for path in paths:
        tracer.absorb(path)
    return out


def _profile_row(model, prof) -> dict:
    row = {"n": prof.n, "gamma": prof.gamma, "x_n": prof.x_n, "m_n": prof.m_n,
           "theta_n": prof.theta_n, "p_n": prof.p_n, "z_n": prof.z_n,
           "regime": prof.regime.value, "cluster_escape_bound": None, "briggs_x": None}
    if isinstance(model, tailmodel.PoissonModel):
        row["cluster_escape_bound"] = extremes.anderson_cluster_bound(model, prof)
        row["briggs_x"] = extremes.briggs_approximation(model.lam, prof.n)
    return row


def _geometric_range(text: str) -> list:
    start, stop, rule = text.split(":")
    n, stop, factor = float(start), float(stop), float(rule[1:])
    out = []
    while n <= stop * (1.0 + 1e-12):
        out.append(n)
        n *= factor
    return out


def _expected(call: dict):
    """The library's values for one invocation, in the CLI's JSON layout."""
    kind = call["kind"]
    if kind in ("profile", "ties", "scan"):
        m = call["model"]
        model = tailmodel.make_model(m["model"], m["params"], m["extension"])
        if kind == "scan":
            scan = extremes.scan_oscillation(model, _geometric_range(call["range"]),
                                             x_sigfigs=m["x_sigfigs"])
            return [{"n": p.n, "x_n": p.x_n, "m_n": p.m_n, "p_n": p.p_n,
                     "is_breakpoint": p.n in scan.breakpoints} for p in scan.rows]
        prof = extremes.profile(model, float(call["n"]), x_sigfigs=m["x_sigfigs"])
        if kind == "profile":
            return [_profile_row(model, prof)]
        ties = extremes.tie_distribution(prof, call["t_max"])
        return [{"t": t, "exactly": ties.exactly[t], "at_least": ties.at_least[t], "p_n": ties.p_n}
                for t in range(call["t_max"] + 1)]
    if kind == "simulate":
        spec = allocsim.AllocationSpec(n_boxes=SIM_BOXES, n_balls=SIM_BALLS, kind="multinomial",
                                       trials=SIM_TRIALS, seed=call["seed"])
        model = tailmodel.PoissonModel(SIM_BALLS / SIM_BOXES, extension="asymptotic")
        prof = extremes.profile(model, SIM_BOXES)
        summary = allocsim.simulate(spec, prof)
        return {"spec": {"kind": spec.kind, "n_boxes": spec.n_boxes, "n_balls": spec.n_balls,
                         "trials": spec.trials, "seed": spec.seed, "r": spec.r},
                "profile": _profile_row(model, prof),
                "summary": {"max_histogram": summary.max_histogram,
                            "tie_histogram": summary.tie_histogram,
                            "cluster_freq": summary.cluster_freq,
                            "mean_top_two_occupancy": summary.mean_top_two_occupancy,
                            "trials": summary.trials},
                "merging": allocsim.merging_report(spec, prof, summary=summary)}
    series = datafit.ingest(str(WORK.parent / call["input"]), 24)
    fit = datafit.fit_nb_moments(series)
    sim = datafit.simulate_daily_max(fit, 24, FIT_TRIALS, call["seed"])
    return {"fit": {"mean": fit.mean, "variance": fit.variance, "r": fit.r, "p": fit.p,
                    "overdispersed": fit.overdispersed},
            "theory": [{"value": v, "probability": pr}
                       for v, pr in sorted(datafit.daily_max_law(fit, 24).items())],
            "empirical": [{"value": v, "frequency": fr}
                          for v, fr in sorted(datafit.empirical_daily_max(series).items())],
            "simulated": [{"value": v, "frequency": fr} for v, fr in sorted(sim.items())]}


def check(inputs: dict, outputs: dict, ck) -> None:
    if "expected" not in inputs:
        # JSON round trip: tuples become lists and histogram keys strings,
        # exactly as in the CLI's own output
        inputs["expected"] = [json.loads(json.dumps(_expected(c), default=str))
                              for c in inputs["calls"]]
    for call, res, want in zip(inputs["calls"], outputs["calls"], inputs["expected"]):
        label = " ".join(call["args"])
        if res["returncode"] != 0:
            ck.expect(False, f"exit {res['returncode']}: {label}: {res['stderr'].strip()[-300:]}")
            continue
        ck.expect(json.loads(res["stdout"]) == want, f"output differs from the library: {label}")


def layer_metrics(inputs: dict, untraced: list) -> dict:
    """Per-invocation times over the untraced (outputs, factor) pairs; each
    invocation was normalised on its own."""
    walls = [c["norm_s"] * 1000.0 for o, _ in untraced for c in o["calls"]]
    out = {"cli_ms.p50": median(walls), "cli_ms.p90": percentile(walls, 90)}
    for kind in MIX:
        out[f"cli.{kind}.wall_ms"] = median(c["norm_s"] * 1000.0 for o, _ in untraced
                                           for c in o["calls"] if c["kind"] == kind)
    return out
