"""discmax benchmark: one workload, one seed, one process.

Run from the repository root:

    python3 perfbench/run.py --workload tables --seed 1 --seconds 15 --trace 0

Workloads: tables, allocation, blockmax, cli (see BENCHMARK.json and
perfbench/README.md).  With --trace 0 the run reports the end-to-end
metrics; with --trace 1 it reports the per-layer metrics from a traced run.
The last line of standard output is the result as one JSON object; the
line before it is the environment record.  Everything the run writes goes
under .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import importlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

from common import BENCH, ROOT, SRC, WORK, Checks, Clock, measure_floors, median, run_child

WORKLOADS = ("tables", "allocation", "blockmax", "cli")
SETUP_REPEATS = 25
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# on cli, five cycles of 20 invocations put ten beyond the reported p90
MIN_UNTRACED_IN_TRACED = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import discmax, generate the inputs and exit (times set-up)")
    return p.parse_args(argv)


def load_declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return {key: {m["name"]: m["unit"] for m in bench[key]} for key in ("end_to_end", "per_layer")}


def environment(seed: int) -> dict:
    env = {"seed": seed, "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0))}
    try:
        from importlib.metadata import version
        env["numpy"] = version("numpy")
    except ImportError:
        env["numpy"] = "unknown"
    try:
        git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        env["git_commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        env["git_commit"] = "unknown (not a git checkout)"
    env["cpu_model"] = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            env[f"l{level}_cache"] = size
    return env


def timed_pass(run, inputs, *extra):
    """(clock, outputs) of one pass; the clock holds the pass's units."""
    clock = Clock()
    return clock, run(inputs, clock, *extra)


def pass_time(clocks: list) -> float:
    """Normalised time of one pass, rebuilt from its units: the sum over
    unit labels of (units per pass x median time of that label).  For a
    pass that is a single unit this is the median pass time.  On cli, where
    each invocation is a unit, a rare slow process start moves the median
    of its command less than it would move the whole cycle."""
    by_label: dict = {}
    for clock in clocks:
        for label, norm, _ in clock.units:
            by_label.setdefault(label, []).append(norm)
    return sum(len(times) / len(clocks) * median(times) for times in by_label.values())


def measure_untraced(wl, inputs, ck, seconds: float, setup_argv: list):
    """Passes until `seconds` have gone (at least MIN_PASSES), each followed
    by a set-up child, so that set-up is sampled across the whole run; then
    more set-up children until there are SETUP_REPEATS.  Returns (pass
    clocks, set-up clock)."""
    clocks = []
    setup_clock = Clock()

    def sample_setup():
        proc = run_child(setup_clock, "setup", setup_argv)[3]
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-2000:]}")

    deadline = time.perf_counter() + seconds
    while len(clocks) < MIN_PASSES or time.perf_counter() < deadline:
        clock, out = timed_pass(wl.run_pass, inputs)
        clocks.append(clock)
        wl.check(inputs, out, ck)
        sample_setup()
    while len(setup_clock.units) < SETUP_REPEATS:
        sample_setup()
    return clocks, setup_clock


def measure_traced(wl, inputs, ck, seconds: float, span_path):
    """Alternate untraced and traced passes.  Returns (untraced clocks,
    untraced (outputs, normalising factor) pairs, traced clocks, per-pass
    span summaries).  The span times of each traced pass are normalised
    by the factor that normalised that pass."""
    import spans

    tracer = spans.Tracer()
    u_clocks, u_outs, t_clocks = [], [], []
    deadline = time.perf_counter() + seconds
    while (len(u_clocks) < MIN_UNTRACED_IN_TRACED or len(t_clocks) < MIN_TRACED_PASSES
           or time.perf_counter() < deadline):
        clock, out = timed_pass(wl.run_pass, inputs)
        u_clocks.append(clock)
        u_outs.append((out, clock.norm_total / clock.wall_total))
        wl.check(inputs, out, ck)
        if len(t_clocks) >= MIN_TRACED_PASSES and time.perf_counter() >= deadline:
            continue
        tracer.current_pass = len(t_clocks)
        clock, out = timed_pass(wl.traced_pass, inputs, tracer)
        t_clocks.append(clock)
        leftover = spans.Tracer.leftover_patches()
        ck.expect(not leftover, f"patched functions left behind: {leftover}")
        wl.check(inputs, out, ck)
    per_pass = tracer.summarize()
    tracer.dump(span_path / "spans.csv.gz")
    summaries = [per_pass.get(i, {}) for i in range(len(t_clocks))]
    for summary, clock in zip(summaries, t_clocks):
        factor = clock.norm_total / clock.wall_total
        for row in summary.values():
            if isinstance(row, list):
                row[1] *= factor
                row[2] *= factor
    return u_clocks, u_outs, t_clocks, summaries


def layer_metrics(summaries: list, ck) -> dict:
    def stat(name: str, j: int) -> float:
        return median(s.get(name, [0, 0.0, 0.0])[j] for s in summaries)

    names = set().union(*summaries) if summaries else set()
    for name in (n for n in names if isinstance(n, str)):
        calls = {s.get(name, [0])[0] for s in summaries}
        ck.expect(len(calls) == 1, f"{name}: calls differ between traced passes: {sorted(calls)}")

    out = {}
    for name in ("specfun.reg_gamma_p_log", "specfun.reg_beta_log", "tailmodel.log_tail_ext",
                 "tailmodel.log_pmf", "extremes.profile", "allocsim.trial_counts"):
        out[f"{name}.calls"] = stat(name, 0)
        out[f"{name}.self_s"] = stat(name, 2)
    for name in ("extremes.scan_oscillation", "extremes.tie_distribution",
                 "extremes.exact_order_stat_cdf_log", "allocsim.enumerate_conditional",
                 "allocsim.simulate", "datafit.ingest", "datafit.fit_nb_moments",
                 "datafit.daily_max_law", "datafit.empirical_daily_max",
                 "datafit.simulate_daily_max"):
        out[f"{name}.total_s"] = stat(name, 1)
    out["allocsim.enumerate_conditional.calls"] = stat("allocsim.enumerate_conditional", 0)
    out["allocsim.merging_report.self_s"] = stat("allocsim.merging_report", 2)
    out["tailmodel.EmpiricalModel.init_s"] = stat("tailmodel.EmpiricalModel.init", 1)
    profiles = stat("extremes.profile", 0)
    evals = median(s.get(("edge", "tailmodel.log_tail_ext", "extremes.profile"), 0)
                   for s in summaries)
    out["extremes.tail_evals_per_profile"] = evals / profiles if profiles else 0.0
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "discmax" / "__init__.py").is_file():
        print(f"perfbench: no discmax package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    wl = importlib.import_module(f"w_{args.workload}")
    if args.setup_only:
        wl.setup(args.seed, WORK)
        return 0

    declared = load_declared()
    compileall.compile_dir(str(SRC / "discmax"), quiet=1)
    compileall.compile_dir(str(BENCH), quiet=1, maxlevels=0)
    floors = measure_floors()

    inputs = wl.setup(args.seed, WORK)
    ck = Checks()
    wl.check(inputs, timed_pass(wl.run_pass, inputs)[1], ck)  # warm-up pass, not counted

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    if args.trace:
        span_path = WORK / f"spans-{tag}"
        shutil.rmtree(span_path, ignore_errors=True)
        span_path.mkdir()
        u_clocks, u_outs, t_clocks, summaries = measure_traced(wl, inputs, ck, args.seconds,
                                                               span_path)
        overhead = (median(c.norm_total for c in t_clocks)
                    / median(c.norm_total for c in u_clocks) - 1.0)
        values = {**layer_metrics(summaries, ck), **floors, **wl.layer_metrics(inputs, u_outs),
                  "trace.overhead_frac": overhead}
        pass_times = {"untraced": [c.norm_total for c in u_clocks],
                      "traced": [c.norm_total for c in t_clocks]}
        setup_units = []
        kind = "per_layer"
    else:
        setup_argv = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
                      "--seed", str(args.seed), "--setup-only"]
        u_clocks, setup_clock = measure_untraced(wl, inputs, ck, args.seconds, setup_argv)
        setup_units = setup_clock.units
        # a workload whose passes run children (cli) is measured by its
        # largest child, not by this process, which also holds the harness
        rss = (max(c.child_rss_mb for c in u_clocks)
               or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        values = {"setup_s": median(u[1] for u in setup_units), "pass_s": pass_time(u_clocks),
                  "peak_rss_mb": rss}
        pass_times = {"untraced": [c.norm_total for c in u_clocks]}
        kind = "end_to_end"
    walls = [c.wall_total for c in u_clocks]

    unknown = sorted(set(values) - set(declared[kind]))
    if unknown:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {unknown}")
    # a layer this workload never calls reads 0
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in declared[kind].items()}
    env = environment(args.seed)
    for line in ck.examples:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    result = {"correct": ck.failed == 0, "attempted": ck.attempted, "failed": ck.failed,
              "metrics": metrics}
    with open(WORK / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "env": env, "floors": floors,
                   "setup_times_s": [u[1] for u in setup_units],
                   "setup_walls_s": [u[2] for u in setup_units],
                   "pass_times_s": pass_times, "pass_walls_s": walls,
                   "child_rss_mb": [c.child_rss_mb for c in u_clocks],
                   "failed_frac": ck.failed / ck.attempted, "failures": ck.examples,
                   **result}, fh, indent=1)
    print(json.dumps({"env": env, "floors": floors, "failed_frac": ck.failed / ck.attempted,
                      "passes": len(u_clocks),
                      "setup_wall_s": median(u[2] for u in setup_units) or None,
                      "pass_wall_s": median(walls)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
