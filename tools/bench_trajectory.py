"""Run the perfbench workloads on one or more checkouts and write a BENCH_*.json entry.

    python3 tools/bench_trajectory.py --out BENCH_23.json \\
        --checkout parent=PATH_TO_PARENT --checkout change=. --seeds 31 32 33

Each checkout is a full tree (src/, perfbench/, BENCHMARK.json).  The
workloads and the run length are the ones the first checkout's
BENCHMARK.json declares.  For each workload and seed the checkouts run one
after another, the order alternating from seed to seed, each as
`perfbench/run.py --trace 0` in a fresh process from its own root, so each
side runs its own committed benchmark.  One `--trace 1` run per workload
and checkout, at seed TRACE_SEED, gives the per-layer metrics.

Per checkout the file records `code`, the sha256 of the files under its
src/ and perfbench/ (see `tree_hash`), which ties the numbers to the code
that made them whether or not the checkout is a git repository: a commit's
tree gives the same hash as the checkout it was measured in.  Per workload
and checkout it records the median and quartiles of the end-to-end metrics
(setup_s, pass_s, peak_rss_mb), the failed and attempted checks, every
run's values and environment line, and the traced per-layer metrics.
Against the first checkout, each other one gets, per end-to-end metric, the
seeds it won (ties count for neither), its median change relative to the
first's median, the first's quartile spread relative to its median, and
the bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

TIMEOUT_S = 900
TRACE_SEED = 7
CODE_DIRS = ("src", "perfbench")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--checkout", action="append", required=True, metavar="LABEL=PATH",
                   help="a tree to run; the first is the baseline of the comparisons")
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    return p.parse_args(argv)


def run(root: Path, workload: str, seed: int, trace: int, seconds: float) -> tuple:
    """(environment line, result line) of one perfbench run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{root} {workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    env, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(env), json.loads(result)


def tree_hash(root: Path) -> str:
    """sha256 over each file under CODE_DIRS, in sorted path order: its path
    relative to root, a NUL, its bytes, a NUL.  __pycache__ and *.egg-info
    directories, which running and installing leave behind, are skipped."""
    h = hashlib.sha256()
    for d in CODE_DIRS:
        for f in sorted((root / d).rglob("*")):
            rel = f.relative_to(root)
            if f.is_file() and not any(part == "__pycache__" or part.endswith(".egg-info")
                                       for part in rel.parts):
                h.update(rel.as_posix().encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    args = parse_args(argv)
    checkouts = dict(c.split("=", 1) for c in args.checkout)
    labels = list(checkouts)
    declared = json.loads((Path(checkouts[labels[0]]) / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in declared["end_to_end"]}
    seconds = float(declared["run_seconds"])
    out = {"seconds": seconds, "seeds": args.seeds, "trace_seed": TRACE_SEED,
           "checkouts": labels, "code": {l: tree_hash(Path(checkouts[l])) for l in labels},
           "workloads": {}}
    for workload in [w["name"] for w in declared["workloads"]]:
        sides = {label: {"runs": []} for label in labels}
        for i, seed in enumerate(args.seeds):
            order = labels if i % 2 == 0 else labels[::-1]
            for label in order:
                env, result = run(Path(checkouts[label]), workload, seed, 0, seconds)
                sides[label]["runs"].append({
                    "seed": seed, "first": label == order[0], "failed": result["failed"],
                    "attempted": result["attempted"], "env": env,
                    **{k: v["value"] for k, v in result["metrics"].items()}})
                print(f"{workload} seed {seed} {label}: "
                      + " ".join(f"{k}={sides[label]['runs'][-1][k]:.4g}" for k in bounds),
                      file=sys.stderr)
        for label, side in sides.items():
            runs = side["runs"]
            side["failed"] = sum(r["failed"] for r in runs)
            side["attempted"] = sum(r["attempted"] for r in runs)
            side["end_to_end"] = {k: spread([r[k] for r in runs]) for k in bounds}
            env, result = run(Path(checkouts[label]), workload, TRACE_SEED, 1, seconds)
            side["per_layer"] = {"env": env, "failed": result["failed"],
                                 **{k: v["value"] for k, v in result["metrics"].items()}}
        base = sides[labels[0]]
        for label in labels[1:]:
            cmp = {}
            for k, bound in bounds.items():
                sign = 1.0 if lower[k] else -1.0  # positive where the change is better
                gains = [sign * (p[k] - c[k]) for p, c in zip(base["runs"], sides[label]["runs"])]
                b, s = base["end_to_end"][k], sides[label]["end_to_end"][k]
                cmp[k] = {"wins": sum(g > 0 for g in gains), "losses": sum(g < 0 for g in gains),
                          "pairs": len(gains), "median_change": s["median"] / b["median"] - 1.0,
                          "baseline_spread": (b["q3"] - b["q1"]) / b["median"], "bound": bound}
            sides[label]["against_" + labels[0]] = cmp
        out["workloads"][workload] = sides
        args.out.write_text(json.dumps(out, indent=1) + "\n")  # partial results survive a stop
    return 0


if __name__ == "__main__":
    sys.exit(main())
