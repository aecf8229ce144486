"""Self-check of the benchmark itself.  Run from the repository root:

    python3 perfbench/selfcheck.py

For every workload it makes a short untraced and two short traced runs
with seed SEED, and checks that

* each run exits 0 and ends with one JSON line holding exactly the keys
  correct, attempted, failed and metrics, with correct = true;
* the metrics are exactly those BENCHMARK.json declares for the mode, with
  the declared units; end-to-end values are positive;
* the layers a workload exercises read nonzero in its traced run;
* exact counts (*.calls, tail evaluations per profile, computed draws,
  numpy_loaded) are identical in the two traced runs;

and that the benchmark exits nonzero, printing no result, in a directory
holding only BENCHMARK.json and perfbench/.  The traced runs check on their
own that no patched function is left behind.  Takes a few minutes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = "1"
SEED = 7

# metric-name prefixes that must read nonzero in each workload's traced run
EXERCISED = {
    "tables": ("specfun.", "tailmodel.log_tail_ext.", "tailmodel.EmpiricalModel.",
               "extremes.profile.", "extremes.tail_evals", "extremes.scan_oscillation.",
               "extremes.tie_distribution.", "extremes.exact_order_stat_cdf_log."),
    "allocation": ("tailmodel.log_pmf.", "allocsim."),
    "blockmax": ("tailmodel.log_pmf.", "datafit.ingest.", "datafit.fit_nb_moments.",
                 "datafit.daily_max_law.", "datafit.empirical_daily_max.",
                 "datafit.simulate_daily_max.total_s", "datafit.simulate_daily_max.zero_heavy.",
                 "datafit.simulate_daily_max.busy.draws_per_s"),
    "cli": ("cli.profile.", "cli.scan.", "cli.ties.", "cli.simulate.", "cli.fit.", "cli_ms.",
            "extremes.profile.", "tailmodel.log_tail_ext."),
}
EVERYWHERE = ("cli.import_ms", "cli.interpreter_ms", "cli.numpy_import_ms")
EXACT = (".calls", "extremes.tail_evals_per_profile", "allocsim.simulate.draws", "cli.numpy_loaded")


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> tuple:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (lines[-1] if lines else ""), proc.stderr


def check_result(workload: str, mode: str, code: int, line: str, stderr: str,
                 declared: dict, problems: list) -> dict:
    where = f"{workload}/{mode}"
    if code != 0:
        problems.append(f"{where}: exit {code}: {stderr.strip()[-500:]}")
        return {}
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if (result.get("correct") is not True or result.get("failed") != 0
            or result.get("attempted", 0) < 1):
        problems.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')} "
                        f"attempted={result.get('attempted')}: {stderr.strip()[-500:]}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared[mode]):
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(declared[mode]) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(declared[mode]))}")
    values = {}
    for name, entry in metrics.items():
        value = entry["value"]
        values[name] = value
        if entry["unit"] != declared[mode].get(name):
            problems.append(f"{where}: {name} unit {entry['unit']!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} = {value!r}")
        elif mode == "end_to_end" and value <= 0.0:
            problems.append(f"{where}: {name} = {value} is not positive")
    return values


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {mode: {m["name"]: m["unit"] for m in bench[mode]}
                for mode in ("end_to_end", "per_layer")}
    problems: list = []
    for workload in EXERCISED:
        check_result(workload, "end_to_end", *run(workload, SEED, 0), declared, problems)
        traced = [check_result(workload, "per_layer", *run(workload, SEED, 1), declared,
                               problems) for _ in range(2)]
        if not all(traced):
            continue
        for name, value in traced[0].items():
            if (name.startswith(EXERCISED[workload]) or name in EVERYWHERE) and value == 0.0:
                problems.append(f"{workload}: {name} reads 0 on a layer the workload exercises")
            if name.endswith(EXACT) and value != traced[1][name]:
                problems.append(f"{workload}: exact count {name} differs between runs: "
                                f"{value} vs {traced[1][name]}")
        print(f"selfcheck: {workload} done", flush=True)

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, line, _ = run("tables", SEED, 0, cwd=bare)
    if code == 0 or line.startswith("{\"correct\""):
        problems.append(f"bare directory: exit {code}, last line {line[:80]!r}")
    shutil.rmtree(bare)

    for problem in problems:
        print(f"selfcheck: FAIL {problem}")
    print("selfcheck: " + ("FAILED" if problems else "all checks passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
