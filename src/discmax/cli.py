"""Command-line front end.

Subcommands: profile | scan | ties | simulate | fit.  All output is
UTF-8 with newline-terminated rows; CSV carries a header row.  Reals are
printed with 8 significant digits.  Identical invocations produce
byte-identical output.

Exit codes: 0 success, 2 usage error (also an --input or --out path that
cannot be opened), 3 numeric failure, 4 data error (also an input file that
is not UTF-8).
"""

from __future__ import annotations

import argparse
import errno
import io
import json
import math
import os
import sys

from . import allocsim, datafit, extremes, tailmodel
from .specfun import AccuracyError


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e16:
            return str(int(value))
        return f"{value:.8g}"
    if value is None:
        return ""
    return str(value)


def _parse_params(text: str | None) -> dict:
    params: dict = {}
    if not text:
        return params
    for item in text.split(","):
        if "=" not in item:
            raise ValueError(f"malformed parameter {item!r}, expected key=value")
        key, raw = item.split("=", 1)
        key = key.strip()
        raw = raw.strip()
        if key in params:
            raise ValueError(f"parameter {key!r} given more than once")
        if ":" in raw:
            params[key] = [float(v) for v in raw.split(":")]
        elif key == "support_min":
            params[key] = int(raw)
        else:
            params[key] = float(raw)
    return params


MAX_ROWS = 10 ** 5  # the most rows any table may list: n values of a scan, t values of --t-max


def _check_t_max(t_max: int) -> None:
    # refused before any work
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    if t_max > MAX_ROWS:
        raise ValueError(f"t_max must be at most {MAX_ROWS}, got {t_max}")


def _parse_n_range(text: str) -> list:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"malformed range {text!r}, expected start:stop:x<factor> or start:stop:+<step>")
    start, stop = float(parts[0]), float(parts[1])
    rule = parts[2]
    if rule[:1] not in ("x", "+"):
        raise ValueError(f"malformed step rule {rule!r}")
    geometric = rule.startswith("x")
    step = float(rule[1:])  # the factor of a geometric range
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValueError(f"n range {text!r} needs a finite start, stop and step")
    if geometric and (start <= 0.0 or step <= 1.0):
        raise ValueError(f"geometric range {text!r} needs a start above 0 and a factor above 1")
    if not geometric and step <= 0.0:
        raise ValueError("arithmetic step must be positive")
    out = []
    n = start
    # capped, or a stop near the float maximum would end the range at inf
    end = min(stop * (1.0 + 1e-12), sys.float_info.max)
    while n <= end:
        # also ends a range whose step is lost to rounding (1e16 + 1 == 1e16)
        if len(out) == MAX_ROWS:
            raise ValueError(f"n range {text!r} lists more than {MAX_ROWS} values")
        out.append(n)
        n = n * step if geometric else n + step
    if not out:
        raise ValueError(f"empty n range {text!r}")
    return out


def _build_model(args) -> tailmodel.DiscreteTailModel:
    return tailmodel.make_model(args.model, _parse_params(args.params), args.extension)


def _render_rows(rows: list, columns: list, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(rows, indent=2, default=str) + "\n"
    import csv
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row.get(c)) for c in columns])
    return buf.getvalue()


def _profile_row(model, prof) -> dict:
    row = {
        "n": prof.n, "gamma": prof.gamma, "x_n": prof.x_n, "m_n": prof.m_n,
        "theta_n": prof.theta_n, "p_n": prof.p_n, "z_n": prof.z_n,
        "regime": prof.regime.value,
    }
    poisson = isinstance(model, tailmodel.PoissonModel)
    row["cluster_escape_bound"] = extremes.anderson_cluster_bound(model, prof) if poisson else None
    # the Lambert-W refinement needs n >= 3; n = 2 leaves it empty, as other models do
    row["briggs_x"] = (extremes.briggs_approximation(model.lam, prof.n)
                       if poisson and prof.n >= 3 else None)
    return row


_PROFILE_COLUMNS = ["n", "gamma", "x_n", "m_n", "theta_n", "p_n", "z_n",
                    "regime", "cluster_escape_bound", "briggs_x"]


def cmd_profile(args) -> str:
    model = _build_model(args)
    prof = extremes.profile(model, float(args.n), x_sigfigs=args.x_sigfigs)
    if math.isnan(prof.gamma):
        # x_n is solved, but the row has no gamma and no regime to report
        raise ValueError(
            f"the empirical tail ratio could not be estimated for {model!r}: "
            "fewer than two usable ratios F(k+1)/F(k)")
    return _render_rows([_profile_row(model, prof)], _PROFILE_COLUMNS, args.format)


def cmd_scan(args) -> str:
    model = _build_model(args)
    ns = _parse_n_range(args.n_range)
    scan = extremes.scan_oscillation(model, ns, x_sigfigs=args.x_sigfigs)
    bset = set(scan.breakpoints)
    rows = [{"n": prof.n, "x_n": prof.x_n, "m_n": prof.m_n, "p_n": prof.p_n,
             "is_breakpoint": prof.n in bset} for prof in scan.rows]
    return _render_rows(rows, ["n", "x_n", "m_n", "p_n", "is_breakpoint"], args.format)


def cmd_ties(args) -> str:
    _check_t_max(args.t_max)
    model = _build_model(args)
    prof = extremes.profile(model, float(args.n), x_sigfigs=args.x_sigfigs)
    ties = extremes.tie_distribution(prof, args.t_max)
    rows = [{"t": t, "exactly": ties.exactly[t], "at_least": ties.at_least[t],
             "p_n": ties.p_n} for t in range(args.t_max + 1)]
    return _render_rows(rows, ["t", "exactly", "at_least", "p_n"], args.format)


def cmd_simulate(args) -> str:
    _check_t_max(args.t_max)
    spec = allocsim.AllocationSpec(
        n_boxes=args.boxes, n_balls=args.balls, kind=args.kind,
        trials=args.trials, seed=args.seed, r=args.r)
    extension = args.extension or ("asymptotic" if spec.kind == "multinomial" else "natural")
    model = allocsim.matched_model(spec, extension)
    prof = extremes.profile(model, spec.n_boxes, x_sigfigs=args.x_sigfigs)
    summary = allocsim.simulate(spec, prof)
    tables = allocsim.comparison_tables(spec, prof, t_max=args.t_max, summary=summary)

    if args.format == "json":
        payload = {
            "spec": {"kind": spec.kind, "n_boxes": spec.n_boxes, "n_balls": spec.n_balls,
                     "trials": spec.trials, "seed": spec.seed, "r": spec.r},
            "profile": _profile_row(model, prof),
            "summary": {
                "max_histogram": summary.max_histogram,
                "tie_histogram": summary.tie_histogram,
                "cluster_freq": summary.cluster_freq,
                "mean_top_two_occupancy": summary.mean_top_two_occupancy,
                "trials": summary.trials,
            },
            "merging": tables["merging"],
        }
        return json.dumps(payload, indent=2, default=str) + "\n"

    # a row's quantity is its CSV value
    rows = [{"kind": spec.kind, "n": spec.n_boxes, "k": spec.n_balls, "table": table,
             "value": row["quantity"], "count": row.get("count"), "frequency": row["empirical"],
             "theory": row["theory"], "abs_error": row["abs_error"], "stderr": row["stderr"]}
            for table in ("max", "ties", "merging") for row in tables[table]]
    return _render_rows(rows, ["kind", "n", "k", "table", "value", "count",
                               "frequency", "theory", "abs_error", "stderr"], "csv")


def cmd_fit(args) -> str:
    series = datafit.ingest(args.input, args.block, bin_by=args.bin)
    fit = datafit.fit_nb_moments(series)
    theory = datafit.daily_max_law(fit, series.block_size)
    empirical = datafit.empirical_daily_max(series)
    simulated = (datafit.simulate_daily_max(fit, series.block_size, args.trials, args.seed)
                 if args.trials else None)

    if args.format == "json":
        payload = {
            "fit": {"mean": fit.mean, "variance": fit.variance, "r": fit.r,
                    "p": fit.p, "overdispersed": fit.overdispersed},
            "theory": [{"value": v, "probability": pr} for v, pr in sorted(theory.items())],
            "empirical": [{"value": v, "frequency": fr} for v, fr in sorted(empirical.items())],
            "simulated": ([{"value": v, "frequency": fr} for v, fr in sorted(simulated.items())]
                          if simulated is not None else None),
        }
        return json.dumps(payload, indent=2) + "\n"

    values = sorted(set(theory) | set(empirical) | set(simulated or {}))
    rows = [{"value": v, "theory": theory.get(v), "empirical": empirical.get(v),
             "simulated": simulated.get(v) if simulated else None} for v in values]
    return _render_rows(rows, ["value", "theory", "empirical", "simulated"], "csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="discmax",
        description="Oscillating maxima and ties of discrete i.i.d. samples and allocation models")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p):
        p.add_argument("--model", default="poisson", choices=tailmodel.MODEL_NAMES)
        p.add_argument("--params", default="", help="comma list key=value; lists use ':'")
        p.add_argument("--extension", default=None,
                       choices=tailmodel.EXTENSIONS)
        p.add_argument("--x-sigfigs", type=int, default=None,
                       help="round x_n to this many significant digits before deriving "
                            "theta/p/z (matches published reference tables at 6)")

    def add_output_flags(p):
        p.add_argument("--format", default="csv", choices=["csv", "json"])
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("profile", help="extremal profile at a single n")
    add_model_flags(p)
    p.add_argument("--n", required=True)
    add_output_flags(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("scan", help="profiles over an n range with breakpoints")
    add_model_flags(p)
    p.add_argument("--n-range", required=True, help="start:stop:x<factor> or start:stop:+<step>")
    add_output_flags(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("ties", help="tie-count distribution at the maximum")
    add_model_flags(p)
    p.add_argument("--n", required=True)
    p.add_argument("--t-max", type=int, default=3)
    add_output_flags(p)
    p.set_defaults(func=cmd_ties)

    p = sub.add_parser("simulate", help="allocation Monte Carlo with merging report")
    p.add_argument("--kind", default="multinomial", choices=allocsim.KINDS)
    p.add_argument("--boxes", type=int, required=True)
    p.add_argument("--balls", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--r", type=float, default=None, help="Dirichlet hyperparameter")
    p.add_argument("--t-max", type=int, default=3)
    p.add_argument("--extension", default=None, choices=tailmodel.EXTENSIONS,
                   help="tail extension for the matched-model theory column (default "
                        "asymptotic for multinomial, natural for dirichlet)")
    p.add_argument("--x-sigfigs", type=int, default=None)
    add_output_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="negative binomial moment fit and block maxima")
    p.add_argument("--input", required=True, help="CSV path: one count per line, "
                                                  "or ISO-8601 timestamps with --bin hour")
    p.add_argument("--block", type=int, default=24)
    p.add_argument("--bin", default=None, choices=["hour"])
    p.add_argument("--trials", type=int, default=0, help="optional simulation trials")
    p.add_argument("--seed", type=int, default=0)
    add_output_flags(p)
    p.set_defaults(func=cmd_fit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
            # refused before the command runs, in the words open() would use
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), args.out)
        text = args.func(args)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except (AccuracyError, extremes.RootBracketError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except datafit.DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        # OSError: an --input or --out path that cannot be opened; writes to
        # stdout happen below, outside the handler
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    if not args.out:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
