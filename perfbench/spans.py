"""Span recorder for the traced run.

The tracer replaces public functions of the discmax modules with wrappers
that record one span per call: name, start, end, parent span and pass
number.  Each function is patched where its callers look it up, so that
calls between modules are seen too (for example `tailmodel.reg_gamma_p_log`
rather than `specfun.reg_gamma_p_log`, because the tail models call the
name bound in their own module).  Spans are kept in flat arrays in memory
and written once, when the run ends.  A CLI child records its own spans
(perfbench/traced_cli.py) and the parent takes them in with `absorb`.

Self time of a span is its duration minus the durations of its direct
child spans; calls are single-threaded and properly nested, so those
children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array

from discmax import allocsim, datafit, extremes, tailmodel


def _targets() -> list:
    """(owner, attribute, span name) for every patched function."""
    targets = [
        (tailmodel, "reg_gamma_p_log", "specfun.reg_gamma_p_log"),
        (tailmodel, "reg_beta_log", "specfun.reg_beta_log"),
        (tailmodel.DiscreteTailModel, "log_tail_ext", "tailmodel.log_tail_ext"),
        (tailmodel.EmpiricalModel, "__init__", "tailmodel.EmpiricalModel.init"),
        (extremes, "profile", "extremes.profile"),
        (extremes, "scan_oscillation", "extremes.scan_oscillation"),
        (extremes, "tie_distribution", "extremes.tie_distribution"),
        (allocsim, "tie_distribution", "extremes.tie_distribution"),
        (extremes, "exact_order_stat_cdf_log", "extremes.exact_order_stat_cdf_log"),
    ]
    # every model class that defines its own pmf
    pending = list(tailmodel.DiscreteTailModel.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "log_pmf" in cls.__dict__:
            targets.append((cls, "log_pmf", "tailmodel.log_pmf"))
    for fn in ("enumerate_conditional", "simulate", "trial_counts", "merging_report"):
        targets.append((allocsim, fn, f"allocsim.{fn}"))
    for fn in ("ingest", "fit_nb_moments", "daily_max_law", "empirical_daily_max",
               "simulate_daily_max"):
        targets.append((datafit, fn, f"datafit.{fn}"))
    return targets


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.pass_no = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.current_pass = 0
        self._saved: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        name_id, parent, pass_no = self.name_id, self.parent, self.pass_no
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            pass_no.append(tracer.current_pass)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in _targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def run(self, fn, *args):
        """fn(*args) with every target patched; the originals are restored
        however fn ends."""
        self.install()
        try:
            return fn(*args)
        finally:
            self.uninstall()

    def absorb(self, path) -> None:
        """Append the spans of a file written by `dump` (another process's
        run) to this tracer, under the current pass."""
        offset = len(self.name_id)
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            next(fh)
            for line in fh:
                name, start, end, parent, _ = line.rstrip("\n").split(",")
                self.name_id.append(self._id(name))
                self.start.append(float(start))
                self.end.append(float(end))
                self.parent.append(int(parent) + offset if int(parent) >= 0 else -1)
                self.pass_no.append(self.current_pass)

    @staticmethod
    def leftover_patches() -> list:
        """Names of patched functions still in place (empty when restored)."""
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, _ in _targets()
                if getattr(owner.__dict__[attr], "__wrapped__", None) is not None]

    def dump(self, path) -> None:
        """Write every span as `name,start,end,parent,pass` CSV (gzip)."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("name,start,end,parent,pass\n")
            for i in range(len(self.name_id)):
                fh.write(f"{self.names[self.name_id[i]]},{self.start[i]!r},{self.end[i]!r},"
                         f"{self.parent[i]},{self.pass_no[i]}\n")

    def summarize(self) -> dict:
        """{pass: {name: [calls, total_s, self_s]}} plus parent-edge counts.

        total_s counts only spans without a same-name parent, so a
        function that calls itself is not counted twice.  Edge counts sit
        under the key ("edge", child, parent).
        """
        n = len(self.name_id)
        child_time = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        out: dict = {}
        for i in range(n):
            stats = out.setdefault(self.pass_no[i], {})
            name = self.names[self.name_id[i]]
            dur = self.end[i] - self.start[i]
            row = stats.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[2] += dur - child_time[i]
            p = self.parent[i]
            if p < 0 or self.name_id[p] != self.name_id[i]:
                row[1] += dur
            if p >= 0:
                key = ("edge", name, self.names[self.name_id[p]])
                stats[key] = stats.get(key, 0) + 1
        return out

