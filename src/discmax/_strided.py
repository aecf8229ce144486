"""The thread route of `allocsim.simulate` and `datafit.simulate_daily_max`,
whose numpy kernels release the interpreter lock; it imports no numpy."""

from __future__ import annotations

import os
import threading
from itertools import islice, takewhile


def usable_cpus() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def run_strided(workers: int, units, work) -> list:
    """[work(stride 0), ..., work(stride workers - 1)], stride w being units()
    at w, w + workers, ...: the calling thread works stride 0, workers - 1
    threads the others.  After any failure (an interrupt while joining too)
    every stride ends at its next unit; the first is raised once all join."""
    results, failures = [None] * workers, []

    def run(first: int) -> None:
        try:
            stride = islice(units(), first, None, workers)
            results[first] = work(takewhile(lambda _: not failures, stride))
        except BaseException as exc:
            failures.append(exc)

    threads = [threading.Thread(target=run, args=(first,)) for first in range(1, workers)]
    try:
        for thread in threads:
            thread.start()
        run(0)
    except BaseException as exc:  # a thread that could not start, or an interrupt
        failures.append(exc)
    for thread in threads:
        while thread.is_alive():
            try:
                thread.join()
            except BaseException as exc:  # interrupted while waiting
                failures.append(exc)
    if failures:
        raise failures[0]
    return results
