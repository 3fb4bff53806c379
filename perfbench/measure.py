"""The benchmark's own arithmetic: percentiles, utilization, CPU accounting
over a timed window, and the environment stamp printed with every result.

Nothing here imports esf, so the rules can be tested on their own.
"""

from __future__ import annotations

import os
import platform
import sys

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail value


def tail(values) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, sample count). The value is the sample with
    exactly TAIL_BEYOND samples ranked above it; its percentile is the share
    of samples at or below that rank. With too few samples for the rule the
    maximum is returned at percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, n


def t_session(step_s: float, elapsed_s: float) -> float:
    """The paper's trainer utilization: time in steps over elapsed time."""
    if elapsed_s <= 0:
        raise ValueError("elapsed time must be positive")
    return step_s / elapsed_s


CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def parse_proc_stat(text: str) -> float:
    """user + system CPU seconds from the text of /proc/<pid>/stat.

    The command name is parenthesised and may itself hold spaces or
    parentheses, so fields are counted from the last closing parenthesis.
    """
    fields = text[text.rindex(")") + 2:].split()
    # fields[0] is field 3 (state); utime and stime are fields 14 and 15
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as fh:
        return parse_proc_stat(fh.read())


def proc_threads(pid: int) -> int:
    return len(os.listdir(f"/proc/{pid}/task"))


def rusage_cpu_s(ru) -> float:
    return ru.ru_utime + ru.ru_stime


def window_cpu_s(cpu_at_start_s, cpu_at_end_s) -> float:
    """CPU spent between two readings, summed over processes.

    Each list holds one reading per process, in the same order; a process
    read at the start must be read again at its end (at exit, from its
    rusage), so work done before the window is not counted.
    """
    if len(cpu_at_start_s) != len(cpu_at_end_s):
        raise ValueError("one start and one end reading per process")
    spent = [end - start for start, end in zip(cpu_at_start_s, cpu_at_end_s)]
    if min(spent, default=0.0) < 0:
        raise ValueError("CPU time went backwards")
    return sum(spent)


def ms_per_utt(seconds: float, utterances: int) -> float:
    if utterances < 1:
        raise ValueError("no utterances delivered")
    return 1000.0 * seconds / utterances


def environment() -> dict:
    """What the numbers depend on, recorded as found (nothing is pinned)."""
    import numpy
    import scipy

    try:
        import numba  # noqa: F401
        numba_ok = True
    except ImportError:
        numba_ok = False
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_lib = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_lib = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": numba_ok,
        "blas": blas_lib,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
        "loadavg_1m": os.getloadavg()[0],
        "executable": sys.executable,
    }
