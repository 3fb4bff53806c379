"""Every process a run starts, started so that none can outlive the run.

Each child asks the kernel to kill it when the run's process dies, so even a
run killed with SIGKILL leaves nothing behind; a normal exit, an error or a
signal ends in reap_all, which kills and waits for any child still running.
Children must be started from the main thread: the kernel ties the request to
the thread that forked.
"""

from __future__ import annotations

import ctypes
import os
import subprocess

_PR_SET_PDEATHSIG = 1
_SIGKILL = 9
_prctl = ctypes.CDLL(None, use_errno=True).prctl  # resolved before any fork
_started: list[subprocess.Popen] = []


def _die_with(parent: int):
    def hook():  # runs in the child between fork and exec
        _prctl(_PR_SET_PDEATHSIG, _SIGKILL)
        if os.getppid() != parent:  # the run died before the request was made
            os._exit(1)
    return hook


def popen(argv: list[str], **kwargs) -> subprocess.Popen:
    proc = subprocess.Popen(argv, preexec_fn=_die_with(os.getpid()), **kwargs)
    _started.append(proc)
    return proc


def reap_all() -> None:
    """Kill and wait for every child that has not been waited for yet."""
    for proc in _started:
        if proc.returncode is None and proc.poll() is None:
            proc.kill()
            proc.wait()
    _started.clear()
