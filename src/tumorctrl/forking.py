"""One job in a forked child while the caller works on.

verify runs its linearized check's finest level this way, and runner the
later halves of a run's field CSVs.  _forked(fork, fn, *args) yields a
function that returns fn(*args): computed meanwhile in a child when a fork
helps (_fork_helps), otherwise in-process when it is called.  Either way
the caller sees fn's own result, or fn's own failure raised in-process.

The child moves to the CPUs its parent does not run on (_other_cpus).
Where the kernel balances load across CPUs this changes nothing; where it
does not (a cpuset with sched_load_balance off), a child stays on its
parent's CPU, takes turns with it and only adds the fork's cost.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import threading
import warnings


def _fork_helps() -> bool:
    """Whether a forked child would run beside this process: os.fork
    exists, no other thread runs (a fork copies only the calling thread,
    not the locks the others hold), and this process may run on more than
    one CPU (on one, the child only takes turns with its parent and the
    fork costs time)."""
    if not hasattr(os, "fork") or threading.active_count() != 1:
        return False
    affinity = getattr(os, "sched_getaffinity", None)
    return affinity is None or len(affinity(0)) > 1


def _other_cpus() -> set:
    """The CPUs this process may run on, less the one it ran on last (the
    processor field of /proc/self/stat); empty where either is unknown."""
    try:
        with open("/proc/self/stat", "rb") as fh:
            cpu = int(fh.read().rsplit(b")", 1)[1].split()[36])
        return os.sched_getaffinity(0) - {cpu}
    except (OSError, AttributeError, IndexError, ValueError):
        return set()


@contextlib.contextmanager
def _forked(fork: bool, fn, *args):
    """Yield a function that returns fn(*args), computed meanwhile in a
    forked child if fork is set and a fork helps (_fork_helps).

    The function computes fn(*args) in-process where no fork helps, where
    os.fork fails and where the child hands back no result, so fn's
    failures are raised here.  The child writes only to the pipe and to
    the files fn writes (a warning fails it) and ends in os._exit; one not
    collected is killed on exit.
    """
    pid = read = None
    if fork and _fork_helps():
        cpus = _other_cpus()
        read, write = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # no process to be had
            pass
        if pid == 0:
            code = 1
            try:
                os.close(read)
                if cpus:
                    with contextlib.suppress(OSError):
                        os.sched_setaffinity(0, cpus)
                warnings.simplefilter("error")
                with os.fdopen(write, "wb") as pipe:
                    pickle.dump(fn(*args), pipe)
                code = 0
            finally:
                os._exit(code)
        os.close(write)

    def collect():
        nonlocal pid
        if pid:
            data = b"".join(iter(lambda: os.read(read, 1 << 16), b""))
            status = os.waitpid(pid, 0)[1]
            pid = None
            if status == 0 and data:
                return pickle.loads(data)
        return fn(*args)

    try:
        yield collect
    finally:
        if pid:
            import signal  # 1 ms to import, so only when a child is left
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if read is not None:
            os.close(read)
