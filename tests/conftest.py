import os
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# Tier-1 runs "suite"; pytest --hypothesis-profile=large runs ten times
# its examples, as the CI's larger fuzz step does for tests/test_fuzz.py
settings.register_profile(
    "suite", max_examples=40, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow])
settings.register_profile("large", settings.get_profile("suite"),
                          max_examples=400)
settings.load_profile("suite")


@pytest.fixture
def rng():
    # a fresh stream per test, so a test's data does not depend on what
    # the tests before it drew
    return np.random.default_rng(20260808)


@pytest.fixture
def forked_and_in_process(monkeypatch, capfd):
    """A function giving [(run(), forks), (run(), forks)]: run() as the
    library runs it, with two CPUs to run on, and in-process (a second
    thread alive forbids a fork), each with the forks it made.  After
    either, no child is left and nothing was written to stdout or stderr."""
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)

    def runs(run):
        out = []
        for threaded in (False, True):
            done = threading.Event()
            thread = threading.Thread(target=done.wait)
            if threaded:
                thread.start()
            try:
                out.append((run(), len(forks)))
            finally:
                done.set()
                if threaded:
                    thread.join(10)
                    assert not thread.is_alive()
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
            assert capfd.readouterr() == ("", "")
            forks.clear()
        return out

    return runs
