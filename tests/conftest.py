"""Suite-level pytest wiring.

The tests in test_acceptance.py each certify one end-to-end contract.  This
hook prints a compact one-line verdict per acceptance check after the run,
so the full verdict list is visible without rerunning under -v.  The
eig_banded_calls fixture counts banded eigensolves for the tests of the
chain module's lambda_2 memo.  hang_guard ends a run in which one test
outlives HANG_SECONDS.
"""

import faulthandler
import os
import sys

import numpy as np
import pytest
import scipy.linalg

from dpbilevel.gridwalk import chain

_PRECEDENCE = {"ERROR": 3, "FAIL": 2, "SKIP": 1, "PASS": 0}

#: seconds one test may run before the whole run ends with every thread's
#: traceback; the slowest test takes about 3 s
HANG_SECONDS = 120
#: a copy of stderr taken at configure time, while pytest captures no output
_STDERR_FD = pytest.StashKey[int]()


def pytest_configure(config):
    config.stash[_STDERR_FD] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR_FD])


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    verdicts = {}
    for status, label in (("passed", "PASS"), ("failed", "FAIL"),
                          ("error", "ERROR"), ("skipped", "SKIP")):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py::" not in nodeid:
                continue
            name = nodeid.split("::")[-1]
            if _PRECEDENCE[label] > _PRECEDENCE.get(verdicts.get(name), -1):
                verdicts[name] = label
    if not verdicts:
        return
    terminalreporter.section("acceptance checks")
    for name in sorted(verdicts):
        title = name.removeprefix("test_").replace("_", " ")
        terminalreporter.write_line(f"{verdicts[name]:<5} {title}")


@pytest.fixture
def eig_banded_calls(monkeypatch):
    """Clear chain's lambda_2 memo and record every banded eigensolve.

    Yields a list that gains the bands' shape on each scipy.linalg.eig_banded
    call, whoever makes it; the memo persists across tests, so it is cleared
    before and after.
    """
    calls = []
    solve = scipy.linalg.eig_banded

    def counted(bands, *args, **kwargs):
        calls.append(np.shape(bands))
        return solve(bands, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eig_banded", counted)
    chain._lambda2_memo.clear()
    yield calls
    chain._lambda2_memo.clear()


@pytest.fixture(autouse=True)
def hang_guard(request):
    """Exit the run non-zero, tracebacks on stderr, if this test hangs.

    faulthandler's watchdog thread needs no signal, so tests and ops that
    set a SIGALRM deadline of their own keep it.
    """
    faulthandler.dump_traceback_later(HANG_SECONDS, exit=True,
                                      file=request.config.stash[_STDERR_FD])
    yield
    faulthandler.cancel_dump_traceback_later()
