"""`ordered_map`, the process pool behind `--jobs`."""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from meyerstop.parallel import ordered_map

SRC = Path(__file__).resolve().parents[1] / "src"


def test_results_keep_input_order():
    for jobs in (1, 2, 4):
        assert ordered_map(lambda x: x * x, range(9), jobs) == [x * x for x in range(9)]
        assert ordered_map(len, [], jobs) == []


def test_one_worker_runs_in_process():
    parent = os.getpid()
    for jobs, n in ((-1, 3), (0, 3), (1, 3), (4, 1)):
        assert ordered_map(lambda _: os.getpid(), range(n), jobs) == [parent] * n


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one CPU: ordered_map runs in-process")
def test_jobs_run_in_forked_workers():
    # a lambda cannot be pickled: the workers inherit it through fork
    pids = ordered_map(lambda _: os.getpid(), range(6), 2)
    assert os.getpid() not in pids


def test_first_failure_in_input_order_is_raised():
    def fn(x):
        if x == 2:
            time.sleep(0.2)  # finishes after item 5 has failed
            raise ValueError("two")
        if x == 5:
            raise KeyError("five")
        return x

    for jobs in (1, 2):
        with pytest.raises(ValueError, match="two"):
            ordered_map(fn, range(8), jobs)


def test_import_loads_no_pool_modules():
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import meyerstop; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] in "
        "('multiprocessing', 'concurrent')))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", probe, str(SRC)], capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one CPU: ordered_map runs in-process")
def test_a_pool_is_closed_after_success_and_terminated_after_a_failure(monkeypatch):
    # terminating a pool whose items all succeeded kills its workers while
    # they exit; only a failed item may cut the others short
    calls = []
    real = multiprocessing.get_context

    class Recording:
        def __init__(self, method):
            self.context = real(method)

        def Pool(self, *args):
            pool = self.context.Pool(*args)
            for name in ("close", "join", "terminate"):
                setattr(pool, name, self.recorded(name, getattr(pool, name)))
            return pool

        @staticmethod
        def recorded(name, method):
            def call():
                calls.append(name)
                return method()

            return call

    monkeypatch.setattr(multiprocessing, "get_context", Recording)
    assert ordered_map(abs, range(-3, 3), 2) == [3, 2, 1, 0, 1, 2]
    assert calls == ["close", "join"]
    calls.clear()
    with pytest.raises(ZeroDivisionError):
        ordered_map(lambda x: 1 / x, range(-3, 3), 2)
    assert calls == ["terminate"]
