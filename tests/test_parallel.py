"""`ordered_map`, the process pool behind `--jobs`."""

from __future__ import annotations

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
