"""Ordered map over forked worker processes, behind `--jobs`: the workers
inherit the function and the items through `fork`, so neither is pickled."""

import os

_task: tuple = ()


def _adopt(task: tuple) -> None:
    global _task
    _task = task


def _call(index: int):
    fn, items = _task
    return fn(items[index])


def ordered_map(fn, items, jobs: int) -> list:
    """`[fn(x) for x in items]` on min(jobs, CPUs, len(items)) processes, or
    in-process for one worker or where the platform cannot fork.  Results
    keep input order, and the first item in input order that raised
    re-raises its exception, so nothing depends on scheduling.  The pool
    forks before it starts its own threads; call it from a process that
    runs no other threads."""
    items = list(items)
    workers = min(jobs, os.cpu_count() or 1, len(items))
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(x) for x in items]
    import multiprocessing  # here, so that `import meyerstop` stays light

    pool = multiprocessing.get_context("fork").Pool(workers, _adopt, ((fn, items),))
    try:
        results = list(pool.imap(_call, range(len(items))))
    except BaseException:
        pool.terminate()
        raise
    # terminate() only on failure: on success it would kill workers mid-exit
    pool.close()
    pool.join()
    return results
