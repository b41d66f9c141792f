"""Worker processes that inherit their caller's state, for `evaluate_suite` and `train_classifier`.

Workers are started with `fork` only, never `spawn`: each inherits the task
it was forked with, usually a closure over models and data, so the executor
sends the task by its module name (`_run_inherited`) and only its arguments
and results are pickled. Where `fork` is unavailable, or the process may use
only one CPU, the task runs in-process instead.
"""

from __future__ import annotations

import os
from concurrent.futures import Future
from contextlib import contextmanager


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_inherited_task = None  # set only in a forked worker: the task it was forked with


def _inherit(task, background: bool) -> None:
    global _inherited_task
    _inherited_task = task
    if background:
        # run only on CPU time that nothing else wants: with a multi-threaded BLAS the caller already
        # fills every CPU, and a worker at normal priority would slow it down
        if hasattr(os, "SCHED_IDLE"):
            os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
        else:
            os.nice(19)


def _run_inherited(*args):
    """A worker's call of its inherited task; only the arguments and the result cross between the processes."""
    return _inherited_task(*args)


@contextmanager
def forked(task, processes: int, background: bool = False):
    """Yield `submit(*args)`, which returns a Future of `task(*args)`.

    The calls run in min(processes, usable CPUs) forked workers. With
    `processes` below 1, without `fork`, or with one usable CPU, each call
    runs in-process when it is submitted and raises from there. A worker's
    exception re-raises from its Future's `result()` with its type and
    message. Leaving the block joins every worker, also when the block
    raises; calls not yet started are then cancelled. `background` is for
    a caller that keeps computing while its workers run: the workers then
    take the lowest scheduling priority (SCHED_IDLE, else nice 19).
    """
    cpus = _usable_cpus()
    if processes < 1 or cpus < 2 or not hasattr(os, "fork"):
        def run_now(*args) -> Future:
            done = Future()
            done.set_result(task(*args))
            return done

        yield run_now
        return
    from concurrent.futures import ProcessPoolExecutor  # about 12 ms of imports, paid only by a run that forks
    from multiprocessing import get_context

    pool = ProcessPoolExecutor(min(processes, cpus), mp_context=get_context("fork"), initializer=_inherit,
                               initargs=(task, background))
    try:
        yield lambda *args: pool.submit(_run_inherited, *args)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
