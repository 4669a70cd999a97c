"""Order-preserving map over tasks, serial or on a process pool."""

from __future__ import annotations

from collections.abc import Iterator

#: The worker of the pool this process serves, set once per process by
#: the pool's initializer.
_worker = None


def _install(worker) -> None:
    global _worker
    _worker = worker


def _run(task):
    return _worker(task)


def map_tasks(worker, tasks, jobs: int) -> Iterator:
    """Yield ``worker(task)`` for each task in ``tasks``, on up to ``jobs`` processes.

    The pool gets one process per task at most, since it starts all of
    its processes at the first submit; one process is a serial run.
    Results are yielded in the order of ``tasks`` either way, so serial
    and parallel runs yield equal sequences.  Nothing runs before the
    first result is asked for.  A caller that reads each result once
    holds one at a time; a caller that reuses them wraps the call in
    ``list``.  A task that raises stops the map with its error, and the
    pool's processes are joined before the error reaches the caller.

    Workers are forked wherever the platform offers ``fork``, whatever
    the interpreter's default start method, so a worker inherits the
    parent's heap policy (``cli._keep_freed_pages``) and its imported
    modules instead of starting a fresh interpreter.  ``worker`` reaches
    each process once, through the pool's initializer, and only the
    tasks are sent per call; a forked process inherits it without
    pickling, so a worker bound to a large dataset costs no copy per task.
    """

    tasks = list(tasks)
    workers = min(int(jobs), len(tasks))
    if workers <= 1:
        yield from map(worker, tasks)
        return
    # serial runs skip these imports
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context(method),
        initializer=_install,
        initargs=(worker,),
    ) as pool:
        yield from pool.map(_run, tasks)
