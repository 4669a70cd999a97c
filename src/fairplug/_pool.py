"""Order-preserving map over tasks, serial or on a process pool."""

from __future__ import annotations

#: The worker of the pool this process serves, set once per process by
#: the pool's initializer.
_worker = None


def _install(worker) -> None:
    global _worker
    _worker = worker


def _run(task):
    return _worker(task)


def map_tasks(worker, tasks, jobs: int) -> list:
    """``[worker(task) for task in tasks]``, on up to ``jobs`` processes.

    The pool gets one process per task at most, since it starts all of
    its processes at the first submit; one process is a serial run.
    Results keep the order of ``tasks`` either way, so serial and
    parallel runs return equal lists.

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
        return [worker(task) for task in tasks]
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
        return list(pool.map(_run, tasks))
