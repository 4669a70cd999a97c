"""Order-preserving map over tasks, serial or on a process pool."""

from __future__ import annotations


def map_tasks(worker, tasks, jobs: int) -> list:
    """``[worker(task) for task in tasks]``, on ``jobs`` processes when ``jobs > 1``.

    Results keep the order of ``tasks`` either way, so serial and
    parallel runs return equal lists.
    """

    jobs = int(jobs)
    if jobs <= 1:
        return [worker(task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor  # serial runs skip this import

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, tasks))
