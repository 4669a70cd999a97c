"""The order-preserving task map: result order, errors, worker count, start method and
worker hand-off."""

import concurrent.futures
import multiprocessing
import threading
import time
from functools import partial

import pytest

from fairplug import _pool
from fairplug._pool import map_tasks


@pytest.fixture
def pools(monkeypatch):
    """Replace the process pool by one that runs in this process and records
    its ``(max_workers, mp_context)``; no process is started."""
    made = []

    class RecordingPool:
        def __init__(self, max_workers, mp_context=None, initializer=None, initargs=()):
            made.append((max_workers, mp_context))
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(_pool, "_worker", None)
    return made


def test_pool_has_no_more_processes_than_tasks(pools):
    assert list(map_tasks(abs, [-1, 2, -3], jobs=10_000)) == [1, 2, 3]
    assert [workers for workers, _ in pools] == [3]


def test_one_task_or_one_job_runs_serially(pools):
    assert list(map_tasks(abs, [-4], jobs=8)) == [4]
    assert list(map_tasks(abs, range(-2, 0), jobs=1)) == [2, 1]
    assert list(map_tasks(abs, [], jobs=4)) == []
    assert pools == []


def test_workers_are_forked_where_the_platform_can(pools):
    list(map_tasks(abs, [1, 2], jobs=2))
    ((_, context),) = pools
    if "fork" in multiprocessing.get_all_start_methods():
        assert context.get_start_method() == "fork"
    else:
        assert context is multiprocessing.get_context()


def _offset(lock, task):
    with lock:
        return task + 1


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)
def test_worker_reaches_forked_processes_without_pickling():
    worker = partial(_offset, threading.Lock())  # a lock cannot be pickled
    serial = list(map_tasks(worker, range(5), jobs=1))
    assert list(map_tasks(worker, range(5), jobs=2)) == serial == [1, 2, 3, 4, 5]


def _slower_first(task):
    """``task``, after a delay that shrinks with it, so later tasks finish first."""
    time.sleep(0.02 * (4 - task))
    return task


def _fail_on_two(task):
    if task == 2:
        raise ValueError(f"task {task} failed")
    return task


def test_serial_results_are_yielded_one_task_at_a_time():
    ran = []

    def worker(task):
        ran.append(task)
        return task

    results = map_tasks(worker, range(3), jobs=1)
    assert ran == []  # nothing runs before the first result is asked for
    assert next(results) == 0 and ran == [0]
    assert list(results) == [1, 2] and ran == [0, 1, 2]


@pytest.mark.parametrize("jobs", [1, 2])
def test_results_come_in_task_order(jobs):
    assert list(map_tasks(_slower_first, range(5), jobs=jobs)) == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_failing_task_raises_and_leaves_no_process(jobs):
    seen = []
    with pytest.raises(ValueError, match="task 2 failed"):
        for result in map_tasks(_fail_on_two, range(5), jobs=jobs):
            seen.append(result)
    assert seen == [0, 1]
    assert multiprocessing.active_children() == []
