"""The order-preserving task map: worker count, start method and worker hand-off."""

import concurrent.futures
import multiprocessing
import threading
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
    assert map_tasks(abs, [-1, 2, -3], jobs=10_000) == [1, 2, 3]
    assert [workers for workers, _ in pools] == [3]


def test_one_task_or_one_job_runs_serially(pools):
    assert map_tasks(abs, [-4], jobs=8) == [4]
    assert map_tasks(abs, range(-2, 0), jobs=1) == [2, 1]
    assert map_tasks(abs, [], jobs=4) == []
    assert pools == []


def test_workers_are_forked_where_the_platform_can(pools):
    map_tasks(abs, [1, 2], jobs=2)
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
    serial = map_tasks(worker, range(5), jobs=1)
    assert map_tasks(worker, range(5), jobs=2) == serial == [1, 2, 3, 4, 5]
