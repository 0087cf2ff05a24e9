"""Unit tests pinning the repro.parallel.parallel_map contract."""

from __future__ import annotations

import os
import threading

import pytest

from repro.errors import ConfigurationError, TaskFailedError
from repro.parallel import parallel_map


def _square_mod(x):
    """Module-level so the process backend can pickle it."""
    return (x * x) % 11


def _current_pid(_):
    return os.getpid()


def _boom_on_two(x):
    if x == 2:
        raise ValueError("item 2")
    return x


def _boom_on_two_logged(args):
    """Raise on item 2, logging each of its runs to scratch."""
    x, scratch = args
    if x == 2:
        with open(os.path.join(scratch, "runs"), "a") as fh:
            fh.write("2\n")
        raise ValueError("item 2")
    return x


def _die_on_three(x):
    """Kill the worker process outright (BrokenExecutor for the pool)."""
    if x == 3:
        os._exit(13)
    return x * 10


def _die_once_marker(args):
    """Kill the worker the first time item 3 is seen, via a marker file
    (the killed worker cannot remember having fired)."""
    x, scratch = args
    if x == 3:
        marker = os.path.join(scratch, "died-once")
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return x * 10
        os.close(fd)
        os._exit(13)
    return x * 10


def _die_always_on_three(args):
    """Kill the worker every time item 3 runs, counting its runs in
    scratch (the killed worker cannot remember them)."""
    x, scratch = args
    if x == 3:
        with open(os.path.join(scratch, "runs"), "a") as fh:
            fh.write("3\n")
        os._exit(13)
    return x * 10


class TestParallelMap:
    def test_preserves_input_order(self):
        """Results come back in input order even when completion order
        is scrambled (later items finish first)."""
        import time

        def slow_for_small(x):
            time.sleep(0.02 if x < 3 else 0.0)
            return x * 10

        items = list(range(6))
        assert parallel_map(slow_for_small, items, workers=6) == [
            x * 10 for x in items
        ]

    @pytest.mark.parametrize("workers", [None, 0, 1])
    def test_serial_fallback_runs_in_caller_thread(self, workers):
        seen = []

        def fn(x):
            seen.append(threading.current_thread())
            return x + 1

        assert parallel_map(fn, [1, 2, 3], workers=workers) == [2, 3, 4]
        assert all(t is threading.main_thread() for t in seen)

    def test_parallel_equals_serial(self):
        items = list(range(37))
        fn = lambda x: (x * x) % 11  # noqa: E731
        assert parallel_map(fn, items, workers=8) == parallel_map(fn, items)

    def test_empty_input(self):
        assert parallel_map(lambda x: x, [], workers=4) == []

    def test_workers_clamped_to_item_count(self):
        # more workers than items must not error or reorder
        assert parallel_map(lambda x: -x, [5], workers=64) == [-5]

    @pytest.mark.parametrize("workers", [None, 4])
    def test_exceptions_propagate(self, workers):
        def boom(x):
            if x == 2:
                raise ValueError("item 2")
            return x

        with pytest.raises(ValueError, match="item 2"):
            parallel_map(boom, [0, 1, 2, 3], workers=workers)

    def test_generator_input_consumed_once(self):
        gen = (x for x in (1, 2, 3))
        assert parallel_map(lambda x: x * 2, gen, workers=2) == [2, 4, 6]

    @pytest.mark.parametrize("workers", [-1, -4])
    def test_negative_workers_rejected(self, workers):
        """workers=-4 must be a loud error, not a silent serial run."""
        calls = []

        def fn(x):
            calls.append(x)
            return x

        with pytest.raises(ConfigurationError, match="workers"):
            parallel_map(fn, [1, 2, 3], workers=workers)
        assert calls == []  # rejected before any work ran

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="backend"):
            parallel_map(lambda x: x, [1], backend="fiber")


class TestProcessBackend:
    """backend="process": picklable descriptors, serial-identical results."""

    def test_matches_serial_in_input_order(self):
        items = list(range(37))
        got = parallel_map(_square_mod, items, workers=4, backend="process")
        assert got == [_square_mod(x) for x in items]

    def test_actually_fans_out_to_other_processes(self):
        pids = set(
            parallel_map(_current_pid, range(16), workers=4,
                         backend="process")
        )
        # At least one item must have run outside the parent process.
        assert pids - {os.getpid()}

    def test_serial_fallback_skips_the_pool(self):
        # workers<=1 never spawns processes, so even unpicklable closures
        # work — the backend only constrains the genuinely parallel path.
        assert parallel_map(lambda x: x + 1, [1, 2], workers=1,
                            backend="process") == [2, 3]

    def test_exceptions_propagate(self):
        with pytest.raises(ValueError, match="item 2"):
            parallel_map(_boom_on_two, [0, 1, 2, 3], workers=2,
                         backend="process")

    def test_negative_workers_rejected(self):
        with pytest.raises(ConfigurationError, match="workers"):
            parallel_map(_square_mod, [1], workers=-2, backend="process")


class TestPersistentPools:
    """Pools outlive parallel_map calls and are reused per (backend,
    workers) key; shutdown() tears them down explicitly."""

    def test_thread_pool_object_is_reused(self):
        from repro import parallel

        parallel.shutdown()
        parallel_map(_square_mod, range(8), workers=3)
        pool = parallel._POOLS.get(("thread", 3))
        assert pool is not None
        parallel_map(_square_mod, range(8), workers=3)
        assert parallel._POOLS.get(("thread", 3)) is pool
        assert parallel.shutdown() == 1
        assert parallel._POOLS == {}

    def test_process_workers_are_reused_across_calls(self):
        from repro import parallel

        parallel.shutdown()
        first = set(
            parallel_map(_current_pid, range(8), workers=2,
                         backend="process")
        )
        second = set(
            parallel_map(_current_pid, range(8), workers=2,
                         backend="process")
        )
        # Same pool, same worker processes: spawn-up paid once.
        assert first & second
        assert parallel.shutdown() == 1

    def test_distinct_worker_counts_get_distinct_pools(self):
        from repro import parallel

        parallel.shutdown()
        parallel_map(_square_mod, range(8), workers=2)
        parallel_map(_square_mod, range(8), workers=4)
        assert set(parallel._POOLS) == {("thread", 2), ("thread", 4)}
        assert parallel.shutdown() == 2

    def test_task_exception_leaves_the_pool_alive(self):
        from repro import parallel

        parallel.shutdown()
        with pytest.raises(ValueError, match="item 2"):
            parallel_map(_boom_on_two, [0, 1, 2, 3], workers=2)
        pool = parallel._POOLS.get(("thread", 2))
        assert pool is not None
        assert parallel_map(_square_mod, [5], workers=1) == [3]
        assert parallel_map(_boom_on_two, [0, 1], workers=2) == [0, 1]
        parallel.shutdown()

    def test_reused_pool_results_stay_serial_identical(self):
        from repro import parallel

        parallel.shutdown()
        items = list(range(41))
        serial = [_square_mod(x) for x in items]
        for backend in ("thread", "process"):
            for _ in range(3):
                got = parallel_map(
                    _square_mod, items, workers=3, backend=backend
                )
                assert got == serial
        parallel.shutdown()

    def test_get_pool_validates_arguments(self):
        from repro.parallel import get_pool

        with pytest.raises(ConfigurationError, match="backend"):
            get_pool("fiber", 2)
        with pytest.raises(ConfigurationError, match="workers"):
            get_pool("thread", 0)

    @pytest.mark.faults
    def test_broken_pool_is_evicted_and_rebuilt(self, tmp_path):
        """A worker death mid-map under attempts=1 raises TaskFailedError
        from the break, evicts the carcass, and the next call gets a
        healthy pool."""
        from concurrent.futures import BrokenExecutor

        from repro import parallel

        parallel.shutdown()
        with pytest.raises(TaskFailedError) as info:
            parallel_map(_die_on_three, range(8), workers=2,
                         backend="process")
        assert isinstance(info.value.__cause__, BrokenExecutor)
        # The dead pool must be gone, not poisoning the registry.
        assert ("process", 2) not in parallel._POOLS
        # And a fresh call simply works.
        got = parallel_map(_square_mod, range(8), workers=2,
                           backend="process")
        assert got == [_square_mod(x) for x in range(8)]
        parallel.shutdown()


class TestDeadWorkers:
    """A worker death evicts the pool; ``attempts > 1`` re-runs only the
    unfinished items on a fresh one."""

    @pytest.mark.faults
    def test_worker_kill_keeps_completed_results(self, tmp_path):
        """BrokenExecutor recovery: the pool is rebuilt and only the
        unfinished items re-run; results stay serial-identical."""
        from repro import parallel

        parallel.shutdown()
        items = [(x, str(tmp_path)) for x in range(10)]
        got = parallel_map(
            _die_once_marker, items, workers=2, backend="process",
            attempts=3,
        )
        assert got == [x * 10 for x in range(10)]
        parallel.shutdown()

    @pytest.mark.faults
    def test_item_killing_every_worker_runs_out_of_attempts(self, tmp_path):
        from concurrent.futures import BrokenExecutor

        from repro import parallel

        parallel.shutdown()
        items = [(x, str(tmp_path)) for x in range(6)]
        with pytest.raises(TaskFailedError, match="item 3") as info:
            parallel_map(
                _die_always_on_three, items, workers=2, backend="process",
                attempts=3,
            )
        assert info.value.attempts == 3
        assert isinstance(info.value.__cause__, BrokenExecutor)
        assert (tmp_path / "runs").read_text() == "3\n" * 3
        assert ("process", 2) not in parallel._POOLS
        parallel.shutdown()

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_task_exception_is_not_retried(self, backend, tmp_path):
        """Only dead workers are retried here; a task exception
        propagates from its first run and leaves the pool alive."""
        from repro import parallel

        parallel.shutdown()
        items = [(x, str(tmp_path)) for x in range(4)]
        with pytest.raises(ValueError, match="item 2"):
            parallel_map(_boom_on_two_logged, items, workers=2,
                         backend=backend, attempts=3)
        assert (tmp_path / "runs").read_text() == "2\n"
        assert (backend, 2) in parallel._POOLS
        parallel.shutdown()

    def test_attempts_below_one_rejected(self):
        with pytest.raises(ConfigurationError, match="attempts"):
            parallel_map(_square_mod, [1, 2], workers=2, attempts=0)
