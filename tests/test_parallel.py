"""Unit tests pinning the repro.parallel.parallel_map contract."""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.errors import ConfigurationError
from repro.montecarlo.__main__ import main as montecarlo_main
from repro.parallel import parallel_map
from repro.sweep.__main__ import main as sweep_main


def _square_mod(x):
    return (x * x) % 11


def _boom_on_two_logged(args):
    """Raise on item 2, logging each of its runs to scratch."""
    x, scratch = args
    if x == 2:
        with open(os.path.join(scratch, "runs"), "a") as fh:
            fh.write("2\n")
        raise ValueError("item 2")
    return x


def _thread_of(x):
    """Hold the task long enough that an unbounded pool would start a
    thread per item, and report which thread ran it."""
    time.sleep(0.01)
    return x, threading.current_thread()


class TestParallelMap:
    def test_preserves_input_order(self):
        """Results come back in input order even when completion order
        is scrambled (later items finish first)."""

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

    def test_huge_worker_count_is_capped_at_cpu_count(self):
        """workers=10**6 must not start a thread per item: the pool holds
        at most os.cpu_count() threads and the result is the serial one."""
        items = list(range(50))
        got = parallel_map(_thread_of, items, workers=10**6)
        assert [x for x, _ in got] == items
        assert len({thread for _, thread in got}) <= (os.cpu_count() or 1)

    def test_task_exception_is_not_retried(self, tmp_path):
        """A task exception propagates from its first run: retries belong
        to run_guarded, never to the pool."""
        items = [(x, str(tmp_path)) for x in range(4)]
        with pytest.raises(ValueError, match="item 2"):
            parallel_map(_boom_on_two_logged, items, workers=2)
        assert (tmp_path / "runs").read_text() == "2\n"


class TestPersistentPools:
    """One pool per thread count outlives parallel_map calls."""

    def test_thread_pool_object_is_reused(self):
        def threads():
            return {t for _, t in parallel_map(_thread_of, range(8), workers=2)}

        first = threads()
        assert threading.current_thread() not in first
        assert threads() <= first  # no new thread: the same pool served

    def test_task_exception_leaves_the_pool_alive(self, tmp_path):
        items = [(x, str(tmp_path)) for x in range(4)]
        with pytest.raises(ValueError, match="item 2"):
            parallel_map(_boom_on_two_logged, items, workers=2)
        assert parallel_map(_square_mod, [0, 1], workers=2) == [0, 1]

    def test_distinct_thread_counts_get_distinct_pools(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        two = {t for _, t in parallel_map(_thread_of, range(12), workers=2)}
        three = {t for _, t in parallel_map(_thread_of, range(12), workers=3)}
        assert len(two) <= 2 and len(three) <= 3
        assert not two & three

    def test_counts_over_cpu_count_share_the_capped_pool(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        three = {t for _, t in parallel_map(_thread_of, range(12), workers=3)}
        huge = {t for _, t in parallel_map(_thread_of, range(12),
                                           workers=10**6)}
        assert huge <= three

    def test_reused_pool_results_stay_serial_identical(self):
        items = list(range(41))
        serial = [_square_mod(x) for x in items]
        for _ in range(3):
            assert parallel_map(_square_mod, items, workers=3) == serial


class TestWorkersFlag:
    @pytest.mark.parametrize(
        "main", [sweep_main, montecarlo_main], ids=["sweep", "montecarlo"]
    )
    def test_negative_workers_is_a_clean_error(self, main, capsys):
        """--workers -1 is a usage error: exit 2, one line, no report."""
        assert main(["--workers", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: workers must be >= 0")
        assert "Traceback" not in captured.err
