"""Runtime shadow-write checker: the dynamic half of rule R1."""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.analysis.runtime import (
    LockOrderViolation,
    LockOrderWatch,
    Race,
    ShadowArray,
    ShadowWriteLog,
)
from repro.parallel.sync import (
    atomic_add,
    atomic_store,
    critical,
    set_lock_order_watch,
)


def record_from_helper_thread(log, array, index, guarded):
    """Log one write attributed to a thread other than the caller's."""
    thread = threading.Thread(
        target=log.record, args=(array, index, guarded)
    )
    thread.start()
    thread.join()


class TestShadowWriteLog:
    def test_single_thread_never_races(self):
        log = ShadowWriteLog()
        for _ in range(5):
            log.record("a", 0, guarded=False)
        assert log.races() == []
        log.assert_race_free()

    def test_two_threads_unguarded_is_race(self):
        log = ShadowWriteLog()
        log.record("a", 0, guarded=False)
        record_from_helper_thread(log, "a", 0, guarded=False)
        races = log.races()
        assert len(races) == 1
        assert races[0].array == "a"
        assert races[0].index == 0
        assert len(races[0].thread_ids) == 2
        assert races[0].unguarded_writes == 2

    def test_two_threads_all_guarded_is_race_free(self):
        log = ShadowWriteLog()
        log.record("a", 0, guarded=True)
        record_from_helper_thread(log, "a", 0, guarded=True)
        assert log.races() == []

    def test_one_unguarded_write_is_enough(self):
        log = ShadowWriteLog()
        log.record("a", 0, guarded=True)
        record_from_helper_thread(log, "a", 0, guarded=False)
        races = log.races()
        assert len(races) == 1
        assert races[0].unguarded_writes == 1

    def test_distinct_cells_do_not_race(self):
        log = ShadowWriteLog()
        log.record("a", 0, guarded=False)
        record_from_helper_thread(log, "a", 1, guarded=False)
        record_from_helper_thread(log, "b", 0, guarded=False)
        assert log.races() == []

    def test_assert_race_free_raises_with_description(self):
        log = ShadowWriteLog()
        log.record("counts", 7, guarded=False)
        record_from_helper_thread(log, "counts", 7, guarded=False)
        with pytest.raises(AssertionError, match=r"counts\[7\]"):
            log.assert_race_free()

    def test_race_describe(self):
        race = Race(
            array="x", index=3, thread_ids=(1, 2), unguarded_writes=2
        )
        assert "x[3]" in race.describe()
        assert "2 threads" in race.describe()


class TestShadowArray:
    def test_reads_pass_through(self):
        base = np.arange(4.0)
        shadow = ShadowArray(base, ShadowWriteLog(), name="base")
        assert shadow[2] == 2.0
        assert len(shadow) == 4
        assert shadow.shape == (4,)
        assert shadow.dtype == np.float64
        np.testing.assert_array_equal(np.asarray(shadow), base)

    def test_setitem_writes_through_and_records(self):
        base = np.zeros(3)
        log = ShadowWriteLog()
        shadow = ShadowArray(base, log, name="base")
        shadow[1] = 5.0
        assert base[1] == 5.0
        (record,) = log.records
        assert (record.array, record.index, record.guarded) == (
            "base", 1, False
        )

    def test_atomic_helpers_mark_writes_guarded(self):
        log = ShadowWriteLog()
        shadow = ShadowArray(np.zeros(3), log, name="base")
        atomic_add(shadow, 0, 2.0)
        atomic_store(shadow, 1, 7.0)
        with critical():
            shadow[2] = 1.0
        assert [r.guarded for r in log.records] == [True, True, True]
        assert shadow[0] == 2.0 and shadow[1] == 7.0

    def test_numpy_scalar_index_collapses_with_python_int(self):
        log = ShadowWriteLog()
        shadow = ShadowArray(np.zeros(4), log, name="base")
        shadow[np.int64(2)] = 1.0
        shadow[2] = 2.0
        indices = {r.index for r in log.records}
        assert indices == {2}

    def test_slice_and_tuple_indices_are_hashable(self):
        log = ShadowWriteLog()
        shadow = ShadowArray(np.zeros((2, 2)), log, name="base")
        shadow[0, 1] = 1.0
        shadow1d = ShadowArray(np.zeros(4), log, name="flat")
        shadow1d[1:3] = 5.0
        shadow1d[np.array([0, 3])] = 2.0
        assert log.races() == []  # single thread; also proves hashability


class TestThreadBackendIntegration:
    """Drive a real thread pool; a barrier forces two pool threads."""

    N_ITEMS = 2

    def run_workload(self, worker):
        barrier = threading.Barrier(self.N_ITEMS, timeout=10)

        def item(v):
            barrier.wait()
            return worker(v)

        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(item, range(self.N_ITEMS)))

    def test_unguarded_concurrent_writes_are_detected(self):
        log = ShadowWriteLog()
        shadow = ShadowArray(np.zeros(1, dtype=np.int64), log, name="counts")

        def worker(v):
            shadow[0] = shadow[0] + 1  # raw shared write: R1 violation
            return v

        self.run_workload(worker)
        assert len({r.thread_id for r in log.records}) == 2
        races = log.races()
        assert len(races) == 1
        assert races[0].unguarded_writes == 2
        with pytest.raises(AssertionError):
            log.assert_race_free()

    def test_atomic_writes_are_race_free(self):
        log = ShadowWriteLog()
        shadow = ShadowArray(np.zeros(1, dtype=np.int64), log, name="counts")

        def worker(v):
            atomic_add(shadow, 0, 1)
            return v

        self.run_workload(worker)
        # The negative result is meaningful: two threads really wrote.
        assert len({r.thread_id for r in log.records}) == 2
        log.assert_race_free()
        assert shadow[0] == self.N_ITEMS

    def test_critical_section_writes_are_race_free(self):
        log = ShadowWriteLog()
        shadow = ShadowArray(np.zeros(1, dtype=np.int64), log, name="counts")
        lock = threading.Lock()

        def worker(v):
            with critical(lock):
                shadow[0] = shadow[0] + 1
            return v

        self.run_workload(worker)
        assert len({r.thread_id for r in log.records}) == 2
        log.assert_race_free()
        assert shadow[0] == self.N_ITEMS

    def test_guard_state_is_thread_local(self):
        log = ShadowWriteLog()
        shadow = ShadowArray(np.zeros(1, dtype=np.int64), log, name="counts")
        seen = []

        def worker(v):
            atomic_add(shadow, 0, 1)
            seen.append((v, threading.get_ident()))
            shadow[0] = shadow[0]  # unguarded again after helper returns
            return v

        self.run_workload(worker)
        guarded_flags = [r.guarded for r in log.records]
        assert guarded_flags.count(True) == self.N_ITEMS
        assert guarded_flags.count(False) == self.N_ITEMS


class TestLockOrderWatch:
    def test_consistent_order_stays_silent(self):
        watch = LockOrderWatch(strict=True)
        a = watch.wrap(threading.Lock(), "A")
        b = watch.wrap(threading.Lock(), "B")
        for _ in range(3):
            with a:
                with b:
                    pass
        watch.assert_acyclic()
        assert watch.edges() == {("A", "B")}
        assert watch.violations == []

    def test_abba_cycle_is_detected(self):
        watch = LockOrderWatch()
        a = watch.wrap(threading.Lock(), "A")
        b = watch.wrap(threading.Lock(), "B")
        with a:
            with b:
                pass
        with b:
            with a:
                pass
        # The cycle-closing edge is rolled back after being reported,
        # so the recorded graph stays acyclic.
        assert watch.edges() == {("A", "B")}
        assert watch.violations
        with pytest.raises(LockOrderViolation, match="A"):
            watch.assert_acyclic()

    def test_strict_mode_raises_at_the_closing_acquire(self):
        watch = LockOrderWatch(strict=True)
        a = watch.wrap(threading.Lock(), "A")
        b = watch.wrap(threading.Lock(), "B")
        with a:
            with b:
                pass
        with pytest.raises(LockOrderViolation):
            with b:
                with a:
                    pass
        # The failed acquire must not corrupt the held stack: the same
        # consistent order keeps working afterwards.
        with a:
            with b:
                pass

    def test_three_lock_cycle_across_threads(self):
        # A->B, B->C, C->A: no pair is inverted, yet the triangle
        # deadlocks.  Each leg runs in its own thread so per-thread
        # held stacks are exercised too.
        watch = LockOrderWatch()
        names = ["A", "B", "C"]
        locks = {n: watch.wrap(threading.Lock(), n) for n in names}

        def leg(first, second):
            with locks[first]:
                with locks[second]:
                    pass

        for first, second in [("A", "B"), ("B", "C"), ("C", "A")]:
            t = threading.Thread(target=leg, args=(first, second))
            t.start()
            t.join()
        with pytest.raises(LockOrderViolation):
            watch.assert_acyclic()

    def test_reentrant_acquire_is_not_an_edge(self):
        watch = LockOrderWatch(strict=True)
        r = watch.wrap(threading.RLock(), "R")
        with r:
            with r:
                pass
        assert watch.edges() == set()
        watch.assert_acyclic()

    def test_condition_on_watched_lock_works(self):
        watch = LockOrderWatch(strict=True)
        wrapped = watch.wrap(threading.RLock(), "cond-lock")
        cond = threading.Condition(wrapped)
        done = []

        def waiter():
            with cond:
                while not done:
                    cond.wait(timeout=2.0)

        t = threading.Thread(target=waiter)
        t.start()
        with cond:
            done.append(True)
            cond.notify_all()
        t.join(timeout=5.0)
        assert not t.is_alive()
        watch.assert_acyclic()

    def test_failed_nonblocking_acquire_leaves_stack_clean(self):
        watch = LockOrderWatch()
        inner = threading.Lock()
        a = watch.wrap(inner, "A")
        b = watch.wrap(threading.Lock(), "B")
        inner.acquire()  # someone else holds A
        try:
            assert a.acquire(blocking=False) is False
        finally:
            inner.release()
        with b:
            pass
        # A was never held, so no A->B or B->A ordering was recorded.
        assert watch.edges() == set()


class TestSyncHelperIntegration:
    @pytest.fixture()
    def watch(self):
        watch = LockOrderWatch()
        previous = set_lock_order_watch(watch)
        yield watch
        set_lock_order_watch(previous)

    def test_atomics_report_the_global_lock(self, watch):
        arr = np.zeros(2)
        atomic_add(arr, 0, 1.0)
        with critical():
            pass
        assert watch.edges() == set()  # nothing held around them

    def test_cycle_between_test_lock_and_global_lock(self, watch):
        arr = np.zeros(2)
        outer = watch.wrap(threading.Lock(), "test-lock")
        with outer:
            atomic_add(arr, 0, 1.0)  # test-lock -> <global-critical>
        with critical():
            with outer:  # <global-critical> -> test-lock: cycle
                pass
        with pytest.raises(LockOrderViolation, match="test-lock"):
            watch.assert_acyclic()

    def test_caller_supplied_critical_lock_is_named(self, watch):
        lock = threading.Lock()
        with critical(lock):
            pass
        # No ordering edge (nothing else held), but the acquisition
        # must not crash and must not report the global lock's name.
        assert watch.edges() == set()
