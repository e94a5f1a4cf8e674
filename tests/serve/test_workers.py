"""WorkerPool dispatch bookkeeping and fault-injection semantics."""

import pytest

from repro.serve import (
    BatchServiceModel,
    FaultyWorkerPool,
    LatencySpike,
    WorkerCrash,
    WorkerFaultSchedule,
    WorkerPool,
    WorkerStall,
)
from repro.serve.breaker import BreakerState

SERVICE = BatchServiceModel(fixed_s=2e-3, per_sample_s=1e-3)


def pool(n=2):
    return WorkerPool(n, SERVICE)


def faulty_pool(schedule, n=1, stall_timeout_s=0.05, threshold=3, cooldown=0.25):
    return FaultyWorkerPool(
        n, SERVICE, schedule=schedule, stall_timeout_s=stall_timeout_s,
        breaker_threshold=threshold, breaker_cooldown_s=cooldown,
    )


def stalled_pool(n=2, threshold=1, cooldown=0.25):
    """Worker 0 stalls on every dispatch inside [0, 10)."""
    schedule = WorkerFaultSchedule(
        stalls=(WorkerStall(worker_id=0, start_s=0.0, stop_s=10.0),)
    )
    return faulty_pool(
        schedule, n=n, stall_timeout_s=0.02, threshold=threshold,
        cooldown=cooldown,
    )


def fail_once(p, now=0.0):
    """Dispatch to worker 0 and complete its (stalled) batch."""
    outcome = p.dispatch(p.workers[0], 1, now)
    assert p.complete(p.workers[0], outcome.done_s) == "stall"
    return outcome.done_s


class TestWorkerPool:
    def test_dispatch_tracks_busy_and_occupancy(self):
        p = pool()
        worker = p.pick(0.0)
        assert worker.worker_id == 0
        outcome = p.dispatch(worker, batch_size=4, now=0.0)
        assert outcome.ok and outcome.cause is None
        assert outcome.done_s == pytest.approx(6e-3)
        assert not worker.idle_at(3e-3)
        assert worker.idle_at(6e-3)
        assert p.batch_occupancy == {4: 1}
        assert p.in_flight_frames() == 4
        assert p.complete(worker, outcome.done_s) is None
        assert p.in_flight_frames() == 0

    def test_idle_worker_lowest_id_first(self):
        p = pool(3)
        p.dispatch(p.workers[0], 1, now=0.0)
        assert p.pick(0.0).worker_id == 1

    def test_no_idle_worker_returns_none(self):
        p = pool(1)
        p.dispatch(p.workers[0], 1, now=0.0)
        assert p.pick(0.0) is None

    def test_dispatch_to_busy_worker_raises(self):
        p = pool(1)
        p.dispatch(p.workers[0], 1, now=0.0)
        with pytest.raises(RuntimeError, match="busy"):
            p.dispatch(p.workers[0], 1, now=1e-3)

    def test_utilization_and_mean_batch(self):
        p = pool(2)
        p.dispatch(p.workers[0], 2, now=0.0)  # 4 ms
        p.dispatch(p.workers[1], 6, now=0.0)  # 8 ms
        assert p.utilization(0.012) == pytest.approx((4e-3 + 8e-3) / (2 * 0.012))
        assert p.mean_batch_size() == pytest.approx(4.0)
        with pytest.raises(ValueError):
            p.utilization(0.0)

    def test_rejects_empty_pool(self):
        with pytest.raises(ValueError, match="n_workers"):
            WorkerPool(0, BatchServiceModel())

    def test_every_worker_counts_and_no_wake_up(self):
        # A busy worker's completion retries a blocked dispatch, so the
        # plain pool never asks for a wake-up.
        p = pool(3)
        for worker in p.workers:
            p.dispatch(worker, 1, now=0.0)
        assert p.pick(0.0) is None
        assert p.available_count(0.0) == 3
        assert p.wake_s(0.0) is None


class TestWorkerFaultSchedule:
    def test_spike_factor_composes_and_windows(self):
        schedule = WorkerFaultSchedule(
            spikes=(
                LatencySpike(start_s=1.0, stop_s=2.0, factor=2.0),  # pool-wide
                LatencySpike(start_s=1.5, stop_s=2.0, factor=3.0, worker_id=1),
            )
        )
        assert schedule.spike_factor(0, 0.5) == 1.0
        assert schedule.spike_factor(0, 1.5) == 2.0
        assert schedule.spike_factor(1, 1.7) == 6.0  # both windows apply
        assert schedule.spike_factor(1, 2.0) == 1.0  # stop is exclusive

    def test_crash_windows(self):
        crash = WorkerCrash(worker_id=0, at_s=1.0, down_s=0.5)
        schedule = WorkerFaultSchedule(crashes=(crash,))
        assert schedule.crash_during(0, 0.9, 1.1) is crash
        assert schedule.crash_during(0, 1.1, 2.0) is None
        assert schedule.crash_during(1, 0.9, 1.1) is None
        assert schedule.down_until(0, 1.2) == pytest.approx(1.5)
        assert schedule.down_until(0, 1.5) is None

    def test_empty_flag(self):
        assert WorkerFaultSchedule().empty
        assert not WorkerFaultSchedule(
            stalls=(WorkerStall(worker_id=0, start_s=0.0, stop_s=1.0),)
        ).empty

    def test_rejects_bad_windows(self):
        with pytest.raises(ValueError, match="stall window"):
            WorkerStall(worker_id=0, start_s=1.0, stop_s=0.5)
        with pytest.raises(ValueError, match="factor"):
            LatencySpike(start_s=0.0, stop_s=1.0, factor=0.5)
        with pytest.raises(ValueError, match="down_s"):
            WorkerCrash(worker_id=0, at_s=0.0, down_s=0.0)


class TestFaultyWorkerPool:
    def test_clean_dispatch_matches_base_pool(self):
        p = faulty_pool(WorkerFaultSchedule())
        base = pool(1)
        outcome = p.dispatch(p.workers[0], 4, now=0.0)
        assert outcome == base.dispatch(base.workers[0], 4, now=0.0)
        assert outcome.ok
        assert outcome.done_s == pytest.approx(6e-3)
        assert p.workers[0] == base.workers[0]
        assert p.batch_occupancy == base.batch_occupancy == {4: 1}
        assert p.complete(p.workers[0], outcome.done_s) is None

    def test_crash_fails_inflight_batch_and_holds_downtime(self):
        schedule = WorkerFaultSchedule(
            crashes=(WorkerCrash(worker_id=0, at_s=1.001, down_s=0.5),)
        )
        p = faulty_pool(schedule)
        worker = p.workers[0]
        outcome = p.dispatch(worker, 2, now=1.0)  # service 4 ms
        assert not outcome.ok
        assert outcome.cause == "crash"
        assert outcome.done_s == pytest.approx(1.001)  # fails at the crash
        assert worker.busy_until_s == pytest.approx(1.501)  # whole downtime
        assert worker.batches_served == 0
        assert worker.frames_served == 0
        assert p.in_flight_frames() == 2
        assert p.complete(worker, outcome.done_s) == "crash"
        # Unavailable while down, available again once restarted.
        assert p.pick(1.2) is None
        assert p.pick(1.501) is worker

    def test_stall_fails_at_dispatch_timeout(self):
        schedule = WorkerFaultSchedule(
            stalls=(WorkerStall(worker_id=0, start_s=0.0, stop_s=1.0),)
        )
        p = faulty_pool(schedule, stall_timeout_s=0.02)
        outcome = p.dispatch(p.workers[0], 3, now=0.5)
        assert not outcome.ok
        assert outcome.cause == "stall"
        assert outcome.done_s == pytest.approx(0.52)
        assert p.workers[0].busy_until_s == pytest.approx(0.52)
        assert p.workers[0].busy_s == pytest.approx(0.02)

    def test_spike_stretches_service_time(self):
        schedule = WorkerFaultSchedule(
            spikes=(LatencySpike(start_s=0.0, stop_s=1.0, factor=2.0),)
        )
        p = faulty_pool(schedule)
        outcome = p.dispatch(p.workers[0], 4, now=0.5)
        assert outcome.ok
        assert outcome.done_s == pytest.approx(0.5 + 2.0 * 6e-3)

    def test_next_available_accounts_for_downtime(self):
        schedule = WorkerFaultSchedule(
            crashes=(WorkerCrash(worker_id=0, at_s=0.0, down_s=1.0),)
        )
        p = faulty_pool(schedule)
        assert p.pick(0.5) is None
        assert p.wake_s(0.5) == pytest.approx(1.0)
        assert p.pick(1.0) is p.workers[0]  # available right now

    def test_dispatch_to_unavailable_worker_raises(self):
        schedule = WorkerFaultSchedule(
            crashes=(WorkerCrash(worker_id=0, at_s=0.0, down_s=1.0),)
        )
        p = faulty_pool(schedule)
        with pytest.raises(RuntimeError, match="not available"):
            p.dispatch(p.workers[0], 1, now=0.5)

    def test_crashed_and_open_workers_leave_available_count(self):
        schedule = WorkerFaultSchedule(
            crashes=(WorkerCrash(worker_id=1, at_s=0.0, down_s=0.1),),
            stalls=(WorkerStall(worker_id=0, start_s=0.0, stop_s=10.0),),
        )
        p = faulty_pool(schedule, n=3, stall_timeout_s=0.02, threshold=1)
        assert p.available_count(0.0) == 2  # worker 1 is down
        t = fail_once(p)  # worker 0's breaker opens until t + 0.25
        assert p.breakers[0].state(t) is BreakerState.OPEN
        assert p.available_count(t) == 1
        assert p.available_count(0.1) == 2  # worker 1 restarted
        assert p.available_count(t + 0.25) == 3  # worker 0 half-open
        # With every worker out the divisor is floored at one.
        p3 = faulty_pool(schedule, n=2, stall_timeout_s=0.02, threshold=1)
        t = fail_once(p3)
        assert p3.available_count(t) == 1

    def test_half_open_worker_counts_but_gets_one_probe(self):
        p = stalled_pool(n=1, threshold=1, cooldown=0.25)
        t = fail_once(p)
        assert p.pick(t) is None  # OPEN
        reopen = t + 0.25
        assert p.available_count(reopen) == 1
        assert p.breakers[0].state(reopen) is BreakerState.HALF_OPEN
        worker = p.pick(reopen)
        assert worker is p.workers[0]
        probe = p.dispatch(worker, 1, reopen)
        # Idle again once the probe's stall resolves, but no second probe
        # while the first one's outcome is still outstanding.
        assert worker.idle_at(probe.done_s)
        assert p.pick(probe.done_s) is None
        assert p.available_count(probe.done_s) == 1
        assert p.complete(worker, probe.done_s) == "stall"
        assert p.breakers[0].state(probe.done_s) is BreakerState.OPEN

    def test_wake_waits_for_breaker_reopen(self):
        p = stalled_pool(n=1, threshold=1, cooldown=0.25)
        t = fail_once(p)
        assert p.wake_s(t) == pytest.approx(t + 0.25)

    def test_wake_is_the_earliest_worker_and_strictly_later(self):
        schedule = WorkerFaultSchedule(
            crashes=(WorkerCrash(worker_id=1, at_s=0.0, down_s=1.0),)
        )
        p = faulty_pool(schedule, n=2)
        done = p.dispatch(p.workers[0], 4, now=0.5).done_s
        assert p.wake_s(0.5) == pytest.approx(done)  # busy worker 0 first
        # A worker due back right now still wakes the loop strictly later.
        q = faulty_pool(WorkerFaultSchedule(), n=1)
        assert q.wake_s(0.5) == 0.5 + 1e-9

    def test_wake_is_not_rearmed_until_it_fires(self):
        schedule = WorkerFaultSchedule(
            crashes=(WorkerCrash(worker_id=0, at_s=0.0, down_s=1.0),)
        )
        p = faulty_pool(schedule)
        assert p.wake_s(0.2) == pytest.approx(1.0)
        assert p.wake_s(0.4) is None  # an equal wake-up is armed
        assert p.wake_s(0.9) is None
        # Once it has fired the next blocked dispatch arms a new one.
        assert p.wake_s(1.0) == 1.0 + 1e-9

    def test_wake_is_not_rearmed_while_an_earlier_one_is(self):
        p = faulty_pool(WorkerFaultSchedule(), n=1)
        assert p.wake_s(0.5) == 0.5 + 1e-9
        assert p.wake_s(0.5 + 5e-10) is None  # would wake later than armed
        assert p.wake_s(0.5 + 1e-9) == 0.5 + 1e-9 + 1e-9  # fired: re-armed

    def test_complete_reports_failure_once_and_drives_breaker(self):
        p = stalled_pool(n=2, threshold=2)
        outcome = p.dispatch(p.workers[0], 1, 0.0)
        assert p.complete(p.workers[0], outcome.done_s) == "stall"
        assert p.complete(p.workers[0], outcome.done_s) is None  # reported once
        # Two failures in a row (threshold 2): the second completion
        # above counted as a success, so the count restarts.
        assert p.breakers[0].state(outcome.done_s) is BreakerState.CLOSED
        t = fail_once(p, outcome.done_s)
        t = fail_once(p, t)
        assert p.breakers[0].state(t) is BreakerState.OPEN
        ok = p.dispatch(p.workers[1], 1, 0.0)
        assert p.complete(p.workers[1], ok.done_s) is None
        assert p.breakers[1].transitions == []

    def test_redispatch_at_failure_instant_keeps_each_cause(self):
        # A worker freed by a stall can take a batch at the failure
        # instant before that batch's completion is handled.
        p = stalled_pool(n=1, threshold=5)
        first = p.dispatch(p.workers[0], 1, 0.0)
        second = p.dispatch(p.workers[0], 1, first.done_s)
        assert p.complete(p.workers[0], first.done_s) == "stall"
        assert p.complete(p.workers[0], second.done_s) == "stall"

    def test_state_roundtrip(self):
        p = stalled_pool(n=2, threshold=1)
        t = fail_once(p)
        p.dispatch(p.workers[1], 2, t)
        inflight = p.dispatch(p.workers[0], 1, t + 0.25)  # the probe
        p.wake_s(t + 0.25)
        other = stalled_pool(n=2, threshold=1)
        other.load_state(p.state_dict())
        assert other.state_dict() == p.state_dict()
        assert other.wake_s(t + 0.25) is None  # the armed wake-up survived
        assert other.complete(other.workers[0], inflight.done_s) == "stall"
