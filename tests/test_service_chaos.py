"""Chaos suite: the service's durability claims under real crashes.

Acceptance criteria from the service design (DESIGN.md §13):

* after ``kill -9`` of a worker mid-solve **and** a full service
  restart, all jobs reach ``DONE`` exactly once;
* killing a warm worker costs only its cache: its job is retried once
  on a fresh worker; recycling workers neither loses nor repeats a
  job, and a drain joins every worker;
* resubmitting an identical spec performs **zero** additional solves;
* truncating the WAL tail loses at most the single uncommitted record;
* SIGTERM drains gracefully and exits 0.

Every test here runs ``python -m repro serve`` as a real subprocess
(via :class:`tests.chaos.ServiceHarness`) so the kills are real kills.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import threading
import time

import pytest

from repro.obs import get_registry
from repro.service import (
    JobState,
    JobStore,
    ScenarioJobService,
    ServiceClient,
    supervisor,
)
from repro.service.supervisor import scenario_class
from tests.chaos import (
    ServiceHarness,
    count_solves,
    garble_wal_tail,
    make_scenario,
    read_run_log,
)


@pytest.fixture()
def harness(tmp_path):
    h = ServiceHarness(tmp_path / "svc")
    yield h
    h.stop()


# ---------------------------------------------------------------------------
# worker kill + full restart: DONE exactly once
# ---------------------------------------------------------------------------


def test_kill9_worker_then_kill9_service_every_job_done_exactly_once(
    tmp_path,
):
    root = tmp_path / "svc"
    harness = ServiceHarness(root, solve_delay_s=1.0, retries=3)
    try:
        harness.start()
        first = harness.submit(make_scenario("victim", "database"))
        second = harness.submit(make_scenario("bystander", "web"))

        # Chaos 1: SIGKILL the worker mid-solve.  The supervisor must
        # notice the death and re-enqueue the attempt.
        killed_pid = harness.kill_worker(first["job_id"])

        # Chaos 2: SIGKILL the whole service while the retry attempt
        # is in flight (wait for a *fresh* worker, not the corpse).
        deadline = time.monotonic() + 60.0
        while True:
            job = harness.wait_running(first["job_id"])
            if job["worker_pid"] != killed_pid:
                break
            assert time.monotonic() < deadline
            time.sleep(0.02)
        harness.kill9()
        # SIGKILL orphans the worker; reap it so "exactly once" is
        # decided by the restarted service, not a surviving child.
        try:
            os.kill(int(job["worker_pid"]), signal.SIGKILL)
        except ProcessLookupError:
            pass
    finally:
        harness.stop()

    # Full restart on the same root, with the chaos window disabled so
    # recovery itself runs clean.
    restarted = ServiceHarness(root, retries=3)
    try:
        restarted.start()
        health = restarted.client.health()
        # No job lost: both submissions survived both kills.
        assert health["recovery"]["jobs"] == 2
        assert health["recovery"]["requeued"] >= 1

        for accepted in (first, second):
            restarted.wait_done(accepted["job_id"])

        # Exactly once: one uncached solve per content hash, total two,
        # no matter how many attempts the kills burned.
        assert count_solves(root, first["content_hash"]) == 1
        assert count_solves(root, second["content_hash"]) == 1
        assert count_solves(root) == 2

        # The SIGKILLed worker never flushed its telemetry, but the
        # supervisor synthesized its terminal trace event — with the
        # last heartbeat timestamp it was provably alive at — and the
        # line-buffered event log survived the service kill too.
        import json

        events = root / "events.jsonl"
        assert events.exists()
        killed = [
            record
            for line in events.read_text().splitlines()
            for record in (json.loads(line),)
            if record.get("name") == "worker.killed"
        ]
        assert killed, "no worker.killed event in events.jsonl"
        attrs = killed[0]["attrs"]
        assert attrs["job_id"] == first["job_id"]
        assert "exitcode" in attrs["reason"]
        assert attrs["last_heartbeat"] > 0
        assert attrs["pid"] == killed_pid
    finally:
        restarted.stop()


# ---------------------------------------------------------------------------
# resubmission: zero additional solves
# ---------------------------------------------------------------------------


def test_resubmit_identical_spec_costs_zero_solves(harness):
    harness.start()
    accepted = harness.submit(make_scenario("original"))
    harness.wait_done(accepted["job_id"])
    assert count_solves(harness.root) == 1

    # Same physics, different label: the content hash matches, the
    # result is served from the cache, and the run log does not move.
    again = harness.submit(make_scenario("relabelled"))
    assert again["disposition"] == "cached"
    assert again["job_id"] == accepted["job_id"]
    result = harness.client.result(accepted["job_id"])
    assert result["result"]["peak_temperature_c"] > 20.0
    assert count_solves(harness.root) == 1

    # Even across a restart: the cache and job table are durable.
    assert harness.sigterm() == 0
    harness.start()
    cached = harness.submit(make_scenario("after-restart"))
    assert cached["disposition"] == "cached"
    assert count_solves(harness.root) == 1


# ---------------------------------------------------------------------------
# WAL tail truncation: lose at most the uncommitted record
# ---------------------------------------------------------------------------


def test_torn_wal_tail_loses_at_most_the_last_record(harness):
    harness.start()
    done = harness.submit(make_scenario("committed", "database"))
    harness.wait_done(done["job_id"])
    pending = harness.submit(make_scenario("queued", "web"))
    harness.kill9()

    # A crash mid-append leaves a torn, newline-less record at the tail.
    segment = garble_wal_tail(harness.root)

    harness.start()
    health = harness.client.health()
    assert health["recovery"]["corrupt_tail_segments"] == 1
    assert health["recovery"]["dropped_bytes"] > 0
    # Every *committed* record survived: both jobs are still known and
    # the finished one is still DONE (its solve is not repeated).
    status = harness.client.status(done["job_id"])["job"]
    assert status["state"] == "DONE"
    harness.wait_done(pending["job_id"])
    assert count_solves(harness.root, done["content_hash"]) == 1
    # The repair was physical: the segment on disk ends clean again.
    assert not segment.read_bytes().rstrip().endswith(b"subm")


def test_truncation_only_loses_the_uncommitted_suffix(tmp_path):
    """Offline twin of the tail test: byte-level, no service process."""
    root = tmp_path / "svc"
    store = JobStore(root, fsync=False)
    first, _ = store.submit(make_scenario("first", "database"))
    second, _ = store.submit(make_scenario("second", "web"))
    store.close()

    # Cut the newest segment mid-way through the second record.
    (segment,) = store.wal.segments()
    blob = segment.read_bytes()
    first_end = blob.index(b"\n") + 1
    with open(segment, "r+b") as handle:
        handle.truncate(first_end + (len(blob) - first_end) // 2)

    reopened = JobStore(root, fsync=False)
    # The committed first record is intact; only the torn second
    # submission (the "uncommitted record") is gone.
    assert reopened.recovery.corrupt_tail_segments == 1
    assert first.job_id in reopened.jobs
    assert second.job_id not in reopened.jobs
    assert reopened.jobs[first.job_id].state is JobState.PENDING
    reopened.close()


# ---------------------------------------------------------------------------
# SIGTERM: graceful drain, exit 0, resumable
# ---------------------------------------------------------------------------


def test_sigterm_mid_solve_drains_checkpoints_and_exits_zero(tmp_path):
    root = tmp_path / "svc"
    harness = ServiceHarness(
        root, solve_delay_s=3.0, drain_timeout_s=0.5
    )
    try:
        harness.start()
        accepted = harness.submit(make_scenario("interrupted"))
        harness.wait_running(accepted["job_id"])

        # SIGTERM with a drain window far shorter than the solve: the
        # service must requeue the job through the WAL and exit 0.
        assert harness.sigterm() == 0
        assert count_solves(root) == 0
    finally:
        harness.stop()

    resumed = ServiceHarness(root)
    try:
        resumed.start()
        job = resumed.client.status(accepted["job_id"])["job"]
        assert job["state"] in ("PENDING", "RUNNING", "DONE")
        resumed.wait_done(accepted["job_id"])
        assert count_solves(root, accepted["content_hash"]) == 1
        assert resumed.sigterm() == 0
    finally:
        resumed.stop()


def test_sigterm_waits_for_short_inflight_work(harness):
    """With a generous drain window the in-flight job finishes first."""
    harness.start()
    accepted = harness.submit(make_scenario("finish-me"))
    deadline = time.monotonic() + 30.0
    while True:  # make sure the job left the queue before the SIGTERM
        state = harness.client.status(accepted["job_id"])["job"]["state"]
        if state in ("RUNNING", "DONE"):
            break
        assert time.monotonic() < deadline
        time.sleep(0.02)
    assert harness.sigterm(timeout=90.0) == 0
    # The drain completed the solve before exiting: a restart serves
    # the result from the cache with zero extra work.
    entries = [e for e in read_run_log(harness.root) if not e["cached"]]
    assert len(entries) == 1
    harness.start()
    resubmitted = harness.submit(make_scenario("finish-me-again"))
    assert resubmitted["disposition"] == "cached"
    assert count_solves(harness.root) == 1


# ---------------------------------------------------------------------------
# warm workers: a kill costs only the cache; recycling; drain joins them
# ---------------------------------------------------------------------------


def _events(root):
    path = root / "events.jsonl"
    return [json.loads(line) for line in path.read_text().splitlines()]


def _wait_ready(harness, timeout=60.0):
    """The single warm worker, once it has banked its first job."""
    deadline = time.monotonic() + timeout
    while True:
        (worker,) = harness.client.health()["workers"]["pool"]
        if worker["bank_bytes"] > 0:
            return worker
        assert time.monotonic() < deadline, worker
        time.sleep(0.02)


def _job_process(worker_pid, timeout=30.0):
    """The pid of the job process a warm worker has forked."""
    deadline = time.monotonic() + timeout
    while True:
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    stat = handle.read()
            except OSError:
                continue
            # Fields after the parenthesised command: state, ppid, ...
            if int(stat.rsplit(")", 1)[1].split()[1]) == worker_pid:
                return int(entry)
        assert time.monotonic() < deadline, "no job process appeared"
        time.sleep(0.02)


def test_kill9_of_a_warm_worker_retries_its_job_once_on_a_fresh_worker(
    harness,
):
    harness.solve_delay_s = 1.0
    harness.start()
    warmup = harness.submit(make_scenario("warm-up", "database"))
    warm_pid = harness.wait_done(warmup["job_id"])["worker_pid"]
    warm = _wait_ready(harness)
    assert warm["pid"] == warm_pid
    assert warm["bank_bytes"] > 0, "the warm worker banked no factors"

    victim_spec = make_scenario("victim", "web")
    victim = harness.submit(victim_spec)
    running = harness.wait_running(victim["job_id"])
    assert running["worker_pid"] == warm_pid
    assert running["worker_jobs_served"] == 2
    os.kill(warm_pid, signal.SIGKILL)

    job = harness.wait_done(victim["job_id"])
    assert job["attempts"] == 2
    assert job["worker_pid"] != warm_pid
    assert job["worker_jobs_served"] == 1, "retry did not run on a fresh worker"
    assert count_solves(harness.root, victim["content_hash"]) == 1
    assert count_solves(harness.root) == 2
    metrics = harness.client.metrics()["metrics"]
    assert metrics["service.worker.deaths"]["value"] == 1
    assert metrics["service.jobs.retries"]["value"] == 1
    # The death was charged to the victim's scenario class: the key the
    # circuit breaker counts deaths under.
    deaths = [
        record["attrs"]
        for record in _events(harness.root)
        if record.get("name") == "service.worker_death"
    ]
    assert [(d["job_id"], d["scenario_class"]) for d in deaths] == [
        (victim["job_id"], scenario_class(victim_spec))
    ]


@pytest.mark.skipif(
    not os.path.exists("/proc/self/stat"), reason="needs /proc"
)
def test_kill9_of_a_job_process_retries_it_on_the_same_warm_worker(harness):
    harness.solve_delay_s = 1.0
    harness.start()
    warmup = harness.submit(make_scenario("warm-up", "database"))
    warm_pid = harness.wait_done(warmup["job_id"])["worker_pid"]
    _wait_ready(harness)

    victim_spec = make_scenario("victim", "web")
    victim = harness.submit(victim_spec)
    harness.wait_running(victim["job_id"])
    job_pid = _job_process(warm_pid)
    os.kill(job_pid, signal.SIGKILL)

    job = harness.wait_done(victim["job_id"])
    assert job["attempts"] == 2
    # Crash isolation is per job: the warm worker and its cache survive.
    assert job["worker_pid"] == warm_pid
    assert job["worker_jobs_served"] == 3
    assert count_solves(harness.root, victim["content_hash"]) == 1
    assert count_solves(harness.root) == 2
    metrics = harness.client.metrics()["metrics"]
    assert metrics["service.worker.deaths"]["value"] == 1
    assert metrics["service.jobs.retries"]["value"] == 1
    deaths = [
        record["attrs"]
        for record in _events(harness.root)
        if record.get("name") == "service.worker_death"
    ]
    assert [(d["job_id"], d["scenario_class"]) for d in deaths] == [
        (victim["job_id"], scenario_class(victim_spec))
    ]
    assert "job process exitcode -9" in deaths[0]["reason"]


@pytest.mark.parametrize(
    "limit, value", [("WORKER_MAX_JOBS", 1), ("WORKER_RSS_CAP_MB", 0.0)]
)
def test_recycled_warm_workers_neither_lose_nor_repeat_a_job(
    tmp_path, monkeypatch, limit, value
):
    monkeypatch.setattr(supervisor, limit, value)
    recycled = get_registry().counter("service.workers.recycled")
    before = recycled.value
    service = ScenarioJobService(
        tmp_path / "svc", max_workers=1, fsync=False, poll_interval_s=0.02
    )
    service.start_background()
    try:
        client = ServiceClient(service.address)
        accepted = [
            client.submit(make_scenario(f"recycle-{w}", w).to_dict())
            for w in ("database", "web", "multimedia")
        ]
        jobs = [client.wait_for(a["job_id"], timeout=120.0) for a in accepted]
        # A worker is recycled once it reports ready after its job.
        deadline = time.monotonic() + 30.0
        while recycled.value - before < 3 and time.monotonic() < deadline:
            time.sleep(0.02)
    finally:
        service.stop_background()
    assert [job["state"] for job in jobs] == ["DONE"] * 3
    assert [job["attempts"] for job in jobs] == [1, 1, 1]
    assert len({job["worker_pid"] for job in jobs}) == 3
    assert recycled.value - before == 3
    for job in accepted:
        assert count_solves(service.root, job["content_hash"]) == 1
    assert count_solves(service.root) == 3


def test_sigterm_drain_stops_and_joins_the_warm_workers(harness):
    harness.start()
    accepted = harness.submit(make_scenario("joined"))
    pid = harness.wait_done(accepted["job_id"])["worker_pid"]
    assert harness.sigterm() == 0
    exits = [
        record["attrs"]
        for record in _events(harness.root)
        if record.get("name") == "service.worker_exit"
    ]
    # Joined, so the service read the clean exit code (and the
    # worker's resource usage went into its getrusage); no zombie or
    # orphan is left behind.
    assert [(e["pid"], e["exitcode"]) for e in exits] == [(pid, 0)]
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


def test_drained_worker_cpu_reaches_getrusage(tmp_path):
    service = ScenarioJobService(
        tmp_path / "svc", max_workers=1, fsync=False, poll_interval_s=0.02
    )
    service.start_background()
    try:
        client = ServiceClient(service.address)
        accepted = client.submit(make_scenario("rusage").to_dict())
        client.wait_for(accepted["job_id"], timeout=120.0)
        solve_cpu = client.result(accepted["job_id"])["manifest"]["cpu_s"]
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
    finally:
        service.stop_background()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    joined_cpu = (after.ru_utime + after.ru_stime) - (
        before.ru_utime + before.ru_stime
    )
    assert solve_cpu > 0
    assert joined_cpu >= solve_cpu


def test_a_failing_drain_still_stops_every_worker(tmp_path, monkeypatch):
    raised = []
    monkeypatch.setattr(
        threading, "excepthook", lambda args: raised.append(args.exc_value)
    )
    service = ScenarioJobService(
        tmp_path / "svc", max_workers=1, fsync=False, poll_interval_s=0.02
    )
    service.start_background()
    try:
        client = ServiceClient(service.address)
        accepted = client.submit(make_scenario("drain-fails").to_dict())
        pid = client.wait_for(accepted["job_id"], timeout=120.0)["worker_pid"]

        def failing_drain(timeout_s):
            raise OSError("WAL write failed")

        monkeypatch.setattr(service.supervisor, "drain", failing_drain)
    finally:
        service.stop_background()
    assert [type(exc) for exc in raised] == [OSError]
    # The worker ignores SIGTERM; left alive, it would hang the
    # service's exit.  It was killed and joined instead.
    assert service.supervisor.pool() == []
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)
