"""Worker supervision: a warm worker pool, heartbeats, retries, quarantine.

The supervisor owns the only part of the service that can die
unexpectedly — the processes actually solving scenarios.  Each warm
worker is a long-lived ``multiprocessing.Process`` that keeps, across
jobs,

* one :class:`~repro.thermal.bank.FactorBank` of steady and transient
  LU factors, holding no more bytes than the largest working set one
  job has pinned;
* the thermal models it assembled, reused by ``model_hash``.

It runs each job in a *job process* forked from itself
(:func:`worker_main`), which inherits the bank and models, so a warm
job skips assembly and factorisation.  Crash isolation is per job: a
segfault, OOM kill or ``os._exit`` takes down one job process, never
the worker or the service.  A job process ends by handing its bank's
record back, and the worker refactorises the job's new entries from
the recorded matrices (:meth:`FactorBank.adopt`), so its bank learns
exactly what the job computed.

Dispatch has soft ``model_hash`` affinity: an idle worker takes the
oldest pending job whose stack its bank already holds, otherwise the
oldest pending job, so no worker idles while jobs wait.  A worker is
recycled (stopped, joined, replaced on demand) after
:data:`WORKER_MAX_JOBS` jobs or once its resident set passes
:data:`WORKER_RSS_CAP_MB`, so a leak stays bounded.  Killing a worker
costs only its cache.

Each worker talks to the supervisor over one duplex pipe:

* ``job`` / ``stop`` messages go down, one job at a time;
* ``hb`` heartbeats come up every few hundred milliseconds from a
  thread of the job process — a job whose heartbeat goes stale is
  hung, not slow; its worker is killed and the job retried;
* the job process sends a final ``done`` / ``error`` message with the
  outcome; the worker adds ``died`` when the job process died first;
* a ``state`` message (bank bytes per stack, RSS) follows once the
  worker has learnt from its job, and once at start-up.

The supervisor hands a worker its next job as soon as the last one
is done; the worker reads it after learning.

Failure policy, in order of escalation:

* an **exception** in the solve is retried up to the policy's bounded
  attempts with exponential backoff *plus jitter* (simultaneous
  failures must not retry in lockstep — the same fix
  :func:`repro.analysis.sweep.jittered_delay` applies to sweep
  retries), then marked ``FAILED``;
* a **worker death** additionally feeds the per-scenario-class
  :class:`CircuitBreaker`; a spec that kills workers repeatedly is
  quarantined (``QUARANTINED``) instead of crash-looping the pool, and
  while a class's breaker is open its other jobs stay queued until the
  cooldown's half-open probe proves the class healthy again;
* a **hang** (stale heartbeat or per-job deadline) is killed and
  treated as a retryable failure.

``drain()`` implements graceful SIGTERM shutdown: stop dispatching,
let in-flight jobs finish (bounded), re-enqueue whatever could not —
the WAL already holds every pending job, so "checkpoint the rest" is
free — then stop and join every worker, so the workers' resource
usage reaches the service's ``getrusage``.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import random
import signal
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..analysis.sweep import jittered_delay
from ..obs import capture_telemetry, is_obs_payload
from ..obs.live import (
    PerfWatchdog,
    SamplingProfiler,
    TraceContext,
    annotate_records,
    profile_requested,
    set_current_trace,
)
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from ..scenario.cache import ResultCache
from ..scenario.runner import Runner, build_model
from ..scenario.spec import Scenario
from ..thermal.bank import FactorBank, JobRecord
from ..thermal.model import CompactThermalModel
from ..thermal.solver import rebuild_bank_entry
from .jobs import Job, JobState, JobStore

HEARTBEAT_INTERVAL_S = 0.2
"""Worker-side heartbeat period."""

TEST_DELAY_ENV = "REPRO_SERVICE_TEST_DELAY_S"
"""Chaos hook: seconds a worker sleeps before solving (see tests/chaos.py)."""

WORKER_MAX_JOBS = 1000
"""Jobs a warm worker serves before it is recycled."""

WORKER_RSS_CAP_MB = 1024.0
"""Resident set [MB] past which a warm worker is recycled after its job."""

WORKER_STOP_TIMEOUT_S = 10.0
"""Time a stopped worker gets to exit before it is killed."""

_PARENT_CHECK_S = 0.5
"""How often an idle worker checks that the service is still alive."""


def scenario_class(scenario: Scenario) -> str:
    """Circuit-breaker key: specs that exercise the same machinery.

    Poison jobs usually poison their whole family (a policy/backend
    combination that segfaults, a tier count that OOMs), so breaker
    state is tracked per class, not per content hash.
    """
    return (
        f"{scenario.policy.name}/{scenario.solver.backend}/"
        f"{scenario.stack.tiers}t-{scenario.stack.cooling}"
    )


def _append_run_log(path: str, payload: dict) -> None:
    """One JSON line per completed solve, O_APPEND-atomic.

    The chaos suite counts these lines to assert "no job run twice to
    completion" and "resubmission performs zero additional solves".
    """
    import json

    line = json.dumps(payload, sort_keys=True) + "\n"
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, line.encode("utf-8"))
    finally:
        os.close(fd)


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


def _resident_mb() -> float:
    """This process's resident set [MB] (its peak where /proc is absent)."""
    try:
        with open("/proc/self/statm", "rb") as handle:
            pages = int(handle.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    except (OSError, ValueError, IndexError):
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


_M_MMAP_THRESHOLD = -3  # glibc mallopt parameter number
_MMAP_THRESHOLD_BYTES = 128 * 1024  # glibc's own starting value


def _pin_mmap_threshold() -> None:
    """Keep large blocks out of the heap for this process's lifetime.

    glibc serves blocks above the mmap threshold with their own
    mappings, which go back to the OS when freed, but raises the
    threshold each time such a block is freed.  In a worker that keeps
    evicting and refactorising multi-megabyte LU factors the factors
    then land on the heap, which fragments: on the service benchmark's
    job mix a worker's resident set drifted 40-50 MB above that of a
    worker holding the same bank with the threshold pinned.  Setting
    the threshold (at glibc's own starting value) turns the adjustment
    off.  Not glibc: no-op.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)


def _detach_from_service() -> None:
    """Undo what a forked worker inherits from the service process.

    The service's tracer sinks (its ``events.jsonl`` log) would record
    every worker span a second time, raw, beside the stitched copy the
    supervisor ingests, and its signal wakeup fd points into the
    service's event loop.  SIGTERM and SIGINT are ignored: a terminal
    ^C or a service manager's SIGTERM reaches the whole process group,
    and the service lets in-flight jobs finish and stops its workers
    itself when it drains.  A worker the service gives up on gets
    SIGKILL.
    """
    get_tracer().drop_sinks()
    try:
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):
        pass


def _next_message(conn, service_pid: int) -> Optional[dict]:
    """The supervisor's next message; ``None`` once the service is gone."""
    while True:
        try:
            if conn.poll(_PARENT_CHECK_S):
                return conn.recv()
        except (EOFError, OSError):
            return None
        if os.getppid() != service_pid:
            return None


_PR_SET_PDEATHSIG = 1  # Linux prctl option


def _die_with_parent(parent_pid: int) -> None:
    """Have the kernel SIGKILL this job process when its worker dies.

    A warm worker that is killed (kill -9, a hang, a cancel) must not
    leave its job process solving on; outside Linux only the check
    below runs.
    """
    try:
        ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    except (OSError, AttributeError):
        pass
    if os.getppid() != parent_pid:  # the worker died before the prctl
        os._exit(1)


class _WarmState:
    """What a warm worker keeps across jobs: factor bank and models."""

    def __init__(self) -> None:
        self.bank = FactorBank()
        self.models: Dict[str, CompactThermalModel] = {}
        self.adopted = 0

    def describe(self) -> dict:
        return {
            "bank_bytes": self.bank.resident_bytes,
            "bank_stacks": {
                str(key): nbytes
                for key, nbytes in self.bank.stack_bytes().items()
            },
            "factors_adopted": self.adopted,
            "rss_mb": _resident_mb(),
        }

    def prepare(self, scenario: Scenario) -> Optional[CompactThermalModel]:
        """The job's model on this bank, assembled on first use.

        The worker prepares the model of a job it will learn from
        before forking, so later job processes inherit it; a guest's
        job process prepares its own, so its factors still obey the
        bank's cap.  Iterative, AMG and ROM models carry warm-start
        state between solves, so only direct-backend models are kept
        (``None`` otherwise): a reused direct model answers bitwise
        like a fresh one.  A spec that fails to build gets ``None``;
        its run reports the error.
        """
        model_hash = scenario.model_hash()
        if model_hash in self.models or scenario.solver.backend not in (
            "auto",
            "direct",
        ):
            return self.models.get(model_hash)
        try:
            model = build_model(scenario, factor_bank=self.bank)
        except Exception:
            return None
        if model.steady_backend() != "direct":
            return None
        self.models[model_hash] = model
        return model

    def learn(self, record: JobRecord) -> None:
        """Adopt what a job process did to its copy of the bank."""
        self.adopted += self.bank.adopt(record, rebuild_bank_entry)
        self._prune()

    def forget(self, model_hash: str) -> None:
        """Drop one stack's model and factors (its job process died)."""
        self.bank.drop(model_hash, "steady")
        self.bank.drop(model_hash, "transient")
        self._prune()

    def _prune(self) -> None:
        """Keep a model only while the bank holds factors of its stack."""
        for stale in set(self.models) - self.bank.stack_bytes().keys():
            del self.models[stale]

    def serve(self, conn, message: dict, cache_dir: str, run_log) -> None:
        """Run one job message in a forked job process, then learn from it.

        The job process inherits the bank and models, reports straight
        to the supervisor over ``conn`` and ends by sending its bank
        record back here, which the worker adopts unless the message
        says the job is a guest (``learn`` false).  If the job process
        dies first, the worker tells the supervisor (``died``) and
        forgets that stack: what the job touched may be what killed
        it.
        """
        job_id = str(message["job_id"])
        model_hash: Optional[str] = None
        learn = message.get("learn", True)
        try:
            scenario = Scenario.from_dict(message["scenario"])
            model_hash = scenario.model_hash()
            if learn:
                self.prepare(scenario)
        except Exception:
            pass  # the job process reports the bad spec
        reader, writer = multiprocessing.Pipe(duplex=False)
        worker_pid = os.getpid()
        pid = os.fork()
        if pid == 0:  # the job process
            code = 1
            try:
                reader.close()
                _die_with_parent(worker_pid)
                # Looked up per job, so a wrapper installed on this
                # module before the service forked this worker runs
                # once per job, in the job's own process.
                worker_main(
                    conn,
                    writer,
                    self,
                    job_id,
                    message["scenario"],
                    cache_dir,
                    run_log,
                    trace_id=message.get("trace_id"),
                    profile_path=message.get("profile_path"),
                )
                code = 0
            finally:
                os._exit(code)
        writer.close()
        try:
            record = reader.recv()
            finished = True
        except (EOFError, OSError):
            record, finished = None, False
        reader.close()
        _, status = os.waitpid(pid, 0)
        if not finished:
            conn.send(
                {
                    "kind": "died",
                    "job_id": job_id,
                    "exitcode": os.waitstatus_to_exitcode(status),
                }
            )
            if model_hash is not None:
                self.forget(model_hash)
        elif record is not None and learn:
            self.learn(record)


def warm_worker_main(conn, cache_dir: str, run_log: Optional[str] = None) -> None:
    """Warm-worker entry: serve jobs from ``conn`` until told to stop.

    Runs in a child process forked by :class:`Supervisor`, which sends
    ``{"kind": "job", ...}`` messages one at a time and ``{"kind":
    "stop"}`` to retire the worker; the worker also exits when the pipe
    closes or the service process dies.  Each job runs in its own
    forked job process (:func:`worker_main`).  A ``state`` message
    (bank bytes per stack, RSS) goes up at start-up and after each
    job, once the worker has learnt from it.
    """
    _detach_from_service()
    _pin_mmap_threshold()
    service_pid = os.getppid()
    state = _WarmState()
    try:
        conn.send(dict(state.describe(), kind="state"))
        while True:
            message = _next_message(conn, service_pid)
            if message is None or message.get("kind") != "job":
                return
            state.serve(conn, message, cache_dir, run_log)
            conn.send(dict(state.describe(), kind="state"))
    except (BrokenPipeError, OSError):
        return  # the service is gone
    finally:
        try:
            conn.close()
        except OSError:
            pass


def worker_main(
    conn,
    learn,
    warm: _WarmState,
    job_id: str,
    scenario_dict: dict,
    cache_dir: str,
    run_log: Optional[str] = None,
    trace_id: Optional[str] = None,
    profile_path: Optional[str] = None,
) -> None:
    """Job-process entry: solve one scenario, report, return.

    Runs in a process a warm worker forks for the job; ``warm`` is the
    worker's state, so the job reuses its models and its factor bank.
    The result lands in the shared :class:`ResultCache` (and its run
    manifest next to it) *before* the ``done`` message is sent, so a
    crash after the cache write at worst reruns a job whose rerun is a
    pure cache hit.  Then the job's bank record (see
    :meth:`FactorBank.record`) goes to the worker through ``learn``.

    ``trace_id`` is the propagated client trace context — stamped on
    heartbeats (the supervisor's only live view into the job) and
    installed as the process-wide current trace.  ``profile_path``
    turns on the sampling profiler for the solve and writes the
    collapsed stacks there; hot frames ride back in the ``done``
    message.
    """
    send_lock = threading.Lock()
    stop = threading.Event()
    if trace_id:
        set_current_trace(TraceContext(trace_id))
    bank = warm.bank
    record: Optional[JobRecord] = None

    def send(message: dict) -> None:
        with send_lock:
            try:
                conn.send(message)
            except (BrokenPipeError, OSError):
                pass

    def heartbeat() -> None:
        beat: Dict[str, object] = {"kind": "hb", "job_id": job_id, "t": 0.0}
        if trace_id:
            beat["trace_id"] = trace_id
        while not stop.wait(HEARTBEAT_INTERVAL_S):
            beat["t"] = time.time()
            send(dict(beat))

    ticker = threading.Thread(target=heartbeat, daemon=True)
    ticker.start()
    try:
        delay = float(os.environ.get(TEST_DELAY_ENV, "0") or "0")
        if delay > 0:
            time.sleep(delay)
        scenario = Scenario.from_dict(scenario_dict)
        model = warm.prepare(scenario)
        cache = ResultCache(cache_dir)
        profiler: Optional[SamplingProfiler] = None
        if (profile_path or profile_requested()) and SamplingProfiler.available():
            profiler = SamplingProfiler()
        telemetry: Dict[str, object] = {}
        with capture_telemetry(telemetry), bank.job():
            try:
                runner = Runner(scenario, model=model, cache=cache)
                if profiler is not None:
                    with profiler:
                        runner.run()
                else:
                    runner.run()
            finally:
                record = bank.record()
        manifest = runner.last_manifest or {}
        cached = bool(manifest.get("cached", False))
        profile_info: Optional[dict] = None
        if profiler is not None and profiler.total_samples:
            profile_info = {
                "samples": profiler.total_samples,
                "hot_frames": profiler.hot_frames(5),
            }
            if profile_path:
                profile_info["path"] = str(profiler.write(profile_path))
        if run_log:
            _append_run_log(
                run_log,
                {
                    "job_id": job_id,
                    "content_hash": scenario.content_hash(),
                    "cached": cached,
                    "pid": os.getpid(),
                },
            )
        stop.set()
        send(
            {
                "kind": "done",
                "job_id": job_id,
                "cached": cached,
                "wall_s": float(manifest.get("wall_s", 0.0)),
                "backend": manifest.get("solver_backend"),
                "profile": profile_info,
                "telemetry": telemetry if is_obs_payload(telemetry) else None,
            }
        )
    except BaseException as exc:  # report *everything* before dying
        stop.set()
        send(
            {
                "kind": "error",
                "job_id": job_id,
                "error_type": type(exc).__name__,
                "message": str(exc),
                "traceback": "".join(
                    traceback.format_exception(type(exc), exc, exc.__traceback__)
                ),
            }
        )
    finally:
        stop.set()
        try:
            learn.send(record)
            learn.close()
        except (BrokenPipeError, OSError):
            pass


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with jittered exponential backoff."""

    retries: int = 2
    backoff_s: float = 0.5
    cap_s: float = 30.0
    jitter: float = 0.25

    @property
    def max_attempts(self) -> int:
        return self.retries + 1

    def delay(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Seconds to wait before re-dispatching attempt ``attempt + 1``."""
        return jittered_delay(
            self.backoff_s,
            attempt,
            cap_s=self.cap_s,
            jitter=self.jitter,
            rng=rng,
        )


class CircuitBreaker:
    """Per-key breaker over consecutive worker deaths.

    ``closed`` → normal dispatch.  ``death_threshold`` consecutive
    worker deaths for a key open the circuit: dispatch of that key is
    refused for ``cooldown_s``, after which exactly one half-open probe
    is admitted — its success closes the circuit, its death reopens it.
    """

    def __init__(
        self, *, death_threshold: int = 2, cooldown_s: float = 30.0
    ) -> None:
        self.death_threshold = int(death_threshold)
        self.cooldown_s = float(cooldown_s)
        self._deaths: Dict[str, int] = {}
        self._opened_at: Dict[str, float] = {}
        self._probing: Dict[str, bool] = {}
        self._c_opened = get_registry().counter("service.breaker.opened")

    def state(self, key: str) -> str:
        if key not in self._opened_at:
            return "closed"
        if self._probing.get(key):
            return "half-open"
        return "open"

    def allow(self, key: str, now: Optional[float] = None) -> bool:
        if key not in self._opened_at:
            return True
        if self._probing.get(key):
            return False  # one probe at a time
        now = time.monotonic() if now is None else now
        if now - self._opened_at[key] >= self.cooldown_s:
            self._probing[key] = True
            return True
        return False

    def record_death(self, key: str, now: Optional[float] = None) -> None:
        self._deaths[key] = self._deaths.get(key, 0) + 1
        now = time.monotonic() if now is None else now
        if key in self._opened_at or (
            self._deaths[key] >= self.death_threshold
        ):
            if key not in self._opened_at:
                self._c_opened.inc()
                get_tracer().event("service.breaker_open", key=key)
            self._opened_at[key] = now
            self._probing[key] = False

    def record_success(self, key: str) -> None:
        self._deaths.pop(key, None)
        if key in self._opened_at:
            get_tracer().event("service.breaker_close", key=key)
        self._opened_at.pop(key, None)
        self._probing.pop(key, None)

    def snapshot(self) -> Dict[str, str]:
        """``{key: state}`` for every key that ever tripped."""
        return {key: self.state(key) for key in self._opened_at}


@dataclass
class _Running:
    """Parent-side handle of one in-flight job."""

    job_id: str
    worker: "_Worker"
    started: float
    last_heartbeat: float
    # Wall-clock twin of ``last_heartbeat`` (monotonic): the synthetic
    # ``worker.killed`` event reports *when* the worker was last known
    # alive, which must be comparable across processes and restarts.
    last_heartbeat_wall: float = 0.0
    # Wall-clock dispatch time: the reconstructed ``service.job`` span
    # must cover the worker's whole run, not the parent's bookkeeping.
    started_wall: float = 0.0
    outcome: Optional[dict] = None


@dataclass
class _Worker:
    """Parent-side handle of one warm worker process."""

    slot: int
    pid: int
    process: multiprocessing.process.BaseProcess
    conn: object
    jobs_served: int = 0
    bank_bytes: int = 0
    rss_mb: float = 0.0
    # Bank bytes per model_hash, as of the worker's last job.
    stacks: Dict[str, int] = field(default_factory=dict)
    adopted: int = 0
    job: Optional[_Running] = None

    def describe(self) -> Dict[str, object]:
        return {
            "slot": self.slot,
            "pid": self.pid,
            "busy": self.job is not None,
            "job_id": self.job.job_id if self.job is not None else None,
            "jobs_served": self.jobs_served,
            "bank_bytes": self.bank_bytes,
            "rss_mb": round(self.rss_mb, 1),
        }


@dataclass
class DrainReport:
    """Outcome of a graceful drain."""

    finished: List[str] = field(default_factory=list)
    requeued: List[str] = field(default_factory=list)


class Supervisor:
    """Drive the warm worker pool over a :class:`JobStore`'s queue.

    Single-threaded asyncio: :meth:`tick` (dispatch + poll) is called
    from the service loop, so every store mutation happens on the loop
    thread and the WAL sees a serialised history.  Workers are forked
    on demand, up to ``max_workers``.
    """

    def __init__(
        self,
        store: JobStore,
        *,
        max_workers: int = 2,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        timeout_s: Optional[float] = None,
        heartbeat_timeout_s: float = 10.0,
        run_log: Optional[str] = None,
        rng: Optional[random.Random] = None,
        watchdog: Optional[PerfWatchdog] = None,
        profiles_dir: Optional[str] = None,
    ) -> None:
        self.store = store
        self.max_workers = int(max_workers)
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.timeout_s = timeout_s
        self.heartbeat_timeout_s = float(heartbeat_timeout_s)
        self.run_log = run_log
        self.rng = rng if rng is not None else random.Random()
        self.watchdog = watchdog
        self.profiles_dir = profiles_dir
        self.draining = False
        self._workers: Dict[int, _Worker] = {}
        self._running: Dict[str, _Running] = {}
        self._not_before: Dict[str, float] = {}
        self._context = multiprocessing.get_context()
        registry = get_registry()
        self._c_dispatched = registry.counter("service.jobs.dispatched")
        self._c_done = registry.counter("service.jobs.done")
        self._c_failed = registry.counter("service.jobs.failed")
        self._c_retries = registry.counter("service.jobs.retries")
        self._c_worker_deaths = registry.counter("service.worker.deaths")
        self._c_workers_started = registry.counter("service.workers.started")
        self._c_workers_recycled = registry.counter("service.workers.recycled")
        self._c_factors_adopted = registry.counter("service.workers.factors_adopted")
        self._c_timeouts = registry.counter("service.jobs.timeouts")
        self._c_quarantined = registry.counter("service.jobs.quarantined")
        self._h_wall = registry.histogram("service.job.wall_s")
        self._g_queue_depth = registry.gauge("service.queue.depth")
        self._g_workers_alive = registry.gauge("service.workers.alive")
        self._g_workers_busy = registry.gauge("service.workers.busy")
        self._g_wal_bytes = registry.gauge("service.wal.bytes")

    # -- pool -----------------------------------------------------------------

    @property
    def busy(self) -> int:
        return len(self._running)

    def pool(self) -> List[Dict[str, object]]:
        """Live view of every warm worker, by slot."""
        return [
            self._workers[slot].describe() for slot in sorted(self._workers)
        ]

    def _spawn(self) -> _Worker:
        slot = min(set(range(self.max_workers)) - set(self._workers))
        parent_conn, child_conn = self._context.Pipe()
        # The worker looks ``worker_main`` up per job, in the module it
        # inherits here: a wrapper installed on this module before the
        # service started runs once per job.
        process = self._context.Process(
            target=warm_worker_main,
            args=(child_conn, str(self.store.cache.root), self.run_log),
            daemon=True,
        )
        process.start()
        child_conn.close()
        worker = _Worker(
            slot=slot, pid=process.pid, process=process, conn=parent_conn
        )
        self._workers[slot] = worker
        self._c_workers_started.inc()
        get_tracer().event("service.worker_start", slot=slot, pid=process.pid)
        return worker

    def _bank_gauge(self, slot: int):
        return get_registry().gauge(f"service.worker.{slot}.bank_bytes")

    def _release(self, handle: _Running) -> None:
        """The worker's job is over (the worker may still be learning)."""
        handle.worker.job = None
        self._running.pop(handle.job_id, None)

    def _update(self, worker: _Worker, state: dict) -> None:
        """Record a worker's ``state`` message."""
        worker.bank_bytes = int(state.get("bank_bytes", 0))
        worker.rss_mb = float(state.get("rss_mb", 0.0))
        worker.stacks = dict(state.get("bank_stacks") or {})
        adopted = int(state.get("factors_adopted", 0))
        self._c_factors_adopted.inc(max(0, adopted - worker.adopted))
        worker.adopted = adopted
        self._bank_gauge(worker.slot).set(worker.bank_bytes)

    def _recycle_due(self, worker: _Worker) -> Optional[str]:
        if worker.jobs_served >= WORKER_MAX_JOBS:
            return f"served {worker.jobs_served} jobs"
        if worker.rss_mb > WORKER_RSS_CAP_MB:
            return f"resident set {worker.rss_mb:.0f} MB"
        return None

    def _retire(self, worker: _Worker, reason: str) -> None:
        """Stop an idle worker and join it (kill it if it will not exit)."""
        get_tracer().event(
            "service.worker_retire",
            slot=worker.slot,
            pid=worker.pid,
            jobs_served=worker.jobs_served,
            reason=reason,
        )
        try:
            worker.conn.send({"kind": "stop"})
        except (BrokenPipeError, OSError):
            pass
        worker.process.join(timeout=WORKER_STOP_TIMEOUT_S)
        self._discard(worker)

    def _discard(self, worker: _Worker) -> None:
        """Drop a worker from the pool, killing it if alive, and join it.

        A killed worker loses only its cache: the caller retries or
        requeues its job.
        """
        if worker.job is not None:
            self._running.pop(worker.job.job_id, None)
            worker.job = None
        self._workers.pop(worker.slot, None)
        self._bank_gauge(worker.slot).set(0)
        try:
            worker.conn.close()
        except OSError:
            pass
        process = worker.process
        if process.is_alive():
            process.kill()
        process.join(timeout=5.0)
        get_tracer().event(
            "service.worker_exit",
            slot=worker.slot,
            pid=worker.pid,
            exitcode=process.exitcode,
            jobs_served=worker.jobs_served,
        )
        try:
            process.close()
        except (ValueError, AttributeError):
            pass

    # -- dispatch -----------------------------------------------------------

    def _home(self, job: Job) -> Optional[_Worker]:
        """The worker whose bank holds the most bytes of the job's stack."""
        stack = job.model_hash
        home = max(
            self._workers.values(),
            key=lambda worker: worker.stacks.get(stack, 0),
            default=None,
        )
        return home if home is not None and stack in home.stacks else None

    def _take(self, queue: List[Job], wanted: Callable[[Job], bool]):
        """Pop the oldest queued job ``wanted`` accepts and the breaker admits."""
        for job in queue:
            if wanted(job) and self.breaker.allow(scenario_class(job.scenario)):
                queue.remove(job)
                return job
        return None

    def _dispatch(self, worker: _Worker, job: Job) -> None:
        profile_path: Optional[str] = None
        if self.profiles_dir and (job.profile or profile_requested()):
            profile_path = str(
                os.path.join(self.profiles_dir, f"{job.job_id}.collapsed")
            )
        self.store.transition(
            job.job_id,
            JobState.RUNNING,
            attempts=job.attempts + 1,
            worker_pid=worker.pid,
            worker_jobs=worker.jobs_served + 1,
        )
        now = time.monotonic()
        handle = _Running(
            job_id=job.job_id,
            worker=worker,
            started=now,
            last_heartbeat=now,
            last_heartbeat_wall=time.time(),
            started_wall=time.time(),
        )
        worker.job = handle
        worker.jobs_served += 1
        self._running[job.job_id] = handle
        home = self._home(job)
        try:
            worker.conn.send(
                {
                    "kind": "job",
                    "job_id": job.job_id,
                    "scenario": job.scenario.to_dict(),
                    "trace_id": job.trace_id,
                    "profile_path": profile_path,
                    # A guest job (its stack lives on another worker)
                    # must not evict this worker's own stacks.
                    "learn": home is None or home is worker,
                }
            )
        except (BrokenPipeError, OSError):
            pass  # the next poll finds the worker dead and retries the job
        self._c_dispatched.inc()
        tracer = get_tracer()
        if tracer.has_sinks and job.attempts == 1 and job.submitted_at:
            # First dispatch closes the queue-wait phase of the trace:
            # the span existed only as two wall-clock timestamps, so it
            # is reconstructed here rather than measured.
            tracer.emit_span(
                "queue.wait",
                job.submitted_at,
                max(0.0, time.time() - job.submitted_at),
                job_id=job.job_id,
                trace_id=job.trace_id,
            )
        tracer.event(
            "service.dispatch",
            job_id=job.job_id,
            pid=worker.pid,
            slot=worker.slot,
            warm=job.model_hash in worker.stacks,
        )

    def dispatch_pending(self) -> int:
        """Hand eligible pending jobs to idle workers (soft stack affinity).

        First every idle worker takes the oldest job whose stack its
        bank holds — more of it than any other worker's bank, so each
        stack keeps one home even after a worker has served several
        stacks.  Then the remaining idle workers, and new workers while
        slots are free, take the oldest jobs left.  A job whose stack
        has its home on another worker runs there as a guest: it uses
        whatever the bank holds, but the worker learns nothing from it,
        so guests never push a worker's own stacks out of its bank.
        """
        if self.draining:
            return 0
        now = time.monotonic()
        queue = [
            job
            for job in self.store.pending()
            if self._not_before.get(job.job_id, 0.0) <= now
        ]
        idle = [w for w in self._workers.values() if w.job is None]
        started = 0
        for worker in list(idle):
            if not queue:
                break
            job = self._take(queue, lambda j: self._home(j) is worker)
            if job is not None:
                idle.remove(worker)
                self._dispatch(worker, job)
                started += 1
        while queue and (idle or len(self._workers) < self.max_workers):
            job = self._take(queue, lambda j: True)
            if job is None:
                break
            self._dispatch(idle.pop(0) if idle else self._spawn(), job)
            started += 1
        return started

    # -- polling ------------------------------------------------------------

    def _drain_messages(self, worker: _Worker) -> None:
        while True:
            try:
                if not worker.conn.poll(0):
                    return
                message = worker.conn.recv()
            except (EOFError, BrokenPipeError, OSError):
                return
            kind = message.get("kind")
            if kind == "state":
                self._update(worker, message)
                continue
            handle = worker.job
            if handle is None or message.get("job_id") != handle.job_id:
                continue  # a late heartbeat of a finished job
            if handle.outcome is not None:
                continue  # e.g. "died" after the job had reported
            if kind == "hb":
                handle.last_heartbeat = time.monotonic()
                handle.last_heartbeat_wall = float(
                    message.get("t", time.time())
                )
            elif kind in ("done", "error", "died"):
                handle.outcome = message
                handle.last_heartbeat = time.monotonic()
                handle.last_heartbeat_wall = time.time()

    def _schedule_retry(self, job: Job) -> None:
        self._c_retries.inc()
        self._not_before[job.job_id] = time.monotonic() + self.retry.delay(
            job.attempts, self.rng
        )
        self.store.transition(job.job_id, JobState.PENDING)

    def _finish(self, handle: _Running) -> None:
        outcome = handle.outcome or {}
        kind = outcome.get("kind")
        if kind == "done":
            self._finish_success(handle, outcome)
        elif kind == "died":
            # The job process died; its warm worker lives on.
            self._finish_death(
                handle,
                f"job process exitcode {outcome.get('exitcode')}",
                worker_died=False,
            )
        else:
            self._finish_error(handle, outcome)

    def _finish_success(self, handle: _Running, outcome: dict) -> None:
        job = self.store.jobs[handle.job_id]
        telemetry = outcome.get("telemetry")
        backend = str(outcome.get("backend") or "unknown")
        profile = outcome.get("profile")
        if is_obs_payload(telemetry):
            tracer = get_tracer()
            if tracer.has_sinks:
                attrs: Dict[str, object] = {
                    "job_id": job.job_id,
                    "backend": backend,
                }
                if job.trace_id:
                    attrs["trace_id"] = job.trace_id
                if isinstance(profile, dict) and profile.get("hot_frames"):
                    # Fold the hottest profiled frames into the span so
                    # a trace alone answers "where did the time go".
                    attrs["profile_hot"] = ",".join(
                        f"{f['frame']}:{f['samples']}"
                        for f in profile["hot_frames"][:3]
                    )
                # Reconstructed rather than measured: the span must
                # cover dispatch -> completion, and no tracer context
                # was open across that whole window.  Emitted before
                # the ingest so its seq precedes its children's — the
                # tree builder nests strictly by (seq, depth).
                top: Dict[str, object] = {"job_id": job.job_id}
                if job.trace_id:
                    top["trace_id"] = job.trace_id
                tracer.emit_span(
                    "service.job",
                    handle.started_wall or time.time(),
                    max(0.0, time.monotonic() - handle.started),
                    attrs=attrs,
                    **top,
                )
                tracer.ingest(
                    annotate_records(
                        telemetry.get("spans", ()),
                        job_id=job.job_id,
                        trace_id=job.trace_id,
                    ),
                    depth_offset=1,
                )
            get_registry().merge(telemetry.get("metrics", {}))
        wall = time.monotonic() - handle.started
        self._h_wall.observe(wall)
        solve_wall = float(outcome.get("wall_s", wall))
        if not outcome.get("cached", False):
            get_registry().histogram(
                f"service.solve.wall_s.{backend}"
            ).observe(solve_wall)
            if self.watchdog is not None:
                self.watchdog.observe(backend, solve_wall)
        self.breaker.record_success(scenario_class(job.scenario))
        worker = handle.worker
        self._release(handle)
        self.store.transition(
            job.job_id,
            JobState.DONE,
            worker_pid=worker.pid,
            worker_jobs=job.worker_jobs,
        )
        self._not_before.pop(job.job_id, None)
        self._c_done.inc()

    def _finish_error(self, handle: _Running, outcome: dict) -> None:
        job = self.store.jobs[handle.job_id]
        error = f"{outcome.get('error_type')}: {outcome.get('message')}"
        self._release(handle)
        if job.attempts >= self.retry.max_attempts:
            self._c_failed.inc()
            self.store.transition(job.job_id, JobState.FAILED, error=error)
        else:
            self._schedule_retry(job)

    def _emit_worker_killed(
        self, handle: _Running, job: Job, reason: str
    ) -> None:
        """Synthesize the terminal trace event of a killed worker.

        A SIGKILLed worker never flushes its captured telemetry, so
        without this the job simply vanishes from the trace.  The
        event carries the last heartbeat wall timestamp — the moment
        the worker was last provably alive.
        """
        get_tracer().event(
            "worker.killed",
            job_id=job.job_id,
            trace_id=job.trace_id,
            reason=reason,
            last_heartbeat=handle.last_heartbeat_wall,
            attempts=job.attempts,
            pid=job.worker_pid,
        )

    def _finish_death(
        self, handle: _Running, reason: str, worker_died: bool = True
    ) -> None:
        job = self.store.jobs[handle.job_id]
        key = scenario_class(job.scenario)
        self._c_worker_deaths.inc()
        self.breaker.record_death(key)
        get_tracer().event(
            "service.worker_death",
            job_id=job.job_id,
            reason=reason,
            scenario_class=key,
        )
        self._emit_worker_killed(handle, job, reason)
        if worker_died:
            self._discard(handle.worker)
        else:
            self._release(handle)
        if job.attempts >= self.retry.max_attempts:
            self._c_quarantined.inc()
            self.store.transition(
                job.job_id,
                JobState.QUARANTINED,
                error=f"worker died repeatedly ({reason}); "
                f"spec quarantined after {job.attempts} attempts",
            )
        else:
            self._schedule_retry(job)

    def _finish_timeout(self, handle: _Running, reason: str) -> None:
        job = self.store.jobs[handle.job_id]
        self._c_timeouts.inc()
        self._emit_worker_killed(handle, job, reason)
        self._discard(handle.worker)
        if job.attempts >= self.retry.max_attempts:
            self._c_failed.inc()
            self.store.transition(job.job_id, JobState.FAILED, error=reason)
        else:
            self._schedule_retry(job)

    def poll(self) -> None:
        """One supervision pass over every worker."""
        now = time.monotonic()
        for worker in list(self._workers.values()):
            self._drain_messages(worker)
            handle = worker.job
            if handle is not None and handle.outcome is not None:
                self._finish(handle)
            elif not worker.process.is_alive():
                # One last look: the worker may have sent its outcome
                # between the drain above and its exit.
                self._drain_messages(worker)
                exitcode = worker.process.exitcode
                if handle is None:
                    self._c_worker_deaths.inc()
                    get_tracer().event(
                        "service.worker_death",
                        reason=f"idle worker exited with {exitcode}",
                        pid=worker.pid,
                    )
                    self._discard(worker)
                elif handle.outcome is not None:
                    self._finish(handle)
                else:
                    self._finish_death(handle, f"exitcode {exitcode}")
                continue
            elif handle is not None:
                if (
                    self.timeout_s is not None
                    and now - handle.started > self.timeout_s
                ):
                    self._finish_timeout(
                        handle,
                        f"job exceeded the {self.timeout_s} s deadline",
                    )
                elif now - handle.last_heartbeat > self.heartbeat_timeout_s:
                    self._finish_timeout(
                        handle,
                        f"no heartbeat for {self.heartbeat_timeout_s} s "
                        "(worker hung)",
                    )
                continue
            if self._workers.get(worker.slot) is worker and worker.job is None:
                reason = self._recycle_due(worker)
                if reason is not None:
                    self._c_workers_recycled.inc()
                    self._retire(worker, reason)

    def tick(self) -> None:
        """One service-loop step: reap finished work, start new work."""
        self.poll()
        self.dispatch_pending()
        self.update_gauges()

    def update_gauges(self) -> None:
        """Refresh the live operational gauges from current state."""
        self._g_queue_depth.set(
            sum(
                1
                for job in self.store.jobs.values()
                if job.state == JobState.PENDING
            )
        )
        self._g_workers_alive.set(len(self._workers))
        self._g_workers_busy.set(len(self._running))
        self._g_wal_bytes.set(self.store.wal.size_bytes())

    # -- control ------------------------------------------------------------

    def cancel(self, job_id: str) -> Job:
        """Cancel a pending or running job (kills its worker)."""
        job = self.store.jobs[job_id]
        if job.state == JobState.RUNNING and job_id in self._running:
            self._discard(self._running[job_id].worker)
        self._not_before.pop(job_id, None)
        return self.store.transition(job_id, JobState.CANCELLED)

    def drain(self, timeout_s: float = 60.0) -> DrainReport:
        """Graceful shutdown: finish in-flight work, re-enqueue the rest.

        Dispatch stops immediately; in-flight jobs get up to
        ``timeout_s`` to finish.  Workers still running a job then are
        killed and their jobs journaled back to ``PENDING`` — the WAL
        is the checkpoint, so a restart resumes exactly there.  Every
        other worker is stopped and joined.
        """
        self.draining = True
        report = DrainReport()
        deadline = time.monotonic() + timeout_s
        try:
            while self._running and time.monotonic() < deadline:
                before = set(self._running)
                self.poll()
                for job_id in before - set(self._running):
                    if self.store.jobs[job_id].state == JobState.DONE:
                        report.finished.append(job_id)
                time.sleep(0.05)
            for handle in list(self._running.values()):
                job = self.store.jobs[handle.job_id]
                self._discard(handle.worker)
                if not job.state.terminal:
                    self.store.transition(handle.job_id, JobState.PENDING)
                    report.requeued.append(handle.job_id)
        finally:
            # Even when journaling fails, no worker outlives the drain.
            for worker in list(self._workers.values()):
                self._retire(worker, "drain")
        get_tracer().event(
            "service.drained",
            finished=len(report.finished),
            requeued=len(report.requeued),
        )
        return report

    def shutdown(self) -> None:
        """Hard stop: kill every worker without touching job states."""
        for worker in list(self._workers.values()):
            self._discard(worker)
