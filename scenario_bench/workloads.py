"""The three benchmark workloads: timed (untraced) and traced passes.

``policy_grid``   Section IV-A grid through ``run_simulations(processes=2)``.
``twophase_mix``  the shipped two-phase spec, serially through ``Runner``.
``service_mix``   a ``repro serve`` process driven by a closed-loop client.

Every job's outcome is checked against ``reference.json``; a mismatch or
an unexpected exception counts as failed.  See README.md for why each
workload was chosen and which layer metrics should move which
end-to-end metric.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import inputs
from ledger import SpanRecorder, instrumented
from reference import (
    OBSERVABLES,
    SERVICE_OBSERVABLES,
    load_reference,
    mismatch,
    outcome_of_error,
    outcome_of_result,
)

from repro.analysis import SimulationJob, run_simulations
from repro.obs.metrics import get_registry
from repro.scenario import Runner
from repro.service import ProtocolError, ServiceClient
from repro.thermal.diagnostics import ThermalSolveError

clock = time.perf_counter

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
WORK_DIR = Path(".bench_work")  # relative to the checkout root (cwd)

GRID_PROCESSES = 2
SERVICE_WORKERS = 2
SERVICE_OUTSTANDING = 2 * SERVICE_WORKERS  # closed loop: queue wait exists
SERVICE_POLL_S = 0.02
SERVICE_SCHEDULE = 600  # submits available to one run (pool-limited)
TERMINAL = ("DONE", "FAILED", "CANCELLED", "QUARANTINED")


# ---------------------------------------------------------------------------
# bookkeeping shared by every workload
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    """Attempted / failed jobs, checked against the committed reference."""

    reference: Dict[str, dict]
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def check(self, key: str, observed: dict, names=OBSERVABLES) -> None:
        self.attempted += 1
        why = mismatch(self.reference.get(key), observed, names)
        if why is not None:
            self.failed += 1
            self.problems.append(f"{key}: {why}")

    def unexpected(self, key: str, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{key}: unexpected {type(exc).__name__}: {exc}")


@dataclass
class Timed:
    """What one timed (untraced) phase measured."""

    jobs: int  # completed jobs / runs / service submits
    wall_s: float
    latencies_s: List[float]
    cpu_s: float
    extra: Dict[str, List[float]] = field(default_factory=dict)


def cpu_snapshot() -> Tuple[float, float]:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def cpu_since(start: Tuple[float, float]) -> float:
    own, kids = cpu_snapshot()
    return (own - start[0]) + (kids - start[1])


def peak_rss_mb() -> float:
    """Largest RSS of this process or any waited-for child [MB]."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def run_in_process(spec, tally: Tally) -> Optional[float]:
    """One cold ``Runner`` run, checked; returns its wall time.

    A typed solve error (the two-phase dry-out) is an outcome to check
    against the reference, not a failure by itself.
    """
    key = inputs.reference_key(spec)
    start = clock()
    try:
        observed = outcome_of_result(Runner(spec).run())
    except ThermalSolveError as exc:
        observed = outcome_of_error(exc)
    except Exception as exc:  # counted, and the run goes on
        tally.unexpected(key, exc)
        return None
    wall = clock() - start
    tally.check(key, observed)
    return wall


# ---------------------------------------------------------------------------
# policy_grid
# ---------------------------------------------------------------------------


class TimedJob(SimulationJob):
    """A scenario job that also returns when, inside its worker, it ended.

    ``time.monotonic`` is system-wide on Linux, so the worker's reading
    compares with the parent's.
    """

    def run(self, cache=None):
        result = super().run(cache=cache)
        return result, time.monotonic()


def grid_batch(specs, tally: Tally, latencies: List[float]) -> int:
    """One batch; a job's latency runs from batch start (when all jobs
    are due) to the end of its run in a pool worker."""
    jobs = [TimedJob.from_scenario(spec) for spec in specs]
    start = time.monotonic()
    try:
        outcomes = run_simulations(jobs, processes=GRID_PROCESSES)
    except Exception as exc:  # one failing job sinks the whole batch
        for spec in specs:
            tally.unexpected(inputs.reference_key(spec), exc)
        return 0
    for spec, (_, (result, ended)) in zip(specs, outcomes):
        latencies.append(ended - start)
        tally.check(inputs.reference_key(spec), outcome_of_result(result))
    return len(specs)


def policy_grid_timed(specs, seconds: float, tally: Tally) -> Timed:
    """Whole grids through the process pool until ``seconds`` have passed."""
    latencies: List[float] = []
    batches: List[float] = []
    done = 0
    cpu = cpu_snapshot()
    start = clock()
    while True:
        done += grid_batch(specs, tally, latencies)
        batches.append(clock() - start - sum(batches))
        if clock() - start >= seconds:
            break
    wall = clock() - start
    return Timed(done, wall, latencies, cpu_since(cpu), {"batch_s": batches})


def twophase_mix_timed(specs, seconds: float, tally: Tally) -> Timed:
    """Serial passes over the two-phase mix until ``seconds`` have passed."""
    latencies: List[float] = []
    cpu = cpu_snapshot()
    start = clock()
    while True:
        for spec in specs:
            wall = run_in_process(spec, tally)
            if wall is not None:
                latencies.append(wall)
        if clock() - start >= seconds:
            break
    return Timed(len(latencies), clock() - start, latencies, cpu_since(cpu))


def paired_serial_pass(specs, tally: Tally, recorder: SpanRecorder):
    """Each spec run untraced and traced back to back, in ABBA order.

    Alternating which mode goes first cancels warm-up and drift between
    the two modes.  Returns (untraced wall, traced wall, metric delta of
    the traced runs), the walls summed over jobs.
    """
    registry = get_registry()
    walls = {False: 0.0, True: 0.0}
    delta: Dict[str, dict] = {}
    for index, spec in enumerate(specs):
        for traced in (False, True) if index % 2 == 0 else (True, False):
            if not traced:
                walls[False] += run_in_process(spec, tally) or 0.0
                continue
            before = registry.snapshot()
            with instrumented(recorder):
                walls[True] += run_in_process(spec, tally) or 0.0
            add_counters(delta, registry.delta_since(before))
    return walls[False], walls[True], delta


def add_counters(total: Dict[str, dict], delta: Dict[str, dict]) -> None:
    for name, entry in delta.items():
        if entry.get("type") == "counter":
            slot = total.setdefault(name, {"type": "counter", "value": 0})
            slot["value"] += entry["value"]


# ---------------------------------------------------------------------------
# service_mix
# ---------------------------------------------------------------------------


class Service:
    """One ``repro serve`` child process in its own session.

    With ``spans_dir`` set it starts through ``serve_traced.py``, which
    installs the span wrappers in the service and (by fork) in every
    worker.
    """

    def __init__(self, root: Path, spans_dir: Optional[Path] = None) -> None:
        self.root = root
        serve_args = [
            "--root", str(root),
            "--workers", str(SERVICE_WORKERS),
            "--drain-timeout", "5",
        ]
        if spans_dir is None:
            command = [sys.executable, "-m", "repro", "serve", *serve_args]
        else:
            command = [
                sys.executable, str(BENCH_DIR / "serve_traced.py"),
                str(spans_dir), "--", *serve_args,
            ]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p
        )
        root.mkdir(parents=True, exist_ok=True)
        self._log = open(root.parent / f"{root.name}.log", "wb")
        self.process = subprocess.Popen(
            command,
            env=env,
            stdout=self._log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        self.client = ServiceClient(root / "service.sock", timeout=60.0)

    def wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with {self.process.returncode}; "
                    f"see {self._log.name}"
                )
            if self.client.alive():
                return
            time.sleep(0.02)
        raise TimeoutError(f"repro serve not ready after {timeout} s")

    def own_cpu_s(self) -> float:
        """CPU the service process has used so far (Linux /proc)."""
        fields = _proc_stat(self.process.pid)
        if fields is None:
            return 0.0
        ticks = sum(int(v) for v in fields[11:15])  # utime stime cutime cstime
        return ticks / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL whatever is left; idempotent.

        The state directory (WAL, result cache, event log: about 20 MB
        per 100 jobs) is removed once every process has ended.
        """
        try:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
                try:
                    self.process.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait(timeout=30)
            _kill_session(self.process.pid)
        finally:
            self._log.close()
        shutil.rmtree(self.root, ignore_errors=True)


def _proc_stat(pid: int) -> Optional[List[str]]:
    """Fields of /proc/<pid>/stat after the command name (state first)."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return text[text.rfind(")") + 2:].split()


def _session_alive(pgid: int) -> bool:
    """Is any non-zombie process left in process group ``pgid``?"""
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            fields = _proc_stat(int(entry.name))
            if fields and int(fields[2]) == pgid and fields[0] != "Z":
                return True
    return False


def _kill_session(pgid: int, timeout: float = 30.0) -> None:
    """SIGKILL a session's stragglers and wait until none is running."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        return
    deadline = time.monotonic() + timeout
    while _session_alive(pgid):
        if time.monotonic() > deadline:
            raise RuntimeError(f"processes of session {pgid} survive SIGKILL")
        time.sleep(0.05)


@dataclass
class Submit:
    key: str
    job_id: str
    disposition: str
    due: float
    submit_s: float
    done: Optional[float] = None
    state: Optional[str] = None


def service_loop(
    client: ServiceClient,
    schedule,
    *,
    seconds: Optional[float] = None,
    count: Optional[int] = None,
) -> Tuple[List[Submit], float]:
    """Closed loop: keep SERVICE_OUTSTANDING submits in flight.

    Submits stop once ``seconds`` have passed or ``count`` submits were
    made; the loop then drains.  A submit's latency runs from when it
    became due (a slot freed) to when the client saw its job terminal.
    Returns the submits and the wall time to the last completion.
    """
    submits: List[Submit] = []
    pending: List[Submit] = []
    start = clock()

    def may_submit() -> bool:
        if count is not None and len(submits) >= count:
            return False
        if seconds is not None and clock() - start >= seconds:
            return False
        if len(submits) >= len(schedule):
            raise RuntimeError(
                f"service schedule exhausted after {len(submits)} submits; "
                "enlarge the spec pools in inputs.py"
            )
        return True

    while True:
        while len(pending) < SERVICE_OUTSTANDING and may_submit():
            spec, _ = schedule[len(submits)]
            due = clock()
            response = client.submit(spec.to_dict())
            now = clock()
            item = Submit(
                key=inputs.reference_key(spec),
                job_id=str(response["job_id"]),
                disposition=str(response["disposition"]),
                due=due,
                submit_s=now - due,
            )
            submits.append(item)
            if response["state"] in TERMINAL:
                item.done, item.state = now, str(response["state"])
            else:
                pending.append(item)
        if not pending:
            break
        progressed = False
        for item in list(pending):
            state = client.status(item.job_id)["job"]["state"]
            if state in TERMINAL:
                item.done, item.state = clock(), state
                pending.remove(item)
                progressed = True
        if not progressed:
            time.sleep(SERVICE_POLL_S)
    last = max(item.done for item in submits)
    return submits, last - start


def check_service_results(
    client: ServiceClient, submits: List[Submit], tally: Tally
) -> None:
    for item in submits:
        if item.state != "DONE":
            tally.unexpected(item.key, RuntimeError(f"job {item.state}"))
            continue
        try:
            response = client.result(item.job_id)
        except ProtocolError as exc:
            tally.unexpected(item.key, exc)
            continue
        observed = response.get("result") or {"error": "no result"}
        tally.check(item.key, observed, SERVICE_OBSERVABLES)


def service_schedule(seed: int, limit: Optional[int]):
    schedule = inputs.service_schedule(seed, SERVICE_SCHEDULE)
    return schedule if limit is None else schedule[:limit]


def service_mix_timed(
    service: Service,
    schedule,
    seconds: float,
    tally: Tally,
    count: Optional[int] = None,
) -> Timed:
    """The timed closed loop against an already-ready service.

    CPU is that of this process plus the service and its workers,
    minus what the service had spent starting up; it is complete only
    after the service has been stopped and waited for.
    """
    startup_cpu = service.own_cpu_s()
    cpu = cpu_snapshot()
    submits, wall = service_loop(
        service.client, schedule, seconds=seconds, count=count
    )
    check_service_results(service.client, submits, tally)
    service.stop()
    latencies = [item.done - item.due for item in submits if item.done]
    return Timed(
        len(submits),
        wall,
        latencies,
        cpu_since(cpu) - startup_cpu,
    )


def service_artifacts(root: Path, client: ServiceClient) -> Dict[str, float]:
    """Service-layer figures from its metrics verb, WAL and event log."""
    registry = client.metrics()["metrics"]

    def counter(name: str) -> float:
        return float(registry.get(name, {}).get("value", 0))

    queue_wait: List[float] = []
    job_run: List[float] = []
    events = root / "events.jsonl"
    lines = 0
    with open(events, encoding="utf-8") as handle:
        for line in handle:
            lines += 1
            record = json.loads(line)
            if record.get("type") != "span":
                continue
            if record.get("name") == "queue.wait":
                queue_wait.append(float(record["dur"]))
            elif record.get("name") == "service.job":
                job_run.append(float(record["dur"]))
    wal_bytes = sum(p.stat().st_size for p in (root / "wal").rglob("*") if p.is_file())
    solved = max(counter("service.jobs.done"), 1.0)
    return {
        "service.queue_wait_s": statistics.median(queue_wait) if queue_wait else 0.0,
        "service.job_run_s": statistics.median(job_run) if job_run else 0.0,
        "service.job_run_total_s": sum(job_run),
        "service.retries": counter("service.jobs.retries"),
        "service.worker_deaths": counter("service.worker.deaths"),
        "service.wal_bytes_per_job": wal_bytes / solved,
        "obs.events_bytes_per_job": events.stat().st_size / solved,
        "obs.events_lines_per_job": lines / solved,
        "service.jobs_solved": solved,
    }


def wait_for_span_files(spans_dir: Path, jobs: int, timeout: float = 30.0):
    """A worker writes its span file just after reporting its job done."""
    deadline = time.monotonic() + timeout
    while len(list(spans_dir.glob("worker-*.json"))) < jobs:
        if time.monotonic() > deadline:
            raise TimeoutError(f"fewer than {jobs} worker span files")
        time.sleep(0.05)


def worker_spans(spans_dir: Path) -> Tuple[SpanRecorder, Dict[str, dict]]:
    """Merge the span files the traced service's workers wrote."""
    recorder = SpanRecorder()
    metrics: Dict[str, dict] = {}
    for path in sorted(spans_dir.glob("worker-*.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        offset = len(recorder.spans)
        for name, start, end, parent in payload["spans"]:
            recorder.spans.append(
                [name, start, end, parent + offset if parent >= 0 else -1]
            )
        add_counters(metrics, payload["metrics"])
    return recorder, metrics


def load_tally() -> Tally:
    return Tally(load_reference())
