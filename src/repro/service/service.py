"""The scenario-job service: store + supervisor + protocol, one loop.

``repro serve --root DIR`` runs one :class:`ScenarioJobService`.  The
asyncio loop does three things: answer protocol requests, tick the
supervisor (reap finished workers, dispatch pending jobs), and react
to signals — SIGTERM/SIGINT trigger a graceful drain (finish in-flight
jobs, re-enqueue the rest through the WAL) and a clean exit 0.

Durability is layered beneath: every accepted job is in the
:class:`~repro.service.jobs.JobStore`'s WAL before the submit response
goes out, every result is in the :class:`ResultCache` (with its run
manifest) before the job is marked ``DONE``, and a restart replays the
journal — so a ``kill -9`` at any instant loses at most the single
uncommitted WAL record, and never a completed solve.
"""

from __future__ import annotations

import asyncio
import os
import signal
import threading
import time
from pathlib import Path
from typing import Dict, Optional, Union

from ..obs.live import (
    MetricsRing,
    PerfWatchdog,
    json_safe_snapshot,
    render_prometheus,
)
from ..obs.manifest import read_manifest
from ..obs.metrics import get_registry
from ..obs.report import job_records
from ..obs.sinks import JsonlSink, read_jsonl
from ..obs.trace import get_tracer
from ..scenario.spec import Scenario, ScenarioError
from .jobs import JobState, JobStore
from .protocol import Address, ProtocolServer, parse_address
from .supervisor import CircuitBreaker, RetryPolicy, Supervisor


def result_summary(result) -> Dict[str, object]:
    """JSON-safe summary of a :class:`SimulationResult` (no series)."""
    return {
        "policy": result.policy,
        "workload": result.workload,
        "duration_s": result.duration,
        "peak_temperature_c": result.peak_temperature_c,
        "hotspot_percent_any": result.hotspot_percent_any,
        "chip_energy_j": result.chip_energy_j,
        "pump_energy_j": result.pump_energy_j,
        "total_energy_j": result.total_energy_j,
        "mean_flow_ml_min": result.mean_flow_ml_min,
        "degradation_percent": result.degradation_percent,
    }


class ScenarioJobService:
    """Long-running durable scenario-job service.

    Parameters
    ----------
    root:
        State directory: WAL under ``root/wal``, results + manifests
        under ``root/cache``, solve log at ``root/runs.jsonl`` and the
        default Unix socket at ``root/service.sock``.
    address:
        Socket override — a path, or ``host:port`` for TCP.
    max_workers:
        Warm worker processes (see :class:`Supervisor`).
    retry / breaker / timeout_s / heartbeat_timeout_s:
        Supervision policy (see :class:`Supervisor`).
    fsync:
        WAL fsync-per-append (tests turn it off for speed).
    metrics_interval_s:
        Metrics-ring sampling period (DESIGN.md section 16); samples
        flush to ``root/metrics.jsonl`` every ``metrics_flush_every``
        samples so a month-long uptime keeps its full trajectory.
    metrics_http:
        Optional ``host:port`` for a Prometheus-text HTTP endpoint.
    """

    def __init__(
        self,
        root: Union[str, Path],
        *,
        address: Optional[Union[str, Path]] = None,
        max_workers: int = 2,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        timeout_s: Optional[float] = None,
        heartbeat_timeout_s: float = 10.0,
        fsync: bool = True,
        rotate_after: int = 4096,
        poll_interval_s: float = 0.05,
        drain_timeout_s: float = 60.0,
        metrics_interval_s: float = 5.0,
        metrics_ring_capacity: int = 720,
        metrics_flush_every: int = 12,
        metrics_http: Optional[str] = None,
        watchdog: Optional[PerfWatchdog] = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.address: Address = (
            parse_address(address)
            if address is not None
            else self.root / "service.sock"
        )
        self.store = JobStore(
            self.root, fsync=fsync, rotate_after=rotate_after
        )
        self.run_log = self.root / "runs.jsonl"
        self.events_path = self.root / "events.jsonl"
        self.metrics_path = self.root / "metrics.jsonl"
        self.profiles_dir = self.root / "profiles"
        self.ring = MetricsRing(
            capacity=metrics_ring_capacity, interval_s=metrics_interval_s
        )
        self.metrics_flush_every = int(metrics_flush_every)
        self._samples_since_flush = 0
        self.metrics_http = metrics_http
        self._http_server = None
        self.supervisor = Supervisor(
            self.store,
            max_workers=max_workers,
            retry=retry,
            breaker=breaker,
            timeout_s=timeout_s,
            heartbeat_timeout_s=heartbeat_timeout_s,
            run_log=str(self.run_log),
            watchdog=(
                watchdog if watchdog is not None else PerfWatchdog()
            ),
            profiles_dir=str(self.profiles_dir),
        )
        self.poll_interval_s = float(poll_interval_s)
        self.drain_timeout_s = float(drain_timeout_s)
        self.started_at = time.time()
        # The asyncio.Event is created inside serve() (py3.9 binds an
        # Event to the loop current at construction); this flag covers
        # stop requests that arrive before the loop exists.
        self._stop_requested = False
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server = ProtocolServer(self.address, self.handle_request)
        self._thread: Optional[threading.Thread] = None
        self._c_requests = get_registry().counter("service.requests")

    # -- request handling ---------------------------------------------------

    def handle_request(self, request: dict) -> dict:
        self._c_requests.inc()
        op = request.get("op")
        if op == "submit":
            return self._op_submit(request)
        if op == "status":
            return {"ok": True, "job": self._job_view(request)}
        if op == "result":
            return self._op_result(request)
        if op == "cancel":
            return self._op_cancel(request)
        if op == "jobs":
            return {
                "ok": True,
                "jobs": [
                    job.describe()
                    for _, job in sorted(self.store.jobs.items())
                ],
                "counts": self.store.counts(),
            }
        if op == "health":
            return self._op_health()
        if op == "metrics":
            return self._op_metrics(request)
        if op == "trace":
            return self._op_trace(request)
        return {"ok": False, "error": f"unknown op {op!r}"}

    def _require_job(self, request: dict):
        job_id = str(request.get("job_id", ""))
        job = self.store.get(job_id)
        if job is None:
            raise KeyError(f"no such job: {job_id or '<missing job_id>'}")
        return job

    def _job_view(self, request: dict) -> dict:
        return self._require_job(request).describe()

    def _op_submit(self, request: dict) -> dict:
        if self.supervisor.draining:
            return {
                "ok": False,
                "error": "service is draining; resubmit after restart",
            }
        try:
            scenario = Scenario.from_dict(request.get("scenario"))
        except ScenarioError as exc:
            return {"ok": False, "error": str(exc)}
        job, disposition = self.store.submit(
            scenario,
            trace=request.get("trace"),
            profile=bool(request.get("profile", False)),
        )
        tracer = get_tracer()
        tracer.event(
            "service.submit",
            job_id=job.job_id,
            trace_id=job.trace_id,
            disposition=disposition,
            content_hash=job.content_hash,
        )
        if (
            tracer.has_sinks
            and disposition == "new"
            and job.client_t0 is not None
        ):
            # Close the client-side phase of the trace: minted at the
            # CLI, measured here as submit-arrival minus mint time.
            tracer.emit_span(
                "client.submit",
                job.client_t0,
                max(0.0, time.time() - job.client_t0),
                job_id=job.job_id,
                trace_id=job.trace_id,
            )
        return {
            "ok": True,
            "job_id": job.job_id,
            "state": job.state.value,
            "disposition": disposition,
            "content_hash": job.content_hash,
            "trace_id": job.trace_id,
        }

    def _op_result(self, request: dict) -> dict:
        job = self._require_job(request)
        response = {
            "ok": True,
            "job_id": job.job_id,
            "state": job.state.value,
            "result": None,
            "manifest": None,
        }
        if job.state == JobState.DONE:
            result = self.store.cache.get(job.scenario)
            if result is not None:
                response["result"] = result_summary(result)
            response["manifest"] = read_manifest(
                self.store.cache.manifest_path(job.scenario)
            )
        elif job.state in (JobState.FAILED, JobState.QUARANTINED):
            response["error_detail"] = job.error
        return response

    def _op_cancel(self, request: dict) -> dict:
        job = self._require_job(request)
        if job.state.terminal:
            return {
                "ok": False,
                "error": f"{job.job_id} already {job.state.value}",
            }
        return {"ok": True, "job": self.supervisor.cancel(job.job_id).describe()}

    def _op_health(self) -> dict:
        recovery = self.store.recovery
        return {
            "ok": True,
            "status": "draining" if self.supervisor.draining else "ok",
            "pid": os.getpid(),
            "uptime_s": time.time() - self.started_at,
            "counts": self.store.counts(),
            "workers": self._workers_view(),
            "breaker": self.supervisor.breaker.snapshot(),
            "recovery": {
                "jobs": recovery.jobs,
                "requeued": recovery.requeued,
                "corrupt_tail_segments": recovery.corrupt_tail_segments,
                "dropped_bytes": recovery.dropped_bytes,
            },
        }

    def _workers_view(self) -> dict:
        return {
            "busy": self.supervisor.busy,
            "max": self.supervisor.max_workers,
            "pool": self.supervisor.pool(),
        }

    def _op_metrics(self, request: dict) -> dict:
        """Live metrics: registry snapshot + ring window + watchdog."""
        window = request.get("window")
        last = int(window) if isinstance(window, (int, float)) else 60
        watchdog = self.supervisor.watchdog
        return {
            "ok": True,
            "t": time.time(),
            "uptime_s": time.time() - self.started_at,
            "metrics": json_safe_snapshot(get_registry()),
            "window": self.ring.window(last),
            "ring": {
                "samples": len(self.ring),
                "capacity": self.ring.capacity,
                "interval_s": self.ring.interval_s,
                "evicted_unflushed": self.ring.evicted_unflushed,
            },
            "watchdog": watchdog.snapshot() if watchdog else {},
            "counts": self.store.counts(),
            "workers": self._workers_view(),
            "breaker": self.supervisor.breaker.snapshot(),
        }

    def _op_trace(self, request: dict) -> dict:
        """Trace records of one job from the service event log."""
        job_id = str(request.get("job_id", ""))
        if not job_id:
            return {"ok": False, "error": "trace requires job_id"}
        if not self.events_path.exists():
            return {"ok": True, "job_id": job_id, "records": []}
        records = job_records(read_jsonl(self.events_path), job_id)
        limit = int(request.get("limit", 5000))
        return {
            "ok": True,
            "job_id": job_id,
            "records": records[-limit:],
            "truncated": len(records) > limit,
        }

    # -- live metrics plumbing ----------------------------------------------

    def _sample_metrics(self) -> None:
        """Ring-sample the registry when due; flush on cadence."""
        if not self.ring.due():
            return
        self.supervisor.update_gauges()
        registry = get_registry()
        breaker = self.supervisor.breaker.snapshot()
        registry.gauge("service.breaker.open").set(
            sum(1 for state in breaker.values() if state != "closed")
        )
        self.ring.sample(registry)
        self._samples_since_flush += 1
        if self._samples_since_flush >= self.metrics_flush_every:
            self.ring.flush(self.metrics_path)
            self._samples_since_flush = 0

    def _start_metrics_http(self):
        """Serve Prometheus text on ``metrics_http`` (daemon thread)."""
        if not self.metrics_http:
            return None
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        class Handler(BaseHTTPRequestHandler):
            def do_GET(handler) -> None:  # noqa: N805 - stdlib API
                if handler.path.rstrip("/") not in ("", "/metrics"):
                    handler.send_error(404)
                    return
                body = render_prometheus(
                    json_safe_snapshot(get_registry())
                ).encode("utf-8")
                handler.send_response(200)
                handler.send_header(
                    "Content-Type", "text/plain; version=0.0.4"
                )
                handler.send_header("Content-Length", str(len(body)))
                handler.end_headers()
                handler.wfile.write(body)

            def log_message(handler, *args) -> None:  # noqa: N805
                pass

        host, _, port = self.metrics_http.rpartition(":")
        server = ThreadingHTTPServer(
            (host or "127.0.0.1", int(port)), Handler
        )
        threading.Thread(target=server.serve_forever, daemon=True).start()
        return server

    @property
    def metrics_http_port(self) -> Optional[int]:
        """Bound port of the Prometheus endpoint (``None`` when off)."""
        if self._http_server is None:
            return None
        return self._http_server.server_address[1]

    # -- lifecycle ----------------------------------------------------------

    def request_stop(self) -> None:
        """Thread/signal-safe shutdown request (starts a drain)."""
        self._stop_requested = True
        if (
            self._loop is not None
            and self._loop.is_running()
            and self._stop is not None
        ):
            self._loop.call_soon_threadsafe(self._stop.set)

    def _install_signal_handlers(self, loop) -> None:
        try:
            loop.add_signal_handler(signal.SIGTERM, self._stop.set)
            loop.add_signal_handler(signal.SIGINT, self._stop.set)
        except (NotImplementedError, RuntimeError, ValueError):
            # Not the main thread (tests) or an exotic platform; the
            # service is still stoppable through request_stop().
            pass

    async def serve(self) -> None:
        """Run until stopped; drains gracefully on SIGTERM/SIGINT."""
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        if self._stop_requested:
            self._stop.set()
        self._install_signal_handlers(self._loop)
        await self._server.start()
        # The always-on event log: every span/event the service emits
        # or ingests (including worker telemetry stitched per job) goes
        # to root/events.jsonl, appended across restarts and flushed
        # per record so post-kill readers see complete history.
        tracer = get_tracer()
        events_sink = JsonlSink(
            self.events_path, append=True, line_buffered=True
        )
        tracer.add_sink(events_sink)
        self._http_server = self._start_metrics_http()
        tracer.event(
            "service.start",
            root=str(self.root),
            address=str(self.address),
            recovered=self.store.recovery.jobs,
            requeued=self.store.recovery.requeued,
        )
        try:
            while not self._stop.is_set():
                self.supervisor.tick()
                self._sample_metrics()
                try:
                    await asyncio.wait_for(
                        self._stop.wait(), timeout=self.poll_interval_s
                    )
                except asyncio.TimeoutError:
                    pass
        finally:
            try:
                # Graceful drain: finish what is running (bounded),
                # journal the rest back to PENDING.
                self.supervisor.drain(self.drain_timeout_s)
            finally:
                # Whatever the drain managed, no worker outlives the
                # service: a live worker would hang interpreter exit.
                # Then stop answering and release the WAL.
                self.supervisor.shutdown()
                await self._server.stop()
                try:
                    self.ring.flush(self.metrics_path)
                except OSError:
                    pass
                if self._http_server is not None:
                    self._http_server.shutdown()
                    self._http_server.server_close()
                    self._http_server = None
                tracer.remove_sink(events_sink)
                events_sink.close()
                self.store.close()

    def serve_forever(self) -> int:
        """Blocking entry point used by ``repro serve``; returns 0."""
        asyncio.run(self.serve())
        return 0

    # -- test/embedding helpers --------------------------------------------

    def start_background(self, ready_timeout: float = 10.0) -> None:
        """Run :meth:`serve` on a daemon thread (unit tests, notebooks)."""
        from .protocol import ServiceClient

        if self._thread is not None:
            raise RuntimeError("service already started")
        self._thread = threading.Thread(
            target=self.serve_forever, daemon=True
        )
        self._thread.start()
        ServiceClient(self.address).wait_ready(ready_timeout)

    def stop_background(self, timeout: float = 30.0) -> None:
        """Stop a :meth:`start_background` service and join its thread."""
        self.request_stop()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None
