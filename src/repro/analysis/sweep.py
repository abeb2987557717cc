"""Sweep engine for design-space and policy studies.

* :class:`SteadySweep` — steady-state solves over one thermal model,
  each one :meth:`CompactThermalModel.steady_state` call, so every
  case gets the model's backend choice, guards and dynamic two-phase
  rhs, and each distinct flow state is factorised once (through the
  model's steady cache).
* One executor for every fan-out: :func:`fan_out` and
  :func:`resilient_fan_out` map a function over independent work
  items, serially or across a ``concurrent.futures`` process pool.
  Both run the same job loop and pool driver; :func:`fan_out` is its
  strict form (no retries, and the first failed job's own exception
  is re-raised, in job order), :func:`resilient_fan_out` the lenient
  one (retries, per-job timeouts, crash isolation and checkpoints,
  returning a :class:`SweepOutcome` of partial results).
* :class:`SimulationJob` with :func:`run_simulations` (strict) and
  :func:`run_simulations_resilient` (lenient) — closed-loop
  :class:`~repro.core.simulator.SystemSimulator` runs as picklable
  jobs on that executor.  Every (stack, policy, workload) combination
  is independent, which is what makes the benchmark grids
  embarrassingly parallel.  A job is either a bundle of live objects
  (legacy) or a declarative :class:`~repro.scenario.Scenario`; both
  drivers accept bare :class:`Scenario` instances, and scenario-backed
  jobs can be served from the hash-keyed on-disk result cache
  (``cache_dir=...``) so repeated sweep points are never recomputed.
  Pool workers call ``job.run(cache=...)`` on the pickled job, so a
  subclass may override :meth:`SimulationJob.run`; whatever it returns
  comes back as the job's value.

Process pools pay a fork + pickle cost per job, so they only win when
each job runs for seconds (closed-loop simulations, fine-grid steady
maps) — the benchmark harness keeps them opt-in via
``REPRO_BENCH_PROCESSES``.  A pool never holds more jobs than it has
workers, so a job's timeout clock starts when it can start running,
not while it waits in the queue.
"""

from __future__ import annotations

import pickle
import random as _random
import time as _time
import traceback as _traceback
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

import numpy as np

from ..core.policies import Policy
from ..core.simulator import SimulationResult, SystemSimulator
from ..geometry.stack import StackDesign
from ..obs import capture_telemetry, is_obs_payload
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from ..scenario.cache import ResultCache
from ..scenario.runner import Runner
from ..scenario.spec import Scenario
from ..thermal.field import TemperatureField
from ..thermal.model import BlockRef, CompactThermalModel
from ..workload.traces import WorkloadTrace

T = TypeVar("T")
R = TypeVar("R")

BACKOFF_JITTER = 0.25
"""Retry-delay spread, a ± fraction of each backoff (see
:func:`jittered_delay`)."""

CHECKPOINT_EVERY = 8
"""Completed jobs between periodic checkpoint writes."""


@dataclass(frozen=True)
class SteadyCase:
    """One steady-state solve: block powers at an optional flow override.

    ``flow_ml_min=None`` solves at the model's stored (possibly
    per-cavity) flow state, exactly like
    :meth:`CompactThermalModel.steady_state`.
    """

    block_powers: Mapping[BlockRef, float]
    flow_ml_min: Optional[float] = None


class SteadySweep:
    """Steady solves of many cases against one :class:`CompactThermalModel`.

    Parameters
    ----------
    model:
        The model to sweep.  Its steady cache is shared, so
        interleaving sweeps with individual ``steady_state`` calls
        never refactorises needlessly.
    """

    def __init__(self, model: CompactThermalModel) -> None:
        self.model = model

    def solve(self, cases: Sequence[SteadyCase]) -> List[TemperatureField]:
        """Solve all cases, returned in input order; each result is
        bitwise the model's own ``steady_state`` answer."""
        return [
            self.model.steady_state(dict(case.block_powers), case.flow_ml_min)
            for case in cases
        ]

    def peak_temperatures(self, cases: Sequence[SteadyCase]) -> np.ndarray:
        """Stack peak temperature per case [K] (convenience)."""
        return np.array([field_.max() for field_ in self.solve(cases)])



@dataclass
class SimulationJob:
    """One picklable closed-loop simulation.

    The single job type behind every fan-out below, in one of two
    construction modes:

    * **scenario-backed** (preferred): ``scenario`` holds a declarative
      :class:`~repro.scenario.Scenario`; the stack, policy, trace,
      thermal model and fault set are built fresh in the worker and the
      run can be served from the hash-keyed result cache.
    * **legacy objects**: ``stack``/``policy``/``trace`` carry live
      instances and ``kwargs`` are forwarded to
      :class:`SystemSimulator` (grid resolution, control period, ...).

    ``key`` is an opaque caller label carried through to make result
    bookkeeping trivial after a fan-out; scenario-backed jobs default
    it to the scenario's ``label``.
    """

    stack: Optional[StackDesign] = None
    policy: Optional[Policy] = None
    trace: Optional[WorkloadTrace] = None
    key: object = None
    kwargs: Dict[str, object] = field(default_factory=dict)
    scenario: Optional[Scenario] = None

    def __post_init__(self) -> None:
        if self.scenario is not None:
            if (
                self.stack is not None
                or self.policy is not None
                or self.trace is not None
                or self.kwargs
            ):
                raise ValueError(
                    "a scenario-backed job must not also carry live "
                    "stack/policy/trace objects or kwargs — put the "
                    "configuration into the Scenario"
                )
            if self.key is None:
                self.key = self.scenario.label
        elif self.stack is None or self.policy is None or self.trace is None:
            raise ValueError(
                "a job needs either a Scenario or all three of "
                "stack, policy and trace"
            )

    @classmethod
    def from_scenario(
        cls, scenario: Scenario, key: object = None
    ) -> "SimulationJob":
        """A job for one declarative scenario (``key`` defaults to its
        label)."""
        return cls(scenario=scenario, key=key)

    def run(
        self, cache: Optional[ResultCache] = None
    ) -> SimulationResult:
        """Execute the job (scenario jobs may hit the result cache)."""
        if self.scenario is not None:
            return Runner(self.scenario, cache=cache).run()
        simulator = SystemSimulator(
            self.stack, self.policy, self.trace, **self.kwargs
        )
        return simulator.run()


JobLike = Union[SimulationJob, Scenario]


def _coerce_jobs(jobs: Sequence[JobLike]) -> List[SimulationJob]:
    """Accept bare scenarios anywhere a job sequence is expected."""
    return [
        SimulationJob.from_scenario(job)
        if isinstance(job, Scenario)
        else job
        for job in jobs
    ]



@dataclass(frozen=True)
class JobFailure:
    """Structured record of one job that could not be completed.

    Attributes
    ----------
    index:
        Position of the job in the submitted sequence.
    key:
        The caller's label for the job (job index when none given).
    phase:
        ``"exception"`` (the job raised), ``"timeout"`` (exceeded the
        per-job deadline) or ``"worker-crash"`` (the worker process
        died — segfault, OOM kill, ``os._exit``).
    error_type, message, traceback:
        Exception details when available; the traceback is rendered in
        the worker so it survives pickling.
    attempts:
        Attempts consumed before giving up.
    elapsed_s:
        Wall time the final attempt ran before failing, when it could
        be measured — in the worker for exceptions (the measurement
        rides back on the pickled exception), in the parent for
        timeouts and crashes.  ``None`` when nothing measured it.
    retry_index:
        Zero-based index of the failing attempt (``attempts - 1``).
    last_span:
        Name of the innermost tracer span open when the job died
        (empty when the failure happened outside any span, or the
        worker crashed before reporting).
    """

    index: int
    key: object
    phase: str
    error_type: str
    message: str
    traceback: str = ""
    attempts: int = 1
    elapsed_s: Optional[float] = None
    retry_index: int = 0
    last_span: str = ""


@dataclass
class SweepOutcome:
    """Partial results of a resilient fan-out.

    ``results`` holds ``(key, value)`` pairs of the jobs that succeeded,
    in submission order; ``failures`` the structured records of those
    that did not.  ``results + failures`` always covers every submitted
    job exactly once.
    """

    results: List[Tuple[object, object]]
    failures: List[JobFailure]
    total: int

    @property
    def succeeded(self) -> int:
        return len(self.results)

    @property
    def complete(self) -> bool:
        """True when every job produced a result."""
        return not self.failures

    def result_map(self) -> Dict[object, object]:
        """``{key: value}`` of the successful jobs."""
        return dict(self.results)

    def raise_if_failed(self) -> "SweepOutcome":
        """Raise a ``RuntimeError`` summarising failures, if any."""
        if self.failures:
            lines = [
                f"  [{f.phase}] job {f.key!r}: {f.error_type}: {f.message}"
                for f in self.failures
            ]
            raise RuntimeError(
                f"{len(self.failures)}/{self.total} jobs failed:\n"
                + "\n".join(lines)
            )
        return self


def _drain_pool(
    fn: Callable[[T], R],
    work: Sequence[T],
    indices: Sequence[int],
    processes: int,
    timeout_s: Optional[float],
    fail_fast: bool,
) -> Tuple[
    Dict[int, R],
    Dict[int, BaseException],
    set,
    bool,
    set,
    Dict[int, float],
]:
    """Run one process-pool lifetime over the given job indices.

    Jobs are submitted in index order, never more than ``processes`` at
    a time, so every submitted job has a free worker and its deadline
    (``timeout_s`` after submission) covers run time only.  With
    ``fail_fast`` no job is submitted after the first one raised.

    Returns ``(successes, errors, timed_out, crashed, unfinished,
    elapsed)``.  ``unfinished`` jobs were aborted or never submitted
    through no fault of their own (pool crash, a sibling's timeout
    tearing the pool down, ``fail_fast``) and must be re-run without an
    attempt penalty.  ``elapsed`` maps every index that left the pool
    (success, error, crash or timeout) to the seconds between its
    submission and that outcome — an upper bound on run time that
    failure records fall back to when the worker could not measure its
    own.
    """
    successes: Dict[int, R] = {}
    errors: Dict[int, BaseException] = {}
    timed_out: set = set()
    crashed = False
    unfinished = set(indices)
    elapsed: Dict[int, float] = {}
    queue = list(reversed(indices))  # pop() yields index order
    outstanding: Dict[Future, Tuple[int, float]] = {}
    pool = ProcessPoolExecutor(max_workers=processes)
    clean = False
    try:
        while True:
            while (
                queue
                and len(outstanding) < processes
                and not (fail_fast and errors)
            ):
                index = queue.pop()
                future = pool.submit(fn, work[index])
                outstanding[future] = (index, _time.monotonic())
            if not outstanding:
                break
            done, _ = wait(
                set(outstanding),
                timeout=None if timeout_s is None else 0.05,
                return_when=FIRST_COMPLETED,
            )
            now = _time.monotonic()
            for future in done:
                index, submitted = outstanding.pop(future)
                elapsed[index] = now - submitted
                try:
                    successes[index] = future.result()
                    unfinished.discard(index)
                except BrokenProcessPool:
                    crashed = True
                except Exception as exc:  # job raised in the worker
                    errors[index] = exc
                    unfinished.discard(index)
            if crashed:
                break
            if timeout_s is not None:
                overdue = [
                    future
                    for future, (_, submitted) in outstanding.items()
                    if now - submitted >= timeout_s
                ]
                if overdue:
                    for future in overdue:
                        index, submitted = outstanding.pop(future)
                        elapsed[index] = now - submitted
                        timed_out.add(index)
                        unfinished.discard(index)
                    # A hung worker never frees its slot: tear the pool
                    # down; still-running innocents land in `unfinished`
                    # and are resubmitted penalty-free.
                    break
        clean = not timed_out and not crashed
    finally:
        if clean:
            pool.shutdown(wait=True)
        else:
            for process in list(getattr(pool, "_processes", {}).values()):
                try:
                    process.terminate()
                except Exception:
                    pass
            pool.shutdown(wait=False, cancel_futures=True)
    return successes, errors, timed_out, crashed, unfinished, elapsed


def _render_traceback(exc: BaseException) -> str:
    return "".join(
        _traceback.format_exception(type(exc), exc, exc.__traceback__)
    )


def jittered_delay(
    backoff_s: float,
    attempt: int,
    *,
    cap_s: float = 30.0,
    jitter: float = 0.25,
    rng: Optional[_random.Random] = None,
) -> float:
    """Exponential backoff with multiplicative jitter, in seconds.

    ``backoff_s * 2**(attempt-1)`` capped at ``cap_s``, then spread by
    ``±jitter`` (a fraction of the base delay).  Jitter is what keeps a
    batch of jobs that failed *together* — a shared resource blipping,
    a pool crash — from retrying in lockstep and failing together
    again; both the sweep retries and the service supervisor use this
    one helper.
    """
    if backoff_s <= 0.0:
        return 0.0
    base = min(cap_s, backoff_s * (2.0 ** max(0, attempt - 1)))
    if jitter <= 0.0:
        return base
    uniform = (rng if rng is not None else _random).uniform
    return max(0.0, base + uniform(-jitter * base, jitter * base))


def _checkpoint_corrupt(path: Path, reason: str) -> None:
    """Count and trace a fresh start forced by a damaged checkpoint.

    Same policy :class:`~repro.scenario.cache.ResultCache` applies to
    corrupt entries: a truncated or unpicklable checkpoint degrades to
    recomputation, never to a crash — but never silently either.
    """
    get_registry().counter("sweep.checkpoint_corrupt").inc()
    get_tracer().event(
        "sweep.checkpoint_corrupt", path=str(path), reason=reason
    )


def _load_checkpoint(
    path: Optional[Path], keys: List[object]
) -> Dict[int, object]:
    """Completed results of an earlier run of the *same* sweep.

    A checkpoint resumes only a sweep with the same job keys in the
    same order; anything else (another grid, another job count) is a
    fresh start.
    """
    if path is None or not Path(path).exists():
        return {}
    try:
        payload = pickle.loads(Path(path).read_bytes())
    except Exception as exc:
        # Truncated file (a killed writer predating the atomic rename),
        # foreign classes, bit rot: unpickling can raise nearly
        # anything.  Counted, traced, fresh start.
        _checkpoint_corrupt(Path(path), type(exc).__name__)
        return {}
    if not isinstance(payload, dict):
        _checkpoint_corrupt(
            Path(path), f"payload is {type(payload).__name__}, not dict"
        )
        return {}
    if payload.get("keys") != keys:
        return {}
    return dict(payload.get("results", {}))


def _save_checkpoint(
    path: Optional[Path], results: Dict[int, object], keys: List[object]
) -> None:
    if path is None:
        return
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(
        pickle.dumps(
            {"results": dict(results), "total": len(keys), "keys": keys}
        )
    )
    tmp.replace(path)


def _execute(
    fn: Callable[[T], R],
    work: List[T],
    processes: Optional[int],
    *,
    keys: List[object],
    strict: bool,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    backoff_s: float = 0.0,
    checkpoint_path: Optional[Path] = None,
) -> SweepOutcome:
    """The one job loop behind every fan-out in this module.

    ``strict`` stops at the first failure — no job starts after it —
    and re-raises the exception of the first failed job in job order
    (a :class:`BrokenProcessPool` when the job killed its worker).
    Otherwise every job runs to a result or a :class:`JobFailure`; see
    :func:`resilient_fan_out`.
    """
    if retries < 0:
        raise ValueError("retries must be non-negative")
    max_attempts = retries + 1
    results: Dict[int, object] = _load_checkpoint(checkpoint_path, keys)
    failures: Dict[int, JobFailure] = {}
    raised: Dict[int, BaseException] = {}
    attempts = {i: 0 for i in range(len(work))}
    unsaved = 0

    def note_success(index: int, value: object) -> None:
        nonlocal unsaved
        results[index] = value
        unsaved += 1
        if checkpoint_path is not None and unsaved >= CHECKPOINT_EVERY:
            _save_checkpoint(checkpoint_path, results, keys)
            unsaved = 0

    def note_failure(
        index: int,
        phase: str,
        exc: BaseException,
        elapsed: Optional[float] = None,
    ) -> None:
        elapsed_s = getattr(exc, "_obs_elapsed_s", None)
        raised[index] = exc
        failures[index] = JobFailure(
            index=index,
            key=keys[index],
            phase=phase,
            error_type=type(exc).__name__,
            message=str(exc),
            traceback=_render_traceback(exc) if phase == "exception" else "",
            attempts=attempts[index],
            elapsed_s=elapsed if elapsed_s is None else elapsed_s,
            retry_index=max(0, attempts[index] - 1),
            last_span=getattr(exc, "_obs_last_span", "") or "",
        )

    def backoff(attempt: int) -> None:
        delay = jittered_delay(backoff_s, attempt, jitter=BACKOFF_JITTER)
        if delay > 0.0:
            _time.sleep(delay)

    pending = [i for i in range(len(work)) if i not in results]

    try:
        if processes is None or processes <= 1:
            for index in pending:
                if strict and failures:
                    break
                while True:
                    attempts[index] += 1
                    attempt_start = _time.perf_counter()
                    try:
                        note_success(index, fn(work[index]))
                        break
                    except Exception as exc:
                        if attempts[index] >= max_attempts:
                            note_failure(
                                index,
                                "exception",
                                exc,
                                _time.perf_counter() - attempt_start,
                            )
                            break
                        backoff(attempts[index])
        else:
            crashes = 0
            while pending and not (strict and failures):
                isolate = crashes >= 2
                batch = pending[:1] if isolate else pending
                batch_attempt = max(attempts[i] for i in batch)
                for index in batch:
                    attempts[index] += 1
                (
                    successes,
                    errors,
                    timed_out,
                    crashed,
                    unfinished,
                    elapsed,
                ) = _drain_pool(
                    fn,
                    work,
                    batch,
                    1 if isolate else processes,
                    timeout_s,
                    fail_fast=strict,
                )
                for index, value in successes.items():
                    note_success(index, value)
                retry_needed = False
                for index, exc in errors.items():
                    if attempts[index] >= max_attempts:
                        note_failure(
                            index, "exception", exc, elapsed.get(index)
                        )
                    else:
                        retry_needed = True
                for index in timed_out:
                    if attempts[index] >= max_attempts:
                        note_failure(
                            index,
                            "timeout",
                            TimeoutError(
                                f"job exceeded the {timeout_s} s deadline"
                            ),
                            elapsed.get(index, timeout_s),
                        )
                    else:
                        retry_needed = True
                if crashed:
                    crashes += 1
                if crashed and isolate:
                    # One job per pool: the crash is attributable.
                    index = batch[0]
                    if attempts[index] >= max_attempts:
                        note_failure(
                            index,
                            "worker-crash",
                            BrokenProcessPool(
                                "the worker process died while running "
                                "this job"
                            ),
                            elapsed.get(index),
                        )
                        # Culprit isolated; batch mode can resume.
                        crashes = 0
                    unfinished.discard(index)
                else:
                    # Jobs aborted by a crash nobody can be blamed for, a
                    # sibling's timeout or fail-fast keep their attempt:
                    # they did not run to failure.
                    for index in unfinished:
                        attempts[index] -= 1
                pending = [
                    i
                    for i in range(len(work))
                    if i not in results and i not in failures
                ]
                if retry_needed:
                    backoff(batch_attempt + 1)
    finally:
        # Flush on every exit path -- including KeyboardInterrupt and
        # SystemExit mid-grid -- so an interrupted sweep always leaves a
        # loadable checkpoint that resumes without re-solving finished
        # jobs (no-op when checkpointing is off).
        _save_checkpoint(checkpoint_path, results, keys)
    if strict and failures:
        raise raised[min(failures)]
    return SweepOutcome(
        results=[(keys[i], results[i]) for i in sorted(results)],
        failures=[failures[i] for i in sorted(failures)],
        total=len(work),
    )


def fan_out(
    fn: Callable[[T], R],
    items: Iterable[T],
    processes: Optional[int] = None,
) -> List[R]:
    """Apply ``fn`` to every item, optionally across worker processes.

    Parameters
    ----------
    fn:
        A picklable (module-level) callable when ``processes`` is used.
    items:
        The independent work items.
    processes:
        ``None``, 0 or 1 run serially in-process; larger values spawn a
        ``ProcessPoolExecutor`` with that many workers.

    Results are returned in item order either way, so callers can
    toggle parallelism without touching downstream code.  This is the
    strict form of :func:`resilient_fan_out`: no retries, no job starts
    after the first failure, and the exception of the first failed item
    (in item order) is re-raised.
    """
    work = list(items)
    outcome = _execute(
        fn, work, processes, keys=list(range(len(work))), strict=True
    )
    return [value for _, value in outcome.results]


def resilient_fan_out(
    fn: Callable[[T], R],
    items: Iterable[T],
    processes: Optional[int] = None,
    *,
    keys: Optional[Sequence[object]] = None,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    backoff_s: float = 0.0,
    checkpoint_path: Optional[Path] = None,
) -> SweepOutcome:
    """Fan out with per-job isolation: one bad job cannot sink the grid.

    Guarantees, relative to plain :func:`fan_out`:

    * a job that **raises** is retried ``retries`` times with
      exponential backoff spread by :data:`BACKOFF_JITTER` (so
      simultaneous failures do not retry in lockstep), then recorded as
      a :class:`JobFailure` while every sibling still completes;
    * a job that **kills its worker** (segfault, OOM, ``os._exit``)
      breaks the pool — the pool is rebuilt, survivors are resubmitted
      penalty-free, and after a second crash jobs run one-at-a-time so
      the culprit is identified and isolated before batch mode resumes;
    * a job that **runs** longer than ``timeout_s`` is recorded as a
      timeout failure (after its retries) instead of stalling the
      sweep; the clock starts when the job is handed to a free worker,
      so time spent queued behind siblings never counts — process mode
      only, a serial run cannot pre-empt the job;
    * with ``checkpoint_path`` the completed results are pickled every
      :data:`CHECKPOINT_EVERY` jobs, and a re-run with the same path
      and the same job keys resumes, re-running only unfinished or
      previously failed jobs (different keys are a fresh start).  The
      checkpoint is also flushed when the sweep is interrupted
      (``KeyboardInterrupt`` / ``SystemExit``), so a ctrl-C mid-grid
      leaves a loadable resume point; a corrupt checkpoint file is a
      counted, traced fresh start (``sweep.checkpoint_corrupt``),
      never a crash.

    Serial runs (``processes in (None, 0, 1)``) honour retries,
    backoff, checkpoints and exception isolation, but cannot survive a
    job that kills the interpreter nor enforce timeouts.

    Returns a :class:`SweepOutcome`; ``keys`` default to job indices.
    """
    work = list(items)
    key_list = list(keys) if keys is not None else list(range(len(work)))
    if len(key_list) != len(work):
        raise ValueError("keys must match items one-to-one")
    return _execute(
        fn,
        work,
        processes,
        keys=key_list,
        strict=False,
        timeout_s=timeout_s,
        retries=retries,
        backoff_s=backoff_s,
        checkpoint_path=checkpoint_path,
    )


# ---------------------------------------------------------------------------
# simulation jobs on the executor
# ---------------------------------------------------------------------------


def _annotate_job_exception(exc: BaseException, start: float) -> None:
    """Stamp wall time (and keep any span stamp) onto a dying job's error.

    ``BaseException.__dict__`` travels with the pickle, so these
    attributes survive the hop back from a pool worker and feed the
    :class:`JobFailure` timing fields.
    """
    if getattr(exc, "_obs_elapsed_s", None) is None:
        try:
            exc._obs_elapsed_s = _time.perf_counter() - start
        except (AttributeError, TypeError):
            pass


def _run_simulation_job(
    job: SimulationJob,
    cache_dir: Optional[str] = None,
    capture: bool = False,
) -> object:
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    start = _time.perf_counter()
    try:
        if capture:
            payload: Dict[str, object] = {}
            with capture_telemetry(payload):
                result = job.run(cache=cache)
            return result, payload
        return job.run(cache=cache)
    except BaseException as exc:
        _annotate_job_exception(exc, start)
        raise


def _should_capture(tracer, processes: Optional[int]) -> bool:
    """Worker-side capture is only worth it for a real pool fan-out.

    Serial runs emit straight into the parent's sinks; pool workers
    have no sinks, so their spans/metric deltas are captured into the
    returned payload and merged here — but only when someone is
    actually recording.
    """
    return tracer.has_sinks and processes is not None and processes > 1


def _merge_worker_value(tracer, key: object, value: object) -> object:
    """Unwrap one worker return, folding any telemetry payload in.

    Each captured job becomes one ``sweep.job`` span in the parent
    trace with the worker's spans re-sequenced beneath it; the worker's
    metric delta merges into the parent registry so rollups count
    pool and serial runs identically.
    """
    if (
        isinstance(value, tuple)
        and len(value) == 2
        and is_obs_payload(value[1])
    ):
        from ..obs.live import current_trace

        result, payload = value
        attrs: Dict[str, object] = {"key": str(key)}
        context = current_trace()
        if context is not None:
            # Sweeps running under a distributed trace (e.g. inside a
            # service worker) keep their fan-out joined to it.
            attrs["trace_id"] = context.trace_id
        with tracer.span("sweep.job", **attrs) as job_span:
            tracer.ingest(
                payload.get("spans", ()),
                depth_offset=job_span.depth + 1,
            )
        get_registry().merge(payload.get("metrics", {}))
        return result
    return value


def _simulate(
    span: str,
    jobs: Sequence[JobLike],
    processes: Optional[int],
    cache_dir: Optional[Union[str, Path]],
    **options,
) -> SweepOutcome:
    """Simulation jobs through :func:`_execute`, telemetry merged back."""
    jobs = _coerce_jobs(jobs)
    tracer = get_tracer()
    runner = partial(
        _run_simulation_job,
        cache_dir=None if cache_dir is None else str(cache_dir),
        capture=_should_capture(tracer, processes),
    )
    with tracer.span(span, jobs=len(jobs), processes=processes or 1):
        outcome = _execute(
            runner,
            jobs,
            processes,
            keys=[job.key for job in jobs],
            **options,
        )
        # Unwrap unconditionally: resumed checkpoints may hold capture
        # tuples from an earlier traced run even when capture is off.
        outcome.results = [
            (key, _merge_worker_value(tracer, key, value))
            for key, value in outcome.results
        ]
        return outcome


def run_simulations(
    jobs: Sequence[JobLike],
    processes: Optional[int] = None,
    *,
    cache_dir: Optional[Union[str, Path]] = None,
) -> List[Tuple[object, SimulationResult]]:
    """Run independent simulations, optionally across processes.

    ``jobs`` may mix :class:`SimulationJob` instances and bare
    :class:`~repro.scenario.Scenario` specs.  With ``cache_dir`` set,
    scenario-backed jobs are served from (and written to) the on-disk
    result cache keyed by scenario content hash + code version, so a
    repeated sweep point costs a pickle load instead of a solve.

    Strict: the exception of the first failed job (in job order) is
    re-raised, as from :func:`fan_out`.

    Returns ``(job.key, result)`` pairs in job order.
    """
    return _simulate(
        "sweep.run_simulations", jobs, processes, cache_dir, strict=True
    ).results


def run_simulations_resilient(
    jobs: Sequence[JobLike],
    processes: Optional[int] = None,
    *,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    backoff_s: float = 0.0,
    checkpoint_path: Optional[Path] = None,
    cache_dir: Optional[Union[str, Path]] = None,
) -> SweepOutcome:
    """Resilient :func:`run_simulations`: partial results, not aborts.

    Where :func:`run_simulations` re-raises the first failed job's
    exception and loses the whole grid, this returns a
    :class:`SweepOutcome` whose ``results`` are ``(job.key,
    SimulationResult)`` pairs for the jobs that completed and whose
    ``failures`` carry a structured :class:`JobFailure` per job that
    could not be salvaged.  See :func:`resilient_fan_out` for the
    retry/timeout/crash semantics.  Scenario-backed jobs honour
    ``cache_dir`` exactly as in :func:`run_simulations`.
    """
    return _simulate(
        "sweep.run_simulations_resilient",
        jobs,
        processes,
        cache_dir,
        strict=False,
        timeout_s=timeout_s,
        retries=retries,
        backoff_s=backoff_s,
        checkpoint_path=checkpoint_path,
    )
