"""Reusable sweep engine for design-space and policy studies.

Three layers, from cheapest to heaviest:

* :class:`SteadySweep` — batched steady-state solves over one thermal
  model.  Cases are grouped by flow state so each distinct ``A(f)`` is
  factorised once (through the model's steady-factor cache) and solved
  with one multi-right-hand-side triangular solve.  SuperLU processes
  the RHS columns independently, so the fields are bitwise identical
  to point-by-point :meth:`CompactThermalModel.steady_state` calls.
* :class:`TransientSweep` — batched backward-Euler stepping of many
  power traces against one thermal model.  All traces share the flow
  state and dt, so every step is one cached factorisation lookup, one
  batched power injection and one multi-right-hand-side triangular
  solve; the trajectories are bitwise identical to per-trace
  :meth:`~repro.thermal.solver.TransientStepper.step_packed` loops.
* :func:`fan_out` — map a function over independent design points,
  serially by default or across a ``concurrent.futures`` process pool.
* :class:`SimulationJob` / :func:`run_simulations` — closed-loop
  :class:`~repro.core.simulator.SystemSimulator` runs as picklable
  jobs, fanned out with the same helper.  Every (stack, policy,
  workload) combination is independent, which is what makes the
  benchmark grids embarrassingly parallel.  A job is either a bundle
  of live objects (legacy) or a declarative
  :class:`~repro.scenario.Scenario` — every fan-out below accepts
  scenarios (or bare :class:`Scenario` instances) directly, and
  scenario-backed jobs can be served from the hash-keyed on-disk
  result cache (``cache_dir=...``) so repeated sweep points are never
  recomputed.

Process pools pay a fork + pickle cost per job, so they only win when
each job runs for seconds (closed-loop simulations, fine-grid steady
maps) — the benchmark harness keeps them opt-in via
``REPRO_BENCH_PROCESSES``.  :func:`run_simulations_shared` removes
most of that tax: job components are deduplicated into one
:class:`SharedSweepPayload` that workers share zero-copy (fork
inheritance, with a ``multiprocessing.shared_memory`` fallback for
spawn platforms), and each worker reuses one cached thermal model per
stack instead of assembling per job.
"""

from __future__ import annotations

import multiprocessing
import pickle
import random as _random
import struct
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
from ..core.simulator import (
    DEFAULT_NX,
    DEFAULT_NY,
    SimulationResult,
    SystemSimulator,
)
from ..geometry.stack import StackDesign
from ..obs import capture_telemetry, is_obs_payload
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from ..scenario.cache import ResultCache
from ..scenario.runner import Runner, build_model, build_simulator
from ..scenario.spec import Scenario
from ..thermal.diagnostics import (
    SolverGuard,
    validate_finite_array,
    validate_positive_scalar,
)
from ..thermal.field import TemperatureField
from ..thermal.model import BlockRef, CompactThermalModel
from ..thermal.solver import TransientStepper
from ..workload.traces import WorkloadTrace

T = TypeVar("T")
R = TypeVar("R")


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
    """Batched steady solves against one :class:`CompactThermalModel`.

    Parameters
    ----------
    model:
        The model to sweep.  Its steady-factor cache is shared, so
        interleaving sweeps with individual ``steady_state`` calls
        never refactorises needlessly.
    """

    def __init__(self, model: CompactThermalModel) -> None:
        self.model = model

    def solve(self, cases: Sequence[SteadyCase]) -> List[TemperatureField]:
        """Solve all cases, returned in input order.

        Cases are grouped by flow override; each group is one
        factorisation (cached) plus one multi-RHS solve.
        """
        groups: Dict[object, List[int]] = {}
        for index, case in enumerate(cases):
            key = (
                None
                if case.flow_ml_min is None
                else round(float(case.flow_ml_min), 6)
            )
            groups.setdefault(key, []).append(index)

        results: List[Optional[TemperatureField]] = [None] * len(cases)
        for key, indices in groups.items():
            flow = None if key is None else cases[indices[0]].flow_ml_min
            factor = self.model.steady_factor(flow)
            boundary = self.model.boundary_rhs(flow)
            rhs = np.empty((self.model.grid.size, len(indices)))
            for column, index in enumerate(indices):
                rhs[:, column] = (
                    self.model.power_vector(dict(cases[index].block_powers))
                    + boundary
                )
            solution = factor.solve(rhs)
            for column, index in enumerate(indices):
                results[index] = TemperatureField(
                    self.model.grid, np.ascontiguousarray(solution[:, column])
                )
        assert all(field_ is not None for field_ in results)
        return results  # type: ignore[return-value]

    def peak_temperatures(self, cases: Sequence[SteadyCase]) -> np.ndarray:
        """Stack peak temperature per case [K] (convenience)."""
        return np.array([field_.max() for field_ in self.solve(cases)])


@dataclass
class TransientSweepResult:
    """Outcome of one batched transient sweep.

    Attributes
    ----------
    fields:
        Final temperature field per trace, in input order.
    peak_k:
        ``(steps, traces)`` stack peak temperature per step [K].
    steps:
        Number of backward-Euler steps taken.
    """

    fields: List[TemperatureField]
    peak_k: np.ndarray
    steps: int


class TransientSweep:
    """Batched transient stepping of many power traces on one model.

    Workload studies repeatedly integrate the *same* stack under many
    power schedules — different benchmarks, phase shifts, or
    what-if scalings.  Stepping each trace through its own
    :class:`~repro.thermal.solver.TransientStepper` repeats the
    factorisation lookup, the power injection spmv and the pair of
    triangular solves per trace per step.  This driver keeps all trace
    states in one ``(nodes, traces)`` matrix so every step costs one
    cached factorisation lookup, one batched injection
    (``operator @ powers.T``) and one multi-right-hand-side
    ``factor.solve``.

    SuperLU processes right-hand-side columns independently and the
    CSR-times-dense product accumulates each column exactly like the
    single-vector spmv, so the trajectories are **bitwise identical**
    to per-trace sequential stepping (asserted by the test suite).

    All traces share the model's current flow state and the step
    length — that is what makes one factorisation serve every column.
    Callers that sweep flow as well should group traces by flow setting
    (compare :class:`SteadySweep`).

    Guard behaviour: packed powers are validated up front; if a batched
    step produces non-finite entries, the shared factor is evicted and
    the offending columns are re-stepped individually through a guarded
    :class:`~repro.thermal.solver.TransientStepper` (eviction, retry,
    dt-halving backoff), so a single diverging trace cannot poison its
    siblings.

    Parameters
    ----------
    model:
        The assembled thermal model (shared by every trace).
    dt:
        Backward-Euler step length [s].
    guard:
        Numerical-guard configuration; defaults to the model's.
    max_cached_factors:
        LRU bound of the underlying factor cache.
    """

    def __init__(
        self,
        model: CompactThermalModel,
        dt: float,
        *,
        guard: Optional[SolverGuard] = None,
        max_cached_factors: int = 16,
    ) -> None:
        self.model = model
        self.dt = validate_positive_scalar(dt, "dt")
        self.guard = guard if guard is not None else model.guard
        # The internal stepper exists for its factor cache: it builds
        # (C/dt + A(f)) with exactly the same SPLU options and cached
        # boundary vector as sequential stepping, which is what makes
        # the bitwise-identity guarantee hold.
        self._stepper = TransientStepper(
            model,
            self.dt,
            TemperatureField(model.grid, np.zeros(model.grid.size)),
            max_cached_factors=max_cached_factors,
            guard=self.guard,
            solver="direct",
        )

    def cache_info(self):
        """Factor-cache statistics of the shared stepper."""
        return self._stepper.cache_info()

    def _initial_states(
        self,
        initial,
        n_traces: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Build the ``(nodes, traces)`` state matrix and start times."""
        if isinstance(initial, TemperatureField):
            fields = [initial] * n_traces
        else:
            fields = list(initial)
            if len(fields) != n_traces:
                raise ValueError(
                    f"{len(fields)} initial fields for {n_traces} traces"
                )
        states = np.empty((self.model.grid.size, n_traces))
        times = np.empty(n_traces)
        for column, field_ in enumerate(fields):
            if field_.values.shape != (self.model.grid.size,):
                raise ValueError("initial field does not match the grid")
            states[:, column] = field_.values
            times[column] = field_.time
        return states, times

    def _recover_step(
        self,
        states: np.ndarray,
        nodal: np.ndarray,
        solution: np.ndarray,
        times: np.ndarray,
    ) -> np.ndarray:
        """Re-step non-finite columns through guarded sequential solves.

        The shared factor may be poisoned: evict it so both the
        per-column retries and the next batched step refactorise.
        Raises :class:`~repro.thermal.diagnostics.TransientDivergenceError`
        if a column cannot be salvaged even by the dt backoff.
        """
        self._stepper.evict_factor()
        bad = np.flatnonzero(~np.all(np.isfinite(solution), axis=0))
        for column in bad:
            scratch = TransientStepper(
                self.model,
                self.dt,
                TemperatureField(
                    self.model.grid,
                    states[:, column].copy(),
                    float(times[column]),
                ),
                guard=self.guard,
                solver="direct",
            )
            scratch.step_with_power_vector(
                np.ascontiguousarray(nodal[:, column])
            )
            solution[:, column] = scratch.state.values
        return solution

    def run(
        self,
        packed_traces: Sequence[np.ndarray],
        initial,
    ) -> TransientSweepResult:
        """Integrate every trace over its full length.

        Parameters
        ----------
        packed_traces:
            One ``(steps, n_blocks)`` power array per trace in the
            model's canonical :meth:`CompactThermalModel.block_order`
            (see :meth:`CompactThermalModel.pack_powers`).  All traces
            must be equally long.
        initial:
            A single :class:`TemperatureField` shared by every trace,
            or one field per trace.

        Returns
        -------
        TransientSweepResult
            Final fields (input order) plus the per-step peak
            temperature of every trace.
        """
        operator = self.model.injection_operator()
        n_blocks = operator.shape[1]
        traces = [np.asarray(trace, dtype=float) for trace in packed_traces]
        if not traces:
            raise ValueError("need at least one power trace")
        steps = traces[0].shape[0]
        for index, trace in enumerate(traces):
            if trace.ndim != 2 or trace.shape != (steps, n_blocks):
                raise ValueError(
                    f"trace {index} has shape {trace.shape}; every trace "
                    f"must be ({steps}, {n_blocks})"
                )
            if self.guard.check_finite:
                validate_finite_array(
                    trace, f"packed trace {index}", non_negative=True
                )

        states, times = self._initial_states(initial, len(traces))
        c_over_dt = self.model.capacitance / self.dt
        peak_k = np.empty((steps, len(traces)))
        # (traces, steps, blocks) so one step slices to (traces, blocks).
        powers = np.stack(traces)
        for step in range(steps):
            factor, boundary, _ = self._stepper.factor_entry()
            nodal = operator @ np.ascontiguousarray(powers[:, step, :].T)
            rhs = c_over_dt[:, None] * states + nodal + boundary[:, None]
            solution = factor.solve(rhs)
            if self.guard.check_finite and not np.all(np.isfinite(solution)):
                solution = self._recover_step(states, nodal, solution, times)
            states = solution
            times = times + self.dt
            peak_k[step] = states.max(axis=0)
        fields = [
            TemperatureField(
                self.model.grid,
                np.ascontiguousarray(states[:, column]),
                float(times[column]),
            )
            for column in range(len(traces))
        ]
        return TransientSweepResult(fields=fields, peak_k=peak_k, steps=steps)


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
    toggle parallelism without touching downstream code.
    """
    work = list(items)
    if processes is None or processes <= 1:
        return [fn(item) for item in work]
    with ProcessPoolExecutor(max_workers=processes) as pool:
        return list(pool.map(fn, work))


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

    Returns ``(job.key, result)`` pairs in job order.
    """
    jobs = _coerce_jobs(jobs)
    tracer = get_tracer()
    capture = _should_capture(tracer, processes)
    runner = partial(
        _run_simulation_job,
        cache_dir=None if cache_dir is None else str(cache_dir),
        capture=capture,
    )
    with tracer.span(
        "sweep.run_simulations", jobs=len(jobs), processes=processes or 1
    ):
        results = fan_out(runner, jobs, processes)
        return [
            (job.key, _merge_worker_value(tracer, job.key, result))
            for job, result in zip(jobs, results)
        ]


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


# ---------------------------------------------------------------------------
# zero-copy fan-out
# ---------------------------------------------------------------------------


@dataclass
class SharedSweepPayload:
    """Deduplicated design-space inputs shared by every worker.

    A benchmark grid crosses a handful of stacks, policies and traces
    into hundreds of jobs; pickling each :class:`SimulationJob`
    re-serialises the same objects per job.  The payload stores each
    distinct object once, and jobs shrink to index triples
    (:class:`SharedJobRef`).
    """

    stacks: List[StackDesign]
    policies: List[Policy]
    traces: List[WorkloadTrace]
    kwargs: List[Dict[str, object]]
    scenarios: List[Scenario] = field(default_factory=list)


@dataclass(frozen=True)
class SharedJobRef:
    """Tiny picklable handle of one simulation job.

    Either payload indices into stacks/policies/traces/kwargs (legacy
    object jobs) or a ``scenario`` index; ``model_key`` names the
    worker-side thermal-model cache entry the job may reuse.
    """

    stack: int = -1
    policy: int = -1
    trace: int = -1
    kwargs: int = -1
    scenario: Optional[int] = None
    model_key: str = ""


# Worker-side shared state.  On fork platforms the parent installs the
# payload (and pre-assembled models) *before* the pool exists, so every
# worker inherits them through copy-on-write pages — zero per-job or
# per-worker serialisation.  On spawn platforms the pool initializer
# reads one pickled copy of the payload out of a
# ``multiprocessing.shared_memory`` segment; models are then assembled
# once per worker and cached across that worker's jobs.
_shared_payload: Optional[SharedSweepPayload] = None
_shared_models: Dict[str, CompactThermalModel] = {}


def _install_shared_payload(payload: SharedSweepPayload) -> None:
    global _shared_payload
    _shared_payload = payload
    _shared_models.clear()


def _clear_shared_payload() -> None:
    global _shared_payload
    _shared_payload = None
    _shared_models.clear()


def _install_payload_from_shm(name: str) -> None:
    """Spawn-pool initializer: unpickle the payload from shared memory."""
    from multiprocessing import shared_memory

    segment = shared_memory.SharedMemory(name=name)
    try:
        (size,) = struct.unpack_from("<Q", segment.buf, 0)
        payload = pickle.loads(bytes(segment.buf[8 : 8 + size]))
    finally:
        segment.close()
    _install_shared_payload(payload)


def _resolve_shared_simulator(
    ref: SharedJobRef, cache_dir: Optional[str] = None
) -> SystemSimulator:
    """Build one job's simulator from the shared payload + model cache."""
    payload = _shared_payload
    if payload is None:
        raise RuntimeError(
            "no shared sweep payload installed in this process; "
            "use run_simulations_shared()"
        )
    key = ref.model_key
    model = _shared_models.get(key)
    if ref.scenario is not None:
        rom_store = None
        if model is None and cache_dir is not None:
            # A spawn worker building its own "rom" model can at least
            # load the serialized basis instead of re-running the
            # offline build (fork workers inherit it via COW pages).
            from ..thermal.rom import RomStore

            rom_store = RomStore(cache_dir)
        simulator = build_simulator(
            payload.scenarios[ref.scenario], model=model, rom_store=rom_store
        )
    else:
        simulator = SystemSimulator(
            payload.stacks[ref.stack],
            payload.policies[ref.policy],
            payload.traces[ref.trace],
            model=model,
            **dict(payload.kwargs[ref.kwargs]),
        )
    _shared_models[key] = simulator.model
    return simulator


def _run_shared_job(
    ref: SharedJobRef,
    cache_dir: Optional[str] = None,
    capture: bool = False,
) -> object:
    start = _time.perf_counter()
    try:
        if capture:
            telemetry: Dict[str, object] = {}
            with capture_telemetry(telemetry):
                result = _run_shared_job_inner(ref, cache_dir)
            return result, telemetry
        return _run_shared_job_inner(ref, cache_dir)
    except BaseException as exc:
        _annotate_job_exception(exc, start)
        raise


def _run_shared_job_inner(
    ref: SharedJobRef, cache_dir: Optional[str]
) -> SimulationResult:
    if ref.scenario is not None and cache_dir is not None:
        payload = _shared_payload
        if payload is None:
            raise RuntimeError(
                "no shared sweep payload installed in this process; "
                "use run_simulations_shared()"
            )
        scenario = payload.scenarios[ref.scenario]
        cache = ResultCache(cache_dir)
        cached = cache.get(scenario)
        if cached is not None:
            return cached
        result = _resolve_shared_simulator(ref, cache_dir).run()
        cache.put(scenario, result)
        return result
    return _resolve_shared_simulator(ref, cache_dir).run()


def _build_shared_payload(
    jobs: Sequence[SimulationJob],
) -> Tuple[SharedSweepPayload, List[SharedJobRef]]:
    """Dedupe job components (by identity) into a payload + refs."""
    payload = SharedSweepPayload(
        stacks=[], policies=[], traces=[], kwargs=[]
    )

    def intern(seen: Dict[int, int], pool: List, obj: object) -> int:
        index = seen.get(id(obj))
        if index is None:
            index = len(pool)
            seen[id(obj)] = index
            pool.append(obj)
        return index

    seen_stacks: Dict[int, int] = {}
    seen_policies: Dict[int, int] = {}
    seen_traces: Dict[int, int] = {}
    seen_kwargs: Dict[object, int] = {}
    seen_scenarios: Dict[str, int] = {}
    refs: List[SharedJobRef] = []
    for job in jobs:
        if job.scenario is not None:
            content = job.scenario.content_hash()
            scenario_index = seen_scenarios.get(content)
            if scenario_index is None:
                scenario_index = len(payload.scenarios)
                seen_scenarios[content] = scenario_index
                payload.scenarios.append(job.scenario)
            refs.append(
                SharedJobRef(
                    scenario=scenario_index,
                    model_key=job.scenario.model_hash(),
                )
            )
            continue
        try:
            kwargs_key: object = tuple(sorted(job.kwargs.items()))
        except TypeError:
            kwargs_key = id(job.kwargs)
        kwargs_index = seen_kwargs.get(kwargs_key)
        if kwargs_index is None:
            kwargs_index = len(payload.kwargs)
            seen_kwargs[kwargs_key] = kwargs_index
            payload.kwargs.append(dict(job.kwargs))
        stack_index = intern(seen_stacks, payload.stacks, job.stack)
        nx = int(job.kwargs.get("nx", DEFAULT_NX))
        ny = int(job.kwargs.get("ny", DEFAULT_NY))
        refs.append(
            SharedJobRef(
                stack=stack_index,
                policy=intern(seen_policies, payload.policies, job.policy),
                trace=intern(seen_traces, payload.traces, job.trace),
                kwargs=kwargs_index,
                model_key=f"stack{stack_index}:{nx}x{ny}",
            )
        )
    return payload, refs


def _prewarm_shared_models(
    payload: SharedSweepPayload,
    refs: Sequence[SharedJobRef],
    cache_dir: Optional[str] = None,
) -> None:
    """Assemble one model per distinct (stack, grid) before forking.

    Fork workers then inherit the assembled conductance/advection
    matrices, injection operators and the warm steady factor through
    copy-on-write pages instead of re-assembling per worker.  For
    ``"rom"`` scenarios the reduced basis is built (or loaded from the
    cache directory) here too, so every worker shares one set of
    projected operators zero-copy instead of paying the offline build
    per process.
    """
    rom_store = None
    if cache_dir is not None:
        from ..thermal.rom import RomStore

        rom_store = RomStore(cache_dir)
    for ref in refs:
        if ref.model_key in _shared_models:
            continue
        if ref.scenario is not None:
            model = build_model(
                payload.scenarios[ref.scenario], rom_store=rom_store
            )
        else:
            kwargs = payload.kwargs[ref.kwargs]
            model = CompactThermalModel(
                payload.stacks[ref.stack],
                nx=int(kwargs.get("nx", DEFAULT_NX)),
                ny=int(kwargs.get("ny", DEFAULT_NY)),
            )
        model.injection_operator()
        backend = model.steady_backend()
        if backend == "rom":
            model.ensure_rom()
        elif backend == "direct":
            model.steady_factor(None)
        elif backend == "amg":
            model.steady_amg_solver(None)
        elif backend == "iterative":
            model.steady_krylov_solver(None)
        _shared_models[ref.model_key] = model


def run_simulations_shared(
    jobs: Sequence[JobLike],
    processes: Optional[int] = None,
    *,
    start_method: Optional[str] = None,
    cache_dir: Optional[Union[str, Path]] = None,
) -> List[Tuple[object, SimulationResult]]:
    """:func:`run_simulations` without the per-job serialisation tax.

    Plain :func:`run_simulations` pickles every job's stack, policy and
    trace into each worker and assembles a fresh thermal model per job
    — for short traces that setup dwarfs the simulation itself.  This
    driver dedupes the design-space objects into one
    :class:`SharedSweepPayload` shared across workers (fork
    inheritance where available, one pickled copy in
    ``multiprocessing.shared_memory`` on spawn platforms), sends only
    index triples per job, and reuses one cached thermal model per
    distinct (stack, grid resolution) within each worker.

    Results are identical to :func:`run_simulations`: model reuse only
    resets the flow state and keeps signature-keyed factor caches warm,
    and every simulation remains deterministic — asserted across fork
    and spawn by the test suite.

    Parameters
    ----------
    jobs:
        The simulation jobs (same objects as :func:`run_simulations`;
        bare :class:`~repro.scenario.Scenario` specs are accepted too).
    processes:
        ``None``, 0 or 1 run serially in-process (still reusing cached
        models across jobs); larger values fan out across a pool.
    start_method:
        Force ``"fork"`` or ``"spawn"`` (default: the platform's).
    cache_dir:
        Optional on-disk result-cache root for scenario-backed jobs
        (see :func:`run_simulations`).

    Returns ``(job.key, result)`` pairs in job order.
    """
    jobs = _coerce_jobs(jobs)
    tracer = get_tracer()
    capture = _should_capture(tracer, processes)
    run_job = partial(
        _run_shared_job,
        cache_dir=None if cache_dir is None else str(cache_dir),
        capture=capture,
    )
    payload, refs = _build_shared_payload(jobs)
    with tracer.span(
        "sweep.run_simulations_shared",
        jobs=len(jobs),
        processes=processes or 1,
    ):
        if processes is None or processes <= 1:
            _install_shared_payload(payload)
            try:
                results = [run_job(ref) for ref in refs]
            finally:
                _clear_shared_payload()
            return [
                (job.key, result) for job, result in zip(jobs, results)
            ]

        context = multiprocessing.get_context(start_method)
        if context.get_start_method() == "fork":
            _install_shared_payload(payload)
            try:
                _prewarm_shared_models(
                    payload,
                    refs,
                    None if cache_dir is None else str(cache_dir),
                )
                with ProcessPoolExecutor(
                    max_workers=processes, mp_context=context
                ) as pool:
                    results = list(pool.map(run_job, refs))
            finally:
                _clear_shared_payload()
        else:
            from multiprocessing import shared_memory

            blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            segment = shared_memory.SharedMemory(
                create=True, size=len(blob) + 8
            )
            try:
                struct.pack_into("<Q", segment.buf, 0, len(blob))
                segment.buf[8 : 8 + len(blob)] = blob
                with ProcessPoolExecutor(
                    max_workers=processes,
                    mp_context=context,
                    initializer=_install_payload_from_shm,
                    initargs=(segment.name,),
                ) as pool:
                    results = list(pool.map(run_job, refs))
            finally:
                segment.close()
                try:
                    segment.unlink()
                except FileNotFoundError:
                    pass
        return [
            (job.key, _merge_worker_value(tracer, job.key, result))
            for job, result in zip(jobs, results)
        ]


# ---------------------------------------------------------------------------
# resilient fan-out
# ---------------------------------------------------------------------------


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
) -> Tuple[
    Dict[int, R],
    Dict[int, BaseException],
    set,
    bool,
    set,
    Dict[int, float],
]:
    """Run one process-pool lifetime over the given job indices.

    Returns ``(successes, errors, timed_out, crashed, unfinished,
    elapsed)``.  ``unfinished`` jobs were aborted through no fault of
    their own (pool crash or a sibling's timeout tearing the pool down)
    and must be re-run without an attempt penalty.  ``elapsed`` maps
    every index that left the pool (success, error, crash or timeout)
    to the seconds between submission and that outcome — an upper bound
    on run time that failure records fall back to when the worker could
    not measure its own.
    """
    successes: Dict[int, R] = {}
    errors: Dict[int, BaseException] = {}
    timed_out: set = set()
    crashed = False
    unfinished = set(indices)
    elapsed: Dict[int, float] = {}
    pool = ProcessPoolExecutor(max_workers=processes)
    must_kill = False
    try:
        submitted = _time.monotonic()
        outstanding: Dict[Future, int] = {
            pool.submit(fn, work[i]): i for i in indices
        }
        deadline = (
            None
            if timeout_s is None
            else {f: submitted + timeout_s for f in outstanding}
        )
        while outstanding:
            done, _ = wait(
                set(outstanding),
                timeout=None if deadline is None else 0.05,
                return_when=FIRST_COMPLETED,
            )
            for future in done:
                index = outstanding.pop(future)
                elapsed[index] = _time.monotonic() - submitted
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
            if deadline is not None:
                now = _time.monotonic()
                overdue = [f for f in outstanding if now >= deadline[f]]
                if overdue:
                    for future in overdue:
                        index = outstanding.pop(future)
                        elapsed[index] = now - submitted
                        timed_out.add(index)
                        unfinished.discard(index)
                    # A hung worker never frees its slot: tear the pool
                    # down; still-running innocents land in `unfinished`
                    # and are resubmitted penalty-free.
                    must_kill = True
                    break
    finally:
        if must_kill or crashed:
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
    path: Optional[Path], total: int
) -> Dict[int, object]:
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
    if payload.get("total") != total:
        return {}
    return dict(payload.get("results", {}))


def _save_checkpoint(
    path: Optional[Path], results: Dict[int, object], total: int
) -> None:
    if path is None:
        return
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(
        pickle.dumps({"results": dict(results), "total": total})
    )
    tmp.replace(path)


def resilient_fan_out(
    fn: Callable[[T], R],
    items: Iterable[T],
    processes: Optional[int] = None,
    *,
    keys: Optional[Sequence[object]] = None,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    backoff_s: float = 0.0,
    backoff_jitter: float = 0.25,
    checkpoint_path: Optional[Path] = None,
    checkpoint_every: int = 8,
) -> SweepOutcome:
    """Fan out with per-job isolation: one bad job cannot sink the grid.

    Guarantees, relative to plain :func:`fan_out`:

    * a job that **raises** is retried ``retries`` times with
      exponential backoff spread by ``backoff_jitter`` (a ±fraction of
      the delay, so simultaneous failures do not retry in lockstep;
      set it to ``0.0`` for deterministic timing), then recorded as a
      :class:`JobFailure` while every sibling still completes;
    * a job that **kills its worker** (segfault, OOM, ``os._exit``)
      breaks the pool — the pool is rebuilt, survivors are resubmitted
      penalty-free, and after a second crash jobs run one-at-a-time so
      the culprit is identified and isolated before batch mode resumes;
    * a job that **hangs** past ``timeout_s`` is recorded as a timeout
      failure (after its retries) instead of stalling the sweep —
      process mode only, a serial run cannot pre-empt the job;
    * with ``checkpoint_path`` the completed results are periodically
      pickled, and a re-run with the same path and job count resumes,
      re-running only unfinished or previously failed jobs.  The
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
    if retries < 0:
        raise ValueError("retries must be non-negative")
    max_attempts = retries + 1

    results: Dict[int, object] = _load_checkpoint(checkpoint_path, len(work))
    failures: Dict[int, JobFailure] = {}
    attempts = {i: 0 for i in range(len(work))}
    unsaved = 0

    def note_success(index: int, value: object) -> None:
        nonlocal unsaved
        results[index] = value
        unsaved += 1
        if checkpoint_path is not None and unsaved >= checkpoint_every:
            _save_checkpoint(checkpoint_path, results, len(work))
            unsaved = 0

    def note_failure(
        index: int,
        phase: str,
        error_type: str,
        message: str,
        tb: str = "",
        exc: Optional[BaseException] = None,
        elapsed: Optional[float] = None,
    ) -> None:
        elapsed_s = (
            getattr(exc, "_obs_elapsed_s", None) if exc is not None else None
        )
        if elapsed_s is None:
            elapsed_s = elapsed
        failures[index] = JobFailure(
            index=index,
            key=key_list[index],
            phase=phase,
            error_type=error_type,
            message=message,
            traceback=tb,
            attempts=attempts[index],
            elapsed_s=elapsed_s,
            retry_index=max(0, attempts[index] - 1),
            last_span=(
                getattr(exc, "_obs_last_span", "") or ""
                if exc is not None
                else ""
            ),
        )

    def backoff(attempt: int) -> None:
        delay = jittered_delay(backoff_s, attempt, jitter=backoff_jitter)
        if delay > 0.0:
            _time.sleep(delay)

    pending = [i for i in range(len(work)) if i not in results]

    try:
        if processes is None or processes <= 1:
            for index in pending:
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
                                type(exc).__name__,
                                str(exc),
                                _render_traceback(exc),
                                exc=exc,
                                elapsed=_time.perf_counter() - attempt_start,
                            )
                            break
                        backoff(attempts[index])
        else:
            crashes = 0
            while pending:
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
                    fn, work, batch, 1 if isolate else processes, timeout_s
                )
                for index, value in successes.items():
                    note_success(index, value)
                retry_needed = False
                for index, exc in errors.items():
                    if attempts[index] >= max_attempts:
                        note_failure(
                            index,
                            "exception",
                            type(exc).__name__,
                            str(exc),
                            _render_traceback(exc),
                            exc=exc,
                            elapsed=elapsed.get(index),
                        )
                    else:
                        retry_needed = True
                for index in timed_out:
                    if attempts[index] >= max_attempts:
                        note_failure(
                            index,
                            "timeout",
                            "TimeoutError",
                            f"job exceeded the {timeout_s} s deadline",
                            elapsed=elapsed.get(index, timeout_s),
                        )
                    else:
                        retry_needed = True
                if crashed:
                    crashes += 1
                    if isolate:
                        # One job per pool: the crash is attributable.
                        index = batch[0]
                        if attempts[index] >= max_attempts:
                            note_failure(
                                index,
                                "worker-crash",
                                "BrokenProcessPool",
                                "the worker process died while running "
                                "this job",
                                elapsed=elapsed.get(index),
                            )
                            # Culprit isolated; batch mode can resume.
                            crashes = 0
                        unfinished.discard(index)
                else:
                    # Jobs aborted by a sibling's timeout keep their
                    # attempt; give it back (they did not run to failure).
                    for index in unfinished:
                        attempts[index] -= 1
                if crashed and not isolate:
                    # Unattributable crash: nobody is penalised, rerun all.
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
        _save_checkpoint(checkpoint_path, results, len(work))
    return SweepOutcome(
        results=[
            (key_list[i], results[i]) for i in sorted(results)
        ],
        failures=[failures[i] for i in sorted(failures)],
        total=len(work),
    )


def run_simulations_resilient(
    jobs: Sequence[JobLike],
    processes: Optional[int] = None,
    *,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    backoff_s: float = 0.0,
    backoff_jitter: float = 0.25,
    checkpoint_path: Optional[Path] = None,
    checkpoint_every: int = 8,
    cache_dir: Optional[Union[str, Path]] = None,
) -> SweepOutcome:
    """Resilient :func:`run_simulations`: partial results, not aborts.

    Where :func:`run_simulations` re-raises the first worker exception
    and loses the whole grid, this returns a :class:`SweepOutcome`
    whose ``results`` are ``(job.key, SimulationResult)`` pairs for the
    jobs that completed and whose ``failures`` carry a structured
    :class:`JobFailure` per job that could not be salvaged.  See
    :func:`resilient_fan_out` for the retry/timeout/crash semantics.
    Scenario-backed jobs honour ``cache_dir`` exactly as in
    :func:`run_simulations`.
    """
    jobs = _coerce_jobs(jobs)
    tracer = get_tracer()
    capture = _should_capture(tracer, processes)
    with tracer.span(
        "sweep.run_simulations_resilient",
        jobs=len(jobs),
        processes=processes or 1,
    ):
        outcome = resilient_fan_out(
            partial(
                _run_simulation_job,
                cache_dir=None if cache_dir is None else str(cache_dir),
                capture=capture,
            ),
            jobs,
            processes,
            keys=[job.key for job in jobs],
            timeout_s=timeout_s,
            retries=retries,
            backoff_s=backoff_s,
            backoff_jitter=backoff_jitter,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
        )
        # Unwrap unconditionally: resumed checkpoints may hold capture
        # tuples from an earlier traced run even when capture is off.
        outcome.results = [
            (key, _merge_worker_value(tracer, key, value))
            for key, value in outcome.results
        ]
        return outcome
