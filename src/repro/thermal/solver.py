"""Transient integration of the compact thermal model.

Backward Euler with sparse LU factors:

``(C/dt + A(f)) T_{n+1} = (C/dt) T_n + P + b(f)``

The factorisation depends only on ``(flow signature, dt)``.  The
run-time policies quantise the flow rate to a handful of settings, so a
cache of LU factors (a :class:`~repro.thermal.bank.FactorBank`) makes
every step after the first a pair of triangular solves — this is what
makes minutes-long closed-loop simulations with 100 ms control periods
cheap.  The boundary vector
``b(f)`` depends on the same signature and is cached alongside the
factor, so a cached step performs exactly one spmv (power injection),
one triangular solve pair, and one vector add.

Every step is guarded (see :class:`~repro.thermal.diagnostics.SolverGuard`):
non-finite solutions evict the offending LU factor — a retry therefore
refactorises instead of reusing a poisoned factor — and the step is
re-attempted as ``2^k`` backward-Euler substeps at ``dt / 2^k`` with
bounded ``k`` before :class:`TransientDivergenceError` is raised.  The
health record of the last step is kept in ``last_diagnostics``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np
from scipy.sparse import diags
from scipy.sparse.linalg import splu

from .bank import BankKey, FactorBank, entry_bytes, factor_bytes
from .diagnostics import (
    FactorizationError,
    IterativeConvergenceError,
    SolverDiagnostics,
    SolverGuard,
    SolverStats,
    TransientDivergenceError,
    condition_estimate_from_factor,
    relative_residual,
    validate_finite_array,
    validate_positive_scalar,
)
from ..obs.metrics import Counter, get_registry
from ..obs.trace import get_tracer
from .field import TemperatureField
from .krylov import (
    KrylovOptions,
    KrylovSolver,
    choose_backend,
    exact_fallback_backend,
)
from .model import (
    SPLU_OPTIONS,
    BlockRef,
    CacheInfo,
    CompactThermalModel,
    FlowSignature,
    lu_cache_size,
)
from .rom import RomRejection

FactorKey = Tuple[FlowSignature, float]
"""Key of one iterative-path operator: ``(flow signature, dt)``."""

FactorEntry = Tuple[object, np.ndarray, object]
"""One cache entry: ``(LU factor, boundary rhs, system matrix)``."""

KrylovEntry = Tuple[KrylovSolver, np.ndarray]
"""One iterative-path cache entry: ``(preconditioned solver, boundary rhs)``."""

AttemptOutcome = Tuple[
    np.ndarray, bool, Optional[float], str, Optional[int], bool
]
"""One unguarded solve attempt:
``(solution, ok, residual, method, iterations, fell_back)``."""


class TransientStepper:
    """Advances a thermal model state with backward-Euler steps.

    Parameters
    ----------
    model:
        The assembled compact thermal model.
    dt:
        Time-step length [s]; typically the 100 ms sensor period.
    initial:
        Initial temperature field; the paper initialises simulations with
        steady-state values, so callers usually pass
        ``model.steady_state(...)``.
    max_cached_factors:
        Upper bound on retained LU factorisations (LRU eviction) in the
        stepper's private factor bank.  Defaults to 16, overridable
        process-wide with the ``REPRO_LU_CACHE_SIZE`` environment
        variable (an explicit argument always wins).  Ignored when the
        model's factor bank is a caller-owned byte-capped one.
    guard:
        Numerical-guard configuration; defaults to the model's.
    solver:
        Backend selection (``"auto"`` / ``"direct"`` / ``"iterative"``
        / ``"amg"`` / ``"rom"``); defaults to the model's.  The
        ``"amg"`` steady tier shares the iterative transient path (the
        ``C/dt`` shift already makes ILU-BiCGSTAB converge in a few
        iterations, so a per-``(flow, dt)`` hierarchy would be wasted
        setup).  The iterative path
        solves ``(C/dt + A(f))`` with ILU-preconditioned BiCGSTAB
        warm-started from the previous state — the dominant-diagonal
        ``C/dt`` makes these systems converge in a handful of
        iterations — and falls back to the guarded direct LU on
        non-convergence.  The ``"rom"`` path advances a certified
        reduced state (see :mod:`repro.thermal.rom`) and transparently
        falls back to the exact backend — re-synchronising the reduced
        state afterwards — whenever the error bound or trust region
        rejects a step.
    krylov:
        Iterative-path tuning; defaults to the model's.

    Notes
    -----
    The per-entry boundary vector is cached against the model's
    ``inlet_temperature``/``ambient`` at factorisation time; mutate
    those only through a fresh stepper (the closed-loop simulator never
    changes them mid-run).
    """

    def __init__(
        self,
        model: CompactThermalModel,
        dt: float,
        initial: TemperatureField,
        max_cached_factors: Optional[int] = None,
        guard: Optional[SolverGuard] = None,
        solver: Optional[str] = None,
        krylov: Optional[KrylovOptions] = None,
    ) -> None:
        dt = validate_positive_scalar(dt, "dt")
        if max_cached_factors is None:
            max_cached_factors = lu_cache_size(16)
        if max_cached_factors < 1:
            raise ValueError("cache must hold at least one factorisation")
        self.model = model
        self.dt = float(dt)
        self.guard = guard if guard is not None else model.guard
        self.state = initial.copy()
        self.time = initial.time
        self.last_diagnostics: Optional[SolverDiagnostics] = None
        self.stats = SolverStats()
        self._backend = choose_backend(
            solver if solver is not None else model.solver, model.grid.size
        )
        self.krylov_options = (
            krylov if krylov is not None else model.krylov_options
        )
        self._max_cached = max_cached_factors
        # Each bank entry holds (LU factor, boundary rhs, system matrix)
        # for one flow signature at one dt — the rhs costs as much to
        # rebuild per step as the triangular solves it accompanies, and
        # the matrix (already assembled for the factorisation) backs
        # the optional residual check.
        # A model built on a caller-owned byte-capped bank (a warm
        # service worker's) keeps its transient factors there too;
        # otherwise they live as long as this stepper.
        self._bank = (
            model.factor_bank
            if model.factor_bank.byte_capped
            else FactorBank(max_entries=max_cached_factors)
        )
        # Iterative-path twin: one ILU-preconditioned operator plus its
        # boundary rhs per (flow signature, dt).
        self._krylov: "OrderedDict[FactorKey, KrylovEntry]" = OrderedDict()
        # Per-stepper cache counters mirrored into the global registry
        # (same pattern as the model's steady-factor cache).
        self._hits = Counter("transient_cache.hits")
        self._misses = Counter("transient_cache.misses")
        registry = get_registry()
        self._g_hits = registry.counter("thermal.transient_cache.hits")
        self._g_misses = registry.counter("thermal.transient_cache.misses")
        self._c_steps = registry.counter("thermal.transient_steps")
        # Capacity/occupancy gauges (process-global rollup: with several
        # live steppers the last writer wins, which is fine for the
        # single-simulator runs these exist to observe).
        registry.gauge("thermal.transient_cache.maxsize").set(
            float(self._max_cached)
        )
        self._g_currsize = registry.gauge("thermal.transient_cache.currsize")
        self._c_rom_steps = registry.counter("rom.transient_steps")
        self._c_over_dt = model.capacitance / self.dt
        # Reduced-order transient state (backend "rom"): created lazily
        # on the first rom step and invalidated whenever an exact
        # fallback step advances the full-order state without it.
        self._reduced = None
        self._exact_backend: Optional[str] = None

    def _c_over(self, dt: float) -> np.ndarray:
        if dt == self.dt:
            return self._c_over_dt
        return self.model.capacitance / dt

    def _bank_key(self, dt: float) -> BankKey:
        model = self.model
        return (model.bank_key, "transient", model.flow_signature(), dt)

    def _factor(self, dt: Optional[float] = None) -> FactorEntry:
        dt = self.dt if dt is None else dt
        key = self._bank_key(dt)
        entry = self._bank.get(key)
        if entry is not None:
            self._hits.inc()
            self._g_hits.inc()
            return entry
        self._misses.inc()
        self._g_misses.inc()
        matrix = self.model.system_matrix() + diags(self._c_over(dt))
        self._bank.reserve(key)
        try:
            factor = splu(matrix.tocsc(), **SPLU_OPTIONS)
        except Exception as exc:
            raise FactorizationError(
                f"transient LU factorisation failed for key {key[2:]!r}: "
                f"{exc}"
            ) from exc
        entry = (factor, self.model.boundary_rhs(), matrix)
        self._bank.put(key, entry, entry_bytes(entry), source=entry[1:])
        self._g_currsize.set(float(self.cached_factor_count))
        return entry

    @property
    def backend(self) -> str:
        """The resolved backend (``"direct"``/``"iterative"``/``"rom"``)."""
        return self._backend

    def _exact(self) -> str:
        """The exact backend behind the rom tier (lazily resolved)."""
        if self._exact_backend is None:
            self._exact_backend = exact_fallback_backend(self.model.grid.size)
        return self._exact_backend

    def factor_entry(self, dt: Optional[float] = None) -> FactorEntry:
        """The cached ``(LU factor, boundary rhs, system matrix)`` entry.

        Public accessor of the direct-path cache for batched drivers
        (see :class:`repro.analysis.sweep.TransientSweep`): the factor
        solves ``(C/dt + A(f)) x = rhs`` for the model's *current* flow
        state, and SuperLU handles 2-D right-hand sides column by
        column, so many traces can share one factorisation per step.
        """
        return self._factor(dt)

    def _krylov_factor(self, dt: Optional[float] = None) -> KrylovEntry:
        """Cached ILU-preconditioned operator of ``C/dt + A(f)``."""
        dt = self.dt if dt is None else dt
        key: FactorKey = (self.model.flow_signature(), dt)
        entry = self._krylov.get(key)
        if entry is not None:
            self._krylov.move_to_end(key)
            self._hits.inc()
            self._g_hits.inc()
            return entry
        self._misses.inc()
        self._g_misses.inc()
        matrix = self.model.system_matrix() + diags(self._c_over(dt))
        solver = KrylovSolver(matrix, self.krylov_options)
        entry = (solver, self.model.boundary_rhs())
        self._krylov[key] = entry
        if len(self._krylov) > self._max_cached:
            self._krylov.popitem(last=False)
        return entry

    def _evict_krylov(self, dt: float) -> bool:
        key: FactorKey = (self.model.flow_signature(), dt)
        return self._krylov.pop(key, None) is not None

    def evict_factor(self, dt: Optional[float] = None) -> bool:
        """Drop the cached factor of the current flow state at ``dt``.

        Guarded steps call this when a factor yields non-finite or
        out-of-tolerance solutions, so the retry refactorises instead of
        reusing the poisoned factor.  Returns whether an entry existed
        (in either the direct or the iterative cache).
        """
        dt = self.dt if dt is None else dt
        dropped_lu = self._bank.pop(self._bank_key(dt))
        dropped_ilu = self._evict_krylov(dt)
        if dropped_lu:
            self._g_currsize.set(float(self.cached_factor_count))
        return dropped_lu or dropped_ilu

    @property
    def cached_factor_count(self) -> int:
        """Number of this model's transient LU factorisations in the bank."""
        return self._bank.count(self.model.bank_key, "transient")

    def cache_info(self) -> CacheInfo:
        """``lru_cache``-style statistics of the factor cache."""
        return CacheInfo(
            hits=self._hits.value,
            misses=self._misses.value,
            currsize=self.cached_factor_count,
            maxsize=self._max_cached,
        )

    def step(self, block_powers: Dict[BlockRef, float]) -> TemperatureField:
        """Advance one time step under the given block powers.

        Returns the new state (also retained as ``self.state``).
        """
        return self.step_packed(self.model.pack_powers(block_powers))

    def step_packed(self, packed_powers: np.ndarray) -> TemperatureField:
        """Advance one step from a packed per-block power array.

        The fast path for callers that already hold powers in the
        model's canonical :meth:`CompactThermalModel.block_order`: the
        nodal vector is one spmv on the precomputed injection operator.
        On the ``"rom"`` backend the step stays entirely in the reduced
        space when the certified bound and trust region admit it;
        rejected steps fall back to the exact path below, which is
        byte-for-byte the non-rom code, so fallback states are bitwise
        identical to a plain exact stepper's.
        """
        if self._backend == "rom":
            state = self._rom_step(packed_powers)
            if state is not None:
                return state
        return self.step_with_power_vector(
            self.model.power_vector_packed(packed_powers)
        )

    def _rom_step(
        self, packed_powers: np.ndarray
    ) -> Optional[TemperatureField]:
        """One certified reduced step, or ``None`` to fall back.

        The reduced stepper is synchronised from the current full-order
        state on first use and after every exact fallback step; its
        certification raises *before* the reduced state is committed,
        so a rejected step leaves both representations untouched.
        """
        model = self.model
        operator = model.injection_operator()
        if packed_powers.shape != (operator.shape[1],):
            raise ValueError(
                f"packed powers have shape {packed_powers.shape}, "
                f"expected ({operator.shape[1]},)"
            )
        validate_finite_array(
            packed_powers, "packed block powers", non_negative=True
        )
        tracer = get_tracer()
        try:
            rom = model.ensure_rom()
            flow, rate = model.rom_flow(None)
            with tracer.span("rom.solve", kind="transient"):
                if model.cooling_rhs() is not None:
                    # Moving saturation anchors sit outside the basis'
                    # calibrated (static-anchor) snapshot space.
                    raise RomRejection(
                        "two-phase-anchor",
                        "dynamic two-phase anchors moved the boundary "
                        "source outside the calibrated ROM basis",
                    )
                if model._flows and flow is None:
                    rom.check_flow(None)  # raises RomRejection, counted
                reduced = self._reduced
                if reduced is None:
                    rom.check_flow(flow if model._flows else None)
                    reduced = rom.stepper(self.dt, self.state.values)
                bound = reduced.step_packed(
                    packed_powers,
                    flow,
                    capacity_rate=rate if model._flows else None,
                )
        except RomRejection as rejection:
            self._reduced = None
            model._c_rom_fallback.inc()
            tracer.event(
                "rom.fallback", kind="transient", reason=rejection.reason
            )
            return None
        self._reduced = reduced
        self.time += self.dt
        self.state = TemperatureField(model.grid, reduced.values(), self.time)
        self._c_steps.inc()
        self._c_rom_steps.inc()
        self.last_diagnostics = SolverDiagnostics(
            kind="transient",
            residual_norm=bound,
            finite=True,
            dt=self.dt,
            dt_effective=self.dt,
            method="rom",
        )
        return self.state

    def _attempt(
        self, values: np.ndarray, power: np.ndarray, dt: float
    ) -> AttemptOutcome:
        """One unguarded backward-Euler solve; reports solution health.

        On the iterative backend this tries the warm-started Krylov
        solve first and hands the step to the direct factorisation
        when it does not converge (``fell_back=True`` in the outcome);
        the guarded retry/backoff logic above never needs to know which
        backend produced the solution.
        """
        iterations: Optional[int] = None
        fell_back = False
        backend = self._backend
        # Dynamic two-phase anchors contribute a pure rhs delta: the
        # (C/dt + A) factor caches stay valid while the saturation
        # field moves, and legacy paths never take the branch.
        cooling = self.model.cooling_rhs()
        if backend == "rom":
            # A rejected rom step lands here; it runs on whatever exact
            # backend the "auto" size rule picks for this grid.
            backend = self._exact()
        if backend in ("iterative", "amg"):
            # The C/dt shift makes transient systems strongly
            # diagonally dominant: ILU-BiCGSTAB converges in a handful
            # of iterations, so an AMG hierarchy per (flow, dt) key
            # would cost more setup than it could save.  The amg
            # backend therefore shares the iterative transient tier.
            try:
                solver, boundary = self._krylov_factor(dt)
                rhs = self._c_over(dt) * values + power + boundary
                if cooling is not None:
                    rhs = rhs + cooling
                solution, iterations = solver.solve(rhs, x0=values)
            except (FactorizationError, IterativeConvergenceError):
                self._evict_krylov(dt)
                fell_back = True
            else:
                residual: Optional[float] = None
                ok = True
                if self.guard.residual_tolerance is not None:
                    residual = relative_residual(
                        solver.matrix, solution, rhs
                    )
                    if residual > self.guard.residual_tolerance:
                        ok = False
                if ok:
                    return (
                        solution, True, residual, "bicgstab", iterations,
                        False,
                    )
                self._evict_krylov(dt)
                fell_back = True
        factor, boundary, matrix = self._factor(dt)
        rhs = self._c_over(dt) * values + power + boundary
        if cooling is not None:
            rhs = rhs + cooling
        solution = factor.solve(rhs)
        residual = None
        ok = True
        if self.guard.check_finite and not np.all(np.isfinite(solution)):
            ok = False
        if ok and self.guard.residual_tolerance is not None:
            residual = relative_residual(matrix, solution, rhs)
            if residual > self.guard.residual_tolerance:
                ok = False
        return solution, ok, residual, "direct", iterations, fell_back

    def step_with_power_vector(self, power: np.ndarray) -> TemperatureField:
        """Advance one guarded time step with a pre-built power vector."""
        tracer = get_tracer()
        # Any exact step advances the full-order state past the reduced
        # one; drop it so the next rom step re-synchronises.
        self._reduced = None
        with tracer.span("thermal.transient_step") as span:
            state = self._guarded_step(power)
            self._c_steps.inc()
            if tracer.has_sinks:
                diagnostics = self.last_diagnostics
                if diagnostics is not None:
                    span.set(
                        method=diagnostics.method,
                        retries=diagnostics.retries,
                        t=self.time,
                    )
                    if diagnostics.fallback_to_direct:
                        tracer.event(
                            "krylov.fallback",
                            kind="transient",
                            iterations=diagnostics.iterations,
                        )
            return state

    def _guarded_step(self, power: np.ndarray) -> TemperatureField:
        """The guarded solve behind :meth:`step_with_power_vector`."""
        if self.guard.check_finite:
            validate_finite_array(power, "nodal power vector")
        values, ok, residual, method, iterations, fell_back = self._attempt(
            self.state.values, power, self.dt
        )
        iteration_total = iterations or 0
        saw_iterative = iterations is not None
        evictions = 0
        retries = 0
        dt_effective = self.dt
        if not ok:
            # The factor may be poisoned (e.g. cached before a failed
            # solve): evict and retry once with a fresh factorisation.
            if self.evict_factor(self.dt):
                evictions += 1
            values, ok, residual, method, iterations, sub_fell = (
                self._attempt(self.state.values, power, self.dt)
            )
            iteration_total += iterations or 0
            saw_iterative = saw_iterative or iterations is not None
            fell_back = fell_back or sub_fell
        if not ok:
            # Bounded dt-halving backoff: 2^k substeps at dt / 2^k.
            for halvings in range(1, self.guard.max_dt_halvings + 1):
                sub_dt = self.dt / (2.0 ** halvings)
                current = self.state.values
                diverged = False
                for _ in range(2 ** halvings):
                    current, sub_ok, residual, method, iterations, sub_fell = (
                        self._attempt(current, power, sub_dt)
                    )
                    iteration_total += iterations or 0
                    saw_iterative = saw_iterative or iterations is not None
                    fell_back = fell_back or sub_fell
                    if not sub_ok:
                        if self.evict_factor(sub_dt):
                            evictions += 1
                        diverged = True
                        break
                if not diverged:
                    values = current
                    ok = True
                    retries = halvings
                    dt_effective = sub_dt
                    break
        if not ok:
            factor, _, _ = self._factor(self.dt)
            diagnostics = SolverDiagnostics(
                kind="transient",
                residual_norm=residual,
                finite=bool(np.all(np.isfinite(values))),
                condition_estimate=condition_estimate_from_factor(factor),
                dt=self.dt,
                dt_effective=self.dt / (2.0 ** self.guard.max_dt_halvings),
                retries=self.guard.max_dt_halvings,
                factor_evictions=evictions,
                method=method,
                iterations=iteration_total if saw_iterative else None,
                fallback_to_direct=fell_back,
            )
            self.last_diagnostics = diagnostics
            raise TransientDivergenceError(
                f"transient step at t={self.time:.3f}s diverged and the "
                f"dt backoff was exhausted after "
                f"{self.guard.max_dt_halvings} halvings",
                diagnostics,
            )
        self.time += self.dt
        self.state = TemperatureField(self.model.grid, values, self.time)
        if method == "direct" and (
            retries or evictions or self.guard.residual_tolerance is not None
        ):
            # Only when a direct factor produced the solution: computing
            # the estimate on the iterative path would force exactly the
            # LU factorisation the backend exists to avoid.
            condition = condition_estimate_from_factor(
                self._factor(dt_effective)[0]
            )
        else:
            condition = None
        diagnostics = SolverDiagnostics(
            kind="transient",
            residual_norm=residual,
            finite=True,
            condition_estimate=condition,
            dt=self.dt,
            dt_effective=dt_effective,
            retries=retries,
            factor_evictions=evictions,
            method=method,
            iterations=iteration_total if saw_iterative else None,
            fallback_to_direct=fell_back,
        )
        self.last_diagnostics = diagnostics
        self.stats.record(diagnostics)
        return self.state

    def run(
        self,
        block_powers: Dict[BlockRef, float],
        duration: float,
    ) -> TemperatureField:
        """Advance multiple steps under constant power (convenience)."""
        if duration < 0.0:
            raise ValueError("duration must be non-negative")
        steps = int(round(duration / self.dt))
        if self._backend == "rom":
            packed = self.model.pack_powers(block_powers)
            for _ in range(steps):
                self.step_packed(packed)
            return self.state
        power = self.model.power_vector(block_powers)
        for _ in range(steps):
            self.step_with_power_vector(power)
        return self.state


def rebuild_bank_entry(key: BankKey, source: object) -> Tuple[object, int]:
    """Recompute a bank entry (and its size) from its recorded source.

    The builder :meth:`FactorBank.adopt` needs: the same matrix under
    the same SuperLU options gives bit for bit the factor the recording
    job computed.  Steady sources are the factorised CSC matrix,
    transient ones the entry minus its factor: ``(boundary rhs,
    system matrix)``.
    """
    if key[1] == "steady":
        factor = splu(source, **SPLU_OPTIONS)
        return factor, factor_bytes(factor)
    boundary, matrix = source
    entry = (splu(matrix.tocsc(), **SPLU_OPTIONS), boundary, matrix)
    return entry, entry_bytes(entry)
