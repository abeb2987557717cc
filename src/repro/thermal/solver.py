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

Large grids (the ``"amg"`` tier) solve with an AMG-preconditioned
BiCGSTAB operator of the same matrix, cached beside the LU factors
and warm-started from the current state; a solve that fails there is
handed to the direct LU (see :mod:`repro.thermal.exact`, shared with
the steady solves).

Every step is guarded (see :class:`~repro.thermal.diagnostics.SolverGuard`):
non-finite solutions evict the offending LU factor — a retry therefore
refactorises instead of reusing a poisoned factor — and the step is
re-attempted as ``2^k`` backward-Euler substeps at ``dt / 2^k`` with
bounded ``k`` before :class:`TransientDivergenceError` is raised.  The
health record of the last step is kept in ``last_diagnostics``.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np
from scipy.sparse import diags
from scipy.sparse.linalg import splu

from .bank import BankKey, FactorBank, entry_bytes, factor_bytes
from .diagnostics import (
    SolverDiagnostics,
    SolverGuard,
    SolverStats,
    TransientDivergenceError,
    condition_estimate_from_factor,
    validate_finite_array,
    validate_positive_scalar,
)
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from .exact import ExactOutcome, ExactTier, amg_key
from .field import TemperatureField
from .krylov import KrylovOptions, choose_backend, exact_fallback_backend
from .model import SPLU_OPTIONS, BlockRef, CacheInfo, CompactThermalModel
from .rom import RomRejection

TRANSIENT_CACHE_ENTRIES = 16
"""Entries (LU factors and AMG hierarchies) of a stepper's private bank."""

FactorEntry = Tuple[object, np.ndarray, object]
"""One LU entry: ``(LU factor, boundary rhs, system matrix)``."""


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
    guard:
        Numerical-guard configuration; defaults to the model's.
    solver:
        Backend selection (``"auto"`` / ``"direct"`` / ``"amg"`` /
        ``"rom"``); defaults to the model's.  The ``"amg"`` path
        solves ``(C/dt + A(f))`` with AMG-preconditioned BiCGSTAB —
        one hierarchy per ``(flow signature, dt)``, built on the grid
        like the model's steady hierarchies — warm-started from the
        previous state, and falls back to the guarded direct LU on a
        broken setup, non-convergence or an out-of-tolerance
        residual.  The ``"rom"`` path advances a certified
        reduced state (see :mod:`repro.thermal.rom`) and transparently
        falls back to the exact backend — re-synchronising the reduced
        state afterwards — whenever the error bound or trust region
        rejects a step.
    krylov:
        Convergence controls of the AMG tier; defaults to the model's.

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
        guard: Optional[SolverGuard] = None,
        solver: Optional[str] = None,
        krylov: Optional[KrylovOptions] = None,
    ) -> None:
        dt = validate_positive_scalar(dt, "dt")
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
        # Each LU entry holds (LU factor, boundary rhs, system matrix)
        # for one flow signature at one dt — the rhs costs as much to
        # rebuild per step as the triangular solves it accompanies, and
        # the matrix (already assembled for the factorisation) backs
        # the optional residual check.  AMG entries carry the boundary
        # rhs too.
        # A model built on a caller-owned byte-capped bank (a warm
        # service worker's) keeps its transient entries there too;
        # otherwise they live as long as this stepper.
        self._bank = (
            model.factor_bank
            if model.factor_bank.byte_capped
            else FactorBank(max_entries=TRANSIENT_CACHE_ENTRIES)
        )
        self._transient = ExactTier("transient", self._bank)
        registry = get_registry()
        self._c_steps = registry.counter("thermal.transient_steps")
        registry.gauge("thermal.transient_cache.maxsize").set(
            TRANSIENT_CACHE_ENTRIES
        )
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

    def _system(self, dt: float):
        """The backward-Euler matrix ``C/dt + A(f)`` at the current flows."""
        return self.model.system_matrix() + diags(self._c_over(dt))

    def _factor(self, dt: Optional[float] = None) -> FactorEntry:
        dt = self.dt if dt is None else dt

        def build():
            matrix = self._system(dt)
            factor = splu(matrix.tocsc(), **SPLU_OPTIONS)
            entry = (factor, self.model.boundary_rhs(), matrix)
            return entry, entry_bytes(entry), entry[1:]

        return self._transient.entry(self._bank_key(dt), build)

    @property
    def backend(self) -> str:
        """The resolved backend (``"direct"``/``"amg"``/``"rom"``)."""
        return self._backend

    def _exact(self) -> str:
        """The exact backend behind the rom tier (lazily resolved)."""
        if self._exact_backend is None:
            self._exact_backend = exact_fallback_backend(self.model.grid.size)
        return self._exact_backend

    def evict_factor(self, dt: Optional[float] = None) -> bool:
        """Drop the cached factor of the current flow state at ``dt``.

        Guarded steps call this when a factor yields non-finite or
        out-of-tolerance solutions, so the retry refactorises instead of
        reusing the poisoned factor.  Returns whether an entry existed
        (the LU factor or the AMG hierarchy of that key).
        """
        return self._transient.evict(
            self._bank_key(self.dt if dt is None else dt)
        )

    @property
    def cached_factor_count(self) -> int:
        """This model's transient entries (LU and AMG) in the bank."""
        return self._transient.count(self.model.bank_key)

    def cache_info(self) -> CacheInfo:
        """``lru_cache``-style statistics of the factor cache."""
        return CacheInfo(
            hits=self._transient.hits.value,
            misses=self._transient.misses.value,
            currsize=self.cached_factor_count,
            maxsize=TRANSIENT_CACHE_ENTRIES,
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
                model.check_rom_admission(rom, flow)
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
    ) -> ExactOutcome:
        """One unguarded backward-Euler solve; reports solution health.

        The shared exact attempt (see :mod:`repro.thermal.exact`): on
        the AMG backend the warm-started Krylov solve first, handed to
        the direct factorisation when it fails (``fell_back`` in the
        outcome); the guarded retry/backoff logic above never needs to
        know which backend produced the solution.
        """
        # Dynamic two-phase anchors contribute a pure rhs delta: the
        # (C/dt + A) caches stay valid while the saturation field
        # moves, and legacy paths never take the branch.
        cooling = self.model.cooling_rhs()
        c_over = self._c_over(dt)

        def rhs(boundary: np.ndarray) -> np.ndarray:
            b = c_over * values + power + boundary
            return b if cooling is None else b + cooling

        backend = self._backend
        if backend == "rom":
            # A rejected rom step lands here; it runs on whatever exact
            # backend the "auto" size rule picks for this grid.
            backend = self._exact()
        hierarchy = None
        if backend == "amg":
            hierarchy = (
                amg_key(self._bank_key(dt)),
                lambda: (
                    self.model.amg_solver(self._system(dt), self.krylov_options),
                    self.model.boundary_rhs(),
                ),
            )
        return self._transient.attempt(
            self.guard, rhs, lambda: self._factor(dt), hierarchy, x0=values
        )

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
            return state

    def _guarded_step(self, power: np.ndarray) -> TemperatureField:
        """The guarded solve behind :meth:`step_with_power_vector`."""
        if self.guard.check_finite:
            validate_finite_array(power, "nodal power vector")
        outcome = self._attempt(self.state.values, power, self.dt)
        values = outcome.values
        evictions = 0
        retries = 0
        dt_effective = self.dt
        if not outcome.ok:
            # The factor may be poisoned (e.g. cached before a failed
            # solve): evict and retry once with a fresh factorisation.
            if self.evict_factor(self.dt):
                evictions += 1
            outcome = outcome.then(
                self._attempt(self.state.values, power, self.dt)
            )
            values = outcome.values
        if not outcome.ok:
            # Bounded dt-halving backoff: 2^k substeps at dt / 2^k.
            for halvings in range(1, self.guard.max_dt_halvings + 1):
                sub_dt = self.dt / (2.0 ** halvings)
                current = self.state.values
                for _ in range(2 ** halvings):
                    outcome = outcome.then(self._attempt(current, power, sub_dt))
                    current = outcome.values
                    if not outcome.ok:
                        if self.evict_factor(sub_dt):
                            evictions += 1
                        break
                if outcome.ok:
                    values = current
                    retries = halvings
                    dt_effective = sub_dt
                    break
        if not outcome.ok:
            factor, _, _ = self._factor(self.dt)
            diagnostics = SolverDiagnostics(
                kind="transient",
                residual_norm=outcome.residual,
                finite=bool(np.all(np.isfinite(values))),
                condition_estimate=condition_estimate_from_factor(factor),
                dt=self.dt,
                dt_effective=self.dt / (2.0 ** self.guard.max_dt_halvings),
                retries=self.guard.max_dt_halvings,
                factor_evictions=evictions,
                method=outcome.method,
                iterations=outcome.iterations,
                fallback_to_direct=outcome.fell_back,
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
        if outcome.factor is not None and (
            retries or evictions or self.guard.residual_tolerance is not None
        ):
            # Only when a direct factor produced the solution: computing
            # the estimate on the AMG path would force exactly the LU
            # factorisation the backend exists to avoid.
            condition = condition_estimate_from_factor(outcome.factor)
        else:
            condition = None
        diagnostics = SolverDiagnostics(
            kind="transient",
            residual_norm=outcome.residual,
            finite=True,
            condition_estimate=condition,
            dt=self.dt,
            dt_effective=dt_effective,
            retries=retries,
            factor_evictions=evictions,
            method=outcome.method,
            iterations=outcome.iterations,
            fallback_to_direct=outcome.fell_back,
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
