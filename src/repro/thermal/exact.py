"""The exact solve shared by steady solves and transient steps.

A steady solve ``A(f) x = q`` is the backward-Euler system
``(C/dt + A(f)) x = (C/dt) T + q`` with ``C/dt = 0``, so both kinds run
one guarded attempt, :meth:`ExactTier.attempt`: on the ``"amg"``
backend the cached, warm-started AMG hierarchy first; when its setup,
convergence or residual check fails the hierarchy is evicted, the hop
is counted as ``solver.fallback.amg_to_direct`` and the direct LU
answers; then the finite and residual checks.  Only the retry policy
stays with the caller: a steady solve retries once refactorised, a
transient step also halves ``dt``.

Both entry types of a kind live in one
:class:`~repro.thermal.bank.FactorBank`.  The LU entry of a system
sits under its bank key ``(model key, kind, flow state, dt)`` and its
AMG hierarchy under :func:`amg_key` of that key, so the two never
collide, both count towards the kind's occupancy and LRU bound, and
dropping a model's kind clears both.  An AMG entry carries its own
warm start, so evicting the hierarchy drops the warm start with it.
AMG entries are stored without a source: a service worker's
:meth:`~repro.thermal.bank.FactorBank.adopt` never rebuilds them.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from ..obs.metrics import Counter, get_registry
from ..obs.trace import get_tracer
from .bank import BankKey, FactorBank, entry_bytes
from .diagnostics import (
    FactorizationError,
    IterativeConvergenceError,
    SolverGuard,
    relative_residual,
)
from .krylov import AmgSolver

LuParts = Tuple[object, Optional[np.ndarray], Optional[object]]
"""``(LU factor, cached boundary rhs or None, system matrix or None)``;
the matrix backs the residual check."""


def amg_key(key: BankKey) -> BankKey:
    """Bank key of the AMG hierarchy of the system under LU key ``key``."""
    return (key[0], key[1], ("amg", key[2]), key[3])


class AmgEntry:
    """A cached AMG hierarchy with its key's boundary rhs and warm start."""

    __slots__ = ("solver", "boundary", "warm")

    def __init__(self, solver: AmgSolver, boundary: Optional[np.ndarray]):
        self.solver = solver
        self.boundary = boundary
        self.warm: Optional[np.ndarray] = None


class ExactOutcome(NamedTuple):
    """One unguarded exact attempt and the health of its solution."""

    values: np.ndarray
    ok: bool
    residual: Optional[float]
    method: str
    iterations: Optional[int]
    fell_back: bool
    factor: Optional[object]
    """The LU factor that produced ``values`` (``None`` on AMG)."""

    def then(self, later: "ExactOutcome") -> "ExactOutcome":
        """``later`` with this attempt's iterations and fallback folded in."""
        iterations = self.iterations
        if later.iterations is not None:
            iterations = (iterations or 0) + later.iterations
        return later._replace(
            iterations=iterations, fell_back=self.fell_back or later.fell_back
        )


class ExactTier:
    """The exact solves of one kind (``"steady"``/``"transient"``) on a bank.

    Owns the kind's cache counters, mirrored into the process-global
    registry as ``thermal.<kind>_cache.*``.
    """

    def __init__(self, kind: str, bank: FactorBank) -> None:
        self.kind = kind
        self.bank = bank
        self.hits = Counter(f"{kind}_cache.hits")
        self.misses = Counter(f"{kind}_cache.misses")
        registry = get_registry()
        self._g_hits = registry.counter(f"thermal.{kind}_cache.hits")
        self._g_misses = registry.counter(f"thermal.{kind}_cache.misses")
        self._g_currsize = registry.gauge(f"thermal.{kind}_cache.currsize")
        self._g_currsize.set(0)
        self._c_fallback = registry.counter("solver.fallback.amg_to_direct")

    def count(self, owner: object) -> int:
        """Cached entries (LU factors and AMG hierarchies) of one model key."""
        return self.bank.count(owner, self.kind)

    def entry(
        self, key: BankKey, build: Callable[[], Tuple[object, int, object]]
    ) -> object:
        """The entry under ``key``; on a miss ``build() -> (entry, nbytes,
        source)`` makes it, and any failure there is a
        :class:`~repro.thermal.diagnostics.FactorizationError`."""
        entry = self.bank.get(key)
        if entry is not None:
            self.hits.inc()
            self._g_hits.inc()
            return entry
        self.misses.inc()
        self._g_misses.inc()
        self.bank.reserve(key)
        try:
            entry, nbytes, source = build()
        except FactorizationError:
            raise
        except Exception as exc:
            raise FactorizationError(
                f"{self.kind} factorisation failed for {key[2:]!r}: {exc}"
            ) from exc
        self.bank.put(key, entry, nbytes, source=source)
        self._g_currsize.set(self.count(key[0]))
        return entry

    def clear(self, owner: object) -> None:
        """Drop every entry of one model key and reset the statistics."""
        self.bank.drop(owner, self.kind)
        self.hits.reset()
        self.misses.reset()
        self._g_currsize.set(0)

    def evict(self, key: BankKey) -> bool:
        """Drop the LU entry under ``key`` and its AMG hierarchy."""
        dropped = self.bank.pop(key)
        dropped = self.bank.pop(amg_key(key)) or dropped
        self._g_currsize.set(self.count(key[0]))
        return dropped

    def attempt(
        self,
        guard: SolverGuard,
        rhs: Callable[[Optional[np.ndarray]], np.ndarray],
        lu: Callable[[], LuParts],
        amg: Optional[
            Tuple[BankKey, Callable[[], Tuple[AmgSolver, Optional[np.ndarray]]]]
        ] = None,
        x0: Optional[np.ndarray] = None,
    ) -> ExactOutcome:
        """One exact solve: AMG when ``amg`` is given, else / then the LU.

        ``rhs(boundary)`` is the right-hand side given the entry's
        cached boundary rhs.  ``lu()`` is the kind's cached LU lookup.
        ``amg`` is ``(key, build)``: the hierarchy's bank key and
        ``build() -> (solver, boundary)`` for a miss.  ``x0`` is the
        initial guess; ``None`` warm-starts from, and afterwards
        refreshes, the entry's last solution.
        """
        iterations: Optional[int] = None
        fell_back = False
        if amg is not None:
            key, build = amg
            try:
                entry = self.entry(key, lambda: _amg_build(*build()))
                b = rhs(entry.boundary)
                before = entry.solver.iterations_total
                values, iterations = entry.solver.solve(
                    b, x0=entry.warm if x0 is None else x0
                )
            except FactorizationError:
                pass
            except IterativeConvergenceError:
                iterations = entry.solver.iterations_total - before
            else:
                residual: Optional[float] = None
                if guard.residual_tolerance is not None:
                    residual = relative_residual(entry.solver.matrix, values, b)
                if residual is None or not residual > guard.residual_tolerance:
                    if x0 is None:
                        entry.warm = values
                    return ExactOutcome(
                        values, True, residual, AmgSolver.method, iterations,
                        False, None,
                    )
            # The hierarchy may have been built from a poisoned matrix.
            self.bank.pop(key)
            self._g_currsize.set(self.count(key[0]))
            self._c_fallback.inc()
            get_tracer().event(
                "amg.fallback", kind=self.kind, iterations=iterations
            )
            fell_back = True
        factor, boundary, matrix = lu()
        b = rhs(boundary)
        values = factor.solve(b)
        ok = not guard.check_finite or bool(np.all(np.isfinite(values)))
        residual = None
        if ok and guard.residual_tolerance is not None:
            residual = relative_residual(matrix, values, b)
            ok = not residual > guard.residual_tolerance
        return ExactOutcome(
            values, ok, residual, "direct", iterations, fell_back, factor
        )


def _amg_build(
    solver: AmgSolver, boundary: Optional[np.ndarray]
) -> Tuple[AmgEntry, int, None]:
    """A bank entry for a new hierarchy, sized from its matrices."""
    return AmgEntry(solver, boundary), entry_bytes((solver, boundary)), None
