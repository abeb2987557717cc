"""Krylov solves for large thermal grids.

Beyond roughly 200x200 cells per level the sparse direct LU becomes
memory-bound: SuperLU fill-in grows superlinearly with the grid, so a
300x300 4-tier stack (over a million nodes) needs many gigabytes for
the factors alone.  The system ``A(f) = A_base + c(f) A_adv`` is an
M-matrix (symmetric positive-definite conductance part) plus a mildly
nonsymmetric upwind-advection part, so the large-grid tier runs
BiCGSTAB (no long GMRES recurrences) preconditioned by an
algebraic-multigrid V-cycle (see :mod:`repro.thermal.amg`), whose
iteration count stays nearly flat as the grid refines.  Warm starts
from the previous solution (transient state, or the last steady solve
at the same flow point) cut the iteration count further on the
closed-loop and sweep hot paths.

:func:`choose_backend` implements the automatic direct -> amg
selection; :class:`AmgSolver` packages one preconditioned operator so
the steady and transient paths cache it exactly like they cache LU
factors.  Non-convergence raises
:class:`~repro.thermal.diagnostics.IterativeConvergenceError`, which
the tiered solve paths catch to fall back to the guarded direct LU.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.sparse.linalg import bicgstab

from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from .diagnostics import IterativeConvergenceError

logger = logging.getLogger(__name__)

DIRECT_NODE_LIMIT = 75_000
"""Node count above which ``"auto"`` leaves the direct path for AMG.

Calibrated on the 4-tier stack (see
``benchmarks/bench_solver_crossover.py``): on a *cold single* solve
the AMG tier already wins at 50x50 per level (30k nodes).  The limit
is deliberately higher than that cold crossover because the
closed-loop and sweep paths amortise one cached LU over many repeated
solves, where direct stays ahead until fill-in memory dominates.
Override with the ``REPRO_DIRECT_NODE_LIMIT`` environment variable.
"""

SOLVER_CHOICES = ("auto", "direct", "amg", "rom")
"""Accepted solver-backend selections.

``"amg"`` runs BiCGSTAB preconditioned by an algebraic-multigrid
V-cycle (see :mod:`repro.thermal.amg`) — the raw-speed tier for large
steady and transient grids, guarded by a fallback to the direct LU.
``"rom"`` selects the certified reduced-order fast path (see
:mod:`repro.thermal.rom`): queries inside the snapshot trust region are
served in microseconds from the projected system, everything else falls
through to the exact backend that ``"auto"`` would have chosen.
"""

DIRECT_NODE_LIMIT_ENV = "REPRO_DIRECT_NODE_LIMIT"

_env_warned = False


def direct_node_limit() -> int:
    """The direct-tier threshold, honouring the env override.

    A malformed value must not silently vanish into the default: it is
    counted (``solver.env.invalid``), traced and logged once per
    process so a typo in a job script shows up in telemetry instead of
    quietly mis-tiering every solve.
    """
    global _env_warned
    raw = os.environ.get(DIRECT_NODE_LIMIT_ENV)
    if raw is None:
        return DIRECT_NODE_LIMIT
    try:
        return max(0, int(raw))
    except ValueError:
        get_registry().counter("solver.env.invalid").inc()
        if not _env_warned:
            _env_warned = True
            logger.warning(
                "ignoring malformed %s=%r (not an integer); using the "
                "default %d",
                DIRECT_NODE_LIMIT_ENV,
                raw,
                DIRECT_NODE_LIMIT,
            )
            get_tracer().event(
                "solver.env.invalid", variable=DIRECT_NODE_LIMIT_ENV, value=raw
            )
        return DIRECT_NODE_LIMIT


def choose_backend(
    requested: str,
    n_nodes: int,
    node_limit: Optional[int] = None,
) -> str:
    """Resolve a solver request to a concrete backend tier.

    Parameters
    ----------
    requested:
        ``"auto"``, ``"direct"``, ``"amg"`` or ``"rom"``.  Explicit
        requests pass through (``"rom"`` is a tier of its own — its
        *exact fallback* backend is resolved separately via
        :func:`exact_fallback_backend`); ``"auto"`` picks by problem
        size: direct at or below the direct node limit,
        AMG-preconditioned BiCGSTAB above it.
    n_nodes:
        Problem size (grid nodes).
    node_limit:
        Direct-tier threshold override; defaults to
        :func:`direct_node_limit`.
    """
    if requested not in SOLVER_CHOICES:
        raise ValueError(
            f"unknown solver {requested!r}; choose from {SOLVER_CHOICES}"
        )
    if requested != "auto":
        _count_selection(requested)
        return requested
    limit = direct_node_limit() if node_limit is None else node_limit
    resolved = "direct" if n_nodes <= limit else "amg"
    _count_selection(resolved)
    return resolved


def exact_fallback_backend(
    n_nodes: int, node_limit: Optional[int] = None
) -> str:
    """The exact backend a rejected ROM query falls back to.

    The ROM's fallback chain reuses the ``"auto"`` size rule: rom ->
    amg (itself guarded by direct) above the node limit, rom -> direct
    below it.  Counted as a regular selection so
    the `solver.backend_selected.*` counters reflect what actually
    ran.
    """
    return choose_backend("auto", n_nodes, node_limit)


_SELECTION_COUNTERS: dict = {}


def _count_selection(resolved: str) -> None:
    """Count backend resolutions in the global metrics registry."""
    counter = _SELECTION_COUNTERS.get(resolved)
    if counter is None:
        counter = get_registry().counter(
            f"solver.backend_selected.{resolved}"
        )
        _SELECTION_COUNTERS[resolved] = counter
    counter.inc()


@dataclass(frozen=True)
class KrylovOptions:
    """Convergence controls of the AMG-preconditioned BiCGSTAB solve.

    Attributes
    ----------
    rtol, atol:
        Convergence test ``||r|| <= max(rtol * ||b||, atol)``.  The
        default ``rtol`` keeps iterative temperatures within ~1e-8 of
        the direct solve on calibration grids.
    maxiter:
        Iteration budget before
        :class:`~repro.thermal.diagnostics.IterativeConvergenceError`.
        The default leaves wide headroom over the cold-start counts of
        the benchmarked grids; warm starts need a small fraction of
        it.
    """

    rtol: float = 1e-10
    atol: float = 0.0
    maxiter: int = 2000

    def __post_init__(self) -> None:
        if not (self.rtol > 0.0 or self.atol > 0.0):
            raise ValueError("one of rtol/atol must be positive")
        if self.maxiter < 1:
            raise ValueError("maxiter must be at least 1")


class AmgSolver:
    """AMG-preconditioned BiCGSTAB, cacheable like an LU factor.

    The (expensive) hierarchy construction happens in the constructor
    so the steady and transient caches can account it exactly like an
    LU factorisation, and each :meth:`solve` costs a handful of
    V-cycle-preconditioned BiCGSTAB sweeps.  On the Poisson-like
    conductance matrices the iteration count is nearly
    size-independent, which is what makes the tier near-O(n).

    Parameters
    ----------
    matrix:
        The system matrix (``A(f)`` for steady solves, ``C/dt + A(f)``
        for transient steps).
    options:
        Convergence controls; defaults to :class:`KrylovOptions`.
    amg:
        Hierarchy knobs; defaults to
        :class:`~repro.thermal.amg.AmgOptions`.
    grid_shape, n_extra:
        Grid extents ``(levels, ny, nx)`` plus trailing off-grid node
        count, enabling the geometric aggregation fast path (see
        :class:`~repro.thermal.amg.AmgPreconditioner`).

    Setup failures raise
    :class:`~repro.thermal.diagnostics.FactorizationError`;
    non-convergence raises
    :class:`~repro.thermal.diagnostics.IterativeConvergenceError`.
    The steady and transient paths catch both to fall back to the
    guarded direct LU.
    """

    method = "bicgstab+amg"

    def __init__(
        self,
        matrix,
        options: Optional[KrylovOptions] = None,
        amg: Optional["object"] = None,
        grid_shape: Optional[Tuple[int, int, int]] = None,
        n_extra: int = 0,
    ) -> None:
        from .amg import AmgOptions, AmgPreconditioner

        self.options = options if options is not None else KrylovOptions()
        self.matrix = matrix.tocsr()
        self.preconditioner = AmgPreconditioner(
            self.matrix,
            amg if amg is not None else AmgOptions(),
            grid_shape=grid_shape,
            n_extra=n_extra,
        )
        self._operator = self.preconditioner.aslinearoperator()
        self.iterations_total = 0
        self.solve_count = 0
        registry = get_registry()
        self._c_solves = registry.counter("solver.amg.solves")
        self._c_iterations = registry.counter("solver.amg.iterations")

    @property
    def nbytes(self) -> int:
        """Resident size of the system matrix and its hierarchy."""
        matrix = self.matrix
        return (
            matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
            + self.preconditioner.nbytes
        )

    def solve(
        self,
        rhs: np.ndarray,
        x0: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, int]:
        """Solve ``A x = rhs``; returns ``(solution, iterations)``.

        Raises
        ------
        IterativeConvergenceError
            When BiCGSTAB exhausts ``maxiter`` or breaks down, or the
            solution contains non-finite entries.
        """
        iterations = 0

        def count(_xk: np.ndarray) -> None:
            nonlocal iterations
            iterations += 1

        with get_tracer().span(
            "solver.amg.solve", nodes=self.matrix.shape[0]
        ):
            solution, info = bicgstab(
                self.matrix,
                rhs,
                x0=x0,
                rtol=self.options.rtol,
                atol=self.options.atol,
                maxiter=self.options.maxiter,
                M=self._operator,
                callback=count,
            )
        self.iterations_total += iterations
        self.solve_count += 1
        self._c_solves.inc()
        self._c_iterations.inc(iterations)
        if info != 0 or not np.all(np.isfinite(solution)):
            raise IterativeConvergenceError(
                f"AMG-preconditioned BiCGSTAB did not converge "
                f"(info={info}) after {iterations} iterations at "
                f"rtol={self.options.rtol:g}"
            )
        return solution, iterations
