"""AMG hierarchy construction, determinism, equivalence and telemetry."""

import sys

import numpy as np
import pytest
from scipy import sparse

from repro.geometry import CoolingMode, build_3d_mpsoc
from repro.obs.metrics import get_registry
from repro.thermal import CompactThermalModel, SolverGuard, TransientStepper
from repro.thermal.amg import (
    AmgOptions,
    AmgPreconditioner,
    algebraic_aggregates,
    amg_flavor,
    geometric_aggregates,
    have_pyamg,
)
from repro.thermal.bank import FactorBank
from repro.thermal.diagnostics import FactorizationError
from repro.thermal.krylov import AmgSolver


def _poisson_1d(n: int) -> sparse.csr_matrix:
    main = np.full(n, 2.0)
    off = np.full(n - 1, -1.0)
    return sparse.diags([off, main, off], (-1, 0, 1)).tocsr()


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def test_geometric_aggregates_partition_and_compose():
    agg, coarse = geometric_aggregates((4, 8, 8), (2, 4, 4))
    assert coarse == (2, 2, 2)
    assert agg.size == 4 * 8 * 8
    # A partition: every aggregate id in range, every id used.
    assert agg.min() == 0 and agg.max() == 7
    assert np.unique(agg).size == 8
    # Each (2, 4, 4) block holds exactly 32 fine cells.
    assert np.bincount(agg).tolist() == [32] * 8
    # Ragged extents round up instead of dropping cells.
    agg2, coarse2 = geometric_aggregates((3, 5, 5), (2, 4, 4))
    assert coarse2 == (2, 2, 2)
    assert agg2.size == 3 * 5 * 5
    assert np.unique(agg2).size == 8


def test_geometric_aggregates_follow_grid_layout():
    agg, _ = geometric_aggregates((2, 4, 4), (2, 4, 4))
    # One aggregate covering the whole grid.
    assert np.array_equal(agg, np.zeros(32, dtype=agg.dtype))
    agg, coarse = geometric_aggregates((2, 4, 4), (1, 4, 4))
    # z splits only: flat layout is z*ny*nx + y*nx + x.
    assert coarse == (2, 1, 1)
    assert np.array_equal(agg[:16], np.zeros(16, dtype=agg.dtype))
    assert np.array_equal(agg[16:], np.ones(16, dtype=agg.dtype))


def test_algebraic_aggregates_partition_and_determinism():
    A = _poisson_1d(200)
    agg, n_agg = algebraic_aggregates(A, theta=0.1, seed=0)
    assert agg.size == 200
    assert agg.min() >= 0 and agg.max() == n_agg - 1
    assert np.unique(agg).size == n_agg
    assert 1 < n_agg < 200  # actually coarsens, not trivially
    agg2, n_agg2 = algebraic_aggregates(A, theta=0.1, seed=0)
    assert n_agg2 == n_agg
    assert np.array_equal(agg, agg2)


def test_algebraic_aggregates_isolated_nodes_become_singletons():
    A = sparse.identity(5, format="csr")
    agg, n_agg = algebraic_aggregates(A)
    assert n_agg == 5
    assert np.unique(agg).size == 5


# ---------------------------------------------------------------------------
# options validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"block": (0, 4, 4)},
        {"block": (1, 1, 1)},
        {"presmooth": -1},
        {"presmooth": 0, "postsmooth": 0},
        {"coarse_limit": 0},
        {"max_levels": 0},
        {"strength_theta": 1.0},
        {"rho_iterations": 0},
    ],
)
def test_amg_options_validation(kwargs):
    with pytest.raises(ValueError):
        AmgOptions(**kwargs)


# ---------------------------------------------------------------------------
# hierarchy construction
# ---------------------------------------------------------------------------


def test_scipy_hierarchy_coarsens_to_the_limit(monkeypatch):
    monkeypatch.setenv("REPRO_AMG", "scipy")
    stack = build_3d_mpsoc(2, CoolingMode.LIQUID)
    model = CompactThermalModel(stack, nx=24, ny=20)
    options = AmgOptions(coarse_limit=200)
    pre = AmgPreconditioner(
        model.system_matrix(),
        options,
        grid_shape=(model.grid.levels, model.grid.ny, model.grid.nx),
        n_extra=1 if model.grid.has_sink_node else 0,
    )
    sizes = list(pre.level_sizes)
    assert pre.flavor == "scipy"
    assert sizes[0] == model.grid.size
    assert all(a > b for a, b in zip(sizes, sizes[1:]))
    assert sizes[-1] <= options.coarse_limit
    # Galerkin coarse operators stay a small multiple of nnz(A).
    assert 1.0 <= pre.operator_complexity < 2.0


def test_hierarchy_is_deterministic(monkeypatch):
    monkeypatch.setenv("REPRO_AMG", "scipy")
    stack = build_3d_mpsoc(2, CoolingMode.LIQUID)
    model = CompactThermalModel(stack, nx=16, ny=12)
    A = model.system_matrix()
    kwargs = dict(
        grid_shape=(model.grid.levels, model.grid.ny, model.grid.nx),
        n_extra=1 if model.grid.has_sink_node else 0,
    )
    one = AmgPreconditioner(A, AmgOptions(coarse_limit=100), **kwargs)
    two = AmgPreconditioner(A, AmgOptions(coarse_limit=100), **kwargs)
    b = np.linspace(0.0, 1.0, A.shape[0])
    assert np.array_equal(one.cycle(b), two.cycle(b))


def test_grid_shape_mismatch_is_a_factorization_error(monkeypatch):
    monkeypatch.setenv("REPRO_AMG", "scipy")
    A = _poisson_1d(64)
    with pytest.raises(FactorizationError):
        AmgPreconditioner(A, AmgOptions(coarse_limit=8), grid_shape=(2, 4, 4))


def test_algebraic_path_without_grid_shape(monkeypatch):
    monkeypatch.setenv("REPRO_AMG", "scipy")
    A = _poisson_1d(4096)
    pre = AmgPreconditioner(A, AmgOptions(coarse_limit=64))
    assert pre.level_sizes[-1] <= 64
    solver = AmgSolver(A, amg=AmgOptions(coarse_limit=64))
    rhs = np.ones(4096)
    solution, iterations = solver.solve(rhs)
    from scipy.sparse.linalg import spsolve

    assert np.allclose(solution, spsolve(A.tocsc(), rhs), atol=1e-6)
    assert iterations < 100


# ---------------------------------------------------------------------------
# flavor forcing
# ---------------------------------------------------------------------------


def test_forced_scipy_flavor(monkeypatch):
    monkeypatch.setenv("REPRO_AMG", "scipy")
    assert amg_flavor() == "scipy"


def test_forced_pyamg_without_package_raises(monkeypatch):
    if have_pyamg():
        pytest.skip("pyamg installed; the forced path cannot fail here")
    monkeypatch.setenv("REPRO_AMG", "pyamg")
    with pytest.raises(FactorizationError, match="pyamg"):
        amg_flavor()


def test_default_flavor_matches_availability(monkeypatch):
    monkeypatch.delenv("REPRO_AMG", raising=False)
    assert amg_flavor() == ("pyamg" if have_pyamg() else "scipy")


# ---------------------------------------------------------------------------
# model integration
# ---------------------------------------------------------------------------


def test_amg_steady_matches_direct(uniform_core_powers, liquid_stack_2tier):
    amg = CompactThermalModel(
        liquid_stack_2tier, nx=12, ny=10, solver="amg"
    )
    direct = CompactThermalModel(
        liquid_stack_2tier, nx=12, ny=10, solver="direct"
    )
    field = amg.steady_state(uniform_core_powers)
    expected = direct.steady_state(uniform_core_powers)
    assert np.allclose(field.values, expected.values, atol=1e-6)
    diagnostics = amg.last_steady_diagnostics
    assert diagnostics.method == "bicgstab+amg"
    assert diagnostics.iterations is not None
    assert not diagnostics.fallback_to_direct
    assert amg.steady_stats.amg_solves == 1
    assert amg.steady_stats.direct_solves == 0


def test_amg_solver_cache_and_eviction(liquid_stack_2tier):
    model = CompactThermalModel(
        liquid_stack_2tier, nx=12, ny=10, solver="amg"
    )
    powers = {ref: 2.0 for ref in model.block_order}
    model.steady_state(powers)
    before = model.steady_cache_info()
    model.steady_state(powers)
    after = model.steady_cache_info()
    assert after.hits == before.hits + 1
    # Warm start: the repeated identical solve converges immediately.
    assert model.last_steady_diagnostics.iterations == 0
    assert model.evict_steady_factor()  # drops the cached hierarchy
    assert not model.evict_steady_factor()


def test_amg_lru_eviction_drops_the_warm_start(liquid_stack_2tier):
    """An LRU-evicted hierarchy takes its n-float warm start with it."""
    from repro.thermal.exact import amg_key

    bank = FactorBank(max_entries=2)
    model = CompactThermalModel(
        liquid_stack_2tier, nx=12, ny=10, solver="amg", bank=bank
    )
    powers = {ref: 2.0 for ref in model.block_order}
    flows = (10.0, 15.0, 20.0, 25.0, 30.0)
    for flow in flows:
        model.steady_state(powers, flow)
    assert len(bank) == 2 and model.steady_cache_info().currsize == 2
    for flow in flows[:-2]:
        assert amg_key(model._steady_bank_key(flow)) not in bank
    kept = [bank.get(amg_key(model._steady_bank_key(f))) for f in flows[-2:]]
    assert all(entry.warm is not None for entry in kept)
    # Entries are sized from their hierarchies' matrices.
    assert bank.resident_bytes == sum(entry.solver.nbytes for entry in kept)
    assert all(
        entry.solver.nbytes > entry.solver.matrix.data.nbytes
        for entry in kept
    )


def test_cache_info_counts_amg_hierarchies(liquid_stack_2tier):
    """Steady and transient occupancy include the cached hierarchies."""
    model = CompactThermalModel(
        liquid_stack_2tier, nx=12, ny=10, solver="amg"
    )
    powers = {ref: 2.0 for ref in model.block_order}
    for flow in (20.0, 40.0):
        model.steady_state(powers, flow)
    assert model.steady_cache_info().currsize == 2
    assert model.steady_stats.direct_solves == 0

    stepper = TransientStepper(model, 0.1, model.uniform_field(300.0))
    for flow in (20.0, 40.0, 20.0):
        model.set_flow(flow)
        stepper.step(powers)
    info = stepper.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 2, 2)
    assert stepper.stats.direct_solves == 0
    assert stepper.evict_factor() and stepper.cache_info().currsize == 1


def test_steady_amg_residual_is_computed_once(liquid_stack_2tier, monkeypatch):
    calls = []
    for name, module in list(sys.modules.items()):
        original = getattr(module, "relative_residual", None)
        if name.startswith("repro.thermal") and original is not None:

            def counted(*args, _original=original):
                calls.append(1)
                return _original(*args)

            monkeypatch.setattr(module, "relative_residual", counted)
    model = CompactThermalModel(
        liquid_stack_2tier,
        nx=12,
        ny=10,
        solver="amg",
        guard=SolverGuard(residual_tolerance=1e-6),
    )
    model.steady_state({ref: 2.0 for ref in model.block_order})
    assert model.last_steady_diagnostics.method == "bicgstab+amg"
    assert model.last_steady_diagnostics.residual_norm < 1e-6
    assert len(calls) == 1


def test_amg_setup_telemetry(liquid_stack_2tier):
    registry = get_registry()
    start = registry.snapshot()
    model = CompactThermalModel(
        liquid_stack_2tier, nx=12, ny=10, solver="amg"
    )
    powers = {ref: 2.0 for ref in model.block_order}
    model.steady_state(powers)
    delta = registry.delta_since(start)
    assert delta["solver.amg.setups"]["value"] == 1
    assert delta["solver.amg.solves"]["value"] == 1
    # On a grid this small the coarse LU *is* the preconditioner, so
    # BiCGSTAB may converge before its first callback; zero-valued
    # deltas are omitted from the snapshot.
    assert delta.get("solver.amg.iterations", {}).get("value", 0) >= 0
    assert delta["solver.backend_selected.amg"]["value"] >= 1


def test_scenario_spec_accepts_amg_backend():
    from repro.scenario import (
        PolicySpec,
        Scenario,
        SolverSpec,
        StackSpec,
        WorkloadSpec,
    )
    from repro.scenario.runner import build_model

    scenario = Scenario(
        stack=StackSpec(tiers=2, cooling="liquid"),
        workload=WorkloadSpec(name="database", duration=4),
        policy=PolicySpec(name="LC_FUZZY"),
        solver=SolverSpec(backend="amg", nx=12, ny=10),
        label="amg-roundtrip",
    )
    assert scenario.solver.backend == "amg"
    clone = Scenario.from_dict(scenario.to_dict())
    assert clone.solver.backend == "amg"
    model = build_model(scenario)
    assert model.steady_backend() == "amg"
