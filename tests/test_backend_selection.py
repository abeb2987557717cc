"""Backend tiering pinned at the limit, env override, fallback chain."""

import numpy as np
import pytest

from repro.geometry import CoolingMode, build_3d_mpsoc
from repro.obs.metrics import get_registry
from repro.thermal import CompactThermalModel, TransientStepper
from repro.thermal.diagnostics import (
    FactorizationError,
    IterativeConvergenceError,
)
from repro.thermal.krylov import (
    DIRECT_NODE_LIMIT,
    SOLVER_CHOICES,
    AmgSolver,
    choose_backend,
    direct_node_limit,
    exact_fallback_backend,
)
from repro.thermal.rom import RomOptions


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("REPRO_DIRECT_NODE_LIMIT", raising=False)


@pytest.mark.parametrize(
    "n_nodes,expected",
    [
        (1, "direct"),
        (DIRECT_NODE_LIMIT - 1, "direct"),
        (DIRECT_NODE_LIMIT, "direct"),
        (DIRECT_NODE_LIMIT + 1, "amg"),
        (10 * DIRECT_NODE_LIMIT, "amg"),
    ],
)
def test_auto_tier_pinned_at_the_node_limit(n_nodes, expected):
    assert choose_backend("auto", n_nodes) == expected


@pytest.mark.parametrize("backend", ["direct", "amg", "rom"])
@pytest.mark.parametrize("n_nodes", [1, DIRECT_NODE_LIMIT, 10**9])
def test_explicit_requests_pass_through(backend, n_nodes):
    assert backend in SOLVER_CHOICES
    assert choose_backend(backend, n_nodes) == backend


@pytest.mark.parametrize(
    "override,n_nodes,expected",
    [
        ("100", 100, "direct"),
        ("100", 101, "amg"),
        ("0", 1, "amg"),
        ("0", 0, "direct"),
        ("-5", 1, "amg"),  # negative clamps to 0
        ("junk", DIRECT_NODE_LIMIT, "direct"),  # malformed -> default
        ("junk", DIRECT_NODE_LIMIT + 1, "amg"),
    ],
)
def test_env_override_pins_the_auto_tier(
    monkeypatch, override, n_nodes, expected
):
    monkeypatch.setenv("REPRO_DIRECT_NODE_LIMIT", override)
    assert choose_backend("auto", n_nodes) == expected


def test_direct_node_limit_reads_env(monkeypatch):
    assert direct_node_limit() == DIRECT_NODE_LIMIT
    monkeypatch.setenv("REPRO_DIRECT_NODE_LIMIT", "42")
    assert direct_node_limit() == 42
    monkeypatch.setenv("REPRO_DIRECT_NODE_LIMIT", "not-a-number")
    assert direct_node_limit() == DIRECT_NODE_LIMIT


def test_malformed_env_limit_is_counted(monkeypatch):
    registry = get_registry()
    start = registry.snapshot()
    monkeypatch.setenv("REPRO_DIRECT_NODE_LIMIT", "seventy-five-thousand")
    assert direct_node_limit() == DIRECT_NODE_LIMIT
    assert direct_node_limit() == DIRECT_NODE_LIMIT
    delta = registry.delta_since(start)
    # Counted per parse (telemetry sees the ongoing mis-tiering risk);
    # the log/trace warning itself fires once per variable per process.
    assert delta["solver.env.invalid"]["value"] >= 2


@pytest.mark.parametrize(
    "n_nodes,expected",
    [
        (DIRECT_NODE_LIMIT, "direct"),
        (DIRECT_NODE_LIMIT + 1, "amg"),
    ],
)
def test_rom_exact_fallback_follows_the_auto_rule(n_nodes, expected):
    assert exact_fallback_backend(n_nodes) == expected


def test_rom_exact_fallback_honours_env(monkeypatch):
    monkeypatch.setenv("REPRO_DIRECT_NODE_LIMIT", "10")
    assert exact_fallback_backend(11) == "amg"
    assert exact_fallback_backend(10) == "direct"


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="unknown solver"):
        choose_backend("quantum", 100)


def test_rom_chain_falls_back_to_amg_then_direct(monkeypatch):
    """rom -> amg -> direct: an out-of-trust rom query on a grid above
    the (env-lowered) node limit runs the AMG tier, whose own direct
    fallback remains behind it."""
    stack = build_3d_mpsoc(2, CoolingMode.LIQUID)
    opts = RomOptions(
        flow_points=3,
        max_modes=24,
        validation_queries=2,
        transient_calibration_steps=4,
        transient_snapshots=3,
    )
    model = CompactThermalModel(stack, nx=12, ny=10, solver="rom", rom=opts)
    reference = CompactThermalModel(stack, nx=12, ny=10, solver="amg")
    powers = {
        ref: 2.0 for ref in model.block_order
    }
    model.set_flow(5.0)  # below the trained range -> rom rejects
    reference.set_flow(5.0)
    monkeypatch.setenv("REPRO_DIRECT_NODE_LIMIT", "1")
    field = model.steady_state(powers)
    assert model.last_steady_diagnostics.method == "bicgstab+amg"
    expected = reference.steady_state(powers)
    assert np.array_equal(field.values, expected.values)

    # With the limit back at the default the same rejected query lands
    # on the direct LU instead.
    monkeypatch.delenv("REPRO_DIRECT_NODE_LIMIT")
    direct = CompactThermalModel(stack, nx=12, ny=10, solver="direct")
    direct.set_flow(5.0)
    field = model.steady_state(powers)
    assert model.last_steady_diagnostics.method == "direct"
    assert np.array_equal(
        field.values, direct.steady_state(powers).values
    )


# ---------------------------------------------------------------------------
# forced-failure amg -> direct chain
# ---------------------------------------------------------------------------


def _force_amg_failure(monkeypatch, mode):
    """Break the AMG tier: hierarchy setup or BiCGSTAB convergence."""
    if mode == "setup":
        def broken_init(self, *args, **kwargs):
            raise FactorizationError("forced AMG setup failure")

        monkeypatch.setattr(AmgSolver, "__init__", broken_init)
    else:
        def broken_solve(self, rhs, x0=None):
            raise IterativeConvergenceError("forced AMG non-convergence")

        monkeypatch.setattr(AmgSolver, "solve", broken_solve)


@pytest.mark.parametrize("failure", ["setup", "convergence"])
def test_amg_chain_falls_back_to_direct(monkeypatch, failure):
    """amg -> direct: a broken AMG tier must answer through the guarded
    direct LU with observables bitwise identical to a plain direct
    model, and the hop must land in the fallback counters."""
    stack = build_3d_mpsoc(2, CoolingMode.LIQUID)
    model = CompactThermalModel(stack, nx=12, ny=10, solver="amg")
    reference = CompactThermalModel(stack, nx=12, ny=10, solver="direct")
    powers = {ref: 2.0 for ref in model.block_order}
    registry = get_registry()
    start = registry.snapshot()
    _force_amg_failure(monkeypatch, failure)
    field = model.steady_state(powers)
    diagnostics = model.last_steady_diagnostics
    assert diagnostics.method == "direct"
    assert diagnostics.fallback_to_direct
    assert not diagnostics.healthy()
    assert model.steady_stats.fallbacks_to_direct == 1
    assert model.steady_stats.direct_solves == 1
    assert model.steady_stats.amg_solves == 0
    delta = registry.delta_since(start)
    assert delta["solver.fallback.amg_to_direct"]["value"] == 1
    expected = reference.steady_state(powers)
    assert np.array_equal(field.values, expected.values)


@pytest.mark.parametrize("failure", ["setup", "convergence"])
def test_transient_amg_chain_falls_back_to_direct(monkeypatch, failure):
    """The transient amg -> direct hop: every step of a broken AMG
    stepper is answered by the direct LU, bitwise like a direct
    stepper, and counted once per hop."""
    stack = build_3d_mpsoc(2, CoolingMode.LIQUID)
    model = CompactThermalModel(stack, nx=12, ny=10)
    powers = {ref: 2.0 for ref in model.block_order}
    initial = model.steady_state(powers)
    reference = TransientStepper(model, 0.1, initial, solver="direct")
    stepper = TransientStepper(model, 0.1, initial, solver="amg")
    registry = get_registry()
    start = registry.snapshot()
    _force_amg_failure(monkeypatch, failure)
    for _ in range(3):
        reference.step(powers)
        stepper.step(powers)
    diagnostics = stepper.last_diagnostics
    assert diagnostics.method == "direct"
    assert diagnostics.fallback_to_direct
    assert stepper.stats.fallbacks_to_direct == 3
    assert stepper.stats.amg_solves == 0
    delta = registry.delta_since(start)
    assert delta["solver.fallback.amg_to_direct"]["value"] == 3
    assert np.array_equal(stepper.state.values, reference.state.values)
