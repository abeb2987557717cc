"""The iterative (AMG-preconditioned BiCGSTAB) solver path against the
direct LU, steady and transient."""

import numpy as np
import pytest

from repro.geometry import build_3d_mpsoc
from repro.obs.metrics import get_registry
from repro.thermal import CompactThermalModel, TransientStepper
from repro.thermal.krylov import (
    DIRECT_NODE_LIMIT,
    KrylovOptions,
    choose_backend,
    direct_node_limit,
)

# Large enough that the AMG hierarchy has a real coarse level (below
# ~3000 nodes the coarse LU is the whole preconditioner and BiCGSTAB
# converges before its first iteration is counted).
NX, NY = 30, 25


def _powers(model, seed=7):
    rng = np.random.default_rng(seed)
    return {
        ref: float(p)
        for ref, p in zip(
            model.block_order,
            rng.uniform(0.5, 4.0, len(model.block_order)),
        )
    }


def test_choose_backend_auto_threshold(monkeypatch):
    monkeypatch.delenv("REPRO_DIRECT_NODE_LIMIT", raising=False)
    assert choose_backend("auto", DIRECT_NODE_LIMIT) == "direct"
    assert choose_backend("auto", DIRECT_NODE_LIMIT + 1) == "amg"
    # Explicit requests are never overridden by the size heuristic.
    assert choose_backend("direct", 10**9) == "direct"
    assert choose_backend("amg", 10) == "amg"
    monkeypatch.setenv("REPRO_DIRECT_NODE_LIMIT", "100")
    assert direct_node_limit() == 100
    assert choose_backend("auto", 100) == "direct"
    assert choose_backend("auto", 101) == "amg"
    # A malformed override falls back to the compiled-in limit.
    monkeypatch.setenv("REPRO_DIRECT_NODE_LIMIT", "junk")
    assert direct_node_limit() == DIRECT_NODE_LIMIT


def test_choose_backend_rejects_unknown():
    with pytest.raises(ValueError):
        choose_backend("quantum", 100)
    # The retired ILU tier is an unknown backend like any other.
    with pytest.raises(ValueError, match="unknown solver"):
        choose_backend("iterative", 100)
    with pytest.raises(ValueError):
        CompactThermalModel(build_3d_mpsoc(2), nx=6, ny=5, solver="quantum")


@pytest.mark.parametrize("tiers", [2, 4])
def test_steady_iterative_matches_direct(tiers):
    stack = build_3d_mpsoc(tiers)
    direct = CompactThermalModel(stack, nx=NX, ny=NY, solver="direct")
    amg = CompactThermalModel(stack, nx=NX, ny=NY, solver="amg")
    powers = _powers(direct)
    for flow in (None, 30.0):
        reference = direct.steady_state(powers, flow)
        solved = amg.steady_state(powers, flow)
        assert np.allclose(
            solved.values, reference.values, rtol=1e-8, atol=0.0
        )
    assert amg.steady_stats.amg_solves == 2
    assert amg.steady_stats.fallbacks_to_direct == 0
    assert amg.steady_stats.krylov_iterations > 0


def test_steady_warm_start_cuts_iterations():
    model = CompactThermalModel(
        build_3d_mpsoc(2), nx=NX, ny=NY, solver="amg"
    )
    powers = _powers(model)
    model.steady_state(powers)
    cold = model.steady_stats.krylov_iterations
    # A nearby problem at the same flow warm-starts from the previous
    # solution and must converge in fewer sweeps than the cold solve.
    model.steady_state({ref: p * 1.01 for ref, p in powers.items()})
    warm = model.steady_stats.krylov_iterations - cold
    assert 0 <= warm < cold


@pytest.mark.parametrize("tiers", [2, 4])
def test_transient_iterative_matches_direct(tiers):
    model = CompactThermalModel(build_3d_mpsoc(tiers), nx=NX, ny=NY)
    powers = _powers(model)
    initial = model.steady_state(powers)
    packed = model.pack_powers(
        {ref: p * 1.3 for ref, p in powers.items()}
    )
    direct = TransientStepper(model, 0.1, initial, solver="direct")
    amg = TransientStepper(model, 0.1, initial, solver="amg")
    for _ in range(5):
        direct.step_packed(packed)
        amg.step_packed(packed)
    assert np.allclose(
        amg.state.values, direct.state.values, rtol=1e-8, atol=0.0
    )
    assert amg.time == direct.time
    assert amg.last_diagnostics.method == "bicgstab+amg"
    assert amg.stats.amg_solves == 5
    assert amg.stats.direct_solves == 0
    assert amg.stats.fallbacks_to_direct == 0
    assert amg.stats.krylov_iterations > 0
    # One hierarchy serves every step at this (flow, dt).
    assert amg.cache_info().misses == 1


def test_transient_amg_tracks_direct_on_a_60x60_stack():
    """20 steps from a uniform start on a 43k-node 4-tier stack."""
    model = CompactThermalModel(build_3d_mpsoc(4), nx=60, ny=60)
    initial = model.uniform_field(model.inlet_temperature)
    packed = model.pack_powers(_powers(model))
    direct = TransientStepper(model, 0.1, initial, solver="direct")
    amg = TransientStepper(model, 0.1, initial, solver="amg")
    for _ in range(20):
        direct.step_packed(packed)
        amg.step_packed(packed)
    assert np.max(np.abs(amg.state.values - direct.state.values)) < 1e-6
    assert amg.stats.amg_solves == 20


def test_steady_nonconvergence_falls_back_to_direct():
    stack = build_3d_mpsoc(2)
    reference = CompactThermalModel(stack, nx=NX, ny=NY, solver="direct")
    starved = CompactThermalModel(
        stack,
        nx=NX,
        ny=NY,
        solver="amg",
        krylov=KrylovOptions(maxiter=1, rtol=1e-14),
    )
    powers = _powers(reference)
    registry = get_registry()
    start = registry.snapshot()
    solved = starved.steady_state(powers)
    # One BiCGSTAB sweep cannot reach rtol=1e-14 from a cold start, so
    # the solve must have been handed to the guarded LU — and the LU
    # fallback factorises the same matrix with the same options, so the
    # result is bitwise the direct answer.
    assert starved.last_steady_diagnostics.fallback_to_direct
    assert starved.steady_stats.fallbacks_to_direct == 1
    assert starved.steady_stats.amg_solves == 0
    delta = registry.delta_since(start)
    assert delta["solver.fallback.amg_to_direct"]["value"] == 1
    assert np.array_equal(
        solved.values, reference.steady_state(powers).values
    )


def test_transient_nonconvergence_falls_back_to_direct():
    model = CompactThermalModel(build_3d_mpsoc(2), nx=NX, ny=NY)
    powers = _powers(model)
    initial = model.steady_state(powers)
    packed = model.pack_powers({ref: p * 2.0 for ref, p in powers.items()})
    reference = TransientStepper(model, 0.1, initial, solver="direct")
    starved = TransientStepper(
        model,
        0.1,
        initial,
        solver="amg",
        krylov=KrylovOptions(maxiter=1, rtol=1e-16, atol=0.0),
    )
    registry = get_registry()
    start = registry.snapshot()
    reference.step_packed(packed)
    starved.step_packed(packed)
    assert starved.last_diagnostics.fallback_to_direct
    assert starved.last_diagnostics.method == "direct"
    assert starved.stats.fallbacks_to_direct == 1
    delta = registry.delta_since(start)
    assert delta["solver.fallback.amg_to_direct"]["value"] == 1
    assert np.array_equal(starved.state.values, reference.state.values)
