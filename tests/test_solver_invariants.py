"""Physics invariants of the exact solvers on random stacks (hypothesis).

Random 2- and 4-tier single-phase liquid stacks on a coarse grid, flows
within the pump range and non-negative power maps; the conservation
properties are checked on the direct and the AMG backend.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import FLOW_RATE_MAX_ML_MIN, FLOW_RATE_MIN_ML_MIN
from repro.geometry import CoolingMode, build_3d_mpsoc
from repro.thermal import CompactThermalModel, TransientStepper

BACKENDS = ("direct", "amg")

# The agreement check runs on a grid large enough that the AMG
# hierarchy has a real coarse level (below ~3000 nodes the coarse LU is
# the whole preconditioner).
COARSE, AMG_GRID = (12, 10), (30, 25)

_MODELS = {}


def _model(
    tiers: int, die_um: int, solver: str, grid=COARSE
) -> CompactThermalModel:
    key = (tiers, die_um, solver, grid)
    if key not in _MODELS:
        stack = build_3d_mpsoc(
            tiers, CoolingMode.LIQUID, die_thickness=die_um * 1e-6
        )
        _MODELS[key] = CompactThermalModel(
            stack, nx=grid[0], ny=grid[1], solver=solver
        )
    return _MODELS[key]


stacks = st.tuples(st.sampled_from([2, 4]), st.sampled_from([50, 150, 300]))
flows = st.floats(FLOW_RATE_MIN_ML_MIN, FLOW_RATE_MAX_ML_MIN)
power_maps = st.lists(
    st.floats(0.0, 6.0, allow_nan=False), min_size=48, max_size=48
)


def _powers(model: CompactThermalModel, values) -> dict:
    return dict(zip(model.block_order, values))


def _heat_out(model: CompactThermalModel, field) -> float:
    return model.heat_removed_by_coolant(field) + model.heat_removed_by_sink(
        field
    )


@given(stack=stacks, flow=flows, values=power_maps)
@settings(max_examples=25, deadline=None)
def test_direct_and_amg_steady_solves_agree(stack, flow, values):
    direct = _model(*stack, "direct", AMG_GRID)
    amg = _model(*stack, "amg", AMG_GRID)
    powers = _powers(direct, values)
    expected = direct.steady_state(powers, flow).values
    solved = amg.steady_state(powers, flow).values
    assert amg.last_steady_diagnostics.method == "bicgstab+amg"
    np.testing.assert_allclose(solved, expected, rtol=1e-8, atol=0.0)


@pytest.mark.parametrize("solver", BACKENDS)
@given(stack=stacks, flow=flows, values=power_maps)
@settings(max_examples=30, deadline=None)
def test_steady_energy_balance(solver, stack, flow, values):
    """Coolant plus sink carry out exactly the injected power."""
    model = _model(*stack, solver)
    model.set_flow(flow)
    powers = _powers(model, values)
    total = sum(powers.values())
    field = model.steady_state(powers)
    assert abs(total - _heat_out(model, field)) <= 1e-9 * max(total, 1.0)


@pytest.mark.parametrize("solver", BACKENDS)
@given(stack=stacks, flow=flows, values=power_maps)
@settings(max_examples=30, deadline=None)
def test_transient_step_energy_balance(solver, stack, flow, values):
    """One backward-Euler step: ``P_in - Q_out - 1^T C dT / dt = 0``."""
    model = _model(*stack, solver)
    model.set_flow(flow)
    powers = _powers(model, values)
    total = sum(powers.values())
    dt = 0.1
    initial = model.uniform_field(model.inlet_temperature)
    stepper = TransientStepper(model, dt, initial)
    field = stepper.step(powers)
    stored = float(model.capacitance @ (field.values - initial.values)) / dt
    imbalance = total - _heat_out(model, field) - stored
    assert abs(imbalance) <= 1e-9 * max(total, 1.0)


@given(
    stack=stacks,
    values=power_maps,
    pair=st.tuples(flows, flows).map(sorted),
)
@settings(max_examples=40, deadline=None)
def test_higher_flow_never_raises_the_peak(stack, values, pair):
    model = _model(*stack, "direct")
    powers = _powers(model, values)
    low, high = pair
    peak_low = model.steady_state(powers, low).max()
    peak_high = model.steady_state(powers, high).max()
    assert peak_high <= peak_low + 1e-9
