"""The sweep engine: steady sweeps and simulation fan-out."""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import (
    SimulationJob,
    SteadyCase,
    SteadySweep,
    fan_out,
    run_simulations,
)
from repro.core import paper_policies
from repro.geometry import build_3d_mpsoc
from repro.scenario import Scenario
from repro.scenario.runner import build_model
from repro.thermal import CompactThermalModel, CoolingDryoutError
from repro.workload import paper_workload_suite


def _cases(model, flows):
    rng = np.random.default_rng(2)
    cases = []
    for k, flow in enumerate(flows):
        powers = {
            ref: float(p)
            for ref, p in zip(
                model.block_order,
                rng.uniform(0.5, 4.0, len(model.block_order)),
            )
        }
        cases.append(SteadyCase(block_powers=powers, flow_ml_min=flow))
    return cases


def test_steady_sweep_matches_point_by_point_bitwise():
    model = CompactThermalModel(build_3d_mpsoc(2), nx=12, ny=10)
    cases = _cases(model, [None, 30.0, 30.0, 55.0, None, 55.0])
    swept = SteadySweep(model).solve(cases)
    for case, field in zip(cases, swept):
        direct = model.steady_state(dict(case.block_powers), case.flow_ml_min)
        assert np.array_equal(field.values, direct.values)


def test_steady_sweep_is_steady_state_on_twophase_and_amg_models():
    """The sweep keeps the dynamic two-phase rhs and the model's backend."""
    specs = Path(__file__).resolve().parent.parent / "examples" / "specs"
    model = build_model(Scenario.load(specs / "two_tier_twophase.json"))
    powers = {ref: 3.0 for ref in model.block_order}
    model.update_cooling(model.pack_powers(powers))
    assert model.cooling_rhs() is not None
    [swept] = SteadySweep(model).solve([SteadyCase(powers)])
    assert np.array_equal(swept.values, model.steady_state(powers).values)

    amg = CompactThermalModel(build_3d_mpsoc(2), nx=12, ny=10, solver="amg")
    SteadySweep(amg).solve(_cases(amg, [None, 30.0]))
    assert amg.steady_stats.amg_solves == 2
    assert amg.steady_stats.direct_solves == 0
    lu_keys = [amg._steady_bank_key(flow) for flow in (None, 30.0)]
    assert not any(key in amg.factor_bank for key in lu_keys)


def test_steady_sweep_factorises_once_per_flow():
    model = CompactThermalModel(build_3d_mpsoc(2), nx=12, ny=10)
    sweep = SteadySweep(model)
    sweep.solve(_cases(model, [20.0, 20.0, 20.0, 45.0, 45.0, None]))
    info = model.steady_cache_info()
    # Three distinct flow states, six cases: three factorisations.
    assert info.misses == 3
    # A repeat sweep is all cache hits.
    sweep.solve(_cases(model, [20.0, 45.0, None]))
    assert model.steady_cache_info().misses == 3


def test_peak_temperatures_monotonic_in_flow():
    model = CompactThermalModel(build_3d_mpsoc(2), nx=12, ny=10)
    powers = {ref: 3.0 for ref in model.block_order}
    flows = [15.0, 30.0, 60.0, 120.0]
    peaks = SteadySweep(model).peak_temperatures(
        [SteadyCase(powers, flow) for flow in flows]
    )
    assert np.all(np.diff(peaks) < 0.0)  # more coolant, cooler stack


def _square(x):
    return x * x


def test_fan_out_orders_and_parallelises():
    items = list(range(8))
    serial = fan_out(_square, items)
    assert serial == [x * x for x in items]
    parallel = fan_out(_square, items, processes=2)
    assert parallel == serial


@pytest.mark.parametrize("processes", [None, 2])
def test_run_simulations_fan_out(processes):
    policies = {p.name: p for p in paper_policies()}
    policy = policies["LC_LB"]
    suite = paper_workload_suite(threads=32, duration=2)
    jobs = [
        SimulationJob(
            stack=build_3d_mpsoc(2, policy.cooling),
            policy=policy,
            trace=suite[workload],
            key=workload,
            kwargs={"nx": 12, "ny": 10},
        )
        for workload in ("web", "database")
    ]
    results = run_simulations(jobs, processes=processes)
    assert [key for key, _ in results] == ["web", "database"]
    for key, result in results:
        assert result.workload == key
        assert result.duration == pytest.approx(2.0)
        assert result.peak_temperature_c > 27.0


def _fail_slow_then_fast(arg):
    directory, x = arg
    (Path(directory) / f"ran-{x}.txt").write_text("ran")
    if x == 0:
        time.sleep(0.5)
    raise ValueError(f"bad item {x}")


@pytest.mark.parametrize("processes", [None, 2])
def test_fan_out_reraises_the_first_failure_in_item_order(processes, tmp_path):
    """Item 1 fails first in time, item 0 first in order: item 0 wins.

    No item starts after a failure, so only the two that were running
    ever ran (serially, only item 0).
    """
    items = [(str(tmp_path), x) for x in range(6)]
    with pytest.raises(ValueError, match="bad item 0"):
        fan_out(_fail_slow_then_fast, items, processes=processes)
    ran = sorted(path.name for path in tmp_path.glob("ran-*.txt"))
    expected = ["ran-0.txt"] if processes is None else ["ran-0.txt", "ran-1.txt"]
    assert ran == expected


def _dryout_scenario():
    """A two-phase loop whose inlet is forced past the dry-out limit."""
    return Scenario.from_dict(
        {
            "stack": {
                "tiers": 2,
                "two_phase": True,
                "cooling_backend": {
                    "backend": "two_phase",
                    "refrigerant": "R245fa",
                },
            },
            "workload": {"name": "web", "duration": 2},
            "policy": {"name": "LC_FUZZY"},
            "solver": {"nx": 12, "ny": 10},
            "faults": {"flows": [{"kind": "dryout", "inlet_quality": 0.5}]},
        }
    )


@pytest.mark.parametrize("processes", [None, 2])
def test_run_simulations_raises_the_dryout_error(processes):
    with pytest.raises(CoolingDryoutError):
        run_simulations([_dryout_scenario()], processes=processes)


class _PidJob(SimulationJob):
    """A job whose ``run`` returns a tuple, like the benchmark's timed job."""

    def run(self, cache=None):
        return super().run(cache=cache), os.getpid()


def test_run_simulations_returns_what_a_job_subclass_run_returns():
    scenario = Scenario.from_dict(
        {
            "workload": {"name": "web", "duration": 2},
            "policy": {"name": "LC_LB"},
            "solver": {"nx": 12, "ny": 10},
        }
    )
    jobs = [_PidJob.from_scenario(scenario, key=k) for k in ("a", "b")]
    results = run_simulations(jobs, processes=2)
    assert [key for key, _ in results] == ["a", "b"]
    for _, (result, pid) in results:
        assert result.duration == pytest.approx(2.0)
        assert pid != os.getpid()  # ran in a pool worker
