"""The factor bank: one LU cache keyed by stack, kind, flow and dt.

Covers both modes of :class:`repro.thermal.bank.FactorBank`: the
count-bounded LRU behind every ordinary run, and the byte-capped,
job-pinned bank a warm service worker keeps across jobs.  The warm
path must answer bitwise like cold runs, keep stacks apart, drop
poisoned factors and respect its byte cap without ever refactorising
inside a job.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.scenario import (
    PolicySpec,
    Scenario,
    SolverSpec,
    StackSpec,
    WorkloadSpec,
)
from repro.scenario.runner import Runner, build_model
from repro.thermal.bank import FactorBank, entry_bytes, factor_bytes
from repro.thermal.solver import rebuild_bank_entry

NX, NY = 12, 10


def _spec(workload="database", tiers=2, policy="LC_FUZZY", duration=6, seed=0):
    policy_spec = PolicySpec(name=policy)
    return Scenario(
        stack=StackSpec(tiers=tiers, cooling=policy_spec.cooling),
        workload=WorkloadSpec(name=workload, duration=duration, seed=seed),
        policy=policy_spec,
        solver=SolverSpec(nx=NX, ny=NY),
    )


def _fields(result):
    return (
        result.peak_temperature_c,
        result.chip_energy_j,
        result.pump_energy_j,
        result.hotspot_percent_avg,
        result.hotspot_percent_any,
        result.degradation_percent,
        result.mean_flow_ml_min,
    )


class _Worker:
    """What a warm service worker does per job, without the processes."""

    def __init__(self) -> None:
        self.bank = FactorBank()
        self.models = {}

    def model(self, spec: Scenario):
        key = spec.model_hash()
        if key not in self.models:
            self.models[key] = build_model(spec, factor_bank=self.bank)
        return self.models[key]

    def run(self, spec: Scenario):
        with self.bank.job():
            return Runner(spec, model=self.model(spec)).run()


def _working_set(spec: Scenario) -> int:
    """Bytes one cold job of ``spec`` pins in a fresh byte-capped bank."""
    bank = FactorBank()
    with bank.job():
        Runner(spec, model=build_model(spec, factor_bank=bank)).run()
        return bank.resident_bytes


@pytest.fixture()
def factorisations(monkeypatch):
    """Every bank key stored, in order (one store per factorisation)."""
    stored = []
    original = FactorBank.put

    def put(self, key, entry, nbytes, source=None):
        stored.append(key)
        return original(self, key, entry, nbytes, source)

    monkeypatch.setattr(FactorBank, "put", put)
    return stored


class _NaNFactor:
    """A poisoned factor: every solve returns NaNs."""

    def solve(self, rhs):
        return np.full_like(np.asarray(rhs, dtype=float), np.nan)


# -- count-bounded mode ------------------------------------------------------


def test_count_bounded_bank_is_an_lru():
    bank = FactorBank(max_entries=2)
    for name in ("a", "b"):
        bank.put(("m", "steady", name, None), name, 10)
    assert bank.get(("m", "steady", "a", None)) == "a"  # a is now recent
    bank.put(("m", "steady", "c", None), "c", 10)
    assert ("m", "steady", "b", None) not in bank
    assert len(bank) == 2
    assert bank.resident_bytes == 20
    with pytest.raises(ValueError):
        FactorBank(max_entries=0)


def test_entry_size_comes_from_the_factor_nonzeros():
    from scipy.sparse import identity
    from scipy.sparse.linalg import splu

    matrix = identity(50, format="csc") * 2.0
    factor = splu(matrix)
    assert factor_bytes(factor) == factor.nnz * 12
    rhs = np.zeros(50)
    assert entry_bytes((factor, rhs, matrix.tocsr())) == (
        factor.nnz * 12
        + rhs.nbytes
        + matrix.data.nbytes
        + matrix.indices.nbytes
        + matrix.indptr.nbytes
    )


# -- byte-capped mode: the warm worker's bank ---------------------------------


def test_room_is_made_from_other_stacks_first():
    bank = FactorBank()
    with bank.job():  # pins three 10-byte entries: the cap is 30 bytes
        for flow in ("f1", "f2"):
            bank.put(("a", "transient", flow, 0.1), flow, 10)
        bank.put(("b", "transient", "f1", 0.1), "b1", 10)
    assert bank.cap_bytes == 30
    with bank.job():
        bank.put(("a", "transient", "f3", 0.1), "f3", 10)
    # Stack b's entry is the most recently used, yet it goes first.
    assert ("b", "transient", "f1", 0.1) not in bank
    assert ("a", "transient", "f1", 0.1) in bank
    assert bank.resident_bytes == 30


def test_warm_jobs_answer_bitwise_like_cold_runs():
    specs = [
        _spec("database"),
        _spec("web", seed=1),
        _spec("database", tiers=4, duration=3),
        _spec("multimedia", seed=2),
        _spec("max-utilisation", tiers=4, duration=3, seed=1),
    ]
    worker = _Worker()
    warm = [_fields(worker.run(spec)) for spec in specs]
    cold = [_fields(Runner(spec).run()) for spec in specs]
    assert warm == cold


def test_two_stacks_never_share_an_entry(factorisations):
    # Same stack on a finer grid: same cavities, so the same flow
    # signatures and dt, but a different matrix and model_hash.
    coarse = _spec("web")
    fine = replace(coarse, solver=SolverSpec(nx=NX + 2, ny=NY + 2))
    cold_fine = _fields(Runner(fine).run())
    worker = _Worker()
    factorisations.clear()
    worker.run(coarse)
    stored_coarse = list(factorisations)
    assert _fields(worker.run(fine)) == cold_fine
    stored_fine = factorisations[len(stored_coarse):]

    assert {key[0] for key in stored_coarse} == {coarse.model_hash()}
    assert {key[0] for key in stored_fine} == {fine.model_hash()}
    # Every (kind, flow, dt) the coarse job banked was factorised again
    # for the fine stack rather than served from the coarse entry.
    shared = {key[1:] for key in stored_coarse}
    assert shared <= {key[1:] for key in stored_fine}
    assert fine.model_hash() in worker.bank.stack_bytes()


def test_poisoned_entry_is_evicted_and_the_next_job_refactorises(
    factorisations,
):
    spec = _spec("database")
    worker = _Worker()
    worker.run(spec)
    transient = [key for key in worker.bank._entries if key[1] == "transient"]
    poisoned = transient[0]
    _, boundary, matrix = worker.bank.get(poisoned)
    worker.bank.put(poisoned, (_NaNFactor(), boundary, matrix), 0)
    factorisations.clear()

    again = replace(spec, workload=replace(spec.workload, seed=5))
    assert _fields(worker.run(again)) == _fields(Runner(again).run())
    assert poisoned in factorisations
    factor, _, _ = worker.bank.get(poisoned)
    assert not isinstance(factor, _NaNFactor)


def test_resident_bytes_stay_within_the_largest_job_working_set():
    specs = [
        _spec("web"),
        _spec("database", tiers=4, duration=3),
        _spec("max-utilisation", seed=3),
        _spec("multimedia", tiers=4, duration=3, seed=1),
        _spec("database", seed=4),
    ]
    worker = _Worker()
    largest = 0
    for spec in specs:
        largest = max(largest, _working_set(spec))
        worker.run(spec)
        assert worker.bank.resident_bytes <= largest
        assert worker.bank.cap_bytes <= largest


def test_a_cap_below_the_job_working_set_never_refactors_within_it(
    factorisations,
):
    # A one-flow job sets a small cap; the fuzzy job after it needs
    # more than that cap, and must still factorise each key only once.
    worker = _Worker()
    worker.run(_spec("web", policy="LC_LB"))
    cap = worker.bank.cap_bytes
    big = _spec("max-utilisation", tiers=4, duration=4, seed=2)
    assert _working_set(big) > cap
    factorisations.clear()
    worker.run(big)
    assert factorisations, "the fuzzy job factorised nothing"
    assert len(factorisations) == len(set(factorisations))


# -- record / adopt: how a worker learns from its forked job process ----------


def test_an_adopted_record_serves_the_next_job_without_factorising(
    factorisations,
):
    spec = _spec("max-utilisation", seed=1)
    job = _Worker()  # stands in for the forked job process's copy
    with job.bank.job():
        Runner(spec, model=job.model(spec)).run()
        touched, fresh, dropped = record = job.bank.record()
    assert set(touched) == set(fresh) == set(job.bank._entries)
    assert dropped == []

    worker = _Worker()
    factorisations.clear()
    assert worker.bank.adopt(record, rebuild_bank_entry) == len(fresh)
    assert list(worker.bank._entries) == list(job.bank._entries)
    assert worker.bank.resident_bytes == job.bank.resident_bytes
    assert worker.bank.cap_bytes == job.bank.cap_bytes
    rhs = np.linspace(1.0, 2.0, worker.model(spec).capacitance.size)
    for key in touched:
        mine, theirs = worker.bank.get(key), job.bank.get(key)
        if key[1] == "transient":
            mine, theirs = mine[0], theirs[0]
        assert np.array_equal(mine.solve(rhs), theirs.solve(rhs))

    again = replace(spec, workload=replace(spec.workload, seed=7))
    cold = _fields(Runner(again).run())
    factorisations.clear()
    assert _fields(worker.run(again)) == cold
    assert factorisations == []


def test_a_record_carries_dropped_and_refactorised_entries():
    spec = _spec("database")
    job, worker = _Worker(), _Worker()
    with job.bank.job():
        Runner(spec, model=job.model(spec)).run()
        worker.bank.adopt(job.bank.record(), rebuild_bank_entry)
    poisoned, gone = [k for k in job.bank._entries if k[1] == "transient"][:2]
    with job.bank.job():
        job.bank.pop(gone)
        entry = job.bank.get(poisoned)
        job.bank.pop(poisoned)
        job.bank.put(poisoned, entry, 1, source=entry[1:])
        touched, fresh, dropped = record = job.bank.record()
    assert dropped == [gone]
    assert list(fresh) == [poisoned]
    worker.bank.adopt(record, rebuild_bank_entry)
    assert gone not in worker.bank
    assert poisoned in worker.bank
