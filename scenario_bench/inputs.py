"""Seeded workload inputs: the scenario specs each benchmark workload runs.

Every spec is drawn from a finite pool whose observables are committed
in ``reference.json``, so any ``--seed`` yields inputs with a known
expected outcome.  A spec's pool identity is its *reference key*
(tiers, cooling, policy, workload, duration, trace seed), which stays
stable even if the scenario content hash changes with the code.
"""

from __future__ import annotations

import random
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.scenario import PolicySpec, Scenario, StackSpec, WorkloadSpec

ROOT = Path(__file__).resolve().parent.parent
TWOPHASE_SPEC = ROOT / "examples" / "specs" / "two_tier_twophase.json"

POLICIES = ("AC_LB", "AC_TDVFS_LB", "LC_LB", "LC_FUZZY")
WORKLOADS = ("web", "database", "multimedia", "max-utilisation")

# Trace-seed pools.  The seed argument picks from these; references
# cover every member, so no seed can produce an unchecked input.
GRID_SEEDS = tuple(range(8))
TWOPHASE_FIXED_SEEDS = (None, 0, 1)  # hold the known dry-out runs
TWOPHASE_SEEDS = tuple(range(2, 10))
SERVICE_SMALL_SEEDS = tuple(range(128))  # 2-tier, 10 s
SERVICE_LARGE_SEEDS = tuple(range(24))  # 4-tier, 30 s

# A claim on any workload must also hold on this seed, which is used
# neither while tuning the benchmark nor while writing a change.
HELD_OUT_SEED = 9001

Key = str


def reference_key(scenario: Scenario) -> Key:
    """Stable pool identity of a spec (independent of code version)."""
    stack, workload = scenario.stack, scenario.workload
    kind = "2ph" if stack.two_phase else stack.cooling
    return (
        f"{stack.tiers}t/{kind}/{scenario.policy.name}/{workload.name}/"
        f"{workload.duration}s/seed={workload.seed}"
    )


def grid_point(
    tiers: int, policy: str, workload: str, seed: Optional[int], duration: int
) -> Scenario:
    """One point of the Section IV-A policy grid."""
    policy_spec = PolicySpec(name=policy)
    return Scenario(
        stack=StackSpec(tiers=tiers, cooling=policy_spec.cooling),
        workload=WorkloadSpec(name=workload, duration=duration, seed=seed),
        policy=policy_spec,
        label=f"{tiers}-tier {policy} {workload} seed={seed}",
    )


def twophase_point(base: Scenario, workload: str, seed: Optional[int]) -> Scenario:
    """The shipped two-phase spec on another workload / trace seed."""
    return replace(
        base,
        workload=replace(base.workload, name=workload, seed=seed),
        label=f"2-tier two-phase {workload} seed={seed}",
    )


def policy_grid(seed: int) -> List[Scenario]:
    """{2, 4} tiers x 4 policies x 4 workloads, 60 s, one trace seed each.

    Jobs are ordered 4-tier first: the pool's makespan then does not
    depend on where a long job happens to land in the order.
    """
    rng = random.Random(f"policy_grid/{seed}")
    return [
        grid_point(tiers, policy, workload, rng.choice(GRID_SEEDS), 60)
        for tiers in (4, 2)
        for policy in POLICIES
        for workload in WORKLOADS
    ]


def twophase_mix(seed: int) -> List[Scenario]:
    """The shipped two-phase spec over 4 workloads x 4 trace seeds.

    Three trace seeds are fixed (None, 0, 1: web None/0 and database 1
    dry out, and are kept as checked outcomes); the fourth per workload
    comes from the seed.  The run order is shuffled by the seed.
    """
    rng = random.Random(f"twophase_mix/{seed}")
    base = Scenario.load(TWOPHASE_SPEC)
    specs = [
        twophase_point(base, workload, trace_seed)
        for workload in WORKLOADS
        for trace_seed in TWOPHASE_FIXED_SEEDS + (rng.choice(TWOPHASE_SEEDS),)
    ]
    rng.shuffle(specs)
    return specs


def service_small(workload: str, seed: int) -> Scenario:
    return grid_point(2, "LC_FUZZY", workload, seed, 10)


def service_large(workload: str, seed: int) -> Scenario:
    return grid_point(4, "LC_FUZZY", workload, seed, 30)


def service_schedule(seed: int, length: int) -> List[Tuple[Scenario, bool]]:
    """The submit sequence of ``service_mix``: ``(spec, is_resubmit)``.

    Exactly 3 of every 20 submits resend an earlier spec, which the
    service answers by dedupe or from its result cache; exactly 1 of
    every 6 new jobs is a 4-tier 30 s LC_FUZZY spec and the other 5 are
    2-tier 10 s.  With 1 in 6 the 4-tier jobs are about 14% of submits,
    so the latency p90 falls inside their population rather than on its
    edge, where it would jump between the two job sizes.  Fixed
    proportions (only positions and specs are drawn) keep the amount of
    work per submit independent of the seed.  New specs are drawn
    without replacement, so only resubmits repeat.
    """
    rng = random.Random(f"service_mix/{seed}")
    small = [service_small(w, s) for w in WORKLOADS for s in SERVICE_SMALL_SEEDS]
    large = [service_large(w, s) for w in WORKLOADS for s in SERVICE_LARGE_SEEDS]
    rng.shuffle(small)
    rng.shuffle(large)
    schedule: List[Tuple[Scenario, bool]] = []
    sent: List[Scenario] = []
    new_kinds: List[bool] = []  # True = large
    while len(schedule) < length:
        block = [True] * 3 + [False] * 17  # True = resubmit
        rng.shuffle(block)
        for resubmit in block:
            if resubmit and sent:
                schedule.append((rng.choice(sent), True))
                continue
            if not new_kinds:
                new_kinds = [True] + [False] * 5
                rng.shuffle(new_kinds)
            pool = large if new_kinds.pop() else small
            if not pool:
                raise ValueError(
                    f"service schedule of {length} exhausts its spec pool"
                )
            sent.append(pool.pop())
            schedule.append((sent[-1], False))
    return schedule[:length]


def reference_pool() -> Dict[Key, Scenario]:
    """Every spec any seed can produce, keyed by reference key."""
    base = Scenario.load(TWOPHASE_SPEC)
    specs = [
        grid_point(t, p, w, s, 60)
        for t in (4, 2)
        for p in POLICIES
        for w in WORKLOADS
        for s in GRID_SEEDS
    ]
    specs += [
        twophase_point(base, w, s)
        for w in WORKLOADS
        for s in TWOPHASE_FIXED_SEEDS + TWOPHASE_SEEDS
    ]
    specs += [service_small(w, s) for w in WORKLOADS for s in SERVICE_SMALL_SEEDS]
    specs += [service_large(w, s) for w in WORKLOADS for s in SERVICE_LARGE_SEEDS]
    return {reference_key(spec): spec for spec in specs}
