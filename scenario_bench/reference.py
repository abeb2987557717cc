"""Committed reference observables and the check every run is held to.

``reference.json`` maps each pool spec's reference key (see
:mod:`inputs`) to its expected outcome: the run's observables, or the
name of the typed error it must raise (the two-phase dry-out runs end in
``CoolingDryoutError`` by design).

The script fills in the references of pool specs that have none and
drops those of specs no longer in the pool.  After a change that is
*meant* to move the physics, delete ``reference.json`` and rerun it::

    python3 scenario_bench/reference.py
"""

from __future__ import annotations

import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Dict, Mapping, Optional

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

from inputs import Key, reference_pool  # noqa: E402

from repro.scenario import Runner, Scenario  # noqa: E402
from repro.thermal.diagnostics import ThermalSolveError  # noqa: E402

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
REFERENCE_PROCESSES = 2

# Observables compared for in-process runs; the service's ``result``
# verb carries the subset in SERVICE_OBSERVABLES.
OBSERVABLES = (
    "peak_temperature_c",
    "chip_energy_j",
    "pump_energy_j",
    "hotspot_percent_avg",
    "hotspot_percent_any",
    "mean_flow_ml_min",
    "degradation_percent",
    "dryout_margin",
)
SERVICE_OBSERVABLES = (
    "peak_temperature_c",
    "chip_energy_j",
    "pump_energy_j",
    "hotspot_percent_any",
    "mean_flow_ml_min",
    "degradation_percent",
)
# Loose enough for a reordered floating-point sum, far tighter than any
# physical change.
REL_TOL = 1e-6
ABS_TOL = 1e-9


def outcome_of_result(result) -> Dict[str, Optional[float]]:
    return {name: getattr(result, name) for name in OBSERVABLES}


def outcome_of_error(exc: BaseException) -> Dict[str, str]:
    return {"error": type(exc).__name__}


def load_reference(path: Path = REFERENCE_PATH) -> Dict[Key, dict]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def mismatch(
    expected: Optional[Mapping], observed: Mapping, names=OBSERVABLES
) -> Optional[str]:
    """``None`` when ``observed`` matches ``expected``, else why not."""
    if expected is None:
        return "no reference for this input"
    if "error" in expected or "error" in observed:
        if expected.get("error") != observed.get("error"):
            return f"expected {expected.get('error', 'a result')}, got " + (
                str(observed.get("error", "a result"))
            )
        return None
    for name in names:
        want, got = expected.get(name), observed.get(name)
        if want is None or got is None:
            if want is not got:
                return f"{name}: expected {want!r}, got {got!r}"
            continue
        if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return f"{name}: expected {want!r}, got {got!r}"
    return None


def _reference_outcome(spec: Scenario) -> dict:
    try:
        return outcome_of_result(Runner(spec).run())
    except ThermalSolveError as exc:
        return outcome_of_error(exc)


def main() -> int:
    pool = reference_pool()
    known = load_reference() if REFERENCE_PATH.exists() else {}
    reference = {key: known[key] for key in pool if key in known}
    missing = sorted(key for key in pool if key not in known)
    with ProcessPoolExecutor(max_workers=REFERENCE_PROCESSES) as executor:
        outcomes = executor.map(_reference_outcome, [pool[k] for k in missing])
        reference.update(zip(missing, outcomes))
    REFERENCE_PATH.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    errors = sum(1 for o in reference.values() if "error" in o)
    print(f"wrote {len(reference)} references ({len(missing)} new, "
          f"{errors} typed errors) to {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
