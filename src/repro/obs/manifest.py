"""Run manifests: what ran, with which code, at what cost.

Every scenario executed through :class:`repro.scenario.Runner` emits
one manifest — a small JSON-safe dict binding the scenario's content
hash to the package version, the resolved solver backend, wall/CPU
time and the metric rollup of the run.  Stored next to the
:class:`~repro.scenario.cache.ResultCache` entry (``<key>.manifest.json``)
it answers, months later, "what produced this cached result and how
did the solver behave?" without re-running anything.

Schema (``MANIFEST_SCHEMA_VERSION`` guards evolution)::

    {
      "type": "manifest", "schema": 1,
      "content_hash": "<sha256>", "label": "...",
      "version": "<repro version>",
      "solver_backend": "auto" | "direct" | "amg" | "rom",
      "wall_s": float, "cpu_s": float,
      "cached": bool,            # served from the result cache?
      "metrics": {name: {...}}   # MetricsRegistry delta of the run
    }
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

MANIFEST_SCHEMA_VERSION = 1


def build_manifest(
    scenario,
    *,
    version: str,
    solver_backend: str,
    wall_s: float,
    cpu_s: float,
    metrics: dict,
    cached: bool = False,
) -> dict:
    """The manifest record of one scenario run.

    ``scenario`` is a :class:`repro.scenario.Scenario`; typed loosely to
    keep :mod:`repro.obs` import-free of the scenario layer.
    """
    return {
        "type": "manifest",
        "schema": MANIFEST_SCHEMA_VERSION,
        "content_hash": scenario.content_hash(),
        "label": scenario.label,
        "version": version,
        "solver_backend": solver_backend,
        "wall_s": float(wall_s),
        "cpu_s": float(cpu_s),
        "cached": bool(cached),
        "metrics": metrics,
    }


def write_manifest(manifest: dict, path: Union[str, Path]) -> Path:
    """Write a manifest as pretty JSON (atomically via temp + rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    tmp.replace(path)
    return path


def read_manifest(path: Union[str, Path]) -> Optional[dict]:
    """Load a manifest, or ``None`` when missing/corrupt."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError):
        return None
    return payload if isinstance(payload, dict) else None
