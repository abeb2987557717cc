"""Per-layer ledger: spans recorded around calls into each layer.

The program is not modified: :func:`instrumented` temporarily replaces
a layer's public function (a class attribute, or a module-level name a
layer calls through) with a wrapper that records a span, and restores
the original on exit.  Spans (name, start, end, parent) stay in memory
until :meth:`SpanRecorder.write` dumps them.

A layer's *self time* is its span duration minus the part covered by
its child spans, so the self times of all spans under one root sum to
the root's duration.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.policies import (
    AirLoadBalancing,
    AirTDVFSLoadBalancing,
    LiquidFuzzy,
    LiquidLoadBalancing,
)
from repro.core.simulator import SystemSimulator
from repro.power.model import PowerModel
from repro.scenario.runner import Runner
from repro.thermal import model as thermal_model
from repro.thermal import solver as thermal_solver

_clock = time.perf_counter

# (owner, attribute, span name).  Owners are classes (methods) or
# modules (names the layer resolves at call time, such as ``splu``).
LAYER_BOUNDARIES: Tuple[Tuple[object, str, str], ...] = (
    (Runner, "run", "scenario.run"),
    (Runner, "build_simulator", "scenario.build"),
    (thermal_model.CompactThermalModel, "__init__", "thermal.assemble"),
    (thermal_model, "splu", "thermal.factor.steady"),
    (thermal_solver, "splu", "thermal.factor.transient"),
    (thermal_solver.TransientStepper, "step_packed", "thermal.solve"),
    (thermal_model.CompactThermalModel, "steady_state", "thermal.steady"),
    (thermal_model.CompactThermalModel, "update_cooling", "cooling.update"),
    (AirLoadBalancing, "decide", "core.policy"),
    (AirTDVFSLoadBalancing, "decide", "core.policy"),
    (LiquidLoadBalancing, "decide", "core.policy"),
    (LiquidFuzzy, "decide", "core.policy"),
    (SystemSimulator, "run", "core.simulator"),
    (PowerModel, "block_powers", "power.block_powers"),
)


class SpanRecorder:
    """In-memory span list with a parent stack (single thread)."""

    def __init__(self) -> None:
        # [name, start, end, parent index or -1]
        self.spans: List[list] = []
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), None, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = _clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order")

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return wrapper

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, float] = {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            totals[name] = totals.get(name, 0.0) + (end - start - children)
        return totals

    def counts(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for name, *_ in self.spans:
            totals[name] = totals.get(name, 0) + 1
        return totals

    def root_time(self, name: Optional[str] = None) -> float:
        """Summed duration of top-level spans (optionally one name)."""
        return sum(
            end - start
            for span_name, start, end, parent in self.spans
            if parent < 0 and (name is None or span_name == name)
        )

    def write(self, path: Path) -> None:
        """One JSON line per span: name, start, end, parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent}
                    )
                    + "\n"
                )


@contextmanager
def instrumented(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install span wrappers on every layer boundary; undo on exit."""
    saved = []
    try:
        for owner, attr, name in LAYER_BOUNDARIES:
            original = owner.__dict__[attr] if isinstance(owner, type) else (
                getattr(owner, attr)
            )
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(original, name))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
