"""``repro serve`` with the per-layer span wrappers installed.

Used only by the traced run of ``service_mix``.  The service forks its
workers, so each worker inherits the wrappers; this launcher also wraps
``worker_main`` so that every worker writes its spans and its metric
delta to ``<spans_dir>/worker-<pid>.json`` when its job ends.

    python3 scenario_bench/serve_traced.py SPANS_DIR -- SERVE_ARGS...
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from ledger import SpanRecorder, instrumented  # noqa: E402

from repro import cli  # noqa: E402
from repro.obs.metrics import get_registry  # noqa: E402
from repro.service import supervisor  # noqa: E402


def traced_worker_main(spans_dir: Path, recorder: SpanRecorder, original):
    def worker_main(*args, **kwargs):
        recorder.spans.clear()
        registry = get_registry()
        start = registry.snapshot()
        try:
            with recorder.span("service.worker"):
                original(*args, **kwargs)
        finally:
            payload = {
                "spans": recorder.spans,
                "metrics": registry.delta_since(start),
            }
            path = spans_dir / f"worker-{os.getpid()}.json"
            path.write_text(json.dumps(payload), encoding="utf-8")

    return worker_main


def main(argv) -> int:
    spans_dir = Path(argv[1])
    if argv[2] != "--":
        raise SystemExit(__doc__)
    spans_dir.mkdir(parents=True, exist_ok=True)
    recorder = SpanRecorder()
    original = supervisor.worker_main
    supervisor.worker_main = traced_worker_main(spans_dir, recorder, original)
    try:
        with instrumented(recorder):
            return cli.main(["serve", *argv[3:]])
    finally:
        supervisor.worker_main = original


if __name__ == "__main__":
    sys.exit(main(sys.argv))
