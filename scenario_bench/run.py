"""Scenario-level benchmark of the 3D-MPSoC reproduction.

Run from the repository root::

    python3 scenario_bench/run.py --workload policy_grid --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` times the workload untraced and reports the end-to-end
metrics; ``--trace 1`` makes separate traced passes and reports the
per-layer ledger.  Human-readable tables go to stdout first; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--jobs N`` caps each pass at N jobs (smoke tests).
The workloads and metrics are described in README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Workload and metric names and units come from the benchmark's contract.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

SETUP_REPEATS = 3
# Host speed probe: splu of a 7-point Laplacian on this grid (3456 nodes,
# about 30 ms per factorization on a 2-vCPU VM), median of the repeats.
PROBE_GRID = (24, 24, 6)
PROBE_REPEATS = 9
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

def _import_program() -> None:
    """Make ``repro`` and the benchmark modules importable, or exit."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))


def build_inputs(workload: str, seed: int, limit: Optional[int]):
    import inputs
    import workloads as w

    if workload == "policy_grid":
        specs = inputs.policy_grid(seed)
    elif workload == "twophase_mix":
        specs = inputs.twophase_mix(seed)
    else:
        return w.service_schedule(seed, limit)
    return specs if limit is None else specs[:limit]


# ---------------------------------------------------------------------------
# environment and set-up
# ---------------------------------------------------------------------------


def run_environment() -> Dict[str, object]:
    """Recorded, never set: the thread settings stay the caller's."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
        blas_config = blas.get("openblas configuration", "")
    except (TypeError, KeyError, ValueError):
        blas_build, blas_config = "unknown", ""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_build,
        "blas_config": blas_config,
        "platform": platform.platform(),
        "thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
    }


def host_probe_ms() -> float:
    """Median wall time of one sparse LU of a fixed matrix [ms].

    The matrix depends on nothing in the program, so the figure moves
    only with the host.  Taken before and after the measured phase, it
    shows runs made in different host speed regimes, and runs during
    which the regime changed.
    """
    import numpy as np
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    def chain(n: int):
        return sp.diags(
            [-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]
        )

    nx, ny, nz = PROBE_GRID
    eye = sp.identity
    matrix = (
        sp.kron(sp.kron(chain(nz), eye(ny)), eye(nx))
        + sp.kron(sp.kron(eye(nz), chain(ny)), eye(nx))
        + sp.kron(sp.kron(eye(nz), eye(ny)), chain(nx))
        + 1e-3 * eye(nx * ny * nz)
    ).tocsc()
    splu(matrix)  # warm-up
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        splu(matrix)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def probe_setup(workload: str, seed: int) -> float:
    """Fresh interpreter -> program imported and inputs built [s]."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        check=True,
        cwd=ROOT,
    )
    return time.perf_counter() - start


def work_dir(workload: str, trace: int) -> Path:
    import workloads as w

    path = w.WORK_DIR / f"{workload}-trace{trace}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------------
# end-to-end runs (--trace 0)
# ---------------------------------------------------------------------------


def percentile(values: List[float], q: float) -> float:
    """The ``q``-th percentile (``statistics.quantiles``, inclusive)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload: str, seed: int, seconds: float, limit, tally):
    import workloads as w

    setups: List[float] = []
    service = None
    if workload == "service_mix":
        work = work_dir(workload, 0)
        try:
            for attempt in range(SETUP_REPEATS):
                probe = probe_setup(workload, seed)
                start = time.perf_counter()
                service = w.Service(work / f"svc{attempt}")
                service.wait_ready()
                setups.append(probe + time.perf_counter() - start)
                if attempt < SETUP_REPEATS - 1:
                    service.stop()
            timed = w.service_mix_timed(
                service, build_inputs(workload, seed, limit), seconds, tally,
                limit,
            )
        finally:
            if service is not None:
                service.stop()
    else:
        setups = [probe_setup(workload, seed) for _ in range(SETUP_REPEATS)]
        specs = build_inputs(workload, seed, limit)
        measure = (
            w.policy_grid_timed if workload == "policy_grid"
            else w.twophase_mix_timed
        )
        timed = measure(specs, seconds, tally)
    latencies = timed.latencies_s or [0.0]
    jobs = max(timed.jobs, 1)
    values = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": timed.jobs / timed.wall_s,
        "job_p50_s": statistics.median(latencies),
        "job_p90_s": percentile(latencies, 90),
        "cpu_s_per_job": timed.cpu_s / jobs,
        "peak_rss_mb": w.peak_rss_mb(),
    }
    notes = {
        "jobs": timed.jobs,
        "timed_wall_s": timed.wall_s,
        "latency_samples": len(timed.latencies_s),
        "setup_samples": setups,
        **timed.extra,
    }
    return values, notes


# ---------------------------------------------------------------------------
# traced runs (--trace 1)
# ---------------------------------------------------------------------------

LEDGER_LAYERS = (
    ("scenario.build_s", "scenario.build"),
    ("scenario.run_self_s", "scenario.run"),
    ("thermal.assemble_s", "thermal.assemble"),
    ("thermal.factor_steady_s", "thermal.factor.steady"),
    ("thermal.factor_transient_s", "thermal.factor.transient"),
    ("thermal.solve_s", "thermal.solve"),
    ("thermal.steady_s", "thermal.steady"),
    ("cooling.update_s", "cooling.update"),
    ("core.policy_s", "core.policy"),
    ("core.simulator_self_s", "core.simulator"),
    ("power.block_powers_s", "power.block_powers"),
)
SERVICE_LAYERS = (
    "service.submit_s",
    "service.queue_wait_s",
    "service.job_run_s",
    "service.dedupe_share",
    "service.retries",
    "service.worker_deaths",
    "service.wal_bytes_per_job",
    "obs.events_bytes_per_job",
    "obs.events_lines_per_job",
)
# Spans whose self time is whatever no named layer explains.
RESIDUAL_SPANS = ("scenario.run", "core.simulator", "service.worker")


def named_self_time(recorder) -> float:
    """Self time of the named layers, the residual spans left out."""
    return sum(
        seconds for name, seconds in recorder.self_times().items()
        if name not in RESIDUAL_SPANS
    )


def ledger_values(recorder, metric_delta, jobs: int) -> Dict[str, float]:
    """Per-job self times, factor counts and cache ratios."""
    self_times = recorder.self_times()
    counts = recorder.counts()
    per_job = max(jobs, 1)

    def counter(name: str) -> float:
        return float(metric_delta.get(name, {}).get("value", 0))

    values = {
        metric: self_times.get(span, 0.0) / per_job
        for metric, span in LEDGER_LAYERS
    }
    steady = counts.get("thermal.factor.steady", 0)
    transient = counts.get("thermal.factor.transient", 0)
    values["thermal.factor_s"] = (
        values["thermal.factor_steady_s"] + values["thermal.factor_transient_s"]
    )
    values["thermal.factor_count"] = (steady + transient) / per_job
    values["thermal.factor_steady_count"] = steady / per_job
    values["thermal.factor_transient_count"] = transient / per_job
    hits = counter("thermal.transient_cache.hits")
    misses = counter("thermal.transient_cache.misses")
    values["thermal.factor_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    marches = counter("cooling.march_calls")  # cache misses only
    march_hits = counter("cooling.march_cache_hits")
    values["cooling.march_count"] = marches / per_job
    values["cooling.march_hit_ratio"] = (
        march_hits / (march_hits + marches) if march_hits + marches else 0.0
    )
    values["ledger.traced_jobs"] = float(jobs)
    return values


def traced_in_process(workload, seed, seconds, limit, tally, work):
    """Paired untraced/traced serial runs (+ one pool batch for the grid)."""
    import workloads as w
    from ledger import SpanRecorder

    specs = build_inputs(workload, seed, limit)
    processes, parallel_wall = 1, None
    if workload == "policy_grid":
        processes = w.GRID_PROCESSES
        start = time.perf_counter()
        w.grid_batch(specs, tally, [])
        parallel_wall = time.perf_counter() - start
    w.run_in_process(specs[0], tally)  # warm-up: one-time imports and caches
    recorder = SpanRecorder()
    untraced, traced, delta = w.paired_serial_pass(specs, tally, recorder)
    recorder.write(work / "spans.jsonl")
    busy = recorder.root_time("scenario.run")
    values = ledger_values(recorder, delta, recorder.counts().get("scenario.run", 0))
    values["analysis.fanout_efficiency"] = busy / (
        processes * (parallel_wall if parallel_wall is not None else untraced)
    )
    values["obs.trace_overhead_share"] = (traced - untraced) / untraced
    values["ledger.coverage"] = sum(recorder.self_times().values()) / traced
    values["ledger.named_share"] = named_self_time(recorder) / traced
    values.update({name: 0.0 for name in SERVICE_LAYERS})
    return values


def traced_service(workload, seed, seconds, limit, tally, work):
    """Untraced closed loop, then the same submits against a traced service."""
    import workloads as w

    schedule = build_inputs(workload, seed, limit)
    service = w.Service(work / "untraced")
    service.wait_ready()
    try:
        submits, untraced = w.service_loop(
            service.client, schedule, seconds=seconds / 2, count=limit
        )
        w.check_service_results(service.client, submits, tally)
    finally:
        service.stop()
    spans_dir = work / "spans"
    service = w.Service(work / "traced", spans_dir=spans_dir)
    service.wait_ready()
    try:
        submits, traced = w.service_loop(
            service.client, schedule, count=len(submits)
        )
        w.check_service_results(service.client, submits, tally)
        artifacts = w.service_artifacts(service.root, service.client)
        w.wait_for_span_files(spans_dir, int(artifacts["service.jobs_solved"]))
    finally:
        service.stop()
    recorder, delta = w.worker_spans(spans_dir)
    recorder.write(work / "spans.jsonl")
    jobs = recorder.counts().get("scenario.run", 0)
    values = ledger_values(recorder, delta, jobs)
    busy = recorder.root_time("service.worker")
    values["analysis.fanout_efficiency"] = busy / (w.SERVICE_WORKERS * traced)
    values["obs.trace_overhead_share"] = (traced - untraced) / untraced
    job_run_total = artifacts["service.job_run_total_s"]
    values["ledger.coverage"] = (
        sum(recorder.self_times().values()) / job_run_total
    )
    values["ledger.named_share"] = named_self_time(recorder) / job_run_total
    values["service.submit_s"] = statistics.median(s.submit_s for s in submits)
    values["service.dedupe_share"] = sum(
        s.disposition != "new" for s in submits
    ) / len(submits)
    values.update({name: artifacts[name] for name in SERVICE_LAYERS if name in artifacts})
    return values


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def print_table(title: str, values: Dict[str, float], units: Dict[str, str]):
    print(title)
    for name in units:
        if name in values:
            print(f"  {name:34s} {values[name]:>14.6g} {units[name]}")


def run_all(args) -> int:
    """Every workload end to end, then every traced ledger, one by one.

    Each run is a fresh interpreter, as the per-workload command is; the
    last line merges their results, metrics keyed ``<workload>/<name>``.
    """
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for trace in (0, 1):
        for workload in WORKLOADS:
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            if args.jobs is not None:
                command += ["--jobs", str(args.jobs)]
            done = subprocess.run(
                command, cwd=ROOT, check=True, capture_output=True, text=True
            )
            *report, last = done.stdout.strip().splitlines()
            print("\n".join(report), flush=True)
            result = json.loads(last)
            merged["correct"] = merged["correct"] and result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                merged["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True,
                        help="'all': every workload end to end, then traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=None,
                        help="cap each pass at this many jobs (smoke test)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    _import_program()
    if args.setup_probe:
        build_inputs(args.workload, args.seed, args.jobs)
        return 0
    if args.workload == "all":
        return run_all(args)

    import workloads as w

    environment = run_environment()
    probe_before = host_probe_ms()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    tally = w.load_tally()
    if args.trace:
        work = work_dir(args.workload, 1)
        run: Callable = (
            traced_service if args.workload == "service_mix"
            else traced_in_process
        )
        values = run(args.workload, args.seed, args.seconds, args.jobs,
                     tally, work)
        units = PER_LAYER_UNITS
        print_table("per-layer ledger (per traced job unless noted):",
                    values, units)
        print(f"ledger: self times sum to {values['ledger.coverage']:.3%} of "
              f"the traced blocking time, {values['ledger.named_share']:.3%} "
              f"in named layers (the rest is the residual "
              f"{', '.join(RESIDUAL_SPANS)}); tracing overhead "
              f"{values['obs.trace_overhead_share']:+.3%}")
    else:
        values, notes = end_to_end(args.workload, args.seed, args.seconds,
                                   args.jobs, tally)
        units = E2E_UNITS
        print(f"timed phase: {json.dumps(notes)}")
        print_table("end-to-end:", values, units)
    environment["host_probe_ms"] = {
        "before": probe_before, "after": host_probe_ms(),
    }
    print(f"environment: {json.dumps(environment, sort_keys=True)}")
    failed_share = tally.failed / max(tally.attempted, 1)
    print(f"  {'failed_share':34s} {failed_share:>14.6g} 1 "
          f"({tally.failed} of {tally.attempted})")
    for problem in tally.problems[:20]:
        print(f"  FAILED {problem}")
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
