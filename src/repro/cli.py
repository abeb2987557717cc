"""Command-line interface.

A thin front-end over the library for users who want results without
writing Python::

    python -m repro run examples/specs/two_tier_fuzzy.json --trace t.jsonl
    python -m repro report trace t.jsonl
    python -m repro simulate --tiers 2 --policy LC_FUZZY --workload web
    python -m repro export-scenario --policy LC_LB --out spec.json
    python -m repro fig8
    python -m repro claims
    python -m repro traces --out traces/ --duration 300

Every simulation command is a thin builder over the declarative
:class:`~repro.scenario.Scenario` layer: ``simulate`` and ``faults``
assemble a scenario from their flags and hand it to the
:class:`~repro.scenario.Runner`, ``export-scenario`` prints that
scenario as JSON, and ``run`` executes a JSON spec directly (optionally
through the hash-keyed on-disk result cache).

The full experiment harness (every table and figure with paper-band
assertions) lives in ``benchmarks/`` and runs under
``pytest benchmarks/ --benchmark-only -s``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

from .analysis import PAPER_CLAIMS, Table
from .core.simulator import SimulationResult
from .obs import JsonlSink, session
from .scenario import (
    ControlSpec,
    CoolingSpec,
    PolicySpec,
    ResultCache,
    Runner,
    Scenario,
    ScenarioError,
    SolverSpec,
    StackSpec,
    WorkloadSpec,
    run_scenario,
)
from .scenario.spec import REFRIGERANT_CHOICES
from .twophase import HotSpotTestVehicle
from .workload import paper_workload_suite, save_trace_csv

POLICY_NAMES = ("AC_LB", "AC_TDVFS_LB", "LC_LB", "LC_FUZZY")


def _result_table(title: str, result: SimulationResult) -> Table:
    """The standard single-run summary table."""
    table = Table(title, ["Metric", "Value"])
    table.add_row("peak temperature [degC]", f"{result.peak_temperature_c:.1f}")
    table.add_row("hot-spot time (any core) [%]", f"{result.hotspot_percent_any:.1f}")
    table.add_row("chip energy [kJ]", f"{result.chip_energy_j / 1e3:.2f}")
    table.add_row("pump energy [kJ]", f"{result.pump_energy_j / 1e3:.2f}")
    table.add_row("system energy [kJ]", f"{result.total_energy_j / 1e3:.2f}")
    table.add_row("mean flow [ml/min]", f"{result.mean_flow_ml_min:.1f}")
    table.add_row("performance degradation [%]", f"{result.degradation_percent:.3f}")
    if result.dryout_margin is not None:
        table.add_row("dry-out margin", f"{result.dryout_margin:.3f}")
    return table


def _simulate_scenario(args: argparse.Namespace) -> Scenario:
    """The scenario the ``simulate``/``export-scenario`` flags describe."""
    policy = PolicySpec(name=args.policy)
    two_phase = bool(getattr(args, "two_phase", False))
    cooling_backend = None
    if two_phase:
        cooling_backend = CoolingSpec(
            backend="two_phase",
            refrigerant=getattr(args, "refrigerant", "R134a"),
        )
    try:
        return Scenario(
            stack=StackSpec(
                tiers=args.tiers,
                cooling=policy.cooling,
                two_phase=two_phase,
                cooling_backend=cooling_backend,
            ),
            workload=WorkloadSpec(
                name=args.workload, duration=args.duration
            ),
            policy=policy,
            solver=SolverSpec(),
            control=ControlSpec(),
            label=f"{args.tiers}-tier {args.policy} on '{args.workload}'",
        )
    except ScenarioError as error:
        raise SystemExit(str(error)) from error


def cmd_simulate(args: argparse.Namespace) -> int:
    """Run one closed-loop simulation and print its summary."""
    scenario = _simulate_scenario(args)
    result = run_scenario(scenario)
    print(
        _result_table(f"{scenario.label} ({args.duration} s)", result)
    )
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """Run a declarative scenario spec (JSON file) end to end."""
    path = Path(args.spec)
    if not path.exists():
        raise SystemExit(f"no such scenario spec: {path}")
    try:
        scenario = Scenario.load(path)
    except ScenarioError as error:
        raise SystemExit(f"invalid scenario spec {path}: {error}") from error
    cache = None
    if args.cache or args.cache_dir is not None:
        cache = ResultCache(args.cache_dir)
    runner = Runner(scenario, cache=cache)
    with session(JsonlSink(args.trace) if args.trace else None):
        result = runner.run()
    title = scenario.label or path.stem
    print(_result_table(f"{title} [{scenario.content_hash()[:12]}]", result))
    if cache is not None:
        source = "cache hit" if cache.hits else "computed and cached"
        print(f"result: {source} ({cache.path(scenario)})")
        print(f"manifest: {cache.manifest_path(scenario)}")
    if args.trace:
        print(
            f"trace: {args.trace} "
            f"(inspect with `repro report trace {args.trace}`)"
        )
    return 0


DEFAULT_SERVICE_ROOT = Path.home() / ".cache" / "repro" / "service"


def _service_address(args: argparse.Namespace):
    """The socket the service verbs talk to (--socket wins over --root)."""
    if getattr(args, "socket", None):
        return args.socket
    root = Path(getattr(args, "root", None) or DEFAULT_SERVICE_ROOT)
    return root / "service.sock"


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the durable scenario-job service in the foreground."""
    from .service import RetryPolicy, ScenarioJobService

    root = Path(args.root or DEFAULT_SERVICE_ROOT)
    service = ScenarioJobService(
        root,
        address=args.socket,
        max_workers=args.workers,
        retry=RetryPolicy(retries=args.retries, backoff_s=args.backoff),
        timeout_s=args.timeout,
        heartbeat_timeout_s=args.heartbeat_timeout,
        fsync=not args.no_fsync,
        drain_timeout_s=args.drain_timeout,
        metrics_interval_s=args.metrics_interval,
        metrics_http=args.metrics_http,
    )
    recovery = service.store.recovery
    print(f"scenario service on {service.address}")
    if args.metrics_http:
        print(f"  prometheus metrics on http://{args.metrics_http}/metrics")
    print(
        f"  root {root} | workers {args.workers} | "
        f"recovered {recovery.jobs} jobs "
        f"({recovery.requeued} re-enqueued, "
        f"{recovery.corrupt_tail_segments} corrupt WAL tails repaired)"
    )
    with session(JsonlSink(args.trace) if args.trace else None):
        return service.serve_forever()


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit a scenario spec to a running service."""
    from .service import ProtocolError, ServiceClient

    path = Path(args.spec)
    if not path.exists():
        raise SystemExit(f"no such scenario spec: {path}")
    try:
        scenario = Scenario.load(path)
    except ScenarioError as error:
        raise SystemExit(f"invalid scenario spec {path}: {error}") from error
    from .obs.live import TraceContext

    client = ServiceClient(_service_address(args))
    context = TraceContext.mint()
    try:
        response = client.submit(
            scenario.to_dict(),
            trace=context.to_wire(),
            profile=args.profile,
        )
    except (ProtocolError, OSError) as error:
        raise SystemExit(
            f"cannot reach the service at {client.address}: {error} "
            "(start one with `repro serve`)"
        ) from error
    job_id = response["job_id"]
    print(
        f"{job_id} [{response['disposition']}] "
        f"state={response['state']} hash={response['content_hash'][:12]} "
        f"trace={response.get('trace_id') or context.trace_id}"
    )
    if not args.wait:
        return 0
    job = client.wait_for(job_id, timeout=args.wait_timeout)
    print(f"{job_id} -> {job['state']} (attempts {job['attempts']})")
    if job["state"] != "DONE":
        detail = client.result(job_id).get("error_detail")
        if detail:
            print(f"  {detail}")
        return 1
    summary = client.result(job_id).get("result")
    if summary:
        table = Table(f"{job_id} result", ["Metric", "Value"])
        for key, value in summary.items():
            table.add_row(
                key,
                f"{value:.3f}" if isinstance(value, float) else str(value),
            )
        print(table)
    return 0


def cmd_jobs(args: argparse.Namespace) -> int:
    """Inspect or control a running service (list/status/result/cancel)."""
    import json as _json

    from .service import ProtocolError, ServiceClient

    client = ServiceClient(_service_address(args))
    try:
        if args.health:
            print(_json.dumps(client.health(), indent=2, sort_keys=True))
            return 0
        if args.status:
            print(
                _json.dumps(
                    client.status(args.status)["job"], indent=2, sort_keys=True
                )
            )
            return 0
        if args.job:
            job = client.status(args.job)["job"]
            for key in ("job_id", "state", "attempts", "label", "error"):
                print(f"{key}: {job[key]}")
            print(f"worker_pid: {job['worker_pid']}")
            print(
                f"worker_jobs_served: {job['worker_jobs_served']} "
                "(this job included)"
            )
            return 0
        if args.result:
            print(
                _json.dumps(client.result(args.result), indent=2, sort_keys=True)
            )
            return 0
        if args.cancel:
            job = client.cancel(args.cancel)["job"]
            print(f"{job['job_id']} -> {job['state']}")
            return 0
        response = client.jobs()
    except (ProtocolError, OSError) as error:
        raise SystemExit(
            f"cannot reach the service at {client.address}: {error} "
            "(start one with `repro serve`)"
        ) from error
    table = Table("Jobs", ["id", "state", "attempts", "label", "hash"])
    for job in response["jobs"]:
        table.add_row(
            job["job_id"],
            job["state"],
            str(job["attempts"]),
            str(job["label"] or ""),
            job["content_hash"][:12],
        )
    print(table)
    counts = ", ".join(
        f"{state}={count}"
        for state, count in sorted(response["counts"].items())
        if count
    )
    print(f"totals: {counts or 'no jobs yet'}")
    return 0


def cmd_export_scenario(args: argparse.Namespace) -> int:
    """Print (or save) the scenario JSON the simulate flags describe."""
    scenario = _simulate_scenario(args)
    if args.out is not None:
        scenario.save(args.out)
        print(f"wrote {args.out} [{scenario.content_hash()[:12]}]")
    else:
        print(scenario.to_json(indent=2))
    return 0


def cmd_fig8(args: argparse.Namespace) -> int:
    """Print the Fig. 8 two-phase hot-spot series."""
    profile = HotSpotTestVehicle().sensor_rows(segments=args.segments)
    table = Table(
        "Fig. 8 — two-phase micro-evaporator hot-spot test",
        ["Row", "q [W/cm2]", "HTC [W/m2K]", "Fluid [C]", "Wall [C]", "Base [C]"],
    )
    for i in range(len(profile.rows)):
        table.add_row(
            int(profile.rows[i]),
            f"{profile.heat_flux[i] / 1e4:.1f}",
            f"{profile.htc[i]:.0f}",
            f"{profile.fluid_c[i]:.2f}",
            f"{profile.wall_c[i]:.2f}",
            f"{profile.base_c[i]:.2f}",
        )
    print(table)
    print(
        f"HTC ratio {profile.hotspot_to_background_htc_ratio():.2f}x, "
        f"superheat ratio {profile.superheat_ratio():.2f}x"
    )
    return 0


def cmd_claims(args: argparse.Namespace) -> int:
    """List every paper claim tracked by the reproduction."""
    table = Table(
        "Paper claims (see EXPERIMENTS.md for measured values)",
        ["Id", "Description", "Paper value", "Band", "Source"],
    )
    for key, claim in PAPER_CLAIMS.items():
        table.add_row(
            key,
            claim.description,
            claim.value,
            f"[{claim.low}, {claim.high}]",
            claim.source,
        )
    print(table)
    return 0


def cmd_traces(args: argparse.Namespace) -> int:
    """Generate the workload suite and save it as CSV files."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    suite = paper_workload_suite(
        threads=args.threads, duration=args.duration, seed=args.seed
    )
    for name, trace in suite.items():
        path = out / f"{name}.csv"
        save_trace_csv(trace, path)
        print(f"wrote {path} ({trace.intervals} x {trace.threads})")
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    """Run a fault-injection campaign and print the degradation report."""
    from .faults import FaultScenario, run_fault_campaign
    from .scenario import FaultSpec, FlowFaultSpec, SensorFaultSpec
    from .scenario.runner import build_stack

    try:
        base = Scenario(
            stack=StackSpec(tiers=args.tiers, cooling="liquid"),
            workload=WorkloadSpec(
                name=args.workload, duration=args.duration
            ),
            policy=PolicySpec(name=args.policy),
            solver=SolverSpec(nx=args.nx, ny=args.ny),
            control=ControlSpec(),
        )
    except ScenarioError as error:
        raise SystemExit(str(error)) from error
    stack = build_stack(base.stack)
    dead_layer, dead_block = next(
        (layer.name, block.name)
        for layer, block in stack.iter_blocks()
        if block.kind == "core"
    )
    cavity = stack.cavities[0].name
    start = args.fault_start
    dead = SensorFaultSpec(
        kind="dead", layer=dead_layer, block=dead_block, start=start
    )
    pump = FlowFaultSpec(
        kind="pump-degradation",
        remaining_fraction=1.0 - args.pump_loss,
        start=start,
    )
    scenarios = [
        FaultScenario("dead-sensor", FaultSpec(sensors=(dead,))),
        FaultScenario(
            f"pump-{args.pump_loss:.0%}-loss", FaultSpec(flows=(pump,))
        ),
        FaultScenario(
            "clogged-cavity",
            FaultSpec(
                flows=(
                    FlowFaultSpec(
                        kind="clogged-cavity",
                        cavity=cavity,
                        remaining_fraction=0.5,
                        start=start,
                    ),
                )
            ),
        ),
        FaultScenario("dvfs-lag", FaultSpec(actuator_lag_periods=5)),
        FaultScenario(
            "dead-sensor+pump-loss",
            FaultSpec(sensors=(dead,), flows=(pump,)),
        ),
    ]
    report = run_fault_campaign(
        base,
        scenarios=scenarios,
        processes=args.processes,
        timeout_s=args.timeout,
        checkpoint_path=Path(args.checkpoint) if args.checkpoint else None,
        cache_dir=args.cache_dir,
    )
    print(report.table())
    for failure in report.failures:
        print(
            f"scenario {failure.key!r} failed after {failure.attempts} "
            f"attempt(s): {failure.error_type}: {failure.message}"
        )
    return 0 if report.complete else 1


def cmd_report(args: argparse.Namespace) -> int:
    """Render a recorded telemetry artifact (trace / bench history)."""
    if args.what == "bench":
        return _report_bench(args)
    if args.job:
        return _report_job_trace(args)
    if not args.path:
        raise SystemExit("report trace needs a PATH or --job JOB_ID")
    from .obs.report import render_trace

    path = Path(args.path)
    if not path.exists():
        raise SystemExit(f"no such trace file: {path}")
    print(render_trace(path, top_k=args.top))
    return 0


def _report_job_trace(args: argparse.Namespace) -> int:
    """One job's stitched client -> queue -> worker tree."""
    from .obs.report import render_job_trace
    from .obs.sinks import read_jsonl

    if args.path:
        events = Path(args.path)
    else:
        root = Path(args.root or DEFAULT_SERVICE_ROOT)
        events = root / "events.jsonl"
    if not events.exists():
        raise SystemExit(
            f"no service event log at {events} "
            "(is the service root right? pass --root or PATH)"
        )
    print(render_job_trace(read_jsonl(events), args.job))
    return 0


def _report_bench(args: argparse.Namespace) -> int:
    """Summarise benchmarks/history.jsonl; --check gates on it."""
    from .analysis.perf import HISTORY_PATH, read_history
    from .obs.live import check_bench_history

    history_path = Path(args.path) if args.path else HISTORY_PATH
    entries = read_history(history_path)
    if not entries:
        raise SystemExit(
            f"no benchmark history at {history_path} "
            "(run `repro bench-thermal` to record the first entry)"
        )
    latest = entries[-1]
    print(
        f"benchmark history: {history_path} ({len(entries)} runs, "
        f"latest version {latest.get('version', '?')})"
    )
    table = Table(
        "Latest run vs trajectory median",
        ["Metric", "Latest", "Median", "Ratio"],
    )
    import statistics as _statistics

    results = latest.get("results", {})
    for key in sorted(results):
        value = results[key]
        if not isinstance(value, (int, float)) or key.endswith("_x"):
            continue
        prior = [
            e["results"][key]
            for e in entries[:-1]
            if isinstance(e.get("results", {}).get(key), (int, float))
        ][-args.window :]
        if prior:
            median = _statistics.median(prior)
            ratio = value / median if median else float("nan")
            table.add_row(
                key, f"{value:.4g}", f"{median:.4g}", f"{ratio:.2f}x"
            )
        else:
            table.add_row(key, f"{value:.4g}", "-", "-")
    print(table)
    if not args.check:
        return 0
    report = check_bench_history(
        entries, window=args.window, threshold=args.threshold
    )
    for note in report["skipped"]:
        print(f"skipped: {note}")
    if report["regressions"]:
        for key, detail in sorted(report["regressions"].items()):
            print(
                f"PERF REGRESSION: {key} at {detail['ratio']:.2f}x of its "
                f"{detail['window']}-run median ({detail['latest']:.4g} vs "
                f"{detail['median']:.4g}, threshold "
                f"{detail['threshold']:.2f}x)"
            )
        return 1
    print(
        f"bench check passed: {report['checked']} metrics within "
        f"{args.threshold:.2f}x of their trajectory median"
    )
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """Live service dashboard from the ``metrics`` socket verb."""
    from .service import ProtocolError, ServiceClient

    client = ServiceClient(_service_address(args))

    def render_once() -> None:
        snap = client.metrics()
        metrics = snap["metrics"]

        def value(name: str, default: float = 0.0) -> float:
            entry = metrics.get(name)
            return entry["value"] if entry else default

        counts = ", ".join(
            f"{state}={count}"
            for state, count in sorted(snap["counts"].items())
            if count
        )
        print(
            f"repro top — service at {client.address} "
            f"(uptime {snap['uptime_s']:.0f}s)"
        )
        print(f"jobs: {counts or 'none yet'}")
        print(
            f"workers {snap['workers']['busy']}/{snap['workers']['max']} "
            f"busy | queue depth {value('service.queue.depth'):.0f} | "
            f"wal {value('service.wal.bytes') / 1024:.1f} KiB | "
            f"breakers open {value('service.breaker.open'):.0f}"
        )
        for worker in snap["workers"].get("pool", ()):
            print(
                f"worker {worker['slot']} pid {worker['pid']}: "
                f"{worker['job_id'] or 'idle'} | "
                f"{worker['jobs_served']} jobs served | "
                f"factor bank {worker['bank_bytes'] / 2**20:.1f} MiB | "
                f"rss {worker['rss_mb']:.0f} MB"
            )
        latency = [
            (name.rsplit(".", 1)[-1], entry)
            for name, entry in sorted(metrics.items())
            if name.startswith("service.solve.wall_s.")
            and entry.get("count")
        ]
        for backend, entry in latency:
            mean = entry["total"] / entry["count"]
            print(
                f"solve [{backend}]: n={entry['count']} "
                f"mean={mean:.3f}s max={entry['max']:.3f}s"
            )
        for key, state in sorted(snap.get("watchdog", {}).items()):
            rolling = state.get("rolling_mean")
            baseline = state.get("baseline")
            print(
                f"watchdog [{key}]: {state['state']} "
                f"(rolling {rolling:.3f}s"
                + (f" vs baseline {baseline:.3f}s)" if baseline else ")")
            )
        ring = snap["ring"]
        print(
            f"ring: {ring['samples']}/{ring['capacity']} samples at "
            f"{ring['interval_s']:g}s"
            + (
                f" ({ring['evicted_unflushed']} evicted unflushed)"
                if ring["evicted_unflushed"]
                else ""
            )
        )

    try:
        if args.once:
            render_once()
            return 0
        while True:
            print("\x1b[2J\x1b[H", end="")
            render_once()
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    except (ProtocolError, OSError) as error:
        raise SystemExit(
            f"cannot reach the service at {client.address}: {error} "
            "(start one with `repro serve`)"
        ) from error


def cmd_profile(args: argparse.Namespace) -> int:
    """Run a scenario spec under the sampling profiler."""
    from .obs.live import SamplingProfiler

    path = Path(args.spec)
    if not path.exists():
        raise SystemExit(f"no such scenario spec: {path}")
    try:
        scenario = Scenario.load(path)
    except ScenarioError as error:
        raise SystemExit(f"invalid scenario spec {path}: {error}") from error
    if not SamplingProfiler.available():
        raise SystemExit(
            "sampling profiler unavailable on this platform "
            "(needs signal.setitimer and the main thread)"
        )
    profiler = SamplingProfiler(
        interval_s=args.interval, timer=args.timer
    )
    runner = Runner(scenario)
    with profiler:
        runner.run()
    out = Path(args.out) if args.out else path.with_suffix(".collapsed")
    profiler.write(out)
    print(
        f"{profiler.total_samples} samples at {args.interval * 1e3:g} ms "
        f"({args.timer} time) -> {out}"
    )
    table = Table("Hottest frames", ["Frame", "Samples", "Share"])
    for frame in profiler.hot_frames(args.top):
        table.add_row(
            frame["frame"],
            str(frame["samples"]),
            f"{frame['share'] * 100:.1f}%",
        )
    print(table)
    print(f"flamegraph: flamegraph.pl {out} > profile.svg")
    return 0


def cmd_bench_thermal(args: argparse.Namespace) -> int:
    """Run the thermal perf microbenchmarks and write BENCH_thermal.json."""
    from .analysis.perf import (
        BASELINE_PATH,
        append_history,
        bench_thermal,
        solver_observability,
        write_baseline,
        write_bench_report,
    )

    if args.repeats < 1:
        raise SystemExit("--repeats must be at least 1")
    if args.duration <= 0.0:
        raise SystemExit("--duration must be positive")
    with session(JsonlSink(args.trace) if args.trace else None):
        results = bench_thermal(
            simulate_seconds=args.duration,
            repeats=args.repeats,
            large_grid=not args.quick,
            backend=args.backend,
        )
        observability = solver_observability()
    if args.trace:
        print(f"wrote bench trace to {args.trace}")
    baseline_path = Path(args.baseline) if args.baseline else BASELINE_PATH
    report = write_bench_report(
        results,
        Path(args.output),
        baseline_path,
        extras={
            "observability": observability,
            "bench_backend": args.backend,
        },
    )
    if not args.no_history:
        # Every run — gated or not — extends the trajectory, so the
        # perf watchdog (`repro report bench --check`) never sees an
        # empty history.
        history = append_history(
            results,
            Path(args.history) if args.history else None,
            backend=args.backend,
            quick=bool(args.quick),
            gate=bool(args.gate),
        )
        print(f"appended run to benchmark history at {history}")

    table = Table(
        "Thermal-pipeline benchmarks (speedup vs committed seed baseline)",
        ["Metric", "Current", "Seed", "Speedup"],
    )
    baseline = report["baseline"] or {}
    speedup = report["speedup"] or {}
    for key in sorted(results):
        table.add_row(
            key,
            f"{results[key]:.4g}",
            f"{baseline[key]:.4g}" if key in baseline else "-",
            f"{speedup[key]:.2f}x" if key in speedup else "-",
        )
    print(table)

    print("solver observability (2-tier reference workload):")
    for section in ("steady_cache", "transient_cache"):
        for backend, info in observability[section].items():
            print(
                f"  {section.replace('_', ' ')} [{backend}]: "
                f"hits={info['hits']} misses={info['misses']} "
                f"size={info['currsize']}/{info['maxsize']}"
            )
    for section in ("steady_stats", "transient_stats"):
        for backend, stats in observability[section].items():
            print(
                f"  {section.replace('_', ' ')} [{backend}]: "
                f"direct={stats['direct_solves']} "
                f"iterative={stats['iterative_solves']} "
                f"amg={stats.get('amg_solves', 0)} "
                f"krylov_iterations={stats['krylov_iterations']} "
                f"fallbacks={stats['fallbacks_to_direct']}"
            )
    print(f"wrote {args.output}")
    if args.update_baseline:
        written = write_baseline(
            results, baseline_path if args.baseline else None
        )
        print(f"regenerated baseline at {written}")
    if args.gate:
        if not speedup:
            raise SystemExit(
                "--gate needs a baseline to compare against "
                f"(none found at {baseline_path})"
            )
        regressions = {
            key: ratio
            for key, ratio in speedup.items()
            if ratio < args.gate_threshold
        }
        if regressions:
            for key, ratio in sorted(regressions.items()):
                print(
                    f"REGRESSION: {key} at {ratio:.2f}x of the seed "
                    f"baseline (gate {args.gate_threshold:.2f}x)"
                )
            return 1
        print(
            f"gate passed: no metric below {args.gate_threshold:.2f}x "
            "of the seed baseline"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Thermally-aware 3D MPSoC design (Sabry et al., DATE 2011)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run a declarative scenario spec (JSON file)"
    )
    run.add_argument("spec", help="path to a Scenario JSON file")
    run.add_argument(
        "--cache",
        action="store_true",
        help="serve/store the result via the on-disk cache "
        "(~/.cache/repro or $REPRO_CACHE_DIR)",
    )
    run.add_argument(
        "--cache-dir",
        default=None,
        help="explicit result-cache directory (implies --cache)",
    )
    run.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record a JSONL telemetry trace (spans, metrics, manifest) "
        "of the run",
    )
    run.set_defaults(func=cmd_run)

    report = sub.add_parser(
        "report", help="render a recorded telemetry artifact"
    )
    report.add_argument(
        "what",
        choices=("trace", "bench"),
        help="artifact kind: a JSONL trace, or the benchmark history",
    )
    report.add_argument(
        "path",
        nargs="?",
        default=None,
        help="trace file (for trace) or history JSONL (for bench); "
        "defaults to the service event log / committed history",
    )
    report.add_argument(
        "--top",
        type=int,
        default=10,
        help="how many longest spans to list (default 10)",
    )
    report.add_argument(
        "--job",
        default=None,
        metavar="JOB_ID",
        help="render one service job's stitched client->queue->worker "
        "trace (reads <root>/events.jsonl)",
    )
    report.add_argument(
        "--root",
        default=None,
        help=f"service state directory for --job "
        f"(default {DEFAULT_SERVICE_ROOT})",
    )
    report.add_argument(
        "--check",
        action="store_true",
        help="bench only: exit non-zero when the newest run regresses "
        "against its trajectory (CI gate)",
    )
    report.add_argument(
        "--window",
        type=int,
        default=8,
        help="bench only: trajectory window per metric (default 8 runs)",
    )
    report.add_argument(
        "--threshold",
        type=float,
        default=1.5,
        help="bench only: regression ratio vs the window median "
        "(default 1.5x)",
    )
    report.set_defaults(func=cmd_report)

    serve = sub.add_parser(
        "serve",
        help="run the durable scenario-job service (crash-safe queue)",
    )
    serve.add_argument(
        "--root",
        default=None,
        help=f"service state directory (default {DEFAULT_SERVICE_ROOT})",
    )
    serve.add_argument(
        "--socket",
        default=None,
        help="socket override: a path, or host:port for TCP "
        "(default <root>/service.sock)",
    )
    serve.add_argument(
        "--workers", type=int, default=2, help="worker processes (default 2)"
    )
    serve.add_argument(
        "--retries",
        type=int,
        default=2,
        help="per-job retries before FAILED/QUARANTINED (default 2)",
    )
    serve.add_argument(
        "--backoff",
        type=float,
        default=0.5,
        help="base retry backoff in seconds, exponential + jitter "
        "(default 0.5)",
    )
    serve.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-job wall-clock deadline [s] (default none)",
    )
    serve.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=10.0,
        help="kill a worker whose heartbeat stalls this long (default 10)",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=60.0,
        help="seconds SIGTERM waits for in-flight jobs before "
        "re-enqueueing them (default 60)",
    )
    serve.add_argument(
        "--no-fsync",
        action="store_true",
        help="skip the per-append WAL fsync (faster, weaker durability)",
    )
    serve.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record a JSONL telemetry trace of the service "
        "(in addition to the always-on <root>/events.jsonl)",
    )
    serve.add_argument(
        "--metrics-interval",
        type=float,
        default=5.0,
        help="metrics ring sampling period in seconds (default 5)",
    )
    serve.add_argument(
        "--metrics-http",
        default=None,
        metavar="HOST:PORT",
        help="also serve Prometheus-text metrics over HTTP "
        "(e.g. 127.0.0.1:9464)",
    )
    serve.set_defaults(func=cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit a scenario spec to a running service"
    )
    submit.add_argument("spec", help="path to a Scenario JSON file")
    submit.add_argument("--root", default=None, help="service state directory")
    submit.add_argument(
        "--socket", default=None, help="service socket path or host:port"
    )
    submit.add_argument(
        "--wait",
        action="store_true",
        help="block until the job finishes and print its result",
    )
    submit.add_argument(
        "--wait-timeout",
        type=float,
        default=600.0,
        help="--wait deadline in seconds (default 600)",
    )
    submit.add_argument(
        "--profile",
        action="store_true",
        help="sample-profile the worker solving this job "
        "(collapsed stacks land in <root>/profiles/)",
    )
    submit.set_defaults(func=cmd_submit)

    top = sub.add_parser(
        "top", help="live service dashboard (metrics socket verb)"
    )
    top.add_argument("--root", default=None, help="service state directory")
    top.add_argument(
        "--socket", default=None, help="service socket path or host:port"
    )
    top.add_argument(
        "--once", action="store_true", help="print one snapshot and exit"
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="refresh period in seconds (default 2)",
    )
    top.set_defaults(func=cmd_top)

    profile = sub.add_parser(
        "profile",
        help="run a scenario spec under the sampling profiler",
    )
    profile.add_argument("spec", help="path to a Scenario JSON file")
    profile.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="collapsed-stack output (default <spec>.collapsed)",
    )
    profile.add_argument(
        "--interval",
        type=float,
        default=0.005,
        help="sampling period in seconds (default 0.005)",
    )
    profile.add_argument(
        "--timer",
        default="cpu",
        choices=("cpu", "real"),
        help="sample on CPU time (default) or wall-clock time",
    )
    profile.add_argument(
        "--top",
        type=int,
        default=10,
        help="hottest frames to print (default 10)",
    )
    profile.set_defaults(func=cmd_profile)

    jobs = sub.add_parser(
        "jobs", help="list/inspect/cancel jobs on a running service"
    )
    jobs.add_argument(
        "job",
        nargs="?",
        metavar="JOB_ID",
        help="print one job's state and the warm worker that ran it",
    )
    jobs.add_argument("--root", default=None, help="service state directory")
    jobs.add_argument(
        "--socket", default=None, help="service socket path or host:port"
    )
    jobs.add_argument(
        "--status", metavar="JOB_ID", help="print one job's status as JSON"
    )
    jobs.add_argument(
        "--result",
        metavar="JOB_ID",
        help="print one job's result summary + manifest as JSON",
    )
    jobs.add_argument("--cancel", metavar="JOB_ID", help="cancel one job")
    jobs.add_argument(
        "--health", action="store_true", help="print service health as JSON"
    )
    jobs.set_defaults(func=cmd_jobs)

    simulate = sub.add_parser("simulate", help="run one closed-loop simulation")
    simulate.add_argument("--tiers", type=int, default=2, choices=(2, 4))
    simulate.add_argument("--policy", default="LC_FUZZY", choices=POLICY_NAMES)
    simulate.add_argument("--workload", default="database")
    simulate.add_argument("--duration", type=int, default=60)
    simulate.add_argument(
        "--two-phase",
        action="store_true",
        help="fill the cavities with an evaporating refrigerant "
        "(dynamic two-phase cooling backend)",
    )
    simulate.add_argument(
        "--refrigerant",
        default="R134a",
        choices=REFRIGERANT_CHOICES,
        help="two-phase working fluid (with --two-phase)",
    )
    simulate.set_defaults(func=cmd_simulate)

    export = sub.add_parser(
        "export-scenario",
        help="print the scenario JSON the simulate flags describe",
    )
    export.add_argument("--tiers", type=int, default=2, choices=(2, 4))
    export.add_argument("--policy", default="LC_FUZZY", choices=POLICY_NAMES)
    export.add_argument("--workload", default="database")
    export.add_argument("--duration", type=int, default=60)
    export.add_argument(
        "--two-phase",
        action="store_true",
        help="emit a two-phase stack with the dynamic cooling backend",
    )
    export.add_argument(
        "--refrigerant",
        default="R134a",
        choices=REFRIGERANT_CHOICES,
        help="two-phase working fluid (with --two-phase)",
    )
    export.add_argument(
        "--out", default=None, help="write to a file instead of stdout"
    )
    export.set_defaults(func=cmd_export_scenario)

    fig8 = sub.add_parser("fig8", help="print the two-phase hot-spot series")
    fig8.add_argument("--segments", type=int, default=100)
    fig8.set_defaults(func=cmd_fig8)

    claims = sub.add_parser("claims", help="list the tracked paper claims")
    claims.set_defaults(func=cmd_claims)

    traces = sub.add_parser("traces", help="export the workload suite as CSV")
    traces.add_argument("--out", default="traces")
    traces.add_argument("--threads", type=int, default=32)
    traces.add_argument("--duration", type=int, default=300)
    traces.add_argument("--seed", type=int, default=0)
    traces.set_defaults(func=cmd_traces)

    bench = sub.add_parser(
        "bench-thermal",
        help="run thermal perf microbenchmarks, write BENCH_thermal.json",
    )
    bench.add_argument("--output", default="BENCH_thermal.json")
    bench.add_argument(
        "--baseline",
        default=None,
        help="baseline JSON (default: committed benchmarks/baseline_seed.json)",
    )
    bench.add_argument("--duration", type=float, default=10.0)
    bench.add_argument("--repeats", type=int, default=10)
    bench.add_argument(
        "--backend",
        default="auto",
        choices=("auto", "direct", "iterative", "amg", "rom"),
        help="solver backend of the steady/transient measurements "
        "(default: auto; seed-baseline speedups only apply to auto)",
    )
    bench.add_argument(
        "--quick", action="store_true", help="skip the 100x100 large-grid sample"
    )
    bench.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the seed baseline (benchmarks/baseline_seed.json, "
        "or --baseline) from this run's results",
    )
    bench.add_argument(
        "--gate",
        action="store_true",
        help="exit non-zero when any metric regresses past the gate threshold",
    )
    bench.add_argument(
        "--gate-threshold",
        type=float,
        default=0.8,
        help="minimum acceptable speedup vs baseline (default 0.8 = "
        "a >20%% regression fails)",
    )
    bench.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record a JSONL telemetry trace of the benchmark run",
    )
    bench.add_argument(
        "--history",
        default=None,
        metavar="PATH",
        help="benchmark trajectory to append to "
        "(default benchmarks/history.jsonl)",
    )
    bench.add_argument(
        "--no-history",
        action="store_true",
        help="skip appending this run to the benchmark history",
    )
    bench.set_defaults(func=cmd_bench_thermal)

    faults = sub.add_parser(
        "faults",
        help="run a fault-injection campaign (dead sensors, pump loss, ...)",
    )
    faults.add_argument("--tiers", type=int, default=2, choices=(2, 4))
    faults.add_argument(
        "--policy", default="LC_FUZZY", choices=("LC_LB", "LC_FUZZY")
    )
    faults.add_argument("--workload", default="database")
    faults.add_argument("--duration", type=int, default=30)
    faults.add_argument(
        "--fault-start",
        type=float,
        default=0.0,
        help="time the faults strike [s]",
    )
    faults.add_argument(
        "--pump-loss",
        type=float,
        default=0.3,
        help="pump degradation as a flow-loss fraction (default 0.3 = 30%%)",
    )
    faults.add_argument("--nx", type=int, default=23)
    faults.add_argument("--ny", type=int, default=20)
    faults.add_argument(
        "--processes",
        type=int,
        default=None,
        help="fan the scenarios out across worker processes",
    )
    faults.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-scenario timeout [s] (process mode only)",
    )
    faults.add_argument(
        "--checkpoint",
        default=None,
        help="checkpoint file for resumable campaigns",
    )
    faults.add_argument(
        "--cache-dir",
        default=None,
        help="on-disk result cache for the scenario-backed campaign jobs",
    )
    faults.set_defaults(func=cmd_faults)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
