"""The repository's benchmark: generate, simulate, analyze and export.

Run from the root of a checkout::

    python3 perfbench/run.py --workload scheduled-rt128 --seed 1 \\
        --seconds 30 --trace 0

Each workload is a single-threaded closed loop in one process: one job
at a time, the next starting only after the previous one finished,
until the next job would overrun ``--seconds``.  Workloads, their jobs
and their checks are in ``workloads.py``; ``layers.json`` says which
end-to-end metric each per-layer metric should move, on which workload.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of
several fresh processes, from start until the first job is ready),
``job_s`` (median over the run's jobs), ``peak_rss_mb`` and
``artifact_mb`` (bytes the exports wrote per job).  ``--trace 1`` runs
the same loop, alternating untraced jobs with traced ones that also
activate the program's ``PipelineProfiler`` and ``MetricsRegistry``,
and prints the per-layer metrics of the median traced job.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext

_STARTED = time.perf_counter()

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

#: Fresh processes whose set-up time is measured in every untraced run.
SETUP_PROBES = 5

#: Jobs a run makes even when they overrun ``--seconds``.
MIN_JOBS = 2

#: Profiler spans folded in as ``core.<stage>_s``.
PIPELINE_STAGES = (
    "root_identification",
    "global_schedule",
    "phase_partitioning",
    "verify_schedule",
    "dependence_graph",
    "transitive_reduction",
    "program_emission",
)

#: ``sim.<name>`` -> (registry instrument, read as counter or histogram sum).
SIM_INSTRUMENTS = {
    "resolves": ("network.resolves_total", "counter"),
    "flow_set_changes": ("network.flow_set_changes", "counter"),
    "full_resolves": ("network.full_resolves", "counter"),
    "resolve_touched": ("network.resolve_touched", "histogram"),
    "waterfill_iterations": ("network.waterfill_iterations", "histogram"),
    "component_flows": ("network.component_flows", "histogram"),
    "flow_pool_reuses": ("network.flow_pool_reuses", "counter"),
}


def _import_program():
    """Put the checkout's ``src`` first on the path; fail without it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program source at {SRC}; run the "
                 "benchmark from a checkout of the repository")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {SRC}")
    # The ledger record stamps the git commit; keep git's search for a
    # repository inside the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _set_up(workload, seed, tmp_root):
    """Inputs for *seed*, after one warm-up job on the smoke variant."""
    from spans import SpanRecorder
    from workloads import WORKLOADS, make_inputs, run_job

    warm = WORKLOADS[workload.smoke or workload.name]
    job = run_job(make_inputs(warm, seed), SpanRecorder(), -1, tmp_root)
    job.remove_artifacts()
    return make_inputs(workload, seed)


def _probe_setup(args) -> float:
    """Seconds from spawning a fresh benchmark process until it is ready."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return elapsed


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _percentile_note(samples) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    for p in (99.9, 99, 95, 90, 75, 50):
        if (1 - p / 100) * n >= 10:
            value = statistics.quantiles(samples, n=1000)[int(p * 10) - 1]
            return f"p{p:g} {value:.6f} s"
    return "no percentile has ten samples beyond it"


def _layer_metrics(inputs, job, spans, profile, registry, health_s):
    """Per-layer numbers of one traced job.

    ``sim.run_s``, ``sim.us_per_event`` and ``sim.telemetry_overhead_x``
    of an observing workload, and the ``bench.*`` comparisons, need the
    whole run and are filled in by :func:`_finish_layer_metrics`.
    """
    from spans import layer_of
    from workloads import count_ops

    result, algorithm = job.result, job.algorithm
    own = spans.self_times(job.id)
    layer_self = {}
    for name, seconds in own.items():
        layer = layer_of(name)
        layer_self[layer] = layer_self.get(layer, 0.0) + seconds

    def span_s(name):
        return own.get(name, 0.0)

    m = {}
    m["core.build_s"] = span_s("core.build")
    for stage in PIPELINE_STAGES:
        m[f"core.{stage}_s"] = profile.total(stage)
    schedule = getattr(algorithm, "last_schedule", None)
    plan = getattr(algorithm, "last_sync_plan", None)
    ops = count_ops(job.programs)
    m["core.phases"] = schedule.num_phases if schedule is not None else 0
    m["core.messages"] = ops["sends"]
    m["core.conflict_deps"] = plan.stats.num_conflict_deps if plan else 0
    m["core.syncs"] = plan.stats.num_after_reduction if plan else 0
    deps = m["core.conflict_deps"]
    m["core.sync_keep_ratio"] = m["core.syncs"] / deps if deps else 0.0
    m["core.ops"] = ops["ops"]
    m["core.partition_backtracks"] = registry.get("scheduler.backtracks") or 0
    m["core.self_s"] = layer_self.get("core", 0.0)

    observe = inputs.workload.observe
    m["sim.run_s"] = 0.0 if observe else span_s("sim.run")
    m["sim.events"] = result.events_processed
    m["sim.us_per_event"] = 0.0
    m["sim.peak_flows"] = result.peak_concurrent_flows
    for name, (instrument, kind) in SIM_INSTRUMENTS.items():
        if kind == "counter":
            m[f"sim.{name}"] = registry.get(instrument) or 0
        else:
            m[f"sim.{name}"] = registry.histogram(instrument).sum
    m["sim.telemetry_run_s"] = span_s("sim.run") - health_s if observe else 0.0
    m["sim.telemetry_overhead_x"] = 0.0
    m["sim.self_s"] = layer_self.get("sim", 0.0)

    telemetry = result.telemetry
    m["obs.schedule_health_s"] = health_s
    for name in ("summarize_links", "audit_phases", "audit_serialize",
                 "explain"):
        m[f"obs.{name}_s"] = span_s(f"obs.{name}")
    m["obs.flows"] = len(telemetry.links.flows) if observe else 0
    m["obs.trace_records"] = len(telemetry.trace) if observe else 0
    m["obs.audited_phases"] = job.audit.num_phases if observe else 0
    m["obs.critical_path_segments"] = (
        len(job.report.causal.segments) if observe else 0
    )
    m["obs.analyze_self_s"] = layer_self.get("obs.analyze", 0.0)
    for name in ("write_metrics", "write_perfetto", "ledger_append"):
        m[f"obs.{name}_s"] = span_s(f"obs.{name}")
    for name in ("metrics", "perfetto", "ledger"):
        m[f"obs.{name}_bytes"] = job.artifact_bytes.get(name, 0)
    m["obs.perfetto_events"] = 0
    m["obs.export_self_s"] = layer_self.get("obs.export", 0.0)

    m["bench.traced_job_s"] = job.seconds
    m["bench.untraced_job_s"] = 0.0
    m["bench.trace_overhead_s"] = 0.0
    m["bench.job_self_s"] = layer_self.get("job", 0.0)
    return m


def _finish_layer_metrics(m, observe, untraced_s, off_run_s, perfetto_events):
    if observe:
        m["sim.run_s"] = off_run_s
        if off_run_s:
            m["sim.telemetry_overhead_x"] = (
                m["sim.telemetry_run_s"] / off_run_s)
        m["obs.perfetto_events"] = perfetto_events
    m["sim.us_per_event"] = m["sim.run_s"] / m["sim.events"] * 1e6
    m["bench.untraced_job_s"] = untraced_s
    m["bench.trace_overhead_s"] = m["bench.traced_job_s"] - untraced_s


def _units():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = spec["end_to_end"] + spec["per_layer"]
    return {m["name"]: m["unit"] for m in metrics}


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()
    from repro.obs.metrics_registry import MetricsRegistry
    from repro.obs.profiling import PipelineProfiler
    from repro.obs.diagnostics import schedule_health
    from repro.sim.executor import run_programs
    from spans import SpanRecorder
    from workloads import MSIZE, WORKLOADS, check_observed_job, run_job

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=out_dir) as tmp_root:
        inputs = _set_up(workload, args.seed, tmp_root)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        ready_s = time.perf_counter() - _STARTED
        setup_samples = []
        if not args.trace:
            setup_samples = [_probe_setup(args) for _ in range(SETUP_PROBES)]

        spans = SpanRecorder()
        durations, traced_jobs, untraced = [], [], []
        artifact_mb = []
        attempted = failed = 0
        last = None
        t0 = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - t0
            estimate = statistics.median(durations) if durations else 0.0
            if attempted >= MIN_JOBS and elapsed + estimate > args.seconds:
                break
            traced = bool(args.trace) and attempted % 2 == 1
            if last is not None:
                # Only one job's objects and artifacts exist at a time.
                last.remove_artifacts()
                last = None
            attempted += 1
            # Every job starts from the same collector state.
            gc.collect()
            profiler, registry = PipelineProfiler(), MetricsRegistry()
            try:
                if traced:
                    with registry.activate(), profiler.activate():
                        job = run_job(inputs, spans, attempted, tmp_root)
                else:
                    job = run_job(inputs, spans, attempted, tmp_root)
            except Exception:
                failed += 1
                traceback.print_exc()
                continue
            durations.append(job.seconds)
            artifact_mb.append(sum(job.artifact_bytes.values()) / 1e6)
            if traced:
                health_s = 0.0
                if workload.observe:
                    telemetry = job.result.telemetry
                    h0 = time.perf_counter()
                    schedule_health(telemetry.trace, telemetry.links)
                    health_s = time.perf_counter() - h0
                traced_jobs.append(_layer_metrics(
                    inputs, job, spans, profiler.report(), registry, health_s))
            else:
                untraced.append(job.seconds)
            last, job = job, None
        peak_rss_mb = _peak_rss_mb()

        if not durations:
            sys.exit("perfbench: every job failed")
        off_run_s, perfetto_events = 0.0, 0
        if workload.observe and last is not None:
            registry = MetricsRegistry()
            try:
                with registry.activate() if args.trace else nullcontext():
                    r0 = time.perf_counter()
                    off = run_programs(inputs.topology, last.programs, MSIZE,
                                       inputs.params)
                    off_run_s = time.perf_counter() - r0
                perfetto_events = check_observed_job(inputs, last, off)
            except Exception:
                failed += 1
                traceback.print_exc()
        if last is not None:
            last.remove_artifacts()

        if args.trace:
            if not traced_jobs or not untraced:
                sys.exit("perfbench: the traced run needs a traced and an "
                         "untraced job that succeeded")
            # The median traced job (the lower one of an even count), so
            # its layers' self times add up to its own duration.
            traced_jobs.sort(key=lambda m: m["bench.traced_job_s"])
            metrics = traced_jobs[(len(traced_jobs) - 1) // 2]
            _finish_layer_metrics(metrics, workload.observe,
                                  statistics.median(untraced), off_run_s,
                                  perfetto_events)
            spans.write(os.path.join(
                out_dir, f"spans-{workload.name}-seed{args.seed}.json"))
        else:
            metrics = {
                "setup_s": statistics.median(setup_samples),
                "job_s": statistics.median(durations),
                "peak_rss_mb": peak_rss_mb,
                "artifact_mb": statistics.median(artifact_mb),
            }

    units = _units()
    print(f"workload {workload.name}  seed {args.seed}  "
          f"{len(durations)} jobs ok of {attempted}  "
          f"ready after {ready_s:.3f} s")
    if not args.trace:
        print(f"job_s over {len(durations)} jobs: median "
              f"{metrics['job_s']:.6f} s, {_percentile_note(durations)}; "
              f"jobs: {', '.join(f'{d:.3f}' for d in durations)} s")
    for name, value in metrics.items():
        print(f"  {name:32s} {value!r:>24} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
