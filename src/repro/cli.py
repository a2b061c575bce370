"""Command-line interface: ``repro-aapc`` / ``python -m repro``.

Subcommands mirror the workflow of the paper's routine generator:

* ``analyze``  — load a topology file, report loads/bottlenecks/peak.
* ``schedule`` — print the contention-free phased schedule (Table 4 style).
* ``codegen``  — emit the customized MPI_Alltoall C routine.
* ``stp``      — reduce a redundant physical wiring to its forwarding tree.
* ``inspect``  — static contention analysis of an algorithm's programs.
* ``simulate`` — run algorithms on the simulator, report timing
  (optionally under a ``--faults`` plan).
* ``trace``    — flight-recorder run: Perfetto trace + metrics JSON.
* ``explain``  — causal critical path: decompose the gap to the paper's
  ``load/B`` bound into named components, with a ``--budget`` gate.
* ``phases``   — phase observatory: predicted vs observed per-phase link
  loads, with a ``--max-divergence`` gate.
* ``gantt``    — per-rank execution timeline and phase latency table.
* ``top``      — live run monitor: a refreshing table of hot-path metrics.
* ``chaos``    — fault-injection sweep: degradation and recovery.
* ``repro``    — regenerate a paper experiment table (Figures 6-8).
* ``campaign`` — compare the algorithms over seeded random topologies.
* ``dash``     — self-contained static HTML dashboard of the run ledger.
* ``report``   — query the run ledger: ``list`` / ``show`` / ``compare``
  / ``regress`` (the CI perf gate) / ``sentinel`` (anomaly sweep).

``simulate``, ``explain``, ``phases``, ``chaos``, ``repro`` and
``campaign`` append a schema-versioned record to the run ledger
(``~/.cache/repro-aapc/ledger/`` unless ``--ledger-dir`` /
``$REPRO_AAPC_LEDGER_DIR`` says otherwise; disable with
``--no-ledger``).  Pass ``-v``/``-vv`` after the subcommand for
human-readable logging from ``repro.*`` loggers.

Topology input is the text format of
:mod:`repro.topology.serialization`, or one of the built-in names
``a`` / ``b`` / ``c`` / ``fig1``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from typing import Dict, List, Optional

from repro import __version__
from repro.algorithms import available_algorithms, get_algorithm
from repro.artifacts import write_json
from repro.errors import ReproError
from repro.core.codegen import generate_c_routine
from repro.core.program import build_programs
from repro.core.scheduler import schedule_aapc
from repro.core.synchronization import build_sync_plan
from repro.harness.experiments import EXPERIMENTS
from repro.harness.report import (
    attribution_table,
    completion_table,
    phase_audit_table,
    render_throughput_series,
    speedup_summary,
    throughput_table,
)
from repro.harness.pipeline import build, run_pipeline
from repro.obs.monitor import MonitorConfig
from repro.sim.params import ALLOCATORS, NetworkParams
from repro.topology.analysis import (
    aapc_load,
    bottleneck_edges,
    peak_aggregate_throughput,
)
from repro.topology.builder import (
    paper_example_cluster,
    topology_a,
    topology_b,
    topology_c,
)
from repro.topology.graph import Topology
from repro.topology.serialization import load_topology
from repro.units import bytes_per_sec_to_mbps, parse_size, seconds_to_ms

_BUILTIN_TOPOLOGIES = {
    "a": topology_a,
    "b": topology_b,
    "c": topology_c,
    "fig1": paper_example_cluster,
}

def _load_topology(spec: str) -> Topology:
    if spec in _BUILTIN_TOPOLOGIES:
        return _BUILTIN_TOPOLOGIES[spec]()
    try:
        return load_topology(spec)
    except OSError as exc:
        raise ReproError(f"cannot read topology {spec!r}: {exc}") from exc


def _load_faults(args: argparse.Namespace):
    """The ``--faults`` plan, parsed, or None when the flag is absent."""
    if not args.faults:
        return None
    from repro.faults.plan import load_fault_plan

    return load_fault_plan(args.faults)


def _make_params(args: argparse.Namespace) -> NetworkParams:
    """Network parameters from the common simulation flags."""
    params = NetworkParams(seed=args.seed, allocator=args.allocator)
    if getattr(args, "no_noise", False):
        return params.without_noise()
    return params


def _configure_logging(verbosity: int) -> None:
    """Wire a human-readable handler onto the ``repro`` logger tree.

    The package root logger carries only a NullHandler by default (a
    library must not log uninvited); ``-v`` turns on INFO, ``-vv``
    DEBUG.  Idempotent: repeated or nested ``main()`` calls update the
    one existing handler in place instead of stacking a second, and
    propagation to the process root logger is cut while our handler is
    attached, so a host that ran ``logging.basicConfig`` does not
    print every record a second time.
    """
    if verbosity <= 0:
        return
    root = logging.getLogger("repro")
    root.setLevel(logging.DEBUG if verbosity >= 2 else logging.INFO)
    ours = [h for h in root.handlers if getattr(h, "_repro_cli", False)]
    for extra in ours[1:]:
        root.removeHandler(extra)
    if not ours:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(
            logging.Formatter("%(levelname)s %(name)s: %(message)s")
        )
        handler._repro_cli = True  # type: ignore[attr-defined]
        root.addHandler(handler)
    root.propagate = False


def _append_ledger(
    args: argparse.Namespace,
    command: str,
    spec: str,
    topo,
    msize: Optional[int],
    params: Optional[NetworkParams],
    entries,
    fault_plan=None,
) -> None:
    """Append one run record unless the user opted out (best-effort).

    *topo* is the run's :class:`Topology` or, for a run over many
    topologies, a fingerprint of its configuration.
    """
    if args.no_ledger:
        return
    from repro.obs.ledger import RunLedger, RunRecord, topology_fingerprint

    record = RunRecord.new(
        command,
        topology_spec=spec,
        topology_fingerprint=(
            topo if isinstance(topo, str) else topology_fingerprint(topo)
        ),
        num_machines=0 if isinstance(topo, str) else topo.num_machines,
        msize=msize,
        params=dataclasses.asdict(params) if params is not None else {},
        algorithms=entries,
        fault_plan=(
            {"name": fault_plan.name, "fingerprint": fault_plan.fingerprint()}
            if fault_plan is not None
            else None
        ),
    )
    try:
        RunLedger(args.ledger_dir).append(record)
    except OSError as exc:
        print(f"warning: could not append to ledger: {exc}", file=sys.stderr)


def _cmd_analyze(args: argparse.Namespace) -> int:
    topo = _load_topology(args.topology)
    params = NetworkParams()
    print(f"machines: {topo.num_machines}  switches: {topo.num_switches}")
    print(f"AAPC load (bottleneck): {aapc_load(topo)}")
    undirected = sorted({tuple(sorted(e)) for e in bottleneck_edges(topo)})
    print(f"bottleneck links: {undirected}")
    peak = peak_aggregate_throughput(topo, params.bandwidth)
    print(
        f"peak aggregate throughput @ "
        f"{bytes_per_sec_to_mbps(params.bandwidth):.0f} Mbps links: "
        f"{bytes_per_sec_to_mbps(peak):.1f} Mbps"
    )
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    topo = _load_topology(args.topology)
    schedule = schedule_aapc(topo, root=args.root)
    if args.json:
        from repro.core.schedule_io import save_schedule

        save_schedule(schedule, args.json)
        print(f"wrote {args.json}")
    print(f"phases: {schedule.num_phases}  messages: {len(schedule)}")
    if schedule.root_info is not None:
        info = schedule.root_info
        print(f"root: {info.root}  subtree sizes: {list(info.sizes)}")
    print(schedule.render())
    if args.syncs:
        plan = build_sync_plan(schedule)
        print(
            f"\nsync messages: {plan.stats.num_after_reduction} "
            f"(from {plan.stats.num_conflict_deps} conflict dependences; "
            f"{plan.stats.num_program_order_free} free by program order, "
            f"{plan.stats.removed_by_reduction} removed as redundant)"
        )
        for s in plan.syncs:
            print(f"  {s}")
    return 0


def _cmd_codegen(args: argparse.Namespace) -> int:
    topo = _load_topology(args.topology)
    schedule = schedule_aapc(topo, root=args.root)
    plan = build_sync_plan(schedule)
    programs = build_programs(schedule, plan)
    source = generate_c_routine(
        programs,
        topo.machines,
        num_phases=schedule.num_phases,
        num_syncs=len(plan.syncs),
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(source)
        print(f"wrote {args.output}")
    else:
        print(source)
    return 0


def _derived_path(path: str, name: str, multiple: bool) -> str:
    """``out.json`` → ``out-lam.json`` when several algorithms run."""
    if not multiple:
        return path
    stem, dot, ext = path.rpartition(".")
    if not dot:
        return f"{path}-{name}"
    return f"{stem}-{name}.{ext}"


def _simulate_line(outcome) -> str:
    result = outcome.result
    line = (
        f"{outcome.label:28s} "
        f"{seconds_to_ms(result.completion_time):9.2f} ms   "
        f"{outcome.throughput_mbps:8.1f} Mbps agg   "
    )
    res = outcome.resilient
    if res is not None:
        stats = result.fault_stats or {}
        line += f"retransmits {stats.get('sync_retransmits', 0)}"
        if res.fell_back:
            line += f"   [fell back to {res.algorithm_used}]"
        if result.crashed_ranks:
            line += f"   [crashed: {', '.join(result.crashed_ranks)}]"
        return line
    line += f"max link multiplexing {result.max_edge_multiplexing}"
    telemetry = result.telemetry
    if telemetry is not None:
        verdict = (
            "contention-free"
            if telemetry.contention_free_verified
            else f"{telemetry.total_contention_events} contention events"
        )
        line += f"   [{verdict}]"
    return line


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec = args.topology_opt or args.topology  # the flag wins
    if spec is None:
        print("simulate: a topology is required (positional or --topology)",
              file=sys.stderr)
        return 2
    if args.faults and (
        args.stats_out or args.metrics_interval != MonitorConfig.interval
    ):
        raise ReproError(
            "--faults cannot be combined with --stats-out or "
            "--metrics-interval: a fault-plan run has no live monitor"
        )
    topo = _load_topology(spec)
    msize = parse_size(args.msize)
    params = _make_params(args)
    fault_plan = _load_faults(args)
    names = [args.algorithm] if args.algorithm else args.algorithms
    multiple = len(names) > 1
    entries = {}
    unrecoverable = 0
    if fault_plan is not None:
        print(
            f"fault plan {fault_plan.name!r} "
            f"(fingerprint {fault_plan.fingerprint()}): "
            f"{len(fault_plan.link_faults)} link fault(s), "
            f"{len(fault_plan.stragglers)} straggler(s), "
            f"{len(fault_plan.sync_faults)} sync fault(s), "
            f"{len(fault_plan.crashes)} crash(es)"
        )
    for name in names:
        trace_out, metrics_out, stats_out = (
            _derived_path(path, name, multiple) if path else None
            for path in (args.trace_out, args.metrics_out, args.stats_out)
        )
        # One metrics registry per algorithm: the snapshot in the ledger
        # entry covers this algorithm's scheduling *and* its run.
        outcome = run_pipeline(
            topo, name, msize, params, faults=fault_plan,
            telemetry=bool(trace_out or metrics_out), trace_cap=args.trace_cap,
            stats=True, stats_out=stats_out,
            monitor_interval=args.metrics_interval, audit=True,
            trace_out=trace_out, metrics_out=metrics_out,
        )
        res = outcome.resilient
        for d in res.decisions if res is not None else ():
            print(
                f"  [{d.stage}] {d.from_algorithm} -> {d.to_algorithm}: "
                f"{d.reason}"
            )
        if not outcome.completed:
            unrecoverable += 1
            print(f"{name:28s} UNRECOVERABLE under fault plan")
            if res.diagnosis is not None:
                print("  " + res.diagnosis.summary().replace("\n", "\n  "))
            continue
        print(_simulate_line(outcome))
        if trace_out:
            print(f"  wrote Perfetto trace {trace_out}")
        if metrics_out:
            print(f"  wrote metrics {metrics_out}")
        if stats_out:
            print(f"  wrote metrics snapshots {stats_out}")
        entries[outcome.name] = outcome.entry()
    _append_ledger(
        args, "simulate", spec, topo, msize, params, entries, fault_plan
    )
    return 1 if unrecoverable else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    topo = _load_topology(args.topology)
    # The causal analysis gives the Perfetto trace its critical-path
    # track and the metrics JSON its attribution block.
    outcome = run_pipeline(
        topo, args.algorithm, parse_size(args.msize), _make_params(args),
        telemetry=True, trace_cap=args.trace_cap, attribution=True,
        trace_out=args.out, metrics_out=args.metrics_out,
    )
    telemetry = outcome.telemetry
    print(f"{outcome.label} on {args.topology}, "
          f"msize {args.msize}: flight recorder")
    print(telemetry.summary())
    if args.phases:
        print()
        for phase in telemetry.health.phases:
            print(
                f"  phase {phase.phase:>3}: "
                f"[{seconds_to_ms(phase.start):8.2f}, "
                f"{seconds_to_ms(phase.end):8.2f}] ms  "
                f"sync wait {seconds_to_ms(phase.sync_wait):7.2f} ms  "
                f"drift {seconds_to_ms(phase.drift):6.2f} ms  "
                f"bottleneck {phase.bottleneck_rank}"
            )
    print(f"wrote Perfetto trace {args.out} (open at ui.perfetto.dev)")
    if args.metrics_out:
        print(f"wrote metrics {args.metrics_out}")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.monitor import render_top_table

    topo = _load_topology(args.topology)
    algorithm = get_algorithm(args.algorithm)
    title = (
        f"{algorithm.name} on {args.topology}  msize {args.msize}  "
        f"seed {args.seed}"
    )
    in_place = sys.stdout.isatty() and not args.no_tty
    drawn = [0]

    def on_snapshot(snapshot) -> None:
        lines = render_top_table(snapshot, title=title)
        if in_place and drawn[0]:
            # Return to the top of the previous table and clear down.
            sys.stdout.write(f"\x1b[{drawn[0]}F\x1b[0J")
        sys.stdout.write("\n".join(lines) + "\n")
        sys.stdout.flush()
        drawn[0] = len(lines)

    result = run_pipeline(
        topo, algorithm, parse_size(args.msize), _make_params(args),
        stats=True, stats_out=args.stats_out, on_snapshot=on_snapshot,
        monitor_interval=args.metrics_interval,
    ).result
    print(
        f"completed in {seconds_to_ms(result.completion_time):.2f} ms "
        f"simulated ({result.events_processed} engine events)"
    )
    if args.stats_out:
        print(f"wrote metrics snapshots {args.stats_out}")
    return 0


def _cmd_dash(args: argparse.Namespace) -> int:
    from repro.obs.dashboard import write_dashboard
    from repro.obs.ledger import RunLedger

    ledger = RunLedger(args.ledger_dir)
    records = ledger.records()
    if not records:
        print(f"ledger {ledger.path} is empty; dashboard will be blank",
              file=sys.stderr)
    write_dashboard(records, args.out, title=args.title)
    groups = len({r.topology_fingerprint for r in records})
    print(
        f"wrote dashboard {args.out} "
        f"({len(records)} record(s), {groups} topology fingerprint(s))"
    )
    return 0


def _parse_budgets(specs: Optional[List[str]]) -> Dict[str, float]:
    """``--budget residual=0.10`` / ``residual=10%`` → {"residual": 0.1}."""
    from repro.obs.ledger import parse_threshold

    budgets: Dict[str, float] = {}
    for spec in specs or []:
        name, sep, value = spec.partition("=")
        if not sep or not name:
            raise ReproError(
                f"--budget expects COMPONENT=FRACTION, got {spec!r}"
            )
        budgets[name] = parse_threshold(value)
    return budgets


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.obs.attribution import check_budgets

    topo = _load_topology(args.topology)
    msize = parse_size(args.msize)
    params = _make_params(args)
    budgets = _parse_budgets(args.budget)
    outcome = run_pipeline(
        topo, args.algorithm, msize, params,
        telemetry=True, attribution=True, trace_out=args.trace_out,
    )
    report = outcome.attribution
    if report is None:
        raise ReproError(outcome.analysis_errors["attribution"])
    print(report.summary(top=args.top))
    if args.json_out:
        report.write(args.json_out)
        print(f"wrote attribution report {args.json_out}")
    if args.trace_out:
        print(f"wrote Perfetto trace {args.trace_out} "
              f"(critical-path flow arrows; open at ui.perfetto.dev)")
    _append_ledger(
        args, "explain", args.topology, topo, msize, params,
        {outcome.name: outcome.entry()},
    )
    violations = check_budgets(report, budgets)
    for violation in violations:
        print(f"BUDGET VIOLATION: {violation}", file=sys.stderr)
    return 1 if violations else 0


def _cmd_phases(args: argparse.Namespace) -> int:
    """The phase observatory: predicted-vs-observed divergence audit.

    Exit codes: 0 clean or merely divergent, 1 when contention was
    observed inside a certified contention-free phase (the Theorem
    broken — always fatal) or when ``--max-divergence`` is given and
    the worst occupancy deviation exceeds it, 2 on usage errors.
    """
    from repro.obs.ledger import parse_threshold

    topo = _load_topology(args.topology)
    msize = parse_size(args.msize)
    params = _make_params(args)
    tolerance = parse_threshold(args.tolerance)
    max_divergence = (
        parse_threshold(args.max_divergence)
        if args.max_divergence is not None
        else float("inf")
    )
    outcome = run_pipeline(
        topo, args.algorithm, msize, params,
        telemetry=True, trace_cap=args.trace_cap,
        audit=True, audit_tolerance=tolerance, trace_out=args.trace_out,
    )
    report = outcome.audit
    if report is None:
        raise ReproError(outcome.analysis_errors["phase_audit"])
    print(
        f"{outcome.label}  "
        f"{seconds_to_ms(outcome.result.completion_time):.2f} ms"
    )
    print(report.summary())
    if args.json_out:
        write_json(args.json_out, report.as_dict())
        print(f"wrote phase-audit report {args.json_out}")
    if args.trace_out:
        print(f"wrote Perfetto trace {args.trace_out} "
              f"(phase-audit divergence track; open at ui.perfetto.dev)")
    _append_ledger(
        args, "phases", args.topology, topo, msize, params,
        {outcome.name: outcome.entry()},
    )
    problems = report.gate(max_divergence)
    for problem in problems:
        print(f"PHASE AUDIT FAILURE: {problem}", file=sys.stderr)
    return 1 if problems else 0


def _cmd_stp(args: argparse.Namespace) -> int:
    from repro.topology.physical_format import load_physical
    from repro.topology.serialization import dumps_topology
    from repro.topology.spanning_tree import compute_spanning_tree

    network = load_physical(args.wiring)
    result = compute_spanning_tree(network)
    print(f"root bridge: {result.root_bridge}")
    print(f"forwarding switch links: {len(result.forwarding_links)}")
    for a, b, cost in result.forwarding_links:
        print(f"  forward {a} <-> {b} (cost {cost})")
    for a, b, cost in result.blocked_links:
        print(f"  BLOCKED {a} <-> {b} (cost {cost})")
    for switch in sorted(result.root_path_cost):
        print(f"  root path cost {switch}: {result.root_path_cost[switch]}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(dumps_topology(result.topology))
        print(f"wrote forwarding topology to {args.output}")
    return 0


def _cmd_gantt(args: argparse.Namespace) -> int:
    from repro.sim.gantt import phase_latency_table, render_rank_gantt

    topo = _load_topology(args.topology)
    outcome = run_pipeline(
        topo, args.algorithm, parse_size(args.msize), _make_params(args),
        trace=True,
    )
    result = outcome.result
    ranks = list(topo.machines)[: args.ranks] if args.ranks else None
    print(
        f"{outcome.label}  "
        f"{seconds_to_ms(result.completion_time):.2f} ms  "
        f"max link multiplexing {result.max_edge_multiplexing}"
    )
    print(render_rank_gantt(result.trace, ranks=ranks, width=args.width))
    if args.phases:
        print()
        print(phase_latency_table(result.trace))
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.core.program_analysis import analyze_programs

    topo = _load_topology(args.topology)
    msize = parse_size(args.msize)
    built = build(topo, args.algorithm, msize)
    report = analyze_programs(topo, built.programs, msize)
    print(f"{built.algorithm.describe(topo, msize)} on {args.topology}, "
          f"msize {args.msize}: static contention analysis")
    print(report.render())
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    import hashlib

    from repro.harness.campaign import run_campaign
    from repro.obs.ledger import AlgorithmEntry

    msize = parse_size(args.msize)
    summary = run_campaign(
        num_topologies=args.topologies,
        msize=msize,
        params=_make_params(args),
        repetitions=args.repetitions,
        base_seed=args.seed,
    )
    print(summary.render())
    entries: Dict[str, AlgorithmEntry] = {}
    for name in summary.algorithms:
        times = [row.times[name] for row in summary.rows]
        entries[name] = AlgorithmEntry(
            completion_time_ms=sum(times) / len(times) * 1e3,
        )
    config = (
        f"campaign:topologies={args.topologies}:msize={msize}"
        f":repetitions={args.repetitions}:seed={args.seed}"
    )
    _append_ledger(
        args, "campaign", f"random x{args.topologies}",
        hashlib.sha256(config.encode()).hexdigest()[:16], msize, None, entries,
    )
    return 0


def _cmd_repro(args: argparse.Namespace) -> int:
    try:
        experiment = EXPERIMENTS[args.experiment]
    except KeyError:
        print(
            f"unknown experiment {args.experiment!r}; "
            f"available: {sorted(EXPERIMENTS)}",
            file=sys.stderr,
        )
        return 2
    print(f"# {experiment.name}: {experiment.description}")
    fault_plan = _load_faults(args)
    if fault_plan is not None:
        print(
            f"# fault plan {fault_plan.name!r} "
            f"(fingerprint {fault_plan.fingerprint()})"
        )
    sizes = [parse_size(s) for s in args.sizes] if args.sizes else None
    result = experiment.run(
        sizes=sizes,
        repetitions=args.repetitions,
        telemetry=bool(args.metrics_out),
        faults=fault_plan,
        max_trace_records=args.trace_cap,
    )
    if args.metrics_out:
        cells = [
            {
                "algorithm": p.algorithm,
                "variant": p.variant,
                "msize": p.msize,
                "mean_time_ms": p.mean_time * 1e3,
                "min_time_ms": p.min_time * 1e3,
                "max_time_ms": p.max_time * 1e3,
                "throughput_mbps": p.throughput_mbps,
                "peak_concurrent_flows": p.peak_concurrent_flows,
                "max_edge_multiplexing": p.max_edge_multiplexing,
                "link_stats": p.link_stats.as_dict() if p.link_stats else None,
                "attribution": p.attribution,
                "phase_audit": p.phase_audit,
                **(
                    {"analysis_errors": p.analysis_errors}
                    if p.analysis_errors else {}
                ),
            }
            for p in result.points
        ]
        write_json(
            args.metrics_out, {"experiment": experiment.name, "cells": cells}
        )
        print(f"wrote metrics {args.metrics_out}")
    print(completion_table(result, reference=experiment.reference))
    print()
    print(throughput_table(result))
    if any(p.attribution for p in result.points):
        print()
        print(attribution_table(result))
    if any(p.phase_audit for p in result.points):
        print()
        print(phase_audit_table(result))
    if args.plot:
        print()
        print(render_throughput_series(result))
    if "generated" in result.algorithms():
        print("\nspeedups (paper convention, + means generated is faster):")
        print(speedup_summary(result))

    from repro.obs.ledger import AlgorithmEntry

    entries: Dict[str, AlgorithmEntry] = {}
    for p in result.points:
        entries[f"{p.algorithm}@{p.msize}"] = AlgorithmEntry(
            completion_time_ms=p.mean_time * 1e3,
            throughput_mbps=p.throughput_mbps,
            scheduler_runtime_ms=(
                p.build_time * 1e3 if p.build_time is not None else None
            ),
            telemetry=p.link_stats.as_dict() if p.link_stats else None,
            attribution=p.attribution,
            phase_audit=p.phase_audit,
            analysis_errors=p.analysis_errors,
        )
    _append_ledger(
        args, "repro", experiment.name, result.topology, None, result.params,
        entries, fault_plan,
    )
    return 0


def _builtin_chaos_plans(topo: Topology, seed: int) -> List[object]:
    """The default chaos sweep, derived from the topology's own links."""
    from repro.faults.plan import (
        FaultPlan,
        HostStraggler,
        LinkFault,
        SyncFault,
    )

    trunks = [
        (u, v) for u, v in topo.links
        if topo.is_switch(u) and topo.is_switch(v)
    ]
    target = trunks[0] if trunks else topo.links[0]
    victim = topo.machines[0]
    plans = {
        "sync-loss": dict(sync_faults=[SyncFault(loss=0.2)]),
        "sync-delay-dup": dict(sync_faults=[
            SyncFault(delay_prob=0.3, delay_mean=1e-3, duplicate=0.1)
        ]),
        "degraded-trunk": dict(link_faults=[
            LinkFault(link=target, factor=0.25)
        ]),
        "link-flap": dict(link_faults=[
            LinkFault(link=target, failed=True, start=0.001, end=0.02)
        ]),
        "straggler": dict(stragglers=[HostStraggler(rank=victim, factor=6.0)]),
        "link-failure": dict(link_faults=[
            LinkFault(link=target, failed=True)
        ]),
    }
    return [FaultPlan(name=n, seed=seed, **kw) for n, kw in plans.items()]


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults.plan import load_fault_plan
    from repro.obs.ledger import AlgorithmEntry

    topo = _load_topology(args.topology)
    msize = parse_size(args.msize)
    params = _make_params(args)

    if args.plans:
        plans = [load_fault_plan(path) for path in args.plans]
    else:
        plans = _builtin_chaos_plans(topo, args.seed)
    for plan in plans:
        plan.validate_against(topo)

    # Fault-free baselines, one per algorithm.
    baselines = {
        name: run_pipeline(topo, name, msize, params).result.completion_time
        for name in args.algorithms
    }

    print(
        f"chaos sweep on {args.topology} ({topo.num_machines} machines), "
        f"msize {args.msize}, seed {args.seed}: "
        f"{len(plans)} plan(s) x {len(args.algorithms)} algorithm(s)"
    )
    header = (
        f"{'plan':<16} {'algorithm':<12} {'baseline':>9} {'wasted':>8} "
        f"{'runtime':>9} {'slowdown':>8} {'rexmit':>6} {'recov':>5}  outcome"
    )
    print(header)
    print("-" * len(header))

    artifact: Dict[str, object] = {
        "topology": args.topology,
        "num_machines": topo.num_machines,
        "msize": msize,
        "seed": args.seed,
        "results": [],
    }
    entries: Dict[str, AlgorithmEntry] = {}
    unrecoverable = 0
    for plan in plans:
        for name in args.algorithms:
            res = run_pipeline(
                topo, name, msize, params, faults=plan
            ).resilient
            base = baselines[name]
            row: Dict[str, object] = {
                "plan": plan.name,
                "fingerprint": plan.fingerprint(),
                "algorithm": name,
                "completed": res.completed,
                "algorithm_used": res.algorithm_used,
                "baseline_ms": base * 1e3,
                "wasted_ms": res.wasted_time * 1e3,
                "decisions": res.decisions_dict(),
                "repairs": res.repairs_dict(),
            }
            if res.diagnosis is not None:
                row["diagnosis"] = res.diagnosis.as_dict()
            artifact["results"].append(row)
            if not res.completed:
                unrecoverable += 1
                row["outcome"] = "unrecoverable"
                print(
                    f"{plan.name:<16} {name:<12} {base * 1e3:8.2f}m "
                    f"{'--':>8} {'--':>9} {'--':>8} {'--':>6} {'--':>5}  "
                    "UNRECOVERABLE"
                )
                continue
            result = res.result
            stats = result.fault_stats or {}
            # Retransmissions that actually recovered a lost sync:
            # abandoned syncs burn the whole retry budget first.
            recovered = stats.get("sync_retransmits", 0) - stats.get(
                "syncs_abandoned", 0
            ) * params.sync_max_retries
            # True cost of the run = stall time wasted on abandoned
            # attempts + the completing run itself.
            slowdown = res.total_time / base if base > 0 else 0.0
            if res.repaired:
                tier = next(r.tier for r in res.repairs if r.succeeded)
                outcome = (
                    "repaired" if tier == "repair" else "repaired-relaxed"
                )
            elif res.fell_back:
                outcome = f"fell-back({res.algorithm_used})"
            else:
                outcome = "ok"
            if result.crashed_ranks:
                outcome += f" crashed={len(result.crashed_ranks)}"
            print(
                f"{plan.name:<16} {name:<12} "
                f"{base * 1e3:8.2f}m {res.wasted_time * 1e3:7.2f}m "
                f"{result.completion_time * 1e3:8.2f}m "
                f"{slowdown:7.2f}x {stats.get('sync_retransmits', 0):>6} "
                f"{max(0, recovered):>5}  {outcome}"
            )
            row.update(
                faulted_ms=result.completion_time * 1e3,
                runtime_ms=result.completion_time * 1e3,
                total_ms=res.total_time * 1e3,
                slowdown=slowdown,
                outcome=outcome,
                fault_stats=stats,
                crashed_ranks=list(result.crashed_ranks),
            )
            entries[f"{name}@{plan.name}"] = AlgorithmEntry(
                completion_time_ms=res.total_time * 1e3,
                telemetry={key: row[key] for key in (
                    "fault_stats", "slowdown", "wasted_ms", "runtime_ms",
                    "outcome", "repairs", "decisions",
                )},
            )

    if args.diagnosis_out:
        write_json(args.diagnosis_out, artifact)
        print(f"wrote diagnosis artifact {args.diagnosis_out}")

    _append_ledger(args, "chaos", args.topology, topo, msize, params, entries)
    return 1 if unrecoverable else 0


def _cmd_report_list(args: argparse.Namespace) -> int:
    from repro.obs.ledger import RunLedger

    ledger = RunLedger(args.ledger_dir)
    try:
        records = ledger.records()
    except ReproError as exc:
        print(f"report: {exc}", file=sys.stderr)
        return 2
    if not records:
        print(f"ledger {ledger.path} is empty")
        return 0
    print(f"{len(records)} run(s) in {ledger.path}")
    print(f"{'run id':<24} {'when (UTC)':<20} {'command':<9} "
          f"{'topology':<14} {'algorithms'}")
    for r in records:
        algs = ", ".join(
            f"{name}={entry.completion_time_ms:.1f}ms"
            for name, entry in sorted(r.algorithms.items())
        )
        print(f"{r.run_id:<24} {r.timestamp:<20} {r.command:<9} "
              f"{r.topology_spec:<14} {algs}")
    return 0


def _cmd_report_show(args: argparse.Namespace) -> int:
    from repro.obs.ledger import RunLedger

    try:
        record = RunLedger(args.ledger_dir).find(args.run)
    except ReproError as exc:
        print(f"report: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(record.as_dict(), indent=2, sort_keys=True))
    return 0


def _topologies_differ(a, b) -> bool:
    fa, fb = a.topology_fingerprint, b.topology_fingerprint
    return bool(fa and fb and fa != fb)


def _cmd_report_compare(args: argparse.Namespace) -> int:
    from repro.obs.ledger import (
        RunLedger,
        compare_records,
        ensure_same_fault_partition,
    )

    ledger = RunLedger(args.ledger_dir)
    try:
        a = ledger.find(args.a)
        # ``latest`` resolves within the baseline's fault partition, so
        # a chaos run landing last never sneaks into a clean comparison.
        b = ledger.find(args.b, fault_fingerprint=a.fault_fingerprint)
        ensure_same_fault_partition(a, b)
    except ReproError as exc:
        print(f"report: {exc}", file=sys.stderr)
        return 2
    if _topologies_differ(a, b):
        print(
            "warning: runs used different topologies "
            f"({a.topology_fingerprint} vs {b.topology_fingerprint}); "
            "deltas are not like-for-like",
            file=sys.stderr,
        )
    deltas = compare_records(a, b)
    if not deltas:
        print("no comparable metrics between the two runs", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(
            {
                "baseline": a.run_id,
                "current": b.run_id,
                "deltas": [d.as_dict() for d in deltas],
            },
            indent=2,
            sort_keys=True,
        ))
        return 0
    print(f"{a.run_id} -> {b.run_id}")
    for d in deltas:
        print(f"  {d}")
    return 0


def _cmd_report_regress(args: argparse.Namespace) -> int:
    """The perf gate: non-zero exit on completion-time or
    scheduler-runtime regressions beyond the threshold."""
    from repro.obs.ledger import (
        RunLedger,
        compare_records,
        ensure_same_fault_partition,
        load_baseline,
        parse_threshold,
    )

    ledger = RunLedger(args.ledger_dir)
    try:
        threshold = parse_threshold(args.threshold)
        baseline = load_baseline(args.baseline, ledger)
        current = ledger.find(
            args.run, fault_fingerprint=baseline.fault_fingerprint
        )
        ensure_same_fault_partition(baseline, current)
    except ReproError as exc:
        print(f"report regress: {exc}", file=sys.stderr)
        return 2
    if _topologies_differ(baseline, current):
        print(
            "warning: baseline and current runs used different topologies; "
            "the gate may be meaningless",
            file=sys.stderr,
        )
    deltas = compare_records(baseline, current)
    if not deltas:
        print(
            "report regress: no comparable metrics between baseline "
            f"{baseline.run_id} and run {current.run_id}",
            file=sys.stderr,
        )
        return 2
    regressions = [d for d in deltas if d.ratio > 1.0 + threshold]
    if args.json:
        print(json.dumps(
            {
                "baseline": baseline.run_id,
                "current": current.run_id,
                "threshold": threshold,
                "ok": not regressions,
                "regressions": len(regressions),
                "deltas": [
                    {**d.as_dict(), "regression": d in regressions}
                    for d in deltas
                ],
            },
            indent=2,
            sort_keys=True,
        ))
        return 1 if regressions else 0
    print(
        f"baseline {baseline.run_id}  vs  {current.run_id}  "
        f"(threshold {threshold * 100:.1f}%)"
    )
    for d in deltas:
        flag = "  REGRESSION" if d in regressions else ""
        print(f"  {d}{flag}")
    if regressions:
        print(
            f"FAIL: {len(regressions)} metric(s) regressed beyond "
            f"{threshold * 100:.1f}%"
        )
        return 1
    print("OK: all metrics within threshold")
    return 0


def _cmd_report_sentinel(args: argparse.Namespace) -> int:
    """Anomaly sweep over the ledger's per-fingerprint time series."""
    from repro.obs.ledger import RunLedger, parse_threshold
    from repro.obs.sentinel import run_sentinel

    ledger = RunLedger(args.ledger_dir)
    # Tolerant read: a history sweep should skip unreadable records
    # (future schemas, mid-file damage) rather than refuse the scan.
    records = ledger.records(skip_unreadable=True)
    if args.fingerprint:
        records = [
            r for r in records
            if r.topology_fingerprint.startswith(args.fingerprint)
        ]
    if not records:
        print(f"sentinel: no readable records in {ledger.path}")
        return 0
    try:
        report = run_sentinel(
            records,
            metrics=args.metrics,
            z_threshold=args.z_threshold,
            step_threshold=parse_threshold(args.step_threshold),
            min_points=args.min_points,
        )
    except ReproError as exc:
        print(f"report sentinel: {exc}", file=sys.stderr)
        return 2
    print(report.summary())
    if args.json_out:
        write_json(args.json_out, report.as_dict())
        print(f"wrote sentinel report {args.json_out}")
    if args.fail_on_anomaly and report.regressions:
        print(
            f"FAIL: {len(report.regressions)} regression anomal"
            f"{'y' if len(report.regressions) == 1 else 'ies'} in "
            f"ledger history",
            file=sys.stderr,
        )
        return 1
    return 0


def _shared_opts(*names: str) -> argparse.ArgumentParser:
    """A parent parser declaring the named flags shared by subcommands.

    Built fresh for each subcommand: argparse hands a parent's action
    objects to every child, so a child's ``set_defaults`` would
    otherwise change the default for all of them.
    """
    path = dict(default=None, metavar="FILE")
    flags = {
        "topology": ("topology", dict(
            help="file path or builtin: a, b, c, fig1",
        )),
        "algorithm": ("--algorithm", dict(
            default="generated", choices=available_algorithms(),
            help="the algorithm to run (overrides --algorithms)",
        )),
        "algorithms": ("--algorithms", dict(
            nargs="+", default=["lam", "mpich", "generated"],
            choices=available_algorithms(), help="algorithms to run",
        )),
        "msize": ("--msize", dict(
            default="64KB", help="per-pair message size",
        )),
        "seed": ("--seed", dict(type=int, default=0)),
        "allocator": ("--allocator", dict(
            default="incremental", choices=list(ALLOCATORS),
            help="max-min rate solver (the two agree to 1e-9)",
        )),
        "trace_cap": ("--trace-cap", dict(
            type=int, default=None, metavar="N",
            help="ring-buffer cap on flight-recorder trace records "
                 "(bounds memory; disables causal analysis)",
        )),
        "no_noise": ("--no-noise", dict(
            action="store_true",
            help="disable stochastic latency noise (exact analysis)",
        )),
        "faults": ("--faults", dict(
            **path, help="fault-injection plan JSON (runs under chaos)",
        )),
        "trace_out": ("--trace-out", dict(
            **path, help="write a Chrome/Perfetto trace JSON "
                         "(one per algorithm when several run)",
        )),
        "metrics_out": ("--metrics-out", dict(
            **path, help="write the metrics JSON report "
                         "(one per algorithm when several run)",
        )),
        "json_out": ("--json-out", dict(
            **path, help="write the schema-versioned report JSON",
        )),
        "stats_out": ("--stats-out", dict(
            **path, help="write live hot-path metrics snapshots as JSONL "
                         "(one per algorithm when several run)",
        )),
        "metrics_interval": ("--metrics-interval", dict(
            type=float, default=MonitorConfig.interval, metavar="SECS",
            help="wall-clock seconds between live monitor snapshots "
                 "(default 0.5)",
        )),
    }
    parent = argparse.ArgumentParser(add_help=False)
    for name in names:
        flag, kwargs = flags[name]
        parent.add_argument(flag, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-aapc",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--version", action="version",
        version=f"%(prog)s {__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared flags.  argparse subparser defaults override main-parser
    # values, so ``-v`` lives on a parent attached to every subcommand
    # rather than on the top-level parser.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="enable repro.* logging (-v info, -vv debug)",
    )
    ledger_dir = argparse.ArgumentParser(add_help=False)
    ledger_dir.add_argument(
        "--ledger-dir", default=None, metavar="DIR",
        help="run-ledger directory (default: "
             "$REPRO_AAPC_LEDGER_DIR or ~/.cache/repro-aapc/ledger)",
    )
    ledger_opts = argparse.ArgumentParser(add_help=False, parents=[ledger_dir])
    ledger_opts.add_argument(
        "--no-ledger", action="store_true",
        help="do not append this run to the run ledger",
    )
    # The simulation flags every run-shaped subcommand takes.
    run = ("algorithm", "msize", "seed", "allocator")

    def add(name, *shared, ledger=False, **kwargs):
        parents = [common, *([ledger_opts] if ledger else [])]
        if shared:
            parents.append(_shared_opts(*shared))
        return sub.add_parser(name, parents=parents, **kwargs)

    p = add("analyze", "topology", help="topology load/bottleneck analysis")
    p.set_defaults(func=_cmd_analyze)

    p = add("schedule", "topology",
            help="print the contention-free schedule")
    p.add_argument("--root", default=None, help="force the scheduling root")
    p.add_argument("--syncs", action="store_true", help="also print sync plan")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="also export the schedule as JSON")
    p.set_defaults(func=_cmd_schedule)

    p = add("codegen", "topology",
            help="emit the customized MPI_Alltoall in C")
    p.add_argument("--root", default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_codegen)

    p = add(
        "simulate", "algorithms", *run, "trace_cap", "faults", "trace_out",
        "metrics_out", "stats_out", "metrics_interval", ledger=True,
        help="simulate algorithms on a topology",
    )
    p.add_argument("topology", nargs="?", default=None,
                   help="file path or builtin: a, b, c, fig1")
    p.add_argument("--topology", dest="topology_opt", default=None,
                   help="alternative to the positional topology")
    p.set_defaults(func=_cmd_simulate, algorithm=None)

    p = add("trace", "topology", *run, "trace_cap", "metrics_out",
            help="flight-recorder run: Perfetto trace + metrics")
    p.add_argument("-o", "--out", default="trace.json",
                   help="Perfetto trace output path")
    p.add_argument("--phases", action="store_true",
                   help="also print per-phase health rows")
    p.set_defaults(func=_cmd_trace)

    p = add("top", "topology", *run, "stats_out", "metrics_interval",
            help="live run monitor: refreshing metrics table while "
                 "simulating")
    p.add_argument("--no-tty", action="store_true",
                   help="never redraw in place; append tables as plain text")
    p.set_defaults(func=_cmd_top)

    p = sub.add_parser(
        "dash", parents=[common, ledger_dir],
        help="self-contained HTML dashboard from the run ledger",
    )
    p.add_argument("-o", "--out", default="dashboard.html",
                   help="output HTML path (default dashboard.html)")
    p.add_argument("--title", default="repro-aapc ledger dashboard")
    p.set_defaults(func=_cmd_dash)

    p = add(
        "explain", "topology", *run, "no_noise", "json_out", "trace_out",
        ledger=True,
        help="critical-path analysis: attribute the gap to the load/B "
             "optimum to named components",
    )
    p.add_argument("--top", type=int, default=8,
                   help="critical-path segments to print (default 8)")
    p.add_argument("--budget", action="append", default=None,
                   metavar="COMPONENT=FRACTION",
                   help="exit non-zero when a component exceeds this "
                        "fraction of the optimum, e.g. residual=0.10 or "
                        "sync_wait=15%% (repeatable)")
    p.set_defaults(func=_cmd_explain)

    p = add(
        "phases", "topology", *run, "trace_cap", "no_noise", "json_out",
        "trace_out", ledger=True,
        help="phase observatory: audit predicted vs observed per-phase "
             "link loads, contention and durations",
    )
    p.add_argument("--tolerance", default="10%",
                   help="occupancy ratio tolerance before a link counts as "
                        "divergent, e.g. 10%% or 0.10 (default 10%%)")
    p.add_argument("--max-divergence", default=None, metavar="FRACTION",
                   help="exit non-zero when the worst occupancy deviation "
                        "exceeds this fraction (e.g. 0.10 or 10%%); "
                        "contention inside a certified contention-free "
                        "phase always fails")
    p.set_defaults(func=_cmd_phases)

    p = add("stp", help="reduce a redundant physical wiring to its "
                        "forwarding tree")
    p.add_argument("wiring", help="physical wiring file (switch/machine/trunk)")
    p.add_argument("-o", "--output", default=None,
                   help="write the forwarding topology here")
    p.set_defaults(func=_cmd_stp)

    p = add("gantt", "topology", *run, help="per-rank execution timeline")
    p.add_argument("--ranks", type=int, default=None,
                   help="show only the first N ranks")
    p.add_argument("--width", type=int, default=72)
    p.add_argument("--phases", action="store_true",
                   help="also print the per-phase latency table")
    p.set_defaults(func=_cmd_gantt)

    p = add("inspect", "topology", "algorithm", "msize",
            help="static contention analysis of an algorithm")
    p.set_defaults(func=_cmd_inspect, algorithm="lam")

    p = add("campaign", "msize", "seed", "allocator", ledger=True,
            help="compare algorithms over random topologies")
    p.add_argument("--topologies", type=int, default=8)
    p.add_argument("--repetitions", type=int, default=2)
    p.set_defaults(func=_cmd_campaign, msize="128KB")

    p = add("repro", "trace_cap", "faults", "metrics_out", ledger=True,
            help="regenerate a paper experiment")
    p.add_argument("experiment", help=f"one of {sorted(EXPERIMENTS)}")
    p.add_argument("--sizes", nargs="*", default=None, help="e.g. 8KB 64KB")
    p.add_argument("--repetitions", type=int, default=3)
    p.add_argument("--plot", action="store_true", help="text throughput plot")
    p.set_defaults(func=_cmd_repro)

    p = add("chaos", "algorithms", "msize", "seed", "allocator", ledger=True,
            help="fault-injection sweep: degradation and recovery per "
                 "algorithm")
    p.add_argument("topology", nargs="?", default="fig1",
                   help="file path or builtin: a, b, c, fig1")
    p.add_argument("--plans", nargs="+", default=None, metavar="FILE",
                   help="fault-plan JSON files (default: built-in sweep "
                        "derived from the topology)")
    p.add_argument("--diagnosis-out", default=None, metavar="FILE",
                   help="write watchdog diagnoses, fault stats and fallback "
                        "decisions as a JSON artifact")
    p.set_defaults(
        func=_cmd_chaos, msize="32KB", algorithms=["generated", "mpich"]
    )

    report = sub.add_parser(
        "report", help="inspect and compare runs from the run ledger"
    )
    rsub = report.add_subparsers(dest="report_command", required=True)
    p = rsub.add_parser("list", parents=[common, ledger_dir],
                        help="list recorded runs")
    p.set_defaults(func=_cmd_report_list)

    p = rsub.add_parser("show", parents=[common, ledger_dir],
                        help="dump one run record as JSON")
    p.add_argument("run", nargs="?", default="latest",
                   help="run id, unique prefix, or 'latest'")
    p.set_defaults(func=_cmd_report_show)

    p = rsub.add_parser("compare", parents=[common, ledger_dir],
                        help="metric deltas between two runs")
    p.add_argument("a", help="baseline run id / prefix / 'latest'")
    p.add_argument("b", help="current run id / prefix / 'latest'")
    p.add_argument("--json", action="store_true",
                   help="emit the deltas as JSON instead of a text table")
    p.set_defaults(func=_cmd_report_compare)

    p = rsub.add_parser(
        "regress", parents=[common, ledger_dir],
        help="perf gate: fail when metrics regress past a threshold",
    )
    p.add_argument("--baseline", required=True,
                   help="baseline: ledger run ref or a JSON record file")
    p.add_argument("--run", default="latest",
                   help="run to check (default: latest)")
    p.add_argument("--threshold", default="5%",
                   help="allowed slowdown, e.g. 5%% or 0.05 (default 5%%)")
    p.add_argument("--json", action="store_true",
                   help="emit the verdict and deltas as JSON (exit code "
                        "still reflects the gate)")
    p.set_defaults(func=_cmd_report_regress)

    p = rsub.add_parser(
        "sentinel", parents=[common, ledger_dir, _shared_opts("json_out")],
        help="anomaly sweep over ledger history: changepoint + robust-z "
             "per (topology, algorithm, metric) series",
    )
    p.add_argument("--metrics", nargs="+", default=None,
                   help="restrict to named metrics (default: completion "
                        "time, scheduler runtime, sim wall, attribution "
                        "components)")
    p.add_argument("--fingerprint", default=None, metavar="PREFIX",
                   help="only scan runs whose topology fingerprint starts "
                        "with this prefix")
    p.add_argument("--z-threshold", type=float, default=4.0,
                   help="robust z-score above which a point is an outlier "
                        "(default 4.0)")
    p.add_argument("--step-threshold", default="50%",
                   help="relative median shift that counts as a step "
                        "change, e.g. 50%% or 0.5 (default 50%%)")
    p.add_argument("--min-points", type=int, default=5,
                   help="series shorter than this are skipped (default 5)")
    p.add_argument("--fail-on-anomaly", action="store_true",
                   help="exit non-zero when any regression anomaly is "
                        "detected (CI gate)")
    p.set_defaults(func=_cmd_report_sentinel)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    _configure_logging(getattr(args, "verbose", 0))
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"repro-aapc: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
