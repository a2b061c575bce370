"""Workloads of the benchmark: inputs from a seed, one job, its checks.

A job drives the program only through public functions, in the order
``repro-aapc simulate`` uses them: ``get_algorithm(...).build_programs``
→ ``run_programs`` → the ``obs`` analyses → the exports, ending with a
ledger record as ``simulate`` appends by default.  Every call runs
inside a span of the benchmark's :class:`~spans.SpanRecorder`, so the
call is timed from outside the program.

The inputs (topology and :class:`~repro.sim.params.NetworkParams`) are
built from the seed before the first job; the program receives only
them.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional

from repro.algorithms import get_algorithm
from repro.core.program import OpKind
from repro.core.verify import verify_schedule
from repro.harness.metrics import summarize_links
from repro.obs.attribution import explain_telemetry
from repro.obs.ledger import (
    AlgorithmEntry,
    RunLedger,
    RunRecord,
    topology_fingerprint,
)
from repro.obs.phase_audit import audit_phases
from repro.obs.telemetry import load_metrics
from repro.sim.executor import run_programs
from repro.sim.params import NetworkParams
from repro.topology.analysis import aapc_load
from repro.topology.builder import (
    paper_example_cluster,
    random_tree,
    topology_c,
)
from repro.topology.graph import Topology
from repro.units import bytes_per_sec_to_mbps

from spans import SpanRecorder

#: Message size of every workload: 64 KiB, the paper's large-message
#: regime (rendezvous transfers, the size LAM collapses on).
MSIZE = 64 * 1024

#: The seed whose completion times are committed in ``reference.json``.
DEFAULT_SEED = 0

#: "Same result" as the ROADMAP defines it for simulated times.
REFERENCE_RTOL = 1e-9

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def placed_random_tree(machines: int, switches: int):
    """Topology factory: one random tree shape, ranks placed by the seed.

    The shape is ``random_tree(machines, switches, seed=0)``: its switch
    tree and how many machines hang off each switch.  The seed shuffles
    which rank sits on which switch.  Different random shapes of the
    same size differ by up to 20% in the sync plan and so in the cost of
    a job (and by 3,000 to 4,096 phases in load at 128 machines), which
    would make a job's cost a property of the seed rather than of the
    code; placements of one shape cost the same to within 1-2% while
    each seed still gets its own schedule, sync plan and noise.
    """
    shape = random_tree(machines, switches, seed=0)
    trunks = [(a, b) for a, b in shape.links
              if shape.is_switch(a) and shape.is_switch(b)]
    hosts = [next(iter(shape.neighbors(m))) for m in shape.machines]

    def make(seed: int) -> Topology:
        placement = list(hosts)
        random.Random(seed).shuffle(placement)
        topo = Topology()
        for switch in shape.switches:
            topo.add_switch(switch)
        for a, b in trunks:
            topo.add_link(a, b)
        for rank, switch in enumerate(placement):
            topo.add_machine(f"n{rank}")
            topo.add_link(switch, f"n{rank}")
        topo.validate()
        return topo

    return make


@dataclass(frozen=True)
class Workload:
    name: str
    #: Name passed to ``get_algorithm``.
    algorithm: str
    topology: Callable[[int], Topology]
    #: Telemetry on, then the analyses and the metrics/Perfetto exports.
    observe: bool
    #: The few-machine variant that runs the same job path in seconds.
    smoke: Optional[str] = None


def _fixed(builder: Callable[[], Topology]) -> Callable[[int], Topology]:
    return lambda seed: builder()


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("scheduled-rt128", "scheduled",
                 placed_random_tree(128, 8), False,
                 smoke="scheduled-fig1"),
        Workload("lam-topo-c", "lam", _fixed(topology_c), False,
                 smoke="lam-fig1"),
        Workload("observe-rt64", "scheduled",
                 placed_random_tree(64, 6), True,
                 smoke="observe-fig1"),
        Workload("scheduled-fig1", "scheduled",
                 _fixed(paper_example_cluster), False),
        Workload("lam-fig1", "lam", _fixed(paper_example_cluster), False),
        Workload("observe-fig1", "scheduled",
                 _fixed(paper_example_cluster), True),
    )
}


class JobFailure(Exception):
    """A job's output failed one of the benchmark's checks."""


def load_references() -> Dict[str, float]:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)["completion_time_s"]


@dataclass
class Inputs:
    workload: Workload
    seed: int
    topology: Topology
    params: NetworkParams
    #: ``aapc_load(topology)``: the phase count the generator must hit.
    load: int
    #: Committed completion time for :data:`DEFAULT_SEED`, else None.
    reference: Optional[float]


def make_inputs(workload: Workload, seed: int) -> Inputs:
    topo = workload.topology(seed)
    reference = None
    if seed == DEFAULT_SEED:
        reference = load_references()[workload.name]
    return Inputs(workload, seed, topo, NetworkParams(seed=seed),
                  aapc_load(topo), reference)


@dataclass
class Job:
    """What one job produced, kept until the next job starts."""

    id: int
    seconds: float = 0.0
    algorithm: object = None
    programs: Dict = field(default_factory=dict)
    result: object = None
    audit: object = None
    report: object = None
    workdir: str = ""
    #: Artifact name -> bytes written.
    artifact_bytes: Dict[str, int] = field(default_factory=dict)

    @property
    def metrics_path(self) -> str:
        return os.path.join(self.workdir, "metrics.json")

    @property
    def perfetto_path(self) -> str:
        return os.path.join(self.workdir, "trace.json")

    @property
    def ledger_dir(self) -> str:
        return os.path.join(self.workdir, "ledger")

    def remove_artifacts(self) -> None:
        if self.workdir:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = ""


def _params_dict(params: NetworkParams) -> Dict[str, object]:
    return {f.name: getattr(params, f.name) for f in fields(params)}


def run_job(inputs: Inputs, spans: SpanRecorder, job_id: int,
            tmp_root: str) -> Job:
    """Run one job; raises on any failure of the program or the checks."""
    wl = inputs.workload
    topo, params = inputs.topology, inputs.params
    job = Job(job_id, workdir=tempfile.mkdtemp(prefix="job-", dir=tmp_root))
    with spans.span("job", job_id) as root:
        with spans.span("core.build", job_id) as build:
            algorithm = get_algorithm(wl.algorithm)
            programs = algorithm.build_programs(topo, MSIZE)
        with spans.span("sim.run", job_id) as sim:
            result = run_programs(topo, programs, MSIZE, params,
                                  telemetry=wl.observe)
        entry = AlgorithmEntry(
            completion_time_ms=result.completion_time * 1e3,
            throughput_mbps=bytes_per_sec_to_mbps(
                result.aggregate_throughput(topo.num_machines, MSIZE)),
            scheduler_runtime_ms=build.duration * 1e3,
            sim_wall_ms=sim.duration * 1e3,
        )
        if wl.observe:
            telemetry = result.telemetry
            with spans.span("obs.summarize_links", job_id):
                entry.telemetry = summarize_links(telemetry).as_dict()
            with spans.span("obs.audit_phases", job_id):
                audit = audit_phases(telemetry, topo, programs)
            with spans.span("obs.audit_serialize", job_id):
                telemetry.phase_audit = audit.as_dict()
                entry.phase_audit = audit.summary_dict()
            with spans.span("obs.explain", job_id):
                report = explain_telemetry(telemetry, topo,
                                           algorithm=algorithm.name)
                entry.attribution = {
                    k: v for k, v in report.as_dict().items()
                    if k != "critical_path"
                }
            with spans.span("obs.write_metrics", job_id):
                telemetry.write_metrics(job.metrics_path)
            with spans.span("obs.write_perfetto", job_id):
                telemetry.write_perfetto(job.perfetto_path)
            job.audit, job.report = audit, report
        with spans.span("obs.ledger_append", job_id):
            record = RunRecord.new(
                "simulate",
                topology_spec=wl.name,
                topology_fingerprint=topology_fingerprint(topo),
                num_machines=topo.num_machines,
                msize=MSIZE,
                params=_params_dict(params),
                algorithms={algorithm.name: entry},
            )
            ledger_path = RunLedger(job.ledger_dir).append(record)
    job.seconds = root.duration
    job.algorithm, job.programs, job.result = algorithm, programs, result
    for name, path in (("metrics", job.metrics_path),
                       ("perfetto", job.perfetto_path),
                       ("ledger", ledger_path)):
        if os.path.exists(path):
            job.artifact_bytes[name] = os.path.getsize(path)
    check_job(inputs, job)
    return job


def check_job(inputs: Inputs, job: Job) -> None:
    """The per-job gate; ``run_programs`` already checked delivery."""
    result = job.result
    schedule = getattr(job.algorithm, "last_schedule", None)
    if schedule is not None:
        if schedule.num_phases != inputs.load:
            raise JobFailure(
                f"{schedule.num_phases} phases, but the AAPC load is "
                f"{inputs.load}")
        verify_schedule(schedule)
        if result.max_edge_multiplexing != 1:
            raise JobFailure(
                f"max edge multiplexing {result.max_edge_multiplexing} "
                "in a contention-free schedule")
    ref = inputs.reference
    if (ref is not None
            and abs(result.completion_time - ref) > REFERENCE_RTOL * abs(ref)):
        raise JobFailure(
            f"completion time {result.completion_time!r} s differs from "
            f"the committed reference {ref!r} s")


def check_observed_job(inputs: Inputs, job: Job, off_result) -> int:
    """Once-per-run checks of an observing job; returns Perfetto events.

    *off_result* is a telemetry-off run of the same inputs.
    """
    result = job.result
    if (off_result.completion_time != result.completion_time
            or off_result.rank_finish != result.rank_finish):
        raise JobFailure("telemetry changed the simulated times")
    metrics = load_metrics(job.metrics_path)
    if metrics.get("completion_time_ms") != result.completion_time * 1e3:
        raise JobFailure("metrics JSON does not carry the run's completion")
    with open(job.perfetto_path, "r", encoding="utf-8") as fh:
        events: List[dict] = json.load(fh)["traceEvents"]
    open_at: Dict[tuple, List[float]] = {}
    for ev in events:
        key = (ev.get("pid"), ev.get("cat"), ev.get("id"))
        if ev["ph"] == "b":
            open_at.setdefault(key, []).append(ev["ts"])
        elif ev["ph"] == "e":
            starts = open_at.get(key)
            if not starts or starts.pop() > ev["ts"]:
                raise JobFailure(f"Perfetto 'e' event without its 'b': {key}")
    if any(open_at.values()):
        raise JobFailure("Perfetto 'b' events without their 'e'")
    records = RunLedger(job.ledger_dir).records()
    fingerprint = topology_fingerprint(inputs.topology)
    if len(records) != 1 or records[0].topology_fingerprint != fingerprint:
        raise JobFailure("the ledger record does not read back")
    if job.audit.violations:
        raise JobFailure("the phase audit reports contention violations")
    report = job.report
    gap = report.measured_completion - report.theoretical_optimum
    total = sum(report.components.values())
    if (report.measured_completion != result.completion_time
            or abs(total - gap) > REFERENCE_RTOL * report.measured_completion):
        raise JobFailure(
            f"attribution components sum to {total!r} s, "
            f"not the gap {gap!r} s")
    return len(events)


def count_ops(programs) -> Dict[str, int]:
    ops = sends = 0
    for program in programs.values():
        ops += len(program.ops)
        sends += sum(1 for op in program.ops
                     if op.kind in (OpKind.ISEND, OpKind.SEND))
    return {"ops": ops, "sends": sends}
