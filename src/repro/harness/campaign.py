"""Random-topology campaigns: the paper's claim beyond its three testbeds.

The paper evaluates on three hand-built topologies.  Its Theorem,
however, holds for *every* tree — so a credible reproduction should
check the performance claim on arbitrary trees too.  A campaign runs
the algorithm comparison over seeded random topologies and aggregates
win rates, speedup distributions, and schedule-quality statistics.

Used by ``benchmarks/bench_campaign_random.py`` and directly::

    summary = run_campaign(num_topologies=20, msize=kib(128))
    print(summary.render())
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.harness.pipeline import build, run_pipeline
from repro.sim.params import NetworkParams
from repro.topology.analysis import aapc_load
from repro.topology.builder import random_tree
from repro.topology.graph import Topology
from repro.units import seconds_to_ms


@dataclass
class CampaignRow:
    """One random topology's outcome."""

    seed: int
    num_machines: int
    num_switches: int
    load: int
    phases: int
    times: Dict[str, float]

    @property
    def winner(self) -> str:
        return min(self.times, key=self.times.get)

    def speedup_over(self, baseline: str, ours: str = "generated") -> float:
        return self.times[baseline] / self.times[ours]


@dataclass
class CampaignSummary:
    """Aggregated campaign results."""

    msize: int
    algorithms: Tuple[str, ...]
    rows: List[CampaignRow] = field(default_factory=list)

    def win_rate(self, algorithm: str = "generated") -> float:
        if not self.rows:
            return 0.0
        return sum(r.winner == algorithm for r in self.rows) / len(self.rows)

    def speedups(self, baseline: str) -> List[float]:
        return [r.speedup_over(baseline) for r in self.rows]

    def render(self) -> str:
        lines = [
            f"random-topology campaign: {len(self.rows)} trees, "
            f"msize {self.msize // 1024}KB",
            "",
            f"{'seed':>6} {'mach':>5} {'sw':>4} {'load':>6} "
            + " ".join(f"{a:>12}" for a in self.algorithms)
            + "   winner",
        ]
        for row in self.rows:
            cells = " ".join(
                f"{seconds_to_ms(row.times[a]):>10.1f}ms" for a in self.algorithms
            )
            lines.append(
                f"{row.seed:>6} {row.num_machines:>5} {row.num_switches:>4} "
                f"{row.load:>6} {cells}   {row.winner}"
            )
        lines.append("")
        lines.append(
            f"generated win rate: {100 * self.win_rate():.0f}%"
        )
        for baseline in self.algorithms:
            if baseline == "generated":
                continue
            sp = self.speedups(baseline)
            lines.append(
                f"speedup vs {baseline}: median {statistics.median(sp):.2f}x, "
                f"min {min(sp):.2f}x, max {max(sp):.2f}x"
            )
        return "\n".join(lines)


def run_campaign(
    *,
    num_topologies: int = 10,
    msize: int = 128 * 1024,
    machines_range: Tuple[int, int] = (8, 20),
    switches_range: Tuple[int, int] = (2, 6),
    algorithms: Sequence[str] = ("lam", "mpich", "generated"),
    params: Optional[NetworkParams] = None,
    repetitions: int = 2,
    base_seed: int = 0,
) -> CampaignSummary:
    """Run the comparison over seeded random trees and aggregate.

    Topology ``i`` uses seed ``base_seed + i`` for its shape and seeds
    ``0..repetitions-1`` for the simulation noise; everything is
    deterministic end to end.
    """
    if num_topologies < 1:
        raise ReproError("need at least one topology")
    if params is None:
        params = NetworkParams()
    import random as _random

    summary = CampaignSummary(msize=msize, algorithms=tuple(algorithms))
    for i in range(num_topologies):
        seed = base_seed + i
        shape_rng = _random.Random(seed)
        nm = shape_rng.randint(*machines_range)
        ns = shape_rng.randint(*switches_range)
        topo = random_tree(nm, ns, seed=seed)
        times: Dict[str, float] = {}
        phases = 0
        for name in algorithms:
            built = build(topo, name, msize)
            schedule = getattr(built.algorithm, "last_schedule", None)
            if name == "generated" and schedule is not None:
                phases = schedule.num_phases
            samples = [
                run_pipeline(
                    topo, name, msize, params.with_seed(rep), built=built
                ).result.completion_time
                for rep in range(repetitions)
            ]
            times[name] = sum(samples) / len(samples)
        summary.rows.append(
            CampaignRow(
                seed=seed,
                num_machines=nm,
                num_switches=ns,
                load=aapc_load(topo),
                phases=phases,
                times=times,
            )
        )
    return summary
