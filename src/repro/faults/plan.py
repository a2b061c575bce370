"""Declarative, seeded fault-injection plans.

A :class:`FaultPlan` describes everything that goes wrong during a run,
ahead of time and deterministically:

* :class:`LinkFault` — a directed-pair physical link misbehaves during
  ``[start, end)``: ``factor`` scales its usable bandwidth (``1.0`` =
  healthy, ``0.3`` = degraded to 30%).  A *failed* link (``failed=True``)
  additionally drops every zero-byte control (sync) message that crosses
  it and collapses data goodput to ``residual`` — TCP keeps retransmitting
  bulk data through the lossy link at a crawl, but the one-shot control
  datagrams the generated routine depends on are simply lost.  Several
  windows on the same link model flapping.  ``residual=0`` makes the
  link truly dead, which on a tree topology partitions the cluster.
* :class:`HostStraggler` — a rank's software overheads are multiplied by
  ``factor`` during the window (background daemon, thermal throttling).
* :class:`SyncFault` — the control-message channel between ranks drops
  (``loss``), delays (``delay_mean`` seconds, exponential) or duplicates
  sync messages with the given probabilities during the window.
* :class:`RankCrash` — the rank stops executing its program at ``time``.

Plans round-trip through JSON (:meth:`FaultPlan.to_json` /
:func:`load_fault_plan`) and fingerprint stably
(:meth:`FaultPlan.fingerprint`) so the run ledger can record exactly
which chaos a run survived.  All randomness downstream (loss draws,
delay draws) is derived from :attr:`FaultPlan.seed` — identical plans
give byte-identical runs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import IO, Dict, List, Optional, Tuple, Union

from repro.artifacts import read_json, write_json
from repro.errors import FaultPlanError, ReproError

#: End of an open-ended window ("until the end of the run").
FOREVER = float("inf")


def _window(start: float, end: Optional[float]) -> Tuple[float, float]:
    e = FOREVER if end is None else float(end)
    s = float(start)
    if s < 0:
        raise FaultPlanError(f"fault window start must be >= 0, got {s}")
    if e <= s:
        raise FaultPlanError(f"fault window [{s}, {e}) is empty")
    return s, e


@dataclass(frozen=True)
class LinkFault:
    """One misbehaviour window of a physical link (both directions)."""

    link: Tuple[str, str]
    start: float = 0.0
    end: float = FOREVER
    #: Bandwidth multiplier while degraded (ignored when ``failed``).
    factor: float = 1.0
    #: The link is down: control messages are dropped, data collapses.
    failed: bool = False
    #: Goodput fraction data flows retain across a *failed* link.
    residual: float = 0.02

    def __post_init__(self) -> None:
        if len(self.link) != 2 or self.link[0] == self.link[1]:
            raise FaultPlanError(f"bad link spec {self.link!r}")
        _window(self.start, self.end)
        if not self.failed and not 0.0 < self.factor <= 1.0:
            raise FaultPlanError(
                f"degradation factor must be in (0, 1], got {self.factor}; "
                "use failed=true for an outage"
            )
        if not 0.0 <= self.residual <= 1.0:
            raise FaultPlanError(f"residual must be in [0, 1], got {self.residual}")

    def active(self, time: float) -> bool:
        return self.start <= time < self.end

    @property
    def bandwidth_factor(self) -> float:
        return self.residual if self.failed else self.factor


@dataclass(frozen=True)
class HostStraggler:
    """A rank's software overheads are scaled by *factor* in the window."""

    rank: str
    factor: float
    start: float = 0.0
    end: float = FOREVER

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise FaultPlanError(
                f"straggler factor must be >= 1, got {self.factor}"
            )
        _window(self.start, self.end)

    def active(self, time: float) -> bool:
        return self.start <= time < self.end


@dataclass(frozen=True)
class SyncFault:
    """Sync-message loss/delay/duplication during a window.

    Applies to every pair-wise synchronization message posted inside the
    window (optionally restricted to a sender/receiver pair).
    """

    loss: float = 0.0
    delay_prob: float = 0.0
    delay_mean: float = 0.0
    duplicate: float = 0.0
    start: float = 0.0
    end: float = FOREVER
    #: Restrict to syncs from/to this pair; ``None`` = every pair.
    src: Optional[str] = None
    dst: Optional[str] = None

    def __post_init__(self) -> None:
        for name in ("loss", "delay_prob", "duplicate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise FaultPlanError(f"{name} must be a probability, got {v}")
        if self.delay_mean < 0:
            raise FaultPlanError("delay_mean must be non-negative")
        _window(self.start, self.end)

    def active(self, time: float) -> bool:
        return self.start <= time < self.end

    def applies(self, src: str, dst: str, time: float) -> bool:
        if not self.active(time):
            return False
        if self.src is not None and self.src != src:
            return False
        if self.dst is not None and self.dst != dst:
            return False
        return True


@dataclass(frozen=True)
class RankCrash:
    """The rank stops executing its program at *time*."""

    rank: str
    time: float

    def __post_init__(self) -> None:
        if self.time < 0:
            raise FaultPlanError(f"crash time must be >= 0, got {self.time}")


@dataclass
class FaultPlan:
    """Everything that goes wrong during one run, declaratively."""

    name: str = "faults"
    seed: int = 0
    link_faults: List[LinkFault] = field(default_factory=list)
    stragglers: List[HostStraggler] = field(default_factory=list)
    sync_faults: List[SyncFault] = field(default_factory=list)
    crashes: List[RankCrash] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def empty(self) -> bool:
        return not (
            self.link_faults or self.stragglers or self.sync_faults or self.crashes
        )

    def boundaries(self) -> List[float]:
        """Times at which link state changes (network re-settle points)."""
        times = set()
        for lf in self.link_faults:
            times.add(lf.start)
            if lf.end != FOREVER:
                times.add(lf.end)
        return sorted(times)

    def permanent_link_failures(self) -> List[LinkFault]:
        """Failed links whose window never closes."""
        return [
            lf for lf in self.link_faults if lf.failed and lf.end == FOREVER
        ]

    def permanent_link_faults(self) -> List[LinkFault]:
        """Link faults (failed or degraded) whose window never closes.

        These are the faults schedule repair can plan around: a
        transient window heals by itself (retry/backoff outwaits it),
        but a permanent degradation or failure changes what the best
        schedule looks like for the rest of the run.
        """
        return [
            lf
            for lf in self.link_faults
            if lf.end == FOREVER and (lf.failed or lf.factor < 1.0)
        ]

    def sync_blackouts(self) -> List[SyncFault]:
        """Permanent total-loss sync faults (retry cannot recover them).

        A ``loss >= 1`` fault with an open window makes every matching
        sync message undeliverable no matter how often it is
        retransmitted; targeted ones (``src``/``dst`` set) black out a
        single pair-wise channel.
        """
        return [
            sf
            for sf in self.sync_faults
            if sf.loss >= 1.0 and sf.end == FOREVER
        ]

    def link_floor_factors(self) -> Dict[frozenset, float]:
        """Worst-case bandwidth multiplier per faulted physical link.

        The minimum :attr:`LinkFault.bandwidth_factor` over every
        declared window of each link (1.0 links are omitted) — the
        capacity floor that cost models (fallback selection, relaxed
        repair) must assume for the rest of the run.
        """
        floors: Dict[frozenset, float] = {}
        for lf in self.link_faults:
            key = frozenset(lf.link)
            floors[key] = min(floors.get(key, 1.0), lf.bandwidth_factor)
        return floors

    def validate_against(self, topology) -> None:
        """Raise :class:`FaultPlanError` on references to unknown nodes/links."""
        for lf in self.link_faults:
            u, v = lf.link
            if v not in topology.neighbors(u):
                raise FaultPlanError(
                    f"fault plan {self.name!r} names link ({u!r}, {v!r}) "
                    "but the topology has no such physical link"
                )
        machines = set(topology.machines)
        for st in self.stragglers:
            if st.rank not in machines:
                raise FaultPlanError(
                    f"straggler names unknown rank {st.rank!r}"
                )
        for cr in self.crashes:
            if cr.rank not in machines:
                raise FaultPlanError(f"crash names unknown rank {cr.rank!r}")
        for sf in self.sync_faults:
            for endpoint in (sf.src, sf.dst):
                if endpoint is not None and endpoint not in machines:
                    raise FaultPlanError(
                        f"sync fault names unknown rank {endpoint!r}"
                    )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        def end(v: float) -> Optional[float]:
            return None if v == FOREVER else v

        return {
            "name": self.name,
            "seed": self.seed,
            "link_faults": [
                {
                    "link": list(lf.link),
                    "start": lf.start,
                    "end": end(lf.end),
                    "factor": lf.factor,
                    "failed": lf.failed,
                    "residual": lf.residual,
                }
                for lf in self.link_faults
            ],
            "stragglers": [
                {
                    "rank": st.rank,
                    "factor": st.factor,
                    "start": st.start,
                    "end": end(st.end),
                }
                for st in self.stragglers
            ],
            "sync_faults": [
                {
                    "loss": sf.loss,
                    "delay_prob": sf.delay_prob,
                    "delay_mean": sf.delay_mean,
                    "duplicate": sf.duplicate,
                    "start": sf.start,
                    "end": end(sf.end),
                    "src": sf.src,
                    "dst": sf.dst,
                }
                for sf in self.sync_faults
            ],
            "crashes": [
                {"rank": cr.rank, "time": cr.time} for cr in self.crashes
            ],
        }

    def to_json(self, path: str) -> None:
        write_json(path, self.as_dict())

    def fingerprint(self) -> str:
        """Stable short content hash (recorded in the run ledger)."""
        text = json.dumps(self.as_dict(), sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        if not isinstance(data, dict):
            raise FaultPlanError("fault plan must be a JSON object")

        def window(entry: Dict[str, object]) -> Dict[str, float]:
            out = {"start": float(entry.get("start", 0.0))}
            end = entry.get("end")
            out["end"] = FOREVER if end is None else float(end)
            return out

        try:
            link_faults = [
                LinkFault(
                    link=(str(e["link"][0]), str(e["link"][1])),
                    factor=float(e.get("factor", 1.0)),
                    failed=bool(e.get("failed", False)),
                    residual=float(e.get("residual", 0.02)),
                    **window(e),
                )
                for e in data.get("link_faults", [])
            ]
            stragglers = [
                HostStraggler(
                    rank=str(e["rank"]),
                    factor=float(e["factor"]),
                    **window(e),
                )
                for e in data.get("stragglers", [])
            ]
            sync_faults = [
                SyncFault(
                    loss=float(e.get("loss", 0.0)),
                    delay_prob=float(e.get("delay_prob", 0.0)),
                    delay_mean=float(e.get("delay_mean", 0.0)),
                    duplicate=float(e.get("duplicate", 0.0)),
                    src=e.get("src"),
                    dst=e.get("dst"),
                    **window(e),
                )
                for e in data.get("sync_faults", [])
            ]
            crashes = [
                RankCrash(rank=str(e["rank"]), time=float(e["time"]))
                for e in data.get("crashes", [])
            ]
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise FaultPlanError(f"malformed fault plan: {exc}") from exc
        return cls(
            name=str(data.get("name", "faults")),
            seed=int(data.get("seed", 0)),
            link_faults=link_faults,
            stragglers=stragglers,
            sync_faults=sync_faults,
            crashes=crashes,
        )


def load_fault_plan(source: Union[str, IO[str]]) -> FaultPlan:
    """Parse a fault plan from a JSON file path or text stream."""
    if isinstance(source, str):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                return load_fault_plan(fh)
        except OSError as exc:
            raise FaultPlanError(
                f"cannot read fault plan {source!r}: {exc}"
            ) from exc
    try:
        data = read_json(source, "fault plan")
    except ReproError as exc:
        raise FaultPlanError(str(exc)) from exc
    return FaultPlan.from_dict(data)
