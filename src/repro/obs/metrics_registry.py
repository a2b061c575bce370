"""Hot-path metrics: a near-zero-overhead counter/gauge/histogram registry.

ROADMAP's scaling work (vectorising the engine event loop and the
max-min re-solve at 512-4096 ranks) needs to know what the hot loops
*actually do* — events per heap pop, flows x links touched per re-solve,
waterfill iterations, syncs posted/retired.  This module is the
instrument: an **off-by-default** registry threaded through
:mod:`repro.sim.engine`, :mod:`repro.sim.network`, :mod:`repro.sim.mpi`
and the offline pipeline in :mod:`repro.core`.

Design rules (mirroring :mod:`repro.obs.profiling`):

* Activation uses a module-level slot (the simulator is
  single-threaded); nested activations restore the previous registry on
  exit.  When no registry is active the hot components hold ``None``
  handles and each instrumentation site costs one attribute load plus
  one ``is None`` test — no allocation, no call.
* Hot components (:class:`~repro.sim.engine.Engine`,
  :class:`~repro.sim.network.FlowNetwork`, :class:`~repro.sim.mpi.SimMPI`)
  capture metric handles **at construction time** from
  :func:`active_registry` and mutate ``handle.value`` directly — no dict
  lookup per event.  The offline pipeline uses the :func:`metric_inc` /
  :func:`metric_observe` module hooks instead (one global read each).
* Histograms use power-of-two buckets (``int.bit_length``), timers the
  monotonic ``time.perf_counter_ns`` clock.

Snapshots export three ways: a schema-versioned dict
(:meth:`MetricsSnapshot.as_dict`, embedded in metrics JSON and ledger
records under a ``stats`` block), JSONL snapshot streams
(``--stats-out``, read back by :func:`load_snapshots`), and Prometheus
text exposition (:meth:`MetricsSnapshot.to_prometheus`).

Usage::

    registry = MetricsRegistry()
    with registry.activate():
        result = run_programs(topology, programs, msize, params)
    snap = registry.snapshot(sim_time=result.completion_time)
    print(snap.to_prometheus())
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass, field
from typing import IO, Dict, Iterator, List, Optional, Tuple, Union

from repro._version import __version__
from repro.artifacts import check_schema, read_json, write_json
from repro.errors import ReproError

#: Version of the metrics-snapshot (``stats``) envelope.  Bump on
#: incompatible change; :func:`load_snapshots` rejects snapshots from
#: the future with a clear error, like the other envelopes.
STATS_SCHEMA_VERSION = 1

Number = Union[int, float]


class Counter:
    """A monotonically increasing count.

    Hot paths mutate :attr:`value` directly (``c.value += 1``) — the
    :meth:`inc` method exists for the offline layers and tests.
    """

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: Number = 0

    def inc(self, n: Number = 1) -> None:
        self.value += n


class Gauge:
    """A point-in-time level (queue depth, flows in flight).

    Hot paths assign :attr:`value` directly.
    """

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: Number = 0

    def set(self, v: Number) -> None:
        self.value = v


class Histogram:
    """Power-of-two bucketed distribution.

    Bucket ``i`` counts observations with ``int(v).bit_length() == i``,
    i.e. values in ``[2**(i-1), 2**i - 1]`` (bucket 0 holds ``v <= 0``).
    The exposed upper bound of bucket ``i`` is ``2**i - 1``, so bucket
    boundaries are 0, 1, 3, 7, 15, ... — cheap to compute per
    observation and wide enough for counts spanning six decades.
    """

    __slots__ = ("name", "help", "counts", "sum", "count", "max")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.counts: List[int] = []
        self.sum: float = 0.0
        self.count: int = 0
        self.max: Number = 0

    def observe(self, v: Number) -> None:
        idx = int(v).bit_length() if v > 0 else 0
        counts = self.counts
        if idx >= len(counts):
            counts.extend([0] * (idx + 1 - len(counts)))
        counts[idx] += 1
        self.sum += v
        self.count += 1
        if v > self.max:
            self.max = v

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def buckets(self) -> List[Tuple[Number, int]]:
        """``(upper_bound, cumulative_count)`` pairs, Prometheus-style."""
        out: List[Tuple[Number, int]] = []
        running = 0
        for i, c in enumerate(self.counts):
            running += c
            out.append(((1 << i) - 1, running))
        return out


class _Timer:
    """Context manager timing one block into a histogram (nanoseconds)."""

    __slots__ = ("_hist", "_start")

    def __init__(self, hist: Histogram) -> None:
        self._hist = hist
        self._start = 0

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        self._hist.observe(time.perf_counter_ns() - self._start)


class _NullTimer:
    """Shared no-op timer: the registry-off fast path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        return None


_NULL_TIMER = _NullTimer()


class MetricsRegistry:
    """Holds the live metric instruments for one (or more) runs.

    Not thread-safe — the simulator is single-threaded.  Instruments
    are created on first use and persist across runs, so one registry
    can aggregate a whole experiment sweep.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._epoch_ns = time.perf_counter_ns()

    # ------------------------------------------------------------------
    # instrument factories (get-or-create)
    # ------------------------------------------------------------------
    def counter(self, name: str, help: str = "") -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name, help)
        return c

    def gauge(self, name: str, help: str = "") -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name, help)
        return g

    def histogram(self, name: str, help: str = "") -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name, help)
        return h

    def timer(self, name: str, help: str = "") -> _Timer:
        """A context manager recording the block's wall time (ns) into
        the histogram called *name*."""
        return _Timer(self.histogram(name, help))

    # ------------------------------------------------------------------
    # activation (mirrors PipelineProfiler.activate)
    # ------------------------------------------------------------------
    def activate(self) -> "_Activation":
        """Install this registry as the target of :func:`active_registry`."""
        return _Activation(self)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def get(self, name: str) -> Optional[Number]:
        """Current value of a counter or gauge (None when absent)."""
        c = self._counters.get(name)
        if c is not None:
            return c.value
        g = self._gauges.get(name)
        if g is not None:
            return g.value
        return None

    def snapshot(self, **context: Optional[float]) -> "MetricsSnapshot":
        """Freeze the current instrument values into a snapshot.

        Keyword arguments (``sim_time=...``, ``events_per_sec=...``)
        land in the snapshot's :attr:`MetricsSnapshot.monitor` block —
        the live-monitor context the raw instruments cannot derive.
        """
        return MetricsSnapshot(
            wall_time=(time.perf_counter_ns() - self._epoch_ns) * 1e-9,
            counters={k: c.value for k, c in sorted(self._counters.items())},
            gauges={k: g.value for k, g in sorted(self._gauges.items())},
            histograms={
                k: {
                    "buckets": [[le, n] for le, n in h.buckets()],
                    "sum": h.sum,
                    "count": h.count,
                    "max": h.max,
                }
                for k, h in sorted(self._histograms.items())
            },
            monitor={k: v for k, v in context.items() if v is not None},
        )


@dataclass
class MetricsSnapshot:
    """One frozen view of a registry (also the live-monitor bus event)."""

    #: Seconds since the registry's epoch (monotonic clock).
    wall_time: float = 0.0
    counters: Dict[str, Number] = field(default_factory=dict)
    gauges: Dict[str, Number] = field(default_factory=dict)
    #: name -> {"buckets": [[le, cumulative], ...], "sum", "count", "max"}
    histograms: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: Live-monitor context (sim_time, events_per_sec, eta_s, ...).
    monitor: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """The schema-versioned ``stats`` envelope."""
        data: Dict[str, object] = {
            "schema": STATS_SCHEMA_VERSION,
            "repro_version": __version__,
            "wall_time_s": self.wall_time,
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {k: dict(v) for k, v in self.histograms.items()},
        }
        if self.monitor:
            data["monitor"] = dict(self.monitor)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "MetricsSnapshot":
        validate_stats(data)
        return cls(
            wall_time=float(data.get("wall_time_s", 0.0)),  # type: ignore[arg-type]
            counters=dict(data.get("counters", {})),  # type: ignore[arg-type]
            gauges=dict(data.get("gauges", {})),  # type: ignore[arg-type]
            histograms={
                k: dict(v)
                for k, v in data.get("histograms", {}).items()  # type: ignore[union-attr]
            },
            monitor=dict(data.get("monitor", {})),  # type: ignore[arg-type]
        )

    # ------------------------------------------------------------------
    # Prometheus text exposition
    # ------------------------------------------------------------------
    def to_prometheus(self, *, prefix: str = "repro") -> str:
        """Render the snapshot in Prometheus text-exposition format."""
        lines: List[str] = []
        for name, value in self.counters.items():
            metric = _prom_name(name, prefix)
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {_prom_value(value)}")
        for name, value in self.gauges.items():
            metric = _prom_name(name, prefix)
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_prom_value(value)}")
        for name, hist in self.histograms.items():
            metric = _prom_name(name, prefix)
            lines.append(f"# TYPE {metric} histogram")
            count = int(hist.get("count", 0))  # type: ignore[arg-type]
            for le, cumulative in hist.get("buckets", []):  # type: ignore[union-attr]
                lines.append(
                    f'{metric}_bucket{{le="{_prom_value(le)}"}} {cumulative}'
                )
            lines.append(f'{metric}_bucket{{le="+Inf"}} {count}')
            lines.append(f"{metric}_sum {_prom_value(hist.get('sum', 0.0))}")
            lines.append(f"{metric}_count {count}")
        return "\n".join(lines) + "\n"


def _prom_name(name: str, prefix: str) -> str:
    safe = "".join(c if c.isalnum() else "_" for c in name)
    return f"{prefix}_{safe}"


def _prom_value(v: object) -> str:
    if isinstance(v, float) and v.is_integer():
        return str(int(v))
    return str(v)


def validate_stats(data: Dict[str, object]) -> None:
    """Reject a ``stats`` envelope written by a newer repro."""
    if not isinstance(data, dict):
        raise ReproError("metrics snapshot must be a JSON object")
    check_schema(
        data, "metrics snapshot", STATS_SCHEMA_VERSION, STATS_SCHEMA_VERSION
    )


def loads_snapshot(text: str) -> MetricsSnapshot:
    """Parse one JSON snapshot object, rejecting future schemas."""
    return MetricsSnapshot.from_dict(
        read_json(io.StringIO(text), "metrics snapshot")
    )


def load_snapshots(source: Union[str, IO[str]]) -> List[MetricsSnapshot]:
    """Read a ``--stats-out`` JSONL snapshot stream (path or stream)."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            return load_snapshots(fh)
    snapshots: List[MetricsSnapshot] = []
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            snapshots.append(loads_snapshot(line))
        except ReproError as exc:
            raise ReproError(f"stats line {lineno}: {exc}") from exc
    return snapshots


class SnapshotWriter:
    """Appends snapshots to a JSONL stream (the ``--stats-out`` sink)."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh: Optional[IO[str]] = open(path, "w", encoding="utf-8")

    def write(self, snapshot: MetricsSnapshot) -> None:
        if self._fh is None:
            raise ReproError(f"stats writer for {self.path!r} is closed")
        write_json(self._fh, snapshot.as_dict())
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "SnapshotWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _Activation:
    __slots__ = ("_registry", "_previous")

    def __init__(self, registry: MetricsRegistry):
        self._registry = registry
        self._previous: Optional[MetricsRegistry] = None

    def __enter__(self) -> MetricsRegistry:
        global _ACTIVE
        self._previous = _ACTIVE
        _ACTIVE = self._registry
        return self._registry

    def __exit__(self, *exc) -> None:
        global _ACTIVE
        _ACTIVE = self._previous


#: The currently active registry; ``None`` keeps instrumentation free.
_ACTIVE: Optional[MetricsRegistry] = None


def active_registry() -> Optional[MetricsRegistry]:
    return _ACTIVE


def metric_inc(name: str, n: Number = 1) -> None:
    """Hook for the offline layers: bump a counter if a registry is on.

    One module-global read on the off path — same cost model as
    :func:`repro.obs.profiling.pipeline_span`.
    """
    registry = _ACTIVE
    if registry is not None:
        registry.counter(name).value += n


def metric_observe(name: str, v: Number) -> None:
    """Hook for the offline layers: record a histogram observation."""
    registry = _ACTIVE
    if registry is not None:
        registry.histogram(name).observe(v)


def metric_timer(name: str):
    """Hook for the offline layers: time a block into a histogram (ns)."""
    registry = _ACTIVE
    if registry is None:
        return _NULL_TIMER
    return registry.timer(name)


def iter_hot_metric_names() -> Iterator[str]:
    """The instrument names the built-in hot layers register.

    ``docs/observability.md`` documents this list, and a test checks
    that a plain run registers nothing outside it; it is advisory (a
    registry may hold more).
    """
    yield from (
        "engine.events_total",
        "engine.queue_depth",
        "engine.event_batch_size",
        "network.resolves_total",
        "network.flow_set_changes",
        "network.resolve_touched",
        "network.waterfill_iterations",
        "network.saturated_links",
        "network.flows_in_flight",
        "network.component_flows",
        "network.full_resolves",
        "network.flow_pool_reuses",
        "mpi.syncs_posted",
        "mpi.syncs_retired",
        "mpi.retransmits",
        "scheduler.phase_partition_attempts",
        "scheduler.backtracks",
        "scheduler.matching_size",
        "scheduler.pair_repacks",
        "scheduler.pairs_repacked",
        "repair.repairs_attempted",
        "repair.repairs_succeeded",
        "repair.phases_rewritten",
        "repair.pairs_rescheduled",
    )
