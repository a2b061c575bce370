"""Simulation parameters and their calibration rationale.

Defaults model the paper's testbed: 100 Mbps switched Ethernet, Linux
2.6 TCP, LAM/MPI-era software overheads.  Three mechanisms do the heavy
lifting of the hardware substitution (see DESIGN.md §2 and
EXPERIMENTS.md):

* ``base_efficiency`` — the fraction of line rate a single well-behaved
  TCP stream sustains end to end (headers, ACK clocking, kernel
  copies).  Calibrated so the generated routine's large-message
  aggregate throughput lands near the paper's measured fraction of the
  theoretical peak (≈0.67-0.83 across topologies; we use 0.75).
* **Congestion efficiency curve** — a directed edge carrying ``n``
  concurrent flows delivers aggregate goodput
  ``B * base_efficiency * eta(n, s)`` where::

      eta(n, s) = floor(s) + (1 - floor(s)) / (1 + gamma * (n - 1))

  and the floor depends on flow size ``s``: small flows multiplex
  through switch buffers gracefully (``contention_floor_small``), while
  flows at or above ``large_flow_threshold`` keep the buffers saturated
  and collapse much further (``contention_floor_large``) — the
  loss/retransmission behaviour the paper blames for LAM's poor
  large-message performance.
* **Transfer modes** — messages up to ``eager_threshold`` are *eager*
  (latency only); messages that fit the TCP socket buffer
  (``socket_buffer_bytes``) are *buffered*: the flow starts at send
  post and the sender's request completes immediately, letting ranks
  run ahead of their peers exactly as TCP does; larger messages use
  *rendezvous*: the flow starts only when both sides have posted.

``jitter`` / ``rank_speed_spread`` / ``stall_prob`` add seeded noise to
software overheads.  They are what lets unsynchronized phased
algorithms (MPICH ring/pairwise, the no-sync ablation) drift out of
lockstep and collide — precisely the effect the paper's pair-wise
synchronization suppresses.  Zeroing them (``without_noise``) makes
every rank perfectly deterministic, which unit tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.units import mbps, us

#: Valid :attr:`NetworkParams.allocator` values (default first).
ALLOCATORS = ("incremental", "reference")


@dataclass(frozen=True)
class NetworkParams:
    """Knobs of the cluster model (times in seconds, sizes in bytes)."""

    #: Per-link bandwidth in bytes/second (duplex: each direction).
    bandwidth: float = mbps(100)
    #: Host software overhead to post a send/recv (per operation).
    post_overhead: float = us(15)
    #: Extra handshake latency before a rendezvous transfer starts.
    rendezvous_latency: float = us(150)
    #: End-to-end latency of an eager (small) message, incl. wire time.
    eager_latency: float = us(55)
    #: End-to-end latency of a zero-byte pair-wise sync message.
    sync_latency: float = us(300)
    #: Largest message sent eagerly (no modelled bandwidth use).
    eager_threshold: int = 1024
    #: Messages strictly below this use the *buffered* mode: the send
    #: completes at post time while the flow drains toward the receiver
    #: (TCP push into socket buffers); messages at or above it use MPI
    #: rendezvous.  The paper-era MPI transports switch to a rendezvous
    #: ("long") protocol well below the 64 KB socket buffer, and the
    #: paper's measured per-phase pacing at 32 KB confirms transfers
    #: were receiver-paced from 16 KB up.
    socket_buffer_bytes: int = 16384
    #: Latency of a full barrier (used only by the barrier ablation).
    barrier_latency: float = us(400)
    #: Single-stream achievable fraction of line rate.
    base_efficiency: float = 0.75
    #: Endpoint (machine uplink/downlink) collapse floor, small flows.
    contention_floor_small: float = 0.80
    #: Endpoint collapse floor, large flows (incast buffer saturation).
    contention_floor_large: float = 0.50
    #: Trunk (switch-to-switch) collapse floor, small flows.  Trunks
    #: have deeper buffers and degrade far more gently than endpoints,
    #: but sustained over-subscription by many TCP streams still loses
    #: goodput to drops and retransmissions.
    trunk_floor_small: float = 0.90
    #: Trunk collapse floor, large flows.
    trunk_floor_large: float = 0.80
    #: Flow size at which the large-flow collapse floor applies.
    large_flow_threshold: int = 32768
    #: Early-onset slope of the congestion curve.
    contention_gamma: float = 1.0
    #: Number of concurrent flows an endpoint handles at full
    #: efficiency before the collapse curve starts (TCP copes fine with
    #: a couple of streams per port; incast needs many senders).
    contention_grace: int = 2
    #: Multiplicative jitter on software overheads: each op costs
    #: ``overhead * (1 + jitter * U)`` with U ~ Uniform[0, 1).
    jitter: float = 0.3
    #: Per-rank persistent speed spread: rank overheads are scaled by
    #: ``1 + rank_speed_spread * U_rank`` (heterogeneous "identical"
    #: nodes: background daemons, cache/NUMA placement, ...).
    rank_speed_spread: float = 0.10
    #: Probability that posting an operation hits an OS stall
    #: (scheduler preemption, interrupt storm, page fault).
    stall_prob: float = 0.02
    #: Mean of the exponential stall duration.
    stall_mean: float = 1.5e-3
    #: Explicit per-rank slowdown factors, e.g. ``(("n3", 4.0),)`` makes
    #: n3's software overheads 4x — straggler/failure injection.  These
    #: multiply on top of the random speed spread.
    rank_speed_overrides: tuple = ()
    #: RNG seed for all noise streams (runs are deterministic per seed).
    seed: int = 0
    #: Max-min rate solver: ``"incremental"`` (re-solves only the
    #: dirty connected component of the flow/link incidence graph, with
    #: an array waterfill for large components and slot-array flow
    #: state for dense flow sets) or ``"reference"`` (the original full
    #: progressive-filling re-solve at every rate-change instant).  The
    #: two are rate-for-rate equivalent — the differential suite in
    #: ``tests/sim/test_allocator_differential.py`` enforces it — so
    #: this knob only trades solver speed; results agree to 1e-9.
    allocator: str = "incremental"
    #: Resilience protocol (active only under fault injection): a sync
    #: message unacknowledged after this long is retransmitted ...
    sync_retry_timeout: float = us(900)
    #: ... with the timeout multiplied by this factor per attempt
    #: (bounded exponential backoff) ...
    sync_backoff: float = 2.0
    #: ... capped at this many seconds between retransmits ...
    sync_backoff_cap: float = 0.05
    #: ... giving up after this many retransmissions (the stall
    #: watchdog then owns the diagnosis).
    sync_max_retries: int = 25

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if not 0 < self.base_efficiency <= 1:
            raise ValueError("base_efficiency must be in (0, 1]")
        for name in (
            "contention_floor_small",
            "contention_floor_large",
            "trunk_floor_small",
            "trunk_floor_large",
        ):
            val = getattr(self, name)
            if not 0 < val <= 1:
                raise ValueError(f"{name} must be in (0, 1]")
        if self.contention_gamma < 0:
            raise ValueError("contention_gamma must be non-negative")
        if self.jitter < 0 or self.rank_speed_spread < 0:
            raise ValueError("noise magnitudes must be non-negative")
        if not 0 <= self.stall_prob <= 1:
            raise ValueError("stall_prob must be a probability")
        if self.eager_threshold < 0 or self.socket_buffer_bytes < 0:
            raise ValueError("size thresholds must be non-negative")
        for entry in self.rank_speed_overrides:
            if len(entry) != 2 or float(entry[1]) <= 0:
                raise ValueError(
                    "rank_speed_overrides entries must be (rank, factor>0)"
                )
        if self.sync_retry_timeout <= 0 or self.sync_backoff_cap <= 0:
            raise ValueError("sync retry times must be positive")
        if self.sync_backoff < 1.0:
            raise ValueError("sync_backoff must be >= 1")
        if self.sync_max_retries < 0:
            raise ValueError("sync_max_retries must be non-negative")
        if self.allocator not in ALLOCATORS:
            raise ValueError(
                f"allocator must be one of {ALLOCATORS}, got {self.allocator!r}"
            )

    def speed_override(self, rank: str) -> float:
        """The injected slowdown factor for *rank* (1.0 if none)."""
        for name, factor in self.rank_speed_overrides:
            if name == rank:
                return float(factor)
        return 1.0

    # ------------------------------------------------------------------
    def contention_floor(
        self, flow_size: float, endpoint_edge: bool = True
    ) -> float:
        """Collapse floor for a flow of *flow_size* bytes on an edge kind."""
        large = flow_size >= self.large_flow_threshold
        if endpoint_edge:
            return self.contention_floor_large if large else self.contention_floor_small
        return self.trunk_floor_large if large else self.trunk_floor_small

    def eta(
        self, num_flows: int, largest_flow: float, endpoint_edge: bool = True
    ) -> float:
        """Multiplexing efficiency multiplier in (0, 1]."""
        excess = num_flows - self.contention_grace
        if excess <= 0:
            return 1.0
        floor = self.contention_floor(largest_flow, endpoint_edge)
        return floor + (1.0 - floor) / (1.0 + self.contention_gamma * excess)

    def effective_capacity(
        self,
        num_flows: int,
        largest_flow: float,
        endpoint_edge: bool = True,
        line_bandwidth: Optional[float] = None,
    ) -> float:
        """Aggregate goodput of a directed edge under multiplexing.

        ``num_flows`` concurrent flows, the biggest of which carries
        *largest_flow* bytes (the worst offender dominates buffer
        behaviour).  Endpoint edges (a machine's uplink or downlink)
        collapse hard: many flows fanning out of — or, the classic TCP
        incast, into — one host overwhelm its NIC/stack and the single
        switch port in front of it.  Switch-to-switch trunks have deep
        buffers and degrade much more gently, but sustained
        over-subscription still loses goodput to drops (the paper's
        LAM numbers on its multi-switch topologies show exactly this).

        *line_bandwidth* overrides the uniform :attr:`bandwidth` for
        heterogeneous clusters (e.g. gigabit trunk uplinks).
        """
        raw = self.bandwidth if line_bandwidth is None else line_bandwidth
        line = raw * self.base_efficiency
        return line * self.eta(num_flows, largest_flow, endpoint_edge)

    def transfer_mode(self, nbytes: int) -> str:
        """``"eager"``, ``"buffered"`` or ``"rendezvous"`` for a message.

        The buffered/rendezvous boundary is *strict*: a message of
        exactly ``socket_buffer_bytes`` (LAM's 64 KB long-protocol
        threshold) already uses rendezvous.
        """
        if nbytes <= self.eager_threshold:
            return "eager"
        if nbytes < self.socket_buffer_bytes:
            return "buffered"
        return "rendezvous"

    def with_seed(self, seed: int) -> "NetworkParams":
        """A copy with a different noise seed (for repetition averaging)."""
        return replace(self, seed=seed)

    def without_noise(self) -> "NetworkParams":
        """A copy with all noise disabled (deterministic lockstep timing)."""
        return replace(self, jitter=0.0, rank_speed_spread=0.0, stall_prob=0.0)

    def without_contention_penalty(self) -> "NetworkParams":
        """A copy with pure max-min sharing (eta = 1): ideal fluid model."""
        return replace(
            self,
            contention_floor_small=1.0,
            contention_floor_large=1.0,
            trunk_floor_small=1.0,
            trunk_floor_large=1.0,
            contention_gamma=0.0,
        )
