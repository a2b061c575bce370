"""Golden digests of every per-phase analysis on the scheduled routine.

The paper's routine runs in exactly ``load`` phases, so these outputs
carry one row per phase: schedule health, the phase audit (full
artifact and terminal table), the gantt latency table and the overlap
fraction.  Each is pinned by a SHA-256 digest so a rewrite of how the
per-phase facts are derived must reproduce them byte for byte.

The digests were taken with the scheduled routine at 64 KB and
``NetworkParams(seed=0).without_noise()``.  The schedule-health digest
excludes the removed ``critical_path`` key, and the audit digest
excludes ``repro_version`` so a release bump does not move it.

To regenerate after an intended change, print :func:`_digests` for each
case and review why every changed output changed.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.algorithms import get_algorithm
from repro.obs.diagnostics import schedule_health
from repro.obs.phase_audit import audit_phases
from repro.sim.executor import run_programs
from repro.sim.gantt import phase_latency_table, phase_overlap_fraction
from repro.sim.params import NetworkParams
from repro.topology.builder import random_tree
from repro.units import parse_size

GOLDEN = {
    (32, 4): {
        "phases": 255,
        "health": "6ab2798da1c5f2d1ecd344ef909288a1f1e8e008537ba3a93b17f655ace0ebc3",
        "audit": "c68a3d99162f2f1ac851c1027fcf846804352d89315fc0ea17c22353385446da",
        "summary": "1e4c8125109578ce2891cdbe20978b7c5ccac97284c345f8adf057f9dbb400c3",
        "latency": "871e12bafa003bd597507d894d9add9c92a6c2f3e60ae3a8e7daba16e5580619",
        "overlap": "d0ff5974b6aa52cf562bea5921840c032a860a91a3512f7fe8f768f6bbe005f6",
    },
    (64, 6): {
        "phases": 1020,
        "health": "16cf7ecb9a5453555d4132146af9e599899f83769ab525ae8e4c7f2ab181187e",
        "audit": "f9f6ad064653487dbfc1288a08253e545f63488024d3b64253fb293e8db0e72e",
        "summary": "a2ec999e9f26448d28a1a70649dd1207a0f18d6e105b43dfb9ccbf355bdd0d86",
        "latency": "0703668e1f19923fe3486fb8dd7b7d92942b14380817cb9879c38747e8627f44",
        "overlap": "d0ff5974b6aa52cf562bea5921840c032a860a91a3512f7fe8f768f6bbe005f6",
    },
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canonical(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _digests(num_machines: int, num_switches: int):
    topology = random_tree(num_machines, num_switches, seed=0)
    msize = parse_size("64KB")
    programs = get_algorithm("scheduled").build_programs(topology, msize)
    result = run_programs(
        topology,
        programs,
        msize,
        NetworkParams(seed=0).without_noise(),
        telemetry=True,
    )
    telemetry = result.telemetry
    health = schedule_health(telemetry.trace, telemetry.links).as_dict()
    health.pop("critical_path", None)
    audit = audit_phases(telemetry, topology, programs)
    artifact = audit.as_dict()
    artifact.pop("repro_version")
    return {
        "phases": len(health["phases"]),
        "health": _sha(_canonical(health)),
        "audit": _sha(_canonical(artifact)),
        "summary": _sha(audit.summary()),
        "latency": _sha(phase_latency_table(telemetry.trace)),
        "overlap": _sha(repr(phase_overlap_fraction(telemetry.trace))),
    }


def test_random_tree_32_digests_unchanged():
    assert _digests(32, 4) == GOLDEN[(32, 4)]


@pytest.mark.slow
def test_random_tree_64_digests_unchanged():
    assert _digests(64, 6) == GOLDEN[(64, 6)]
