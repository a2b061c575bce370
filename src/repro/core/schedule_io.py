"""JSON import/export of phased schedules.

The generated schedule is a topology-specific artifact worth shipping
alongside the generated C routine — external tools (visualisers, other
runtimes) can consume it without running the scheduler.  The format is
a schema-versioned artifact document (see :mod:`repro.artifacts`)
pairing the topology text with the phase list.
"""

from __future__ import annotations

import io
from typing import IO, Union

from repro.artifacts import check_schema, dumps_json, read_json, write_json
from repro.core.pattern import Message
from repro.core.schedule import MessageKind, PhasedSchedule
from repro.core.root import RootInfo, Subtree
from repro.topology.serialization import dumps_topology, loads_topology

SCHEMA_VERSION = 1


def schedule_to_dict(schedule: PhasedSchedule) -> dict:
    """A JSON-serialisable dict for a phased schedule."""
    data = {
        "schema": SCHEMA_VERSION,
        "topology": dumps_topology(schedule.topology),
        "num_phases": schedule.num_phases,
        "phases": [
            [
                {
                    "src": sm.src,
                    "dst": sm.dst,
                    "kind": sm.kind.value,
                    "group": list(sm.group),
                }
                for sm in schedule.phase(p)
            ]
            for p in range(schedule.num_phases)
        ],
    }
    if schedule.root_info is not None:
        data["root"] = {
            "switch": schedule.root_info.root,
            "subtrees": [
                {"branch": t.branch, "machines": list(t.machines)}
                for t in schedule.root_info.subtrees
            ],
        }
    return data


def schedule_from_dict(data: dict) -> PhasedSchedule:
    """Inverse of :func:`schedule_to_dict`."""
    check_schema(data, "schedule file", SCHEMA_VERSION, None)
    topology = loads_topology(data["topology"])
    root_info = None
    if "root" in data:
        root_info = RootInfo(
            root=data["root"]["switch"],
            subtrees=tuple(
                Subtree(branch=t["branch"], machines=tuple(t["machines"]))
                for t in data["root"]["subtrees"]
            ),
        )
    schedule = PhasedSchedule(topology, int(data["num_phases"]), root_info)
    for p, phase in enumerate(data["phases"]):
        for entry in phase:
            schedule.add(
                p,
                Message(entry["src"], entry["dst"]),
                MessageKind(entry["kind"]),
                tuple(entry["group"]),
            )
    return schedule


def save_schedule(schedule: PhasedSchedule, sink: Union[str, IO[str]]) -> None:
    write_json(sink, schedule_to_dict(schedule))


def load_schedule(source: Union[str, IO[str]]) -> PhasedSchedule:
    return schedule_from_dict(read_json(source, "schedule file"))


def dumps_schedule(schedule: PhasedSchedule) -> str:
    return dumps_json(schedule_to_dict(schedule))


def loads_schedule(text: str) -> PhasedSchedule:
    return load_schedule(io.StringIO(text))
