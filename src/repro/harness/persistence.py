"""Save and load experiment results as JSON.

Reproduction runs are cheap but not free; persisting
:class:`~repro.harness.runner.ExperimentResult` grids lets the
benchmarks, notebooks and regression checks compare against a stored
baseline without re-simulating.  The format is a schema-versioned
artifact document (see :mod:`repro.artifacts`).
"""

from __future__ import annotations

import io
from typing import IO, Union

from repro._version import __version__
from repro.artifacts import check_schema, dumps_json, read_json, write_json
from repro.harness.runner import ExperimentResult, MeasurementPoint
from repro.sim.params import NetworkParams
from repro.topology.graph import Topology
from repro.topology.serialization import dumps_topology, loads_topology

SCHEMA_VERSION = 1


def result_to_dict(result: ExperimentResult) -> dict:
    """A JSON-serialisable dict for an experiment result."""
    return {
        "schema": SCHEMA_VERSION,
        "repro_version": __version__,
        "name": result.name,
        "topology": dumps_topology(result.topology),
        "params": {
            field: getattr(result.params, field)
            for field in type(result.params).__dataclass_fields__
        },
        "points": [
            {
                "algorithm": p.algorithm,
                "variant": p.variant,
                "msize": p.msize,
                "mean_time": p.mean_time,
                "min_time": p.min_time,
                "max_time": p.max_time,
                "samples": list(p.samples),
                "throughput_mbps": p.throughput_mbps,
                "peak_concurrent_flows": p.peak_concurrent_flows,
                "max_edge_multiplexing": p.max_edge_multiplexing,
                "build_time": p.build_time,
            }
            for p in result.points
        ],
    }


def result_from_dict(data: dict) -> ExperimentResult:
    """Inverse of :func:`result_to_dict`."""
    check_schema(data, "result file", SCHEMA_VERSION, None)
    params_data = dict(data["params"])
    # Retired field: every network pools completed flows now.
    params_data.pop("pool_flows", None)
    if "rank_speed_overrides" in params_data:
        # JSON has no tuples; restore the dataclass's canonical form.
        params_data["rank_speed_overrides"] = tuple(
            (str(rank), float(factor))
            for rank, factor in params_data["rank_speed_overrides"]
        )
    result = ExperimentResult(
        name=data["name"],
        topology=loads_topology(data["topology"]),
        params=NetworkParams(**params_data),
    )
    for p in data["points"]:
        result.points.append(
            MeasurementPoint(
                algorithm=p["algorithm"],
                variant=p["variant"],
                msize=int(p["msize"]),
                mean_time=float(p["mean_time"]),
                min_time=float(p["min_time"]),
                max_time=float(p["max_time"]),
                samples=[float(s) for s in p["samples"]],
                throughput_mbps=float(p["throughput_mbps"]),
                peak_concurrent_flows=int(p["peak_concurrent_flows"]),
                max_edge_multiplexing=int(p["max_edge_multiplexing"]),
                build_time=(
                    float(p["build_time"])
                    if p.get("build_time") is not None
                    else None
                ),
            )
        )
    return result


def save_result(result: ExperimentResult, sink: Union[str, IO[str]]) -> None:
    """Write a result grid to a JSON file or stream."""
    write_json(sink, result_to_dict(result))


def load_result(source: Union[str, IO[str]]) -> ExperimentResult:
    """Read a result grid from a JSON file or stream."""
    return result_from_dict(read_json(source, "result file"))


def dumps_result(result: ExperimentResult) -> str:
    return dumps_json(result_to_dict(result))


def loads_result(text: str) -> ExperimentResult:
    return load_result(io.StringIO(text))
