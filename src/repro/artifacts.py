"""Schema-versioned JSON artifact files: how they are written and read.

Every file repro writes for a later run or tool to read back (metrics
report, Perfetto trace, attribution, phase-audit, sentinel and chaos
reports, stats JSONL lines, ledger lines, saved results, schedules and
fault plans) is one compact JSON document followed by ``"\\n"``: the
exact bytes of ``json.dumps(data) + "\\n"``, default separators, keys in
insertion order, no indentation.  ``python -m json.tool FILE`` prints
one for reading by eye.

Readers share one rule: undecodable input or a document that is not a
JSON object is *corrupt*, and a ``schema`` newer than this version of
repro reads is refused with an upgrade hint instead of being misread.
Each artifact keeps its own ``*_SCHEMA_VERSION`` constant.
"""

from __future__ import annotations

import json
from typing import IO, Dict, Optional, Union

from repro._version import __version__
from repro.errors import ReproError

#: Lists longer than this are encoded one slice at a time, so a large
#: artifact (a Perfetto trace has ~10^5 events) never exists as one
#: string while every piece still goes through the C encoder.  The C
#: encoder holds a slice's pieces until it joins them, so the batch
#: sets the write's extra peak: on a 64-rank Perfetto trace, 1.7 MB at
#: 1,024 events, 0.16 MB at 64 (``json.dump``: 0.1 MB), with no
#: measurable change in write time.
_BATCH = 64


def dumps_json(data: object) -> str:
    """*data* as one artifact document: compact JSON plus ``"\\n"``."""
    return json.dumps(data) + "\n"


def write_json(sink: Union[str, IO[str]], data: object) -> None:
    """Write *data* to a path or text stream, byte-identical to
    :func:`dumps_json` but encoded in pieces: objects member by member,
    lists longer than a batch slice by slice."""
    if isinstance(sink, str):
        with open(sink, "w", encoding="utf-8") as fh:
            write_json(fh, data)
        return
    _write_value(sink.write, data)
    sink.write("\n")


def _write_value(write, value: object) -> None:
    if isinstance(value, dict) and value:
        write("{")
        for i, (key, item) in enumerate(value.items()):
            # '"key": ', with the encoder's own key coercion.
            write((", " if i else "") + json.dumps({key: 0})[1:-2])
            _write_value(write, item)
        write("}")
    elif isinstance(value, list) and len(value) > _BATCH:
        for i in range(0, len(value), _BATCH):
            write((", " if i else "[") + json.dumps(value[i:i + _BATCH])[1:-1])
        write("]")
    else:
        write(json.dumps(value))


def read_json(source: Union[str, IO[str]], what: str) -> Dict[str, object]:
    """Parse one artifact document from a path or text stream.

    Raises :class:`~repro.errors.ReproError` naming *what* when the
    text is not JSON or not a JSON object; :class:`OSError` from opening
    a path propagates.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            return read_json(fh, what)
    try:
        data = json.load(source)
    except json.JSONDecodeError as exc:
        raise ReproError(f"corrupt {what}: {exc}") from exc
    if not isinstance(data, dict):
        raise ReproError(f"{what} must be a JSON object")
    return data


def check_schema(
    data: Dict[str, object], what: str, newest: int, missing: Optional[int]
) -> int:
    """The document's ``schema``, refusing invalid and future ones.

    *missing* is the schema assumed when the key is absent; ``None``
    makes a document without one invalid.
    """
    schema = data.get("schema", missing)
    if not isinstance(schema, int) or schema < 1:
        raise ReproError(f"{what} has invalid schema {schema!r}")
    if schema > newest:
        raise ReproError(
            f"{what} uses schema {schema}, but this version of repro "
            f"({__version__}) reads up to schema {newest}; "
            "upgrade repro to read it"
        )
    return schema
