"""Structured run reports.

Every command produces one RunReport; the records format is a line-delimited
JSON stream with a versioned schema field, and the human-readable text output
is a formatting of the same records, never a separate computation.
Serialization is deterministic (sorted keys, no timestamps).
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, NamedTuple, Optional

from .parsing import bipoly_text, frac_text, poly_text, ratfn_text, section_text
from .poly import BiPoly, RatFn, UniPoly
from .surface import SectionPoint

SCHEMA = "mwq.report.v1"

STATUS_OK = "ok"
STATUS_MISMATCH = "mismatch"

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL = 3


# the parser's text of each domain value, by exact type
_TEXT = {Fraction: frac_text, UniPoly: poly_text, RatFn: ratfn_text, BiPoly: bipoly_text,
         SectionPoint: section_text}


def plain(value: Any) -> str:
    """The text of one leaf value: a domain value (`Fraction`, polynomial,
    section) as the parser reads it back, anything else as `str`.  Lists,
    tuples and dicts are never passed here; each format walks them itself."""
    return _TEXT.get(type(value), str)(value)


# One encoder for every record.  Its C walk writes lists, tuples (integer
# vectors included), dicts, strings, ints, bools and None itself and calls
# `plain` only on a value JSON has no form for.  Every dict key in a result is
# a str, so sorting the raw keys gives the order of their text; a result is a
# tree built by one command, never a cycle, so no cycle check is kept.
_ENCODER = json.JSONEncoder(sort_keys=True, default=plain, check_circular=False)


class ResultItem(NamedTuple):
    name: str
    value: Any
    provenance: tuple[str, ...] = ()
    ok: Optional[bool] = None


class RunReport:
    """One command's inputs and results; `add` appends, and a failed check
    turns the status to mismatch."""

    def __init__(self, command: str, inputs: Optional[dict[str, str]] = None):
        self.command = command
        self.inputs = {} if inputs is None else inputs
        self.results: list[ResultItem] = []
        self.status = STATUS_OK

    def __eq__(self, other) -> bool:  # a mutable value: no hash
        return vars(self) == vars(other) if type(other) is RunReport else NotImplemented

    def add(self, name: str, value: Any, provenance: tuple[str, ...] = (), ok: Optional[bool] = None):
        self.results.append(ResultItem(name, value, provenance, ok))
        if ok is False and self.status == STATUS_OK:
            self.status = STATUS_MISMATCH

    def exit_code(self) -> int:
        return EXIT_MISMATCH if self.status == STATUS_MISMATCH else EXIT_OK

    def to_records(self) -> list[dict]:
        head = {
            "schema": SCHEMA,
            "kind": "run",
            "command": self.command,
            "inputs": dict(sorted(self.inputs.items())),
            "status": self.status,
        }
        recs = [head]
        for item in self.results:
            rec = {
                "schema": SCHEMA,
                "kind": "result",
                "command": self.command,
                "name": item.name,
                "value": item.value,
                "provenance": list(item.provenance),
            }
            if item.ok is not None:
                rec["ok"] = item.ok
            recs.append(rec)
        return recs

    def render_records(self) -> str:
        return "\n".join(map(_ENCODER.encode, self.to_records()))

    def render_text(self) -> str:
        lines = [f"# {self.command}"]
        for key, val in sorted(self.inputs.items()):
            lines.append(f"  input {key}: {val}")
        for item in self.results:
            mark = "" if item.ok is None else ("  [ok]" if item.ok else "  [MISMATCH]")
            lines.append(f"  {item.name} = {_fmt(item.value)}{mark}")
        lines.append(f"status: {self.status}")
        return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_fmt(v)}" for k, v in value.items()) + "}"
    return plain(value)
