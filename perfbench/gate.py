"""Correctness gate: compares one query's CLI result with its reference."""

from __future__ import annotations

import ast
import json
import re
from typing import Optional

from .runner import Outcome
from .workloads import Query

EXIT_OK, EXIT_SEMANTIC, EXIT_STATE = 0, 2, 3

_FAILURE = re.compile(r"^(totality|determinism)\s+(\S+): "
                      r"(?:FAIL|edges to \S+ and \S+ overlap,) witness (.*)$")


def _verify(query: Query, expected: Optional[list], outcome: Outcome) -> Optional[str]:
    if query.ref.kind == "member":
        member = query.ref.member
    else:
        member = query.state in expected if query.state is not None else None
    want_code = EXIT_STATE if member is False else EXIT_OK
    if outcome.code != want_code:
        return f"exit code {outcome.code}, expected {want_code}"
    try:
        result = json.loads(outcome.stdout)
    except ValueError:
        return "output is not JSON"
    if expected is not None and sorted(result.get("extension", ())) != expected:
        return f"extension {result.get('extension')}, expected {expected}"
    if member is not None and result.get("per_state", {}).get(query.state) != member:
        return f"membership of {query.state} is not {member}"
    return None


def _check_model(query: Query, outcome: Outcome) -> Optional[str]:
    bad = query.ill
    want_code = EXIT_OK if bad is None else EXIT_SEMANTIC
    if outcome.code != want_code:
        return f"exit code {outcome.code}, expected {want_code}"
    try:
        result = json.loads(outcome.stdout)
    except ValueError:
        return "output is not JSON"
    if result.get("wellformed") is not (bad is None):
        return f"wellformed is {result.get('wellformed')}"
    failures = [line for line in result.get("report", ())
                if "FAIL" in line or " overlap," in line]
    if bad is None:
        return f"unexpected failure {failures[0]!r}" if failures else None
    if not failures:
        return "no failing check reported"
    for line in failures:
        match = _FAILURE.match(line)
        if match is None or match.group(1) != bad.kind \
                or match.group(2) != f"s{bad.state}":
            return f"unexpected failure {line!r}"
        try:
            witness = ast.literal_eval(match.group(3))
        except (ValueError, SyntaxError):
            return f"unreadable witness in {line!r}"
        if not isinstance(witness, dict) or not bad.witness_breaks(witness):
            return f"witness does not break {bad.kind}: {line!r}"
    return None


def check(query: Query, expected: Optional[list], outcome: Outcome) -> Optional[str]:
    """None when the outcome is right (or a timeout), else the reason."""
    if outcome.timed_out:
        return None
    if outcome.crash is not None:
        return "crash: " + outcome.crash.strip().splitlines()[-1]
    if query.command == "check-model":
        return _check_model(query, outcome)
    return _verify(query, expected, outcome)
