"""JSON interchange format for DFAs.

A DFA document is a single JSON object with exactly the keys `states`,
`alphabet`, `initial`, `accepting`, and `delta`.  Unknown keys are rejected
so that typos fail loudly instead of being ignored.  Files are UTF-8, as
RFC 8259 requires of JSON, whatever the locale.
"""

from __future__ import annotations

import json
from pathlib import Path

from .automaton import Alphabet, Dfa, validate

_KEYS = ("states", "alphabet", "initial", "accepting", "delta")


class InterchangeError(ValueError):
    """A DFA document is malformed; the message names the offending key."""


def to_document(dfa: Dfa) -> dict:
    return {
        "states": dfa.state_count,
        "alphabet": list(dfa.alphabet),
        "initial": dfa.initial,
        "accepting": sorted(dfa.accepting),
        "delta": [list(row) for row in dfa.delta],
    }


def from_document(doc: object) -> Dfa:
    if not isinstance(doc, dict):
        raise InterchangeError("DFA document must be a JSON object")
    for key in doc:
        if key not in _KEYS:
            raise InterchangeError(f"unknown key {key!r}")
    for key in _KEYS:
        if key not in doc:
            raise InterchangeError(f"missing key {key!r}")

    states = doc["states"]
    if not isinstance(states, int) or isinstance(states, bool):
        raise InterchangeError("key 'states': expected an integer")
    labels = doc["alphabet"]
    if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
        raise InterchangeError("key 'alphabet': expected a list of strings")
    try:
        alphabet = Alphabet(tuple(labels))
    except ValueError as exc:
        raise InterchangeError(f"key 'alphabet': {exc}") from exc
    initial = doc["initial"]
    if not isinstance(initial, int) or isinstance(initial, bool):
        raise InterchangeError("key 'initial': expected an integer")
    accepting = doc["accepting"]
    if not isinstance(accepting, list) or not all(
        isinstance(q, int) and not isinstance(q, bool) for q in accepting
    ):
        raise InterchangeError("key 'accepting': expected a list of integers")
    delta = doc["delta"]
    if not isinstance(delta, list) or not all(
        isinstance(row, list)
        and all(isinstance(t, int) and not isinstance(t, bool) for t in row)
        for row in delta
    ):
        raise InterchangeError("key 'delta': expected a list of lists of integers")

    return Dfa(
        state_count=states,
        alphabet=alphabet,
        initial=initial,
        accepting=frozenset(accepting),
        delta=tuple(tuple(row) for row in delta),
    )


def dumps(dfa: Dfa, indent: int | None = None) -> str:
    """Deterministic serialization; compact form doubles as a canonical sort key."""
    return json.dumps(to_document(dfa), indent=indent, separators=(",", ":") if indent is None else None)


def loads(text: str) -> Dfa:
    # ValueError covers JSONDecodeError and an integer over the interpreter's
    # digit limit (sys.get_int_max_str_digits); RecursionError, deep nesting.
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InterchangeError(f"invalid JSON: {exc}") from exc
    return from_document(doc)


def load_path(path: str | Path) -> Dfa:
    """Read and validate a DFA document."""
    dfa = loads(Path(path).read_text(encoding="utf-8"))
    validate(dfa)
    return dfa


def save_path(dfa: Dfa, path: str | Path) -> None:
    Path(path).write_text(dumps(dfa, indent=2) + "\n", encoding="utf-8")
