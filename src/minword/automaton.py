"""Complete deterministic finite automata over a fixed ordered alphabet.

States are dense integer indices 0..state_count-1, the transition table is a
dense row-major tuple of tuples, and words are tuples of symbol indices.
Lexicographic order on words is induced by the alphabet's symbol order.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

Word = tuple[int, ...]


class InvalidDfaError(ValueError):
    """A structural invariant of a DFA is violated."""


class AlphabetMismatchError(ValueError):
    """An operation received automata over different alphabets."""


class Alphabet(tuple):
    """Ordered, duplicate-free symbol labels; a symbol's index is its position.

    An Alphabet is the tuple of its labels, checked on construction, so it is
    immutable and hashable, and it equals the plain tuple of its labels.
    """

    __slots__ = ()

    def __new__(cls, symbols: Iterable[str]) -> Alphabet:
        symbols = tuple(symbols)
        if not symbols:
            raise ValueError("alphabet must be nonempty")
        for label in symbols:
            if not isinstance(label, str) or not label:
                raise ValueError(f"alphabet label {label!r} must be a nonempty string")
            try:
                label.encode("utf-8")
            except UnicodeEncodeError:
                raise ValueError(f"alphabet label {label!r} is not encodable as UTF-8") from None
        if len(set(symbols)) != len(symbols):
            raise ValueError("alphabet labels must be distinct")
        return tuple.__new__(cls, symbols)

    def __repr__(self) -> str:
        return f"Alphabet(symbols={tuple(self)!r})"

    @property
    def symbols(self) -> Alphabet:
        """The labels in order: the alphabet itself."""
        return self


BINARY = Alphabet(("0", "1"))
UNARY = Alphabet(("0",))


class Dfa(NamedTuple):
    """A complete DFA: total transition table, one initial state, accepting set.

    A Dfa is a named tuple of its five fields, so instances are immutable and
    hashable, and canonical forms can be deduped with ordinary dict/set
    machinery.  Use ``dfa._replace(...)`` and ``dfa._asdict()`` to derive or
    unpack one (``dataclasses.replace`` and ``asdict`` do not apply), and
    note that a Dfa compares equal to the plain tuple of its fields.
    Construction neither validates nor converts: callers pass a frozenset and
    a tuple of tuples, and :func:`minword.interchange.from_document` does
    that for outside input.  Call :func:`validate` to check the structural
    invariants.
    """

    state_count: int
    alphabet: Alphabet
    initial: int
    accepting: frozenset[int]
    delta: tuple[tuple[int, ...], ...]


def validate(dfa: Dfa) -> None:
    """Raise InvalidDfaError naming the first violated DFA invariant."""
    if dfa.state_count < 1:
        raise InvalidDfaError(f"state_count must be positive, got {dfa.state_count}")
    if not 0 <= dfa.initial < dfa.state_count:
        raise InvalidDfaError(
            f"initial state {dfa.initial} out of range for {dfa.state_count} states"
        )
    for q in sorted(dfa.accepting):
        if not 0 <= q < dfa.state_count:
            raise InvalidDfaError(
                f"accepting state {q} out of range for {dfa.state_count} states"
            )
    if len(dfa.delta) != dfa.state_count:
        raise InvalidDfaError(
            f"delta must have {dfa.state_count} rows, got {len(dfa.delta)}"
        )
    width = len(dfa.alphabet)
    for q, row in enumerate(dfa.delta):
        if len(row) != width:
            raise InvalidDfaError(
                f"delta row {q} must have {width} entries, got {len(row)}"
            )
        for c, target in enumerate(row):
            if not 0 <= target < dfa.state_count:
                raise InvalidDfaError(
                    f"delta entry out of range: delta[{q}][{c}] = {target}"
                )


def run(dfa: Dfa, word: Iterable[int], start: int | None = None) -> int:
    """Fold the word through the transition table; empty word returns the start state.

    The symbols are range-checked once, as a set, before the fold.
    """
    if start is None:
        state = dfa.initial
    elif 0 <= start < dfa.state_count:
        state = start
    else:
        raise ValueError(f"start state {start} out of range for {dfa.state_count} states")
    word, width, delta = tuple(word), len(dfa.alphabet), dfa.delta
    symbols = frozenset(range(width))
    if not symbols.issuperset(word):
        bad = next(sym for sym in word if sym not in symbols)
        raise ValueError(f"symbol index {bad} out of range for alphabet of size {width}")
    for sym in word:
        state = delta[state][sym]
    return state


def accepts(dfa: Dfa, word: Iterable[int]) -> bool:
    return run(dfa, word) in dfa.accepting


def parse_word(alphabet: Alphabet, text: str) -> Word:
    """Parse a word from concatenated labels; the split must be unique.

    Dynamic programming over positions: parses[i] counts (up to 2) the ways
    to split text[:i] into labels, and last[i] is the final label of one.
    """
    parses = [1] + [0] * len(text)
    last: list[tuple[int, int]] = [(-1, -1)] * (len(text) + 1)
    for pos in range(len(text)):
        if not parses[pos]:
            continue
        for idx, label in enumerate(alphabet):
            if text.startswith(label, pos):
                end = pos + len(label)
                parses[end] = min(2, parses[end] + parses[pos])
                last[end] = (pos, idx)
    if not parses[-1]:
        pos = max(i for i, count in enumerate(parses) if count)
        raise ValueError(f"no alphabet label matches input at position {pos}: {text[pos:]!r}")
    if parses[-1] > 1:
        raise ValueError(f"input {text!r} splits into alphabet labels in more than one way")
    out: list[int] = []
    pos = len(text)
    while pos:
        pos, idx = last[pos]
        out.append(idx)
    out.reverse()
    return tuple(out)


def format_word(alphabet: Alphabet, word: Sequence[int]) -> str:
    """The word's labels joined; one symbol gives its label, as "".join(label) == label."""
    return "".join(itemgetter(*word)(alphabet)) if word else ""
