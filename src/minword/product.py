"""The reachable-product walk, and the intersection product built from it.

Every answer minword gives is a breadth-first walk of the product of some
DFAs: only tuples reachable from the tuple of initial states are visited,
symbols are explored in alphabet order, and tuples are numbered in discovery
order, so the numbering is deterministic.  product() runs the whole walk;
the shortest-word searches stop it at the first all-accepting tuple.  The
canonical numbering of a minimal DFA is a walk too, of a one-component
product.

The walk keys a tuple (q_0, ..., q_{k-1}) of component states by one
mixed-radix int, its code q_0*span_0 + q_1*span_1 + ... + q_{k-1}, where
span_i is the product of the state counts of the components after i; a
lone component's codes are its states.  Its dict and its queue hold ints,
and no tuple is built or hashed.  The rows of every component but the last
are pre-scaled by its span, so the successor codes of a tuple are its
components' rows added entry by entry: the walk divmods a code against the
spans and chains lazy maps over those rows, the last component's own table
last.  A tuple's acceptance is decoded the same way, past the head only when
the head accepts.  Nothing is built or kept per tail, so a walk holds only
its codes and what its callers read, whatever its components.  product()
alone turns codes back into tuples.
"""

from __future__ import annotations

from math import prod
from operator import add
from typing import Iterable, NamedTuple, Sequence

from .automaton import Alphabet, AlphabetMismatchError, Dfa


class ProductResult(NamedTuple):
    """Product DFA plus the map from product state to component state tuple."""

    dfa: Dfa
    tags: tuple[tuple[int, ...], ...]


class Walk(NamedTuple):
    """Reachable product states, indexed in discovery order (the start is 0).

    codes doubles as the breadth-first queue.  A stopping walk's parents
    hold -1 for the start, then parent index * width + symbol for each
    later state, width being the alphabet size: divmod by width reads one
    link back.
    """

    codes: list[int]  # mixed-radix code of each state's component state tuple
    parents: list[int]  # parent index * width + symbol that found each state; stopping walks only
    rows: list[tuple[int, ...]]  # transition row of each state; full walks only
    accepting: list[int]  # all-accepting states, in discovery order


def shared_alphabet(components: Sequence[Dfa]) -> Alphabet:
    """The one alphabet of a nonempty component list; raises otherwise."""
    if not components:
        raise ValueError("need at least one component")
    alphabet = components[0].alphabet
    for d in components[1:]:
        if d.alphabet != alphabet:
            raise AlphabetMismatchError(
                f"components must share one alphabet: {tuple(d.alphabet)} != {tuple(alphabet)}"
            )
    return alphabet


def _scaled(dfa: Dfa, span: int) -> list[tuple[int, ...]]:
    """The DFA's rows with every target multiplied by span."""
    return [tuple([t * span for t in row]) for row in dfa.delta]


class _Tail:
    """A tail of two or more components, read by code like one component's table or flags.

    middle holds (span, rows scaled by span, accepting set) of each tail
    component but the last, and last the last one's table or flags.  Each
    lookup divmods the code against the middle spans; nothing is kept.
    """

    __slots__ = ("middle", "last")

    def __init__(self, middle: list[tuple[int, list[tuple[int, ...]], frozenset[int]]], last: Sequence) -> None:
        self.middle = middle
        self.last = last


class _TailRows(_Tail):
    __slots__ = ()

    def __getitem__(self, code: int) -> Iterable[int]:
        """The tail row: lazy maps chained over the middle rows, then the last row."""
        targets = None
        for span, rows, _ in self.middle:
            q, code = divmod(code, span)
            targets = rows[q] if targets is None else map(add, targets, rows[q])
        return map(add, targets, self.last[code])


class _TailAccepts(_Tail):
    __slots__ = ()

    def __getitem__(self, code: int) -> bool:
        for span, _, accepting in self.middle:
            q, code = divmod(code, span)
            if q not in accepting:
                return False
        return self.last[code]


def walk(components: Sequence[Dfa], stop: bool = False) -> Walk:
    """Breadth-first walk of the product reachable from the initial tuple.

    The initial tuple, the transition tables and the accepting sets are read
    from the components.  With stop, the walk ends at the first all-accepting
    tuple, which is reached by the shortlex-least accepted word that the
    parent links spell.  Each kind of walk keeps only what its callers read,
    parents or rows, to keep the memory of large walks down.
    """
    head, last = components[0], components[-1]
    head_accepting = head.accepting
    if len(components) == 1:
        # A lone component's codes are its states: its own rows, no tail.
        head_rows, tail_rows, tail_accepts, span, start = head.delta, None, (True,), 1, head.initial
    else:
        tail_rows = last.delta
        tail_accepts = [q in last.accepting for q in range(last.state_count)]
        span, start = last.state_count, last.initial
        middle = []
        for d in reversed(components[1:-1]):
            middle.insert(0, (span, _scaled(d, span), d.accepting))
            start += d.initial * span
            span *= d.state_count
        if middle:
            tail_rows, tail_accepts = _TailRows(middle, tail_rows), _TailAccepts(middle, tail_accepts)
        head_rows = _scaled(head, span)
        start += head.initial * span
    codes = [start]
    rows: list[tuple[int, ...]] = []
    h, r = divmod(start, span)
    accepting = [0] if h in head_accepting and tail_accepts[r] else []
    if stop and accepting:
        return Walk(codes, [-1], rows, accepting)
    if stop:
        parents = [-1]
        width = len(head.alphabet)
        seen = {start}
        # codes grows while it is iterated: it is the BFS queue as well.
        for i, code in enumerate(codes):
            if tail_rows is None:
                targets = head_rows[code]
            else:
                h, r = divmod(code, span)
                targets = map(add, head_rows[h], tail_rows[r])
            link = i * width  # parent index * width + symbol, symbol 0 first
            for target in targets:
                if target not in seen:
                    seen.add(target)
                    codes.append(target)
                    parents.append(link)
                    h, r = divmod(target, span)
                    if h in head_accepting and tail_accepts[r]:
                        accepting.append(len(parents) - 1)
                        return Walk(codes, parents, rows, accepting)
                link += 1
        return Walk(codes, parents, rows, accepting)
    ids = {start: 0}
    for code in codes:
        if tail_rows is None:
            targets = head_rows[code]
        else:
            h, r = divmod(code, span)
            targets = map(add, head_rows[h], tail_rows[r])
        row: list[int] = []
        for target in targets:
            idx = ids.get(target)
            if idx is None:
                idx = ids[target] = len(codes)
                codes.append(target)
                h, r = divmod(target, span)
                if h in head_accepting and tail_accepts[r]:
                    accepting.append(idx)
            row.append(idx)
        rows.append(tuple(row))
    return Walk(codes, [], rows, accepting)


def product(components: Sequence[Dfa]) -> ProductResult:
    """Intersection product: the result accepts w iff every component accepts w."""
    alphabet = shared_alphabet(components)
    found = walk(components)
    spans = [prod(d.state_count for d in components[i + 1 :]) for i in range(len(components) - 1)]
    # Tags share these state ints, not one new int per tag entry.
    states = list(range(max(d.state_count for d in components)))
    # Each code becomes its component state tuple in place, most significant
    # digit first.
    tags: list = found.codes
    for i, code in enumerate(tags):
        tag = []
        for span in spans:
            q, code = divmod(code, span)
            tag.append(states[q])
        tag.append(states[code])
        tags[i] = tuple(tag)
    dfa = Dfa(len(tags), alphabet, 0, frozenset(found.accepting), tuple(found.rows))
    return ProductResult(dfa=dfa, tags=tuple(tags))
