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
components' rows added entry by entry.  The walk splits a code into its
head digit, code // span, and its tail, code % span, where span is span_0;
on each symbol the successor code is the head row's entry plus the tail
row's, one int add.  A tail is a Dfa, or a _Joint of several read like
one, through its state count, initial state, delta[code] and code in
accepting: a lone component's tail is the 1-state full language, whose one
row adds nothing, and a _Joint adds its components' rows up into one row
tuple as a state is expanded.  A tuple accepts when its head digit is in
the head's accepting set and, asked only then, its tail code in the
tail's.  Nothing is kept per tail state, so a walk holds only its codes and
what its callers read, whatever its components.  The codes stay inside
the walk, as its queue.
"""

from __future__ import annotations

from operator import add
from typing import NamedTuple, Sequence

from .automaton import Alphabet, AlphabetMismatchError, Dfa


class ProductResult(NamedTuple):
    """The intersection product's DFA, its one field.

    Public only for the benchmark's lss oracle, which reads product(dfas).dfa.
    """

    dfa: Dfa


class Walk(NamedTuple):
    """Reachable product states, indexed in discovery order (the start is 0).

    A stopping walk's parents hold -1 for the start, then parent index *
    width + symbol for each later state, width being the alphabet size: a
    link // width is the parent and link % width the symbol.
    """

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


def _scaled(dfa: Dfa, span: int) -> Sequence[tuple[int, ...]]:
    """The DFA's rows with every target multiplied by span: its own table for span 1."""
    if span == 1:
        return dfa.delta
    return [tuple([t * span for t in row]) for row in dfa.delta]


class _Joint:
    """Two or more components read like one Dfa, by their mixed-radix code.

    parts holds (span, rows scaled by span, accepting set) of each component
    but the last, last the last one's table and flags its accept flags.
    delta and accepting are the joint itself; each lookup divmods the code.
    """

    __slots__ = ("state_count", "initial", "delta", "accepting", "parts", "last", "flags")

    def __init__(self, components: Sequence[Dfa]) -> None:
        last = components[-1]
        self.last, self.flags = last.delta, [q in last.accepting for q in range(last.state_count)]
        span, initial, parts = last.state_count, last.initial, []
        for d in reversed(components[:-1]):
            parts.insert(0, (span, _scaled(d, span), d.accepting))
            initial += d.initial * span
            span *= d.state_count
        self.state_count, self.initial, self.parts = span, initial, parts
        self.delta = self.accepting = self

    def __getitem__(self, code: int) -> tuple[int, ...]:
        targets = None
        for span, rows, _ in self.parts:
            q, code = divmod(code, span)
            targets = rows[q] if targets is None else map(add, targets, rows[q])
        return tuple(map(add, targets, self.last[code]))

    def __contains__(self, code: int) -> bool:
        for span, _, accepting in self.parts:
            q, code = divmod(code, span)
            if q not in accepting:
                return False
        return self.flags[code]


def walk(components: Sequence[Dfa], stop: bool = False) -> Walk:
    """Breadth-first walk of the product reachable from the initial tuple.

    The initial tuple, the transition tables and the accepting sets are read
    from the components.  With stop, the walk ends at the first all-accepting
    tuple, which is reached by the shortlex-least accepted word that the
    parent links spell.  Each kind of walk keeps only what its callers read,
    parents or rows, to keep the memory of large walks down.  The successor
    codes of an expanded tuple are summed inline, head row entry plus tail
    row entry, where the tail is a Dfa, or a _Joint of several read like one.
    """
    head = components[0]
    width = len(head.alphabet)
    symbols = range(width)
    if len(components) > 2:
        tail = _Joint(components[1:])
    elif len(components) == 2:
        tail = components[1]
    else:
        tail = Dfa(1, head.alphabet, 0, frozenset((0,)), ((0,) * width,))
    head_accepting, tail_rows, tail_accepting, span = head.accepting, tail.delta, tail.accepting, tail.state_count
    head_rows = _scaled(head, span)
    start = head.initial * span + tail.initial
    codes = [start]
    rows: list[tuple[int, ...]] = []
    accepting = [0] if start // span in head_accepting and start % span in tail_accepting else []
    if stop and accepting:
        return Walk([-1], rows, accepting)
    if stop:
        parents = [-1]
        seen = {start}
        # codes grows while it is iterated: it is the BFS queue as well.
        for i, code in enumerate(codes):
            hrow, trow = head_rows[code // span], tail_rows[code % span]
            link = i * width  # parent index * width, plus the symbol below
            for a in symbols:
                target = hrow[a] + trow[a]
                if target not in seen:
                    seen.add(target)
                    codes.append(target)
                    parents.append(link + a)
                    if target // span in head_accepting and target % span in tail_accepting:
                        accepting.append(len(parents) - 1)
                        return Walk(parents, rows, accepting)
        return Walk(parents, rows, accepting)
    ids = {start: 0}
    for code in codes:
        row: list[int] = []
        hrow, trow = head_rows[code // span], tail_rows[code % span]
        for a in symbols:
            target = hrow[a] + trow[a]
            idx = ids.get(target)
            if idx is None:
                idx = ids[target] = len(codes)
                codes.append(target)
                if target // span in head_accepting and target % span in tail_accepting:
                    accepting.append(idx)
            row.append(idx)
        rows.append(tuple(row))
    return Walk([], rows, accepting)


def product(components: Sequence[Dfa]) -> ProductResult:
    """Intersection product: the result accepts w iff every component accepts w."""
    alphabet = shared_alphabet(components)
    found = walk(components)
    dfa = Dfa(len(found.rows), alphabet, 0, frozenset(found.accepting), tuple(found.rows))
    return ProductResult(dfa=dfa)
