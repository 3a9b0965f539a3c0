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
span_i is the product of the state counts of the components after i.  Its
queue holds codes, and no tuple is built or hashed.  Each walk keeps one
table indexed by code: a list of None, one slot per code, when the product
has at most MAX_WALK_STATES codes, else a defaultdict of None holding only
the codes found.  A stopping walk's table holds each found code's parent
link, a full walk's its discovery index, and a code is new while its slot
is None.  Every walk has one shape: a head DFA over a tail.  The head is
the first component, its rows pre-scaled by span, the tail's state count;
the tail is the second component, or a _Joint of the rest, which is itself
one head over a tail and is read like a Dfa, through its state count,
initial state, delta[code] and code in accepting.  A lone component is the
tail of the 1-state full language, whose one row is all zeros, so its codes
are its states and its own table is read unscaled.  A code's head digit is
code // span and its tail code code % span; on each symbol the successor
code is the head row's entry plus the tail row's, one int add.  A tuple
accepts when its head digit is in the head's accepting set and, asked only
then, its tail code in the tail's.  Nothing is kept per tail state, so a
walk holds only its queue, its table and what its callers read, whatever
its components.
"""

from __future__ import annotations

from collections import defaultdict
from operator import add
from typing import NamedTuple, Sequence

from .automaton import Alphabet, AlphabetMismatchError, Dfa

# A walk of a product with at most this many codes indexes a list of them,
# at most 32 MB of slots; a larger product's walk keys a dict by the codes it
# finds.  The CLI refuses any run whose walks need more states than this.
MAX_WALK_STATES = 1 << 22


class ProductResult(NamedTuple):
    """The intersection product's DFA, its one field.

    Public only for the benchmark's lss oracle, which reads product(dfas).dfa.
    """

    dfa: Dfa


class Walk(NamedTuple):
    """Reachable product states: a full walk's by discovery index, a stopping walk's by code.

    A full walk's rows and accepting states are discovery indexes (the start
    is 0).  A stopping walk's parents are its table, indexed by code: -1 for
    the start, parent code * width + symbol for each later code found, width
    being the alphabet size, so a link // width is the parent and link %
    width the symbol, and None for a code not found; a walk whose start
    accepts makes no table, and its parents are {start: -1}.  Its accepting
    list holds the one accepting code it stopped at, if any.
    """

    parents: list[int | None] | dict[int, int | None]  # link that found each code; stopping walks only
    rows: list[tuple[int, ...]]  # transition row of each state; full walks only
    accepting: list[int]  # all-accepting states found: indexes, or a stopping walk's code


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


class _Joint:
    """Two or more components read like one Dfa: one head over a tail.

    The head is the first component, its rows scaled by span, the tail's
    state count; the tail is the second component, or a _Joint of the rest.
    delta and accepting are the joint itself: a code's head digit is
    code // span and its tail code code % span, as in walk.
    """

    __slots__ = ("state_count", "initial", "delta", "accepting", "rows", "head_accepting", "span", "tail")

    def __init__(self, components: Sequence[Dfa]) -> None:
        head = components[0]
        tail = self.tail = components[1] if len(components) == 2 else _Joint(components[1:])
        span = self.span = tail.state_count
        self.rows, self.head_accepting = _scaled(head, span), head.accepting
        self.state_count, self.initial = head.state_count * span, head.initial * span + tail.initial
        self.delta = self.accepting = self

    def __getitem__(self, code: int) -> tuple[int, ...]:
        return tuple(map(add, self.rows[code // self.span], self.tail.delta[code % self.span]))

    def __contains__(self, code: int) -> bool:
        return code // self.span in self.head_accepting and code % self.span in self.tail.accepting


def walk(components: Sequence[Dfa], stop: bool = False) -> Walk:
    """Breadth-first walk of the product reachable from the initial tuple.

    The initial tuple, the transition tables and the accepting sets are read
    from the components.  With stop, the walk ends at the first all-accepting
    tuple, which is reached by the shortlex-least accepted word that the
    parent links spell.  Each kind of walk keeps only what its callers read,
    its table of parent links or its rows, to keep the memory of large
    walks down.  The walk has one shape, as a _Joint has: a head over a
    tail.  The head is the first component, or the 1-state full language
    over a lone component; the tail is the second component, or a _Joint of
    the rest.  The successor codes of an expanded tuple are summed inline,
    head row entry plus tail row entry.
    """
    width = len(components[0].alphabet)
    symbols = range(width)
    if len(components) == 1:
        components = (Dfa(1, components[0].alphabet, 0, frozenset((0,)), ((0,) * width,)), components[0])
    head = components[0]
    tail = components[1] if len(components) == 2 else _Joint(components[1:])
    head_accepting, tail_rows, tail_accepting, span = head.accepting, tail.delta, tail.accepting, tail.state_count
    head_rows = _scaled(head, span)
    start = head.initial * span + tail.initial
    codes = [start]
    rows: list[tuple[int, ...]] = []
    accepting = [0] if start // span in head_accepting and start % span in tail_accepting else []
    if stop and accepting:
        return Walk({start: -1}, rows, [start])
    codes_in_product = head.state_count * span
    table = [None] * codes_in_product if codes_in_product <= MAX_WALK_STATES else defaultdict(type(None))
    # codes grows while it is iterated: it is the BFS queue as well.
    if stop:
        table[start] = -1
        for code in codes:
            hrow, trow = head_rows[code // span], tail_rows[code % span]
            link = code * width  # parent code * width, plus the symbol below
            for a in symbols:
                target = hrow[a] + trow[a]
                if table[target] is None:
                    table[target] = link + a
                    codes.append(target)
                    if target // span in head_accepting and target % span in tail_accepting:
                        return Walk(table, rows, [target])
        return Walk(table, rows, accepting)
    table[start] = 0
    for code in codes:
        row: list[int] = []
        hrow, trow = head_rows[code // span], tail_rows[code % span]
        for a in symbols:
            target = hrow[a] + trow[a]
            idx = table[target]
            if idx is None:
                idx = table[target] = len(codes)
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
