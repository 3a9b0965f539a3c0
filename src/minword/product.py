"""The reachable-product walk, and the intersection product built from it.

Every answer minword gives is a breadth-first walk of the product of some
DFAs: only tuples reachable from the tuple of initial states are visited,
symbols are explored in alphabet order, and tuples are numbered in discovery
order, so the numbering is deterministic.  product() runs the whole walk;
the shortest-word searches stop it at the first all-accepting tuple.  The
canonical numbering of a minimal DFA is a walk too, of a one-component
product.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import contains, getitem
from typing import NamedTuple, Sequence

from .automaton import Alphabet, AlphabetMismatchError, Dfa


@dataclass(frozen=True)
class ProductResult:
    """Product DFA plus the map from product state to component state tuple."""

    dfa: Dfa
    tags: tuple[tuple[int, ...], ...]


class Walk(NamedTuple):
    """Reachable product states, indexed in discovery order (the start is 0)."""

    tags: list[tuple[int, ...]]  # component state tuple of each state
    parents: list[tuple[int, int]]  # (parent index, symbol) that found each state; stopping walks only
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
                f"components must share one alphabet: {d.alphabet.symbols} != {alphabet.symbols}"
            )
    return alphabet


def walk(components: Sequence[Dfa], stop: bool = False) -> Walk:
    """Breadth-first walk of the product reachable from the initial tuple.

    The initial tuple, the transition tables and the accepting sets are read
    from the components.  With stop, the walk ends at the first all-accepting
    tuple, which is reached by the shortlex-least accepted word that the
    parent links spell.  Each kind of walk keeps only what its callers read,
    parents or rows, to keep the memory of large walks down.
    """
    deltas = [d.delta for d in components]
    acceptings = [d.accepting for d in components]
    start = tuple([d.initial for d in components])
    ids = {start: 0}
    tags = [start]
    parents = [(-1, -1)]
    rows: list[tuple[int, ...]] = []
    accepting = [0] if all(map(contains, acceptings, start)) else []
    if stop and accepting:
        return Walk(tags, parents, rows, accepting)
    # tags grows while it is iterated: it is the BFS queue as well.
    for current_idx, current in enumerate(tags):
        row: list[int] = []
        # zip of the components' current rows yields one target tuple per symbol.
        for sym, target in enumerate(zip(*map(getitem, deltas, current))):
            idx = ids.get(target)
            if idx is None:
                idx = ids[target] = len(tags)
                tags.append(target)
                if stop:
                    parents.append((current_idx, sym))
                if all(map(contains, acceptings, target)):
                    accepting.append(idx)
                    if stop:
                        return Walk(tags, parents, rows, accepting)
            row.append(idx)
        if not stop:
            rows.append(tuple(row))
    return Walk(tags, parents, rows, accepting)


def product(components: Sequence[Dfa]) -> ProductResult:
    """Intersection product: the result accepts w iff every component accepts w."""
    alphabet = shared_alphabet(components)
    found = walk(components)
    dfa = Dfa(len(found.tags), alphabet, 0, frozenset(found.accepting), tuple(found.rows))
    return ProductResult(dfa=dfa, tags=tuple(found.tags))
