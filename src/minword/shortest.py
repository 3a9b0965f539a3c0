"""Shortest accepted word via a breadth-first walk of the reachable product.

Returns the lexicographically least word among the shortest: the walk
discovers states in order of (distance, lex-least word reaching them) when
successors are expanded in alphabet order, so the first all-accepting state
discovered yields the canonical witness.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .automaton import Dfa, Word
from .product import shared_alphabet, walk


class LssResult(NamedTuple):
    """Length and canonical witness of the shortest accepted word."""

    length: int
    witness: Word


def shortest_accepted(dfa: Dfa) -> LssResult | None:
    """Shortest accepted word of a DFA, or None when the language is empty."""
    return intersection_lss([dfa])


def intersection_lss(components: Sequence[Dfa]) -> LssResult | None:
    """Shortest word accepted by every component, or None if none exists.

    Equals shortest_accepted(product(components).dfa), but stops the product
    walk at the first all-accepting tuple instead of building the product.
    """
    width = len(shared_alphabet(components))
    if not all(d.accepting for d in components):
        return None
    found = walk(components, stop=True)
    if not found.accepting:
        return None
    # The links are keyed by code; the start's is -1.
    parents, symbols = found.parents, []
    link = parents[found.accepting[0]]
    while link >= 0:
        symbols.append(link % width)
        link = parents[link // width]
    symbols.reverse()
    return LssResult(len(symbols), tuple(symbols))
