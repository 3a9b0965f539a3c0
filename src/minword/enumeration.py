"""Exhaustive enumeration of small complete DFAs and tuple tightness search.

The search asks: over all k-tuples of languages recognizable with the given
state counts, how long can the shortest word of the intersection get, and
does it reach the product bound (prod of sizes) - 1?

Searching raw automata would be wasteful: the shortest word of an
intersection depends only on the component languages, and every language
with state complexity <= s is accepted by some complete s-state DFA (pad
with unreachable states).  So the tuple space is the set of canonical
minimal DFAs per size, which is exact and far smaller.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import Iterator, Sequence

from .automaton import Alphabet, BINARY, Dfa, Word
from .interchange import dumps
from .minimize import minimize
from .product import product
from .shortest import _intersection_lss_tables

MAX_PRODUCT_STATES = 64
SEARCH_BUDGET = 100_000_000
MAX_FOLD_PRODUCTS = 1 << 20


class BudgetExceededError(RuntimeError):
    """The search would exceed its guard rails; partial scans are refused."""


def enumerate_dfas(states: int, alphabet: Alphabet = BINARY) -> Iterator[Dfa]:
    """Yield every complete DFA with the given states, initial state 0.

    All states**(states*|alphabet|) transition tables are paired with all
    2**states accepting subsets, in a fixed deterministic order.
    """
    if states < 1:
        raise ValueError(f"state count must be positive, got {states}")
    width = len(alphabet)
    subsets = [
        frozenset(q for q in range(states) if mask >> q & 1)
        for mask in range(1 << states)
    ]
    for flat in itertools.product(range(states), repeat=states * width):
        delta = tuple(flat[q * width : (q + 1) * width] for q in range(states))
        for accepting in subsets:
            yield Dfa(states, alphabet, 0, accepting, delta)


@lru_cache(maxsize=None)
def canonical_languages(states: int, alphabet: Alphabet = BINARY) -> tuple[Dfa, ...]:
    """All languages with state complexity <= states, as canonical minimal DFAs.

    Sorted by serialized canonical form so downstream iteration order is
    reproducible.
    """
    unique = {minimize(d) for d in enumerate_dfas(states, alphabet)}
    return tuple(sorted(unique, key=dumps))


@dataclass(frozen=True)
class SearchReport:
    """Outcome of an exhaustive tuple search over canonical languages."""

    sizes: tuple[int, ...]
    target: int
    max_lss: int
    witness_dfas: tuple[Dfa, ...]
    witness_word: Word
    attained: bool
    tuples_examined: int
    tuples_skipped: int
    languages_per_size: tuple[int, ...]


def tightness_search(sizes: Sequence[int], alphabet: Alphabet = BINARY) -> SearchReport:
    """Exhaustively search size-bounded language tuples for the maximum lss.

    The tuples take one language from canonical_languages(s) per size s.
    Tuples containing the empty language are skipped (their intersection is
    empty by construction).  tuples_examined counts the nonempty tuples,
    the space searched, not the product walks made; tuples_skipped counts
    the rest.  The report gives the maximum shortest-word length over
    nonempty intersections and the least index tuple attaining it; the
    lists are sorted by serialization, so that is the least serialized
    tuple.

    A tuple's lss depends only on its intersection language, so leading
    sizes are folded into intersection classes, starting from the full
    language, and each class keeps the least index tuple reaching it.
    Classes are visited in key order, so the first key stored for a class
    is its least: a prefix reaching it extends some key k of a class C, C's
    least key is no larger than k, and the same extension of it reaches the
    same intersection.  Folding stops before the last size, or before a
    step that would meet over MAX_FOLD_PRODUCTS class-language pairs, so
    the classes held stay within that bound.  The sizes left are walked as
    tuples against every class in the same order, keeping the first
    strictly larger lss, and the walk stops at the target prod(sizes) - 1,
    which no lss exceeds.  The shortlex-least witness word depends only on
    the intersection, so it is unchanged.

    Products over MAX_PRODUCT_STATES states are refused.  SEARCH_BUDGET
    bounds both the raw DFAs enumerated to build the language lists (checked
    before any enumeration) and the walks left after the fold, one per class
    and tuple of the sizes left (checked before the first walk).  Each class
    keeps a distinct least key, so there are never more walks than tuples.
    """
    sizes = tuple(sizes)
    if not sizes:
        raise ValueError("sizes must be nonempty")
    if any(s < 1 for s in sizes):
        raise ValueError(f"sizes must be positive, got {sizes}")
    if prod(sizes) > MAX_PRODUCT_STATES:
        raise BudgetExceededError(
            f"product automaton may need {prod(sizes)} states, over the limit of {MAX_PRODUCT_STATES}"
        )
    raw = sum(s ** (s * len(alphabet)) * 2**s for s in set(sizes))
    if raw > SEARCH_BUDGET:
        raise BudgetExceededError(
            f"search needs {raw} raw DFAs enumerated, over the budget of {SEARCH_BUDGET}"
        )

    all_lists = [canonical_languages(s, alphabet) for s in sizes]
    languages_per_size = tuple(len(lst) for lst in all_lists)
    # Minimized DFAs have only reachable states, so a language is nonempty
    # exactly when its DFA has an accepting state.
    nonempty_lists = tuple(tuple(d for d in lst if d.accepting) for lst in all_lists)
    total = prod(languages_per_size)
    examined = prod(len(lst) for lst in nonempty_lists)

    rest = list(nonempty_lists)
    # A size-1 list holds this very DFA, the only nonempty 1-state language,
    # and meeting it leaves the other canonical language as it is.
    full = next(d for d in canonical_languages(1, alphabet) if d.accepting)
    classes = {full: ()}
    while len(rest) > 1 and len(classes) * len(rest[0]) <= MAX_FOLD_PRODUCTS:
        folded: dict[Dfa, tuple[int, ...]] = {}
        for (cls, key), (i, d) in itertools.product(classes.items(), enumerate(rest.pop(0))):
            meet = d if cls is full else cls if d is full else minimize(product([cls, d]).dfa)
            if meet.accepting:
                folded.setdefault(meet, key + (i,))
        classes = folded
    walks_needed = len(classes) * prod(len(lst) for lst in rest)
    if walks_needed > SEARCH_BUDGET:
        raise BudgetExceededError(
            f"search needs {walks_needed} tuples walked, over the budget of {SEARCH_BUDGET}"
        )

    target = prod(sizes) - 1
    best_lss, best_key, best_word = -1, (), ()
    prepared = [[(i, d.delta, d.accepting, d.initial) for i, d in enumerate(lst)] for lst in rest]
    walks = ((cls, key, tail) for cls, key in classes.items() for tail in itertools.product(*prepared))
    for cls, key, tail in walks:
        indices, deltas, acceptings, initials = zip(*tail)
        result = _intersection_lss_tables(
            (cls.delta, *deltas), (cls.accepting, *acceptings), (cls.initial, *initials)
        )
        if result is not None and result.length > best_lss:
            best_lss, best_key, best_word = result.length, key + indices, result.witness
            if best_lss == target:
                break

    return SearchReport(
        sizes=sizes,
        target=target,
        max_lss=best_lss,
        witness_dfas=tuple(lst[i] for lst, i in zip(nonempty_lists, best_key)),
        witness_word=best_word,
        attained=best_lss == target,
        tuples_examined=examined,
        tuples_skipped=total - examined,
        languages_per_size=languages_per_size,
    )
