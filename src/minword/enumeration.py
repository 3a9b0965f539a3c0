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

    The search is one list of columns, one per size above 1, each holding
    (key, delta, accepting, initial, dfa) entries in key order.  A size-1
    component has no column and index 0 in the witness key: its only
    nonempty language is the full one, which leaves every intersection as
    it is.  For the same reason a pair meeting a 1-state language, which in
    a column can only be the full one, meets as its other side and makes
    no product.

    A tuple's lss depends only on its intersection language, so while more
    than two columns remain and the first two meet at most
    MAX_FOLD_PRODUCTS pairs, they are folded into one column of
    intersection classes; the cap bounds the classes held.  A class's key
    is the concatenated keys of a pair reaching it.  Pairs are visited in
    key order, so the first key stored for a class is its least: a key
    reaching it extends some key k of an entry C of the first column, C's
    least key is no larger than k, and the same extension of it reaches the
    same intersection.  The columns left are walked as tuples in the same
    order, keeping the first strictly larger lss, and the walk stops at the
    target prod(sizes) - 1, which no lss exceeds.  The shortlex-least
    witness word depends only on the intersection, so it is unchanged.

    Products over MAX_PRODUCT_STATES states are refused, and so are more
    than MAX_PRODUCT_STATES components: a product within the limit has at
    most 6 components above size 1, so the rest is size-1 padding.
    SEARCH_BUDGET bounds both the raw DFAs enumerated to build the language
    lists (checked, like the limits above, before any enumeration) and the
    walks left after the fold, one per tuple of the columns (checked before
    the first walk).  Each class keeps a distinct least key, so there are
    never more walks than tuples.
    """
    sizes = tuple(sizes)
    if not sizes:
        raise ValueError("sizes must be nonempty")
    if any(s < 1 for s in sizes):
        raise ValueError(f"sizes must be positive, got {sizes}")
    if len(sizes) > MAX_PRODUCT_STATES:
        raise BudgetExceededError(
            f"search has {len(sizes)} components, over the limit of {MAX_PRODUCT_STATES}"
        )
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

    columns = [
        [((i,), d.delta, d.accepting, d.initial, d) for i, d in enumerate(lst)]
        for s, lst in zip(sizes, nonempty_lists)
        if s > 1
    ]
    while len(columns) > 2 and len(columns[0]) * len(columns[1]) <= MAX_FOLD_PRODUCTS:
        folded: dict[Dfa, tuple[int, ...]] = {}
        for (key, *_, a), (tail, *_, b) in itertools.product(columns[0], columns[1]):
            meet = b if a.state_count == 1 else a if b.state_count == 1 else minimize(product([a, b]).dfa)
            if meet.accepting:
                folded.setdefault(meet, key + tail)
        columns[:2] = [[(key, d.delta, d.accepting, d.initial, d) for d, key in folded.items()]]
    walks_needed = prod(len(column) for column in columns)
    if walks_needed > SEARCH_BUDGET:
        raise BudgetExceededError(
            f"search needs {walks_needed} tuples walked, over the budget of {SEARCH_BUDGET}"
        )

    target = prod(sizes) - 1
    best_lss, best_entries, best_word = -1, (), ()
    for entries in itertools.product(*columns):
        # With no column (every size is 1) the one walk has no component.
        _, deltas, acceptings, initials, _ = zip(*entries) if entries else ((),) * 5
        result = _intersection_lss_tables(deltas, acceptings, initials)
        if result is not None and result.length > best_lss:
            best_lss, best_entries, best_word = result.length, entries, result.witness
            if best_lss == target:
                break

    keys = itertools.chain.from_iterable(key for key, *_ in best_entries)
    return SearchReport(
        sizes=sizes,
        target=target,
        max_lss=best_lss,
        witness_dfas=tuple(lst[next(keys) if s > 1 else 0] for s, lst in zip(sizes, nonempty_lists)),
        witness_word=best_word,
        attained=best_lss == target,
        tuples_examined=examined,
        tuples_skipped=total - examined,
        languages_per_size=languages_per_size,
    )
