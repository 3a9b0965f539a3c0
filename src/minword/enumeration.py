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
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import Iterator, Sequence

from .automaton import Alphabet, BINARY, Dfa, Word
from .interchange import dumps
from .minimize import minimize
from .shortest import _intersection_lss_tables

MAX_PRODUCT_STATES = 64
DEFAULT_MAX_TUPLES = 100_000_000


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


@dataclass(frozen=True)
class _Candidate:
    lss: int
    dfas: tuple[Dfa, ...]
    word: Word


def _scan_slice(
    lists: tuple[tuple[Dfa, ...], ...], start: int, stop: int
) -> _Candidate | None:
    """Best tuple over outer indices [start, stop); ties keep the earliest.

    Lists are sorted by serialization, so iteration order is lexicographic on
    the serialized tuple and "earliest" equals "lexicographically least".
    """
    sliced = (lists[0][start:stop],) + lists[1:]
    prepared = [[(d.delta, d.accepting, d.initial, d) for d in lst] for lst in sliced]
    best: _Candidate | None = None
    for combo in itertools.product(*prepared):
        deltas, acceptings, initials, dfas = zip(*combo)
        result = _intersection_lss_tables(deltas, acceptings, initials)
        if result is not None and (best is None or result.length > best.lss):
            best = _Candidate(result.length, dfas, result.witness)
    return best


def _merge(candidates: Sequence[_Candidate | None]) -> _Candidate | None:
    """Best of consecutive slices' candidates; ties keep the earliest slice."""
    return max(filter(None, candidates), key=lambda c: c.lss, default=None)


def tightness_search(
    sizes: Sequence[int],
    alphabet: Alphabet = BINARY,
    workers: int = 1,
    max_tuples: int = DEFAULT_MAX_TUPLES,
) -> SearchReport:
    """Exhaustively search size-bounded language tuples for the maximum lss.

    Iterates the Cartesian product of canonical_languages(s) for each size s,
    skipping tuples that contain the empty language (their intersection is
    empty by construction; they are counted as skipped, not examined), and
    reports the maximum shortest-word length over nonempty intersections
    together with a reproducible witness tuple.

    The result does not depend on the worker partitioning: slices cover
    consecutive outer indices and are merged by max lss, ties keeping the
    earliest slice, which holds the lexicographically least serialized
    tuple.  Products over MAX_PRODUCT_STATES states are refused.  Workers are
    capped at the CPU count.  max_tuples bounds both the raw DFAs enumerated
    to build the language lists (checked before any enumeration) and the
    language tuples examined (checked before the scan).
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
    if raw > max_tuples:
        raise BudgetExceededError(
            f"search needs {raw} raw DFAs enumerated, over the budget of {max_tuples}"
        )

    all_lists = [canonical_languages(s, alphabet) for s in sizes]
    languages_per_size = tuple(len(lst) for lst in all_lists)
    # Minimized DFAs have only reachable states, so a language is nonempty
    # exactly when its DFA has an accepting state.
    nonempty_lists = tuple(tuple(d for d in lst if d.accepting) for lst in all_lists)
    total = prod(languages_per_size)
    examined = prod(len(lst) for lst in nonempty_lists)
    if examined > max_tuples:
        raise BudgetExceededError(
            f"search needs {examined} tuples, over the budget of {max_tuples}"
        )

    outer = len(nonempty_lists[0])
    workers = min(workers, outer, os.cpu_count() or 1)
    if workers <= 1:
        best = _scan_slice(nonempty_lists, 0, outer)
    else:
        bounds = [outer * w // workers for w in range(workers + 1)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_scan_slice, nonempty_lists, bounds[w], bounds[w + 1])
                for w in range(workers)
            ]
            best = _merge([f.result() for f in futures])

    # Every list contains the full language (state complexity 1), so some
    # tuple always has a nonempty intersection.
    assert best is not None
    target = prod(sizes) - 1
    return SearchReport(
        sizes=sizes,
        target=target,
        max_lss=best.lss,
        witness_dfas=best.dfas,
        witness_word=best.word,
        attained=best.lss == target,
        tuples_examined=examined,
        tuples_skipped=total - examined,
        languages_per_size=languages_per_size,
    )
