"""Exhaustive enumeration of small complete DFAs and tuple tightness search.

The search asks: over all k-tuples of languages recognizable with the given
state counts, how long can the shortest word of the intersection get, and
does it reach the product bound (prod of sizes) - 1?

Searching raw automata would be wasteful: the shortest word of an
intersection depends only on the component languages.  So the tuple space
is the set of canonical minimal DFAs per size, which is exact and far
smaller.  They are generated, not minimized: among the accessible complete
k-state DFAs numbered breadth-first, those whose states are all apart are
exactly the canonical minimal DFAs of the languages of state complexity k.

The longest list is the mask column: its languages are bits of Python ints,
so one breadth-first pass over a row, a tuple of the other lists (folded
into intersection classes where that is cheap), finds the shortest word of
the row's intersection with every language of the column at once.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import prod
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .automaton import Alphabet, BINARY, Dfa, Word
from .minimize import minimize
from .shortest import intersection_lss

MAX_PRODUCT_STATES = 64
SEARCH_BUDGET = 100_000_000
MAX_FOLD_PRODUCTS = 1 << 20


class BudgetExceededError(RuntimeError):
    """The search would exceed its guard rails; partial scans are refused."""


def enumerate_dfas(states: int, alphabet: Iterable[str] = BINARY) -> Iterator[Dfa]:
    """Yield every accessible complete DFA with the given states, one per renaming.

    A table is kept when every state is reachable from the initial state 0
    and the states are numbered in breadth-first first-visit order, symbols
    in alphabet order: the numbering minimize gives, so each accessible DFA
    has exactly one renaming here.  Read in order, such a flat table has
    each row of a state already reached and each target a reached state or
    the next free number; a table read to the end has reached every state.
    The tables are filled depth-first under exactly that rule, trying the
    targets 0..seen in ascending order at each position (the ICDFA
    canonical strings of Almeida, Moreira and Reis, 2007), so they come out
    in lexicographic flat-table order and no other table is looked at.
    Each table is paired with all 2**states accepting sets, consecutively,
    the i-th holding exactly the states q with bit q of i set.  Any
    iterable of labels is checked and made an Alphabet, as the DFAs carry.
    """
    if states < 1:
        raise ValueError(f"state count must be positive, got {states}")
    alphabet = Alphabet(alphabet)
    width = len(alphabet)
    cells = states * width
    subsets = [
        frozenset(q for q in range(states) if mask >> q & 1)
        for mask in range(1 << states)
    ]

    # A position pointer over the flat table, not recursion, so that the
    # depth does not grow with the alphabet.  reached[i] counts the states
    # reached by the cells before i; flat[i] is -1 before its first target.
    reached = [1] * (cells + 1)
    flat = [-1] * cells
    # tuple.__new__(Dfa, fields) makes the record Dfa(*fields) makes, without
    # a call of the named tuple's own Python-level __new__.
    new = tuple.__new__
    i = 0
    while i >= 0:
        if i == cells:
            delta = tuple([tuple(flat[q * width : (q + 1) * width]) for q in range(states)])
            yield from [new(Dfa, (states, alphabet, 0, accepting, delta)) for accepting in subsets]
            i -= 1
        # The row of a reached state takes the next target up to the next free
        # number; any other row is a dead end.
        elif i // width < reached[i] and flat[i] < min(reached[i], states - 1):
            flat[i] += 1
            reached[i + 1] = reached[i] + (flat[i] == reached[i])
            i += 1
        else:
            flat[i] = -1
            i -= 1


def canonical_languages(states: int, alphabet: Iterable[str] = BINARY) -> tuple[Dfa, ...]:
    """All languages with state complexity <= states, as canonical minimal DFAs.

    For k = 1..states, keeps each candidate of enumerate_dfas(k) whose
    states are all apart: no two accept the same words.  This loses no
    language and yields each one once.  A language of state complexity k
    has a minimal DFA with k states, unique up to renaming; numbered
    breadth-first from its initial state it is one candidate of
    enumerate_dfas(k), the only one of its renamings there, and its states
    are all apart.  Conversely a kept candidate has every state reachable
    and no two states equivalent, so it is the minimal DFA of its language,
    numbered as minimize numbers it (minimize returns it unchanged), and k
    is that language's state complexity: no other k and no other candidate
    gives the same language.

    Apartness is decided for all 2**k accepting sets of a table at once
    (_apart_sets), with no refinement per candidate.  Two states p and q
    are apart under accepting set F exactly when some word leads them to
    one state in F and one outside it: the empty word when F holds exactly
    one of them, else a first symbol a followed by a word that sets the
    successors delta(p, a) and delta(q, a) apart.  So the sets under which
    each pair is apart solve apart(p, q) = SEP(p, q) | OR_a apart(delta(p,
    a), delta(q, a)), and they are its least solution: any solution holds
    SEP, and by induction on the length of a shortest separating word it
    holds every F under which p and q are apart.  Updating pairs by the
    equation, from SEP and in any order, only adds bits the least solution
    holds and stops at a solution, so it stops at exactly the apart sets.
    That is Moore refinement run on every accepting set at once, one bit
    each.  A table's kept sets are those under which every pair is apart.

    Ordered by serialized canonical form (interchange.dumps), so downstream
    iteration order is reproducible: by state count, then the JSON text of
    the accepting list, then the flat transition table.  Up to 9 states
    every number in that text is one digit, so the state count sorts
    numerically, and the accepting list [q1, ..., qj] in ascending order
    sorts like the tuple (q1, ..., qj, k): "," sorts before "]", so a list
    comes after its extensions, and "[]" comes last.  The build emits the
    candidates kept for each k grouped by accepting set in that order; each
    group keeps the flat-table order enumerate_dfas yields.  Beyond 9 states
    the order would differ, but the enumeration cannot finish there anyway.
    A state count below 1 raises ValueError, and so does an alphabet that
    Alphabet rejects.  Cached per (states, alphabet), however the labels are
    passed, and the DFAs carry an Alphabet; cache_clear empties the cache.
    """
    if states < 1:
        raise ValueError(f"state count must be positive, got {states}")
    return _canonical_languages(states, Alphabet(alphabet))


def _apart_sets(delta: Sequence[Sequence[int]], inside: Sequence[int]) -> int:
    """The accepting sets under which all states of delta are apart, as bits.

    Bit F of an int stands for the accepting set {q : bit q of F is set},
    and inside[q] holds the bits F of the sets containing q.  Iterates
    apart(p, q) = SEP(p, q) | OR_a apart(delta(p, a), delta(q, a)) from
    SEP(p, q) = inside[p] ^ inside[q] up to its least fixed point, the sets
    under which p and q accept different words (see canonical_languages),
    and returns the AND of it over all pairs p < q.
    """
    k = len(delta)
    apart = [0] * (k * k)  # apart[p * k + q], symmetric; zero on the diagonal
    pairs = []
    for p in range(k):
        for q in range(p + 1, k):
            apart[p * k + q] = apart[q * k + p] = inside[p] ^ inside[q]
            pairs.append((p * k + q, q * k + p, [s * k + t for s, t in zip(delta[p], delta[q])]))
    changed = True
    while changed:
        changed = False
        for pq, qp, successors in pairs:
            old = new = apart[pq]
            for st in successors:
                new |= apart[st]
            if new != old:
                apart[pq] = apart[qp] = new
                changed = True
    kept = (1 << (1 << k)) - 1
    for pq, _, _ in pairs:
        kept &= apart[pq]
    return kept


@lru_cache(maxsize=None)
def _canonical_languages(states: int, alphabet: Alphabet) -> tuple[Dfa, ...]:
    languages: list[Dfa] = []
    for k in range(1, states + 1):
        sets = range(1 << k)
        inside = [sum(1 << f for f in sets if f >> q & 1) for q in range(k)]
        groups: list[list[Dfa]] = [[] for _ in sets]
        # enumerate_dfas yields each table's candidates consecutively, the
        # f-th with accepting set f.
        for delta, candidates in itertools.groupby(enumerate_dfas(k, alphabet), key=attrgetter("delta")):
            kept = _apart_sets(delta, inside)
            for f, d in enumerate(candidates):
                if kept >> f & 1:
                    groups[f].append(d)
        for f in sorted(sets, key=lambda f: (*[q for q in range(k) if f >> q & 1], k)):
            languages += groups[f]
    return tuple(languages)


canonical_languages.cache_clear = _canonical_languages.cache_clear  # type: ignore[attr-defined]


class SearchReport(NamedTuple):
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


def _column_masks(languages: Sequence[Dfa]) -> tuple[list, list[int]]:
    """The languages of a list as bits of ints: bit i stands for language i.

    Returns (moves, accepts): moves[l][a] lists the (l2, mask) pairs whose
    mask holds the languages with delta(l, a) = l2, and accepts[l] the
    languages accepting l.  Every language is a minimized DFA (a canonical
    language or the full one), and minimize numbers states from the initial
    one, so every language starts at state 0.

    The column is one flat byte table of one record per language, last
    language first: its targets, delta(l, a) at l * width + a, padded with
    255 where the language has no state l, then one byte per state l, "1"
    if it accepts l and "0" if not.  Each target half is built once per
    distinct table and each flag half once per accepting set (the 57,067
    nonempty languages of size <= 4 have 5,443 tables).  The step slice of
    the table at the offset of one (l, a) is the targets of every
    language, and it reads as a base-2 numeral once each byte is turned
    into a digit; the slice at the offset of one l's flag is accepts[l]'s
    numeral as it stands.  The padding needs every language to have fewer
    than 255 states, which SEARCH_BUDGET keeps to 6 or fewer (unary 7
    states alone is 7**7 * 2**7 > 10**8 raw DFAs).
    """
    states = max(d.state_count for d in languages)
    width = len(languages[0].alphabet)
    cells = states * width
    stride = cells + states
    targets: dict[tuple[tuple[int, ...], ...], bytes] = {}
    flags: dict[frozenset[int], bytes] = {}
    # Appended in place: bytes.join would hold a buffer view of every record
    # at once, a tracemalloc peak of over 6 MB, not 1.4 MB, at size 4.
    table = bytearray()
    for d in reversed(languages):
        if (row := targets.get(d.delta)) is None:
            row = targets[d.delta] = bytes(itertools.chain.from_iterable(d.delta)).ljust(cells, b"\xff")
        if (bits := flags.get(d.accepting)) is None:
            bits = flags[d.accepting] = bytes(49 if l in d.accepting else 48 for l in range(states))
        table += row
        table += bits
    digits = [bytes(49 if b == l2 else 48 for b in range(256)) for l2 in range(states)]
    moves = []
    for l in range(states):
        by_symbol = []
        for a in range(width):
            column = table[l * width + a :: stride]
            masks = [int(column.translate(digits[l2]), 2) for l2 in range(states)]
            by_symbol.append([(l2, mask) for l2, mask in enumerate(masks) if mask])
        moves.append(by_symbol)
    accepts = [int(table[cells + l :: stride], 2) for l in range(states)]
    return moves, accepts


def _row_pass(row: Dfa, moves: list, accepts: list[int], everything: int) -> tuple[int, int]:
    """(level, mask): the last level at which languages of the column meet the row.

    A level-synchronous breadth-first walk over pairs (row state q, column
    state l), numbered q * states + l, from (0, 0); the row is minimized.
    Each pair of a level carries the languages that reach it first at that
    level, and a language resolves at the first level where it stands on a
    pair accepted by both sides: that level is the length of the shortest
    word of its intersection with the row.  Returns (-1, 0) when no language
    meets the row.
    """
    states = len(moves)
    accepting = row.accepting
    unseen = [everything] * (row.state_count * states)
    unseen[0], frontier = 0, {0: everything}
    unresolved, level, last = everything, 0, (-1, 0)
    while frontier:
        done = 0
        for pair, mask in frontier.items():
            q, l = divmod(pair, states)
            if q in accepting:
                done |= mask & accepts[l]
        if done:
            last, unresolved = (level, done), unresolved ^ done
            if not unresolved:
                break
        following: dict[int, int] = {}
        for pair, mask in frontier.items():
            mask &= unresolved
            if not mask:
                continue
            q, l = divmod(pair, states)
            for q2, targets in zip(row.delta[q], moves[l]):
                base = q2 * states
                for l2, move in targets:
                    new = mask & move & unseen[base + l2]
                    if new:
                        unseen[base + l2] ^= new
                        following[base + l2] = following.get(base + l2, 0) | new
        frontier, level = following, level + 1
    return last


def tightness_search(sizes: Sequence[int], alphabet: Iterable[str] = BINARY) -> SearchReport:
    """Exhaustively search size-bounded language tuples for the maximum lss.

    The tuples take one language from canonical_languages(s) per size s,
    over the alphabet's labels checked as an Alphabet.  Tuples containing
    the empty language are skipped (their intersection is empty by
    construction).  tuples_examined counts the nonempty tuples,
    the space searched, not the work done; tuples_skipped counts the rest.
    The report gives the maximum shortest-word length over nonempty
    intersections and the least index tuple attaining it; the lists are
    sorted by serialization, so that is the least serialized tuple.

    The search works on the nonempty language lists of the sizes above 1.
    A size-1 component has no list and index 0 in the witness key: its only
    nonempty language is the full one, which leaves every intersection as
    it is.  The mask column is the longest list, the last such one on a
    tie, used as is: bit i of a mask stands for its language i.  With no
    size above 1 it is the full language alone.  Every other list becomes a
    column of (key, dfa) entries in key order, language i under key (i,).
    Every meet, of a fold pair or of a row of several columns, is one
    minimize call on its languages; a row of one column is its one entry.

    A tuple's lss depends only on its intersection language, so while more
    than one other column remains and the first two meet at most
    MAX_FOLD_PRODUCTS pairs, they are folded into one column of intersection
    classes; the cap bounds the classes held.  A class's key is the
    concatenated keys of a pair reaching it.  Pairs are visited in key
    order, so the first key stored for a class is its least: a key reaching
    it extends some key k of an entry C of the first column, C's least key
    is no larger than k, and the same extension of it reaches the same
    intersection.  A row is one tuple of the other columns, in key order
    (with none left, the one row is the full language).  One _row_pass on
    the meet of a row gives its maximum over the whole mask column and the
    least mask language attaining it, whose index goes in at the mask
    column's place.  A least key attaining the maximum is a class's least
    key with the same mask language, so the search keeps the first strictly
    larger maximum and, on a tie, the least full key.  Only when the mask
    column is last is that the first row, so only then does the search stop
    at the target prod(sizes) - 1, which no lss exceeds.  The shortlex-least
    witness word depends only on the intersection; one stopping walk of the
    witness tuple spells it.

    Products over MAX_PRODUCT_STATES states are refused, and so are more
    than MAX_PRODUCT_STATES components: a product within the limit has at
    most 6 components above size 1, so the rest is size-1 padding.
    SEARCH_BUDGET bounds both the raw DFAs behind the language lists,
    s**(s*|alphabet|) tables times 2**s accepting sets per size s (checked,
    like the limits above, before any enumeration), and the work left after
    the fold: rows times the 64-bit words of a mask (checked before the
    first row).  The raw count overstates the build for size s: for each
    k <= s it fills only the accessible k-state tables, depth-first, and
    decides all 2**k accepting sets of a table in one pass.
    """
    sizes, alphabet = tuple(sizes), Alphabet(alphabet)
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

    # The full language stands in for a missing list: as the mask list when
    # no size exceeds 1 (its spliced key (0,) is then never read, because
    # every component takes index 0), and as the one row when no other
    # column is left (its empty key adds nothing).
    full = Dfa(1, alphabet, 0, frozenset((0,)), ((0,) * len(alphabet),))
    lists = [lst for s, lst in zip(sizes, nonempty_lists) if s > 1] or [(full,)]
    place = max(range(len(lists)), key=lambda c: (len(lists[c]), c))
    masked = lists.pop(place)
    masked_last = place == len(lists)
    columns = [[((i,), d) for i, d in enumerate(lst)] for lst in lists]
    while len(columns) > 1 and len(columns[0]) * len(columns[1]) <= MAX_FOLD_PRODUCTS:
        folded: dict[Dfa, tuple[int, ...]] = {}
        for (key, a), (tail, b) in itertools.product(columns[0], columns[1]):
            meet = minimize(a, b)
            if meet.accepting:
                folded.setdefault(meet, key + tail)
        columns[:2] = [[(key, d) for d, key in folded.items()]]
    columns = columns or [[((), full)]]
    rows, words = prod(len(column) for column in columns), -(-len(masked) // 64)
    if rows * words > SEARCH_BUDGET:
        raise BudgetExceededError(
            f"search needs {rows * words} row words ({rows} rows of a {words}-word mask), "
            f"over the budget of {SEARCH_BUDGET}"
        )

    target = prod(sizes) - 1
    moves, accepts = _column_masks(masked)
    everything = (1 << len(masked)) - 1
    best_lss, best_key = -1, ()
    for row in itertools.product(*columns):
        keys, dfas = zip(*row)
        # A row of one column is minimal already: a canonical language, a
        # fold class or the full language.
        meet = minimize(*dfas) if len(dfas) > 1 else dfas[0]
        lss, resolved = _row_pass(meet, moves, accepts, everything)
        if lss < best_lss or not resolved:
            continue
        row_key = tuple(itertools.chain.from_iterable(keys))
        key = (*row_key[:place], (resolved & -resolved).bit_length() - 1, *row_key[place:])
        if lss > best_lss or key < best_key:
            best_lss, best_key = lss, key
            if best_lss == target and masked_last:
                break

    keys = iter(best_key)
    witness_dfas = tuple(lst[next(keys) if s > 1 else 0] for s, lst in zip(sizes, nonempty_lists))
    return SearchReport(
        sizes=sizes,
        target=target,
        max_lss=best_lss,
        witness_dfas=witness_dfas,
        witness_word=intersection_lss(witness_dfas).witness,
        attained=best_lss == target,
        tuples_examined=examined,
        tuples_skipped=total - examined,
        languages_per_size=languages_per_size,
    )
