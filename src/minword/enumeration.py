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
read off the tables of the build with no DFA object made per language, so
one breadth-first pass over a row, a tuple of the other lists (folded into
intersection classes where that is cheap), finds the shortest word of the
row's intersection with every language of the column at once.  Fold steps
and rows come from one key-ordered stream that meets a repeated list once
per sorted tuple and skips a row a swap of two letters lowers.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import prod
from operator import getitem, itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .automaton import Alphabet, BINARY, Dfa, Word
from .minimize import minimize
from .product import walk
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

    Apartness is decided for all k-state tables and all 2**k accepting sets
    of each at once (_apart_columns), with no refinement per candidate.
    Two states p and q are apart under accepting set F exactly when some
    word leads them to one state in F and one outside it: the empty word
    when F holds exactly one of them, else a first symbol a followed by a
    word that sets the successors delta(p, a) and delta(q, a) apart.  So
    the sets under which each pair is apart solve apart(p, q) = SEP(p, q)
    | OR_a apart(delta(p, a), delta(q, a)), and they are its least
    solution: any solution holds SEP, and by induction on the length of a
    shortest separating word it holds every F under which p and q are
    apart.  Updating pairs by the equation, from SEP and in any order, only
    adds bits the least solution holds and stops at a solution, so it stops
    at exactly the apart sets.  That is Moore refinement run on every table
    and accepting set at once, one bit each.  A table's kept sets are those
    under which every pair is apart.

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
    passed; the DFAs carry an Alphabet.  The build beneath is cached per k,
    so the sizes of one search draw each k once.  cache_clear empties every
    cache.
    """
    if states < 1:
        raise ValueError(f"state count must be positive, got {states}")
    return _canonical_languages(states, Alphabet(alphabet))


def _apart_columns(flat: bytes, k: int, width: int) -> list[bytes]:
    """For each accepting set F, one byte per table: nonzero when F keeps all states apart.

    flat joins a nonempty list of k-state tables over width symbols, each
    flat: the targets of state 0, then of state 1, and so on.  Entry F of
    the result has byte t nonzero exactly when every two states of table t
    are apart under the accepting set {q : bit q of F is set}.
    One bit-sliced pass over the whole list runs the refinement of
    canonical_languages on every table and every set at once.  Each state
    pair p < q holds one int with a field of 2**k bits per table, padded to
    at least one byte: bit F of table t's field is set when p and q are
    apart under F.  It starts at SEP(p, q), (inside[p] ^ inside[q]) times
    the int with bit 0 of every field set, where inside[q] holds the bits F
    of the sets containing q.  A sweep ORs into each pair, for each symbol
    a and each pair j, apart[j] masked to the fields of the tables whose
    successor pair (delta(p, a), delta(q, a)) is j; sweeps run until one
    changes nothing.  A table's kept sets are the AND over its pairs.

    The successor pairs of every table are read off flat, one byte column
    per (pair, symbol): the code s * k + t of its successor pair, the
    smaller state first, and 0 for s = t, whose apart int stays zero.  The
    columns are kept, each byte repeated to its field's width; the masks
    are rebuilt from them on every sweep, one translate each, since keeping
    them would take k * k times the memory.
    A code must fit in one byte, so k <= 16 (and each field is 2**k bits);
    the enumeration cannot finish past 9 states anyway.
    """
    cells, sets = k * width, 1 << k
    count, size = len(flat) // cells, max(sets // 8, 1)
    ones = int.from_bytes(b"\x01".ljust(size, b"\x00") * count, "little")
    inside = [sum(1 << f for f in range(sets) if f >> q & 1) for q in range(k)]
    scaled = bytes(b * k & 255 for b in range(256))
    # The code of successor pair (s, t), smaller state first; 0 for s = t.
    ordered = bytearray(256)
    for s in range(k):
        for t in range(s + 1, k):
            ordered[s * k + t] = ordered[t * k + s] = s * k + t
    apart = [0] * (k * k)  # apart[p * k + q] for p < q; the rest stays zero
    pairs = []
    for p in range(k):
        for q in range(p + 1, k):
            apart[p * k + q] = (inside[p] ^ inside[q]) * ones
            columns = []
            for a in range(width):
                # s * k + t fits a byte, so the two columns add as ints with
                # no carry from one table's byte into the next.
                codes = int.from_bytes(flat[p * width + a :: cells].translate(scaled), "little")
                codes += int.from_bytes(flat[q * width + a :: cells], "little")
                successors = codes.to_bytes(count, "little").translate(ordered)
                column = bytearray(count * size)
                for r in range(size):
                    column[r::size] = successors
                columns.append(column)
            pairs.append((p * k + q, columns))
    # translate(pick) turns a column into the mask of the fields holding j.
    picks = [(j, bytes(255 if b == j else 0 for b in range(256))) for j, _ in pairs]
    changed = True
    while changed:
        changed = False
        for pq, columns in pairs:
            old = new = apart[pq]
            for column in columns:
                for j, pick in picks:
                    new |= apart[j] & int.from_bytes(column.translate(pick), "little")
            if new != old:
                apart[pq] = new
                changed = True
    kept = ((1 << sets) - 1) * ones
    for pq, _ in pairs:
        kept &= apart[pq]
    held = kept.to_bytes(count * size, "little")
    bits = [bytes(b >> r & 1 for b in range(256)) for r in range(8)]
    return [held[f // 8 :: size].translate(bits[f % 8]) for f in range(sets)]


def _build(states: int, alphabet: Alphabet) -> tuple[tuple[int, int, bytes], ...]:
    """The groups of canonical_languages(states, alphabet), in its order: _groups(k) for k = 1..states."""
    return tuple(itertools.chain.from_iterable(_groups(k, alphabet) for k in range(1, states + 1)))


@lru_cache(maxsize=None)
def _groups(k: int, alphabet: Alphabet) -> tuple[tuple[int, int, bytes], ...]:
    """The groups of the k-state languages, cached per k, so every size above draws them once.

    One (k, f, kept) per accepting set f: kept joins the tables that f
    keeps (_apart_columns) in the order enumerate_dfas yields them, each
    flat, k * |alphabet| bytes.  enumerate_dfas yields each table's 2**k
    candidates in a row: all are drawn, so its yields count them, and the
    first of each gives the table.
    """
    deltas = (d.delta for d in itertools.islice(enumerate_dfas(k, alphabet), 0, None, 1 << k))
    flat = bytes(itertools.chain.from_iterable(itertools.chain.from_iterable(deltas)))
    columns, cells = _apart_columns(flat, k, len(alphabet)), k * len(alphabet)
    tables = [flat[t : t + cells] for t in range(0, len(flat), cells)]
    order = sorted(range(1 << k), key=lambda f: (*[q for q in range(k) if f >> q & 1], k))
    return tuple((k, f, b"".join(itertools.compress(tables, columns[f]))) for f in order)


def _dfas(k: int, f: int, kept: bytes, alphabet: Alphabet, shared: dict) -> list[Dfa]:
    """The Dfas of the flat tables joined in kept, all with accepting set f; shared keeps one delta per table."""
    accepting = frozenset(q for q in range(k) if f >> q & 1)
    deltas = zip(*[zip(*[iter(kept)] * len(alphabet))] * k)
    return [tuple.__new__(Dfa, (k, alphabet, 0, accepting, shared.setdefault(d, d))) for d in deltas]


@lru_cache(maxsize=None)
def _canonical_languages(states: int, alphabet: Alphabet) -> tuple[Dfa, ...]:
    shared: dict = {}
    return tuple(itertools.chain.from_iterable(_dfas(*group, alphabet, shared) for group in _build(states, alphabet)))


def _cache_clear() -> None:
    for cached in (_groups, _canonical_languages, _mask_column):
        cached.cache_clear()


canonical_languages.cache_clear = _cache_clear  # type: ignore[attr-defined]


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


def _nonempty_language(states: int, alphabet: Alphabet, index: int) -> Dfa:
    """[d for d in canonical_languages(states, alphabet) if d.accepting][index], from the build.

    The groups are walked, counting their nonempty languages, to the one
    holding the index, and the Dfa is made from its table's slice alone.
    """
    at, width = index, len(alphabet)
    for k, f, kept in _build(states, alphabet):
        count = len(kept) // (k * width) if f else 0
        if 0 <= at < count:
            return _dfas(k, f, kept[at * k * width : (at + 1) * k * width], alphabet, {})[0]
        at -= count
    raise IndexError(f"no nonempty language {index} of size <= {states}")


@lru_cache(maxsize=None)
def _mask_column(states: int, alphabet: Alphabet) -> tuple[list, list[int]]:
    """The nonempty languages of size <= states as bits of ints: bit i stands for language i.

    Language i is [d for d in canonical_languages(states, alphabet) if
    d.accepting][i], read off the build with no object made for it.
    moves[l][a] lists the (l2, mask) pairs whose mask holds the languages
    with delta(l, a) = l2, and accepts[l] the languages accepting l.  The
    nonempty groups are read last group first; the reversed step slice of
    a group's tables at (l, a), or 255s when k <= l, reads as a base-2
    numeral once each byte is made a digit (SEARCH_BUDGET keeps k <= 6).
    """
    width = len(alphabet)
    # (k, f, kept, its table count), last language first
    groups = [(k, f, kept, len(kept) // (k * width)) for k, f, kept in reversed(_build(states, alphabet)) if f and kept]
    digits = [bytes(49 if b == l2 else 48 for b in range(256)) for l2 in range(states)]
    moves = []
    for l in range(states):
        by_symbol = []
        for a in range(width):
            column = b"".join(
                kept[((count - 1) * k + l) * width + a :: -k * width] if l < k else b"\xff" * count
                for k, _, kept, count in groups
            )
            masks = [int(column.translate(digits[l2]), 2) for l2 in range(states)]
            by_symbol.append([(l2, mask) for l2, mask in enumerate(masks) if mask])
        moves.append(by_symbol)
    accepts = [int(b"".join(b"%d" % (f >> l & 1) * count for _, f, _, count in groups), 2) for l in range(states)]
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


def _letter_images(nonempties: dict[int, list[Dfa]], sizes: Sequence[int], width: int) -> list[list[list[int]]]:
    """For each swap of letters a and a + 1, where it sends the languages of each column.

    Entry a holds, for each size s of sizes in turn, the list whose item i
    is the index in nonempties[s] of language i with letters a and a + 1
    swapped in every row.  The swapped table's states are all apart, as the
    language's are, so one walk numbering them breadth-first makes it the
    canonical minimal DFA, and a dict finds that in the list, which holds
    it: a renaming of letters keeps the state complexity and the
    nonemptiness of a language.  Columns of one size share one list, and
    only the sizes given are walked.  With none, no swap is made.
    """
    swaps = []
    for a in range(width - 1 if sizes else 0):
        swap = itemgetter(*range(a), a + 1, a, *range(a + 2, width))
        images = {}
        for s in set(sizes):
            index = {(d.accepting, d.delta): i for i, d in enumerate(nonempties[s])}
            walks = (walk([d._replace(delta=tuple(map(swap, d.delta)))]) for d in nonempties[s])
            images[s] = [index[frozenset(found.accepting), tuple(found.rows)] for found in walks]
        swaps.append([images[s] for s in sizes])
    return swaps


def _rows(columns: Sequence[list], place: int, images: list[list[list[int]]]) -> Iterator[tuple[tuple, tuple, tuple]]:
    """(prefix, rest, languages) for each row of the columns that no symmetry drops, in key order.

    A row is one (key, dfa) entry per column, in product order, which is
    key order (a column's keys rise and have one length); its joined key
    splits at place into prefix and rest.  Where one list fills several
    columns, a row whose key falls from one of them to a later one is never
    built, as each of them starts at the entry the one before took: swapping
    the two entries keeps the meet, so the maximum and the mask index, and
    lowers the full key at the earlier position, wherever the mask column
    sits.  Over [L, L] the pairs i <= j are left.  A row is dropped when a
    swap of two adjacent letters (images) lowers its prefix.  That swap,
    made in every component, keeps every lss and maps the mask column onto
    itself; the swapped tuple lies in a row whose key is at most the
    swapped key, column by column (a class's key is its least), so its
    prefix is lower, its maximum the same and its full key smaller whatever
    the mask index.  So the least full key attaining the maximum, or the
    least key reaching a fold class, is never dropped.
    """
    # The last earlier column with the same list, or -1.
    earlier = [max((b for b in range(c) if columns[b] is columns[c]), default=-1) for c in range(len(columns))]
    last = len(columns) - 1

    def sorted_rows(c: int, taken: tuple[int, ...], row: tuple) -> Iterator[tuple]:
        column, b = columns[c], earlier[c]
        start = taken[b] if b >= 0 else 0
        if c == last:
            for entry in column[start:]:
                yield (*row, entry)
            return
        for i in range(start, len(column)):
            yield from sorted_rows(c + 1, (*taken, i), (*row, column[i]))

    for row in sorted_rows(0, (), ()):
        keys, languages = zip(*row)
        key = tuple(itertools.chain.from_iterable(keys))
        prefix = key[:place]
        if any(tuple(map(getitem, image, prefix)) < prefix for image in images):
            continue
        yield prefix, key[place:], languages


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
    it is.  The mask column is the longest list, the largest size's, the
    last on a tie, and the full language alone with no size above 1.  Its
    masks come from the language build (_mask_column), bit i for language
    i, with no Dfa made for them.  Each other list, from canonical_languages,
    is a column of (key, dfa) entries, language i under key (i,).

    A tuple's lss depends only on its intersection language, so while more
    than one other column remains and the first two make at most
    MAX_FOLD_PRODUCTS pairs, counted before _rows drops any, the pairs it
    gives over the two are folded into one column of intersection classes.
    A class's key is that of the first pair reaching it, its least: a key
    reaching it extends some key k of an entry C of the first column, C's
    least key is no larger than k, and the same extension of it reaches the
    same intersection.  The rows are what _rows gives over the columns left
    (with none, the full language).  One _row_pass on a row's meet gives
    its maximum over the mask column and the least mask language attaining
    it, whose index goes in at the mask column's place: a least key
    attaining the maximum is a class's least key with that mask language,
    so the search keeps the first strictly larger maximum and, on a tie,
    the least full key.  Rows come in key order, so once the best is the
    target prod(sizes) - 1, which no lss exceeds, the search stops at the
    first row whose prefix passes the best key's.  One stopping walk of the
    witness tuple, its languages made by _nonempty_language, spells the
    shortlex-least witness.

    Products over MAX_PRODUCT_STATES states are refused, and so are more
    than MAX_PRODUCT_STATES components: within the limit at most 6 are
    above size 1.  SEARCH_BUDGET bounds the raw DFAs behind the lists,
    s**(s*|alphabet|) tables times 2**s accepting sets per size s (checked,
    like the limits above, before any enumeration, though the build fills
    only the accessible tables), and the rows left after the fold, dropped
    or not, times the 64-bit words of a mask (checked before the first row).
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

    # Every state is reachable, so only the empty set gives an empty language,
    # and it keeps only the 1-state table: one empty language per size.
    nonempty = [sum(len(kept) // (k * len(alphabet)) for k, f, kept in _build(s, alphabet) if f) for s in sizes]
    languages_per_size = tuple(n + 1 for n in nonempty)

    # The full language stands in for the mask list when no size exceeds 1
    # (its key (0,) is never read) and as the one row when no column is left.
    full = Dfa(1, alphabet, 0, frozenset((0,)), ((0,) * len(alphabet),))
    listed, masked, mask_bits = [s for s in sizes if s > 1], max(sizes), max(nonempty)
    place = max((c for c, s in enumerate(listed) if s == masked), default=0)
    others = listed[:place] + listed[place + 1 :]
    # One list per size, so that two raw columns of one size are one list.
    nonempties = {s: [d for d in canonical_languages(s, alphabet) if d.accepting] for s in dict.fromkeys(others)}
    lists = {s: [((i,), d) for i, d in enumerate(languages)] for s, languages in nonempties.items()}
    columns = [lists[s] for s in others]
    images = _letter_images(nonempties, others[:place], len(alphabet))
    while len(columns) > 1 and len(columns[0]) * len(columns[1]) <= MAX_FOLD_PRODUCTS:
        folded: dict[Dfa, tuple[int, ...]] = {}
        for _, key, dfas in _rows(columns[:2], 0, []):
            folded.setdefault(minimize(*dfas), key)
        columns[:2] = [[(key, d) for d, key in folded.items() if d.accepting]]
    columns = columns or [[((), full)]]
    rows, words = prod(len(column) for column in columns), -(-mask_bits // 64)
    if rows * words > SEARCH_BUDGET:
        raise BudgetExceededError(
            f"search needs {rows * words} row words ({rows} rows of a {words}-word mask), "
            f"over the budget of {SEARCH_BUDGET}"
        )

    target = prod(sizes) - 1
    moves, accepts = _mask_column(masked, alphabet)
    everything = (1 << mask_bits) - 1
    best_lss, best_key = -1, ()
    for prefix, rest, dfas in _rows(columns, place, images):
        if best_lss == target and prefix > best_key[:place]:
            break
        # A row of one column is minimal already: a canonical language, a
        # fold class or the full language.
        meet = minimize(*dfas) if len(dfas) > 1 else dfas[0]
        lss, resolved = _row_pass(meet, moves, accepts, everything)
        if lss < best_lss or not resolved:
            continue
        key = (*prefix, (resolved & -resolved).bit_length() - 1, *rest)
        if lss > best_lss or key < best_key:
            best_lss, best_key = lss, key

    picked = [_nonempty_language(s, alphabet, i) for s, i in zip(listed, best_key)]
    witness_dfas = tuple(picked.pop(0) if s > 1 else full for s in sizes)
    return SearchReport(
        sizes=sizes,
        target=target,
        max_lss=best_lss,
        witness_dfas=witness_dfas,
        witness_word=intersection_lss(witness_dfas).witness,
        attained=best_lss == target,
        tuples_examined=prod(nonempty),
        tuples_skipped=prod(languages_per_size) - prod(nonempty),
        languages_per_size=languages_per_size,
    )
