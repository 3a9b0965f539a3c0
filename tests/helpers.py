"""Shared test utilities: word enumeration, random DFAs, brute-force oracles,
and the cycle-count helpers behind the ramp_cycle_dfa proof (criterion 7)."""

from __future__ import annotations

import importlib
import itertools
import os
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from math import gcd, prod
from operator import contains, getitem
from random import Random
from typing import Iterator, NamedTuple, Sequence

from hypothesis import strategies as st

import minword
from minword import BINARY, Alphabet, Dfa, Word, accepts, run


def src_env() -> dict[str, str]:
    """The environment with minword's source first on PYTHONPATH, for child interpreters."""
    src = os.path.dirname(os.path.dirname(minword.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def words_of_length(num_symbols: int, length: int):
    return itertools.product(range(num_symbols), repeat=length)


def all_words(num_symbols: int, max_len: int):
    """Every word up to max_len, in shortlex order."""
    for length in range(max_len + 1):
        yield from words_of_length(num_symbols, length)


def raw_dfas(states: int, alphabet: Alphabet = BINARY) -> Iterator[Dfa]:
    """Yield every complete DFA with the given states, initial state 0.

    All states**(states*|alphabet|) transition tables are paired with all
    2**states accepting subsets, in a fixed deterministic order.  Unlike
    enumerate_dfas, this keeps unreachable states and every renaming: the
    raw pool the accessible fast path is checked against.
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


def bfs_numbering(dfa: Dfa) -> list[int]:
    """The states reachable from the initial one, in breadth-first first-visit
    order with symbols in alphabet order."""
    order = [dfa.initial]
    for state in order:
        for target in dfa.delta[state]:
            if target not in order:
                order.append(target)
    return order


def random_dfa(rng: Random, max_states: int, alphabet: Alphabet = BINARY) -> Dfa:
    n = rng.randint(1, max_states)
    width = len(alphabet)
    delta = tuple(tuple(rng.randrange(n) for _ in range(width)) for _ in range(n))
    accepting = frozenset(q for q in range(n) if rng.random() < 0.5)
    return Dfa(n, alphabet, rng.randrange(n), accepting, delta)


def brute_force_shortest(components: Sequence[Dfa], max_len: int | None = None):
    """First word in shortlex order that every component accepts, or None.

    Searches lengths up to max_len, by default prod(states) - 1, and is
    independent of the product walk: it runs whole words through each
    component.  Words of one length are generated in lex order by extending
    the previous length's survivors, and of several words ending in the same
    state tuple only the lex-first survives; a later one could be swapped for
    it in any accepted word, giving a lex-smaller accepted word.
    """
    if max_len is None:
        max_len = prod(d.state_count for d in components) - 1
    width = len(components[0].alphabet)
    survivors = [()]
    for _ in range(max_len + 1):
        for word in survivors:
            if all(accepts(d, word) for d in components):
                return word
        ends: dict[tuple[int, ...], tuple[int, ...]] = {}
        for word in survivors:
            for sym in range(width):
                longer = word + (sym,)
                ends.setdefault(tuple(run(d, longer) for d in components), longer)
        survivors = list(ends.values())
    return None


def reachable_states(dfa: Dfa) -> frozenset[int]:
    """States reachable from the initial state under any word."""
    seen = {dfa.initial}
    queue = deque((dfa.initial,))
    while queue:
        state = queue.popleft()
        for target in dfa.delta[state]:
            if target not in seen:
                seen.add(target)
                queue.append(target)
    return frozenset(seen)


def moore_blocks(rows: Sequence[Sequence[int]], accepting: Sequence[bool]) -> tuple[list[int], int]:
    """Moore refinement of states 0..len(rows)-1: (block of each state, block count).

    rows[q] lists the successors of q in alphabet order and accepting[q]
    says whether q accepts.  Accepting states are split from rejecting ones,
    then states are re-partitioned by (own block, blocks of successors) until
    the partition stops growing.  Block ids are assigned by first occurrence
    in state order.  Two states share a block exactly when they accept the
    same words, so every state is apart exactly when the count is len(rows).
    """
    # First-occurrence ids stay dense even when one side of the split is empty.
    seen: dict[bool, int] = {}
    block = [seen.setdefault(flag, len(seen)) for flag in accepting]
    n_blocks = len(seen)
    # A partition into single states cannot be refined further.
    while n_blocks < len(rows):
        sigs: dict[tuple[int, ...], int] = {}
        refined = [
            sigs.setdefault((b, *[block[t] for t in row]), len(sigs))
            for b, row in zip(block, rows)
        ]
        # The new partition refines the old one; with as many blocks it is the
        # same partition, numbered the same way.
        if len(sigs) == n_blocks:
            break
        block = refined
        n_blocks = len(sigs)
    return block, n_blocks


def apart_sets(delta: Sequence[Sequence[int]], inside: Sequence[int]) -> int:
    """The accepting sets under which all states of delta are apart, as bits.

    Bit F of an int stands for the accepting set {q : bit q of F is set},
    and inside[q] holds the bits F of the sets containing q.  Iterates
    apart(p, q) = SEP(p, q) | OR_a apart(delta(p, a), delta(q, a)) from
    SEP(p, q) = inside[p] ^ inside[q] up to its least fixed point, the sets
    under which p and q accept different words (see canonical_languages),
    and returns the AND of it over all pairs p < q.  One table at a time:
    the oracle for the language build's pass over all tables of a size.
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


def column_masks(languages: Sequence[Dfa]) -> tuple[list, list[int]]:
    """The languages of a list as bits of ints: bit i stands for language i.

    Returns (moves, accepts) in the form of the search's mask column:
    moves[l][a] lists the (l2, mask) pairs whose mask holds the languages
    with delta(l, a) = l2, and accepts[l] the languages accepting l.  Every
    language starts at state 0.  An oracle for the column the search reads
    off the language build: this one is made from the DFAs themselves.

    One flat byte table of one record per language, last language first:
    its targets, delta(l, a) at l * width + a, padded with 255 where the
    language has no state l, then one byte per state l, "1" if it accepts l
    and "0" if not.  The step slice of the table at the offset of one
    (l, a) is the targets of every language, and it reads as a base-2
    numeral once each byte is turned into a digit; the slice at the offset
    of one l's flag is accepts[l]'s numeral as it stands.
    """
    states = max(d.state_count for d in languages)
    width = len(languages[0].alphabet)
    cells = states * width
    stride = cells + states
    table = bytearray()
    for d in reversed(languages):
        table += bytes(itertools.chain.from_iterable(d.delta)).ljust(cells, b"\xff")
        table += bytes(49 if l in d.accepting else 48 for l in range(states))
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


class TupleWalk(NamedTuple):
    """tuple_walk's result: product states in discovery order (the start is 0)."""

    tags: list[tuple[int, ...]]  # component state tuple of each state
    parents: list[tuple[int, int]]  # (parent index, symbol) that found each state; stopping walks only
    rows: list[tuple[int, ...]]  # transition row of each state; full walks only
    accepting: list[int]  # all-accepting states, in discovery order


def tuple_walk(components: Sequence[Dfa], stop: bool = False) -> TupleWalk:
    """Breadth-first walk of the product reachable from the initial tuple.

    An oracle for product.walk() that keys every state by its tuple of
    component states.  Symbols are explored in alphabet order and states
    numbered in discovery order; with stop, the walk ends at the first
    all-accepting tuple, whose parent links spell the shortlex-least
    accepted word.
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
        return TupleWalk(tags, parents, rows, accepting)
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
                        return TupleWalk(tags, parents, rows, accepting)
            row.append(idx)
        if not stop:
            rows.append(tuple(row))
    return TupleWalk(tags, parents, rows, accepting)


@contextmanager
def walk_limit(limit: int):
    """Run the block with product.MAX_WALK_STATES set to limit; 0 makes every walk key a dict."""
    module = importlib.import_module("minword.product")  # minword.product is the function
    shipped, module.MAX_WALK_STATES = module.MAX_WALK_STATES, limit
    try:
        yield
    finally:
        module.MAX_WALK_STATES = shipped


def minimize_two_pass(dfa: Dfa) -> Dfa:
    """Minimal complete DFA for the same language, canonically numbered.

    An oracle for minimize() that walks the DFA twice: once for the
    reachable states, and once more to renumber the blocks breadth-first.

    Unreachable states are dropped, then states are merged by Moore-style
    refinement: start from the accepting/rejecting split and re-partition by
    (own block, blocks of successors) until the partition stops growing.
    """
    width = len(dfa.alphabet)
    states = sorted(reachable_states(dfa))
    delta = dfa.delta

    # Initial split by acceptance, block ids assigned by first occurrence so
    # they stay dense even when one side is empty.
    block: dict[int, int] = {}
    seen: dict[bool, int] = {}
    for q in states:
        key = q in dfa.accepting
        if key not in seen:
            seen[key] = len(seen)
        block[q] = seen[key]

    n_blocks = len(seen)
    while True:
        sigs: dict[tuple, int] = {}
        new_block: dict[int, int] = {}
        for q in states:
            sig = (block[q],) + tuple(block[delta[q][c]] for c in range(width))
            idx = sigs.get(sig)
            if idx is None:
                idx = sigs[sig] = len(sigs)
            new_block[q] = idx
        if len(sigs) == n_blocks:
            break
        block = new_block
        n_blocks = len(sigs)

    representative: dict[int, int] = {}
    for q in states:
        representative.setdefault(block[q], q)

    # Breadth-first renumbering from the initial block, symbols in order.
    order: dict[int, int] = {block[dfa.initial]: 0}
    queue = deque((block[dfa.initial],))
    rows: list[tuple[int, ...]] = []
    while queue:
        b = queue.popleft()
        rep = representative[b]
        row = []
        for c in range(width):
            tb = block[delta[rep][c]]
            idx = order.get(tb)
            if idx is None:
                idx = order[tb] = len(order)
                queue.append(tb)
            row.append(idx)
        rows.append(tuple(row))

    accepting = frozenset(
        order[b] for b in order if representative[b] in dfa.accepting
    )
    return Dfa(len(order), dfa.alphabet, 0, accepting, tuple(rows))


def scan_oracle(lists: Sequence[Sequence[Dfa]]):
    """(lss, dfas, word) of the best tuple of lists; ties keep the earliest.

    An oracle for tightness_search(), which folds intersection classes: this
    walks the product of every tuple of the Cartesian product instead.  With
    the lists sorted by serialization, iteration order is lexicographic on
    the serialized tuple and "earliest" equals "lexicographically least".
    """
    best = None
    for dfas in itertools.product(*lists):
        result = minword.intersection_lss(dfas)
        if result is not None and (best is None or result.length > best[0]):
            best = (result.length, dfas, result.witness)
    return best


def crt_min_length(m: int, n: int) -> int:
    """Smallest length hitting residue m-1 mod m and n-1 mod n (always exists)."""
    lcm = m * n // gcd(m, n)
    for length in range(lcm):
        if length % m == m - 1 and length % n == n - 1:
            return length
    return lcm - 1


@dataclass(frozen=True)
class CycleCounts:
    """Counts of the two ways ramp_cycle_dfa can pass through its start state.

    An accepted word decomposes into j full climbs knocked back by a 1
    (m ones each, no zeros) and i climbs that ride the zero cycle all the
    way around (m-1 ones, n-m+1 zeros each), the last of which stops at the
    accepting state one zero early.  Hence i >= 1 and the final zero is
    missing exactly once.
    """

    i: int
    j: int
    m: int
    n: int

    def __post_init__(self) -> None:
        if self.i < 1:
            raise ValueError(f"i must be >= 1, got {self.i}")
        if self.j < 0:
            raise ValueError(f"j must be >= 0, got {self.j}")
        if not 1 <= self.m <= self.n:
            raise ValueError(f"requires 1 <= m <= n, got m={self.m}, n={self.n}")

    @property
    def ones(self) -> int:
        return self.i * (self.m - 1) + self.j * self.m

    @property
    def min_zeros(self) -> int:
        return self.i * (self.n - self.m + 1) - 1


def cycle_witness(counts: CycleCounts) -> Word:
    """Accepted word of ramp_cycle_dfa(m, n) realizing the given cycle counts.

    Built as (1^m)^j (1^(m-1) 0^(n-m+1))^(i-1) 1^(m-1) 0^(n-m): the j
    one-only cycles first, then the i-1 complete zero-riding cycles, then the
    final climb that parks on the accepting state.  Its 1-count is
    i(m-1) + jm and its 0-count is exactly i(n-m+1) - 1, the minimum any
    word with these cycle counts can have.
    """
    i, j, m, n = counts.i, counts.j, counts.m, counts.n
    climb = (1,) * (m - 1)
    full_cycle = climb + (0,) * (n - m + 1)
    return (1,) * m * j + full_cycle * (i - 1) + climb + (0,) * (n - m)


def admissible_counts(ones: int, zeros: int, m: int, n: int) -> bool:
    """Whether a (1-count, 0-count) pair is consistent with ramp_cycle_dfa(m, n).

    True iff some i >= 1, j >= 0 satisfy ones = i(m-1) + jm and
    zeros >= i(n-m+1) - 1.  Every word the automaton accepts has admissible
    counts; the converse need not hold for arbitrary symbol orderings.
    """
    if not 1 <= m <= n:
        raise ValueError(f"requires 1 <= m <= n, got m={m}, n={n}")
    if ones < 0 or zeros < 0:
        return False
    if m == 1:
        # ones = j is free; i = 1 gives the weakest zero requirement.
        return zeros >= n - 1
    i = 1
    while i * (m - 1) <= ones:
        if (ones - i * (m - 1)) % m == 0 and zeros >= i * (n - m + 1) - 1:
            return True
        i += 1
    return False


@st.composite
def dfas(draw, max_states: int = 5, alphabet: Alphabet = BINARY) -> Dfa:
    n = draw(st.integers(1, max_states))
    width = len(alphabet)
    delta = tuple(
        tuple(draw(st.integers(0, n - 1)) for _ in range(width)) for _ in range(n)
    )
    accepting = frozenset(draw(st.sets(st.integers(0, n - 1))))
    initial = draw(st.integers(0, n - 1))
    return Dfa(n, alphabet, initial, accepting, delta)


binary_words = st.lists(st.integers(0, 1), max_size=12).map(tuple)
