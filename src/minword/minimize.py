"""DFA minimization by Hopcroft partition refinement, with canonical numbering.

Minimal complete DFAs are unique up to state renaming, so once states are
numbered in breadth-first first-visit order two minimized DFAs are
structurally equal exactly when they accept the same language.  That makes
the output of minimize() usable directly as a dict key for language-level
deduplication.  One product.walk over the input DFAs, of their product when
there are several, yields that numbering, and refine_blocks merges its
states with Hopcroft's splitter refinement in O(k n log n) steps for n
states and k symbols: a chain whose states are told apart only at distance
n costs no n rounds over all n states.

Dead states stay: the automaton remains complete, matching the convention
that state complexity counts the states of a complete DFA.
"""

from __future__ import annotations

from typing import Sequence

from .automaton import Dfa
from .product import Walk, shared_alphabet, walk


def minimize(*components: Dfa) -> Dfa:
    """Minimal complete DFA of the components' intersection, canonically numbered.

    The components share one alphabet.  One product.walk numbers the
    reachable tuples in breadth-first first-visit order, symbols in alphabet
    order, and builds their rows.  refine_blocks then partitions them, block
    ids assigned by first occurrence in that order.  They are already the
    breadth-first numbering of the quotient: the least word reaching a block
    is the least word reaching its first-discovered member.  So each output
    row is the first member's row mapped through the block ids.
    """
    alphabet = shared_alphabet(components)
    found = walk(components)
    accepting = _flags(found)
    block, n_blocks = refine_blocks(found.rows, accepting)
    firsts: list[int] = []
    for i, b in enumerate(block):
        if b == len(firsts):
            firsts.append(i)
    return Dfa(
        n_blocks,
        alphabet,
        0,
        frozenset(b for b, i in enumerate(firsts) if accepting[i]),
        tuple([tuple([block[t] for t in found.rows[i]]) for i in firsts]),
    )


def _flags(found: Walk) -> list[bool]:
    """Whether each state of a full walk accepts."""
    accepting = [False] * len(found.rows)
    for i in found.accepting:
        accepting[i] = True
    return accepting


def refine_blocks(rows: Sequence[Sequence[int]], accepting: Sequence[bool]) -> tuple[list[int], int]:
    """Coarsest partition of states 0..len(rows)-1: (block of each state, block count).

    rows[q] lists the successors of q in alphabet order and accepting[q]
    says whether q accepts.  Hopcroft's refinement (1971): starting from the
    accepting/rejecting split, each block taken from a worklist of splitters
    splits every block of which some symbol leads only part into it.  The
    smaller part of a split (the part led in, on a tie) gets a new id
    and is queued.  A block still queued then stays queued for the rest,
    and one already used is told apart from its old whole by the smaller
    part alone, so each state enters O(log n) splitters.  Block ids are
    renumbered by first occurrence in state order.  Two states share a block
    exactly when they accept the same words, so every state is apart
    exactly when the count is len(rows).
    """
    n = len(rows)
    inside = [q for q in range(n) if accepting[q]]
    if len(inside) in (0, n):
        # One side of the split is empty, and no splitter divides a single block.
        return [0] * n, min(n, 1)
    block = [0 if flag else 1 for flag in accepting]
    members = [set(inside), set(range(n)).difference(inside)]
    # preds[a][t]: the states that symbol a leads to t.
    preds: list[list[list[int]]] = []
    for column in zip(*rows):
        into = [[] for _ in range(n)]
        for q, t in enumerate(column):
            into[t].append(q)
        preds.append(into)
    queue = [0 if len(inside) <= n - len(inside) else 1]
    while queue and len(members) < n:
        splitter = list(members[queue.pop()])
        for into in preds:
            hit: dict[int, list[int]] = {}
            for t in splitter:
                for q in into[t]:
                    hit.setdefault(block[q], []).append(q)
            for b, entered in hit.items():
                whole = members[b]
                if len(entered) == len(whole):
                    continue
                part = set(entered)
                if 2 * len(part) > len(whole):
                    part = whole - part
                whole -= part
                new = len(members)
                members.append(part)
                for q in part:
                    block[q] = new
                queue.append(new)
    ids: dict[int, int] = {}
    return [ids.setdefault(b, len(ids)) for b in block], len(members)


def state_complexity(dfa: Dfa) -> int:
    """Number of states of the minimal complete DFA for L(dfa).

    That is minimize(dfa).state_count, the block count refine_blocks gives
    for the walk of dfa, read with no minimized Dfa built.
    """
    found = walk([dfa])
    return refine_blocks(found.rows, _flags(found))[1]


def equivalent(a: Dfa, b: Dfa) -> bool:
    """Whether two DFAs over the same alphabet accept the same language."""
    shared_alphabet([a, b])
    return minimize(a) == minimize(b)
