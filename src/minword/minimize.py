"""DFA minimization by iterated partition refinement, with canonical numbering.

Minimal complete DFAs are unique up to state renaming, so once states are
numbered in breadth-first first-visit order two minimized DFAs are
structurally equal exactly when they accept the same language.  That makes
the output of minimize() usable directly as a dict key for language-level
deduplication.  One product.walk over the input DFAs, of their product when
there are several, yields that numbering.

Dead states stay: the automaton remains complete, matching the convention
that state complexity counts the states of a complete DFA.
"""

from __future__ import annotations

from typing import Sequence

from .automaton import Dfa
from .product import shared_alphabet, walk


def minimize(*components: Dfa) -> Dfa:
    """Minimal complete DFA of the components' intersection, canonically numbered.

    The components share one alphabet.  One product.walk numbers the
    reachable tuples in breadth-first first-visit order, symbols in alphabet
    order, and builds their rows.  moore_blocks then partitions them, block
    ids assigned by first occurrence in that order.  They are already the
    breadth-first numbering of the quotient: the least word reaching a block
    is the least word reaching its first-discovered member.  So each output
    row is the first member's row mapped through the block ids.
    """
    alphabet = shared_alphabet(components)
    found = walk(components)
    accepting = [False] * len(found.rows)
    for i in found.accepting:
        accepting[i] = True
    block, n_blocks = moore_blocks(found.rows, accepting)
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


def state_complexity(dfa: Dfa) -> int:
    """Number of states of the minimal complete DFA for L(dfa)."""
    return minimize(dfa).state_count


def equivalent(a: Dfa, b: Dfa) -> bool:
    """Whether two DFAs over the same alphabet accept the same language."""
    shared_alphabet([a, b])
    return minimize(a) == minimize(b)
