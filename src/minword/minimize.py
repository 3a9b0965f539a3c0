"""DFA minimization by iterated partition refinement, with canonical numbering.

Minimal complete DFAs are unique up to state renaming, so once states are
numbered in breadth-first first-visit order two minimized DFAs are
structurally equal exactly when they accept the same language.  That makes
the output of minimize() usable directly as a dict key for language-level
deduplication.  One breadth-first pass over the input yields that numbering.

Dead states stay: the automaton remains complete, matching the convention
that state complexity counts the states of a complete DFA.
"""

from __future__ import annotations

from .automaton import AlphabetMismatchError, Dfa


def minimize(dfa: Dfa) -> Dfa:
    """Minimal complete DFA for the same language, canonically numbered.

    One pass numbers the reachable states in breadth-first first-visit order,
    symbols in alphabet order, and builds their rows.  Moore refinement then
    splits accepting from rejecting states and re-partitions by (own block,
    blocks of successors) until the partition stops growing; block ids are
    assigned by first occurrence in that order.  They are already the
    breadth-first numbering of the quotient: the least word reaching a block
    is the least word reaching its first-discovered member.  So each output
    row is the first member's row mapped through the block ids.
    """
    accepting = dfa.accepting
    index = {dfa.initial: 0}
    order = [dfa.initial]
    rows: list[list[int]] = []
    # order grows while it is iterated: it is the BFS queue as well.
    for q in order:
        row = []
        for target in dfa.delta[q]:
            idx = index.get(target)
            if idx is None:
                idx = index[target] = len(order)
                order.append(target)
            row.append(idx)
        rows.append(row)

    # First-occurrence ids stay dense even when one side of the split is empty.
    seen: dict[bool, int] = {}
    block = [seen.setdefault(q in accepting, len(seen)) for q in order]
    n_blocks = len(seen)
    while True:
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

    firsts: list[int] = []
    for i, b in enumerate(block):
        if b == len(firsts):
            firsts.append(i)
    return Dfa(
        n_blocks,
        dfa.alphabet,
        0,
        frozenset(b for b, i in enumerate(firsts) if order[i] in accepting),
        tuple([tuple([block[t] for t in rows[i]]) for i in firsts]),
    )


def state_complexity(dfa: Dfa) -> int:
    """Number of states of the minimal complete DFA for L(dfa)."""
    return minimize(dfa).state_count


def equivalent(a: Dfa, b: Dfa) -> bool:
    """Whether two DFAs over the same alphabet accept the same language."""
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError(
            f"cannot compare languages over different alphabets: "
            f"{a.alphabet.symbols} != {b.alphabet.symbols}"
        )
    return minimize(a) == minimize(b)
