"""Parametric DFA families whose intersection has a maximally long shortest word.

For sizes 1 <= m <= n the pair (ones_mod_dfa(m), ramp_cycle_dfa(m, n)) accepts
a common word only after mn-1 letters, which matches the general upper bound:
a product of an m-state and an n-state DFA has at most mn states, so a
nonempty intersection always contains a word shorter than mn.

Over a one-letter alphabet the same extremal length is reached by two cyclic
length counters whenever gcd(m, n) = 1 (unary_residue_dfa).
"""

from __future__ import annotations

from .automaton import BINARY, Dfa, UNARY, Word


def ones_mod_dfa(m: int) -> Dfa:
    """m-state binary DFA accepting words whose count of 1s is a multiple of m.

    State a records the current 1-count mod m; reading c adds c to it.
    """
    if m < 1:
        raise ValueError(f"size must be positive, got {m}")
    delta = tuple((a, (a + 1) % m) for a in range(m))
    return Dfa(m, BINARY, 0, frozenset({0}), delta)


def ramp_cycle_dfa(m: int, n: int) -> Dfa:
    """n-state binary DFA: a ramp of m-1 ones feeding a one-way cycle of zeros.

    Below the ramp top (state a < m-1) a 1 climbs one step and a 0 stays put.
    From the ramp top onward a 0 advances cyclically toward state n-1 (and
    wraps back to 0) while a 1 drops back to the start.  Only state n-1
    accepts, so every accepted word has to climb the ramp and then survive
    the zero cycle without touching a 1 at the wrong time.
    """
    if m < 1:
        raise ValueError(f"sizes must be positive, got m={m}")
    if m > n:
        raise ValueError(f"requires m <= n, got m={m}, n={n}")
    rows = []
    for a in range(n):
        if a < m - 1:
            rows.append((a, a + 1))
        else:
            rows.append(((a + 1) % n, 0))
    return Dfa(n, BINARY, 0, frozenset({n - 1}), tuple(rows))


def unary_residue_dfa(r: int, k: int) -> Dfa:
    """k-state one-letter DFA accepting words of length congruent to r mod k."""
    if k < 1:
        raise ValueError(f"modulus must be positive, got {k}")
    if not 0 <= r < k:
        raise ValueError(f"residue {r} out of range for modulus {k}")
    delta = tuple(((a + 1) % k,) for a in range(k))
    return Dfa(k, UNARY, 0, frozenset({r}), delta)


def closed_form_witness(m: int, n: int) -> Word:
    """The shortest common word of the (m, n) pair, written out directly.

    The word is (1^(m-1) 0^(n-m+1))^(m-1) 1^(m-1) 0^(n-m): length mn-1,
    m(m-1) ones, m(n-m+1)-1 zeros.
    """
    if m < 1:
        raise ValueError(f"sizes must be positive, got m={m}")
    if m > n:
        raise ValueError(f"requires m <= n, got m={m}, n={n}")
    ones = (1,) * (m - 1)
    block = ones + (0,) * (n - m + 1)
    return block * (m - 1) + ones + (0,) * (n - m)
