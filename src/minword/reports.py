"""Witness reports for the mn-1 pair constructions, one pair or a range."""

from __future__ import annotations

from typing import NamedTuple

from .automaton import Dfa, accepts, format_word
from .constructions import closed_form_witness, ones_mod_dfa, ramp_cycle_dfa
from .minimize import state_complexity
from .shortest import intersection_lss


class WitnessReport(NamedTuple):
    """One verified (m, n) instance of the mn-1 intersection bound.

    passed holds iff the computed lss equals mn-1, the closed-form word is
    accepted by both automata with exactly that length, and the automata
    have state complexities m and n (sc_ones and sc_ramp).
    """

    m: int
    n: int
    expected: int
    lss: int
    witness: str
    formula_word: str
    formula_word_accepted: bool
    sc_ones: int
    sc_ramp: int
    passed: bool


def build_witness_report(m: int, n: int) -> WitnessReport:
    """Verify the (m, n) pair end to end; requires m <= n."""
    ones = ones_mod_dfa(m)
    return _witness_report(ones, state_complexity(ones), m, n)


def _witness_report(ones: Dfa, sc_ones: int, m: int, n: int) -> WitnessReport:
    """build_witness_report(m, n), given ones_mod_dfa(m) and its state complexity."""
    ramp = ramp_cycle_dfa(m, n)
    expected = m * n - 1
    result = intersection_lss([ones, ramp])
    assert result is not None, "constructed intersection is never empty"
    formula = closed_form_witness(m, n)
    formula_ok = accepts(ones, formula) and accepts(ramp, formula)
    sc_ramp = state_complexity(ramp)
    # The closed-form word is the walk's witness for every pair with
    # n <= 75, so an equal word is formatted once.
    witness = format_word(ones.alphabet, result.witness)
    return WitnessReport(
        m=m,
        n=n,
        expected=expected,
        lss=result.length,
        witness=witness,
        formula_word=witness if formula == result.witness else format_word(ones.alphabet, formula),
        formula_word_accepted=formula_ok,
        sc_ones=sc_ones,
        sc_ramp=sc_ramp,
        passed=(
            result.length == expected
            and formula_ok
            and len(formula) == expected
            and sc_ones == m
            and sc_ramp == n
        ),
    )


def verify_range(max_n: int) -> list[WitnessReport]:
    """Witness reports for every pair 1 <= m <= n <= max_n, in (m, n) order."""
    if max_n < 1:
        raise ValueError(f"max_n must be positive, got {max_n}")
    reports = []
    for m in range(1, max_n + 1):
        # One ones_mod_dfa(m) and one state complexity serve every n.
        ones = ones_mod_dfa(m)
        sc_ones = state_complexity(ones)
        reports.extend(_witness_report(ones, sc_ones, m, n) for n in range(m, max_n + 1))
    return reports
