"""Checks the DFA families against brute-force word enumeration oracles."""

import pytest

from minword import (
    BINARY,
    accepts,
    closed_form_witness,
    format_word,
    ones_mod_dfa,
    ramp_cycle_dfa,
    unary_residue_dfa,
    validate,
)

from minword import reports

from helpers import CycleCounts, admissible_counts, all_words, cycle_witness


def ones_count(word):
    return sum(1 for sym in word if sym == 1)


def zeros_count(word):
    return sum(1 for sym in word if sym == 0)


# --- ones_mod_dfa -----------------------------------------------------------


def test_ones_dfa_single_state():
    d = ones_mod_dfa(1)
    assert d.state_count == 1
    assert d.delta == ((0, 0),)
    assert d.accepting == {0}
    assert all(accepts(d, w) for w in all_words(2, 6))


def test_ones_dfa_delta_rows():
    assert ones_mod_dfa(3).delta == tuple((a, (a + 1) % 3) for a in range(3))


@pytest.mark.parametrize("m", range(1, 7))
def test_ones_dfa_language_brute_force(m):
    d = ones_mod_dfa(m)
    for w in all_words(2, 12):
        assert accepts(d, w) == (ones_count(w) % m == 0)


def test_ones_dfa_rejects_zero_size():
    with pytest.raises(ValueError):
        ones_mod_dfa(0)


# --- ramp_cycle_dfa ---------------------------------------------------------


def test_ramp_dfa_2_3_table():
    d = ramp_cycle_dfa(2, 3)
    assert d.delta == ((0, 1), (2, 0), (0, 0))
    assert d.initial == 0
    assert d.accepting == {2}


def test_ramp_dfa_degenerate_1_1():
    d = ramp_cycle_dfa(1, 1)
    assert d.state_count == 1
    assert d.delta == ((0, 0),)
    assert d.accepting == {0}


def test_ramp_dfa_structure_scan():
    for m in range(1, 11):
        for n in range(m, 11):
            d = ramp_cycle_dfa(m, n)
            validate(d)
            assert d.accepting == {n - 1}
            assert d.delta[m - 1][1] == 0


def test_ramp_dfa_rejects_bad_sizes():
    with pytest.raises(ValueError):
        ramp_cycle_dfa(3, 2)
    with pytest.raises(ValueError):
        ramp_cycle_dfa(0, 2)


# --- unary_residue_dfa ------------------------------------------------------


def test_unary_accept_all():
    d = unary_residue_dfa(0, 1)
    assert all(accepts(d, (0,) * length) for length in range(7))


def test_unary_language_brute_force():
    d = unary_residue_dfa(2, 5)
    for length in range(16):
        assert accepts(d, (0,) * length) == (length % 5 == 2)


def test_unary_rejects_bad_residue():
    with pytest.raises(ValueError):
        unary_residue_dfa(3, 3)
    with pytest.raises(ValueError):
        unary_residue_dfa(0, 0)


# --- closed_form_witness ----------------------------------------------------


def test_witness_2_3():
    assert format_word(BINARY, closed_form_witness(2, 3)) == "10010"


@pytest.mark.parametrize("n", range(1, 8))
def test_witness_m1_is_zeros(n):
    assert closed_form_witness(1, n) == (0,) * (n - 1)


def test_witness_length_and_counts():
    for m in range(1, 51):
        for n in range(m, 51):
            w = closed_form_witness(m, n)
            assert len(w) == m * n - 1
            assert ones_count(w) == m * (m - 1)
            assert zeros_count(w) == m * (n - m + 1) - 1


def test_witness_accepted_by_both():
    for m in range(1, 13):
        for n in range(m, 13):
            w = closed_form_witness(m, n)
            assert accepts(ones_mod_dfa(m), w)
            assert accepts(ramp_cycle_dfa(m, n), w)


# The report formats the closed-form word itself and runs both automata on
# it when it is not the walk's witness.  One symbol flipped changes the count
# of ones, so ones_mod_dfa(2) refuses it; the longer word is accepted by both,
# and the pair fails on its length.
@pytest.mark.parametrize("text, accepted", [("00010", False), ("0010010", True)])
def test_witness_report_formats_and_runs_a_differing_closed_form_word(monkeypatch, text, accepted):
    word = tuple(map(BINARY.index, text))
    monkeypatch.setattr(reports, "closed_form_witness", lambda m, n: word)
    report = reports.build_witness_report(2, 3)
    assert report.witness == "10010"
    assert report.formula_word == format_word(BINARY, word) == text
    ran = accepts(ones_mod_dfa(2), word) and accepts(ramp_cycle_dfa(2, 3), word)
    assert report.formula_word_accepted is ran is accepted
    assert report.lss == 5 and report.passed is False


def test_witness_rejects_bad_sizes():
    with pytest.raises(ValueError):
        closed_form_witness(3, 2)
    with pytest.raises(ValueError, match="^sizes must be positive, got m=0$"):
        closed_form_witness(0, 3)


# --- cycle_witness ----------------------------------------------------------


def test_cycle_witness_matches_closed_form():
    for m in range(1, 9):
        for n in range(m, 9):
            assert cycle_witness(CycleCounts(i=m, j=0, m=m, n=n)) == closed_form_witness(m, n)


def test_cycle_witness_small_cases():
    assert format_word(BINARY, cycle_witness(CycleCounts(1, 0, 2, 3))) == "10"
    assert format_word(BINARY, cycle_witness(CycleCounts(1, 1, 2, 3))) == "1110"
    assert accepts(ramp_cycle_dfa(2, 3), (1, 0))
    assert accepts(ramp_cycle_dfa(2, 3), (1, 1, 1, 0))


def test_cycle_witness_zero_count_is_tight():
    for m in range(1, 7):
        for n in range(m, 7):
            ramp = ramp_cycle_dfa(m, n)
            for i in range(1, 5):
                for j in range(5):
                    counts = CycleCounts(i=i, j=j, m=m, n=n)
                    w = cycle_witness(counts)
                    assert accepts(ramp, w)
                    assert ones_count(w) == counts.ones
                    assert zeros_count(w) == counts.min_zeros


def test_cycle_counts_validation():
    with pytest.raises(ValueError):
        CycleCounts(0, 0, 2, 3)
    with pytest.raises(ValueError):
        CycleCounts(1, -1, 2, 3)
    with pytest.raises(ValueError):
        CycleCounts(1, 0, 3, 2)


def test_cycle_counts_derived_values():
    c = CycleCounts(i=2, j=3, m=2, n=5)
    assert c.ones == 2 * 1 + 3 * 2
    assert c.min_zeros == 2 * 4 - 1


# --- admissible_counts ------------------------------------------------------


def test_admissible_examples():
    assert admissible_counts(1, 1, 2, 3)
    assert not admissible_counts(0, 0, 2, 3)


def test_admissible_rejects_negative():
    assert not admissible_counts(-1, 0, 2, 3)
    assert not admissible_counts(0, -1, 2, 3)


def test_admissible_m1_reduces_to_zero_floor():
    # with m = 1 any 1-count works; only zeros >= n-1 matters
    assert admissible_counts(0, 2, 1, 3)
    assert admissible_counts(7, 2, 1, 3)
    assert not admissible_counts(7, 1, 1, 3)


def test_accepted_words_have_admissible_counts():
    for m in range(1, 5):
        for n in range(m, 5):
            ramp = ramp_cycle_dfa(m, n)
            for w in all_words(2, 10):
                if accepts(ramp, w):
                    assert admissible_counts(ones_count(w), zeros_count(w), m, n)


def test_admissible_counts_brute_force_cross_check():
    # independent oracle: search (i, j) pairs directly over a safe range
    for m in range(1, 5):
        for n in range(m, 6):
            for ones in range(12):
                for zeros in range(12):
                    expected = any(
                        ones == i * (m - 1) + j * m and zeros >= i * (n - m + 1) - 1
                        for i in range(1, ones + zeros + 2)
                        for j in range(ones + 2)
                    )
                    assert admissible_counts(ones, zeros, m, n) == expected
