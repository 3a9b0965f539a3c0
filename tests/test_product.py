import pytest
from hypothesis import given, settings

from minword import (
    AlphabetMismatchError,
    BINARY,
    Dfa,
    accepts,
    equivalent,
    ones_mod_dfa,
    parse_word,
    product,
    ramp_cycle_dfa,
    unary_residue_dfa,
)

from helpers import all_words, dfas, reachable_states


def test_single_component_is_identity():
    for d in (ones_mod_dfa(3), ramp_cycle_dfa(2, 4)):
        built = product([d]).dfa
        assert equivalent(built, d)
        for w in all_words(2, 6):
            assert accepts(built, w) == accepts(d, w)


def test_pair_size_bound_and_acceptance():
    result = product([ones_mod_dfa(2), ramp_cycle_dfa(2, 3)])
    assert result.dfa.state_count <= 6
    assert accepts(result.dfa, parse_word(BINARY, "10010"))


def test_alphabet_mismatch_rejected():
    with pytest.raises(AlphabetMismatchError):
        product([ones_mod_dfa(2), unary_residue_dfa(1, 2)])


def test_empty_component_list_rejected():
    with pytest.raises(ValueError):
        product([])


def test_tags_track_component_states():
    result = product([ones_mod_dfa(2), ramp_cycle_dfa(2, 3)])
    assert result.tags[0] == (0, 0)
    assert len(set(result.tags)) == result.dfa.state_count
    # accepting product states are exactly the all-accepting tuples
    for idx, tag in enumerate(result.tags):
        expected = tag[0] == 0 and tag[1] == 2
        assert (idx in result.dfa.accepting) == expected


def test_every_product_state_reachable():
    for components in (
        [ones_mod_dfa(3), ramp_cycle_dfa(3, 4)],
        [ones_mod_dfa(2), ones_mod_dfa(3), ramp_cycle_dfa(2, 2)],
    ):
        dfa = product(components).dfa
        assert reachable_states(dfa) == set(range(dfa.state_count))


@given(a=dfas(max_states=4), b=dfas(max_states=4))
@settings(max_examples=60, deadline=None)
def test_pair_soundness_exhaustive_words(a, b):
    dfa = product([a, b]).dfa
    assert dfa.state_count <= a.state_count * b.state_count
    for w in all_words(2, 6):
        assert accepts(dfa, w) == (accepts(a, w) and accepts(b, w))


@given(a=dfas(max_states=3), b=dfas(max_states=3), c=dfas(max_states=3))
@settings(max_examples=40, deadline=None)
def test_triple_soundness_exhaustive_words(a, b, c):
    dfa = product([a, b, c]).dfa
    assert dfa.state_count <= a.state_count * b.state_count * c.state_count
    for w in all_words(2, 5):
        assert accepts(dfa, w) == (accepts(a, w) and accepts(b, w) and accepts(c, w))


def test_deterministic_numbering():
    components = [ones_mod_dfa(2), ramp_cycle_dfa(2, 3)]
    assert product(components) == product(components)


def test_product_of_disjoint_parity_languages_is_empty():
    odd = Dfa(2, BINARY, 0, frozenset({1}), ((1, 1), (0, 0)))
    even = Dfa(2, BINARY, 0, frozenset({0}), ((1, 1), (0, 0)))
    dfa = product([odd, even]).dfa
    assert not dfa.accepting
