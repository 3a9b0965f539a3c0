from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from minword import (
    BINARY,
    Dfa,
    accepts,
    format_word,
    intersection_lss,
    ones_mod_dfa,
    product,
    ramp_cycle_dfa,
    shortest_accepted,
    unary_residue_dfa,
)

from minword.product import MAX_WALK_STATES

from helpers import all_words, brute_force_shortest, crt_min_length, dfas, walk_limit


def test_accepting_initial_gives_empty_word():
    d = Dfa(2, BINARY, 0, frozenset({0}), ((1, 1), (0, 0)))
    result = shortest_accepted(d)
    assert result.length == 0
    assert result.witness == ()


def test_no_accepting_states_is_empty_language():
    d = Dfa(2, BINARY, 0, frozenset(), ((1, 1), (0, 0)))
    assert shortest_accepted(d) is None


def test_unreachable_accepting_state_is_empty_language():
    d = Dfa(2, BINARY, 0, frozenset({1}), ((0, 0), (1, 1)))
    assert shortest_accepted(d) is None


def test_pair_construction_shortest_is_5():
    dfa = product([ones_mod_dfa(2), ramp_cycle_dfa(2, 3)]).dfa
    result = shortest_accepted(dfa)
    assert result.length == 5
    assert format_word(BINARY, result.witness) == "10010"


def test_intersection_lss_4_6():
    result = intersection_lss([ones_mod_dfa(4), ramp_cycle_dfa(4, 6)])
    assert result.length == 23


def test_intersection_lss_matches_product_pipeline():
    for components in (
        [ones_mod_dfa(2), ramp_cycle_dfa(2, 3)],
        [ones_mod_dfa(3), ramp_cycle_dfa(3, 5)],
        [unary_residue_dfa(1, 2), unary_residue_dfa(2, 3)],
    ):
        fused = intersection_lss(components)
        composed = shortest_accepted(product(components).dfa)
        assert fused == composed


def test_unary_crt_oracle():
    for m, n in [(2, 3), (3, 4), (2, 4), (4, 6), (3, 5), (5, 5)]:
        result = intersection_lss([unary_residue_dfa(m - 1, m), unary_residue_dfa(n - 1, n)])
        assert result.length == crt_min_length(m, n)
        assert result.witness == (0,) * result.length


def test_unary_non_coprime_falls_short_of_bound():
    # gcd(2, 4) = 2: shortest common word has length lcm-1 = 3, not 7
    result = intersection_lss([unary_residue_dfa(1, 2), unary_residue_dfa(3, 4)])
    assert result.length == 3


def test_intersection_of_empty_is_none():
    empty = Dfa(1, BINARY, 0, frozenset(), ((0, 0),))
    assert intersection_lss([empty]) is None
    assert intersection_lss([ones_mod_dfa(2), empty]) is None


def test_intersection_requires_components():
    with pytest.raises(ValueError):
        intersection_lss([])


@given(d=dfas(max_states=5))
@settings(max_examples=100, deadline=None)
def test_bfs_matches_shortlex_brute_force(d):
    result = shortest_accepted(d)
    oracle = brute_force_shortest([d], d.state_count)
    if result is None:
        assert oracle is None
    else:
        assert accepts(d, result.witness)
        assert len(result.witness) == result.length
        assert oracle == result.witness


@given(d=dfas(max_states=6))
@settings(max_examples=100, deadline=None)
def test_pumping_bound(d):
    result = shortest_accepted(d)
    if result is not None:
        assert result.length <= d.state_count - 1


@given(a=dfas(max_states=4), b=dfas(max_states=4), c=dfas(max_states=3))
@settings(max_examples=60, deadline=None)
def test_fused_intersection_equals_composed(a, b, c):
    # Once with each kind of walk table: a list of every code, then a dict.
    for limit in (MAX_WALK_STATES, 0):
        with walk_limit(limit):
            _check_fused_intersection(a, b, c)


def _check_fused_intersection(a, b, c):
    assert intersection_lss([a, b]) == shortest_accepted(product([a, b]).dfa)
    # Both sides above run the same product walk; the word oracle does not.
    for components in ([a, b], [a, b, c]):
        result = intersection_lss(components)
        oracle = brute_force_shortest(components)
        if result is None:
            assert oracle is None
        else:
            assert result.witness == oracle
            assert result.length == len(oracle)


@given(components=st.lists(dfas(max_states=4), min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_intersection_is_invariant_under_permutation(components):
    # The intersection does not depend on the components' order, and neither
    # does the shortlex-least word of it.
    expected = shortest_accepted(product(components).dfa)
    for limit in (MAX_WALK_STATES, 0):
        with walk_limit(limit):
            for order in permutations(components):
                assert intersection_lss(list(order)) == expected


@given(a=dfas(max_states=5), b=dfas(max_states=5))
@settings(max_examples=60, deadline=None)
def test_intersection_bound_random_pairs(a, b):
    result = intersection_lss([a, b])
    if result is not None:
        assert result.length <= a.state_count * b.state_count - 1
        assert accepts(a, result.witness) and accepts(b, result.witness)


def test_witness_is_shortlex_least_among_accepted():
    d = ramp_cycle_dfa(3, 4)
    result = shortest_accepted(d)
    # first accepted word in shortlex order: covers minimality and tie-break
    accepted = [w for w in all_words(2, result.length) if accepts(d, w)]
    assert accepted[0] == result.witness
