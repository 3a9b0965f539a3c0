import tracemalloc
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from minword import (
    AlphabetMismatchError,
    Alphabet,
    BINARY,
    Dfa,
    accepts,
    equivalent,
    intersection_lss,
    ones_mod_dfa,
    product,
    ramp_cycle_dfa,
    unary_residue_dfa,
)

from minword.product import walk

from helpers import all_words, dfas, reachable_states, tuple_walk

def test_single_component_is_identity():
    for d in (ones_mod_dfa(3), ramp_cycle_dfa(2, 4)):
        built = product([d]).dfa
        assert equivalent(built, d)
        for w in all_words(2, 6):
            assert accepts(built, w) == accepts(d, w)


def test_pair_size_bound_and_acceptance():
    result = product([ones_mod_dfa(2), ramp_cycle_dfa(2, 3)])
    assert result.dfa.state_count <= 6
    assert accepts(result.dfa, (1, 0, 0, 1, 0))


def test_alphabet_mismatch_rejected():
    with pytest.raises(AlphabetMismatchError):
        product([ones_mod_dfa(2), unary_residue_dfa(1, 2)])


def test_alphabet_mismatch_message_prints_the_labels():
    swapped = Dfa(1, Alphabet(("1", "0")), 0, frozenset({0}), ((0, 0),))
    with pytest.raises(AlphabetMismatchError) as info:
        product([ones_mod_dfa(2), swapped])
    assert str(info.value) == "components must share one alphabet: ('1', '0') != ('0', '1')"


def test_empty_component_list_rejected():
    with pytest.raises(ValueError):
        product([])


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


@st.composite
def component_lists(draw):
    """1 to 5 components of 1 to 4 states over one alphabet of 1 to 3 letters, any initial states."""
    alphabet = Alphabet(("a", "b", "c")[: draw(st.integers(1, 3))])
    return draw(st.lists(dfas(max_states=4, alphabet=alphabet), min_size=1, max_size=5))


def _ring(states, initial, accepting):
    """Symbol 0 steps q to q + 1 mod states, symbol 1 to q + 2 mod states."""
    delta = tuple(((q + 1) % states, (q + 2) % states) for q in range(states))
    return Dfa(states, BINARY, initial, frozenset(accepting), delta)


_ONE = Dfa(1, BINARY, 0, frozenset({0}), ((0, 0),))
_REPEATED = [_ring(3, 1, {0}), _ring(5, 4, {2}), _ring(5, 4, {2}), _ring(4, 0, {3})]
_ONE_STATE_MIDDLE = [_ring(3, 1, {0}), _ONE, _ring(5, 2, {1})]


@given(components=component_lists(), stop=st.booleans())
@example(components=_REPEATED, stop=False)
@example(components=_REPEATED, stop=True)
@example(components=_ONE_STATE_MIDDLE, stop=False)
@example(components=_ONE_STATE_MIDDLE, stop=True)
@settings(max_examples=300, deadline=None)
def test_walk_equals_tuple_walk(components, stop):
    found, oracle = walk(components, stop), tuple_walk(components, stop)
    width = len(components[0].alphabet)
    if stop:
        # Both walks find the same states by the same links, in one order.
        assert [divmod(link, width) for link in found.parents[1:]] == oracle.parents[1:]
    assert found.rows == oracle.rows
    assert found.accepting == oracle.accepting
    if stop and found.accepting:
        spelled, expected = [], []
        state = found.accepting[0]
        while state:
            state, sym = divmod(found.parents[state], width)
            spelled.append(sym)
        state = oracle.accepting[0]
        while state:
            state, sym = oracle.parents[state]
            expected.append(sym)
        assert spelled == expected
    if not stop:
        alphabet = components[0].alphabet
        expected = Dfa(len(oracle.rows), alphabet, 0, frozenset(oracle.accepting), tuple(oracle.rows))
        assert product(components).dfa == expected


def _parity_dfa(seed, half, parity):
    """A random half-state DFA doubled by the parity of the 0s read; accepts only that parity."""
    rng = Random(seed)
    base = [(rng.randrange(half), rng.randrange(half)) for _ in range(half)]
    delta = tuple((2 * base[q // 2][0] + (q % 2 ^ 1), 2 * base[q // 2][1] + q % 2) for q in range(2 * half))
    accepting = frozenset(q for q in range(2 * half) if q % 2 == parity)
    return Dfa(2 * half, BINARY, 0, accepting, delta)


# Each query is empty, so its walk visits the whole reachable product: 9,104
# states.  A walk keeps its codes, its parent links and the seen set, about
# 140 bytes a state at this size whatever the components.  Keeping a row
# per tail state as well, as a tail memo would, costs over 350.
_EVEN, _ODD = _parity_dfa(1, 100, 0), _parity_dfa(2, 100, 1)


@pytest.mark.parametrize(
    "components",
    [
        [_EVEN, _EVEN, _ODD],
        [_ONE, _EVEN, _ODD],
        [_EVEN, _ODD, _ONE],
        [_EVEN, _ONE, _EVEN, _ODD],
        [_EVEN, _ODD, _EVEN, _ONE, _ODD],
    ],
    ids=["repeated", "one-state-first", "one-state-last", "joint-of-three", "joint-of-four"],
)
def test_lss_walk_memory_per_state_is_bounded(components):
    states = len(walk(components, stop=True).parents)
    assert states == 9_104
    tracemalloc.start()
    try:
        assert intersection_lss(components) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200 * states
