import importlib
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from minword import (
    AlphabetMismatchError,
    Alphabet,
    BINARY,
    Dfa,
    accepts,
    equivalent,
    intersection_lss,
    ones_mod_dfa,
    parse_word,
    product,
    ramp_cycle_dfa,
    unary_residue_dfa,
)

from minword.product import walk

from helpers import all_words, dfas, reachable_states, tuple_walk

# The package exports the product() function under the module's name.
product_module = importlib.import_module("minword.product")


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


def test_alphabet_mismatch_message_prints_the_labels():
    swapped = Dfa(1, Alphabet(("1", "0")), 0, frozenset({0}), ((0, 0),))
    with pytest.raises(AlphabetMismatchError) as info:
        product([ones_mod_dfa(2), swapped])
    assert str(info.value) == "components must share one alphabet: ('1', '0') != ('0', '1')"


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


def _code(tag, components):
    """Mixed-radix code of a component state tuple, first component most significant."""
    code = 0
    for q, d in zip(tag, components):
        code = code * d.state_count + q
    return code


@st.composite
def component_lists(draw):
    """1 to 4 components of 1 to 4 states over one alphabet of 1 to 3 letters, any initial states."""
    alphabet = Alphabet(("a", "b", "c")[: draw(st.integers(1, 3))])
    return draw(st.lists(dfas(max_states=4, alphabet=alphabet), min_size=1, max_size=4))


@given(components=component_lists(), stop=st.booleans())
@settings(max_examples=300, deadline=None)
def test_walk_equals_tuple_walk(components, stop):
    found, oracle = walk(components, stop), tuple_walk(components, stop)
    assert found.codes == [_code(tag, components) for tag in oracle.tags]
    assert found.rows == oracle.rows
    assert found.accepting == oracle.accepting
    if stop and found.accepting:
        width = len(components[0].alphabet)
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
        assert product(components).tags == tuple(oracle.tags)


def _recorded_memos(monkeypatch):
    """Patch product's memo table to record each one a walk makes."""
    made = []

    class Recording(product_module._Memo):
        def __init__(self, make):
            super().__init__(make)
            made.append(self)

    monkeypatch.setattr(product_module, "_Memo", Recording)
    return made


def _ring(states, initial, accepting):
    """Symbol 0 steps q to q + 1 mod states, symbol 1 to q + 2 mod states."""
    delta = tuple(((q + 1) % states, (q + 2) % states) for q in range(states))
    return Dfa(states, BINARY, initial, frozenset(accepting), delta)


@pytest.mark.parametrize(
    "depth, components",
    [
        (0, [_ring(3, 1, {1}), _ring(5, 4, {4}), _ring(5, 2, {2})]),
        (1, [_ring(3, 1, {0}), _ring(5, 4, {1}), _ring(5, 2, {4})]),
    ],
)
def test_stopping_walk_fills_the_tail_memo_only_where_it_goes(monkeypatch, depth, components):
    # The tail (second and third components) has 5 * 5 = 25 states.  A walk
    # stopping at depth 0 asks for the start's acceptance and no row.  One
    # stopping at depth 1, on the second of the start's two successors,
    # expands only the start.  Tail acceptance is asked only of states whose
    # first component accepts, so of at most the states found.
    made = _recorded_memos(monkeypatch)
    found = walk(components, stop=True)
    assert found.accepting == [len(found.codes) - 1] == [2 * depth]
    tails = [code % 25 for code in found.codes]
    rows, accepts = made
    assert set(rows) == set(tails[:depth])
    assert tails[-1] in accepts
    assert set(accepts) <= set(tails)


def test_full_walk_fills_the_tail_memo_with_reachable_tails_only(monkeypatch):
    # The two 5-state rings step in lockstep, so the walk reaches 5 of their
    # 25 tail states.
    components = [_ring(3, 0, {0}), _ring(5, 0, {0}), _ring(5, 0, set())]
    made = _recorded_memos(monkeypatch)
    found = walk(components)
    rows, accepts = made
    tails = {code % 25 for code in found.codes}
    assert set(rows) == tails
    assert set(accepts) <= tails
    assert len(tails) == 5


def _parity_dfa(seed, half, parity):
    """A random half-state DFA doubled by the parity of the 0s read; accepts only that parity."""
    rng = Random(seed)
    base = [(rng.randrange(half), rng.randrange(half)) for _ in range(half)]
    delta = tuple((2 * base[q // 2][0] + (q % 2 ^ 1), 2 * base[q // 2][1] + q % 2) for q in range(2 * half))
    accepting = frozenset(q for q in range(2 * half) if q % 2 == parity)
    return Dfa(2 * half, BINARY, 0, accepting, delta)


def test_lss_builds_its_tail_memo_behind_the_largest_component(monkeypatch):
    # Even and odd parity never meet, so the query walks the whole reachable
    # product of the two 20-state DFAs.  Walked with the 1-state DFA first,
    # their product would be the tail and its memo would keep a row for each
    # of the walk's states; walked largest first, the tail is one 20-state
    # DFA and the 1-state one.
    one = Dfa(1, BINARY, 0, frozenset({0}), ((0, 0),))
    a, b = _parity_dfa(1, 10, 0), _parity_dfa(2, 10, 1)
    assert len(walk([a, b]).codes) > 20
    made = _recorded_memos(monkeypatch)
    assert intersection_lss([one, a, b]) is None
    assert made and all(len(memo) <= 20 for memo in made)
