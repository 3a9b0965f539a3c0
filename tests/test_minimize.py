"""Minimization oracles: refinement results cross-checked word by word."""

import pytest
from hypothesis import example, given, settings, strategies as st

from minword import (
    AlphabetMismatchError,
    BINARY,
    Dfa,
    accepts,
    equivalent,
    minimize,
    ones_mod_dfa,
    product,
    ramp_cycle_dfa,
    shortest_accepted,
    state_complexity,
    unary_residue_dfa,
)
from minword.minimize import refine_blocks

from helpers import all_words, bfs_numbering, dfas, minimize_two_pass, moore_blocks, raw_dfas, reachable_states, tuple_walk


def test_minimize_single_state():
    assert minimize(ones_mod_dfa(1)).state_count == 1


@pytest.mark.parametrize("m", range(1, 13))
def test_ones_dfa_is_minimal(m):
    assert state_complexity(ones_mod_dfa(m)) == m


def test_ramp_dfa_is_minimal():
    for m in range(1, 13):
        for n in range(m, 13):
            assert state_complexity(ramp_cycle_dfa(m, n)) == n


@pytest.mark.parametrize("m", range(1, 13))
def test_unary_dfa_is_minimal(m):
    assert state_complexity(unary_residue_dfa(m - 1, m)) == m


def test_indistinguishable_states_merge():
    d = Dfa(2, BINARY, 0, frozenset({0, 1}), ((1, 1), (0, 0)))
    assert minimize(d).state_count == 1


def test_all_accepting_collapses_to_one():
    d = Dfa(3, BINARY, 0, frozenset({0, 1, 2}), ((1, 2), (2, 0), (0, 1)))
    assert state_complexity(d) == 1


def test_dead_state_is_kept():
    # language {"1"}: needs accept, reject-sink and start: 3 states complete
    d = Dfa(3, BINARY, 0, frozenset({1}), ((2, 1), (2, 2), (2, 2)))
    assert state_complexity(d) == 3


def test_equivalent_to_own_minimization_all_2_state():
    for d in raw_dfas(2):
        m = minimize(d)
        assert equivalent(d, m)
        # word-by-word cross-check up to twice the state count
        for w in all_words(2, 2 * d.state_count):
            assert accepts(d, w) == accepts(m, w)


@pytest.mark.parametrize("states", [1, 2, 3])
def test_minimize_equals_two_pass_oracle_on_all_raw_dfas(states):
    for d in raw_dfas(states):
        assert minimize(d) == minimize_two_pass(d)


def test_equivalent_distinguishes_moduli():
    assert not equivalent(ones_mod_dfa(2), ones_mod_dfa(3))
    w = (1, 1)
    assert accepts(ones_mod_dfa(2), w) != accepts(ones_mod_dfa(3), w)


def test_equivalent_reflexive():
    d = ramp_cycle_dfa(2, 4)
    assert equivalent(d, d)


def test_equivalent_requires_same_alphabet():
    with pytest.raises(AlphabetMismatchError):
        equivalent(ones_mod_dfa(2), unary_residue_dfa(0, 2))


def _symmetric_difference_empty(a: Dfa, b: Dfa) -> bool:
    found = tuple_walk([a, b])
    xor_accepting = frozenset(
        idx
        for idx, (qa, qb) in enumerate(found.tags)
        if (qa in a.accepting) != (qb in b.accepting)
    )
    probe = Dfa(len(found.rows), a.alphabet, 0, xor_accepting, tuple(found.rows))
    return shortest_accepted(probe) is None


def test_canonical_equality_matches_symmetric_difference_all_2_state_pairs():
    dfas_2 = list(raw_dfas(2))
    canon = [minimize(d) for d in dfas_2]
    for i, a in enumerate(dfas_2):
        for j, b in enumerate(dfas_2):
            assert (canon[i] == canon[j]) == _symmetric_difference_empty(a, b)


@given(d=dfas(max_states=5))
@settings(max_examples=100, deadline=None)
def test_minimize_idempotent(d):
    m = minimize(d)
    assert minimize(m) == m


@given(d=dfas(max_states=5))
@settings(max_examples=100, deadline=None)
def test_minimize_preserves_language(d):
    m = minimize(d)
    assert m.state_count <= d.state_count
    for w in all_words(2, 2 * d.state_count):
        assert accepts(d, w) == accepts(m, w)


@given(d=dfas(max_states=5), data=st.data())
@settings(max_examples=100, deadline=None)
def test_canonical_form_is_tidy(d, data):
    m = minimize(d)
    assert m.initial == 0
    assert reachable_states(m) == set(range(m.state_count))
    # no further merges possible
    assert state_complexity(m) == m.state_count
    assert m == minimize_two_pass(d)
    # the numbering is breadth-first: a BFS from the initial state visits 0..k-1 in order
    assert bfs_numbering(m) == list(range(m.state_count))
    # renaming the input's states, the initial one included, changes nothing
    perm = data.draw(st.permutations(range(d.state_count)))
    renamed = Dfa(
        d.state_count,
        d.alphabet,
        perm[d.initial],
        frozenset(perm[q] for q in d.accepting),
        tuple(
            tuple(perm[t] for t in d.delta[perm.index(q)])
            for q in range(d.state_count)
        ),
    )
    assert minimize(renamed) == m


@given(d=dfas(max_states=5))
@example(d=Dfa(3, BINARY, 1, frozenset(), ((1, 2), (2, 0), (0, 0))))
@example(d=Dfa(3, BINARY, 1, frozenset({0, 1, 2}), ((1, 2), (2, 0), (0, 0))))
@settings(max_examples=200, deadline=None)
def test_state_complexity_is_the_minimal_state_count(d):
    # Read off refine_blocks with no minimized Dfa built; the empty and the
    # all-accepting language have one state.
    assert state_complexity(d) == minimize(d).state_count


@given(components=st.lists(dfas(max_states=4), min_size=2, max_size=3))
@settings(max_examples=100, deadline=None)
def test_minimize_meets_components(components):
    assert minimize(*components) == minimize(product(components).dfa)


def test_minimize_meet_requires_same_alphabet():
    with pytest.raises(AlphabetMismatchError):
        minimize(ones_mod_dfa(2), unary_residue_dfa(0, 2))


def test_minimize_needs_a_component():
    with pytest.raises(ValueError):
        minimize()


@st.composite
def tables(draw):
    # Successor rows of 1-12 states over 1-3 letters and acceptance flags;
    # nothing makes the states reachable from state 0, so unreachable ones
    # are common.
    width = draw(st.integers(1, 3))
    n = draw(st.integers(1, 12))
    rows = [[draw(st.integers(0, n - 1)) for _ in range(width)] for _ in range(n)]
    return rows, [draw(st.booleans()) for _ in range(n)]


@given(table=tables())
@settings(max_examples=300, deadline=None)
def test_refine_blocks_equals_moore_refinement(table):
    # The slow path checks the fast one: the same blocks, numbered the same.
    rows, accepting = table
    assert refine_blocks(rows, accepting) == moore_blocks(rows, accepting)


@pytest.mark.parametrize("flag", [False, True])
@pytest.mark.parametrize("width", [1, 2, 3])
def test_refine_blocks_one_sided_split(flag, width):
    rows = [[(q + a + 1) % 5 for a in range(width)] for q in range(5)]
    assert refine_blocks(rows, [flag] * 5) == moore_blocks(rows, [flag] * 5) == ([0] * 5, 1)


def test_refine_blocks_no_states():
    assert refine_blocks([], []) == moore_blocks([], []) == ([], 0)


@pytest.mark.parametrize("period", [1, 3, 5, 9, 15, 45])
def test_refine_blocks_merges_a_periodic_cycle(period):
    # A 45-state cycle accepting every period-th state folds into period
    # blocks: deep merges, where the chains below split every state apart.
    rows = [[(q + 1) % 45, q] for q in range(45)]
    accepting = [q % period == period - 1 for q in range(45)]
    assert refine_blocks(rows, accepting) == moore_blocks(rows, accepting)
    assert refine_blocks(rows, accepting)[1] == period


@pytest.mark.parametrize("dfa", [ramp_cycle_dfa(m, 45) for m in range(1, 46)] + [ones_mod_dfa(45)])
def test_refine_blocks_on_deep_chains(dfa):
    # The pair witnesses of verify --max-n 45: chains whose states are told
    # apart only at distance up to 45.
    accepting = [q in dfa.accepting for q in range(dfa.state_count)]
    assert refine_blocks(dfa.delta, accepting) == moore_blocks(dfa.delta, accepting)
    assert minimize(dfa) == minimize_two_pass(dfa)
    assert minimize(dfa).state_count == 45
