import copy
import inspect
import pickle
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minword
from minword import (
    Alphabet,
    BINARY,
    Dfa,
    InvalidDfaError,
    ProductResult,
    accepts,
    build_witness_report,
    canonical_languages,
    enumerate_dfas,
    format_word,
    loads,
    minimize,
    ones_mod_dfa,
    product,
    ramp_cycle_dfa,
    run,
    shortest_accepted,
    tightness_search,
    unary_residue_dfa,
    validate,
)
from minword.product import Walk

from helpers import all_words, binary_words, dfas, random_dfa, reachable_states


def test_alphabet_rejects_empty_and_duplicates():
    with pytest.raises(ValueError, match="nonempty"):
        Alphabet(())
    with pytest.raises(ValueError, match="distinct"):
        Alphabet(("a", "a"))
    with pytest.raises(ValueError, match="nonempty string"):
        Alphabet(("a", ""))
    with pytest.raises(ValueError, match="nonempty string"):
        Alphabet(("a", 1))
    with pytest.raises(ValueError, match="UTF-8"):
        Alphabet(("a", "\ud800"))


def test_alphabet_order_and_index():
    ab = Alphabet(("x", "y"))
    assert len(ab) == 2
    assert list(ab) == ["x", "y"]
    assert ab.index("y") == 1


def test_validate_smallest_complete_dfa():
    validate(Dfa(1, BINARY, 0, frozenset({0}), ((0, 0),)))


def test_validate_delta_entry_out_of_range():
    bad = Dfa(1, BINARY, 0, frozenset({0}), ((0, 1),))
    with pytest.raises(InvalidDfaError, match="delta entry out of range"):
        validate(bad)


def test_validate_construction_output():
    validate(ones_mod_dfa(3))


@pytest.mark.parametrize(
    "dfa, message",
    [
        (Dfa(2, BINARY, 2, frozenset(), ((0, 0), (1, 1))), "initial"),
        (Dfa(2, BINARY, 0, frozenset({5}), ((0, 0), (1, 1))), "accepting"),
        (Dfa(2, BINARY, 0, frozenset(), ((0, 0),)), "rows"),
        (Dfa(2, BINARY, 0, frozenset(), ((0, 0), (1,))), "entries"),
        (Dfa(0, BINARY, 0, frozenset(), ()), "positive"),
    ],
)
def test_validate_reports_first_violation(dfa, message):
    with pytest.raises(InvalidDfaError, match=message):
        validate(dfa)


def test_run_counts_ones():
    assert run(ones_mod_dfa(3), (1, 1)) == 2


def test_run_empty_word_is_initial():
    for d in (ones_mod_dfa(3), ramp_cycle_dfa(2, 3)):
        assert run(d, ()) == d.initial


def test_run_ramp_example():
    assert run(ramp_cycle_dfa(2, 3), (1, 0, 0)) == 0


def test_run_rejects_out_of_range_symbol():
    with pytest.raises(ValueError, match="symbol index"):
        run(ones_mod_dfa(2), (0, 2))
    with pytest.raises(ValueError, match="symbol index"):
        run(ones_mod_dfa(2), (-1,))
    # The first bad symbol is named, after valid ones too, whatever the
    # word's type.
    for word, bad in [((0, 1, 5, 7), 5), ((0, 1, 1, -1), -1)]:
        for given in (word, list(word), iter(word)):
            with pytest.raises(ValueError, match=f"^symbol index {bad} out of range for alphabet of size 2$"):
                run(ones_mod_dfa(2), given)


@given(d=dfas(), word=binary_words)
def test_run_takes_any_iterable_word(d, word):
    state = run(d, word)
    assert run(d, list(word)) == state
    assert run(d, (s for s in word)) == state


def test_accepts_ones_parity():
    assert accepts(ones_mod_dfa(2), (1, 1))
    assert not accepts(ones_mod_dfa(2), (1,))


def test_accepts_ramp_word():
    assert accepts(ramp_cycle_dfa(2, 3), (1, 0, 0, 1, 0))


def test_reachable_single_state():
    assert reachable_states(Dfa(1, BINARY, 0, frozenset({0}), ((0, 0),))) == {0}


def test_reachable_ramp():
    assert reachable_states(ramp_cycle_dfa(2, 3)) == {0, 1, 2}


def test_reachable_excludes_disconnected_state():
    d = Dfa(2, BINARY, 0, frozenset({1}), ((0, 0), (0, 1)))
    assert reachable_states(d) == {0}


@given(d=dfas(), u=binary_words, v=binary_words)
def test_run_fold_composition(d, u, v):
    assert run(d, u + v) == run(d._replace(initial=run(d, u)), v)


@given(d=dfas(max_states=4))
@settings(max_examples=50)
def test_accepts_total_on_short_words(d):
    for w in all_words(2, 4):
        accepts(d, w)


@given(d=dfas(max_states=4))
@settings(max_examples=50)
def test_reachable_matches_word_enumeration(d):
    # states reachable by words of length < state_count are all of them
    by_words = {run(d, w) for w in all_words(2, d.state_count - 1)}
    assert by_words == reachable_states(d)


@given(d=dfas())
def test_reachable_closed_under_delta(d):
    reach = reachable_states(d)
    assert d.initial in reach
    for q in reach:
        for target in d.delta[q]:
            assert target in reach


def _joined(alphabet, word):
    # format_word as a join of a list of labels, one lookup a symbol.
    return "".join([alphabet[sym] for sym in word])


@given(st.data())
def test_format_word_matches_the_label_join(data):
    labels = data.draw(st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=6, unique=True))
    alphabet = Alphabet(labels)
    word = data.draw(st.lists(st.integers(0, len(alphabet) - 1), max_size=20).map(tuple))
    assert format_word(alphabet, word) == _joined(alphabet, word)


def test_format_word_short_words_and_wide_alphabets():
    labels = Alphabet(("a", "bc", "def"))
    assert format_word(labels, ()) == ""
    assert format_word(labels, (2,)) == "def"
    assert format_word(labels, (1, 2, 0, 1)) == "bcdefabc"
    assert format_word(BINARY, (1, 0, 0, 1, 0)) == "10010"
    wide = Alphabet(f"s{i}" for i in range(1200))
    assert format_word(wide, (1199,)) == "s1199"
    assert format_word(wide, (0, 1199, 7)) == _joined(wide, (0, 1199, 7)) == "s0s1199s7"
    with pytest.raises(IndexError):
        format_word(BINARY, (0, 2))
    with pytest.raises(IndexError):
        format_word(wide, (1200,))


def test_dfa_is_hashable():
    d = Dfa(2, BINARY, 0, frozenset({1}), ((0, 1), (1, 0)))
    twin = Dfa(2, Alphabet(["0", "1"]), 0, frozenset([1]), ((0, 1), (1, 0)))
    assert d == twin and hash(d) == hash(twin)
    assert d != d._replace(initial=1)
    assert d != Dfa(2, Alphabet(("0", "2")), 0, frozenset({1}), ((0, 1), (1, 0)))
    # A Dfa is a named tuple, so it equals the plain tuple of its fields.
    assert d == (2, BINARY, 0, frozenset({1}), ((0, 1), (1, 0)))


def test_dfa_repr_names_fields():
    d = Dfa(2, Alphabet(("a", "b")), 0, frozenset({1}), ((0, 1), (1, 0)))
    assert repr(d) == (
        "Dfa(state_count=2, alphabet=Alphabet(symbols=('a', 'b')), initial=0, "
        "accepting=frozenset({1}), delta=((0, 1), (1, 0)))"
    )


RECORDS = {
    "Dfa": (lambda: ones_mod_dfa(2), "initial"),
    "LssResult": (lambda: shortest_accepted(ones_mod_dfa(2)), "length"),
    "ProductResult": (lambda: product([ones_mod_dfa(2), ramp_cycle_dfa(2, 3)]), "dfa"),
    "WitnessReport": (lambda: build_witness_report(2, 3), "passed"),
    "SearchReport": (lambda: tightness_search([2]), "max_lss"),
}


@pytest.mark.parametrize("build, field", RECORDS.values(), ids=RECORDS.keys())
def test_records_are_immutable_values(build, field):
    record = build()
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before
    # Records equal plain tuples, so == alone cannot show that a copy kept its type.
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    copies = [pickle.loads(pickle.dumps(record, protocol)) for protocol in protocols]
    for twin in copies + [copy.copy(record), copy.deepcopy(record)]:
        assert twin == record and hash(twin) == hash(record)
        assert type(twin) is type(record)


def test_alphabet_is_an_immutable_value():
    ab = Alphabet(("a", "b"))
    with pytest.raises(AttributeError):
        ab.labels = ("c", "d")
    with pytest.raises(TypeError):
        ab[0] = "c"
    with pytest.raises(TypeError):
        del ab[0]
    assert ab == ("a", "b")
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    copies = [pickle.loads(pickle.dumps(ab, protocol)) for protocol in protocols]
    for twin in copies + [copy.copy(ab), copy.deepcopy(ab)]:
        assert twin == ab and hash(twin) == hash(ab)
        assert type(twin) is Alphabet


def test_public_surface_is_frozen():
    # A name added to or dropped from the package's surface must change this test too.
    assert sorted(minword.__all__) == [
        "Alphabet",
        "AlphabetMismatchError",
        "BINARY",
        "BudgetExceededError",
        "Dfa",
        "InterchangeError",
        "InvalidDfaError",
        "LssResult",
        "ProductResult",
        "SearchReport",
        "UNARY",
        "WitnessReport",
        "Word",
        "accepts",
        "build_witness_report",
        "canonical_languages",
        "closed_form_witness",
        "dumps",
        "enumerate_dfas",
        "equivalent",
        "format_word",
        "from_document",
        "intersection_lss",
        "load_path",
        "loads",
        "minimize",
        "ones_mod_dfa",
        "product",
        "ramp_cycle_dfa",
        "run",
        "save_path",
        "shortest_accepted",
        "state_complexity",
        "tightness_search",
        "to_document",
        "unary_residue_dfa",
        "validate",
        "verify_range",
    ]
    assert list(inspect.signature(run).parameters) == ["dfa", "word"]
    assert ProductResult._fields == ("dfa",)
    assert Walk._fields == ("parents", "rows", "accepting")
    assert not hasattr(BINARY, "symbols")


# Dfa converts nothing, so every builder must hand it a frozenset and tuples.
BUILDERS = {
    "ones_mod_dfa": lambda: [ones_mod_dfa(3)],
    "ramp_cycle_dfa": lambda: [ramp_cycle_dfa(2, 4)],
    "unary_residue_dfa": lambda: [unary_residue_dfa(1, 3)],
    "enumerate_dfas": lambda: list(enumerate_dfas(2)),
    "minimize": lambda: [minimize(random_dfa(Random(seed), 6)) for seed in range(20)],
    "product": lambda: [product([ones_mod_dfa(2), ramp_cycle_dfa(2, 3)]).dfa],
    "canonical_languages": lambda: list(canonical_languages(2)),
    "loads": lambda: [
        loads('{"states":2,"alphabet":["a","b"],"initial":0,"accepting":[1],"delta":[[0,1],[1,0]]}')
    ],
}


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
def test_builders_emit_frozen_fields(build):
    for d in build():
        assert type(d.alphabet) is Alphabet
        assert type(d.accepting) is frozenset
        assert type(d.delta) is tuple
        assert all(type(row) is tuple for row in d.delta)
        hash(d)


@given(st.data())
def test_word_lex_order_matches_index_order(data):
    # alphabet order "0" < "1" means index tuples compare like label strings
    u = data.draw(binary_words)
    v = data.draw(binary_words)
    if len(u) == len(v):
        assert (u < v) == (format_word(BINARY, u) < format_word(BINARY, v))
