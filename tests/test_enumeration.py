import hashlib
import importlib
import itertools
import random
import tracemalloc

import pytest

from minword import (
    accepts,
    Alphabet,
    BINARY,
    BudgetExceededError,
    canonical_languages,
    Dfa,
    dumps,
    enumerate_dfas,
    intersection_lss,
    minimize,
    shortest_accepted,
    state_complexity,
    tightness_search,
    UNARY,
    validate,
)
from minword import enumeration

from helpers import apart_sets, bfs_numbering, column_masks, minimize_two_pass, moore_blocks, raw_dfas, scan_oracle


TERNARY = Alphabet(("a", "b", "c"))


@pytest.mark.parametrize("states, expected", [(1, 2), (2, 64), (3, 5832)])
def test_enumeration_counts(states, expected):
    assert sum(1 for _ in raw_dfas(states)) == expected


@pytest.mark.parametrize(
    "alphabet, expected, tables",
    [
        (BINARY, (2, 48, 1728, 83968), (1, 12, 216, 5248)),
        (UNARY, (2, 8, 24, 64), (1, 2, 3, 4)),
        (TERNARY, (2, 224, 63720), (1, 56, 7965)),
    ],
    ids=["binary", "unary", "ternary"],
)
def test_accessible_enumeration_counts(alphabet, expected, tables):
    # Binary tables: 1, 12, 216 and 5,248 (initially connected DFAs up to
    # renaming), each with 2**states accepting sets.
    counts, table_counts = [], []
    for n in range(1, len(expected) + 1):
        deltas = [d.delta for d in enumerate_dfas(n, alphabet)]
        counts.append(len(deltas))
        table_counts.append(len(set(deltas)))
    assert (tuple(counts), tuple(table_counts)) == (expected, tables)


def test_one_state_over_a_large_alphabet():
    # One state over 1,200 letters is a 1,200-cell table, deeper than the
    # default recursion limit: the fill must not recurse per cell.
    letters = Alphabet(tuple(f"s{i}" for i in range(1200)))
    assert [sorted(d.accepting) for d in enumerate_dfas(1, letters)] == [[], [0]]
    assert len(canonical_languages(1, letters)) == 2
    report = tightness_search([1], letters)
    assert (report.max_lss, report.attained, report.witness_word) == (0, True, ())
    # With no list the prefix is empty, and none of the 1,199 swaps is made.
    assert enumeration._letter_images({}, [], len(letters)) == []


def test_enumerated_dfas_are_valid_with_initial_zero():
    seen = set()
    for d in enumerate_dfas(2):
        validate(d)
        assert d.initial == 0
        seen.add(d)
    assert len(seen) == 48


ORACLE_CASES = [
    pytest.param(n, alphabet, id=f"{name}-{n}")
    for name, alphabet, largest in (("unary", UNARY, 4), ("binary", BINARY, 3), ("ternary", TERNARY, 2))
    for n in range(1, largest + 1)
]


@pytest.mark.parametrize("states, alphabet", ORACLE_CASES)
def test_enumerate_dfas_is_the_bfs_numbered_raw_pool(states, alphabet):
    numbered = [d for d in raw_dfas(states, alphabet) if bfs_numbering(d) == list(range(states))]
    candidates = list(enumerate_dfas(states, alphabet))
    assert candidates == numbered
    # A Dfa equals the plain tuple of its fields, so the comparison above
    # would also pass on tuples.
    assert all(type(d) is Dfa for d in candidates)


@pytest.mark.parametrize("states, alphabet", ORACLE_CASES)
def test_canonical_languages_equal_the_raw_build(states, alphabet):
    # The old build: minimize every raw DFA, dedupe, sort by serialization.
    raw = tuple(sorted({minimize(d) for d in raw_dfas(states, alphabet)}, key=dumps))
    assert canonical_languages(states, alphabet) == raw


@pytest.mark.parametrize("states, alphabet", ORACLE_CASES + [pytest.param(5, UNARY, id="unary-5")])
def test_build_keeps_the_candidates_minimize_leaves_whole(states, alphabet):
    # The slow path as oracle: the build keeps a candidate exactly when
    # minimizing it removes no state.  minimize_two_pass checks the same
    # without the Moore refinement of minimize, and the build uses neither.
    kept = {d for d in canonical_languages(states, alphabet) if d.state_count == states}
    for d in enumerate_dfas(states, alphabet):
        whole = minimize(d).state_count == states
        assert (d in kept) == whole == (minimize_two_pass(d).state_count == states)


def _tables(states, alphabet, accessible):
    if accessible:
        return sorted({d.delta for d in enumerate_dfas(states, alphabet)})
    width = len(alphabet)
    return [
        tuple(flat[q * width : (q + 1) * width] for q in range(states))
        for flat in itertools.product(range(states), repeat=states * width)
    ]


# Every table up to unary 4, binary 3 and ternary 2, unreachable states
# included; the accessible tables of unary 5 and ternary 3.
APART_CASES = [
    pytest.param(n, alphabet, False, id=f"{name}-{n}")
    for name, alphabet, largest in (("unary", UNARY, 4), ("binary", BINARY, 3), ("ternary", TERNARY, 2))
    for n in range(1, largest + 1)
] + [
    pytest.param(5, UNARY, True, id="unary-5-accessible"),
    pytest.param(3, TERNARY, True, id="ternary-3-accessible"),
]


def _inside(states):
    sets = range(1 << states)
    return [sum(1 << f for f in sets if f >> q & 1) for q in range(states)]


@pytest.mark.parametrize("states, alphabet, accessible", APART_CASES)
def test_apart_sets_agree_with_moore_refinement(states, alphabet, accessible):
    # The per-table fixed point, the oracle of the build's pass: bit f of a
    # table's apart sets is set exactly when Moore refinement under
    # accepting set f leaves every state in its own block.
    sets = range(1 << states)
    for delta in _tables(states, alphabet, accessible):
        kept = apart_sets(delta, _inside(states))
        assert kept >> len(sets) == 0
        for f in sets:
            apart = moore_blocks(delta, [f >> q & 1 for q in range(states)])[1] == states
            assert (kept >> f & 1) == apart, (delta, f)


def _flat(tables):
    # The tables joined flat, as the build passes them to _apart_columns.
    return bytes(itertools.chain.from_iterable(itertools.chain.from_iterable(tables)))


@pytest.mark.parametrize("states, alphabet, accessible", APART_CASES)
def test_apart_columns_equal_the_per_table_fixed_point(states, alphabet, accessible):
    # The pass over all tables at once decides every (table, set) as the
    # per-table fixed point does: on the whole list, unreachable states
    # included, on the list shuffled, and on each of the first 64 tables
    # alone.
    sets = range(1 << states)
    tables = _tables(states, alphabet, accessible)
    expected = {}
    for delta in tables:
        kept = apart_sets(delta, _inside(states))
        expected[delta] = [kept >> f & 1 for f in sets]
    shuffled = list(tables)
    random.Random(states).shuffle(shuffled)
    for some in [tables, shuffled] + [[delta] for delta in tables[:64]]:
        columns = enumeration._apart_columns(_flat(some), states, len(alphabet))
        assert len(columns) == len(sets)
        assert all(len(column) == len(some) for column in columns)
        assert [[int(column[t] != 0) for column in columns] for t in range(len(some))] == [
            expected[delta] for delta in some
        ]


def _per_table_build(states, alphabet):
    # The build before the pass over all tables: one fixed point per table.
    languages = []
    for k in range(1, states + 1):
        sets = range(1 << k)
        groups = [[] for _ in sets]
        for delta, candidates in itertools.groupby(enumerate_dfas(k, alphabet), key=lambda d: d.delta):
            kept = apart_sets(delta, _inside(k))
            for f, d in enumerate(candidates):
                if kept >> f & 1:
                    groups[f].append(d)
        for f in sorted(sets, key=lambda f: (*[q for q in range(k) if f >> q & 1], k)):
            languages += groups[f]
    return tuple(languages)


@pytest.mark.parametrize("states, alphabet", [(4, BINARY), (3, "abc")])
def test_canonical_languages_equal_the_per_table_build(states, alphabet):
    canonical_languages.cache_clear()
    assert canonical_languages(states, alphabet) == _per_table_build(states, alphabet)


def test_build_draws_every_candidate(monkeypatch):
    # The traced benchmark's enumeration.raw_dfas counts the yields of
    # enumerate_dfas: all 2 + 48 + 1,728 + 83,968 accessible candidates up
    # to binary 4 states, the dropped ones too.
    drawn, real = [0], enumeration.enumerate_dfas

    def counting(*args):
        for d in real(*args):
            drawn[0] += 1
            yield d

    monkeypatch.setattr(enumeration, "enumerate_dfas", counting)
    canonical_languages.cache_clear()
    canonical_languages(4)
    canonical_languages.cache_clear()
    assert drawn == [85_746]


def test_search_draws_each_size_once(monkeypatch):
    # The build is cached per k: sizes 2 and 3 draw the 2 + 48 candidates of
    # k = 1, 2 once between them, then the 1,728 of k = 3.
    drawn, real = [], enumeration.enumerate_dfas

    def counting(*args):
        drawn.append(args[0])
        yield from real(*args)

    monkeypatch.setattr(enumeration, "enumerate_dfas", counting)
    canonical_languages.cache_clear()
    try:
        assert tightness_search([2, 2, 3]).max_lss == 7
    finally:
        canonical_languages.cache_clear()
    assert drawn == [1, 2, 3]


def test_build_runs_no_refinement(monkeypatch):
    # The build decides apartness for whole tables, so neither the
    # refinement nor minimize is called while the languages are made.
    def refuse(*args):
        raise AssertionError("the language build refined a candidate")

    minimize_module = importlib.import_module("minword.minimize")
    monkeypatch.setattr(minimize_module, "refine_blocks", refuse)
    monkeypatch.setattr(minimize_module, "minimize", refuse)
    monkeypatch.setattr(enumeration, "minimize", refuse)
    monkeypatch.setattr(enumeration, "refine_blocks", refuse, raising=False)
    canonical_languages.cache_clear()
    assert [sum(d.state_count == k for d in canonical_languages(3)) for k in (1, 2, 3)] == [2, 24, 1028]


def test_four_state_languages_in_key_order():
    # The languages-4 workload's list: the counts of Domaratzki, Kisman and
    # Shallit (2002) and the digest of its serialized order, as the old
    # minimize-dedupe-sort build gave it.
    langs = canonical_languages(4)
    assert [sum(d.state_count == k for d in langs) for k in (1, 2, 3, 4)] == [2, 24, 1028, 56014]
    text = "\n".join(dumps(d) for d in langs)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4b851f5c96f43a8e9d744ad87d9d32c1646dbe36bdb4aaedb9d4d909a6d90a51"
    )


def test_enumeration_rejects_zero_states():
    with pytest.raises(ValueError):
        list(enumerate_dfas(0))


@pytest.mark.parametrize("states", [0, -2])
def test_canonical_languages_rejects_nonpositive_states(states):
    with pytest.raises(ValueError, match=f"state count must be positive, got {states}$"):
        canonical_languages(states)


def test_languages_with_one_state():
    langs = canonical_languages(1)
    assert len(langs) == 2
    empties = [shortest_accepted(d) is None for d in langs]
    assert sorted(empties) == [False, True]


def test_languages_with_two_states_frozen_count():
    # regression value computed by this enumeration on first verified run
    assert len(canonical_languages(2)) == 26


def test_canonical_language_members_are_canonical():
    # The search starts every column entry at state 0, so each member must.
    cases = [(s, BINARY) for s in (1, 2, 3)] + [(s, UNARY) for s in (1, 2, 3)]
    cases += [(s, TERNARY) for s in (1, 2)]
    for s, alphabet in cases:
        for d in canonical_languages(s, alphabet):
            assert state_complexity(d) == d.state_count
            assert d.state_count <= s
            assert minimize(d) == d
            assert d.initial == 0
            # every state is reachable, so the search's nonempty filter holds
            assert bool(d.accepting) == (shortest_accepted(d) is not None)


def test_canonical_languages_cached_once_however_the_alphabet_is_passed(monkeypatch):
    calls, real = [], enumeration.enumerate_dfas

    def counting_enumerate(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(enumeration, "enumerate_dfas", counting_enumerate)
    canonical_languages.cache_clear()
    first = canonical_languages(2)
    assert canonical_languages(2, BINARY) is first
    assert canonical_languages(2, alphabet=Alphabet(("0", "1"))) is first
    # One build per key; it scans the candidates of every size up to 2.
    assert calls == [(1, BINARY), (2, BINARY)]


def test_search_rejects_a_duplicate_label_alphabet():
    with pytest.raises(ValueError, match="alphabet labels must be distinct"):
        tightness_search([2], alphabet=("0", "0"))


def test_plain_tuple_alphabet_fills_the_cache_with_alphabets():
    # A plain tuple equals BINARY, so both share one cache entry, whose DFAs
    # must carry an Alphabet whoever fills it.
    canonical_languages.cache_clear()
    plain = canonical_languages(2, ("0", "1"))
    assert canonical_languages(2, BINARY) is plain
    assert all(type(d.alphabet) is Alphabet for d in plain)
    assert all(type(d.alphabet) is Alphabet for d in enumerate_dfas(2, ("0", "1")))


def test_list_alphabet_is_accepted():
    assert canonical_languages(2, ["0", "1"]) == canonical_languages(2)
    assert list(enumerate_dfas(2, ["a", "b"])) == list(enumerate_dfas(2, Alphabet(("a", "b"))))
    assert tightness_search([2, 2], alphabet=["0", "1"]) == tightness_search([2, 2])


def test_canonical_languages_sorted_deterministically():
    assert canonical_languages(2) == canonical_languages(2)
    langs = canonical_languages(2)
    assert len(set(langs)) == len(langs)


def test_dedup_soundness_raw_vs_canonical_2_2():
    raw_best = -1
    pool = list(raw_dfas(2))
    for a in pool:
        for b in pool:
            result = intersection_lss([a, b])
            if result is not None and result.length > raw_best:
                raw_best = result.length
    report = tightness_search([2, 2])
    assert raw_best == report.max_lss == 3


def test_search_single_size_one():
    report = tightness_search([1])
    assert report.max_lss == 0
    assert report.target == 0
    assert report.attained


def test_search_pair_2_2():
    report = tightness_search([2, 2])
    assert report.attained
    assert report.max_lss == 3
    assert report.languages_per_size == (26, 26)
    assert report.tuples_examined == 25 * 25
    assert report.tuples_skipped == 26 * 26 - 25 * 25
    # the witness tuple reproduces the reported maximum
    recheck = intersection_lss(list(report.witness_dfas))
    assert recheck.length == report.max_lss
    assert recheck.witness == report.witness_word


def test_search_pair_2_3():
    report = tightness_search([2, 3])
    assert report.attained
    assert report.max_lss == 5
    assert report.max_lss <= report.target


def test_search_never_exceeds_target():
    for sizes in ([1], [2], [1, 3], [2, 2], [2, 3]):
        report = tightness_search(sizes)
        assert report.max_lss <= report.target


def test_search_rejects_empty_sizes():
    with pytest.raises(ValueError):
        tightness_search([])


def test_search_rejects_zero_size():
    with pytest.raises(ValueError):
        tightness_search([2, 0])


def test_search_budget_guard_product_states():
    with pytest.raises(BudgetExceededError, match="states"):
        tightness_search([9, 8])


def test_search_budget_guard_tuples(monkeypatch):
    monkeypatch.setattr(enumeration, "SEARCH_BUDGET", 10)
    with pytest.raises(BudgetExceededError, match="budget"):
        tightness_search([2, 2])


def _refuse_rows(monkeypatch):
    def refuse(*args):
        raise AssertionError("a row was passed despite the budget")

    monkeypatch.setattr(enumeration, "_row_pass", refuse)


def test_search_budget_guard_tuples_after_enumeration(monkeypatch):
    # 5,832 raw 3-state DFAs fit the budget; (3,3)'s 1,053 rows, each
    # against the 17-word mask of the other size's 1,053 languages, do not,
    # and are refused before the first row.
    monkeypatch.setattr(enumeration, "SEARCH_BUDGET", 6000)
    _refuse_rows(monkeypatch)
    with pytest.raises(BudgetExceededError, match=r"17901 row words \(1053 rows of a 17-word mask\)"):
        tightness_search([3, 3])


def test_search_budget_guard_raw_dfas_before_enumeration(monkeypatch):
    # 8 * 8 product states pass the state guard; 8**16 * 2**8 raw DFAs must
    # be refused before enumeration starts, not after it hangs.
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_dfas called despite the budget")

    monkeypatch.setattr(enumeration, "enumerate_dfas", refuse)
    monkeypatch.setattr(enumeration, "SEARCH_BUDGET", 10)
    with pytest.raises(BudgetExceededError, match="raw DFAs"):
        tightness_search([8, 8])


def test_budget_counts_row_words_not_tuples(monkeypatch):
    # (2,2,2) has 25**3 = 15,625 nonempty tuples, but the last size is the
    # mask column and the fold of the other two leaves 135 classes: 135 rows
    # against a one-word mask of 25 languages.
    monkeypatch.setattr(enumeration, "SEARCH_BUDGET", 135)
    report = tightness_search([2, 2, 2])
    assert report.tuples_examined == 15_625
    lists = [[d for d in canonical_languages(2) if d.accepting]] * 3
    assert (report.max_lss, report.witness_dfas, report.witness_word) == scan_oracle(lists)

    monkeypatch.setattr(enumeration, "SEARCH_BUDGET", 134)
    _refuse_rows(monkeypatch)
    with pytest.raises(BudgetExceededError, match=r"135 row words \(135 rows of a 1-word mask\)"):
        tightness_search([2, 2, 2])


def _size_tuples(values):
    return [t for k in (1, 2, 3) for t in itertools.product(values, repeat=k)]


def _oracle_cases():
    # Size-1 components take no part in the fold or the walk, so these put
    # size 1 at every position of up to three components, and all of them.
    # (2,2,2) is a size whose fold merges prefixes into shared classes.
    binary = [(1, 3), (2, 2), (2, 3), (3, 2), (2, 1, 2), (2, 2, 2)] + _size_tuples((1, 2))
    cases = {(sizes, BINARY): ",".join(map(str, sizes)) for sizes in binary}
    cases.update({(sizes, UNARY): "unary-" + ",".join(map(str, sizes)) for sizes in _size_tuples((1, 2, 3))})
    # Unary (2,5,3) attains its target of 29 with the mask column in the
    # middle, so it stops at the first row whose prefix passes the best's.
    cases[(2, 5, 3), UNARY] = "unary-2,5,3"
    # Unary (2,3,2,3) has its one size-2 list in two columns with a size-3
    # list between them, before the mask column.
    cases[(2, 3, 2, 3), UNARY] = "unary-2,3,2,3"
    for sizes in ((2, 2), (1,), (2,), (1, 2), (2, 1), (2, 1, 2)):
        cases[sizes, TERNARY] = "ternary-" + ",".join(map(str, sizes))
    return [pytest.param(sizes, alphabet, id=name) for (sizes, alphabet), name in cases.items()]


_SCANNED = {}


def _scanned(sizes, alphabet):
    # scan_oracle of the nonempty lists, once per case.
    if (sizes, alphabet) not in _SCANNED:
        lists = [
            [d for d in canonical_languages(s, alphabet) if shortest_accepted(d) is not None]
            for s in sizes
        ]
        _SCANNED[sizes, alphabet] = scan_oracle(lists)
    return _SCANNED[sizes, alphabet]


# The binary and ternary cases with a list before the mask column skip rows
# by the letter rule on the prefix, the row key before the mask column; the
# binary (3,2) puts the mask column first, with an empty prefix.  Unary
# cases make no swap.  With the mask column between two lists, unary
# (2,3,2) and (2,5,3) read a prefix that is neither empty nor the whole row
# key, and (2,5,3) stops at its target on it.  A list repeated is met once
# per sorted tuple, in a fold step or in the rows.
@pytest.mark.parametrize("sizes, alphabet", _oracle_cases())
def test_fold_equals_scan_oracle(sizes, alphabet):
    report = tightness_search(sizes, alphabet)
    assert (report.max_lss, report.witness_dfas, report.witness_word) == _scanned(sizes, alphabet)


# The same cases with no fold, and with a fold only of lists short enough
# that the product of their lengths is at most 30 (unary size 2 has 5
# nonempty languages, unary size 3 has 17, binary size 2 has 25).  Under
# both caps unary (2,3,2,3) keeps its rows unfolded, so they skip the
# tuples whose two size-2 indices fall across the size-3 column.
@pytest.mark.parametrize("cap", [0, 30])
@pytest.mark.parametrize("sizes, alphabet", _oracle_cases())
def test_fold_cap_sweep_equals_scan_oracle(monkeypatch, sizes, alphabet, cap):
    monkeypatch.setattr(enumeration, "MAX_FOLD_PRODUCTS", cap)
    report = tightness_search(sizes, alphabet)
    assert (report.max_lss, report.witness_dfas, report.witness_word) == _scanned(sizes, alphabet)


def _count_fold_meets(monkeypatch):
    # (fold meets, rows): every meet is a minimize call, every row a _row_pass.
    # A row of several columns passes the meet made just before it, which
    # its pass takes off again, so what stays are the fold's meets; a row of
    # one column passes its entry and makes none.
    calls, rows, made = [], [], [None]
    real_minimize, real_pass = enumeration.minimize, enumeration._row_pass

    def counting_minimize(*dfas):
        calls.append(tuple(d.state_count for d in dfas))
        made[0] = real_minimize(*dfas)
        return made[0]

    def row_pass(row, *args):
        rows.append(row)
        if row is made[0]:
            calls.pop()
        made[0] = None
        return real_pass(row, *args)

    monkeypatch.setattr(enumeration, "minimize", counting_minimize)
    monkeypatch.setattr(enumeration, "_row_pass", row_pass)
    return calls, rows


def _swapped(languages):
    # Where the swap of the binary letters sends each language of the list.
    index = {d: i for i, d in enumerate(languages)}
    return [index[minimize(d._replace(delta=tuple(row[::-1] for row in d.delta)))] for d in languages]


# (2,2,2) has 25 nonempty languages per size, one list for both sizes
# before the mask column.  The fold guard counts its 25 * 25 pairs, so the
# fold runs only under a cap of at least 625.  It then meets the 325
# unordered pairs once each, the 25 that hold the full language too, and
# the 135 classes it keeps are the rows; without it the rows are the 325
# unordered pairs too, one list filling both columns.  The letter rule
# passes 78 of the classes, or 187 of the unordered pairs; its image map
# walks each language once and makes no meet.
@pytest.mark.parametrize("cap, counted", [(0, 0), (624, 0), (625, 625)])
def test_fold_cap_walks_the_rest(monkeypatch, cap, counted):
    calls, rows = _count_fold_meets(monkeypatch)
    monkeypatch.setattr(enumeration, "MAX_FOLD_PRODUCTS", cap)
    report = tightness_search([2, 2, 2])
    assert (len(calls), len(rows)) == ((325, 78) if counted else (0, 187))
    swapped = _swapped([d for d in canonical_languages(2) if d.accepting])
    pairs = list(itertools.product(range(25), repeat=2))
    assert sum((swapped[i], swapped[j]) >= (i, j) for i, j in pairs) == 325
    assert sum(i <= j and (swapped[i], swapped[j]) >= (i, j) for i, j in pairs) == 187
    lists = [[d for d in canonical_languages(2) if d.accepting]] * 3
    assert (report.max_lss, report.witness_dfas, report.witness_word) == scan_oracle(lists)


def test_rows_meet_a_repeated_list_once_per_sorted_tuple():
    # With no letter images, one list object in two columns gives the pairs
    # that combinations_with_replacement gives, in its order, and across a
    # column of two-index keys the product rows whose first key is at most
    # their third, keys joined and split at the place.  An equal list that
    # is another object is a column of its own.
    languages = [d for d in canonical_languages(2, UNARY) if d.accepting]
    one = [((i,), d) for i, d in enumerate(languages)]
    other = [((0, 1), "a"), ((0, 3), "b"), ((2, 0), "c")]
    pairs = itertools.combinations_with_replacement(one, 2)
    assert list(enumeration._rows([one, one], 0, [])) == [((), a + b, (d, e)) for (a, d), (b, e) in pairs]
    rows = itertools.product(one, other, one)
    assert list(enumeration._rows([one, other, one], 1, [])) == [
        (a, b + c, (d, e, f)) for (a, d), (b, e), (c, f) in rows if a <= c
    ]
    assert len(list(enumeration._rows([one, list(one)], 0, []))) == len(one) ** 2
    # Three columns of one list, and two lists each in two columns
    # interleaved: each column starts where its list's previous one stands.
    triples = itertools.combinations_with_replacement(one, 3)
    assert list(enumeration._rows([one] * 3, 3, [])) == [(a + b + c, (), (d, e, f)) for (a, d), (b, e), (c, f) in triples]
    rows = itertools.product(one, other, one, other)
    assert list(enumeration._rows([one, other, one, other], 3, [])) == [
        (a + b, c + g, (d, e, f, h)) for (a, d), (b, e), (c, f), (g, h) in rows if a <= c and b <= g
    ]


def test_letter_rule_passes_the_least_class_of_each_orbit(monkeypatch):
    # The (2,2) fold of (2,2,2), made here over all 625 ordered pairs, keeps
    # 135 classes, each under its least key; the letter rule passes those
    # whose key is no larger than its image, 78, in fold order.  (4,2,2)
    # folds the same list with itself, but its mask column comes first, so
    # the row key before it is empty: no swap lowers that, and all 135
    # classes are rows, with no image map.
    languages = [d for d in canonical_languages(2) if d.accepting]
    swapped = _swapped(languages)
    classes = {}
    for (i, a), (j, b) in itertools.product(enumerate(languages), repeat=2):
        meet = minimize(a, b)
        if meet.accepting:
            classes.setdefault(meet, (i, j))
    least = [d for d, (i, j) in classes.items() if (swapped[i], swapped[j]) >= (i, j)]
    calls, rows = _count_fold_meets(monkeypatch)
    tightness_search([2, 2, 2])
    assert (len(classes), len(calls), rows) == (135, 325, least)
    assert len(least) == 78
    calls.clear()
    rows.clear()
    tightness_search([4, 2, 2])
    assert (len(calls), rows) == (325, list(classes))


# The letter rule reads the prefix, the row key before the mask column's
# place, wherever that is: the rows it passes give the report of the same
# search with no swap.  (2,3,2) and (2,3,1,2) skip the rows whose first
# index a swap lowers: under cap 0, where a row is a tuple of raw indices
# of one list, in sorted order, the 116 of the 325 pairs i <= j led by 10
# of the 25 binary size-2 languages; folded, 41 of the 135 classes.
# (2,2,3,2) reads a prefix of two indices; unfolded, its rows are the
# 2,925 sorted triples.  (3,2,2,2) puts the mask column first, so its
# prefix is empty and every row is passed.
@pytest.mark.parametrize(
    "sizes, cap, passed",
    [
        pytest.param((2, 3, 2), 0, (209, 325), id="2,3,2-unfolded"),
        pytest.param((2, 3, 2), enumeration.MAX_FOLD_PRODUCTS, (94, 135), id="2,3,2"),
        pytest.param((2, 2, 3, 2), 0, (1805, 2925), id="2,2,3,2-unfolded"),
        pytest.param((2, 2, 3, 2), enumeration.MAX_FOLD_PRODUCTS, (198, 281), id="2,2,3,2"),
        pytest.param((2, 3, 1, 2), 0, (209, 325), id="2,3,1,2-unfolded"),
        pytest.param((2, 3, 1, 2), enumeration.MAX_FOLD_PRODUCTS, (94, 135), id="2,3,1,2"),
        pytest.param((3, 2, 2, 2), enumeration.MAX_FOLD_PRODUCTS, (281, 281), id="3,2,2,2"),
    ],
)
def test_letter_rule_reads_the_prefix(monkeypatch, sizes, cap, passed):
    monkeypatch.setattr(enumeration, "MAX_FOLD_PRODUCTS", cap)
    _, rows = _count_fold_meets(monkeypatch)
    found = []
    for letter_images in (enumeration._letter_images, lambda *args: []):
        monkeypatch.setattr(enumeration, "_letter_images", letter_images)
        rows.clear()
        report = tightness_search(sizes)
        found.append(((report.max_lss, report.witness_dfas, report.witness_word), len(rows)))
    assert found[0][0] == found[1][0]
    assert (found[0][1], found[1][1]) == passed


@pytest.mark.parametrize(
    "states, alphabet",
    [pytest.param(3, BINARY, id="binary-3"), pytest.param(2, TERNARY, id="ternary-2")],
)
def test_letter_images_rename_every_word(states, alphabet):
    # Image a of language i accepts exactly the words of language i with
    # letters a and a + 1 swapped.  Two DFAs of at most n states each that
    # agree on every word shorter than 2n accept the same language.  Each
    # swap is an involution, so each map is a permutation of the list.
    languages = [d for d in canonical_languages(states, alphabet) if d.accepting]
    swaps = enumeration._letter_images({states: languages}, [states], len(alphabet))
    assert len(swaps) == len(alphabet) - 1
    words = [w for n in range(2 * states) for w in itertools.product(range(len(alphabet)), repeat=n)]
    for a, [image] in enumerate(swaps):
        assert all(image[image[i]] == i for i in range(len(languages)))
        rename = {a: a + 1, a + 1: a}
        for d, i in zip(languages, image):
            assert [accepts(d, w) for w in words] == [accepts(languages[i], [rename.get(b, b) for b in w]) for w in words]


def test_size_one_component_makes_no_product(monkeypatch):
    # A size-1 component has no column, so (2,2,1,2) folds like (2,2,2):
    # 325 unordered pairs, one meet each, the 25 that hold the full language
    # too, and 78 of the 135 classes passed as rows.
    calls, rows = _count_fold_meets(monkeypatch)
    report = tightness_search([2, 2, 1, 2])
    assert (len(calls), len(rows)) == (325, 78)
    lists = [[d for d in canonical_languages(s) if d.accepting] for s in (2, 2, 1, 2)]
    assert (report.max_lss, report.witness_dfas, report.witness_word) == scan_oracle(lists)


def test_every_walk_is_a_meet_or_the_witness(monkeypatch):
    # (2,2,2) meets 325 fold pairs, one minimize call and one walk each,
    # walks each of its 25 languages once with the letters swapped, and
    # passes 78 of its 135 classes as rows with no meet; the only other
    # walk spells the witness word.
    walks, meets, rows = [], _meet_widths(monkeypatch), _passed_rows(monkeypatch)
    for name in ("minword.product", "minword.minimize", "minword.shortest", "minword.enumeration"):
        module = importlib.import_module(name)
        real = module.walk

        def counting_walk(components, stop=False, real=real):
            walks.append(stop)
            return real(components, stop)

        monkeypatch.setattr(module, "walk", counting_walk)
    tightness_search([2, 2, 2])
    assert (len(walks), len(meets), len(rows)) == (351, 325, 78)
    assert walks.count(True) == 1


def test_fold_keeps_a_class_met_only_by_the_full_language(monkeypatch):
    # (3,2,3): the last 3 is the mask column, and the fold of the other two
    # keeps one class per distinct nonempty intersection, 12,649 of them,
    # each a row against a 17-word mask of 1,053 languages.  Some 3-state
    # languages are reached only by meeting the full language, which must
    # leave them as they are.
    monkeypatch.setattr(enumeration, "SEARCH_BUDGET", 6000)
    _refuse_rows(monkeypatch)
    with pytest.raises(BudgetExceededError, match=rf"{12_649 * 17} row words \(12649 rows of a 17-word mask\)"):
        tightness_search([3, 2, 3])


def _full_language():
    return next(d for d in canonical_languages(1) if d.accepting)


def _meet_widths(monkeypatch):
    # The arity of every meet.
    widths, real = [], enumeration.minimize

    def counting_minimize(*components):
        widths.append(len(components))
        return real(*components)

    monkeypatch.setattr(enumeration, "minimize", counting_minimize)
    return widths


def _passed_rows(monkeypatch):
    # The DFA of every row pass, in order.
    rows, real = [], enumeration._row_pass

    def recording_pass(row, *args):
        rows.append(row)
        return real(row, *args)

    monkeypatch.setattr(enumeration, "_row_pass", recording_pass)
    return rows


def test_size_one_components_take_no_part(monkeypatch):
    # (3,3,1) passes the same rows as (3,3): the nonempty 3-state languages
    # as they are, against the mask of the other 3, with no meet, up to the
    # 408th, the first to reach the target 8, but for those that the swap
    # of the letters sends to a smaller index: 215 rows.
    meets, passed = _meet_widths(monkeypatch), _passed_rows(monkeypatch)
    report = tightness_search([3, 3, 1])
    rows = list(passed)
    passed.clear()
    pair = tightness_search([3, 3])
    languages = [d for d in canonical_languages(3) if d.accepting]
    swapped = _swapped(languages)
    assert rows == passed == [d for i, d in enumerate(languages[:408]) if swapped[i] >= i]
    assert len(rows) == 215 and pair.attained and not meets
    assert report.witness_dfas == pair.witness_dfas + (_full_language(),)
    assert (report.target, report.max_lss, report.witness_word, report.attained, report.tuples_examined) == (
        pair.target,
        pair.max_lss,
        pair.witness_word,
        pair.attained,
        pair.tuples_examined,
    )


def test_fold_stops_before_a_step_over_the_cap(monkeypatch):
    # (3,3,3): the last 3 is the mask column; folding the other two would
    # make 1,053 * 1,053 meets, over MAX_FOLD_PRODUCTS, so the search passes
    # rows before making any.  The one meet seen is the first row's own, of
    # the full languages that head both size-3 lists.
    class Passed(Exception):
        pass

    def refuse(*args):
        raise Passed

    calls, _ = _count_fold_meets(monkeypatch)
    monkeypatch.setattr(enumeration, "_row_pass", refuse)
    assert 1053 * 1053 > enumeration.MAX_FOLD_PRODUCTS
    with pytest.raises(Passed):
        tightness_search([3, 3, 3])
    assert calls == [(1, 1)]


@pytest.mark.parametrize("states, alphabet", ORACLE_CASES + [pytest.param(None, BINARY, id="full")])
def test_column_masks_oracle(states, alphabet):
    # Bit i of a mask stands for nonempty language i, set one language at a
    # time.  The full language alone is the size-1 column, the mask column of
    # a search with no size above 1.
    if states is None:
        states, languages = 1, (_full_language(),)
    else:
        languages = tuple(d for d in canonical_languages(states, alphabet) if d.accepting)
    expected_moves = [[[0] * states for _ in alphabet] for _ in range(states)]
    expected_accepts = [0] * states
    for i, d in enumerate(languages):
        for l, row in enumerate(d.delta):
            for a, l2 in enumerate(row):
                expected_moves[l][a][l2] |= 1 << i
        for l in d.accepting:
            expected_accepts[l] |= 1 << i
    moves, accepts = enumeration._mask_column(states, Alphabet(alphabet))
    assert accepts == expected_accepts
    assert moves == [
        [[(l2, mask) for l2, mask in enumerate(targets) if mask] for targets in by_symbol]
        for by_symbol in expected_moves
    ]
    assert (moves, accepts) == column_masks(languages)


@pytest.mark.parametrize(
    "states, alphabet, step",
    [
        pytest.param(n, alphabet, 1, id=f"{name}-{n}")
        for name, alphabet in (("binary", BINARY), ("ternary", TERNARY), ("unary", UNARY))
        for n in (1, 2, 3)
    ]
    + [pytest.param(4, BINARY, 3, id="binary-4-every-3rd")],
)
def test_nonempty_language_is_the_list_entry(states, alphabet, step):
    # The witness's mask language is made from its index alone.
    languages = [d for d in canonical_languages(states, alphabet) if d.accepting]
    for i in range(0, len(languages), step):
        assert enumeration._nonempty_language(states, Alphabet(alphabet), i) == languages[i]
    for index in (len(languages), -1):
        with pytest.raises(IndexError, match=f"^no nonempty language {index} of size <= {states}$"):
            enumeration._nonempty_language(states, Alphabet(alphabet), index)


def test_build_4_held_memory():
    # The size-4 groups hold one byte string per accepting set: 8 bytes for
    # each of the 56,014 four-state languages, about 0.45 MB, and about
    # 0.5 MB with the smaller sizes.  Tuple tables beside a 0/1 column per
    # accepting set held about 1.7 MB.
    canonical_languages.cache_clear()
    tracemalloc.start()
    try:
        enumeration._build(4, BINARY)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 1_000_000


def test_column_masks_peak_memory():
    # The size-4 mask column read off the cached build's byte strings, step
    # slices of them joined per (state, symbol): the tracemalloc peak is
    # about 0.42 MB.  Joining per-table records first peaked at 1.1 MB.
    enumeration._build(4, BINARY)
    enumeration._mask_column.cache_clear()
    tracemalloc.start()
    try:
        enumeration._mask_column(4, BINARY)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_search_4_peak_memory():
    # All of search --sizes 4 in-process, the build included, peaks at about
    # 1.2 MB.  Making the 57,068 DFAs of canonical_languages(4) for the mask
    # column, as the search once did, peaks at over 9 MB.
    canonical_languages.cache_clear()
    tracemalloc.start()
    try:
        tightness_search([4])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        canonical_languages.cache_clear()
    assert peak < 2_500_000


def test_apart_columns_peak_memory():
    # The 5,248 binary 4-state tables: each of the 6 pairs' ints and 12
    # successor columns holds 2 bytes a table, about 10 KB, and the masks
    # are rebuilt every sweep, so the pass peaks at about 0.35 MB.  Keeping
    # a mask per (pair, symbol, successor pair) instead would hold 72 such
    # ints, about 0.76 MB more.
    flat = _flat([d.delta for d in itertools.islice(enumerate_dfas(4), 0, None, 16)])
    tracemalloc.start()
    try:
        enumeration._apart_columns(flat, 4, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 600_000


def test_mask_column_is_the_language_list(monkeypatch):
    # The mask column is read off the language build: canonical_languages
    # makes DFAs only for the sizes that become columns, never for the mask.
    seen, real = [], enumeration.canonical_languages

    def recording(states, alphabet=BINARY):
        seen.append(states)
        return real(states, alphabet)

    monkeypatch.setattr(enumeration, "canonical_languages", recording)
    tightness_search([4])
    assert seen == []
    tightness_search([2, 3])
    assert seen == [2]


def test_search_refuses_over_64_components(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("languages enumerated despite the component limit")

    monkeypatch.setattr(enumeration, "enumerate_dfas", refuse)
    monkeypatch.setattr(enumeration, "canonical_languages", refuse)
    with pytest.raises(BudgetExceededError, match="65 components, over the limit of 64"):
        tightness_search((2,) + (1,) * 64)


def test_search_runs_64_components():
    report = tightness_search((2,) + (1,) * 63)
    alone = tightness_search((2,))
    assert report.witness_dfas == alone.witness_dfas + (_full_language(),) * 63
    assert (report.max_lss, report.witness_word, report.attained) == (alone.max_lss, alone.witness_word, True)


def test_pumping_bound_all_enumerated_2_state():
    for d in raw_dfas(2):
        result = shortest_accepted(d)
        if result is not None:
            assert result.length <= d.state_count - 1
