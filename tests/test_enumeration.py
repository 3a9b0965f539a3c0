import hashlib
import importlib
import itertools
import tracemalloc

import pytest

from minword import (
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

from helpers import bfs_numbering, minimize_two_pass, moore_blocks, raw_dfas, scan_oracle


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


@pytest.mark.parametrize("states, alphabet, accessible", APART_CASES)
def test_apart_sets_agree_with_moore_refinement(states, alphabet, accessible):
    # The slow path checks the fast one: bit f of a table's apart sets is
    # set exactly when Moore refinement under accepting set f leaves every
    # state in its own block.
    sets = range(1 << states)
    inside = [sum(1 << f for f in sets if f >> q & 1) for q in range(states)]
    for delta in _tables(states, alphabet, accessible):
        kept = enumeration._apart_sets(delta, inside)
        assert kept >> len(sets) == 0
        for f in sets:
            apart = moore_blocks(delta, [f >> q & 1 for q in range(states)])[1] == states
            assert (kept >> f & 1) == apart, (delta, f)


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
    for sizes in ((2, 2), (1,), (2,), (1, 2), (2, 1)):
        cases[sizes, TERNARY] = "ternary-" + ",".join(map(str, sizes))
    return [pytest.param(sizes, alphabet, id=name) for (sizes, alphabet), name in cases.items()]


@pytest.mark.parametrize("sizes, alphabet", _oracle_cases())
def test_fold_equals_scan_oracle(sizes, alphabet):
    report = tightness_search(sizes, alphabet)
    lists = [
        [d for d in canonical_languages(s, alphabet) if shortest_accepted(d) is not None]
        for s in sizes
    ]
    assert (report.max_lss, report.witness_dfas, report.witness_word) == scan_oracle(lists)


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


# (2,2,2) has 25 nonempty languages per size.  The first fold step meets
# 25 * 25 pairs, so it runs only under a cap of at least 625.  Each pair is
# one meet, the 49 that hold the full language (25 + 25 - 1) too, and the
# 135 classes it keeps are the rows; without it the 625 pairs are.
@pytest.mark.parametrize("cap, meets", [(0, 0), (624, 0), (625, 625)])
def test_fold_cap_walks_the_rest(monkeypatch, cap, meets):
    calls, rows = _count_fold_meets(monkeypatch)
    monkeypatch.setattr(enumeration, "MAX_FOLD_PRODUCTS", cap)
    report = tightness_search([2, 2, 2])
    assert (len(calls), len(rows)) == (meets, 135 if meets else 625)
    lists = [[d for d in canonical_languages(2) if d.accepting]] * 3
    assert (report.max_lss, report.witness_dfas, report.witness_word) == scan_oracle(lists)


def test_size_one_component_makes_no_product(monkeypatch):
    # A size-1 component has no column, so (2,2,1,2) folds like (2,2,2):
    # 625 pairs, one meet each, the 49 that hold the full language too, and
    # 135 rows, one per class.
    calls, rows = _count_fold_meets(monkeypatch)
    report = tightness_search([2, 2, 1, 2])
    assert (len(calls), len(rows)) == (625, 135)
    lists = [[d for d in canonical_languages(s) if d.accepting] for s in (2, 2, 1, 2)]
    assert (report.max_lss, report.witness_dfas, report.witness_word) == scan_oracle(lists)


def test_every_walk_is_a_meet_or_the_witness(monkeypatch):
    # (2,2,2) meets 625 fold pairs, one minimize call and one walk each, and
    # passes its 135 classes as rows with no meet; the only other walk
    # spells the witness word.
    walks, meets, rows = [], _meet_widths(monkeypatch), _passed_rows(monkeypatch)
    for name in ("minword.product", "minword.minimize", "minword.shortest"):
        module = importlib.import_module(name)
        real = module.walk

        def counting_walk(components, stop=False, real=real):
            walks.append(stop)
            return real(components, stop)

        monkeypatch.setattr(module, "walk", counting_walk)
    tightness_search([2, 2, 2])
    assert (len(walks), len(meets), len(rows)) == (626, 625, 135)
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
    # 408th, the first to reach the target 8.
    meets, passed = _meet_widths(monkeypatch), _passed_rows(monkeypatch)
    report = tightness_search([3, 3, 1])
    rows = list(passed)
    passed.clear()
    pair = tightness_search([3, 3])
    assert rows == passed == [d for d in canonical_languages(3) if d.accepting][:408]
    assert pair.attained and not meets
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
    # Bit i of a mask stands for language i, set one language at a time.
    if states is None:
        languages = (_full_language(),)
    else:
        languages = tuple(d for d in canonical_languages(states, alphabet) if d.accepting)
    top = max(d.state_count for d in languages)
    expected_moves = [[[0] * top for _ in alphabet] for _ in range(top)]
    expected_accepts = [0] * top
    for i, d in enumerate(languages):
        for l, row in enumerate(d.delta):
            for a, l2 in enumerate(row):
                expected_moves[l][a][l2] |= 1 << i
        for l in d.accepting:
            expected_accepts[l] |= 1 << i
    moves, accepts = enumeration._column_masks(languages)
    assert accepts == expected_accepts
    assert moves == [
        [[(l2, mask) for l2, mask in enumerate(targets) if mask] for targets in by_symbol]
        for by_symbol in expected_moves
    ]


def test_column_masks_peak_memory():
    # The flat table of the size-4 column is 57,067 records of 12 bytes,
    # about 0.7 MB, and the tracemalloc peak about 1.4 MB.  A build that
    # joins one bytes object per language peaks at over 6 MB.
    languages = tuple(d for d in canonical_languages(4) if d.accepting)
    tracemalloc.start()
    try:
        enumeration._column_masks(languages)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000


def test_mask_column_is_the_language_list(monkeypatch):
    # (2,3): the 3-state list is the mask column, passed as is, not wrapped.
    seen, real = [], enumeration._column_masks

    def recording(languages):
        seen.append(languages)
        return real(languages)

    monkeypatch.setattr(enumeration, "_column_masks", recording)
    tightness_search([2, 3])
    (languages,) = seen
    assert tuple(languages) == tuple(d for d in canonical_languages(3) if d.accepting)


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
