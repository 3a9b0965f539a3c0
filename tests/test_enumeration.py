from concurrent.futures import Future

import pytest

from minword import (
    BudgetExceededError,
    canonical_languages,
    enumerate_dfas,
    intersection_lss,
    minimize,
    shortest_accepted,
    state_complexity,
    tightness_search,
    validate,
)
from minword import enumeration
from minword.enumeration import _merge, _scan_slice


@pytest.mark.parametrize("states, expected", [(1, 2), (2, 64), (3, 5832)])
def test_enumeration_counts(states, expected):
    assert sum(1 for _ in enumerate_dfas(states)) == expected


def test_enumerated_dfas_are_valid_with_initial_zero():
    seen = set()
    for d in enumerate_dfas(2):
        validate(d)
        assert d.initial == 0
        seen.add(d)
    assert len(seen) == 64


def test_enumeration_rejects_zero_states():
    with pytest.raises(ValueError):
        list(enumerate_dfas(0))


def test_languages_with_one_state():
    langs = canonical_languages(1)
    assert len(langs) == 2
    empties = [shortest_accepted(d) is None for d in langs]
    assert sorted(empties) == [False, True]


def test_languages_with_two_states_frozen_count():
    # regression value computed by this enumeration on first verified run
    assert len(canonical_languages(2)) == 26


def test_canonical_language_members_are_canonical():
    for s in (1, 2, 3):
        for d in canonical_languages(s):
            assert state_complexity(d) == d.state_count
            assert d.state_count <= s
            assert minimize(d) == d
            # every state is reachable, so the search's nonempty filter holds
            assert bool(d.accepting) == (shortest_accepted(d) is not None)


def test_canonical_languages_sorted_deterministically():
    assert canonical_languages(2) == canonical_languages(2)
    langs = canonical_languages(2)
    assert len(set(langs)) == len(langs)


def test_dedup_soundness_raw_vs_canonical_2_2():
    raw_best = -1
    pool = list(enumerate_dfas(2))
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


def test_search_budget_guard_tuples():
    with pytest.raises(BudgetExceededError, match="budget"):
        tightness_search([2, 2], max_tuples=10)


def test_search_budget_guard_tuples_after_enumeration():
    # 64 raw 2-state DFAs fit the budget; 25 * 25 nonempty tuples do not.
    with pytest.raises(BudgetExceededError, match="625 tuples"):
        tightness_search([2, 2], max_tuples=100)


def test_search_budget_guard_raw_dfas_before_enumeration(monkeypatch):
    # 8 * 8 product states pass the state guard; 8**16 * 2**8 raw DFAs must
    # be refused before enumeration starts, not after it hangs.
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_dfas called despite the budget")

    monkeypatch.setattr(enumeration, "enumerate_dfas", refuse)
    with pytest.raises(BudgetExceededError, match="raw DFAs"):
        tightness_search([8, 8], max_tuples=10)


def test_search_caps_workers_at_cpu_count(monkeypatch):
    requested = []

    class InlinePool:
        """Stands in for ProcessPoolExecutor: runs tasks inline, starts no process."""

        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(enumeration, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 3)
    report = tightness_search([2, 2], workers=1000)
    assert requested == [3]
    assert report == tightness_search([2, 2], workers=1)


def test_partitioned_scans_merge_to_same_report():
    whole = tightness_search([2, 2])
    lists = tuple(
        tuple(d for d in canonical_languages(s) if shortest_accepted(d) is not None)
        for s in (2, 2)
    )
    outer = len(lists[0])
    for chunks in (2, 3, 5, outer):
        bounds = [outer * w // chunks for w in range(chunks + 1)]
        parts = [_scan_slice(lists, bounds[w], bounds[w + 1]) for w in range(chunks)]
        best = _merge(parts)
        assert best.lss == whole.max_lss
        assert best.dfas == whole.witness_dfas
        assert best.word == whole.witness_word


def test_worker_pool_matches_single_worker():
    sequential = tightness_search([2, 2], workers=1)
    parallel = tightness_search([2, 2], workers=2)
    assert parallel == sequential


def test_pumping_bound_all_enumerated_2_state():
    for d in enumerate_dfas(2):
        result = shortest_accepted(d)
        if result is not None:
            assert result.length <= d.state_count - 1
