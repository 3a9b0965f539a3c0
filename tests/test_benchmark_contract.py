"""What the benchmark in perfbench/ reads from minword.

perfbench/run.py checks its own outputs with these names and attributes; a
rename or a changed return type would otherwise show only in a benchmark
run.  The tracer names its spans after each function's home module, and
counts the yields of generator functions.
"""

import importlib
import inspect
import sys
from pathlib import Path

import minword
from minword import build_witness_report, cli, load_path, ones_mod_dfa, product, ramp_cycle_dfa
from minword import save_path, shortest_accepted, tightness_search


def test_checks_read_results(tmp_path):
    paths = [tmp_path / "ones.json", tmp_path / "ramp.json"]
    save_path(ones_mod_dfa(2), paths[0])
    save_path(ramp_cycle_dfa(2, 3), paths[1])
    dfas = [load_path(p) for p in paths]
    big = product(dfas).dfa
    assert big.state_count == 6
    assert big.accepting
    found = shortest_accepted(big)
    assert found.length == 5
    assert minword.intersection_lss(dfas).length == 5
    assert all(minword.accepts(d, found.witness) for d in dfas)

    report = tightness_search([2, 2])
    assert (report.tuples_examined, report.max_lss) == (625, 3)
    assert build_witness_report(2, 3).passed is True


def test_tracer_finds_functions_by_module():
    enumeration = sys.modules["minword.enumeration"]
    assert callable(enumeration.canonical_languages.cache_clear)
    assert inspect.isgeneratorfunction(enumeration.enumerate_dfas)
    assert tightness_search.__module__ == "minword.enumeration"
    assert load_path is minword.interchange.load_path
    assert load_path.__module__ == "minword.interchange"


def test_search_calls_shortest(monkeypatch):
    # The traced shortest.us_per_call divides by the calls into
    # minword.shortest; the search makes one, the walk of its witness tuple.
    enumeration = sys.modules["minword.enumeration"]
    calls, real = [], enumeration.intersection_lss
    assert real.__module__ == "minword.shortest"

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(enumeration, "intersection_lss", counting)
    tightness_search([2, 2, 3])
    assert len(calls) >= 1


def test_traced_run_denominators_are_nonzero(monkeypatch):
    # perfbench/run.py --trace 1 divides by the yields of enumerate_dfas and
    # by the calls into minimize and shortest; a language build that skips
    # any of them makes the traced run raise ZeroDivisionError.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    spans = importlib.import_module("spans")
    recorded = spans.Spans()
    patch = spans.Patch(recorded)
    patch.install()
    try:
        root = recorded.open(recorded.name_id("bench.run"))
        minword.canonical_languages.cache_clear()
        minword.tightness_search([2, 2])
        minword.build_witness_report(2, 3)
        recorded.close(root)
    finally:
        patch.undo()
    summary = spans.Summary(recorded)
    # The traced enumeration.raw_dfas: the build of the 2-state languages
    # scans the 2 one-state and the 48 two-state accessible candidates.
    assert recorded.counters["enumeration.enumerate_dfas"] == 50
    assert summary.layer_calls("minimize") > 0
    assert summary.layer_calls("shortest") > 0


def test_cache_clear_empties_every_search_cache():
    # The traced run clears canonical_languages' cache before each timed
    # pass; a cache it left full would make the pass skip the build.
    enumeration = sys.modules["minword.enumeration"]
    caches = [f for f in vars(enumeration).values() if callable(getattr(f, "cache_info", None))]
    assert len(caches) >= 3
    tightness_search([2, 3])
    assert all(f.cache_info().currsize for f in caches)
    minword.canonical_languages.cache_clear()
    assert [f.cache_info().currsize for f in caches] == [0] * len(caches)


def test_mask_only_search_draws_every_candidate(monkeypatch):
    # search --sizes 4 makes no canonical_languages call, but the traced
    # enumeration.raw_dfas still counts every candidate its build draws: at
    # size 3, 2 + 48 + 1,728.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    spans = importlib.import_module("spans")
    recorded = spans.Spans()
    patch = spans.Patch(recorded)
    patch.install()
    try:
        minword.canonical_languages.cache_clear()
        tightness_search([3])
    finally:
        patch.undo()
    assert recorded.counters["enumeration.enumerate_dfas"] == 1778


def test_cli_main_returns_exit_code(capsys):
    code = cli.main(["witness", "--m", "2", "--n", "3", "--format", "structured"])
    assert type(code) is int and code == 0
    assert '"passed": true' in capsys.readouterr().out
