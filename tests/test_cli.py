import argparse
import hashlib
import json
import signal
import subprocess
import sys

import pytest

from minword import (
    BINARY,
    Dfa,
    WitnessReport,
    ones_mod_dfa,
    ramp_cycle_dfa,
    save_path,
    unary_residue_dfa,
)
from minword import cli, enumeration, reports
from minword.cli import build_parser, main

from helpers import src_env


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- witness ----------------------------------------------------------------


def test_witness_text(capsys):
    code, out, err = run_cli(capsys, "witness", "--m", "2", "--n", "3")
    assert code == 0
    assert "expected: 5" in out
    assert "lss: 5" in out
    assert "witness: 10010" in out
    assert "passed: true" in out


def test_witness_swaps_sizes_with_notice(capsys):
    code, out, err = run_cli(capsys, "witness", "--m", "5", "--n", "2")
    assert code == 0
    assert "swapped" in err
    assert "expected: 9" in out


def test_witness_degenerate_pair(capsys):
    code, out, _ = run_cli(capsys, "witness", "--m", "1", "--n", "1")
    assert code == 0
    assert "lss: 0" in out
    assert "witness: \n" in out


def test_witness_structured(capsys):
    code, out, _ = run_cli(capsys, "witness", "--m", "2", "--n", "3", "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["command"] == "witness"
    assert doc["lss"] == 5
    assert doc["expected"] == 5
    assert doc["formula_word"] == "10010"
    assert doc["formula_word_accepted"] is True
    assert doc["sc_ones"] == 2
    assert doc["sc_ramp"] == 3
    assert doc["passed"] is True
    assert "timestamp" not in doc


def test_witness_structured_deterministic(capsys):
    _, first, _ = run_cli(capsys, "witness", "--m", "3", "--n", "4", "--format", "structured")
    _, second, _ = run_cli(capsys, "witness", "--m", "3", "--n", "4", "--format", "structured")
    assert first == second


def test_witness_timestamp_flag(capsys):
    _, out, _ = run_cli(capsys, "witness", "--m", "2", "--n", "2", "--format", "structured", "--timestamp")
    assert "timestamp" in json.loads(out)


def test_witness_csv(capsys):
    code, out, _ = run_cli(capsys, "witness", "--m", "2", "--n", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0] == "m,n,expected,lss,witness,formula_word,formula_word_accepted,sc_ones,sc_ramp,passed"
    assert lines[0].split(",") == list(WitnessReport._fields)
    assert lines[1].startswith("2,3,5,5,10010")


def test_witness_rejects_zero_size(capsys):
    code, _, err = run_cli(capsys, "witness", "--m", "0", "--n", "2")
    assert code == 2
    assert "error" in err


def test_witness_rejects_zero_size_before_swapping(capsys):
    code, out, err = run_cli(capsys, "witness", "--m", "3", "--n", "0")
    assert code == 2
    assert out == ""
    assert err == "error: sizes must be positive, got m=3, n=0\n"


def test_witness_over_walk_limit_fails_fast(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("build_witness_report called despite the walk limit")

    monkeypatch.setattr(cli, "build_witness_report", refuse)
    code, out, err = run_cli(capsys, "witness", "--m", "2049", "--n", "2048")
    assert code == 2
    assert out == ""
    assert err == "error: the (2049, 2048) pair needs 4196352 states, over the walk limit of 4194304\n"


def test_witness_fails_unless_state_complexities_are_m_and_n(capsys, monkeypatch):
    monkeypatch.setattr(reports, "state_complexity", lambda dfa: 1)
    code, out, _ = run_cli(capsys, "witness", "--m", "2", "--n", "3")
    assert code == 1
    assert "lss: 5" in out
    assert "passed: false" in out


def test_dot_export_is_gone(capsys, tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["export-dot", "ones", "--m", "1"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'export-dot'" in capsys.readouterr().err
    out_dir = tmp_path / "dots"
    with pytest.raises(SystemExit) as excinfo:
        main(["witness", "--m", "2", "--n", "3", "--dot", str(out_dir)])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --dot" in capsys.readouterr().err
    assert not out_dir.exists()


# --- verify -----------------------------------------------------------------


def test_verify_text(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 6 + 1  # header, six pairs, summary
    assert "all passed" in lines[-1]


def test_verify_row_count(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 10  # header + 4*5/2 rows


def test_verify_single_pair(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "1", "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert len(doc["rows"]) == 1
    assert doc["rows"][0]["expected"] == 0


def test_verify_structured_deterministic(capsys):
    _, first, _ = run_cli(capsys, "verify", "--max-n", "3", "--format", "structured")
    _, second, _ = run_cli(capsys, "verify", "--max-n", "3", "--format", "structured")
    assert first == second


def test_verify_20_structured_digest(capsys):
    # Frozen from the tuple-keyed product walk: the witness words of all 210
    # pairs, spelled back from the walk's parent links.
    code, out, _ = run_cli(capsys, "verify", "--max-n", "20", "--format", "structured")
    doc = json.loads(out)
    assert (code, doc["all_passed"], len(doc["rows"])) == (0, True, 210)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "363823ee5a7f1d09e337e8b017593ce99e7c8907268a471624196cf4324d519f"
    )


def test_verify_full_range(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "30", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 465
    assert all(line.endswith("true") for line in lines[1:])


def test_verify_walk_limit_admits_75(capsys, monkeypatch):
    assert sum(m * n for m in range(1, 76) for n in range(m, 76)) == 4_132_975
    monkeypatch.setattr(cli, "verify_range", lambda max_n: [])
    code, _, err = run_cli(capsys, "verify", "--max-n", "75")
    assert code == 0
    assert err == ""


def test_verify_over_walk_limit_fails_fast(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("verify_range called despite the walk limit")

    assert sum(m * n for m in range(1, 77) for n in range(m, 77)) == 4_355_351
    monkeypatch.setattr(cli, "verify_range", refuse)
    code, out, err = run_cli(capsys, "verify", "--max-n", "76")
    assert code == 2
    assert out == ""
    assert err == "error: verify --max-n 76 needs 4355351 states, over the walk limit of 4194304\n"


# --- search -----------------------------------------------------------------


def test_search_pair_text(capsys):
    code, out, _ = run_cli(capsys, "search", "--sizes", "2,2")
    assert code == 0
    assert "target: 3" in out
    assert "max_lss: 3" in out
    assert "attained: true" in out


def test_search_structured(capsys):
    code, out, _ = run_cli(capsys, "search", "--sizes", "2,2", "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["attained"] is True
    assert doc["max_lss"] == 3
    assert doc["languages_per_size"] == [26, 26]
    assert len(doc["witness_dfas"]) == 2
    assert doc["witness_dfas"][0]["states"] <= 2


def test_search_3_4_structured_digest(capsys):
    # Frozen on the first run that measured it: (3, 4) = 11, the paper's
    # mn - 1 found with no construction given.
    code, out, _ = run_cli(capsys, "search", "--sizes", "3,4", "--format", "structured")
    doc = json.loads(out)
    assert (code, doc["max_lss"], doc["attained"]) == (0, 11, True)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e1d584a9717b82e7b1327addf2aec334c4d93667692da63946ae9c1051102a0a"
    )


def test_search_csv_unsupported(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["search", "--sizes", "2,2", "--format", "csv"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err


def test_search_rejects_bad_sizes(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["search", "--sizes", "2,x"])
    assert excinfo.value.code == 2


def test_search_rejects_empty_sizes(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["search", "--sizes", ""])
    assert excinfo.value.code == 2


def test_search_budget_exceeded(capsys, monkeypatch):
    monkeypatch.setattr(enumeration, "SEARCH_BUDGET", 5)
    code, _, err = run_cli(capsys, "search", "--sizes", "2,2")
    assert code == 2
    assert "budget" in err


def test_search_raw_budget_fails_fast(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_dfas called despite the budget")

    monkeypatch.setattr(enumeration, "enumerate_dfas", refuse)
    monkeypatch.setattr(enumeration, "SEARCH_BUDGET", 10)
    code, _, err = run_cli(capsys, "search", "--sizes", "8,8")
    assert code == 2
    assert "budget" in err


def test_search_too_many_components_fails_fast(capsys, monkeypatch):
    # Size-1 padding costs the search nothing, but tuples_skipped for this
    # many components has too many digits to print.
    def refuse(*args, **kwargs):
        raise AssertionError("languages enumerated despite the component limit")

    monkeypatch.setattr(enumeration, "canonical_languages", refuse)
    code, out, err = run_cli(capsys, "search", "--sizes", "2" + ",1" * 20_000)
    assert code == 2
    assert out == ""
    assert "20001 components, over the limit of 64" in err


# --- lss --------------------------------------------------------------------


@pytest.fixture
def pair_files(tmp_path):
    a = tmp_path / "ones.json"
    b = tmp_path / "ramp.json"
    save_path(ones_mod_dfa(2), a)
    save_path(ramp_cycle_dfa(2, 3), b)
    return a, b


def test_lss_csv_unsupported(capsys, pair_files):
    a, b = pair_files
    with pytest.raises(SystemExit) as excinfo:
        main(["lss", "--dfa", str(a), "--dfa", str(b), "--format", "csv"])
    assert excinfo.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "invalid choice: 'csv'" in err


def test_lss_pair(capsys, pair_files):
    a, b = pair_files
    code, out, _ = run_cli(capsys, "lss", "--dfa", str(a), "--dfa", str(b))
    assert code == 0
    assert "length: 5" in out
    assert "witness: 10010" in out


def test_lss_structured(capsys, pair_files):
    a, b = pair_files
    code, out, _ = run_cli(capsys, "lss", "--dfa", str(a), "--dfa", str(b), "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["empty"] is False
    assert doc["length"] == 5
    assert doc["witness"] == "10010"


def test_lss_file_given_twice_changes_no_answer(capsys, pair_files):
    a, b = pair_files
    _, pair, _ = run_cli(capsys, "lss", "--dfa", str(a), "--dfa", str(b), "--format", "structured")
    code, out, _ = run_cli(capsys, "lss", "--dfa", str(a), "--dfa", str(a), "--dfa", str(b), "--format", "structured")
    assert code == 0
    doc, expected = json.loads(out), json.loads(pair)
    assert (doc["length"], doc["witness"]) == (expected["length"], expected["witness"]) == (5, "10010")
    assert doc["components"] == 3


@pytest.mark.parametrize("limit, expected_code", [(5, 2), (6, 0)])
def test_lss_walk_limit_counts_the_product(capsys, monkeypatch, pair_files, limit, expected_code):
    a, b = pair_files  # 2 and 3 states
    monkeypatch.setattr(cli, "MAX_WALK_STATES", limit)
    code, _, err = run_cli(capsys, "lss", "--dfa", str(a), "--dfa", str(b))
    assert code == expected_code
    if expected_code:
        assert err == "error: the intersection needs 6 states, over the walk limit of 5\n"


@pytest.fixture
def accented_file(tmp_path):
    """A DFA over the alphabet ["\u00e9", "b"] whose shortest word is "\u00e9"."""
    path = tmp_path / "e.json"
    path.write_text(
        '{"states": 2, "alphabet": ["\u00e9", "b"], "initial": 0, "accepting": [1], "delta": [[1, 0], [1, 1]]}',
        encoding="utf-8",
    )
    assert "\u00e9".encode("utf-8") in path.read_bytes()
    return path


def _run_under_ascii_locale(*argv):
    env = {**src_env(), "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    proc = subprocess.run([sys.executable, "-m", "minword.cli", *argv], capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_lss_reads_utf8_under_ascii_locale(accented_file):
    out = _run_under_ascii_locale("lss", "--dfa", str(accented_file), "--format", "structured")
    assert json.loads(out)["witness"] == "\u00e9"


def test_text_output_is_utf8_under_ascii_locale(accented_file):
    out = _run_under_ascii_locale("lss", "--dfa", str(accented_file))
    assert out == "length: 1\nwitness: \u00e9\n".encode("utf-8")


def test_lone_surrogate_label_is_rejected_on_load(capsys, tmp_path):
    path = tmp_path / "s.json"
    path.write_text(
        '{"states": 2, "alphabet": ["\\ud800", "b"], "initial": 0, "accepting": [1], "delta": [[1, 0], [1, 1]]}',
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "lss", "--dfa", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: key 'alphabet': ")


def test_lss_empty_intersection_exit_code(capsys, tmp_path):
    path = tmp_path / "empty.json"
    save_path(Dfa(1, BINARY, 0, frozenset(), ((0, 0),)), path)
    code, out, _ = run_cli(capsys, "lss", "--dfa", str(path))
    assert code == 1
    assert "empty intersection" in out


def test_lss_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"states": 1, "alphabet": ["0"], "initial": 0, "accepting": [], "delta": [[0]], "bogus": 1}')
    code, _, err = run_cli(capsys, "lss", "--dfa", str(path))
    assert code == 2
    assert "bogus" in err


def test_lss_invalid_dfa_diagnostic(capsys, tmp_path):
    path = tmp_path / "invalid.json"
    path.write_text('{"states": 1, "alphabet": ["0", "1"], "initial": 0, "accepting": [0], "delta": [[0, 1]]}')
    code, _, err = run_cli(capsys, "lss", "--dfa", str(path))
    assert code == 2
    assert "delta entry out of range" in err


def test_lss_alphabet_mismatch(capsys, tmp_path):
    a = tmp_path / "binary.json"
    b = tmp_path / "unary.json"
    save_path(ones_mod_dfa(2), a)
    save_path(unary_residue_dfa(0, 1), b)
    code, _, err = run_cli(capsys, "lss", "--dfa", str(a), "--dfa", str(b))
    assert code == 2
    assert "alphabet" in err


def test_lss_alphabet_order_mismatch_exact(capsys, tmp_path):
    # The same labels in another order are another alphabet.
    a = tmp_path / "01.json"
    b = tmp_path / "10.json"
    a.write_text('{"states": 1, "alphabet": ["0", "1"], "initial": 0, "accepting": [0], "delta": [[0, 0]]}')
    b.write_text('{"states": 1, "alphabet": ["1", "0"], "initial": 0, "accepting": [0], "delta": [[0, 0]]}')
    code, out, err = run_cli(capsys, "lss", "--dfa", str(a), "--dfa", str(b))
    assert code == 2
    assert out == ""
    assert err == "error: components must share one alphabet: ('1', '0') != ('0', '1')\n"


def test_lss_deeply_nested_json(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    code, out, err = run_cli(capsys, "lss", "--dfa", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid JSON")


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no integer digit limit")
def test_lss_integer_over_the_digit_limit(capsys, tmp_path):
    path = tmp_path / "huge.json"
    states = "1" * (sys.get_int_max_str_digits() + 1)
    path.write_text('{"states": %s, "alphabet": ["0"], "initial": 0, "accepting": [], "delta": [[0]]}' % states)
    code, out, err = run_cli(capsys, "lss", "--dfa", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid JSON: Exceeds the limit")


def test_lss_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "lss", "--dfa", str(tmp_path / "nope.json"))
    assert code == 2
    assert "error" in err


# --- byte-exact output ---------------------------------------------------------

_WITNESS_2_3_TEXT = """\
m: 2
n: 3
expected: 5
lss: 5
witness: 10010
formula_word: 10010
formula_word_accepted: true
sc_ones: 2
sc_ramp: 3
passed: true
"""

_WITNESS_2_3_CSV = """\
m,n,expected,lss,witness,formula_word,formula_word_accepted,sc_ones,sc_ramp,passed
2,3,5,5,10010,10010,true,2,3,true
"""

_SEARCH_2_2_TEXT = """\
sizes: 2,2
target: 3
max_lss: 3
attained: true
tuples_examined: 625
tuples_skipped: 51
languages_per_size: 26,26
witness_word: 101
witness_dfas:
  {"states":2,"alphabet":["0","1"],"initial":0,"accepting":[0],"delta":[[0,1],[1,0]]}
  {"states":2,"alphabet":["0","1"],"initial":0,"accepting":[1],"delta":[[0,1],[0,0]]}
"""


@pytest.mark.parametrize(
    "argv, expected_code, expected_out",
    [
        (("witness", "--m", "2", "--n", "3"), 0, _WITNESS_2_3_TEXT),
        (("witness", "--m", "2", "--n", "3", "--format", "csv"), 0, _WITNESS_2_3_CSV),
        (("search", "--sizes", "2,2"), 0, _SEARCH_2_2_TEXT),
        (("lss", "--dfa", "{ones}", "--dfa", "{ramp}"), 0, "length: 5\nwitness: 10010\n"),
        (("lss", "--dfa", "{empty}"), 1, "empty intersection\n"),
    ],
)
def test_stdout_exact(capsys, tmp_path, pair_files, argv, expected_code, expected_out):
    empty = tmp_path / "empty.json"
    save_path(Dfa(1, BINARY, 0, frozenset(), ((0, 0),)), empty)
    ones, ramp = pair_files
    argv = [arg.format(ones=ones, ramp=ramp, empty=empty) for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == expected_code
    assert out == expected_out
    assert err == ""


# --- global behavior ---------------------------------------------------------


_OPTIONS = {
    "witness": {"--m", "--n", "--format", "--timestamp"},
    "verify": {"--max-n", "--format", "--timestamp"},
    "search": {"--sizes", "--format", "--timestamp"},
    "lss": {"--dfa", "--format", "--timestamp"},
}


@pytest.mark.parametrize("command", _OPTIONS)
def test_subcommand_options_exact(command):
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(subparsers.choices) == set(_OPTIONS)
    actions = subparsers.choices[command]._actions
    assert {o for a in actions for o in a.option_strings} - {"-h", "--help"} == _OPTIONS[command]


def test_unknown_command_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_closed_pipe_ends_silently():
    # 331 KB of output overfills the pipe buffer, so the CLI is still writing
    # when the reader goes away.
    proc = subprocess.Popen(
        [sys.executable, "-m", "minword.cli", "verify", "--max-n", "30", "--format", "structured"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=src_env(),
    )
    proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == -signal.SIGPIPE
    assert err == b""
