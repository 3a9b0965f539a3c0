import sys

import pytest

from minword import (
    BINARY,
    Dfa,
    InterchangeError,
    InvalidDfaError,
    dumps,
    from_document,
    load_path,
    loads,
    ones_mod_dfa,
    ramp_cycle_dfa,
    save_path,
    to_document,
)


def test_document_round_trip():
    d = ramp_cycle_dfa(2, 3)
    assert from_document(to_document(d)) == d


def test_text_round_trip():
    d = ones_mod_dfa(4)
    assert loads(dumps(d)) == d


def test_document_key_order_and_shape():
    doc = to_document(ramp_cycle_dfa(2, 3))
    assert list(doc) == ["states", "alphabet", "initial", "accepting", "delta"]
    assert doc["states"] == 3
    assert doc["alphabet"] == ["0", "1"]
    assert doc["accepting"] == [2]
    assert doc["delta"] == [[0, 1], [2, 0], [0, 0]]


def test_dumps_deterministic():
    d = ramp_cycle_dfa(3, 5)
    assert dumps(d) == dumps(d)
    assert dumps(d, indent=2) == dumps(d, indent=2)


def test_unknown_key_rejected():
    doc = to_document(ones_mod_dfa(2))
    doc["extra"] = 1
    with pytest.raises(InterchangeError, match="unknown key 'extra'"):
        from_document(doc)


def test_missing_key_rejected():
    doc = to_document(ones_mod_dfa(2))
    del doc["delta"]
    with pytest.raises(InterchangeError, match="missing key 'delta'"):
        from_document(doc)


@pytest.mark.parametrize(
    "key, value",
    [
        ("states", "3"),
        ("states", True),
        ("alphabet", "01"),
        ("alphabet", [0, 1]),
        ("initial", 0.0),
        ("accepting", [True]),
        ("delta", [[0, "1"]]),
        ("delta", "rows"),
    ],
)
def test_wrong_type_rejected_naming_key(key, value):
    doc = to_document(ones_mod_dfa(2))
    doc[key] = value
    with pytest.raises(InterchangeError, match=f"key '{key}'"):
        from_document(doc)


def test_invalid_json_rejected():
    with pytest.raises(InterchangeError, match="invalid JSON"):
        loads("{not json")


@pytest.mark.parametrize("opening, inner, closing", [("[", "", "]"), ('{"a":', "0", "}")], ids=["array", "object"])
def test_deeply_nested_json_rejected(opening, inner, closing):
    depth = 200_000
    with pytest.raises(InterchangeError, match="invalid JSON"):
        loads(opening * depth + inner + closing * depth)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no integer digit limit")
def test_integer_over_the_digit_limit_rejected():
    # Python refuses to parse an int of more digits than its limit (4,300 by
    # default) with a plain ValueError, not a JSONDecodeError.
    states = "1" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(InterchangeError, match="invalid JSON: Exceeds the limit"):
        loads('{"states": %s, "alphabet": ["0"], "initial": 0, "accepting": [], "delta": [[0]]}' % states)


def test_non_object_rejected():
    with pytest.raises(InterchangeError, match="JSON object"):
        loads("[1, 2]")


def test_save_and_load_path(tmp_path):
    d = ramp_cycle_dfa(2, 4)
    path = tmp_path / "ramp.json"
    save_path(d, path)
    assert load_path(path) == d


def test_load_path_validates(tmp_path):
    bad = Dfa(1, BINARY, 0, frozenset({0}), ((0, 1),))
    path = tmp_path / "bad.json"
    save_path(bad, path)
    with pytest.raises(InvalidDfaError):
        load_path(path)
    assert loads(path.read_text()) == bad
