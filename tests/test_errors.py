"""The shared artifact-reading helpers of pashtext.errors."""

import pytest

from pashtext.errors import DataError, expect_format, malformed, read_json


def test_read_json_rejects_broken_files(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(DataError, match="cannot read"):
        read_json(path, "model bundle")
    with pytest.raises(DataError):
        read_json(tmp_path / "absent.json", "model bundle")
    path.write_bytes(b'{"format": "\xff"}')  # not UTF-8
    with pytest.raises(DataError, match="cannot read model bundle"):
        read_json(path, "model bundle")


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_read_json_refuses_non_finite_number_tokens(tmp_path, token):
    path = tmp_path / "bundle.json"
    path.write_text(f'{{"w": [1.0, {token}]}}', encoding="utf-8")
    with pytest.raises(DataError, match=f"cannot read model bundle .*: {token} is not a JSON number"):
        read_json(path, "model bundle")


def test_expect_format_and_malformed():
    expect_format({"format": "pashtext-x", "version": 2}, "pashtext-x", 2)
    for document in ([], {"format": "other", "version": 2}):
        with pytest.raises(DataError, match="not a pashtext-x document"):
            expect_format(document, "pashtext-x", 2)
    with pytest.raises(DataError, match="unsupported pashtext-x version 1"):
        expect_format({"format": "pashtext-x", "version": 1}, "pashtext-x", 2)
    faults = {
        "KeyError": lambda: {}["key"],
        "ValueError": lambda: int("x"),
        "TypeError": lambda: len(5),
        "IndexError": lambda: [][0],
        "OverflowError": lambda: float(10**400),
    }
    for name, fault in faults.items():
        with pytest.raises(DataError, match=f"^malformed thing: {name}: "):
            with malformed("thing"):
                fault()
    with pytest.raises(ZeroDivisionError):  # only lookup and conversion errors
        with malformed("thing"):
            1 / 0
