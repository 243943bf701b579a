"""The shared artifact-reading helpers and the output writer of pashtext.errors."""

import os
import stat

import pytest

from pashtext.errors import DataError, expect_format, malformed, read_json, write_output


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


def test_write_output_creates_the_parent_directory(tmp_path):
    path = tmp_path / "a" / "b" / "out.json"
    write_output(path, "سلام\n")
    assert path.read_bytes() == "سلام\n".encode("utf-8")


def test_a_shorter_rewrite_leaves_no_trace_of_the_old_content(tmp_path):
    path = tmp_path / "out.txt"
    write_output(path, "old content, much longer than the new\n")
    inode = path.stat().st_ino
    write_output(path, "new\n")
    assert path.read_bytes() == b"new\n"
    assert path.stat().st_ino == inode  # the same file, rewritten in place
    write_output(path, "")
    assert path.read_bytes() == b""


def test_a_rewrite_opens_without_truncating(tmp_path, monkeypatch):
    path = tmp_path / "out.txt"
    write_output(path, "first\n")
    flags_seen = []
    real_open = os.open

    def spy(file, flags, *args, **kwargs):
        flags_seen.append(flags)
        return real_open(file, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    write_output(path, "second\n")
    assert flags_seen, "the writer must open through os.open"
    assert not any(flags & os.O_TRUNC for flags in flags_seen)
    assert path.read_bytes() == b"second\n"


def test_a_symlinked_target_is_written_through_and_a_mode_is_kept(tmp_path):
    target = tmp_path / "real.txt"
    target.write_text("old target text\n", encoding="utf-8")
    target.chmod(0o640)
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    write_output(link, "new\n")
    assert link.is_symlink()
    assert target.read_bytes() == b"new\n"
    assert stat.S_IMODE(target.stat().st_mode) == 0o640


def test_targets_that_are_not_regular_files_are_only_written_to():
    write_output(os.devnull, "discarded\n")  # ftruncate would fail with EINVAL
    r, w = os.pipe()  # a pipe cannot be sought either (ESPIPE)
    try:
        write_output(f"/dev/fd/{w}", "piped\n")
        assert os.read(r, 64) == b"piped\n"
    finally:
        os.close(r)
        os.close(w)


def test_text_that_utf8_cannot_encode_leaves_the_file_as_it_was(tmp_path):
    path = tmp_path / "out.json"
    path.write_text("kept\n", encoding="utf-8")
    with pytest.raises(DataError, match="cannot write .*out.json"):
        write_output(path, '{"id": "\ud800"}\n')
    assert path.read_bytes() == b"kept\n"
    with pytest.raises(DataError):
        write_output(tmp_path / "new" / "absent.json", "\udfff")
    assert not (tmp_path / "new").exists()
