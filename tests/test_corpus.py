"""Corpus loading, validation and stratified splitting."""

import json
import math
import re

import pytest

from pashtext.corpus import (
    Corpus,
    CorpusSplit,
    Document,
    LabelSet,
    load_corpus,
    load_split,
    save_corpus,
    save_split,
    stratified_split,
    validate,
)
from pashtext.corpus import _refuse_surrogates, _text_lines
from pashtext.errors import DataError


def make_corpus(counts: dict[str, int]) -> Corpus:
    docs = []
    for label, n in counts.items():
        for i in range(n):
            docs.append(Document(id=f"{label}-{i}", text=f"متن {i}", label=label))
    return Corpus(docs, LabelSet(counts.keys()))


@pytest.mark.parametrize("doc_id", ["", " ", "\t\u00a0"])
def test_corpus_requires_document_ids(doc_id):
    with pytest.raises(DataError, match="document id must be non-empty"):
        Corpus([Document(id=doc_id, text="x", label="a")], LabelSet(["a"]))


def test_label_set_order_and_duplicates():
    labels = LabelSet(["b", "a", "c"])
    assert labels.names == ("b", "a", "c")
    assert labels.index("a") == 1
    with pytest.raises(DataError):
        LabelSet(["a", "a"])
    with pytest.raises(DataError):
        LabelSet([])
    for blank in ("", " ", "\n\u2003"):
        with pytest.raises(DataError, match="label set contains an empty name"):
            LabelSet(["a", blank])
    assert LabelSet([" a", "b c"]).names == (" a", "b c")
    with pytest.raises(DataError):
        labels.index("missing")


def test_corpus_rejects_duplicate_ids():
    labels = LabelSet(["a"])
    docs = [Document("d1", "x", "a"), Document("d1", "y", "a")]
    with pytest.raises(DataError, match="duplicate document id"):
        Corpus(docs, labels)


def test_corpus_rejects_unknown_label():
    with pytest.raises(DataError, match="outside the label set"):
        Corpus([Document("d1", "x", "b")], LabelSet(["a"]))


def test_corpus_lookup_and_counts():
    corpus = make_corpus({"a": 2, "b": 3})
    assert len(corpus) == 5
    assert corpus.by_id("b-1").label == "b"
    assert validate(corpus)["per_class_counts"] == {"a": 2, "b": 3}
    with pytest.raises(DataError):
        corpus.by_id("nope")


def test_jsonl_round_trip_preserves_unicode(tmp_path):
    corpus = make_corpus({"سياست": 2, "سپورت": 1})
    path = tmp_path / "corpus.jsonl"
    save_corpus(corpus, path)
    raw = path.read_text(encoding="utf-8")
    assert "سياست" in raw  # not escaped to \u sequences
    loaded = load_corpus(path)
    assert len(loaded) == 3
    assert loaded.by_id("سياست-0").text == corpus.by_id("سياست-0").text


def test_save_corpus_writes_no_non_json_number(tmp_path):
    corpus = Corpus([Document("a-0", "متن", "a", source=math.nan)], LabelSet(["a"]))
    with pytest.raises(ValueError, match="not JSON compliant"):
        save_corpus(corpus, tmp_path / "corpus.jsonl")


def test_jsonl_loader_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "text": "x", "label": "l"}\n{broken\n', encoding="utf-8")
    with pytest.raises(DataError, match="bad.jsonl:2"):
        load_corpus(path)


RECORD = '{"id": "a", "text": "x", "label": "l"}'


@pytest.mark.parametrize(
    "line",
    [
        RECORD,
        "  " + RECORD,
        "\t" + RECORD,
        " \t " + RECORD + " \t ",
        RECORD + "\r",
        RECORD + "\x0c",
        RECORD + "\u00a0",
        RECORD + "\u2028",
        RECORD + "  \u2029",
        "\u00a0" + RECORD,
        "\ufeff" + RECORD,
        RECORD + RECORD,
        RECORD + " x",
        "1, 2",
        "1",
        "NaN",
        "-Infinity",
        '"text"',
        "[" + RECORD + "]",
        '{"id": "a", "text": "x", "label": "l", "meta": {"n": [1, {"k": null}], "x": NaN}}',
        '{"id": "a", "text": {"nested": "x"}, "label": "l"}',
        '{"id": 1, "text": "x", "label": "l"}',
        '{"id": "a", "text": "x", "label": null}',
        '{"id": "a", "text": "x", "label": "l", "source": "web"}',
        '{"id": "a", "text": "x", "label": "l", "source": null}',
        '{"id": "a", "text": "x", "label": "l", "source": NaN}',
        '{"id": "a", "text": "x", "label": "l", "source": -Infinity}',
        '{"id": "a", "text": "x", "label": "l", "source": 3}',
        '{"id": "a", "text": "x", "label": "l", "source": ["web"]}',
        '{"id": "a", "text": "x", "label": "l", "id": "b"}',
        '{1: "a", "text": "x", "label": "l"}',
        '{"id": "a", "text": "x", "label": "l",}',
        '{"id": "a", "text": "x\u0001", "label": "l"}',
        '{"id": "a", "text": "\\ud800", "label": "l"}',
        '{"id": "a", "text": "x", "label": "l", "source": "\\udc00"}',
        "{broken",
    ],
)
def test_jsonl_loader_accepts_exactly_what_json_loads_accepts(tmp_path, line):
    """Each line, after one good line, loads as `json.loads` reads it, or
    fails with `json.loads`'s message on line 2.  A string that `json.loads`
    reads as a lone surrogate, which UTF-8 cannot encode, is refused."""
    path = tmp_path / "c.jsonl"
    path.write_text('{"id": "first", "text": "y", "label": "l"}\n' + line + "\n",
                    encoding="utf-8")
    with open(path, encoding="utf-8") as handle:
        read = list(handle)[1]  # the line as the loader reads it
    try:
        record = json.loads(read)
    except json.JSONDecodeError as exc:
        with pytest.raises(DataError) as raised:
            load_corpus(path)
        assert str(raised.value) == f"{path}:2: malformed JSON: {exc.msg}"
        return
    keys = ("id", "text", "label")
    if (isinstance(record, dict) and all(isinstance(record.get(k), str) for k in keys)
            and isinstance(record.get("source"), (str, type(None)))):
        try:
            ("".join(record[k] for k in keys) + (record.get("source") or "")).encode("utf-8")
        except UnicodeEncodeError:
            with pytest.raises(DataError, match=r"c\.jsonl:2: key '\w+' holds a lone surrogate"):
                load_corpus(path)
            return
        loaded = load_corpus(path).documents[1]
        assert loaded == Document(*(record[k] for k in keys), record.get("source"))
    else:
        with pytest.raises(DataError, match=rf"c\.jsonl:2: (record is not|key '\w+' must)"):
            load_corpus(path)


# The loader's former loop, which put every line through every per-key
# check, kept as the reference for what the loader refuses and in what order.
def reference_load_jsonl(path, labels=None):
    by_id = {}
    observed_labels = set()
    for line_no, line in enumerate(_text_lines(path), 1):
        if line.isspace():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{line_no}: malformed JSON: {exc.msg}") from None
        except RecursionError:
            raise DataError(f"{path}:{line_no}: JSON nested too deeply") from None
        if not isinstance(record, dict):
            raise DataError(f"{path}:{line_no}: record is not a JSON object")
        for key in ("id", "text", "label"):
            if key not in record:
                raise DataError(f"{path}:{line_no}: missing required key {key!r}")
            if not isinstance(record[key], str):
                raise DataError(f"{path}:{line_no}: key {key!r} must be a string")
        source = record.get("source")
        if source is not None and not isinstance(source, str):
            raise DataError(f"{path}:{line_no}: key 'source' must be a string")
        if "\\u" in line:  # only a \u escape can put a lone surrogate in a string
            _refuse_surrogates(record, path, line_no)
        doc_id = record["id"]
        if doc_id in by_id:
            raise DataError(f"{path}:{line_no}: duplicate document id {doc_id!r}")
        label = record["label"]
        if labels is not None and label not in labels:
            raise DataError(
                f"{path}:{line_no}: label {label!r} outside the supplied label set"
            )
        if not doc_id.strip():
            raise DataError(f"{path}:{line_no}: document id must be non-empty")
        if not label.strip():
            raise DataError(f"{path}:{line_no}: document label must be non-empty")
        observed_labels.add(label)
        by_id[doc_id] = Document(
            id=doc_id, text=record["text"], label=label, source=source
        )
    if not by_id:
        raise DataError(f"corpus file is empty: {path}")
    label_set = labels if labels is not None else LabelSet(sorted(observed_labels))
    return Corpus._checked(tuple(by_id.values()), label_set, by_id)


GOOD = b'{"id": "g", "text": "\xd9\x85\xd8\xaa\xd9\x86", "label": "l"}'
OTHER = b'{"id": "h", "text": "y", "label": "m", "source": "web"}'
DEEP = b"[" * 100_000 + b"]" * 100_000


@pytest.mark.parametrize(
    "content",
    [
        pytest.param(GOOD + b"\n" + OTHER + b"\n", id="two-records"),
        pytest.param(GOOD + b"\n\n" + OTHER + b"\n", id="blank-line"),
        pytest.param(GOOD + b"\n   \n\t\n" + OTHER + b"\n  ", id="whitespace-lines"),
        pytest.param(b"\n \n", id="only-blank-lines"),
        pytest.param(b"", id="empty-file"),
        pytest.param(GOOD + b"\r\n" + OTHER + b"\r\n", id="crlf"),
        pytest.param(GOOD + b"\r" + OTHER + b"\r", id="lone-cr"),
        pytest.param(GOOD + b"\n" + OTHER, id="no-final-newline"),
        pytest.param(GOOD + b"\r\n" + OTHER, id="crlf-no-final-newline"),
        pytest.param(b"\xef\xbb\xbf" + GOOD + b"\n" + OTHER + b"\n", id="bom-first"),
        pytest.param(GOOD + b"\n\xef\xbb\xbf" + OTHER + b"\n", id="bom-second"),
        pytest.param(GOOD + b"\n  " + OTHER + b"\n", id="leading-whitespace"),
        pytest.param(GOOD + b"\n" + OTHER + b" \t \n", id="trailing-whitespace"),
        pytest.param(GOOD + b"\n" + OTHER + b" x\n", id="trailing-data"),
        pytest.param(GOOD + b"\n" + OTHER + OTHER + b"\n", id="two-values"),
        pytest.param(GOOD + b"\n" + OTHER + b" 1\n", id="record-then-number"),
        pytest.param(GOOD + b"\n" + DEEP + b"\n", id="deep-line"),
        pytest.param(GOOD + b'\n{"id": "h", "text": ' + DEEP + b', "label": "l"}\n',
                     id="deep-text"),
        pytest.param(GOOD + b'\n{"id": "h", "text": "\\ud800", "label": "l"}\n',
                     id="lone-surrogate-text"),
        pytest.param(GOOD + b'\n{"id": "h", "text": "x", "label": "l", "source": "\\udc00"}\n',
                     id="lone-surrogate-source"),
        pytest.param(GOOD + b'\n{"id": "\\u0647", "text": "\\ud83d\\ude00 \\u0645", '
                     b'"label": "l"}\n', id="valid-escapes"),
        pytest.param(GOOD + b"\n" + GOOD + b"\n", id="duplicate-id"),
        pytest.param(GOOD + b'\n{"id": "", "text": "x", "label": "l"}\n', id="empty-id"),
        pytest.param(GOOD + b'\n{"id": "h", "text": "x", "label": ""}\n', id="empty-label"),
        pytest.param(GOOD + b'\n{"id": " ", "text": "x", "label": "l"}\n', id="blank-id"),
        pytest.param(GOOD + b'\n{"id": "h", "text": "x", "label": "\\t\\n"}\n',
                     id="blank-label"),
        pytest.param(GOOD + b'\n{"id": "\\u00a0", "text": "x", "label": "l"}\n',
                     id="no-break-space-id"),
        pytest.param(GOOD + b'\n{"id": " h ", "text": "x", "label": "l m"}\n',
                     id="spaces-inside-id-and-label"),
        pytest.param(GOOD + b'\n{"id": "h", "label": "l"}\n', id="missing-text"),
        pytest.param(GOOD + b'\n{"text": "x", "label": "l"}\n', id="missing-id"),
        pytest.param(GOOD + b'\n{"id": "h", "text": "x"}\n', id="missing-label"),
        pytest.param(GOOD + b'\n{"id": "h", "text": "x", "label": "l", "source": 3}\n',
                     id="source-number"),
        pytest.param(GOOD + b'\n{"id": "h", "text": "x", "label": "l", "source": null}\n',
                     id="source-null"),
        pytest.param(GOOD + b'\n{"id": "h", "text": "x", "label": "zz"}\n',
                     id="label-outside-set"),
        pytest.param(GOOD + b'\n{"id": "h", "text": "\xff", "label": "l"}\n', id="not-utf8"),
        pytest.param(GOOD + b"\n[1, 2]\n", id="not-an-object"),
        pytest.param(GOOD + b'\n \t{"id": "\\u0647", "text": "\\u0645", "label": "l"} \r\n',
                     id="escapes-padded"),
        pytest.param(GOOD + b'\n{"id": "g", "text": "\\ud800", "label": "l"}\n',
                     id="lone-surrogate-duplicate-id"),
        pytest.param(GOOD + b'\n{"id": "h", "text": "\\ud800", "label": "zz"}\n',
                     id="lone-surrogate-label-outside-set"),
        pytest.param(GOOD + b'\n{"id": "", "text": "\\u0645", "label": "l"}\n',
                     id="escapes-empty-id"),
        pytest.param(GOOD + b"\n\xc2\xa0\n" + OTHER + b"\n", id="only-no-break-space"),
        pytest.param(GOOD + b"\n\xc2\xa0" + OTHER + b"\n", id="no-break-space-first"),
        # Two defects on one line: the first in the reference's order is named.
        pytest.param(GOOD + b'\n{"id": "g", "text": "x", "label": "zz"}\n',
                     id="duplicate-id-label-outside-set"),
        pytest.param(GOOD + b'\n{"id": "g", "text": "x", "label": "l", "source": 3}\n',
                     id="duplicate-id-source-number"),
        pytest.param(GOOD + b'\n{"id": "", "text": "x", "label": "zz"}\n',
                     id="empty-id-label-outside-set"),
        pytest.param(GOOD + b'\n{"id": "", "text": "x", "label": ""}\n',
                     id="empty-id-empty-label"),
        pytest.param(GOOD + b'\n{"id": "g", "text": "x", "label": ""}\n',
                     id="duplicate-id-empty-label"),
        pytest.param(GOOD + b'\n{"id": " ", "text": "x", "label": " "}\n',
                     id="blank-id-blank-label"),
        pytest.param(GOOD + b'\n{"id": "h", "text": "x", "label": " "}\n' + OTHER + b"\n",
                     id="blank-label-before-a-good-record"),
        pytest.param(GOOD + b'\n{"text": 1, "label": "l"}\n', id="missing-id-text-number"),
        pytest.param(GOOD + b"\n[1] x\n", id="not-an-object-trailing-data"),
    ],
)
@pytest.mark.parametrize("labels", [None, LabelSet(["m", "l"])], ids=["inferred", "supplied"])
def test_jsonl_loader_matches_the_per_key_reference(tmp_path, content, labels):
    """The same corpus, or the same DataError text with its line number."""
    path = tmp_path / "c.jsonl"
    path.write_bytes(content)

    def outcome(load):
        try:
            corpus = load(path, labels)
        except DataError as exc:
            return str(exc)
        return ([(d.id, d.text, d.label, d.source) for d in corpus.documents],
                corpus.labels.names)

    assert outcome(load_corpus) == outcome(reference_load_jsonl)


@pytest.mark.parametrize("text,message", [
    (b'"\xff"', "not UTF-8: invalid start byte"),
    (b"3", "key 'text' must be a string"),
])
def test_a_bad_record_after_a_lone_cr_is_named_by_its_line(tmp_path, text, message):
    """A byte that is not UTF-8 and a record that is not valid name the same
    line, numbered as the reader splits lines: on `\n`, `\r` and `\r\n`."""
    path = tmp_path / "c.jsonl"
    path.write_bytes(GOOD + b"\r" + OTHER + b"\n" + b'{"id": "i", "text": "z", "label": "l"}\r\n'
                     + b'{"id": "j", "text": ' + text + b', "label": "l"}\n')
    with pytest.raises(DataError) as raised:
        load_corpus(path)
    assert str(raised.value) == f"{path}:4: {message}"


@pytest.mark.parametrize("key", ["id", "source", "extra"])
def test_an_integer_too_long_to_convert_is_bad_data(tmp_path, key):
    """Python converts no integer of more than 4,300 digits to an int; the
    loader names the line instead of letting its ValueError escape."""
    record = json.dumps({"id": "h", "text": "x", "label": "l", key: "DIGITS"})
    path = tmp_path / "c.jsonl"
    path.write_bytes(GOOD + b"\n" + record.replace('"DIGITS"', "7" * 5000).encode() + b"\n")
    with pytest.raises(DataError) as raised:
        load_corpus(path)
    assert str(raised.value) == f"{path}:2: integer too long to convert"


def test_jsonl_loader_requires_keys(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "label": "l"}\n', encoding="utf-8")
    with pytest.raises(DataError, match="missing required key 'text'"):
        load_corpus(path)


def test_jsonl_inferred_labels_are_sorted(tmp_path):
    path = tmp_path / "c.jsonl"
    records = [
        {"id": "1", "text": "x", "label": "zebra"},
        {"id": "2", "text": "y", "label": "aardvark"},
    ]
    path.write_text(
        "\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8"
    )
    corpus = load_corpus(path)
    assert corpus.labels.names == ("aardvark", "zebra")


def test_directory_loader(tmp_path):
    for label in ("muse", "news"):
        d = tmp_path / label
        d.mkdir()
        for i in range(2):
            (d / f"doc{i}.txt").write_text(f"{label} body {i}", encoding="utf-8")
    corpus = load_corpus(tmp_path)
    assert len(corpus) == 4
    assert set(corpus.labels.names) == {"muse", "news"}
    assert corpus.by_id("muse/doc0.txt").text == "muse body 0"


def test_directory_loader_refusals(tmp_path):
    (tmp_path / "loose.txt").write_text("no label directory", encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(
            f"corpus directory has no label subdirectories: {tmp_path}")):
        load_corpus(tmp_path)
    for label in ("muse", "news"):
        (tmp_path / label).mkdir()
        (tmp_path / label / "notes.md").write_text("not a document", encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(
            "label directory 'news' outside the supplied label set")):
        load_corpus(tmp_path, LabelSet(["muse"]))
    with pytest.raises(DataError, match=re.escape(
            f"corpus directory contains no documents: {tmp_path}")):
        load_corpus(tmp_path)


def test_explicit_label_universe_is_enforced(tmp_path):
    corpus = make_corpus({"a": 1})
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, path)
    with pytest.raises(DataError, match="outside the supplied label set"):
        load_corpus(path, LabelSet(["b"]))
    wider = load_corpus(path, LabelSet(["b", "a"]))
    assert wider.labels.names == ("b", "a")


def test_validate_reports_empty_and_imbalance():
    docs = [
        Document("a-0", "متن", "a"),
        Document("a-1", "   ", "a"),
        Document("b-0", "متن", "b"),
    ]
    corpus = Corpus(docs, LabelSet(["a", "b", "ghost"]))
    assert validate(corpus) == {
        "n_documents": 3,
        "per_class_counts": {"a": 2, "b": 1, "ghost": 0},
        "empty_text_ids": ["a-1"],
        "imbalance_ratio": None,  # a class has zero documents
    }
    trimmed = Corpus(docs[:1] + docs[2:], LabelSet(["a", "b"]))
    assert validate(trimmed)["imbalance_ratio"] == 1.0


@pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5, 2.0, math.nan, math.inf])
def test_split_fraction_bounds(fraction):
    message = re.escape(f"train_fraction must be in (0, 1), got {fraction}")
    with pytest.raises(DataError, match=message):
        CorpusSplit(fraction, 1, ("a",), ("b",))
    # Refused before any class is looked at: class "a" alone could not be split.
    with pytest.raises(DataError, match=message):
        stratified_split(make_corpus({"a": 1, "b": 5}), fraction, seed=1)


def test_stratified_split_partition_and_proportions():
    corpus = make_corpus({"a": 10, "b": 20, "c": 30})
    split = stratified_split(corpus, train_fraction=0.8, seed=42)
    all_ids = set(split.train_ids) | set(split.test_ids)
    assert len(split.train_ids) + len(split.test_ids) == 60
    assert all_ids == {d.id for d in corpus.documents}
    by_label = lambda ids, label: sum(1 for i in ids if i.startswith(label))
    assert by_label(split.train_ids, "a") == 8
    assert by_label(split.train_ids, "b") == 16
    assert by_label(split.train_ids, "c") == 24


def test_stratified_split_rounds_half_up():
    # 0.3 of 5 is 1.5, which rounds up to 2 per class.
    corpus = make_corpus({"a": 5, "b": 5})
    split = stratified_split(corpus, train_fraction=0.3, seed=0)
    assert sum(1 for i in split.train_ids if i.startswith("a")) == 2
    assert sum(1 for i in split.train_ids if i.startswith("b")) == 2


def test_stratified_split_deterministic_and_seed_sensitive():
    corpus = make_corpus({"a": 12, "b": 12})
    s1 = stratified_split(corpus, 0.75, seed=7)
    s2 = stratified_split(corpus, 0.75, seed=7)
    s3 = stratified_split(corpus, 0.75, seed=8)
    assert s1 == s2
    assert (s1.train_ids, s1.test_ids) != (s3.train_ids, s3.test_ids)


def test_stratified_split_needs_two_docs_per_class():
    corpus = make_corpus({"a": 1, "b": 5})
    with pytest.raises(DataError):
        stratified_split(corpus, 0.5, seed=1)


def test_stratified_split_rejects_empty_side():
    corpus = make_corpus({"a": 2, "b": 2})
    # 0.9 of 2 rounds to 2: test side would be empty for every class
    with pytest.raises(DataError):
        stratified_split(corpus, 0.9, seed=1)


def test_split_round_trip(tmp_path):
    corpus = make_corpus({"a": 6, "b": 6})
    split = stratified_split(corpus, 0.5, seed=3)
    assert (split.train_fraction, split.seed) == (0.5, 3)
    path = tmp_path / "split.json"
    save_split(split, path)
    assert load_split(path) == split


def test_split_file_is_byte_deterministic(tmp_path):
    corpus = make_corpus({"a": 6, "b": 6})
    p1, p2 = tmp_path / "s1.json", tmp_path / "s2.json"
    save_split(stratified_split(corpus, 0.5, seed=3), p1)
    save_split(stratified_split(corpus, 0.5, seed=3), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_split_rejects_malformed(tmp_path):
    path = tmp_path / "split.json"
    path.write_text("{}", encoding="utf-8")
    with pytest.raises(DataError):
        load_split(path)
