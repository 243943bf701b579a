"""Labeled document collections: loading, validation, persistence, splitting.

Corpus files are UTF-8 JSON lines with required keys "id", "text" and
"label" (an optional string "source" is preserved but unused). A plain
directory layout is also accepted: one subdirectory per label, one UTF-8
``.txt`` file per document, filename stem = document id.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

from .errors import DataError, loads_as_written, malformed, read_json, write_output
from .prng import SplitMix64, derive_seed

# Default 8-class label set, in canonical order. The ordering defines the
# integer class index used for tie-breaking everywhere downstream.
DEFAULT_LABEL_NAMES = (
    "history",
    "technology",
    "sport",
    "cultural",
    "economic",
    "health",
    "politic",
    "scientific",
)


@dataclass(slots=True)
class Document:
    """One raw document with its manually assigned category.

    Slotted rather than frozen: a frozen dataclass takes about three times
    as long to build, and loading builds one per document.  Nothing hashes
    or mutates one.
    """

    id: str
    text: str
    label: str
    source: str | None = None

    def __post_init__(self):
        if not self.id:
            raise DataError("document id must be non-empty")


class LabelSet:
    """Ordered, duplicate-free set of class names.

    The position of a name is its class index; that ordering is stable and
    is the canonical tie-break order for every classifier and metric.
    """

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if not names:
            raise DataError("label set must be non-empty")
        if len(set(names)) != len(names):
            raise DataError("label set contains duplicate names")
        self.names = names
        self._index = {name: i for i, name in enumerate(names)}

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise DataError(f"unknown label {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __iter__(self):
        return iter(self.names)

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        return isinstance(other, LabelSet) and self.names == other.names

    def __repr__(self) -> str:
        return f"LabelSet({list(self.names)!r})"


class Corpus:
    """Immutable collection of documents plus the label set they draw from."""

    def __init__(self, documents: Iterable[Document], labels: LabelSet):
        documents = tuple(documents)
        by_id: dict[str, Document] = {}
        for doc in documents:
            if doc.id in by_id:
                raise DataError(f"duplicate document id {doc.id!r}")
            if doc.label not in labels:
                raise DataError(
                    f"document {doc.id!r} has label {doc.label!r} "
                    f"outside the label set {list(labels.names)!r}"
                )
            by_id[doc.id] = doc
        self.documents = documents
        self.labels = labels
        self._by_id = by_id

    @classmethod
    def _checked(
        cls, documents: tuple[Document, ...], labels: LabelSet, by_id: dict[str, Document]
    ) -> "Corpus":
        """A corpus whose documents the caller has already checked: `by_id`
        maps each one's unique id to it, and `labels` holds every label."""
        corpus = cls.__new__(cls)
        corpus.documents, corpus.labels, corpus._by_id = documents, labels, by_id
        return corpus

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)

    def by_id(self, doc_id: str) -> Document:
        try:
            return self._by_id[doc_id]
        except KeyError:
            raise DataError(f"unknown document id {doc_id!r}") from None

    def subset(self, ids: Sequence[str]) -> "Corpus":
        """The documents named by `ids`, in that order, under the same labels."""
        documents = tuple(map(self.by_id, ids))
        by_id = dict(zip(ids, documents))
        if len(by_id) < len(documents):
            return Corpus(documents, self.labels)  # names the repeated id
        return Corpus._checked(documents, self.labels, by_id)

    def label_counts(self) -> dict[str, int]:
        counts = {name: 0 for name in self.labels}
        for doc in self.documents:
            counts[doc.label] += 1
        return counts


@dataclass(frozen=True)
class SplitSpec:
    """Train/test split request: fraction of each class sent to train."""

    train_fraction: float
    seed: int

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise DataError(
                f"train_fraction must be in (0, 1), got {self.train_fraction}"
            )


@dataclass(frozen=True)
class CorpusSplit:
    """Disjoint train/test id partition of a corpus."""

    train_ids: tuple[str, ...]
    test_ids: tuple[str, ...]

    def __post_init__(self):
        for doc_id, n in Counter(self.train_ids + self.test_ids).items():
            if n > 1:
                raise DataError(f"split id {doc_id!r} appears {n} times")


@dataclass
class ValidationReport:
    """Report-only corpus health summary (never raises)."""

    n_documents: int
    per_class_counts: dict[str, int]
    empty_text_ids: list[str]
    imbalance_ratio: float | None  # max/min class count; None if a class is empty


def load_corpus(path: str | Path, labels: LabelSet | None = None) -> Corpus:
    """Load a corpus from a JSONL file or a label-per-subdirectory tree.

    When `labels` is omitted, the label set is the sorted set of observed
    labels. JSONL record order is preserved; the directory loader orders by
    sorted label name, then sorted filename.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"corpus path does not exist: {path}")
    if path.is_dir():
        return _load_directory(path, labels)
    return _load_jsonl(path, labels)


# The C scanner behind json.loads, called directly: one call per line instead
# of json.loads's type checks, whitespace regex matches and decode frames.
_scan_once = json.JSONDecoder().scan_once

# What json.loads skips before and after a value.
_JSON_SPACE = " \t\n\r"


def _text_lines(path: Path):
    """The lines of the UTF-8 file `path`.  The file iterator decodes ahead
    of the lines it yields, so a byte that is not UTF-8 is looked for again,
    line by line, to name its line in the DataError.  Both split lines on
    `\n`, `\r` and `\r\n`, so they number them alike."""
    with open(path, encoding="utf-8") as handle:
        try:
            yield from handle
        except UnicodeDecodeError as exc:
            for line_no, line in enumerate(path.read_bytes().splitlines(), 1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError:
                    break
            raise DataError(f"{path}:{line_no}: not UTF-8: {exc.reason}") from None


def _refuse_surrogates(record: dict, path: Path, line_no: int) -> None:
    """Refuse a record whose kept strings hold a lone surrogate, which
    `save_corpus` and `save_split` could not encode as UTF-8."""
    for key in ("id", "text", "label", "source"):
        try:
            (record.get(key) or "").encode("utf-8")
        except UnicodeEncodeError:
            raise DataError(
                f"{path}:{line_no}: key {key!r} holds a lone surrogate escape"
            ) from None


def _refuse_line(line: str, path: Path, line_no: int, labels: LabelSet | None,
                 by_id: dict[str, Document]) -> None:
    """Skip a blank line; otherwise raise a DataError naming the first defect
    of a line that `_load_jsonl` did not accept, checked key by key."""
    if line.isspace():
        return
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}:{line_no}: malformed JSON: {exc.msg}") from None
    except ValueError:  # Python refuses to convert an integer of too many digits
        raise DataError(f"{path}:{line_no}: integer too long to convert") from None
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
    if record["id"] in by_id:
        raise DataError(f"{path}:{line_no}: duplicate document id {record['id']!r}")
    if labels is not None and record["label"] not in labels:
        raise DataError(
            f"{path}:{line_no}: label {record['label']!r} outside the supplied label set"
        )
    raise DataError(f"{path}:{line_no}: document id must be non-empty")  # the one check left


def _load_jsonl(path: Path, labels: LabelSet | None) -> Corpus:
    """Each line is decoded once by the scanner, from its first character
    that is not JSON whitespace.  A record followed only by JSON whitespace
    that passes one combined test is kept, once a line with a `\\u` escape
    is known to hold no lone surrogate; `_refuse_line` names the defect of
    any other line that is not blank."""
    by_id: dict[str, Document] = {}
    for line_no, line in enumerate(_text_lines(path), 1):
        try:
            record, end = _scan_once(line, len(line) - len(line.lstrip(_JSON_SPACE)))
        except (StopIteration, ValueError, RecursionError):
            record = None
        if (
            type(record) is dict
            and type(doc_id := record.get("id")) is str
            and type(text := record.get("text")) is str
            and type(label := record.get("label")) is str
            and ((source := record.get("source")) is None or type(source) is str)
            and doc_id
            and doc_id not in by_id
            and (labels is None or label in labels)
            and not line[end:].strip(_JSON_SPACE)
        ):
            if "\\u" in line:
                _refuse_surrogates(record, path, line_no)
            by_id[doc_id] = Document(doc_id, text, label, source)
        else:
            _refuse_line(line, path, line_no, labels, by_id)
    if not by_id:
        raise DataError(f"corpus file is empty: {path}")
    if labels is None:
        labels = LabelSet(sorted({doc.label for doc in by_id.values()}))
    return Corpus._checked(tuple(by_id.values()), labels, by_id)


def _load_directory(path: Path, labels: LabelSet | None) -> Corpus:
    label_dirs = sorted(p for p in path.iterdir() if p.is_dir())
    if not label_dirs:
        raise DataError(f"corpus directory has no label subdirectories: {path}")
    documents: list[Document] = []
    observed_labels: list[str] = []
    for label_dir in label_dirs:
        label = label_dir.name
        if labels is not None and label not in labels:
            raise DataError(
                f"label directory {label!r} outside the supplied label set"
            )
        observed_labels.append(label)
        for file in sorted(label_dir.glob("*.txt")):
            try:
                text = file.read_text(encoding="utf-8")
            except UnicodeDecodeError as exc:
                raise DataError(f"{file}: not UTF-8: {exc.reason}") from None
            documents.append(Document(id=f"{label}/{file.name}", text=text, label=label))
    if not documents:
        raise DataError(f"corpus directory contains no documents: {path}")
    label_set = labels if labels is not None else LabelSet(sorted(observed_labels))
    # Ids are "<label directory>/<file name>", unique by construction.
    return Corpus._checked(tuple(documents), label_set, {doc.id: doc for doc in documents})


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write the corpus as UTF-8 JSON lines (re-loadable by load_corpus)."""
    lines = []
    for doc in corpus.documents:
        record = {"id": doc.id, "text": doc.text, "label": doc.label}
        if doc.source is not None:
            record["source"] = doc.source
        lines.append(json.dumps(record, ensure_ascii=False, allow_nan=False) + "\n")
    write_output(path, "".join(lines))


def validate(corpus: Corpus) -> ValidationReport:
    """Summarise per-class counts, empty-after-trim texts and class imbalance."""
    counts = corpus.label_counts()
    empty_ids = [doc.id for doc in corpus.documents if not doc.text.strip()]
    min_count = min(counts.values())
    max_count = max(counts.values())
    ratio = (max_count / min_count) if min_count > 0 else None
    return ValidationReport(
        n_documents=len(corpus),
        per_class_counts=counts,
        empty_text_ids=empty_ids,
        imbalance_ratio=ratio,
    )


def _round_half_up(fraction: float, count: int) -> int:
    # Decimal(str(...)) so that e.g. 0.3 * 5 rounds as the decimal 1.5, not
    # as the binary float 1.4999...
    value = Decimal(str(fraction)) * count
    return int(value.quantize(Decimal("1"), rounding=ROUND_HALF_UP))


def stratified_split(corpus: Corpus, spec: SplitSpec) -> CorpusSplit:
    """Per-class deterministic train/test partition.

    For each class c with n_c documents, exactly round-half-up(fraction*n_c)
    go to train. Each class's documents are shuffled by a Fisher-Yates pass
    driven by SplitMix64 seeded with derive_seed(spec.seed, class_index), so
    the split depends only on (corpus order, spec).
    """
    by_class: dict[str, list[str]] = {name: [] for name in corpus.labels}
    for doc in corpus.documents:
        by_class[doc.label].append(doc.id)

    train_ids: list[str] = []
    test_ids: list[str] = []
    for class_index, name in enumerate(corpus.labels):
        ids = by_class[name]
        n_class = len(ids)
        if n_class < 2:
            raise DataError(
                f"class {name!r} has {n_class} document(s); need at least 2 to split"
            )
        n_train = _round_half_up(spec.train_fraction, n_class)
        if n_train < 1 or n_train >= n_class:
            raise DataError(
                f"fraction {spec.train_fraction} yields an empty train or test "
                f"side for class {name!r} ({n_class} documents)"
            )
        rng = SplitMix64(derive_seed(spec.seed, class_index))
        shuffled = list(ids)
        rng.shuffle(shuffled)
        train_ids.extend(shuffled[:n_train])
        test_ids.extend(shuffled[n_train:])
    return CorpusSplit(train_ids=tuple(train_ids), test_ids=tuple(test_ids))


def _split_document(split: CorpusSplit, spec: SplitSpec) -> dict:
    return {
        "train_fraction": spec.train_fraction,
        "seed": spec.seed,
        "train_ids": list(split.train_ids),
        "test_ids": list(split.test_ids),
    }


def save_split(split: CorpusSplit, spec: SplitSpec, path: str | Path) -> None:
    """Persist a split (with the spec that produced it) as a JSON file."""
    text = json.dumps(_split_document(split, spec), ensure_ascii=False, indent=2,
                      allow_nan=False)
    write_output(path, text + "\n")


def load_split(path: str | Path) -> tuple[CorpusSplit, SplitSpec]:
    """The split and spec saved in the file `path`, which must load as written."""
    payload = read_json(path, "split file")
    with malformed(f"split file {path}"):
        split = CorpusSplit(tuple(map(str, payload["train_ids"])),
                            tuple(map(str, payload["test_ids"])))
        spec = SplitSpec(train_fraction=float(payload["train_fraction"]),
                         seed=int(payload["seed"]))
    loads_as_written(_split_document(split, spec), payload, f"split file {path}")
    return split, spec
