"""Labeled document collections: loading, validation, persistence, splitting.

Corpus files are UTF-8 JSON lines with required keys "id", "text" and
"label" (an optional string "source" is preserved but unused). A plain
directory layout is also accepted: one subdirectory per label, one UTF-8
``.txt`` file per document, whose id is ``<label directory>/<file name>``
(for example ``sport/a.txt``).
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


class LabelSet:
    """Ordered, duplicate-free set of class names, none of them empty or
    only whitespace.

    The position of a name is its class index; that ordering is stable and
    is the canonical tie-break order for every classifier and metric.
    """

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if not names:
            raise DataError("label set must be non-empty")
        if any(not name or name.isspace() for name in names):
            raise DataError("label set contains an empty name")
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

    def __repr__(self) -> str:
        return f"LabelSet({list(self.names)!r})"


class Corpus:
    """Immutable collection of documents plus the label set they draw from."""

    def __init__(self, documents: Iterable[Document], labels: LabelSet):
        documents = tuple(documents)
        by_id: dict[str, Document] = {}
        for doc in documents:
            if not doc.id or doc.id.isspace():
                raise DataError("document id must be non-empty")
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


def _check_fraction(train_fraction: float) -> None:
    if not 0.0 < train_fraction < 1.0:
        raise DataError(f"train_fraction must be in (0, 1), got {train_fraction}")


@dataclass(frozen=True)
class CorpusSplit:
    """Disjoint train/test id partition of a corpus, with the fraction of
    each class sent to train and the seed that drew it."""

    train_fraction: float
    seed: int
    train_ids: tuple[str, ...]
    test_ids: tuple[str, ...]

    def __post_init__(self):
        _check_fraction(self.train_fraction)
        for doc_id, n in Counter(self.train_ids + self.test_ids).items():
            if n > 1:
                raise DataError(f"split id {doc_id!r} appears {n} times")


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


def _load_jsonl(path: Path, labels: LabelSet | None) -> Corpus:
    """One loop reads each line once.  The scanner decodes it from its first
    character that is not JSON whitespace; a line it refuses, or that holds
    more than JSON whitespace after its value, is skipped when blank and
    otherwise decoded again by `json.loads` for its error message.  The
    record is then checked in a fixed order, and the first defect is named
    with its line: not an object; `id`, `text` or `label` missing or not a
    string; `source` neither a string nor null; a lone surrogate escape; a
    duplicate id; a label outside `labels`; an id that is empty or only
    whitespace; a label that is."""
    by_id: dict[str, Document] = {}
    for line_no, line in enumerate(_text_lines(path), 1):
        try:
            record, end = _scan_once(line, len(line) - len(line.lstrip(_JSON_SPACE)))
            refused = line[end:].strip(_JSON_SPACE)
        except (StopIteration, ValueError, RecursionError):
            refused = True
        if refused:
            if line.isspace():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{line_no}: malformed JSON: {exc.msg}") from None
            except ValueError:  # Python refuses to convert an integer of too many digits
                raise DataError(f"{path}:{line_no}: integer too long to convert") from None
            except RecursionError:
                raise DataError(f"{path}:{line_no}: JSON nested too deeply") from None
        if type(record) is not dict:
            raise DataError(f"{path}:{line_no}: record is not a JSON object")
        if not (type(doc_id := record.get("id")) is str
                and type(text := record.get("text")) is str
                and type(label := record.get("label")) is str):
            key = next(k for k in ("id", "text", "label") if type(record.get(k)) is not str)
            raise DataError(f"{path}:{line_no}: key {key!r} must be a string" if key in record
                            else f"{path}:{line_no}: missing required key {key!r}")
        if (source := record.get("source")) is not None and type(source) is not str:
            raise DataError(f"{path}:{line_no}: key 'source' must be a string")
        if "\\u" in line:  # only a \u escape can put a lone surrogate in a string
            _refuse_surrogates(record, path, line_no)
        if doc_id in by_id:
            raise DataError(f"{path}:{line_no}: duplicate document id {doc_id!r}")
        if labels is not None and label not in labels:
            raise DataError(f"{path}:{line_no}: label {label!r} outside the supplied label set")
        if not doc_id or doc_id.isspace():
            raise DataError(f"{path}:{line_no}: document id must be non-empty")
        if not label or label.isspace():
            raise DataError(f"{path}:{line_no}: document label must be non-empty")
        by_id[doc_id] = Document(doc_id, text, label, source)
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


def validate(corpus: Corpus) -> dict:
    """The corpus health summary that `ingest` prints (never raises): the
    document count, per-class counts, the ids of empty-after-trim texts and
    the max/min class count ratio, None when a class is empty."""
    found = Counter(doc.label for doc in corpus.documents)
    counts = {name: found[name] for name in corpus.labels}
    low, high = min(counts.values()), max(counts.values())
    return {
        "n_documents": len(corpus),
        "per_class_counts": counts,
        "empty_text_ids": [doc.id for doc in corpus.documents if not doc.text.strip()],
        "imbalance_ratio": high / low if low > 0 else None,
    }


def _round_half_up(fraction: float, count: int) -> int:
    # Decimal(str(...)) so that e.g. 0.3 * 5 rounds as the decimal 1.5, not
    # as the binary float 1.4999...
    value = Decimal(str(fraction)) * count
    return int(value.quantize(Decimal("1"), rounding=ROUND_HALF_UP))


def stratified_split(corpus: Corpus, train_fraction: float, seed: int) -> CorpusSplit:
    """Per-class deterministic train/test partition.

    For each class c with n_c documents, exactly round-half-up(fraction*n_c)
    go to train. Each class's documents are shuffled by a Fisher-Yates pass
    driven by SplitMix64 seeded with derive_seed(seed, class_index), so the
    split depends only on (corpus order, train_fraction, seed).
    """
    _check_fraction(train_fraction)
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
        n_train = _round_half_up(train_fraction, n_class)
        if n_train < 1 or n_train >= n_class:
            raise DataError(
                f"fraction {train_fraction} yields an empty train or test "
                f"side for class {name!r} ({n_class} documents)"
            )
        rng = SplitMix64(derive_seed(seed, class_index))
        shuffled = list(ids)
        rng.shuffle(shuffled)
        train_ids.extend(shuffled[:n_train])
        test_ids.extend(shuffled[n_train:])
    return CorpusSplit(train_fraction, seed, tuple(train_ids), tuple(test_ids))


def _split_document(split: CorpusSplit) -> dict:
    return {
        "train_fraction": split.train_fraction,
        "seed": split.seed,
        "train_ids": list(split.train_ids),
        "test_ids": list(split.test_ids),
    }


def save_split(split: CorpusSplit, path: str | Path) -> None:
    """Persist a split as a JSON file."""
    text = json.dumps(_split_document(split), ensure_ascii=False, indent=2, allow_nan=False)
    write_output(path, text + "\n")


def load_split(path: str | Path) -> CorpusSplit:
    """The split saved in the file `path`, which must load as written."""
    payload = read_json(path, "split file")
    with malformed(f"split file {path}"):
        try:
            split = CorpusSplit(float(payload["train_fraction"]), int(payload["seed"]),
                                tuple(map(str, payload["train_ids"])),
                                tuple(map(str, payload["test_ids"])))
        except DataError as exc:
            raise DataError(f"split file {path}: {exc}") from None
    loads_as_written(_split_document(split), payload, f"split file {path}")
    return split
