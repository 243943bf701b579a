"""Exception hierarchy shared across the package, the one way every saved
artifact is read (`read_json`, `expect_format`, `malformed` and
`loads_as_written`) and the one way every output file is written
(`write_output`).

The CLI maps these onto exit codes: usage problems exit 1, data problems
exit 2, anything else that escapes exits 3.
"""

from __future__ import annotations

import json
import os
import stat
from contextlib import contextmanager
from itertools import chain, compress, repeat
from operator import is_
from pathlib import Path


class PashtextError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(PashtextError):
    """Bad invocation: unknown command, malformed flag, invalid override."""


class InvalidHyperparameterError(UsageError):
    """A hyperparameter value violates its documented constraints."""


class DataError(PashtextError):
    """Bad input data: malformed corpus, invariant violation, bad dimensions."""


class TrainingError(PashtextError):
    """Training could not produce a valid model."""


class TrainingDivergedError(TrainingError):
    """Loss or an update became non-finite; training aborted."""

    def __init__(self, epoch: int):
        self.epoch = epoch
        super().__init__(f"training diverged at epoch {epoch}: non-finite loss")


def _refuse_constant(token: str):
    raise ValueError(f"{token} is not a JSON number")


def read_json(path, what: str):
    """The JSON document in the file `path`, which holds a `what`; a file that
    cannot be read, is not UTF-8, is not JSON (Python's `json` module would
    accept `NaN`, `Infinity` and `-Infinity`; this refuses them) or nests too
    deeply to parse is a DataError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        return json.loads(text, parse_constant=_refuse_constant)
    except (OSError, ValueError, RecursionError) as exc:  # decode errors are ValueErrors
        raise DataError(f"cannot read {what} {path}: {exc}") from None


def expect_format(document, name: str, version: int) -> None:
    """Refuse `document` unless it is a JSON object tagged with the format
    `name` and the version `version`.  (`loads_as_written` refuses a `true`
    or `1.0` that `==` takes for 1.)"""
    if not isinstance(document, dict) or document.get("format") != name:
        raise DataError(f"not a {name} document")
    if document.get("version") != version:
        raise DataError(f"unsupported {name} version {document.get('version')!r}")


@contextmanager
def malformed(what: str):
    """Turn the lookup and conversion errors raised while reading `what`
    (a missing key, a value of the wrong type, shape or size, one nested
    too deeply to convert), a hyperparameter out of range and a model that
    its own checks refuse into a DataError."""
    try:
        yield
    except (KeyError, TypeError, ValueError, IndexError, OverflowError, RecursionError,
            InvalidHyperparameterError, TrainingError) as exc:
        raise DataError(f"malformed {what}: {type(exc).__name__}: {exc}") from None


def loads_as_written(written, loaded, what: str) -> None:
    """The one load rule: refuse the artifact `what` unless `written`, the
    JSON its loaded object writes, equals `loaded`, the JSON it was loaded
    from, with JSON's types (`true`, `1` and `1.0` differ, which `==` takes
    for equal) and no key added or lost.  A dict of `written` that is the
    very dict loaded was checked where it was loaded, and is passed over.
    The DataError names the first difference, which a slower pass finds."""
    if written == loaded and _same_types(written, loaded):
        return
    difference = _first_difference(written, loaded, "")
    if difference is not None:
        raise DataError(f"{what} does not load as written: {difference}")


def _same_types(written, loaded) -> bool:
    """Whether the equal (`==`) JSON values `written` and `loaded` hold the
    same type at every node, read one level of the tree at a time."""
    ours, theirs = [written], [loaded]
    while ours:
        types = list(map(type, ours))
        if types != list(map(type, theirs)):
            return False
        if not {list, dict} & set(types):  # a level of leaves only: the last one
            return True
        lists, dicts = (list(map(is_, types, repeat(kind))) for kind in (list, dict))
        next_ours = list(chain.from_iterable(compress(ours, lists)))
        next_theirs = list(chain.from_iterable(compress(theirs, lists)))
        for mine, other in zip(compress(ours, dicts), compress(theirs, dicts)):
            if mine is not other:  # equal dicts: the same keys, maybe in another order
                next_ours += mine.values()
                next_theirs += map(other.__getitem__, mine)
        ours, theirs = next_ours, next_theirs
    return True


def _first_difference(ours, theirs, path: str) -> str | None:
    """How `theirs` first differs from `ours`, depth first in the order of
    the file, below the JSON Pointer `path`; None where they are the same JSON."""
    if type(ours) is dict is type(theirs) and ours is not theirs:
        # A key escaped as in a JSON string, so that the path is one line.
        paths = {key: f"{path}/{json.dumps(key, ensure_ascii=False)[1:-1]}"
                 for key in [*theirs, *ours]}
        for key in paths:
            if (key in ours) != (key in theirs):
                return f"{'unknown' if key in theirs else 'missing'} key {paths[key]}"
        pairs = [(ours[key], theirs[key], paths[key]) for key in theirs]
    elif type(ours) is list is type(theirs) and len(ours) == len(theirs):
        pairs = [(*pair, f"{path}/{i}") for i, pair in enumerate(zip(ours, theirs))]
    elif type(ours) is type(theirs) and ours == theirs:
        return None
    else:
        shown = [json.dumps(value)[:40] for value in (theirs, ours)]  # cut short
        return f"{path or 'the document'} is {shown[0]}, which loads as {shown[1]}"
    return next(filter(None, (_first_difference(*pair) for pair in pairs)), None)


def write_output(path, text: str) -> None:
    """Write `text` as UTF-8 to the file `path`, creating its directory.

    An existing file is rewritten in place: opened without `O_TRUNC`,
    overwritten, then cut at the end of the new bytes, so it keeps its inode,
    its links and its mode.  Truncating an existing file to zero on open, or
    renaming a new file over it, makes ext4 flush its data (`auto_da_alloc`),
    which stalled each such write by 40-60 ms on a VM disk.  Like a
    truncating write this is not atomic: a run killed mid-write can leave new
    bytes in front of old ones.  A target that is not a regular file, such as
    `/dev/null` or a pipe, is only written to.  The text is encoded before the
    file is opened, so one that UTF-8 cannot encode (a lone surrogate) is a
    DataError that leaves the file as it was.
    """
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise DataError(f"cannot write {path}: {exc}") from None
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as handle:
        handle.write(data)
        if stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
            handle.truncate()
