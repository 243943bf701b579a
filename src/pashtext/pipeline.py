"""Normalization, cleaning and whitespace tokenization for Arabic-script text.

Every document goes through one fixed profile. `preprocess_text` runs four
pure stages on it:

    invisible marks removed -> NFC -> strip_noise -> str.split

`normalize_text` is the first two stages plus a whitespace collapse and
strip; the tokens do not depend on those two, so `preprocess_text` skips
them.  Tokens are kept in their surface form; there is no stemming,
lemmatization or sentence segmentation. The profile keeps the Arabic script
blocks and strips URLs, digits and punctuation; each saved model bundle
records it as `PROFILE_RECORD`.
"""

from __future__ import annotations

import logging
import re
import unicodedata
from dataclasses import dataclass, field

from .corpus import Corpus

logger = logging.getLogger(__name__)

# Arabic, Arabic Supplement and Arabic Extended-A blocks, plus the space
# character. This superset covers all Pashto letters; a few extra letters
# are harmless for whitespace tokenization.
ARABIC_SCRIPT_RANGES = (
    (0x0020, 0x0020),
    (0x0600, 0x06FF),
    (0x0750, 0x077F),
    (0x08A0, 0x08FF),
)

# Zero-width joiners/non-joiners, directional marks and the BOM: invisible
# formatting characters that break token identity if left in place.
_INVISIBLES = (
    "‌"  # zero-width non-joiner
    "‍"  # zero-width joiner
    "‎"  # left-to-right mark
    "‏"  # right-to-left mark
    "؜"  # Arabic letter mark
    "‪‫‬‭‮"  # directional embeddings/overrides
    "⁦⁧⁨⁩"  # directional isolates
    "﻿"  # zero-width no-break space / BOM
)
_INVISIBLES_RE = re.compile(f"[{_INVISIBLES}]")
_WHITESPACE_RE = re.compile(r"\s+")
_URL_RE = re.compile(r"(?:[a-zA-Z][a-zA-Z0-9+.-]*://|www\.)\S+")
# ASCII, Arabic-Indic and Extended Arabic-Indic digits.
_DIGITS = set("0123456789") | {chr(c) for c in range(0x0660, 0x066A)} | {
    chr(c) for c in range(0x06F0, 0x06FA)
}


# Everything strip_noise keeps besides whitespace: the script ranges minus
# digits and punctuation (Unicode categories P*).
_KEPT = "".join(
    ch
    for start, end in ARABIC_SCRIPT_RANGES
    for ch in map(chr, range(start, end + 1))
    if not ch.isspace()
    and ch not in _DIGITS
    and not unicodedata.category(ch).startswith("P")
)
_NOISE_RE = re.compile(f"[^\\s{re.escape(_KEPT)}]+")

# The profile as each model bundle records it.  A bundle that records
# anything else was made with preprocessing this version cannot reproduce.
PROFILE_RECORD = {
    "allowed_script_ranges": ["0020-0020", "0600-06FF", "0750-077F", "08A0-08FF"],
    "lowercase_latin": True,
    "stop_words": [],
    "strip_digits": True,
    "strip_punctuation": True,
    "strip_urls": True,
}


@dataclass(frozen=True)
class TokenizedDocument:
    """A document reduced to its ordered, whitespace-free token sequence."""

    id: str
    tokens: tuple[str, ...]
    label: str


@dataclass
class PreprocessResult:
    documents: list[TokenizedDocument]
    excluded: list[tuple[str, str]] = field(default_factory=list)  # (id, reason)


def _visible_nfc(raw: str) -> str:
    return unicodedata.normalize("NFC", _INVISIBLES_RE.sub("", raw))


def normalize_text(raw: str) -> str:
    """Canonical text form: NFC, invisible marks removed, whitespace collapsed.

    Total and idempotent: invisibles are stripped before NFC so a second
    pass is a no-op.
    """
    return _WHITESPACE_RE.sub(" ", _visible_nfc(raw)).strip()


def strip_noise(text: str) -> str:
    """Remove URLs, digits, punctuation and code points outside the script ranges.

    URL-shaped substrings (scheme:// or www.) are replaced by a space first;
    other removals drop individual code points. Whitespace is preserved.
    Every URL match holds "://" or "www.", so a text with neither skips the
    URL pass.
    """
    if "://" in text or "www." in text:
        text = _URL_RE.sub(" ", text)
    return _NOISE_RE.sub("", text)


def preprocess_text(text: str) -> list[str]:
    """The tokens of one string: `strip_noise(normalize_text(text)).split()`.

    The whitespace collapse and strip of `normalize_text` are skipped: `\\s`
    in the regexes and `str.split` agree on what is whitespace, and neither
    `strip_noise` regex matches a whitespace character, so they cannot
    change where the tokens split.
    """
    return strip_noise(_visible_nfc(text)).split()


def preprocess(corpus: Corpus) -> PreprocessResult:
    """Tokenize every corpus document; documents left with no tokens are
    excluded from the output and listed in the result instead of raising."""
    result = PreprocessResult(documents=[])
    for doc in corpus.documents:
        tokens = preprocess_text(doc.text)
        if tokens:
            result.documents.append(
                TokenizedDocument(id=doc.id, tokens=tuple(tokens), label=doc.label)
            )
        else:
            result.excluded.append((doc.id, "no tokens after preprocessing"))
            logger.warning("document %r excluded: no tokens after preprocessing", doc.id)
    return result
