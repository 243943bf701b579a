"""Noisy Pashto-like corpus generator for the benchmark.

Independent of ``pashtext.synth``: it uses Python's ``random.Random`` and its
own lexicon, so a change to the program's generator cannot change these
inputs.  Every document mixes words from one pool shared by all classes with
words from its class's topic pool, then dresses the words in the noise real
Arabic-script text carries:

* diacritics (one harakat mark inside a word),
* zero-width non-joiners and directional marks,
* both forms of kaf and yeh (Pashto U+06A9/U+06CC and Arabic U+0643/U+064A),
* numbers in ASCII, Arabic-Indic and Persian digits, standalone or glued,
* URLs, ASCII words and Arabic punctuation.

Alongside each document the generator records the tokens the pipeline
should produce from it.  That record is built from the clean words, not by
running any cleaning code, so the checks can compare the program's
vocabulary, chi-square scores and predictions against it.  Diacritics and
Arabic kaf/yeh are kept in the record because the pipeline keeps them; the
benchmark counts the vocabulary entries they split off as
``pipeline.variant_terms``.
"""

from __future__ import annotations

import json
import random
import unicodedata
from pathlib import Path

LABELS = (
    "history",
    "technology",
    "sport",
    "cultural",
    "economic",
    "health",
    "politic",
    "scientific",
)

# Pashto letters, all in the Arabic block U+0600-06FF. Kaf and yeh appear only
# in their Pashto forms here; the Arabic forms are introduced as variants.
LETTERS = (
    "ابپتټثجځچڅحخ"
    "دډذرړزږژښسشص"
    "ضطظعغفقکګلمن"
    "ڼوهیېۍئ"
)
PASHTO_KAF, ARABIC_KAF = "ک", "ك"
PASHTO_YEH, ARABIC_YEH = "ی", "ي"
# Fathatan..sukun. None of them composes with a letter under NFC, and only one
# is ever placed in a word, so NFC leaves the word as generated.
DIACRITICS = tuple(chr(c) for c in range(0x064B, 0x0653))
INVISIBLES = ("\u200c", "\u200e", "\u200f", "\u061c")  # ZWNJ, LRM, RLM, ALM
PUNCTUATION = ("،", "؛", "؟", "۔", "٪", "!", ".", "«", "»")
DIGIT_SETS = ("0123456789", "".join(chr(c) for c in range(0x0660, 0x066A)),
              "".join(chr(c) for c in range(0x06F0, 0x06FA)))
ASCII_WORDS = ("news", "BBC", "Kabul", "update", "report", "COVID", "online", "video")
URLS = ("https://www.bbc.com/pashto/", "http://tolonews.com/ps/", "www.azadiradio.com/a/")

# Fixed before any result was looked at; never tuned to a result.
SHARED_SHARE = 0.8  # probability that a word comes from the pool every class shares
SHARED_POOL = 3000
TOPIC_POOL = 400
MIN_WORDS, MAX_WORDS = 12, 40
P_DIACRITIC = 0.04
P_KAF_YEH_VARIANT = 0.2  # for words that contain kaf or yeh
P_ZWNJ = 0.03
P_DIRECTIONAL = 0.02
P_PUNCT_GLUED = 0.06
P_DIGITS_GLUED = 0.02
P_NUMBER = 0.05
P_URL = 0.01
P_ASCII = 0.03
P_PUNCT_ALONE = 0.03


def _lexicon(rng: random.Random, size: int, taken: set[str]) -> list[str]:
    words = []
    while len(words) < size:
        word = "".join(rng.choice(LETTERS) for _ in range(rng.randint(3, 7)))
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


def _zipf_cumulative(size: int) -> list[float]:
    total, cumulative = 0.0, []
    for rank in range(size):
        total += 1.0 / (rank + 1)
        cumulative.append(total)
    return cumulative


def _surface(rng: random.Random, word: str) -> str:
    """The word as a token after cleaning: variant letters and diacritics stay."""
    if (PASHTO_KAF in word or PASHTO_YEH in word) and rng.random() < P_KAF_YEH_VARIANT:
        word = word.replace(PASHTO_KAF, ARABIC_KAF).replace(PASHTO_YEH, ARABIC_YEH)
    if rng.random() < P_DIACRITIC:
        at = rng.randint(1, len(word))
        word = word[:at] + rng.choice(DIACRITICS) + word[at:]
    return word


def _dress(rng: random.Random, token: str) -> str:
    """The token as raw text: invisible marks, glued punctuation or digits."""
    letters = [i for i in range(1, len(token)) if not unicodedata.combining(token[i])]
    if letters and rng.random() < P_ZWNJ:
        at = rng.choice(letters)
        token = token[:at] + "\u200c" + token[at:]
    if rng.random() < P_DIRECTIONAL:
        mark = rng.choice(INVISIBLES[1:])
        token = mark + token if rng.random() < 0.5 else token + mark
    if rng.random() < P_PUNCT_GLUED:
        token += rng.choice(PUNCTUATION)
    if rng.random() < P_DIGITS_GLUED:
        token = _number(rng) + token
    return token


def _number(rng: random.Random) -> str:
    digits = rng.choice(DIGIT_SETS)
    return "".join(rng.choice(digits) for _ in range(rng.randint(1, 4)))


def _filler(rng: random.Random) -> str | None:
    """A whitespace-separated piece the pipeline removes entirely, or None."""
    roll = rng.random()
    for chance, make in (
        (P_NUMBER, _number),
        (P_URL, lambda r: r.choice(URLS) + str(r.randint(1, 99999))),
        (P_ASCII, lambda r: r.choice(ASCII_WORDS)),
        (P_PUNCT_ALONE, lambda r: r.choice(PUNCTUATION)),
    ):
        if roll < chance:
            return make(rng)
        roll -= chance
    return None


def generate(per_class: int, seed: int) -> tuple[list[dict], dict[str, list[str]]]:
    """Documents as corpus records, and the expected tokens of each by id."""
    rng = random.Random(f"perfbench-lexicon-{seed}")
    taken: set[str] = set()
    shared = _lexicon(rng, SHARED_POOL, taken)
    topics = [_lexicon(rng, TOPIC_POOL, taken) for _ in LABELS]
    shared_cum = _zipf_cumulative(SHARED_POOL)
    topic_cum = _zipf_cumulative(TOPIC_POOL)

    rng = random.Random(f"perfbench-documents-{seed}")
    order = [(label, i) for i in range(per_class) for label in range(len(LABELS))]
    records, expected = [], {}
    for label, index in order:
        doc_id = f"{LABELS[label]}-{index:05d}"
        pieces, tokens = [], []
        for _ in range(rng.randint(MIN_WORDS, MAX_WORDS)):
            filler = _filler(rng)
            if filler is not None:
                pieces.append(filler)
            if rng.random() < SHARED_SHARE:
                word = rng.choices(shared, cum_weights=shared_cum)[0]
            else:
                word = rng.choices(topics[label], cum_weights=topic_cum)[0]
            token = _surface(rng, word)
            tokens.append(token)
            pieces.append(_dress(rng, token))
        separators = [rng.choice((" ", " ", " ", "  ", "\n")) for _ in pieces]
        text = "".join(p + s for p, s in zip(pieces, separators)).strip()
        records.append({"id": doc_id, "text": text, "label": LABELS[label]})
        expected[doc_id] = tokens
    return records, expected


def write(directory: Path, per_class: int, seed: int) -> tuple[Path, Path]:
    """Write ``corpus.jsonl`` and ``expected_tokens.json``; return both paths."""
    records, expected = generate(per_class, seed)
    directory.mkdir(parents=True, exist_ok=True)
    corpus = directory / "corpus.jsonl"
    with corpus.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
    tokens = directory / "expected_tokens.json"
    tokens.write_text(json.dumps(expected, ensure_ascii=False), encoding="utf-8")
    return corpus, tokens
