"""Normalization, cleaning and tokenization behaviour."""

import bisect
import importlib.util
import random
import re
import sys
import unicodedata
from pathlib import Path
from types import SimpleNamespace

import pytest

from pashtext import pipeline
from pashtext.corpus import Corpus, Document, LabelSet
from pashtext.pipeline import ARABIC_SCRIPT_RANGES, preprocess, preprocess_text, strip_noise

ZWNJ = "‌"
ZWJ = "‍"
RLM = "‏"
BOM = "﻿"


def normalize_text(raw):
    """Canonical text form: invisible marks removed, NFC, whitespace collapsed
    and stripped.  The reference `preprocess_text` is checked against; it
    runs neither the collapse nor the strip."""
    visible = unicodedata.normalize("NFC", pipeline._INVISIBLES_RE.sub("", raw))
    return re.sub(r"\s+", " ", visible).strip()


# The per-character cleaner and punctuation-trimming tokenizer that
# `strip_noise` and `str.split` replaced, kept verbatim as a reference under
# the one profile every caller used.
_URL_RE = re.compile(r"(?:[a-zA-Z][a-zA-Z0-9+.-]*://|www\.)\S+")
_DIGITS = set("0123456789") | {chr(c) for c in range(0x0660, 0x066A)} | {
    chr(c) for c in range(0x06F0, 0x06FA)
}
PASHTO_DEFAULT = SimpleNamespace(
    strip_urls=True,
    strip_digits=True,
    strip_punctuation=True,
    allowed_script_ranges=ARABIC_SCRIPT_RANGES,
    lowercase_latin=True,
)


def reference_strip_noise(text, config=PASHTO_DEFAULT):
    if config.strip_urls:
        text = _URL_RE.sub(" ", text)
    if config.lowercase_latin:
        text = re.sub("[A-Z]+", lambda m: m.group(0).lower(), text)
    starts = [a for a, _ in config.allowed_script_ranges]
    ends = [b for _, b in config.allowed_script_ranges]
    kept = []
    for ch in text:
        if ch.isspace():
            kept.append(ch)
            continue
        pos = bisect.bisect_right(starts, ord(ch)) - 1
        if pos < 0 or ord(ch) > ends[pos]:
            continue
        if config.strip_digits and ch in _DIGITS:
            continue
        if config.strip_punctuation and unicodedata.category(ch).startswith("P"):
            continue
        kept.append(ch)
    return "".join(kept)


def _trim_edge_punctuation(token):
    start, end = 0, len(token)
    while start < end and unicodedata.category(token[start]).startswith("P"):
        start += 1
    while end > start and unicodedata.category(token[end - 1]).startswith("P"):
        end -= 1
    return token[start:end]


def reference_tokenize(text):
    tokens = []
    for piece in text.split():
        token = _trim_edge_punctuation(piece)
        if token:
            tokens.append(token)
    return tokens


def reference_preprocess_text(text):
    return reference_tokenize(reference_strip_noise(normalize_text(text)))


# Every code point `str.split` splits on.
WHITESPACE = "".join(chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace())
RANDOM_POOL = "ابپتخدړزسقکلمنوي هڅ«»؟،.abcXY019۳٤www.x.co http://t.ly/z " + ZWNJ + WHITESPACE


def random_pool_strings():
    rng = random.Random(7)
    for _ in range(200):
        yield "".join(rng.choice(RANDOM_POOL) for _ in range(rng.randrange(0, 60)))


def test_normalize_collapses_whitespace():
    assert normalize_text("  سهار \t مو \n په   خير ") == "سهار مو په خير"


def test_normalize_removes_invisible_marks():
    word = f"کور{ZWNJ}ونه"
    assert normalize_text(word) == "کورونه"
    assert normalize_text(f"{BOM}متن{ZWJ}{RLM}") == "متن"


def test_normalize_composes_nfc():
    # ALEF + combining MADDA composes to the single ALEF WITH MADDA ABOVE.
    decomposed = "آ"
    assert normalize_text(decomposed) == "آ"


def test_normalize_idempotent_sweep():
    alphabet = (
        "ابپتټثجچحخدډذرزژږسشښصضطظعغفقکګلمنڼهویيېۍئ"
        " \t\n"
        "ٓٔ"  # combining marks that NFC composes
        + ZWNJ + ZWJ + RLM + BOM +
        "abcXYZ0123،؟."
    )
    rng = random.Random(42)
    for _ in range(300):
        raw = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 40)))
        once = normalize_text(raw)
        assert normalize_text(once) == once


def test_strip_noise_removes_urls():
    text = "خبر http://example.com/a?b=1 پای"
    assert strip_noise(text).split() == ["خبر", "پای"]
    text = "خبر www.example.com پای"
    assert strip_noise(text).split() == ["خبر", "پای"]


def unguarded_strip_noise(text):
    """`strip_noise` with its URL pass run on every text."""
    return pipeline._NOISE_RE.sub("", pipeline._URL_RE.sub(" ", text))


def noisy_corpus_texts():
    """Every text of the benchmark's noisy Pashto-like corpus (URLs, ASCII
    words, digits, punctuation, invisible marks), raw and normalized."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("noisy_corpus_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    records, _ = gen.generate(per_class=40, seed=3)
    for record in records:
        yield record["text"]
        yield normalize_text(record["text"])


def test_url_guard_matches_the_unguarded_pass_on_a_noisy_corpus():
    texts = list(noisy_corpus_texts())
    with_url = [t for t in texts if "://" in t or "www." in t]
    assert 0 < len(with_url) < len(texts)  # both paths are taken
    for text in texts:
        assert strip_noise(text) == unguarded_strip_noise(text), repr(text)


@pytest.mark.parametrize("text", [
    "HTTP://x", "WWW.x", "a://", "://", " :// ", "خبر www.", "www.", "wwwx.y",
    "خبر://پای", "https://خبر", "خبرhttp://t.ly/z پای", "www.خبر.af پای",
    "د https://www.bbc.com/pashto/123 خبر", "پای www.azadiradio.com/a/9، ښه",
    "a.www.b ftp://h/p x+y.z://q",
])
def test_url_guard_matches_the_unguarded_pass_on_crafted_strings(text):
    assert strip_noise(text) == unguarded_strip_noise(text)


def test_strip_noise_drops_out_of_range_codepoints():
    assert strip_noise("hello خبر world").split() == ["خبر"]


def test_strip_noise_digit_handling():
    text = "شمېره 123 ۱۲۳ ٤٥"
    assert strip_noise(text).split() == ["شمېره"]


def test_strip_noise_punctuation_handling():
    text = "خير، دى؟"
    assert strip_noise(text).split() == ["خير", "دى"]


def test_strip_noise_matches_reference_on_every_code_point():
    text = "".join(chr(c) for c in range(0x110000) if not 0xD800 <= c <= 0xDFFF)
    assert strip_noise(text) == reference_strip_noise(text)


def test_strip_noise_matches_reference_one_code_point_at_a_time():
    for code in range(0x0900):
        ch = chr(code)
        assert strip_noise(ch) == reference_strip_noise(ch), f"U+{code:04X}"
        framed = f"ب{ch}ب"
        assert strip_noise(framed) == reference_strip_noise(framed), f"U+{code:04X}"


def test_preprocess_text_matches_reference_tokenizer():
    # The reference trimmed edge punctuation; stripping already removed it all.
    assert reference_preprocess_text("«خير» د،ى.") == ["خير", "دى"]
    for raw in ["«خير» د،ى.", *random_pool_strings()]:
        assert preprocess_text(raw) == reference_preprocess_text(raw), repr(raw)


def test_preprocess_text_skips_only_what_cannot_change_tokens():
    """Without the whitespace collapse and strip of `normalize_text`, the
    tokens stay the same for every whitespace character, alone, between
    letters, and inside or after a URL."""
    assert len(WHITESPACE) > 20 and "\u2028" in WHITESPACE and "\x1c" in WHITESPACE
    for ws in WHITESPACE:
        for text in (
            ws, ws * 3, f"ک{ws}ر", f"{ws}ک{ws}{ws}ر{ws}", f"http://t.ly/{ws}z ک",
            f"ک http://t.ly/z{ws}ر", f"www.{ws}ک", f"ک{ws}www.x.co/{ws}{ws}ر",
            f"ا\u0653{ws}{ZWNJ}و\u0654",  # NFC composes each pair
        ):
            expected = strip_noise(normalize_text(text)).split()
            assert preprocess_text(text) == expected, (f"U+{ord(ws):04X}", text)


def test_preprocess_text_example_sentences():
    assert preprocess_text("سهار مو په خير") == ["سهار", "مو", "په", "خير"]
    tokens = preprocess_text("خير دى. وړخ مو په خير")
    assert tokens == ["خير", "دى", "وړخ", "مو", "په", "خير"]
    assert tokens.count("خير") == 2


def test_preprocess_text_zwnj_variants_collapse_to_one_token():
    assert preprocess_text(f"کور{ZWNJ}ونه") == preprocess_text("کورونه")


def test_preprocess_excludes_empty_documents():
    corpus = Corpus(
        [Document("a-0", "متن لومړی", "a"), Document("a-1", "متن دويم", "a")],
        LabelSet(["a"]),
    )
    result = preprocess(corpus)
    assert len(result.documents) == 2
    assert result.excluded == []

    noisy = Corpus(
        [
            Document("keep", "سهار مو په خير", "a"),
            Document("drop", "only english 123", "a"),
        ],
        LabelSet(["a"]),
    )
    result = preprocess(noisy)
    assert [d.id for d in result.documents] == ["keep"]
    assert result.excluded == [("drop", "no tokens after preprocessing")]


def test_preprocessed_output_contains_only_allowed_characters():
    for raw in random_pool_strings():
        for token in preprocess_text(raw):
            assert token.strip() == token and token
            for ch in token:
                code = ord(ch)
                assert any(
                    a <= code <= b
                    for a, b in ARABIC_SCRIPT_RANGES
                ), f"{ch!r} leaked through in {token!r}"
                assert not unicodedata.category(ch).startswith("P")
                assert not ch.isdigit()
