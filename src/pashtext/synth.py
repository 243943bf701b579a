"""Deterministic synthetic corpus generator.

The experimental corpus this package is shaped around is private, so this
module fabricates a labelled stand-in with a controllable degree of
separability: each class owns a disjoint set of signature tokens, and all
classes share one pool of noise tokens (pool size fixed at
NOISE_VOCABULARY_SIZE).  Token ids are rendered as fixed-width base-32
strings over Arabic-script letters, so the generated text flows through
the preprocessing pipeline unchanged.
"""

from __future__ import annotations

from .corpus import Corpus, Document, LabelSet
from .errors import UsageError
from .prng import DEFAULT_SEED, SplitMix64, derive_seed

# 32 letters, all inside the U+0600-06FF Arabic block.
_ALPHABET = "ابتثجحخدذرزسشصضطظعغفقکلمنهویپچړښ"

NOISE_VOCABULARY_SIZE = 64

# The names of the first eight generated classes, in generation order.  This
# is the generator's naming only: a saved corpus loads its labels sorted by name.
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

_MIN_DOC_TOKENS = 8
_MAX_DOC_TOKENS = 16


def _render_token(token_id: int, width: int) -> str:
    digits = []
    value = token_id
    while value:
        digits.append(_ALPHABET[value % 32])
        value //= 32
    while len(digits) < width:
        digits.append(_ALPHABET[0])
    return "".join(reversed(digits))


def _label_names(classes: int) -> tuple[str, ...]:
    extra = range(len(DEFAULT_LABEL_NAMES), classes)
    return DEFAULT_LABEL_NAMES[:classes] + tuple(f"class_{i}" for i in extra)


def generate_corpus(
    classes: int = 8,
    per_class: int = 100,
    signature_size: int = 20,
    noise_rate: float = 0.3,
    seed: int = DEFAULT_SEED,
) -> Corpus:
    """Generate a labelled corpus of `classes * per_class` documents.

    Each document is 8..16 tokens; every token is a class-signature token
    with probability 1 - noise_rate, else a shared noise token.  Class c
    consumes RNG stream c of `seed`, so per-class content is stable under
    changes to the other classes.
    """
    if classes < 2:
        raise UsageError("classes must be >= 2")
    if per_class < 2:
        raise UsageError("per_class must be >= 2 (the splitter needs both sides)")
    if signature_size < 1:
        raise UsageError("signature_size must be >= 1")
    if not 0.0 <= noise_rate < 1.0:
        raise UsageError("noise_rate must be in [0, 1)")
    highest_id = NOISE_VOCABULARY_SIZE + classes * signature_size - 1
    width = 3
    while 32**width <= highest_id:
        width += 1
    names = _label_names(classes)
    # Each id drawn is rendered once.  Only drawn ids are kept: the id range
    # grows with classes * signature_size, which has no bound.
    rendered: dict[int, str] = {}
    documents = []
    for class_index, label in enumerate(names):
        rng = SplitMix64(derive_seed(seed, class_index))
        signature_base = NOISE_VOCABULARY_SIZE + class_index * signature_size
        for doc_index in range(per_class):
            length = _MIN_DOC_TOKENS + rng.next_below(
                _MAX_DOC_TOKENS - _MIN_DOC_TOKENS + 1
            )
            tokens = []
            for _ in range(length):
                if rng.next_float() < noise_rate:
                    token_id = rng.next_below(NOISE_VOCABULARY_SIZE)
                else:
                    token_id = signature_base + rng.next_below(signature_size)
                token = rendered.get(token_id)
                if token is None:
                    token = rendered[token_id] = _render_token(token_id, width)
                tokens.append(token)
            documents.append(
                Document(
                    id=f"{label}-{doc_index:04d}",
                    text=" ".join(tokens),
                    label=label,
                    source="synth",
                )
            )
    return Corpus(documents, LabelSet(names))
