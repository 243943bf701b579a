"""Synthetic corpus generator: determinism, shape and separability."""

import hashlib
import time
from collections import Counter

import pytest

from pashtext.corpus import save_corpus
from pashtext.errors import UsageError
from pashtext.pipeline import preprocess
from pashtext.synth import DEFAULT_LABEL_NAMES, NOISE_VOCABULARY_SIZE, generate_corpus


def test_shape_and_labels():
    corpus = generate_corpus(classes=3, per_class=5, seed=1)
    assert len(corpus.documents) == 15
    assert corpus.labels.names == DEFAULT_LABEL_NAMES[:3]
    counts = Counter(doc.label for doc in corpus.documents)
    assert all(counts[name] == 5 for name in corpus.labels.names)
    ids = [doc.id for doc in corpus.documents]
    assert len(set(ids)) == 15
    assert all(doc.source == "synth" for doc in corpus.documents)


def test_extra_classes_get_generic_names():
    corpus = generate_corpus(classes=10, per_class=2, seed=1)
    assert corpus.labels.names[: len(DEFAULT_LABEL_NAMES)] == DEFAULT_LABEL_NAMES
    assert corpus.labels.names[len(DEFAULT_LABEL_NAMES) :] == tuple(
        f"class_{i}" for i in range(len(DEFAULT_LABEL_NAMES), 10)
    )


def test_document_lengths_in_range():
    corpus = generate_corpus(classes=2, per_class=50, seed=3)
    for doc in corpus.documents:
        n_tokens = len(doc.text.split(" "))
        assert 8 <= n_tokens <= 16


def test_determinism_and_seed_sensitivity():
    a = generate_corpus(classes=2, per_class=10, seed=7)
    b = generate_corpus(classes=2, per_class=10, seed=7)
    c = generate_corpus(classes=2, per_class=10, seed=8)
    assert [d.text for d in a.documents] == [d.text for d in b.documents]
    assert [d.text for d in a.documents] != [d.text for d in c.documents]


def test_per_class_streams_are_stable():
    # adding classes must not perturb the existing classes' documents
    small = generate_corpus(classes=2, per_class=5, seed=11)
    large = generate_corpus(classes=4, per_class=5, seed=11)
    assert [d.text for d in small.documents] == [
        d.text for d in large.documents[:10]
    ]


def test_signatures_are_disjoint_across_classes():
    corpus = generate_corpus(classes=3, per_class=30, signature_size=5,
                             noise_rate=0.0, seed=2)
    token_sets = {}
    for doc in corpus.documents:
        token_sets.setdefault(doc.label, set()).update(doc.text.split(" "))
    names = list(token_sets)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            assert not (token_sets[a] & token_sets[b])
        assert len(token_sets[a]) <= 5


def test_noise_pool_is_shared_and_bounded():
    corpus = generate_corpus(classes=2, per_class=200, signature_size=1,
                             noise_rate=0.9, seed=4)
    signature = {doc.text.split(" ")[0] for doc in corpus.documents}
    all_tokens = set()
    for doc in corpus.documents:
        all_tokens.update(doc.text.split(" "))
    # 2 signature tokens plus at most NOISE_VOCABULARY_SIZE shared ones
    assert len(all_tokens) <= NOISE_VOCABULARY_SIZE + 2
    del signature


def test_generated_text_survives_default_pipeline():
    corpus = generate_corpus(classes=2, per_class=10, seed=9)
    result = preprocess(corpus)
    assert not result.excluded
    for doc, original in zip(result.documents, corpus.documents):
        assert list(doc.tokens) == original.text.split(" ")


def test_validation_errors():
    with pytest.raises(UsageError):
        generate_corpus(classes=1)
    with pytest.raises(UsageError):
        generate_corpus(per_class=1)
    with pytest.raises(UsageError):
        generate_corpus(signature_size=0)
    with pytest.raises(UsageError):
        generate_corpus(noise_rate=1.0)
    with pytest.raises(UsageError):
        generate_corpus(noise_rate=-0.1)


def test_wide_ids_render_at_larger_width():
    # push token ids past 32^3 so the renderer needs width 4
    corpus = generate_corpus(classes=2, per_class=2, signature_size=20000, seed=5)
    token = corpus.documents[0].text.split(" ")[0]
    assert len(token) == 4


@pytest.mark.parametrize(
    "arguments, digest",
    [
        pytest.param(dict(classes=8, per_class=100, noise_rate=0.3, seed=42),
                     "bcf945487afec6805ae121495646cc33ce0ec060316f43b1348e11e9848cb8f6",
                     id="desk"),
        pytest.param(dict(per_class=150, noise_rate=0.7, seed=1),
                     "c4d9b3465f7e6057d3210be6fdda3b1909686c60b9f48d034e69a89d68b53f4d",
                     id="bundle_predict"),
        pytest.param(dict(signature_size=1_000_000, per_class=2),
                     "24dbe919bcec418fe92be7c81ce5f7bd8674fcaf8f26ce47f78f4eef14e13623",
                     id="million-token-signatures"),
    ],
)
def test_saved_corpus_bytes_are_pinned(tmp_path, arguments, digest):
    """The bytes `synth` writes, pinned from the generator that rendered
    every token as it was drawn.  Eight million signature ids cost no more
    than the ids a corpus draws."""
    started = time.perf_counter()
    corpus = generate_corpus(**arguments)
    assert time.perf_counter() - started < 1.0
    save_corpus(corpus, tmp_path / "corpus.jsonl")
    assert hashlib.sha256((tmp_path / "corpus.jsonl").read_bytes()).hexdigest() == digest
