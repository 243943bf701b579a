"""Saved tree, forest and MLP bundles pinned by their SHA-256.

The digests were recorded from the scalar SplitMix64 draws and the
per-call MLP step.  They pin the split's shuffles, the forest's bootstrap
and per-node feature draws, the MLP's initial weights and epoch shuffles
and every trained weight, which the grid tests' confusion matrices alone
cannot: a change of draw order can leave those intact.
"""

import hashlib

import pytest

from pashtext.cli import main

PINNED = {
    ("decision_tree", "1"): "3e9b10935b8d6a5b721c611d88553cd21e6c873a35b08210d525b518656f1867",
    ("decision_tree", "2"): "3e9b10935b8d6a5b721c611d88553cd21e6c873a35b08210d525b518656f1867",
    ("random_forest", "1"): "8d51c0f24af23748939a7725bd5ed2fac075c10e3f48dacd944126f484628a4b",
    ("random_forest", "2"): "a472090d24ce63a0c92f0b061789a2926e46340c6c64eae5879a91fd2299905b",
    ("mlp", "1"): "dd5901bf052da641f2029b5330ed0ce03948287c39b8a729bce3a26e7eb1b850",
    ("mlp", "2"): "3355f17fa4a62e920a98703d12c576c917fdbbf465ccac8b6bf68fa79ad04a1a",
}
PINNED_SATURATED_MLP = "c4ab767005a893955e23c3ba734fe94debf475d3574c9312e00247d29511e191"
PARAMS = {
    "decision_tree": [],
    "random_forest": ["--param", "n_trees=5"],
    "mlp": ["--param", "epochs=3"],
}


@pytest.fixture(scope="module")
def split_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned")
    corpus = root / "corpus.jsonl"
    assert main(["synth", "--classes", "3", "--per-class", "12", "--seed", "9",
                 "--out", str(corpus)]) == 0
    assert main(["split", "--corpus", str(corpus), "--fraction", "0.75",
                 "--seed", "9", "--out", str(root / "split")]) == 0
    return root, corpus, root / "split" / "split.json"


def bundle_digest(split_corpus, name, kind, seed, params):
    root, corpus, split = split_corpus
    out = root / name
    assert main(["train", "--corpus", str(corpus), "--split", str(split),
                 "--classifier", kind, "--seed", seed, "--out", str(out),
                 *params]) == 0
    return hashlib.sha256((out / "model.json").read_bytes()).hexdigest()


@pytest.mark.parametrize("kind, seed", sorted(PINNED))
def test_saved_bundle_is_pinned(split_corpus, kind, seed):
    digest = bundle_digest(split_corpus, f"{kind}-{seed}", kind, seed, PARAMS[kind])
    assert digest == PINNED[(kind, seed)]


def test_saved_mlp_bundle_with_saturated_bias_corrections_is_pinned(split_corpus):
    # Three epochs of the 27 training documents are 81 Adam steps. With these
    # betas both bias corrections are exactly 1.0 from step 54 on (32 for the
    # first), which the default betas reach only after 37,412 steps. The
    # digest was recorded with a step that divides by them on every step.
    params = ["--param", "adam_beta1=0.3", "--param", "adam_beta2=0.5",
              "--param", "epochs=3"]
    digest = bundle_digest(split_corpus, "mlp-saturated", "mlp", "1", params)
    assert digest == PINNED_SATURATED_MLP
