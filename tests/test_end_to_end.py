"""End-to-end runs of the command line, through `cli.main`: a corpus whose
every non-ASCII letter is a `\\u` escape trains the same bundle, `train`
and `evaluate` rerun over their own outputs write the same bytes, and every
classifier kind trains and evaluates.
"""

import json
import shutil

import pytest

from pashtext.cli import main
from pashtext.models import ModelKind

MNB_TFIDF = ["--classifier", "multinomial_nb", "--features", "tfidf", "--select-k", "20"]
QUICK = {
    "random_forest": ["--param", "n_trees=3"],
    "logistic_regression": ["--param", "epochs=5"],
    "linear_svm": ["--param", "epochs=5"],
    "mlp": ["--param", "epochs=5"],
}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A synthetic corpus, its split and a trained and evaluated bundle."""
    root = tmp_path_factory.mktemp("end_to_end")
    corpus, out = root / "corpus.jsonl", root / "work"
    assert main(["synth", "--classes", "3", "--per-class", "20", "--out", str(corpus)]) == 0
    assert main(["split", "--corpus", str(corpus), "--out", str(out)]) == 0
    assert main(["train", "--corpus", str(corpus), "--split", str(out / "split.json"),
                 *MNB_TFIDF, "--out", str(out)]) == 0
    assert main(["evaluate", "--model", str(out / "model.json"), "--corpus", str(corpus),
                 "--split", str(out / "split.json"), "--out", str(out)]) == 0
    return root


def test_an_escaped_corpus_splits_and_trains_the_same(work):
    escaped, out = work / "escaped.jsonl", work / "escaped"
    with open(work / "corpus.jsonl", encoding="utf-8") as lines:
        escaped.write_text("".join(json.dumps(json.loads(line)) + "\n" for line in lines),
                           encoding="ascii")
    assert "\\u" in escaped.read_text(encoding="ascii")
    assert main(["split", "--corpus", str(escaped), "--out", str(out)]) == 0
    assert (out / "split.json").read_bytes() == (work / "work" / "split.json").read_bytes()
    assert main(["train", "--corpus", str(escaped), "--split", str(out / "split.json"),
                 *MNB_TFIDF, "--out", str(out)]) == 0
    assert (out / "model.json").read_bytes() == (work / "work" / "model.json").read_bytes()


def test_train_and_evaluate_rerun_over_their_outputs_write_the_same_bytes(work):
    out, first = work / "work", work / "first"
    shutil.copytree(out, first)
    corpus, split = str(work / "corpus.jsonl"), str(out / "split.json")
    assert main(["train", "--corpus", corpus, "--split", split, *MNB_TFIDF,
                 "--out", str(out)]) == 0
    assert main(["evaluate", "--model", str(out / "model.json"), "--corpus", corpus,
                 "--split", split, "--out", str(out)]) == 0
    names = sorted(path.name for path in out.iterdir())
    assert names == ["eval.json", "model.json", "split.json"]
    for name in names:
        assert (out / name).read_bytes() == (first / name).read_bytes(), name


@pytest.mark.parametrize("kind", [kind.value for kind in ModelKind])
def test_every_kind_trains_and_evaluates(work, kind):
    corpus, split, out = work / "corpus.jsonl", work / "work" / "split.json", work / kind
    assert main(["train", "--corpus", str(corpus), "--split", str(split),
                 "--classifier", kind, *QUICK.get(kind, []), "--out", str(out)]) == 0
    assert main(["evaluate", "--model", str(out / "model.json"), "--corpus", str(corpus),
                 "--split", str(split), "--out", str(out)]) == 0
    report = json.loads((out / "eval.json").read_text(encoding="utf-8"))
    assert report["format"] == "pashtext-eval-report"
