"""End-to-end runs of the command line, through `cli.main`: a corpus whose
every non-ASCII letter is a `\\u` escape trains the same bundle, `train`
and `evaluate` rerun over their own outputs write the same bytes, renaming
the labels in their sorted order changes only the names in what is written,
and every classifier kind trains and evaluates.
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
    assert names == ["eval.csv", "eval.json", "eval.md", "model.json", "split.json"]
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


# A label's delimited place in each eval report: a JSON string, a markdown
# row's first cell and a CSV row's first field.
LABEL_FIELDS = {"eval.json": '"{}"', "eval.md": "| {} |", "eval.csv": "\n{},"}


def _split_train_evaluate(corpus, out, options):
    assert main(["split", "--corpus", str(corpus), "--out", str(out)]) == 0
    split = str(out / "split.json")
    assert main(["train", "--corpus", str(corpus), "--split", split, *options,
                 "--out", str(out)]) == 0
    assert main(["evaluate", "--model", str(out / "model.json"), "--corpus", str(corpus),
                 "--split", split, "--out", str(out)]) == 0


@pytest.mark.parametrize("options", [MNB_TFIDF, ["--classifier", "decision_tree"],
                                     ["--classifier", "mlp", *QUICK["mlp"]]],
                         ids=["multinomial_nb", "decision_tree", "mlp"])
def test_renaming_labels_in_their_order_changes_only_the_names(work, tmp_path, options):
    """Classes are indexed by their labels' sorted order, so labels renamed
    in that order give the same split, the same model and the same metrics:
    the bundle and the three eval reports differ only in the names."""
    records = [json.loads(line) for line in
               (work / "corpus.jsonl").read_text(encoding="utf-8").splitlines()]
    names = sorted({record["label"] for record in records})
    renamed = dict(zip(names, ["الف", "ب", "پ"]))
    assert list(renamed.values()) == sorted(renamed.values())
    corpus = tmp_path / "renamed.jsonl"
    corpus.write_text("".join(json.dumps(dict(record, label=renamed[record["label"]]),
                                         ensure_ascii=False) + "\n" for record in records),
                      encoding="utf-8")
    before, after = tmp_path / "before", tmp_path / "after"
    _split_train_evaluate(work / "corpus.jsonl", before, options)
    _split_train_evaluate(corpus, after, options)
    assert (after / "split.json").read_bytes() == (before / "split.json").read_bytes()
    bundle, renamed_bundle = (json.loads((out / "model.json").read_text(encoding="utf-8"))
                              for out in (before, after))
    assert renamed_bundle.pop("labels") == [renamed[name] for name in bundle.pop("labels")]
    assert renamed_bundle == bundle
    for report, field in LABEL_FIELDS.items():
        expected = (before / report).read_text(encoding="utf-8")
        for old, new in renamed.items():
            assert field.format(old) in expected, (report, old)
            expected = expected.replace(field.format(old), field.format(new))
        assert (after / report).read_text(encoding="utf-8") == expected, report
