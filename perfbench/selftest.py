"""Self-test of the benchmark's output checks.

Usage (from the repository root):  python3 perfbench/selftest.py

Runs the program on a small corpus to get real outputs, asserts that every
check accepts them, then feeds each check one corrupted copy and asserts
that the check rejects it: a moved split document, a swapped confusion
cell, a vocabulary entry containing a digit, a wrong chi-square pick, a
flipped prediction in every classifier kind's report, and a changed byte
in a repeated grid.json.  Exits 1 if any check misses its corruption.
"""

from __future__ import annotations

import copy
import hashlib
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
from tracing import KINDS  # noqa: E402

WORK = ROOT / ".perfbench" / "selftest"
SMALL_PARAMS = {
    "random_forest": ["--param", "n_trees=5"],
    "mlp": ["--param", "epochs=3"],
    "logistic_regression": ["--param", "epochs=20"],
    "linear_svm": ["--param", "epochs=20"],
}


def _pashtext(*argv) -> None:
    from pashtext import cli

    code = cli.main([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"pashtext {argv[0]} exited {code}")


def _outputs():
    shutil.rmtree(WORK, ignore_errors=True)
    corpus, token_file = gen.write(WORK / "input", per_class=10, seed=5)
    split = WORK / "split.json"
    _pashtext("split", "--corpus", corpus, "--fraction", 0.6, "--seed", 3, "--out", WORK)
    for kind in KINDS:
        _pashtext("train", "--corpus", corpus, "--split", split, "--classifier", kind,
                  "--features", "tfidf", "--select-k", 150, "--out", WORK / kind,
                  *SMALL_PARAMS.get(kind, []))
        _pashtext("evaluate", "--model", WORK / kind / "model.json", "--corpus", corpus,
                  "--split", split, "--out", WORK / kind)
    desk = WORK / "desk.jsonl"
    _pashtext("synth", "--classes", 3, "--per-class", 6, "--seed", 4, "--out", desk)
    digests = []
    for run in ("grid1", "grid2"):
        _pashtext("grid", "--corpus", desk, "--fraction", 0.5, "--seed", 4, "--out", WORK / run)
        digests.append({"grid.json": hashlib.sha256(
            (WORK / run / "grid.json").read_bytes()).hexdigest()})
    return corpus, token_file, split, digests


def _swap_cells(report: dict) -> dict:
    """Swap a diagonal cell with a different-valued cell of another row."""
    corrupt = copy.deepcopy(report)
    grid = corrupt["confusion"]
    for t in range(len(grid)):
        for other in range(len(grid)):
            if other != t and grid[other][t] != grid[t][t]:
                grid[t][t], grid[other][t] = grid[other][t], grid[t][t]
                return corrupt
    raise AssertionError("confusion matrix has no cells to swap")


def _flip_prediction(report: dict) -> dict:
    """Move one test document of class t from predicted p to predicted q."""
    corrupt = copy.deepcopy(report)
    grid = corrupt["confusion"]
    t = max(range(len(grid)), key=lambda i: grid[i][i])
    grid[t][t] -= 1
    grid[t][(t + 1) % len(grid)] += 1
    return corrupt


def main() -> int:
    corpus_path, token_file, split_path, grid_digests = _outputs()
    corpus = checks.read_corpus(corpus_path)
    labels = {doc_id: label for doc_id, (label, _) in corpus.items()}
    tokens = checks.read_json(token_file)
    split = checks.read_json(split_path)
    train, test = split["train_ids"], split["test_ids"]
    nb = checks.read_json(WORK / "multinomial_nb" / "model.json")
    index = {name: i for i, name in enumerate(nb["labels"])}
    train_tokens = [tokens[i] for i in train]
    train_labels = [index[labels[i]] for i in train]
    report = checks.read_json(WORK / "multinomial_nb" / "eval.json")

    moved = copy.deepcopy(split)
    moved["train_ids"].append(moved["test_ids"][0])
    digit_vocab = copy.deepcopy(nb["vocabulary"])
    digit_vocab["entries"][0][0] += "7"
    wrong_pick = copy.deepcopy(nb)
    dropped = set(range(len(nb["vocabulary"]["entries"]))) - set(nb["mask"]["kept"])
    wrong_pick["mask"]["kept"][0] = min(dropped)
    wrong_pick["mask"]["kept"].sort()
    changed = copy.deepcopy(grid_digests)
    changed[1]["grid.json"] = hashlib.sha256(
        (WORK / "grid2" / "grid.json").read_bytes() + b" ").hexdigest()

    cases = [
        ("split is stratified, disjoint and complete",
         lambda s: checks.split_errors(s, labels, 0.6, 3), split, moved),
        ("metrics agree with confusion counts",
         lambda r: checks.report_errors(r, "eval.json"), report, _swap_cells(report)),
        ("supports equal split counts",
         lambda r: checks.support_errors(r, test, labels, "eval.json"),
         report, _swap_cells(report)),
        ("vocabulary entries are Arabic-script words",
         lambda v: checks.vocabulary_errors(v, train_tokens), nb["vocabulary"], digit_vocab),
        ("chi-square top-k",
         lambda b: checks.chi2_errors(b, train_tokens, train_labels, 150), nb, wrong_pick),
        ("grid.json is byte-identical across runs",
         checks.identical_errors, grid_digests, changed),
    ]
    test_tokens = [tokens[i] for i in test]
    truth = [index[labels[i]] for i in test]
    for kind in KINDS:
        bundle = checks.read_json(WORK / kind / "model.json")
        kind_report = checks.read_json(WORK / kind / "eval.json")
        cases.append((
            f"{kind} predictions recomputed from saved parameters",
            lambda r, b=bundle: checks.prediction_errors(b, r, test_tokens, truth, "eval.json"),
            kind_report, _flip_prediction(kind_report),
        ))

    failures = 0
    for name, check, clean, corrupt in cases:
        accepted = check(clean)
        rejected = check(corrupt)
        ok = not accepted and bool(rejected)
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: clean {accepted or 'accepted'}; "
              f"corrupt {'rejected' if rejected else 'accepted'}")
    shutil.rmtree(WORK, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
