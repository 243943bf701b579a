"""The `pashtext` command as a fresh process sees it: which modules each
command loads, and what it writes to stderr.

Each case runs in a new interpreter, so neither this test process's imports
nor pytest's log capture stand in for what a command does on its own.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pashtext

SOURCE_ROOT = str(Path(pashtext.__file__).resolve().parents[1])

# What `synth`, `ingest` and `split` never run.  `split` alone rounds with
# `decimal`.
NOT_LOADED = ("pashtext.vectorize", "pashtext.pipeline", "pashtext.models", "pashtext.grid",
              "pashtext.metrics", "logging")

LOADED_AFTER = """import json, sys
from pashtext import cli

def loaded():
    names = {NOT_LOADED!r} + ("decimal",)
    return [name for name in names if name in sys.modules]

after = {{}}
for argv in (["synth", "--classes", "3", "--per-class", "10", "--out", "corpus.jsonl"],
             ["ingest", "--corpus", "corpus.jsonl"],
             ["split", "--corpus", "corpus.jsonl", "--out", "work"]):
    assert cli.main(argv) == 0
    after[argv[0]] = loaded()
print(json.dumps(after))
""".format(NOT_LOADED=NOT_LOADED)


def run_python(args, cwd):
    """`python args` in a fresh interpreter that imports this checkout's pashtext."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SOURCE_ROOT, *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True,
                          text=True)


def pashtext_command(args, cwd):
    return run_python(["-m", "pashtext.cli", *args], cwd)


def test_setup_commands_load_no_feature_model_or_logging_code(tmp_path):
    finished = run_python(["-c", LOADED_AFTER], tmp_path)
    assert finished.returncode == 0, finished.stderr
    after = json.loads(finished.stdout.splitlines()[-1])
    assert after == {"synth": [], "ingest": [], "split": ["decimal"]}


def test_setup_commands_write_nothing_to_stderr(tmp_path):
    for args in (["synth", "--classes", "3", "--per-class", "10", "--out", "corpus.jsonl"],
                 ["ingest", "--corpus", "corpus.jsonl"],
                 ["split", "--corpus", "corpus.jsonl", "--out", "work"]):
        finished = pashtext_command(args, tmp_path)
        assert (finished.returncode, finished.stderr) == (0, ""), args


def test_grid_logs_one_info_line_per_cell(tmp_path):
    assert pashtext_command(["synth", "--classes", "3", "--per-class", "8", "--seed", "2",
                             "--out", "corpus.jsonl"], tmp_path).returncode == 0
    finished = pashtext_command(["grid", "--corpus", "corpus.jsonl", "--out", "grid"], tmp_path)
    assert finished.returncode == 0, finished.stderr
    lines = finished.stderr.splitlines()
    assert len(lines) == 16
    for line in lines:
        assert re.fullmatch(r"INFO pashtext\.grid: grid cell \w+/(unigram|tfidf): "
                            r"accuracy \d\.\d{4} \(\d+\.\d\ds\)", line), line


def test_train_warns_of_a_document_that_preprocessing_empties(tmp_path):
    lines = [
        {"id": f"d{i}", "text": f"کلمه{i % 2} متن", "label": "ab"[i % 2]}
        for i in range(6)
    ]
    lines.append({"id": "latin", "text": "only latin words 123", "label": "a"})
    (tmp_path / "corpus.jsonl").write_text(
        "".join(json.dumps(line, ensure_ascii=False) + "\n" for line in lines),
        encoding="utf-8",
    )
    split = {"train_fraction": 0.5, "seed": 1, "train_ids": ["d0", "d1", "d2", "latin"],
             "test_ids": ["d3", "d4", "d5"]}
    (tmp_path / "split.json").write_text(json.dumps(split), encoding="utf-8")
    finished = pashtext_command(["train", "--corpus", "corpus.jsonl", "--split", "split.json",
                                 "--classifier", "multinomial_nb", "--out", "model"], tmp_path)
    assert finished.returncode == 0, finished.stderr
    assert "WARNING pashtext.vectorize: 1 train documents were excluded by preprocessing" in (
        finished.stderr.splitlines()
    )


def test_an_unexpected_exception_prints_its_traceback_and_one_error_line(tmp_path):
    script = (
        "import sys\n"
        "from pashtext import cli\n"
        "def fail(*args, **kwargs):\n"
        "    raise ZeroDivisionError('planted')\n"
        "cli.load_corpus = fail\n"
        "sys.exit(cli.main(['ingest', '--corpus', 'corpus.jsonl']))\n"
    )
    finished = run_python(["-c", script], tmp_path)
    assert finished.returncode == 3
    lines = finished.stderr.splitlines()
    assert lines[:2] == ["ERROR pashtext.cli: unexpected failure",
                         "Traceback (most recent call last):"]
    assert lines[-2:] == ["ZeroDivisionError: planted", "error: ZeroDivisionError: planted"]
