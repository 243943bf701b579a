"""The README's Python API example runs as written."""

import re
from pathlib import Path

from pashtext.corpus import save_corpus
from pashtext.synth import generate_corpus

README = Path(__file__).resolve().parents[1] / "README.md"


def python_api_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Python API", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_python_example_runs(tmp_path, monkeypatch, capsys):
    save_corpus(generate_corpus(classes=3, per_class=10, seed=4), tmp_path / "corpus.jsonl")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(python_api_block(), str(README), "exec"), namespace)
    assert len(namespace["predictions"]) == namespace["test_matrix"].n_rows == 6
    assert "Precision" in capsys.readouterr().out

