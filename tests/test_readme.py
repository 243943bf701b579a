"""The README's Python API examples run as written."""

import re
from pathlib import Path

from test_blas_threads import run_python

from pashtext.corpus import save_corpus
from pashtext.synth import generate_corpus

README = Path(__file__).resolve().parents[1] / "README.md"


def python_api_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Python API", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.DOTALL)


def test_readme_python_example_runs(tmp_path, monkeypatch, capsys):
    save_corpus(generate_corpus(classes=3, per_class=10, seed=4), tmp_path / "corpus.jsonl")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(python_api_blocks()[0], str(README), "exec"), namespace)
    assert len(namespace["predictions"]) == namespace["test_matrix"].n_rows == 6
    assert "Precision" in capsys.readouterr().out


def test_readme_guarded_grid_script_runs_in_a_fresh_interpreter(tmp_path):
    save_corpus(generate_corpus(classes=3, per_class=10, seed=4), tmp_path / "corpus.jsonl")
    script = tmp_path / "grid_script.py"
    script.write_text(python_api_blocks()[1], encoding="utf-8")
    out = run_python([str(script)], None, cwd=tmp_path)
    assert out.endswith("grid complete: 16/16 cells succeeded -> grid\n")
    assert (tmp_path / "grid" / "grid.json").is_file()
