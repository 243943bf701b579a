"""pashtext defaults OpenBLAS to one thread, and the thread count does not
change a result."""

import os
import subprocess
import sys
from pathlib import Path

import pashtext

SOURCE_ROOT = str(Path(pashtext.__file__).resolve().parents[1])


def run_python(args, threads, cwd=None):
    """Run `python args` in a fresh interpreter that imports this checkout's
    pashtext, with OPENBLAS_NUM_THREADS unset (None) or set to `threads`."""
    env = {key: value for key, value in os.environ.items()
           if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [SOURCE_ROOT, *filter(None, [env.get("PYTHONPATH")])]
    )
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return subprocess.run(
        [sys.executable, *args], env=env, cwd=cwd, capture_output=True,
        text=True, check=True,
    ).stdout


def test_import_defaults_openblas_to_one_thread():
    probe = "import os, pashtext; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert run_python(["-c", probe], None).strip() == "1"
    assert run_python(["-c", probe], "3").strip() == "3"


def test_grid_is_byte_identical_under_two_blas_threads(tmp_path):
    cli = ["-m", "pashtext.cli"]
    run_python([*cli, "synth", "--classes", "3", "--per-class", "20",
                "--out", "corpus.jsonl"], None, cwd=tmp_path)
    for threads in (None, "2"):
        run_python([*cli, "grid", "--corpus", "corpus.jsonl",
                    "--out", f"grid-{threads}"], threads, cwd=tmp_path)
    names = sorted(path.name for path in (tmp_path / "grid-None").iterdir())
    assert "grid.json" in names and len(names) == 6  # with the split and 4 tables
    for name in names:
        assert (tmp_path / "grid-None" / name).read_bytes() == (
            tmp_path / "grid-2" / name
        ).read_bytes(), name
