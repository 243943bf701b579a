"""Run a plan of ``pashtext`` CLI commands in this one process.

Usage: python3 worker.py PLAN.json

The plan (written by run.py) names the program's source directory, the
commands of one round, how long to keep repeating whole rounds, which rounds
to trace, which output files to hash after each round and which bundle files
to measure.  Commands go through ``pashtext.cli.main`` one after another, a
closed loop with no concurrency of its own.  The worker writes its findings
as JSON to the plan's ``result`` path: per round the wall time, exit codes,
output digests, bundle bytes and the process's peak resident memory so far,
plus the Python, numpy and BLAS thread settings and, for traced rounds,
per-layer self times and counts.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import signal
import sys
import time
from pathlib import Path

# While commands run, a timer interrupts the process every SAMPLE_INTERVAL_S
# seconds to time a fixed pure-Python loop, so each round knows how fast this
# core ran during it.  CALIBRATION_REFERENCE_S is the loop's time on the
# reference machine (2-core Xeon VM, Python 3.11) when nothing else slows the
# core down.
CALIBRATION_LOOP = 50_000
CALIBRATION_REFERENCE_S = 0.003
SAMPLE_INTERVAL_S = 0.2
MIN_SAMPLES = 5
# Recorded, never set: BLAS threading changes small matrix products a lot.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _digests(paths) -> dict[str, str]:
    return {
        path: hashlib.sha256(Path(path).read_bytes()).hexdigest()
        for path in paths
        if Path(path).is_file()
    }


def _loop_time() -> float:
    began = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i * i
    return time.perf_counter() - began


class SpeedSampler:
    """Times the calibration loop on a wall-clock timer while code runs.

    The loop runs in this thread between the program's bytecodes, so it
    measures the core the program runs on.  Its own time is taken off the
    measured wall time, and `timing` scales what is left to the reference
    speed: the time the same work would take on the quiet reference core.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self.wall = 0.0

    def _tick(self, _signum, _frame) -> None:
        elapsed = _loop_time()
        self.samples.append(elapsed)
        self.spent += elapsed

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        self._began = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.wall = time.perf_counter() - self._began - self.spent
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        while len(self.samples) < MIN_SAMPLES:
            self.samples.append(_loop_time())

    def timing(self) -> dict:
        loop = sum(self.samples) / len(self.samples)
        return {
            "wall_s": self.wall,
            "scaled_s": self.wall * CALIBRATION_REFERENCE_S / loop,
            "loop_s": loop,
        }


def _run(cli, argv, tracer) -> int:
    if tracer is None:
        return cli.main(argv)
    tracer.begin_command()
    index = tracer.open("cli.other")
    try:
        return cli.main(argv)
    finally:
        tracer.close(index)


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    sys.path.insert(0, plan["src"])
    with SpeedSampler() as startup:
        from pashtext import cli

    tracer = None
    if plan["traced_rounds"] != "none":
        from tracing import Tracer

        tracer = Tracer()
    rounds = []
    started = time.perf_counter()
    while True:
        index = len(rounds)
        traced = tracer is not None and (plan["traced_rounds"] == "all" or index % 2 == 1)
        if traced:
            tracer.round = index
            tracer.install()
        with SpeedSampler() as sampler:
            codes = [_run(cli, argv, tracer if traced else None) for argv in plan["commands"]]
        if traced:
            tracer.uninstall()
        rounds.append({
            **sampler.timing(),
            "traced": traced,
            "exit_codes": codes,
            "digests": _digests(plan["digest"]),
            "bundle_bytes": sum(
                Path(p).stat().st_size for p in plan["bundles"] if Path(p).is_file()
            ),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
        pairs_done = plan["traced_rounds"] != "alternate" or len(rounds) % 2 == 0
        if time.perf_counter() - started >= plan["seconds"] and pairs_done:
            break
    result = {
        "environment": {
            "python": platform.python_version(),
            "numpy": sys.modules["numpy"].__version__,
            "cpus": os.cpu_count(),
            **{name: os.environ.get(name) for name in THREAD_VARIABLES},
        },
        "import": startup.timing(),
        "rounds": rounds,
    }
    if tracer is not None:
        result["layers"] = {
            str(i): tracer.self_times(i) for i, r in enumerate(rounds) if r["traced"]
        }
        result["counts"] = {
            str(i): dict(tracer.counts[i]) for i, r in enumerate(rounds) if r["traced"]
        }
        result["span_names"] = sorted(tracer.span_names())
        result["missing_targets"] = sorted(tracer.missing)
        result["hook_errors"] = tracer.hook_errors
        Path(plan["trace_out"]).write_text(
            json.dumps({"spans": tracer.spans_as_json()}), encoding="utf-8"
        )
    Path(plan["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
