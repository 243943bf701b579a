"""pashtext benchmark: one workload, measured end to end or traced per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload desk_grid --seed 1 --seconds 10 --trace 0

The program is run from ``src/`` of the checkout the script sits in.  The
benchmark makes its inputs from ``--seed``, runs the workload's set-up
``SETUP_REPEATS`` times in fresh processes, then repeats whole rounds of the
timed commands in one process for at least ``--seconds`` seconds, checks the
outputs apart from the program, and prints one JSON object as its last line:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
Working files go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 150
MEASURE_GRACE_S = 150


class BenchError(Exception):
    pass


def _source_digest() -> str:
    """Digest of the program's and the benchmark's sources."""
    digest = hashlib.sha256()
    for path in sorted([*(SRC / "pashtext").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_worker(work: Path, tag: str, commands, seconds: float, traced_rounds: str,
               digest=(), bundles=()) -> dict:
    """Run `commands` in a fresh worker process and return its report."""
    plan = {
        "src": str(SRC),
        "commands": commands,
        "seconds": seconds,
        "traced_rounds": traced_rounds,
        "digest": list(digest),
        "bundles": list(bundles),
        "result": str(work / f"{tag}.result.json"),
        "trace_out": str(work / f"{tag}.trace.json"),
    }
    plan_path = work / f"{tag}.plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    timeout = seconds + (MEASURE_GRACE_S if seconds else SETUP_TIMEOUT_S)
    with (work / f"{tag}.log").open("w", encoding="utf-8") as log:
        try:
            finished = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(plan_path)],
                stdout=log, stderr=subprocess.STDOUT, cwd=ROOT, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{tag} did not finish within {timeout:.0f} s") from None
    if finished.returncode != 0:
        raise BenchError(f"{tag} worker exited {finished.returncode}; see {log.name}")
    return json.loads(Path(plan["result"]).read_text(encoding="utf-8"))


def _same_outputs(workload_name: str, seed: int, rounds: list[dict]) -> list[str]:
    """Outputs are byte-identical across the rounds of this run and across
    runs of the same seed on the same program sources."""
    digest_sets = [
        {Path(p).relative_to(ROOT).as_posix(): d for p, d in r["digests"].items()}
        for r in rounds
    ]
    record = STATE / "digests" / f"{workload_name}-{seed}-{_source_digest()}.json"
    if record.is_file():
        digest_sets.append(json.loads(record.read_text(encoding="utf-8")))
    else:
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(digest_sets[0], sort_keys=True), encoding="utf-8")
    return checks.identical_errors(digest_sets)


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def per_layer_metrics(workload, measured: dict, setup: dict) -> dict:
    traced = [str(i) for i, r in enumerate(measured["rounds"]) if r["traced"]]
    layers = [measured["layers"][i] for i in traced]
    counts = [measured["counts"][i] for i in traced]
    setup_layers = setup["layers"]["0"]
    metrics = {}
    for layer in tracing.TIMED_LAYERS:
        values = [t.get(layer, 0.0) for t in layers]
        if layer in workload.setup_spans:
            values = [setup_layers.get(layer, 0.0)]
        metrics[f"{layer}_s"] = (_median(values), "s")
    for name in ("models.random_forest.nodes", "pipeline.docs_preprocessed",
                 "pipeline.variant_terms", "vectorize.nnz"):
        metrics[name] = (_median([c.get(name, 0.0) for c in counts]), "count")
    writers = setup["rounds"] if workload.setup_bundles else [
        r for r in measured["rounds"] if r["traced"]
    ]
    metrics["models.io.bundle_bytes"] = (_median([r["bundle_bytes"] for r in writers]), "bytes")
    ratios = [c.get("pipeline.docs_used", 0.0) / c["pipeline.docs_preprocessed"]
              for c in counts if c.get("pipeline.docs_preprocessed")]
    metrics["pipeline.useful_ratio"] = (_median(ratios), "ratio")
    walls = {flag: [r["scaled_s"] for r in measured["rounds"] if r["traced"] is flag]
             for flag in (True, False)}
    metrics["trace.overhead_s"] = (_median(walls[True]) - _median(walls[False]), "s")
    recorded = set(measured["span_names"]) | set(setup.get("span_names", ()))
    expected = set(workload.spans) | set(workload.setup_spans)
    missing = sorted(expected - recorded) + measured["missing_targets"]
    if missing or measured["hook_errors"]:
        print(f"trace: missing spans {missing}; hook errors {measured['hook_errors']}",
              file=sys.stderr)
    metrics["trace.missing_spans"] = (len(missing), "count")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pashtext" / "cli.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'pashtext'}", file=sys.stderr)
        return 2
    seed = args.seed % 2**32
    work = STATE / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](work, seed)
    try:
        workload.prepare()
        setup_times = []
        for repeat in range(SETUP_REPEATS):
            traced = "all" if args.trace and repeat == SETUP_REPEATS - 1 else "none"
            setup = run_worker(work, f"setup{repeat}", workload.setup_commands(), 0,
                               traced, bundles=workload.setup_bundles)
            setup_times.append(setup["import"]["scaled_s"] + setup["rounds"][0]["scaled_s"])
            if any(code != 0 for code in setup["rounds"][0]["exit_codes"]):
                raise BenchError(f"a set-up command failed; see {work}/setup{repeat}.log")
        commands = workload.round_commands()
        measured = run_worker(work, "measure", commands, args.seconds,
                              "alternate" if args.trace else "none",
                              workload.digest_paths(), workload.round_bundles)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    rounds = measured["rounds"]
    failed = sum(code != 0 for r in rounds for code in r["exit_codes"])
    errors = _same_outputs(args.workload, seed, rounds)
    try:
        check_errors, f1s = workload.check()
    except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
        check_errors, f1s = [f"outputs could not be checked: {exc!r}"], []
    errors += check_errors
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    if args.trace:
        metrics = per_layer_metrics(workload, measured, setup)
    else:
        metrics = {
            "setup_s": (_median(setup_times), "s"),
            "wall_s": (_median([r["scaled_s"] for r in rounds]), "s"),
            # Later rounds only add allocator growth that depends on how many
            # rounds fit in the run, so memory is read after the first.
            "peak_rss_mb": (rounds[0]["peak_rss_mb"], "MB"),
            "macro_f1": (statistics.fmean(f1s) if f1s else 0.0, "f1"),
        }
    print(f"{args.workload}: {len(rounds)} rounds, {failed} failed commands, "
          f"{len(errors)} check errors; unscaled wall "
          f"{_median([r['wall_s'] for r in rounds]):.3f} s, calibration loop "
          f"{_median([r['loop_s'] for r in rounds]) * 1000:.2f} ms; "
          f"{json.dumps(measured['environment'])}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": len(rounds) * len(commands),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
