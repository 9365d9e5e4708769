"""Benchmark of condexp: one workload per call, one JSON result line.

Usage, from the root of a source checkout (``src/condexp`` must exist):

    python3 perfbench/run.py --workload iterate-cli --seed 1 --seconds 30 --trace 0

Inputs are generated from ``--seed`` in this process and handed to fresh
worker processes as files.  An untraced run (``--trace 0``) splits its
``--seconds`` of timed operations over WORKERS sequential worker
processes and prints the end-to-end metrics; a traced run (``--trace 1``)
runs one untraced and one traced worker for half the time each and
prints the per-layer metrics.  The last line of standard output is the
JSON result; a summary goes to standard error, and the full result (with
the per-operation latencies and, when traced, every layer's span totals)
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import gen
import tracing

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
WORKERS = 3
WORKER_TIMEOUT_S = 150

def worker_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    return env


def run_worker(workload: str, work: Path, seconds: float, first: int, stride: int,
               name: str, trace: bool) -> dict:
    """Start one worker, wait for it, and return its result with ``setup_s``.

    A result whose ``error`` is set stopped at a wrong output and carries
    only the operations before it.
    """
    result_path = work / f"{name}.json"
    spans_path = work / f"{name}.spans.npz"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--inputs", str(work), "--seconds", repr(seconds), "--first", str(first),
           "--stride", str(stride), "--result", str(result_path)]
    if trace:
        cmd += ["--trace", str(spans_path)]
    spawned_at = time.monotonic()
    proc = subprocess.run(cmd, env=worker_env(), stdout=sys.stderr, stderr=sys.stderr,
                          timeout=WORKER_TIMEOUT_S, check=False)
    if not result_path.exists():
        raise RuntimeError(f"worker {name} exited with code {proc.returncode} and no result")
    result = json.loads(result_path.read_text())
    if result["error"] is not None:
        return result
    if proc.returncode != 0:
        raise RuntimeError(f"worker {name} exited with code {proc.returncode}")
    result["setup_s"] = result["first_op_at"] - spawned_at
    if trace:
        with np.load(spans_path) as spans:
            result["spans"] = tracing.self_times(spans)
            result["installed"] = set(spans["installed"].tolist())
            result["counters"] = dict(zip(spans["counter_names"].tolist(),
                                          spans["counter_values"].tolist()))
    return result


def end_to_end(results: list[dict]) -> dict:
    latencies = [t for r in results for t in r["latencies"]]
    return {
        "ops_per_s": {"value": len(latencies) / sum(latencies), "unit": "1/s"},
        "op_p50_s": {"value": statistics.median(latencies), "unit": "s"},
        "peak_rss_mb": {"value": max(r["peak_rss_kb"] for r in results) / 1024, "unit": "MB"},
        "setup_s": {"value": statistics.median(r["setup_s"] for r in results), "unit": "s"},
    }


def per_layer(untraced: dict, traced: dict, declared: list[dict]) -> tuple[dict, dict]:
    """The ``declared`` per-layer metrics (from BENCHMARK.json), per timed
    operation of the traced worker, and every span name's totals.

    A metric is ``<span>.self_s``, ``<span>.calls``, a counter computed from
    results, or ``trace.overhead_s``.  A span that was installed but never
    entered reads 0; a span that was never installed is an error, so a
    renamed ``condexp`` function cannot pass for a free layer.
    """
    ops = len(traced["latencies"])
    spans, counters = traced["spans"], traced["counters"]
    metrics = {}
    for metric in declared:
        name = metric["name"]
        if name == "trace.overhead_s":
            value = (statistics.median(traced["latencies"])
                     - statistics.median(untraced["latencies"]))
        elif name in counters:
            value = counters[name] / ops
        elif name.endswith((".self_s", ".calls")):
            span, field = name.rsplit(".", 1)
            if span not in traced["installed"]:
                raise ValueError(f"per-layer metric {name!r}: no span {span!r} was installed")
            calls, self_s = spans.get(span, (0, 0.0))
            value = (self_s if field == "self_s" else calls) / ops
        else:
            raise ValueError(f"per-layer metric {name!r} has no definition")
        metrics[name] = {"value": value, "unit": metric["unit"]}
    return metrics, {name: {"calls": c, "self_s": s} for name, (c, s) in sorted(spans.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=list(gen.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src" / "condexp"
    if not (src / "__init__.py").is_file():
        print(f"perfbench: no condexp sources at {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    # Bytecode is written once here, so no worker's set-up pays for compiling.
    compileall.compile_dir(src, quiet=1)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    if args.trace:
        plan = [(args.seconds / 2, 0, 1, "untraced", False), (args.seconds / 2, 0, 1, "traced", True)]
    else:
        plan = [(args.seconds / WORKERS, k, WORKERS, f"worker{k}", False) for k in range(WORKERS)]
    results = []
    try:
        gen.write_inputs(args.workload, args.seed, work)
        for seconds, first, stride, name, trace in plan:
            results.append(run_worker(args.workload, work, seconds, first, stride, name, trace))
            if results[-1]["error"] is not None:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [f for r in results for f in r["failed"]]
    error = results[-1]["error"]
    if error is not None:
        print(f"perfbench: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": len(failed) + 1,
                          "failed": sum(failed), "metrics": {}}))
        return 1
    if args.trace:
        declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
        metrics, layers = per_layer(*results, declared)
    else:
        metrics, layers = end_to_end(results), None
    line = {"correct": True, "attempted": len(failed), "failed": sum(failed),
            "metrics": metrics}
    record = dict(line, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  latencies=[r["latencies"] for r in results],
                  setup_s=[r["setup_s"] for r in results], layers=layers)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"{args.workload}: {len(failed)} operations timed, {sum(failed)} failed",
          file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
