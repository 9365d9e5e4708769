"""One workload process: load the inputs, warm up, then run timed operations.

Started by ``run.py`` in a fresh interpreter with one BLAS/OpenMP thread.
It imports ``condexp`` from ``src/`` of the working directory, runs one
untimed warm-up operation, then closed-loop timed operations (one caller,
the next operation starts when the previous one and its check are done)
until the operations' summed time reaches ``--seconds``.  Each
operation's instance is read from its file just before it runs (untimed)
and dropped after its check, so the peak memory is the program's, plus
one instance.  The result is
written as JSON to ``--result``; a wrong output stops the run there.
"""

from __future__ import annotations

import argparse
import gc
import json
import pickle
import resource
import sys
import time
import traceback
from pathlib import Path


def import_condexp(src: Path):
    sys.path.insert(0, str(src))
    import condexp

    if Path(condexp.__file__).resolve().parent != (src / "condexp").resolve():
        raise ImportError(f"condexp was imported from {condexp.__file__}, not {src}")
    return condexp


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--first", type=int, default=0,
                        help="pool index of the warm-up operation; timed ones follow")
    parser.add_argument("--stride", type=int, default=1)
    parser.add_argument("--trace", type=Path, default=None,
                        help="record spans and write them to this .npz file")
    parser.add_argument("--result", required=True, type=Path)
    args = parser.parse_args(argv)

    import_condexp(Path.cwd() / "src")
    import tracing
    import workloads

    run_op, check_op = workloads.WORKLOADS[args.workload]
    pool = len(list(args.inputs.glob("inst-*.pkl")))

    def load(index: int):
        with open(args.inputs / f"inst-{index % pool}.pkl", "rb") as fh:
            return pickle.load(fh)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    gc.collect()
    gc.freeze()

    result = {"latencies": [], "failed": [], "error": None}
    index = args.first
    try:
        inst = load(index)
        check_op(inst, run_op(inst))
        del inst
        if tracer:
            tracer.reset()
        result["first_op_at"] = time.monotonic()
        busy = 0.0
        while busy < args.seconds:
            index += args.stride
            inst = load(index)
            if tracer:
                span = tracer.open("op")
            start = time.perf_counter()
            out = run_op(inst)
            elapsed = time.perf_counter() - start
            if tracer:
                tracer.close(span)
            busy += elapsed
            result["latencies"].append(elapsed)
            result["failed"].append(bool(check_op(inst, out)))
            del inst, out
            gc.collect()
    except workloads.CheckError as exc:
        result["error"] = f"wrong output on pool input {index % pool}: {exc}"
        traceback.print_exc()
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.save(args.trace)
    args.result.write_text(json.dumps(result))
    return 0 if result["error"] is None else 3


if __name__ == "__main__":
    sys.exit(main())
