"""Repeat mode: run the benchmark in repeated sets and print each metric's spread.

    python3 perfbench/spread.py
    python3 perfbench/spread.py --workloads paper-replay --runs 5 --sets 1

Set k (from 0) runs each workload ``--runs`` times, untraced, for
BENCHMARK.json's ``run_seconds``, with seeds ``1 + k * runs`` onwards, one
``run.py`` process per run, in the order set, workload, seed.
For every metric it prints each set's median and quartiles, the spread
(interquartile distance over the median; a bound in BENCHMARK.json should
be at least three times it) and the change of each set's median against
the first set's.  The runs are also written to
``perfbench/out/spread.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default="iterate-cli,lattice-large,paper-replay")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args(argv)
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    workloads = args.workloads.split(",")
    runs = {w: [] for w in workloads}
    for k in range(args.sets):
        for w in workloads:
            seeds = range(1 + k * args.runs, 1 + (k + 1) * args.runs)
            runs[w].append([dict(run_once(w, s, seconds), seed=s) for s in seeds])
            print(f"set {k + 1} {w}: done", file=sys.stderr, flush=True)

    report = {}
    for w in workloads:
        print(f"\n{w} ({args.runs} runs per set, {seconds} s each)")
        print("| metric | set | median | q1 | q3 | spread | median vs set 1 |")
        print("|---|---|---|---|---|---|---|")
        report[w] = {}
        for metric in runs[w][0][0]["metrics"]:
            rows = []
            for k, set_runs in enumerate(runs[w]):
                s = summarize([r["metrics"][metric]["value"] for r in set_runs])
                s["vs_first"] = s["median"] / rows[0]["median"] - 1 if rows else 0.0
                rows.append(s)
                print(f"| {metric} | {k + 1} | {s['median']:.5g} | {s['q1']:.5g} | "
                      f"{s['q3']:.5g} | {s['spread']:.3f} | {s['vs_first']:+.3f} |")
            report[w][metric] = rows
        shares = [sum(r["failed"] for r in sr) / sum(r["attempted"] for r in sr)
                  for sr in runs[w]]
        print(f"failed share per set: {', '.join(f'{x:.4f}' for x in shares)}")
        report[w]["failed_share"] = shares
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "spread.json").write_text(json.dumps({"summary": report, "runs": runs}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
