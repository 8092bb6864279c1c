"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/steady.py --seeds 10 --out perfbench/steadiness.json
    python3 perfbench/steady.py --trace 1 --seeds 1 --out perfbench/layers_seed0.json

Runs ``run.py`` once per (workload, seed), one after another, and writes for
every metric its values, median, quartiles and the interquartile range as a
share of the median. Compare that share with the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import run


def summarise(values: list[float]) -> dict:
    q1, med, q3 = run.quartiles(values)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10, help="run seeds 0..N-1")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    report = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for name in run.WORKLOAD_NAMES:
        rows, records, wall = [], [], []
        for seed in range(args.seeds):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=900, check=False,
            )
            wall.append(time.perf_counter() - start)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            records.append(json.loads(lines[-2])["record"])
            rows.append(json.loads(lines[-1]))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in list(rows[-1]["metrics"].items())[:6]),
                file=sys.stderr)
        metrics = {key: summarise([row["metrics"][key]["value"] for row in rows])
                   for key in rows[0]["metrics"]}
        for key, row in rows[0]["metrics"].items():
            metrics[key]["unit"] = row["unit"]
        report["workloads"][name] = {
            "seeds": list(range(args.seeds)),
            "correct": all(row["correct"] for row in rows),
            "attempted": [row["attempted"] for row in rows],
            "failed": [row["failed"] for row in rows],
            "outputs_identical": [r["outputs_identical"] for r in records],
            "run_wall_s": summarise(wall),
            "metrics": metrics,
        }
    report["environment"] = {k: records[-1][k] for k in
                             ("nproc", "python", "numpy", "blas", "blas_threads", "git_sha", "src_sha256")}
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    for name, summary in report["workloads"].items():
        print(name, {k: round(m["iqr_share"], 4) for k, m in summary["metrics"].items()
                     if not args.trace}, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
