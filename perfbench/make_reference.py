"""Write perfbench/reference.json: the outputs of one full op cycle of every
workload at seed 0.

    python3 perfbench/make_reference.py

For each op of a cycle it stores the sha256 of every output file and the
values checked with a tolerance (train losses, report.json numbers). Later
runs at seed 0 report ``outputs_identical`` against the digests and fail an
op whose values leave the tolerance. Regenerate it only when a change is
meant to alter outputs, and say so in that change.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys

import run

SEED = 0


def main() -> int:
    run.pin_blas_threads()
    sys.path[:0] = [str(run.SRC), str(run.HERE)]

    out = {"seed": SEED, "src_sha256": run.src_sha256(), "workloads": {}}
    work_root = run.ROOT / ".bench_work" / "reference"
    try:
        for name in run.WORKLOAD_NAMES:
            workload, *_ = run.set_up(name, SEED, work_root / name)
            ops = []
            for i in range(workload.cycle):
                workload.run(i)
                result = workload.check(i)
                if result.problems:
                    raise SystemExit(f"{name} op {i}: {result.problems}")
                ops.append({k: v for k, v in dataclasses.asdict(result).items()
                            if k in ("sha256", "values")})
            out["workloads"][name] = ops
            print(f"{name}: {len(ops)} ops", file=sys.stderr)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
