"""Benchmark entry point: one workload, in this process, ops back to back.

    python3 perfbench/run.py --workload render --seed 0 --seconds 20 --trace 0

Run from the root of a checkout that holds ``src/s2a``. With ``--trace 0``
the last stdout line carries the end-to-end metrics; with ``--trace 1`` it
carries the per-layer metrics of a run that alternates untraced and traced
ops (see perfbench/README.md). The line before it is the run record.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 3  # set-ups per run: this process plus SETUP_SAMPLES - 1 children
VALUE_RTOL = 1e-9  # train losses and report.json values against the reference
WORKLOAD_NAMES = ("train", "render", "synth", "evaluate")


def pin_blas_threads() -> None:
    """One BLAS/OpenMP thread; must run before numpy is first imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


# ---------------------------------------------------------------------------
# Arithmetic

def p50(values: list[float]) -> float:
    return statistics.median(values)


def work_per_s(work: list[float], seconds: list[float]) -> float:
    """Total work over the summed wall time of the ops that did it."""
    return sum(work) / sum(seconds)


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def values_differ(got: dict[str, float], want: dict[str, float]) -> list[str]:
    """Keys whose values are missing or outside VALUE_RTOL of the reference
    (two NaNs agree)."""
    def close(a, b):
        return a == b or (a != a and b != b) or abs(a - b) <= VALUE_RTOL * abs(b)

    return [key for key in sorted(set(got) | set(want))
            if key not in got or key not in want or not close(got[key], want[key])]


# ---------------------------------------------------------------------------
# Run record

def git_sha() -> str | None:
    """HEAD of the checkout, read without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256() -> str:
    """Digest over the package sources, so a record names the code it ran."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "s2a").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
    }


# ---------------------------------------------------------------------------
# Set-up and ops

def set_up(name: str, seed: int, workdir: Path):
    """Import s2a, build the inputs and run one warm-up op.

    Returns (workload, probe, wall seconds, seconds at reference speed).
    """
    start = time.perf_counter()
    import workloads  # the benchmark's first import of s2a

    workload = workloads.WORKLOADS[name](workdir, seed)
    workload.run(0)
    wall = time.perf_counter() - start
    import hostspeed  # not at the top: numpy must first load inside the timed set-up

    probe = hostspeed.Probe()
    seconds = wall * hostspeed.scale([probe(), probe()])
    workload.check(0)
    return workload, probe, wall, seconds


def setup_in_child(name: str, seed: int, workdir: Path) -> dict:
    """One cold set-up in a fresh interpreter, so import and first-call
    costs count in every sample: {"setup_s", "wall_s"}."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only", str(workdir)],
        capture_output=True, text=True, timeout=170, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class OpLog:
    """Wall time, host-speed scale, work and verdict of every measured op,
    checked against the committed reference (seed 0) or else the run's own
    first op of the same input."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.wall: list[float] = []
        self.scale: list[float] = []  # wall -> reference seconds, from the probes around the op
        self.work: list[float] = []
        self.failed = 0
        self.problems: list[str] = []
        self.identical = True
        reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        committed = reference.get("workloads", {}).get(workload.name)
        self.reference_kind = "committed" if seed == reference.get("seed") and committed else "run"
        self.expected = dict(enumerate(committed)) if self.reference_kind == "committed" else {}

    @property
    def seconds(self) -> list[float]:
        """Op times at the reference host speed."""
        return [w * f for w, f in zip(self.wall, self.scale)]

    def timed(self, i: int, tracer=None) -> None:
        """Run, time and check op i; spans are recorded only when traced."""
        with tracer.op(i) if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                self.workload.run(i)
                error = None
            except Exception as err:  # an op that raises is a failed op, not a crashed run
                error = f"{type(err).__name__}: {err}"
            self.wall.append(time.perf_counter() - start)
        problems, work = ([error], 0.0) if error else self._check(i)
        self.work.append(0.0 if problems else work)
        if problems:
            self.failed += 1
            self.problems.extend(f"op {i}: {p}" for p in problems)

    def _check(self, i: int) -> tuple[list[str], float]:
        """(problems, work) of op i's outputs."""
        try:
            result = self.workload.check(i)
        except (OSError, ValueError, KeyError) as err:  # missing or malformed outputs
            return [f"outputs unreadable: {type(err).__name__}: {err}"], 0.0
        problems = list(result.problems)
        want = self.expected.setdefault(
            i % self.workload.cycle, {"sha256": result.sha256, "values": result.values})
        if result.sha256 != want["sha256"]:
            self.identical = False
        bad = values_differ(result.values, want["values"])
        if bad:
            problems.append(f"values outside tolerance of the reference: {bad[:5]}")
        return problems, result.work


def measure(probe, logs: list[OpLog], seconds: float, cycle: int,
            tracer=None) -> tuple[dict[int, float], list[float]]:
    """Issue ops back to back in whole cycles, a probe between each two,
    and scale each op by the probes around it (hostspeed.op_scales).

    Every run covers each input equally often: another cycle starts while
    the run would end nearer to `seconds` with it than without it.
    Untraced, `logs` is one log. Traced, it is (untraced, traced): each op
    runs once in each, in alternating order, and its outputs meet the same
    expectations. Returns the scale of every traced op by op id, and the
    peak RSS after each cycle.
    """
    from hostspeed import SIDE, op_scales  # numpy is loaded by now

    for log in logs[1:]:
        log.expected = logs[0].expected
    peaks, order = [], []  # order: (log, op id) of every op as it ran
    gaps = [probe() for _ in range(SIDE)]
    start = time.perf_counter()
    i = 0
    while i == 0 or (time.perf_counter() - start) * (1 + cycle / (2 * i)) < seconds:
        for _ in range(cycle):
            for log in (logs if i % 2 == 0 else logs[::-1]):
                is_traced = tracer is not None and log is logs[-1]
                log.timed(i, tracer if is_traced else None)
                gaps.append(probe())
                order.append((log, i))
            i += 1
        peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    gaps.extend(probe() for _ in range(SIDE - 1))
    traced_scale = {}
    for (log, op), factor in zip(order, op_scales(gaps), strict=True):
        log.scale.append(factor)
        if tracer is not None and log is logs[-1]:
            traced_scale[op] = factor
    return traced_scale, peaks


# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="WORKDIR",
                        help="time one set-up in WORKDIR and print it (used for set-up samples)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "s2a" / "__init__.py").is_file():
        print(f"perfbench: no s2a sources under {SRC}", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path[:0] = [str(SRC), str(HERE)]

    if args.setup_only:
        _, _, wall, seconds = set_up(args.workload, args.seed, Path(args.setup_only))
        print(json.dumps({"setup_s": seconds, "wall_s": wall}))
        return 0

    work_root = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = []
        if not args.trace:
            for k in range(1, SETUP_SAMPLES):
                setups.append(setup_in_child(args.workload, args.seed, work_root / f"setup{k}"))
        workload, probe, wall, seconds = set_up(args.workload, args.seed, work_root / "run")
        setups.append({"setup_s": seconds, "wall_s": wall})

        plain = OpLog(workload, args.seed)
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            logs = (plain, OpLog(workload, args.seed))
            traced_scale, peaks = measure(probe, logs, args.seconds, workload.cycle, tracer)
            metrics = tracer.metrics(traced_scale)
            metrics["trace_overhead"] = {
                "value": p50(logs[1].seconds) / p50(plain.seconds) - 1.0, "unit": "ratio"}
        else:
            logs = (plain,)
            _, peaks = measure(probe, logs, args.seconds, workload.cycle)
            metrics = {
                "work_per_s": {"value": work_per_s(plain.work, plain.seconds), "unit": "work/s"},
                "latency_s_p50": {"value": p50(plain.seconds), "unit": "s"},
                "setup_s": {"value": p50([s["setup_s"] for s in setups]), "unit": "s"},
                # after the first cycle, so the figure does not depend on how
                # many cycles the host's speed allowed; later ones are in the record
                "peak_rss_mb": {"value": peaks[0], "unit": "MB"},
            }
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            work_root.parent.rmdir()

    attempted = sum(len(log.wall) for log in logs)
    failed = sum(log.failed for log in logs)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "ops": [len(log.wall) for log in logs],
        "cycle": workload.cycle, "work_unit": workload.work_unit,
        "latency_s_quartiles": [quartiles(log.seconds) for log in logs],
        "wall_latency_s_quartiles": [quartiles(log.wall) for log in logs],
        "wall_work_per_s": [work_per_s(log.work, log.wall) for log in logs],
        "scale_quartiles": [quartiles(log.scale) for log in logs],
        "setups": setups,
        "peak_rss_mb_per_cycle": peaks,
        "outputs_identical": all(log.identical for log in logs),
        "reference": plain.reference_kind,
        "problems": [p for log in logs for p in log.problems][:10],
        **environment(),
    }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
