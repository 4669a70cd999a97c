"""Benchmark runner for fairplug: three serial, closed-loop workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload german-grid --seed 1 --seconds 30 --trace 0

One client runs one CLI stage at a time.  Every sample is a fresh
``workload.py`` process, so ``import fairplug`` is part of set-up.  The
runner writes the workload's input from ``--seed`` before any timing,
keeps starting processes until the next would end after ``--seconds``
(``consistency`` runs a fixed two), and prints an environment stamp, an
information line and, last, one JSON result line.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates traced and untraced processes and reports the per-layer
metrics.  See README.md in this directory.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads here or in any child: idle
# OpenBLAS threads otherwise add CPU time and scheduler noise on small
# machines without changing the wall time of these workloads.
BLAS_THREADS = "1"
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from surrogate import write_german_csv  # noqa: E402
from tracer import PER_LAYER  # noqa: E402
from workload import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_FULL = 2  # full-workload processes per untraced run, at least
SETUP_PER_FULL = 2  # set-up-only processes before each full one
MIN_TRACED = 2  # traced processes per traced run, at least
DEADLINE_S = 170.0  # the whole run, set-up included


class BenchError(RuntimeError):
    pass


def _git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_sha": _git_sha(),
        "workload": args.workload,
        "seed": args.seed,
    }


class Runner:
    """Starts workload processes and keeps their results."""

    def __init__(self, args, work: Path, started: float) -> None:
        self.args = args
        self.work = work
        self.started = started
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        # Byte-compile the package once (in the warm-up) rather than in
        # every timed import, as an installed package would be.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env.pop("PYTHONPYCACHEPREFIX", None)

    def process(self, mode: str, trace: bool = False, draw: int = 0) -> dict:
        self.count += 1
        run_dir = self.work / f"p{self.count:03d}"
        run_dir.mkdir()
        spec_path = run_dir / "spec.json"
        result_path = run_dir / "result.json"
        log_path = run_dir / "log.txt"
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("out of time before the workload finished")
        spec = {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "mode": mode,
            "trace": trace,
            "draw": draw,
            "root": str(ROOT),
            "work": str(run_dir),
            "csv": str(self.work / "input.csv"),
            "result": str(result_path),
        }
        spec_path.write_text(json.dumps(spec))
        with open(log_path, "w") as log:
            # Set-up time counts from here, the start of the process.
            t0 = time.monotonic()
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "workload.py"), str(spec_path), repr(t0)],
                    env=self.env,
                    cwd=run_dir,
                    stdin=subprocess.DEVNULL,
                    stdout=log,
                    stderr=subprocess.STDOUT,
                    timeout=remaining,
                )
            except subprocess.TimeoutExpired:
                raise BenchError(f"{mode} process timed out") from None
        if proc.returncode != 0 or not result_path.exists():
            tail = log_path.read_text()[-2000:]
            raise BenchError(f"{mode} process exited with {proc.returncode}:\n{tail}")
        result = json.loads(result_path.read_text())
        shutil.rmtree(run_dir)  # prepared dirs at adult scale are 20 MB each
        return result

    def elapsed(self) -> float:
        return time.monotonic() - self.started


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def _checks(results: list[dict]) -> tuple[int, int, dict]:
    """Operations attempted and failed: each stage run and output check."""
    attempted = failed = 0
    failures: dict[str, int] = {}
    for result in results:
        attempted += len(result["stages"])
        for name, ok in result.get("checks", {}).items():
            attempted += 1
            if not ok:
                failed += 1
                failures[name] = failures.get(name, 0) + 1
    return attempted, failed, failures


def run_untraced(runner: Runner) -> tuple[dict, dict, list[dict]]:
    seconds = runner.args.seconds
    # A workload with a fixed number of draws runs one full process per
    # draw, so that a seed always gives the same inputs.
    draws = WORKLOADS[runner.args.workload].get("draws")
    setups: list[dict] = []
    full: list[dict] = []
    last = 0.0

    def more() -> bool:
        if draws is not None:
            return len(full) < draws
        return len(full) < MIN_FULL or runner.elapsed() + last <= seconds

    # Set-up-only processes alternate with full ones, so that both kinds of
    # sample see the same stretch of machine speed.
    while more():
        began = time.monotonic()
        setups.extend(runner.process("setup") for _ in range(SETUP_PER_FULL))
        full.append(runner.process("full", draw=len(full)))
        last = time.monotonic() - began
    setups.extend(runner.process("setup") for _ in range(SETUP_PER_FULL))
    setup_values = [r["setup_s"] for r in setups + full]
    metrics = {
        "setup_s": (_median(setup_values), "s"),
        "run_s": (_median([r["run_s"] for r in full]), "s"),
        "total_s": (_median([r["total_s"] for r in full]), "s"),
        "peak_rss_mb": (_median([r["peak_rss_mb"] for r in full]), "MiB"),
    }
    info = {
        "samples": {"setup_s": len(setup_values), "full": len(full)},
        "setup_s": setup_values,
        "run_s": [r["run_s"] for r in full],
        "total_s": [r["total_s"] for r in full],
        "sha256": [r["sha256"] for r in full],
    }
    return metrics, info, setups + full


def run_traced(runner: Runner) -> tuple[dict, dict, list[dict]]:
    seconds = runner.args.seconds
    traced: list[dict] = []
    plain: list[dict] = []
    last = 0.0
    # Traced and untraced processes alternate, traced first, so that the
    # traced counts can be compared between at least two processes.
    while len(traced) < MIN_TRACED or runner.elapsed() + last <= seconds:
        began = time.monotonic()
        trace = len(traced) <= len(plain)
        (traced if trace else plain).append(runner.process("full", trace=trace))
        last = time.monotonic() - began
    metrics = {}
    repeat_ok = True
    for name, unit in PER_LAYER.items():
        values = [r["layers"][name] for r in traced]
        if unit == "s":
            metrics[name] = (_median(values), unit)
        else:
            repeat_ok &= all(v == values[0] for v in values)
            metrics[name] = (values[0], unit)
    traced_run = _median([r["run_s"] for r in traced])
    metrics["trace.run_s"] = (traced_run, "s")
    metrics["trace.overhead_s"] = (traced_run - _median([r["run_s"] for r in plain]), "s")
    metrics["trace.remainder_s"] = (_median([r["remainder_s"] for r in traced]), "s")
    traced[0]["checks"]["traced_counts_repeat"] = repeat_ok
    info = {
        "samples": {"traced": len(traced), "untraced": len(plain)},
        "traced_run_s": [r["run_s"] for r in traced],
        "untraced_run_s": [r["run_s"] for r in plain],
        "sha256": plain[0]["sha256"],
    }
    return metrics, info, traced + plain


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind like an exception: the running workload process is
    # killed and waited for, and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "fairplug" / "__init__.py").is_file():
        print(f"no fairplug sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    print("env " + json.dumps(_environment(args)), flush=True)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        work = Path(tmp)
        rows = WORKLOADS[args.workload]["rows"]
        if rows:
            write_german_csv(work / "input.csv", rows, args.seed)
        runner = Runner(args, work, started)
        try:
            runner.process("import")
            if args.trace:
                metrics, info, results = run_traced(runner)
            else:
                metrics, info, results = run_untraced(runner)
        except BenchError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        attempted, failed, failures = _checks(results)
        if not args.trace:
            metrics["ok_ops_ratio"] = ((attempted - failed) / attempted, "ratio")
        info["failed_checks"] = failures
        info["elapsed_s"] = runner.elapsed()
    print("info " + json.dumps(info), flush=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
