"""Run the reference sweeps, simulations and geometry rasters; print their outputs' SHA-256.

Usage (from the repository root)::

    python3 tools/reference_outputs.py
    python3 tools/reference_outputs.py --compare HEAD~1

The sweep inputs are perfbench's seed-1 German-shaped surrogates: 1,000
rows prepared into 20 splits and 45,000 rows into 3 (``prepare --seed
1``).  ``prepare`` runs in the inputs directory with the CSV named
relative to it, so its manifest records the same ``config.input`` in
every tree.  On each, six sweeps run on the default grid with ``--seed 1``:
eo-blind at ``--eps-p`` 1 and inf, eo-aware, dpar-blind at 2 and inf,
and dpar-aware, each serially and with ``--jobs 2``, and ``report``
aggregates every sweep.  The adult-shaped training splits hold 31,500
rows, so their fits accumulate the Hessian over several row blocks.  The
four ``simulate`` experiments run at small sizes, each serially and with
``--jobs 2`` (see ``SIMULATIONS``): ``consistency``,
``sample-complexity`` once per target (``eta`` and ``eta_bar_eo`` on
reference-eo, ``eta_bar_dpar`` on reference-dpar), and ``frontier`` and
``tradeoff-gap`` at ``--m-eval 20000``.  ``consistency`` and
``sample-complexity --which eta_bar_eo`` run once more on ``--dist
gaussian-4d.kv``, a 4-D truncated-Gaussian law with a nonzero label
weight that the script writes into its inputs directory, so the
sensitive-attribute regression is pinned wider than the 2-D reference
laws.  Every ``simulate`` runs in the inputs directory, so the file is
named relative to it and the manifests record the same ``config.dist``
in every run.  Three ``geometry`` rasters run
once each (they take no ``--jobs``), two of them with ``--svg``.  Each
command is a child process with ``OPENBLAS_NUM_THREADS=1``, since the
fits call BLAS and some outputs move with its thread count, and with
``PYTHONHASHSEED=0``, which moves no output but steadies the peaks.  The
script prints ``sha256  path`` for each prepared directory's
``features.npy``, ``labels.npy``, ``sensitive.npy``, ``meta.kv`` and
``manifest.kv``, for every sweep's ``records.csv``, ``curve.csv`` and
``curve.svg``, and for every simulation's and geometry run's CSV and SVG
files and its ``manifest.kv``; a manifest is hashed without its
``config.out`` line, which names the run's own directory: 158 files in
all.  Standard output holds
only those ``sha256  path`` lines, so ``> SHA256SUMS`` keeps a
``sha256sum``-style list; every status and difference line goes to
standard error, and so, after the runs, does each command's peak
resident set in MiB, one line per command named by its subcommand and
its output directory.  It exits 1 if a ``--jobs 2`` output differs from
its serial twin.

``--compare REV`` exports REV's tree with ``git archive`` into a
temporary directory, runs the same commands with that tree's code on the
same inputs (both trees' packages are byte-compiled by ``compileall``
before the first command, so that neither side's peaks include
compiling modules the other loads from bytecode), names each file whose
bytes differ (for a ``records.csv``, with its first differing row and
column) and each file REV wrote that
this tree did not, and exits 1 if there is any.  Each command's peak
line then shows REV's peak beside this tree's, and each command whose
peak rose by more than 10% (``PEAK_BOUND``, the benchmark's
``peak_rss_mb`` bound) is named once more at the end; the peaks never
change the exit status.  The hashes depend on the machine, because
OpenBLAS picks its kernels by CPU, so compare two trees on one machine
rather than against hashes recorded elsewhere.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import multiprocessing
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

SEED = 1
#: (name, surrogate rows, prepared splits)
DATASETS = (("german", 1000, 20), ("adult", 45000, 3))
#: (setting, per-split privacy budget)
SWEEPS = (
    ("eo-blind", "1"),
    ("eo-blind", "inf"),
    ("eo-aware", "inf"),
    ("dpar-blind", "2"),
    ("dpar-blind", "inf"),
    ("dpar-aware", "inf"),
)
HASHED = ("records.csv", "curve.csv", "curve.svg")
#: The ``prepare`` outputs hashed besides the sweeps'; the split files are
#: read by every sweep, whose records pin them.
PREPARED = ("features.npy", "labels.npy", "sensitive.npy", "meta.kv", "manifest.kv")
_COMPLEXITY = ("--experiment", "sample-complexity", "--eps-target", "0.05", "--trials", "3",
               "--start", "32", "--cap", "256", "--m-eval", "20000", "--seed", "4")
#: A 4-D truncated-Gaussian law whose sensitive attribute has a nonzero
#: label weight, written into the inputs directory for the ``--dist`` runs.
DIST_4D = "gaussian-4d.kv"
DIST_4D_TEXT = """law = truncated-gaussian
mean = 0.1 -0.2 0.0 0.3
std = 0.8 1.0 0.6 0.9
lows = -1.5 -2.0 -1.0 -1.5
highs = 1.5 1.0 1.2 2.0
w_eta = 1.3 -0.9 0.6 0.4 0.2
w_eta_bar = -0.7 0.5 1.1 -0.3 0.8 -0.1
"""
_CONSISTENCY = ("--experiment", "consistency", "--n-schedule", "256,1024",
                "--trials", "4", "--m-eval", "20000", "--seed", "5")
#: (run name, ``simulate`` arguments)
SIMULATIONS = (
    ("consistency", _CONSISTENCY),
    ("consistency-gaussian-4d", (*_CONSISTENCY, "--dist", DIST_4D)),
    ("sample-complexity", _COMPLEXITY),
    ("sample-complexity-eta_bar_eo", (*_COMPLEXITY, "--which", "eta_bar_eo")),
    ("sample-complexity-eta_bar_dpar",
     (*_COMPLEXITY, "--dist", "reference-dpar", "--which", "eta_bar_dpar")),
    ("sample-complexity-eta_bar_eo-gaussian-4d",
     (*_COMPLEXITY, "--dist", DIST_4D, "--which", "eta_bar_eo")),
    ("frontier", ("--experiment", "frontier", "--m-eval", "20000")),
    ("tradeoff-gap", ("--experiment", "tradeoff-gap", "--m-eval", "20000")),
)
#: (run name, ``geometry`` arguments)
GEOMETRIES = (
    ("eo-blind-svg", ("--params=-3.6,0.85,0.8,0.9", "--raster", "201", "--svg")),
    ("dpar-blind-svg", ("--params=0.4,0.85,0.8,0.9", "--setting", "dpar-blind", "--svg")),
    ("eo-blind", ("--params=0.4,0.85,0.8,0.9", "--eps", "0.1", "--raster", "101")),
)
#: The relative rise of a command's peak that ``--compare`` names.
PEAK_BOUND = 0.10
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: A fixed string-hash seed: the outputs do not depend on it, but a
#: command's peak moves by a few tenths of a MiB with it.
HASH_SEED = {"PYTHONHASHSEED": "0"}


def fairplug(source: Path, *args: str, cwd: Path | None = None) -> float:
    """``fairplug ARGS`` in a child process running ``source``'s code, in ``cwd``.

    Returns the child's peak resident set in MiB (``ru_maxrss`` from
    ``os.wait4``, which also covers the workers it reaped).  A child
    starts with this process's peak as the floor of its ``ru_maxrss``, so
    this process never imports numpy or holds a whole output file (see
    :func:`write_inputs` and :func:`sha256`).
    """
    env = {**os.environ, **BLAS_THREADS, **HASH_SEED, "PYTHONPATH": str(source / "src")}
    command = f"fairplug {' '.join(args)}"
    with tempfile.TemporaryFile() as output:
        child = subprocess.Popen(
            [sys.executable, "-m", "fairplug.cli", *args],
            env=env, cwd=cwd, stdout=output, stderr=output,
        )
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        if child.returncode != 0:
            output.seek(0)
            log = output.read().decode(errors="replace")
            raise SystemExit(f"{command} exited {child.returncode}:\n{log}")
    return usage.ru_maxrss / 1024


def compile_tree(source: Path) -> None:
    """Byte-compile ``source``'s package in a child process, as stale or missing bytecode needs."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(source / "src")],
        check=True, stdout=subprocess.DEVNULL,
    )


def write_inputs(inputs: Path) -> None:
    """The surrogate CSVs and the 4-D law; :func:`main` runs this in a spawned process."""
    from surrogate import write_german_csv

    inputs.mkdir(parents=True)
    for name, rows, _ in DATASETS:
        write_german_csv(inputs / f"{name}.csv", rows, SEED)
    (inputs / DIST_4D).write_text(DIST_4D_TEXT)


def sha256(path: Path) -> str:
    """The file's digest, read in blocks; a manifest's is taken without its ``config.out`` line."""
    with open(path, "rb") as handle:
        if path.name != "manifest.kv":
            return hashlib.file_digest(handle, "sha256").hexdigest()
        digest = hashlib.sha256()
        for line in handle:
            if not line.startswith(b"config.out "):
                digest.update(line)
        return digest.hexdigest()


def hashed(path: Path) -> bool:
    """Whether ``path`` is a reference output: a prepared, sweep, simulate or geometry file."""
    return path.is_file() and (
        path.name in HASHED
        or (path.parts[-2] == "prepared" and path.name in PREPARED)
        or path.parts[-3] in ("simulate", "geometry")
    )


def run_tree(source: Path, inputs: Path, out: Path) -> tuple[dict[str, str], dict[str, float]]:
    """Every reference command on ``source``'s code.

    Returns ``{path under out: sha256}`` and each command's peak in MiB,
    keyed by its subcommand and its output directory under ``out``.
    """
    peaks: dict[str, float] = {}

    def run(command: str, dest: Path, *args: str, cwd: Path | None = None) -> None:
        label = f"{command} {dest.relative_to(out).as_posix()}"
        peaks[label] = fairplug(source, command, *args, "--out", str(dest), cwd=cwd)

    seed = str(SEED)
    for name, _, repeats in DATASETS:
        prepared = out / name / "prepared"
        run(
            "prepare", prepared, "--input", f"{name}.csv", "--schema", "german_gender",
            "--repeats", str(repeats), "--seed", seed, cwd=inputs,
        )
        for (setting, eps_p), jobs in itertools.product(SWEEPS, ("1", "2")):
            sweep = out / name / f"{setting}_eps{eps_p}_j{jobs}"
            run(
                "sweep", sweep / "sweep", "--prepared", str(prepared), "--setting", setting,
                "--eps-p", eps_p, "--grid", "default", "--seed", seed, "--jobs", jobs,
            )
            run("report", sweep / "report", "--records", str(sweep / "sweep"))
    for (name, args), jobs in itertools.product(SIMULATIONS, ("1", "2")):
        run("simulate", out / "simulate" / f"{name}_j{jobs}", *args, "--jobs", jobs, cwd=inputs)
    for name, args in GEOMETRIES:
        run("geometry", out / "geometry" / name, *args)
    sums = {
        path.relative_to(out).as_posix(): sha256(path)
        for path in sorted(out.rglob("*"))
        if hashed(path)
    }
    return sums, peaks


def print_peaks(peaks: dict[str, float], rev: str | None, rev_peaks: dict[str, float]) -> None:
    """Each command's peak in MiB on standard error, REV's beside it when given."""
    if rev is None:
        for label, peak in peaks.items():
            print(f"{peak:7.1f} MiB  {label}", file=sys.stderr)
        return
    print(f"peak MiB: {rev}, this tree, command", file=sys.stderr)
    rose = []
    for label, peak in peaks.items():
        before = rev_peaks[label]
        flag = ""
        if peak > before * (1 + PEAK_BOUND):
            flag = f"  (+{peak / before - 1:.1%})"
            rose.append(label)
        print(f"{before:7.1f} {peak:7.1f}  {label}{flag}", file=sys.stderr)
    for label in rose:
        print(f"peak rose by more than {PEAK_BOUND:.0%} from {rev}: {label}", file=sys.stderr)


def jobs_mismatches(sums: dict[str, str]) -> list[str]:
    """The ``--jobs 2`` outputs whose bytes differ from the serial run's."""
    return [
        path for path, digest in sums.items()
        if "_j2/" in path and sums[path.replace("_j2/", "_j1/")] != digest
    ]


def first_difference(old: Path, new: Path) -> str:
    """Where two records files first differ: line number and column name."""
    with open(old, newline="") as left, open(new, newline="") as right:
        header = left.readline()
        if header != right.readline():
            return "line 1 (header)"
        names = header.rstrip("\r\n").split(",")
        for number, (a, b) in enumerate(itertools.zip_longest(left, right), 2):
            if a == b:
                continue
            if a is None or b is None:
                return f"line {number}: one file ends"
            cells = zip(names, a.rstrip("\r\n").split(","), b.rstrip("\r\n").split(","))
            column = next((name for name, x, y in cells if x != y), "line ending")
            return f"line {number}, column {column}: {a.rstrip()!r} -> {b.rstrip()!r}"
    return "same bytes"


def export(rev: str, dest: Path) -> None:
    """REV's committed tree, unpacked into ``dest``."""
    dest.mkdir()
    with subprocess.Popen(["git", "-C", str(ROOT), "archive", rev], stdout=subprocess.PIPE) as git:
        subprocess.run(["tar", "-x", "-C", str(dest)], stdin=git.stdout, check=True)
    if git.returncode != 0:
        raise SystemExit(f"git archive {rev} exited {git.returncode}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", metavar="REV", help="also run REV's tree and diff the outputs")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="fairplug-reference-") as temp:
        temp = Path(temp)
        writer = multiprocessing.get_context("spawn").Process(
            target=write_inputs, args=(temp / "inputs",)
        )
        writer.start()
        writer.join()
        if writer.exitcode != 0:
            raise SystemExit(f"writing the inputs exited {writer.exitcode}")
        trees = [ROOT]
        if args.compare:
            export(args.compare, temp / "rev")
            trees.append(temp / "rev")
        for tree in trees:
            compile_tree(tree)
        sums, peaks = run_tree(ROOT, temp / "inputs", temp / "this")
        for path, digest in sums.items():
            print(f"{digest}  {path}")
        failed = False
        for path in jobs_mismatches(sums):
            print(f"--jobs 2 differs from serial: {path}", file=sys.stderr)
            failed = True
        rev_peaks: dict[str, float] = {}
        if args.compare:
            rev_sums, rev_peaks = run_tree(temp / "rev", temp / "inputs", temp / "other")
            differing = [path for path in sums if rev_sums.get(path) != sums[path]]
            for path in differing:
                detail = ""
                if path.endswith("records.csv") and path in rev_sums:
                    detail = ": " + first_difference(temp / "other" / path, temp / "this" / path)
                print(f"differs from {args.compare}: {path}{detail}", file=sys.stderr)
            missing = sorted(rev_sums.keys() - sums.keys())
            for path in missing:
                print(f"written by {args.compare} but not by this tree: {path}", file=sys.stderr)
            if not (differing or missing):
                print(
                    f"all {len(sums)} files are byte-identical to {args.compare}", file=sys.stderr
                )
            failed |= bool(differing or missing)
        print_peaks(peaks, args.compare, rev_peaks)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
