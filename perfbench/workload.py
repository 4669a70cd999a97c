"""One workload process: set up, run the main stage, check the outputs.

``python3 perfbench/workload.py SPEC.json T0`` runs in a fresh interpreter
started by ``run.py``.  ``import fairplug`` is timed as part of set-up,
and every stage goes through ``fairplug.cli.main`` in this process.  The
process writes one JSON result to the path the spec names.  Modes:

* ``import``: import the package only (untimed warm-up).
* ``setup``:  import plus the set-up stage, timed.
* ``full``:   set-up, main stage and (grid workloads) ``report``, then
  the output checks; with ``trace`` the layer spans are recorded too.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

from tracer import Tracer, layer_metrics, self_times

GRID_POINTS = 41 * 9 * 9  # the default (lam, c, c_bar) grid

#: ``rows`` is the surrogate CSV size (0: the workload reads no CSV).
WORKLOADS = {
    "german-grid": {
        "rows": 1000,
        "repeats": 20,
        "noise_draws": 20,  # one per split: the whole grid reuses one private fit
        "sweep": ["--setting", "eo-blind", "--eps-p", "1", "--grid", "default"],
    },
    "adult-scale": {
        "rows": 45000,
        "repeats": 3,
        "noise_draws": 0,
        "sweep": ["--setting", "dpar-aware", "--eps-p", "inf", "--grid", "default"],
    },
    "consistency": {
        "rows": 0,
        # Each run averages two simulation seeds (2 * seed + draw): how many
        # of the 80 fits stop at the iteration cap, and so the run time,
        # varies by a quarter from one seed to the next.
        "draws": 2,
        "simulate": [
            "--experiment", "consistency", "--dist", "reference-eo",
            "--setting", "eo-blind", "--lam", "1", "--c", "0.5", "--c-bar", "0.5",
            "--n-schedule", "256,16384", "--trials", "20", "--m-eval", "50000",
        ],
    },
}


def _peak_rss_mb() -> float:
    """High-water resident set of this process image, in MiB.

    ``VmHWM`` belongs to the address space created at exec, so unlike
    ``ru_maxrss`` it never carries over the parent's peak.
    """

    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check_records(path: Path, expected: int) -> dict[str, bool]:
    rows = 0
    in_range = True
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        for row in reader:
            rows += 1
            if row["flags"]:
                continue
            for name in ("bal_acc", "violation"):
                value = float(row[name])
                if not 0.0 <= value <= 1.0:
                    in_range = False
    return {"record_count": rows == expected, "unflagged_in_unit_range": in_range}


def _curve_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class Stages:
    """Runs CLI stages in this process, each inside a ``cli.<stage>`` span."""

    def __init__(self, cli, tracer: Tracer) -> None:
        self.cli = cli
        self.tracer = tracer
        self.span_of: dict[str, int] = {}

    def run(self, name: str, argv: list[str]) -> None:
        index = self.tracer.begin("cli." + name)
        try:
            code = self.cli.main([name, *argv])
        finally:
            self.tracer.end(index)
        self.span_of[name] = index
        if code != 0:
            raise SystemExit(f"stage {name} exited with code {code}")


def main(spec_path: str, t0: float) -> int:
    """Run one process's share of a workload; ``t0`` is when it was started."""
    spec = json.loads(Path(spec_path).read_text())
    root = Path(spec["root"])
    work = Path(spec["work"])
    workload = WORKLOADS[spec["workload"]]
    seed = str(spec["seed"])

    import fairplug
    import fairplug.cli

    package = Path(fairplug.__file__).resolve().parent
    if package != (root / "src" / "fairplug").resolve():
        raise SystemExit(f"imported fairplug from {package}, not from this checkout")
    if spec["mode"] == "import":
        Path(spec["result"]).write_text("{}")
        return 0

    tracer = Tracer()
    if spec["trace"]:
        tracer.install()
    stages = Stages(fairplug.cli, tracer)
    result: dict = {}
    checks: dict[str, bool] = {}
    try:
        if workload["rows"]:
            prepared = work / "prepared"
            stages.run(
                "prepare",
                ["--input", spec["csv"], "--schema", "german_gender",
                 "--repeats", str(workload["repeats"]), "--seed", seed,
                 "--out", str(prepared)],
            )
        else:
            from fairplug import synthetic
            from fairplug.core import FairnessParams

            dist = synthetic.reference_eo()
            stats = synthetic.true_stats(dist)
            synthetic.bayes_classifier(
                dist, "eo-blind", FairnessParams(1.0, 0.5, 0.5), true_pi=stats.pi
            )
        result["setup_s"] = time.monotonic() - t0
        if spec["mode"] == "setup":
            result["stages"] = list(stages.span_of)
            Path(spec["result"]).write_text(json.dumps(result))
            return 0

        if workload["rows"]:
            from fairplug import privacy

            noise = privacy.noise_draw_count()
            run_start = time.monotonic()
            stages.run(
                "sweep",
                ["--prepared", str(prepared), *workload["sweep"], "--seed", seed,
                 "--out", str(work / "sweep")],
            )
            result["run_s"] = time.monotonic() - run_start
            noise = privacy.noise_draw_count() - noise
            stages.run(
                "report", ["--records", str(work / "sweep"), "--out", str(work / "report")]
            )
            main_stage = "sweep"
        else:
            run_start = time.monotonic()
            sim_seed = str(int(seed) * workload["draws"] + spec["draw"])
            stages.run(
                "simulate",
                [*workload["simulate"], "--seed", sim_seed, "--out", str(work / "sim")],
            )
            result["run_s"] = time.monotonic() - run_start
            main_stage = "simulate"
        result["total_s"] = time.monotonic() - t0
        result["peak_rss_mb"] = _peak_rss_mb()
    finally:
        tracer.restore()

    if workload["rows"]:
        records = work / "sweep" / "records.csv"
        curve = work / "report" / "curve.csv"
        checks.update(_check_records(records, workload["repeats"] * GRID_POINTS))
        checks["curve_nonempty"] = len(_curve_rows(curve)) > 0
        checks["noise_draws"] = noise == workload["noise_draws"]
        result["sha256"] = {"records.csv": _sha256(records), "curve.csv": _sha256(curve)}
    else:
        curve = work / "sim" / "curve.csv"
        regret = {int(row["n"]): float(row["mean"]) for row in _curve_rows(curve)}
        small, large = regret.get(256, math.nan), regret.get(16384, math.nan)
        checks["large_n_regret_at_most_0.02"] = large <= 0.02
        checks["large_n_regret_at_most_half_small_n"] = large <= 0.5 * small
        result["sha256"] = {"curve.csv": _sha256(curve)}
    result["stages"] = list(stages.span_of)
    result["checks"] = checks
    if spec["trace"]:
        result["layers"] = layer_metrics(tracer)
        main_self = sum(self_times(tracer.spans, root=stages.span_of[main_stage]).values())
        result["remainder_s"] = result["run_s"] - main_self
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2])))
