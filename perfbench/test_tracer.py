"""Checks for the benchmark's tracer and input generator.

Run from the repository root with ``python3 -m pytest perfbench``; the
repository's own test suite does not collect this directory.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import fairplug.cli  # noqa: E402
from surrogate import write_german_csv  # noqa: E402
from tracer import LAYERS, Span, Tracer, layer_metrics, self_times  # noqa: E402


def test_self_times_on_hand_built_tree():
    # stage [0, 10] holds grid [1, 9], which holds fit [2, 4] and score [5, 6];
    # a second fit [9.5, 10] sits directly under the stage.
    spans = [
        Span("stage", 0.0, 10.0, -1),
        Span("grid", 1.0, 9.0, 0),
        Span("fit", 2.0, 4.0, 1),
        Span("score", 5.0, 6.0, 1),
        Span("fit", 9.5, 10.0, 0),
        Span("other", 11.0, 12.0, -1),
    ]
    selfs = self_times(spans)
    assert selfs == {"stage": 1.5, "grid": 5.0, "fit": 2.5, "score": 1.0, "other": 1.0}
    within = self_times(spans, root=1)
    assert within == {"grid": 5.0, "fit": 2.0, "score": 1.0}
    assert sum(self_times(spans, root=0).values()) == 10.0


def test_spans_nest_by_call_order():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    tracer.end(inner)
    tracer.end(outer)
    assert tracer.spans == [Span("outer", 0.0, 3.0, -1), Span("inner", 1.0, 2.0, 0)]
    with pytest.raises(RuntimeError):
        first = tracer.begin("a")
        tracer.begin("b")
        tracer.end(first)


def test_restore_puts_back_every_wrapped_name():
    originals = {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _layer, _count in LAYERS
    }
    tracer = Tracer()
    tracer.install()
    for (module, attr), original in originals.items():
        assert getattr(importlib.import_module(module), attr) is not original
    tracer.restore()
    for (module, attr), original in originals.items():
        assert getattr(importlib.import_module(module), attr) is original


def _pipeline(root: Path, csv_path: Path, tracer: Tracer | None) -> tuple[bytes, dict]:
    if tracer is not None:
        tracer.install()
    try:
        steps = [
            ["prepare", "--input", str(csv_path), "--schema", "german_gender",
             "--repeats", "2", "--seed", "3", "--out", str(root / "prep")],
            ["sweep", "--prepared", str(root / "prep"), "--setting", "eo-blind",
             "--eps-p", "1", "--grid", "lam=-1:1:0.5,c=0.3:0.7:0.2,c_bar=0.5:0.5:0.1",
             "--seed", "3", "--out", str(root / "sweep")],
            ["report", "--records", str(root / "sweep"), "--out", str(root / "report")],
        ]
        for argv in steps:
            assert fairplug.cli.main(argv) == 0
    finally:
        if tracer is not None:
            tracer.restore()
    counts = layer_metrics(tracer) if tracer is not None else {}
    return (root / "sweep" / "records.csv").read_bytes(), counts


def test_traced_runs_repeat_counts_and_outputs(tmp_path):
    csv_path = write_german_csv(tmp_path / "input.csv", 300, seed=4)
    plain, _ = _pipeline(tmp_path / "plain", csv_path, None)
    first_records, first = _pipeline(tmp_path / "one", csv_path, Tracer())
    second_records, second = _pipeline(tmp_path / "two", csv_path, Tracer())
    assert first_records == second_records == plain
    for name in ("cpe.fit.iters", "plugin.score.calls", "privacy.privatize.calls",
                 "sweep.records"):
        assert first[name] == second[name]
    assert first["sweep.records"] == first["plugin.score.calls"] == 2 * 5 * 3 * 1
    assert first["privacy.privatize.calls"] == 2
    assert first["cpe.fit.calls"] == 4
    assert first["cpe.fit.iters"] > 0


def test_surrogate_is_a_function_of_its_seed(tmp_path):
    a = write_german_csv(tmp_path / "a.csv", 50, seed=9).read_bytes()
    b = write_german_csv(tmp_path / "b.csv", 50, seed=9).read_bytes()
    c = write_german_csv(tmp_path / "c.csv", 50, seed=10).read_bytes()
    assert a == b != c
    assert a.count(b"\n") == 51
