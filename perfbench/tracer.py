"""In-memory span tracer that wraps the program's public functions.

A span is recorded at a layer boundary by replacing a function at the
name its calling module looks up (``fairplug.cpe.fit``,
``fairplug.sweep.score_eo_blind``, ...) with a wrapper that times the
call.  Nothing in the program changes: :meth:`Tracer.restore` puts every
original back.  Spans stay in memory; :func:`self_times` reduces them at
the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the root


# Counts a wrapped call adds besides ``<layer>.calls``:
# hook(counts, args, kwargs, result) -> None
CountHook = Callable[[dict, tuple, dict, object], None]


def _count_fit(counts, args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    config = args[2] if len(args) > 2 else kwargs["config"]
    counts["cpe.fit.iters"] += int(result.n_iters)
    counts["cpe.fit.rows"] += len(rows)
    counts["cpe.fit.converged"] += int(result.grad_norm <= config.tolerance)


def _count_ingest(counts, args, kwargs, result):
    counts["data.ingest.rows"] += result[0].n


def _count_records(counts, args, kwargs, result):
    counts["sweep.records"] += len(result)


def _count_records_bytes(counts, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    counts["sweep.records_bytes"] += os.path.getsize(path)


def _count_sample_rows(counts, args, kwargs, result):
    counts["synthetic.sample.rows"] += result.n


_SCORERS = ("score_eo_blind", "score_eo_aware", "score_dpar_blind", "score_dpar_aware")

#: (module, attribute, layer, count hook).  Each attribute is the name the
#: calling module resolves at call time, so the wrapper sees every call made
#: through that module and none made elsewhere.
LAYERS: tuple[tuple[str, str, str, CountHook | None], ...] = (
    ("fairplug.data", "load_csv_report", "data.ingest", _count_ingest),
    ("fairplug.data", "make_splits", "data.splits", None),
    ("fairplug.sweep", "fit_dp_transform", "data.transform", None),
    ("fairplug.sweep", "apply_dp_transform", "data.transform", None),
    ("fairplug.cpe", "fit", "cpe.fit", _count_fit),
    ("fairplug.sweep", "predict_proba", "cpe.predict", None),
    ("fairplug.plugin", "predict_proba", "cpe.predict", None),
    ("fairplug.privacy", "privatize", "privacy.privatize", None),
    *(("fairplug.sweep", name, "plugin.score", None) for name in _SCORERS),
    *(("fairplug.plugin", name, "plugin.score", None) for name in _SCORERS),
    ("fairplug.sweep", "run_sweep", "sweep.grid", _count_records),
    ("fairplug.sweep", "write_records_csv", "sweep.records_write", _count_records_bytes),
    ("fairplug.sweep", "read_records_csv", "sweep.records_read", None),
    ("fairplug.sweep", "bin_min_violation", "sweep.bin", None),
    ("fairplug.sweep", "aggregate_curves", "sweep.bin", None),
    ("fairplug.synthetic", "sample", "synthetic.sample", _count_sample_rows),
    ("fairplug.synthetic", "empirical_rates", "metrics.rates", None),
    ("fairplug.synthetic", "eo_dbar_rates", "metrics.rates", None),
    ("fairplug.synthetic", "dpar_dbar_rates", "metrics.rates", None),
    ("fairplug.synthetic", "consistency_curve", "synthetic.trial", None),
)


#: Layers whose spans enclose other layers' spans; their self-time metric
#: is named ``<layer>_self_s`` to say so.
_COMPOSITE = ("sweep.grid", "synthetic.trial", "cli.prepare", "cli.sweep", "cli.report",
              "cli.simulate")
_LEAVES = ("plugin.score", "cpe.fit", "cpe.predict", "data.transform", "privacy.privatize",
           "data.ingest", "data.splits", "sweep.records_write", "sweep.records_read",
           "sweep.bin", "synthetic.sample", "metrics.rates")

#: Every per-layer metric a traced workload process reports, with its unit.
#: Times are self times in seconds; the rest are exact counts or ratios of
#: counts and repeat bit for bit between traced runs of one input.
PER_LAYER = {
    **{layer + "_s": "s" for layer in _LEAVES},
    **{layer + "_self_s": "s" for layer in _COMPOSITE},
    "plugin.score.calls": "count",
    "sweep.records": "count",
    "cpe.fit.calls": "count",
    "cpe.fit.iters": "count",
    "cpe.fit.rows": "count",
    "cpe.fit.converged_ratio": "ratio",
    "privacy.privatize.calls": "count",
    "data.ingest.rows": "count",
    "sweep.records_bytes": "B",
    "synthetic.sample.rows": "count",
}


class Tracer:
    """Records nested spans and integer counts for one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent))
        index = len(self.spans) - 1
        self._open.append(index)
        self.counts[name + ".calls"] += 1
        return index

    def end(self, index: int) -> None:
        if self._open.pop() != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")
        self.spans[index] = self.spans[index]._replace(end=self.clock())

    def wrap(self, module, attr: str, layer: str, count: CountHook | None = None) -> None:
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer.begin(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        self._originals.append((module, attr, original))
        setattr(module, attr, traced)

    def install(self) -> None:
        """Wrap every entry of :data:`LAYERS`."""
        for module_name, attr, layer, count in LAYERS:
            self.wrap(importlib.import_module(module_name), attr, layer, count)

    def restore(self) -> None:
        """Put back every wrapped function, last wrapped first."""
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)


def self_times(spans: list[Span], root: int | None = None) -> dict[str, float]:
    """Per-name sum of span duration minus the duration of its child spans.

    Spans of one thread nest, so a span's children never overlap and the
    part of its interval they cover is the sum of their durations.  With
    ``root``, only that span and the spans nested inside it count.
    """

    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    inside = None if root is None else {root}
    totals: dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        if inside is not None:
            if index != root and span.parent not in inside:
                continue
            inside.add(index)
        totals[span.name] += (span.end - span.start) - child_time[index]
    return dict(totals)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The :data:`PER_LAYER` metrics of one traced process."""
    selfs = self_times(tracer.spans)
    metrics: dict[str, float] = {}
    for name, unit in PER_LAYER.items():
        if unit == "s":
            layer = name.removesuffix("_s").removesuffix("_self")
            metrics[name] = selfs.get(layer, 0.0)
        elif name != "cpe.fit.converged_ratio":
            metrics[name] = tracer.counts.get(name, 0)
    fits = tracer.counts.get("cpe.fit.calls", 0)
    metrics["cpe.fit.converged_ratio"] = tracer.counts.get("cpe.fit.converged", 0) / max(fits, 1)
    return metrics
