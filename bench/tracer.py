"""Span recording around ptqlaw's public functions, from outside the package.

``Tracer.install`` binds a timing wrapper over each traced name at every
module that imported it (``ptqlaw.ablation.fit_nls`` as well as
``ptqlaw.fitting.fit_nls``) and over the traced methods on their classes;
``Tracer.remove`` puts the originals back. Calls made once per grid point
(``predict``) are not spans: they add a count and a summed time to the span
that made them. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from dataclasses import dataclass, field

#: Traced functions: metric stem -> (defining module, attribute, class or None).
SPANS = {
    "dataset.load_dataset": ("ptqlaw.dataset", "load_dataset", None),
    "dataset.aggregate": ("ptqlaw.dataset", "aggregate", None),
    "dataset.ExperimentDataset.filter": ("ptqlaw.dataset", "filter", "ExperimentDataset"),
    "dataset.ExperimentDataset.fingerprint": ("ptqlaw.dataset", "fingerprint", "ExperimentDataset"),
    "dataset.generate_synthetic": ("ptqlaw.dataset", "generate_synthetic", None),
    "dataset.dataset_to_csv": ("ptqlaw.dataset", "dataset_to_csv", None),
    "dataset.dataset_to_jsonl": ("ptqlaw.dataset", "dataset_to_jsonl", None),
    "dataset.write_csv": ("ptqlaw.dataset", "write_csv", None),
    "dataset.write_jsonl": ("ptqlaw.dataset", "write_jsonl", None),
    "fitting.FitProblem": ("ptqlaw.fitting", "__init__", "FitProblem"),
    "fitting.warm_start": ("ptqlaw.fitting", "warm_start", None),
    "fitting.fit_nls": ("ptqlaw.fitting", "fit_nls", None),
    "fitting.goodness_of_fit": ("ptqlaw.fitting", "goodness_of_fit", None),
    "ablation.run_ablation": ("ptqlaw.ablation", "run_ablation", None),
    "ablation.fit_slice": ("ptqlaw.ablation", "fit_slice", None),
    "advisor.SearchSpace.configs": ("ptqlaw.advisor", "configs", "SearchSpace"),
    "advisor.sweep": ("ptqlaw.advisor", "sweep", None),
    "advisor.pareto_frontier": ("ptqlaw.advisor", "pareto_frontier", None),
    "advisor.min_cost_config": ("ptqlaw.advisor", "min_cost_config", None),
    "presets.load_params_file": ("ptqlaw.presets", "load_params_file", None),
    "presets.params_to_text": ("ptqlaw.presets", "params_to_text", None),
    "cli.main": ("ptqlaw.cli", "main", None),
}
#: Called once per grid point: counted and summed under the calling span.
PER_POINT = {"model.predict": ("ptqlaw.model", "predict", None)}
#: Reported as self time: the span minus its child spans and per-point calls.
SELF_TIMED = {
    "fitting.fit_nls", "ablation.run_ablation", "ablation.fit_slice", "advisor.sweep",
    "advisor.min_cost_config", "dataset.generate_synthetic",
}


def _written_bytes(args, kwargs, result) -> dict:
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return {"bytes_written": os.path.getsize(path)}


#: Counts taken from a call's arguments and result at the span boundary.
COUNTERS = {
    "dataset.load_dataset": lambda a, k, r: {"rows": len(r)},
    "dataset.generate_synthetic": lambda a, k, r: {
        "records": len(r), "clamped_rows": r.provenance.get("clamped_rows", 0)},
    "dataset.write_csv": _written_bytes,
    "dataset.write_jsonl": _written_bytes,
    "fitting.fit_nls": lambda a, k, r: {
        "iterations": r.iterations, "accepted": len(r.sse_trace) - 1},
    "ablation.run_ablation": lambda a, k, r: {
        "masks_failed": sum(1 for e in r.entries if e.failed)},
    "advisor.sweep": lambda a, k, r: {
        "points": len(r), "extrapolated": sum(1 for p in r if p.extrapolation)},
    "advisor.pareto_frontier": lambda a, k, r: {"points": len(r)},
    "advisor.min_cost_config": lambda a, k, r: {"infeasible": int(r is None)},
}


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    op: int
    end: float = 0.0
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)
    points: dict = field(default_factory=dict)   # per-point name -> [calls, seconds]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s - sum(s for _, s in self.points.values())


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.op: int | None = None

    # -- spans ------------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self._stack = [len(self.spans)]
        self.spans.append(Span("op", time.perf_counter(), None, op))

    def end_op(self) -> None:
        root = self.spans[self._stack[0]]
        root.end = time.perf_counter()
        self._stack = []
        self.op = None

    def _span_wrapper(self, name, original):
        counter = COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            if not stack:
                return original(*args, **kwargs)
            span = Span(name, 0.0, stack[-1], tracer.op)
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span.counts["failed"] = 1
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans[span.parent].child_s += span.duration
            if counter is not None:
                span.counts.update(counter(args, kwargs, result))
            return result

        return traced

    def _point_wrapper(self, name, original):
        tracer = self

        def counted(*args, **kwargs):
            stack = tracer._stack
            if not stack:
                return original(*args, **kwargs)
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                tally = tracer.spans[stack[-1]].points.setdefault(name, [0, 0.0])
                tally[0] += 1
                tally[1] += elapsed

        return counted

    # -- wrappers ---------------------------------------------------------

    def install(self) -> None:
        """Bind wrappers at every import site of each traced name."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ptqlaw" or n.startswith("ptqlaw."))]
        for table, make in ((SPANS, self._span_wrapper), (PER_POINT, self._point_wrapper)):
            for name, (module_name, attr, cls_name) in table.items():
                module = sys.modules.get(module_name)
                if module is None:
                    continue
                if cls_name is not None:
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[attr]
                    self._patch(cls, attr, make(name, original))
                    continue
                original = getattr(module, attr)
                wrapper = make(name, original)
                for site in modules:
                    if site.__dict__.get(attr) is original:
                        self._patch(site, attr, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, "__dict__")[attr]))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reporting --------------------------------------------------------

    def op_totals(self, op: int) -> dict[str, float]:
        """Per-layer values for one op: summed ms, summed counts, call counts."""
        totals: dict[str, float] = {}
        for span in self.spans:
            if span.op != op:
                continue
            for point, (calls, seconds) in span.points.items():
                _add(totals, f"{point}.calls", calls)
                _add(totals, f"{point}.ms", seconds * 1e3)
            if span.name == "op":
                continue
            seconds = span.self_s if span.name in SELF_TIMED else span.duration
            _add(totals, f"{span.name}.ms", seconds * 1e3)
            _add(totals, f"{span.name}.calls", 1)
            for key, value in span.counts.items():
                _add(totals, f"{span.name}.{key}", value)
        return totals

    def write(self, path) -> None:
        """One JSON line per span: name, start, end, parent, op, counts."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": span.name, "op": span.op,
                    "parent": span.parent, "start": span.start, "end": span.end,
                    "counts": span.counts,
                    "per_point": {k: {"calls": c, "s": s} for k, (c, s) in span.points.items()},
                }) + "\n")


def _add(totals: dict, key: str, value: float) -> None:
    totals[key] = totals.get(key, 0) + value


def median_over_ops(per_op: list[dict[str, float]], key: str) -> float:
    return float(statistics.median(op.get(key, 0.0) for op in per_op)) if per_op else 0.0
