"""Span recording around errlens's public callables, from outside the program.

A :class:`Recorder` replaces each wrap target with a wrapper that records a
span (name, start, end, parent, thread, counts) in memory.  Targets are looked
up by dotted path at install time; a target that a refactor has removed or
renamed is reported as absent instead of failing the run.

:func:`layer_metrics` turns one invocation's spans into the per-layer metrics
listed in ``BENCHMARK.json``; ``run.py`` builds its stage table from the
same spans.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from typing import Callable


def _columns_rows(args, kwargs, result) -> dict[str, int]:
    columns = kwargs["columns"] if "columns" in kwargs else args[2]
    return {"rows": len(columns[0])}


def _gbdt_rows(args, kwargs, result) -> dict[str, int]:
    return {**_columns_rows(args, kwargs, result), "trees": len(args[0].trees)}


def _table_rows(args, kwargs, result) -> dict[str, int]:
    table = kwargs["table"] if "table" in kwargs else args[1]
    return {"rows": table.n_rows}


def _result_items(args, kwargs, result) -> dict[str, int]:
    return {"items": len(result)}


# (module, attribute path, span name, counts of the work done, or None).
# The names errlens.cli imports are wrapped in errlens.cli's namespace, where
# the subcommands look them up; library-internal callees in their own module.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("errlens.cli", "load_csv", "data.load_csv", lambda a, k, r: {"rows": r.n_rows}),
    ("errlens.cli", "load_external_predictions", "data.load_external_predictions", None),
    ("errlens.cli", "train_gbdt", "model.train_gbdt", None),
    ("errlens.cli", "evaluate", "model.evaluate", None),
    ("errlens.cli", "find_misclassified", "regions.find_misclassified", None),
    ("errlens.cli", "explain_misclassified", "regions.explain_misclassified",
     _result_items),
    ("errlens.cli", "report_from_explanations", "regions.report_from_explanations",
     lambda a, k, r: {"items": len(r.regions)}),
    ("errlens.regions", "mine_conditions", "regions.mine_conditions", _result_items),
    ("errlens.cli", "write_report_files", "report.write_report_files", None),
    ("errlens.cli", "write_explanations_jsonl", "report.write_explanations_jsonl", None),
    ("errlens.cli", "dump_json", "report.dump_json", None),
    ("errlens.model", "GbdtModel.predict_rows", "model.gbdt_predict_rows", _gbdt_rows),
    ("errlens.model", "ExternalPredictions.predict_rows", "model.external_predict_rows",
     _columns_rows),
    ("errlens.model", "ExternalPredictions.predict_table", "model.external_predict_table",
     _table_rows),
    ("errlens.lime", "sample_perturbations", "lime.sample_perturbations", None),
    ("errlens.lime", "fit_local_model", "lime.fit_local_model", None),
)

PREDICTOR_SPANS = ("model.gbdt_predict_rows", "model.external_predict_rows",
                   "model.external_predict_table")
WRITE_SPANS = ("report.write_report_files", "report.write_explanations_jsonl",
               "report.dump_json")


class Recorder:
    """Collects spans in memory; :meth:`install` wraps the targets.

    The parent of a span is the innermost open span on the same thread.  A
    span opened on a worker thread with nothing open on it (the explain
    thread pool) takes the innermost open span of the installing thread.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self) -> None:
        for module_name, path, name, count in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *owner_path, attr = path.split(".")
                for part in owner_path:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            setattr(owner, attr, self._wrap(fn, name, count))

    def _wrap(self, fn: Callable, name: str, count: Callable | None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            counts = {}
            if count is not None:
                try:
                    counts = count(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    counts = {}
            self.spans.append({
                "id": span_id, "name": name, "start": start, "end": end,
                "parent": parent, "thread": threading.get_ident(), "counts": counts,
            })
            return result

        return wrapper


def union_length(intervals) -> float:
    """Total length covered by a collection of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span: dict, children: list[dict]) -> float:
    """A span's duration minus the part of it its child spans cover."""
    covered = union_length(
        (max(c["start"], span["start"]), min(c["end"], span["end"]))
        for c in children if c["end"] > span["start"] and c["start"] < span["end"])
    return (span["end"] - span["start"]) - covered


class SpanTree:
    """Parent/child index over one invocation's spans."""

    def __init__(self, spans: list[dict]) -> None:
        self.spans = spans
        self.by_id = {s["id"]: s for s in spans}
        self.children: dict[int | None, list[dict]] = {}
        for s in spans:
            self.children.setdefault(s["parent"], []).append(s)

    def named(self, *names: str) -> list[dict]:
        return [s for s in self.spans if s["name"] in names]

    def has_ancestor(self, span: dict, *names: str) -> bool:
        parent = self.by_id.get(span["parent"])
        while parent is not None:
            if parent["name"] in names:
                return True
            parent = self.by_id.get(parent["parent"])
        return False

    def outermost(self, *names: str) -> list[dict]:
        """Spans with one of ``names`` not nested in another such span."""
        return [s for s in self.named(*names) if not self.has_ancestor(s, *names)]

    def total(self, *names: str) -> float:
        return sum((s["end"] - s["start"] for s in self.outermost(*names)), 0.0)

    def count(self, key: str, *names: str) -> int:
        return sum(s["counts"].get(key, 0) for s in self.outermost(*names))

    def self_total(self, *names: str) -> float:
        return sum((self_time(s, self.children.get(s["id"], []))
                    for s in self.outermost(*names)), 0.0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict], wall_s: float, jobs: int) -> dict[str, float]:
    """Per-layer metrics of one traced invocation (without trace overhead,
    which needs an untraced run to compare with)."""
    t = SpanTree(spans)
    gbdt = t.outermost("model.gbdt_predict_rows")
    gbdt_s = t.total("model.gbdt_predict_rows")
    row_trees = sum(s["counts"].get("rows", 0) * s["counts"].get("trees", 0) for s in gbdt)
    explain = t.outermost("regions.explain_misclassified")
    explain_s = t.total("regions.explain_misclassified")
    explain_busy = sum(c["end"] - c["start"] for s in explain
                       for c in t.children.get(s["id"], []))
    splits = len(explain) or len(t.outermost("regions.report_from_explanations"))
    passes = [s for s in t.outermost(*PREDICTOR_SPANS)
              if not t.has_ancestor(s, "regions.explain_misclassified")]
    rescored = [s for s in passes if t.has_ancestor(s, "regions.report_from_explanations")]
    top_level = [(s["start"], s["end"]) for s in t.children.get(None, [])]
    return {
        "model.predict_s": gbdt_s,
        "model.predict_calls": len(gbdt),
        "model.predict_rows": t.count("rows", "model.gbdt_predict_rows"),
        "model.row_trees_per_s": _ratio(row_trees, gbdt_s),
        "model.train_s": t.total("model.train_gbdt"),
        "model.external_predict_s": t.total("model.external_predict_rows"),
        "model.external_predict_rows": t.count("rows", "model.external_predict_rows"),
        "lime.sample_s": t.total("lime.sample_perturbations"),
        "lime.fit_s": t.total("lime.fit_local_model"),
        "lime.explanations": t.count("items", "regions.explain_misclassified"),
        "regions.explain_s": explain_s,
        "regions.explain_self_s": t.self_total("regions.explain_misclassified"),
        "regions.explain_parallel_efficiency": _ratio(explain_busy, explain_s * jobs),
        "regions.report_s": t.total("regions.report_from_explanations"),
        "regions.rescore_rows": sum(s["counts"].get("rows", 0) for s in rescored),
        "regions.table_passes_per_split": _ratio(len(passes), splits),
        "regions.conditions_mined": t.count("items", "regions.mine_conditions"),
        "regions.regions_reported": t.count("items", "regions.report_from_explanations"),
        "data.load_s": t.total("data.load_csv", "data.load_external_predictions"),
        "data.rows_loaded": t.count("rows", "data.load_csv"),
        "report.write_s": t.total(*WRITE_SPANS),
        "cli.other_s": wall_s - union_length(top_level),
    }
