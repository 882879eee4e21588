"""The benchmark's workloads and the checks every timed run's outputs pass.

Each workload is a fixed errlens CLI argv plus a seeded input generator; the
program receives only the generated files.  Why each workload exists is
recorded in ``BENCHMARK.json`` and in ``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import inputs

PIPELINE_ARTIFACTS = tuple(
    f"{stem}_{split}.{ext}"
    for split in ("train", "test")
    for stem, ext in (("metrics", "json"), ("explanations", "jsonl"), ("report", "json"),
                      ("report", "csv"), ("report", "svg"), ("table", "txt"))
) + ("model.json", "run_config.json")
MINE_ARTIFACTS = ("explanations.jsonl", "report.json", "report.csv", "report.svg",
                  "table.txt", "run_config.json")


@dataclass(frozen=True)
class Box:
    """A planted noisy box ``feature >= edge`` on a uniform [0, 1] feature,
    and criterion 2's rule for finding it, adapted to the box.

    A reported region must lie on ``feature``, have an error rate at least
    twice the split's baseline, and cover at least 4 % of the split
    (criterion 2 asks for 50 of 1250 rows).  Its lower bound is the
    discretizer's quantile at ``edge``, estimated from ``fit_rows`` rows, so
    it must be at least ``edge`` minus four standard errors of that
    quantile; criterion 2's 0.72 is the same rule for 3750 rows.
    """

    report: str
    feature: str
    edge: float
    fit_rows: int

    def recovered(self, report: dict) -> bool:
        min_low = self.edge - 4.0 * math.sqrt(self.edge * (1.0 - self.edge) / self.fit_rows)
        baseline = report["baseline_error_rate"]
        return any(
            r["feature"] == self.feature
            and isinstance(r["low"], (int, float)) and r["low"] >= min_low
            and r["error_rate"] >= 2.0 * baseline
            and r["coverage"] >= 0.04 * report["n_total"]
            for r in report["regions"])


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[str, int], dict[str, str]]
    argv: Callable[[dict[str, str], str], list[str]]
    jobs: int
    artifacts: tuple[str, ...]
    reports: tuple[tuple[str, str, str | None], ...]  # (report, explanations, metrics)
    box: Box


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="planted",
            make_inputs=inputs.planted,
            argv=lambda f, out: ["pipeline", "--data", f["data"], "--out-dir", out],
            jobs=1,
            artifacts=PIPELINE_ARTIFACTS,
            reports=tuple((f"report_{s}.json", f"explanations_{s}.jsonl", f"metrics_{s}.json")
                          for s in ("train", "test")),
            box=Box("report_test.json", "f0", 0.75, fit_rows=1500),
        ),
        # At --jobs 2 this workload's wall time spread 0.17-0.25 (quartile
        # distance over median, five to ten seeds) on a shared two-core box,
        # against 0.10 at --jobs 1, so it runs single-threaded.
        Workload(
            name="external",
            make_inputs=inputs.external,
            argv=lambda f, out: ["mine", "--data", f["data"], "--predictions",
                                 f["predictions"], "--n-samples", "500", "--jobs", "1",
                                 "--categorical", "c0,c1", "--out-dir", out],
            jobs=1,
            artifacts=MINE_ARTIFACTS,
            reports=(("report.json", "explanations.jsonl", None),),
            box=Box("report.json", "x0", 0.75, fit_rows=2000),
        ),
    )
}


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _report_problems(out_dir: str, report_name: str, explanations: str,
                     metrics: str | None) -> list[str]:
    report = _load(os.path.join(out_dir, report_name))
    with open(os.path.join(out_dir, explanations), encoding="utf-8") as fh:
        n_explained = sum(1 for line in fh if line.strip())
    n_total, n_mis = report["n_total"], report["n_misclassified"]
    problems = []
    if n_explained != n_mis:
        problems.append(f"{explanations}: {n_explained} explanations for {n_mis} misclassified")
    if report["baseline_error_rate"] != n_mis / n_total:
        problems.append(f"{report_name}: baseline is not n_misclassified / n_total")
    if metrics is not None:
        m = _load(os.path.join(out_dir, metrics))
        if (m["n"], m["fp"] + m["fn"]) != (n_total, n_mis):
            problems.append(f"{metrics}: confusion counts disagree with {report_name}")
    for r in report["regions"]:
        if not (0 < r["coverage"] <= n_total and 0 <= r["errors_in_region"] <= r["coverage"]
                and r["error_rate"] == r["errors_in_region"] / r["coverage"]):
            problems.append(f"{report_name}: inconsistent counts for {r['condition']}")
    keys = [(-r["error_rate"], -r["coverage"], r["condition"]) for r in report["regions"]]
    if keys != sorted(keys):
        problems.append(f"{report_name}: regions not sorted worst-first")
    return problems


def check_outputs(workload: Workload, out_dir: str, exit_code: int | str) -> list[str]:
    """Everything wrong with one invocation's outputs; empty when correct.
    ``exit_code`` is the CLI's return value, or a traceback it raised."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    missing = [a for a in workload.artifacts
               if not os.path.isfile(os.path.join(out_dir, a))]
    if missing:
        return [f"missing artifacts: {', '.join(missing)}"]
    problems = []
    try:
        for report_name, explanations, metrics in workload.reports:
            problems += _report_problems(out_dir, report_name, explanations, metrics)
        box = workload.box
        if not box.recovered(_load(os.path.join(out_dir, box.report))):
            problems.append(f"{box.report}: planted box {box.feature} >= {box.edge} "
                            "not recovered")
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        problems.append(f"malformed output: {exc!r}")
    return problems


def explanations_digest(out_dir: str) -> str:
    """sha256 over every ``explanations*.jsonl`` file, in name order."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("explanations") and name.endswith(".jsonl"):
            h.update(name.encode())
            with open(os.path.join(out_dir, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()
