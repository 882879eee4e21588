"""errlens benchmark runner.

    python3 perfbench/run.py --workload planted --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 1

Run from the repository root.  Each timed invocation is a fresh single-process
interpreter (``child.py``) that imports ``errlens.cli`` from ``src/`` and calls
``errlens.cli.main(argv)`` on inputs generated here from ``--seed``.
Invocations repeat back to back until ``--seconds`` would be exceeded (at
least one).  Every invocation's outputs are checked (``workloads.py``); a
failed check counts the invocation in ``failed``.

``--trace 0`` reports the end-to-end metrics as medians over the run:
``wall_s`` (the ``main`` call), ``setup_s`` (``import errlens.cli``, also
sampled by import-only children after one warm-up import) and ``peak_rss_mb``
(the child's ``ru_maxrss``).  ``--trace 1`` alternates untraced and traced
invocations, reports the per-layer metrics (medians over traced invocations),
prints the stage table and writes the spans to ``.bench_build/perfbench/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Scratch files live in
``.bench_build/perfbench/`` and are removed at the end of the run, except the
span files and the explanation digests used for the cross-run determinism
check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")

sys.path.insert(0, HERE)
import spans  # noqa: E402
from workloads import WORKLOADS, check_outputs, explanations_digest  # noqa: E402

SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150
# BLAS stays single-threaded so that only `--jobs` decides how many cores a
# workload uses.  No bytecode is written, so every import compiles errlens
# from source the same way whether or not a __pycache__ exists.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONDONTWRITEBYTECODE": "1"}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    "model.predict_s": "s", "model.predict_calls": "count", "model.predict_rows": "count",
    "model.row_trees_per_s": "1/s", "model.train_s": "s",
    "model.external_predict_s": "s", "model.external_predict_rows": "count",
    "lime.sample_s": "s", "lime.fit_s": "s", "lime.explanations": "count",
    "regions.explain_s": "s", "regions.explain_self_s": "s",
    "regions.explain_parallel_efficiency": "ratio", "regions.report_s": "s",
    "regions.rescore_rows": "count", "regions.table_passes_per_split": "count",
    "regions.conditions_mined": "count", "regions.regions_reported": "count",
    "data.load_s": "s", "data.rows_loaded": "count", "report.write_s": "s",
    "cli.other_s": "s", "trace.overhead_pct": "%",
}


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed check)."""


def files_digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run_child(mode: str, argv: list[str], work: str, tag: str) -> dict:
    result_path = os.path.join(work, f"{tag}.json")
    env = {**os.environ, **CHILD_ENV}
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), SRC, result_path, mode, *argv],
        cwd=work, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not os.path.isfile(result_path):
        raise BenchError(f"child ({mode}) exited {proc.returncode}: {proc.stderr.strip()}")
    with open(result_path, encoding="utf-8") as fh:
        out = json.load(fh)
    os.remove(result_path)
    module = os.path.realpath(out["module"])
    if not module.startswith(os.path.realpath(SRC) + os.sep):
        raise BenchError(f"imported errlens from {module}, not from {SRC}")
    return out


class Digests:
    """Explanation digests per workload, seed, input files and errlens
    sources, kept across runs in the checkout so that every run of one
    workload and seed on one commit is compared with the first."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.known: dict[str, str] = {}
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                self.known = json.load(fh)

    def check(self, key: str, digest: str) -> str | None:
        expected = self.known.setdefault(key, digest)
        if expected != digest:
            return f"explanations digest {digest[:12]} differs from {expected[:12]}"
        return None

    def save(self) -> None:
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(self.known, fh, indent=1, sort_keys=True)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    work = os.path.join(WORK, name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        files = workload.make_inputs(work, seed)
        out_dir = os.path.join(work, "out")
        argv = workload.argv(files, out_dir)
        digests = Digests(os.path.join(WORK, "digests.json"))
        pkg = os.path.join(SRC, "errlens")
        sources = [os.path.join(pkg, f) for f in sorted(os.listdir(pkg)) if f.endswith(".py")]
        digest_key = (f"{name}/{seed}/inputs {files_digest(sorted(files.values()))[:16]}"
                      f"/source {files_digest(sources)[:16]}")

        run_child("import", [], work, "warmup")
        setups = [] if trace else [run_child("import", [], work, f"setup{i}")["setup_s"]
                                   for i in range(SETUP_SAMPLES)]

        modes = ["run", "trace"] if trace else ["run"]
        invocations: list[dict] = []
        problems: list[list[str]] = []
        start = time.perf_counter()
        longest = 0.0
        while True:
            mode = modes[len(invocations) % len(modes)]
            shutil.rmtree(out_dir, ignore_errors=True)
            t0 = time.perf_counter()
            res = run_child(mode, argv, work, f"run{len(invocations)}")
            longest = max(longest, time.perf_counter() - t0)
            res["mode"] = mode
            found = check_outputs(workload, out_dir, res["exit_code"])
            if not found:
                mismatch = digests.check(digest_key, explanations_digest(out_dir))
                found = [mismatch] if mismatch else []
            invocations.append(res)
            problems.append(found)
            elapsed = time.perf_counter() - start
            if len(invocations) >= len(modes) and elapsed + longest > seconds:
                break
        digests.save()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for p in problems if p)
    result = {"workload": name, "seed": seed, "argv": argv, "invocations": invocations,
              "problems": problems, "failed": failed}
    runs = [r for r in invocations if r["mode"] == "run"]
    if not trace:
        result["metrics"] = {
            "wall_s": statistics.median(r["wall_s"] for r in runs),
            "setup_s": statistics.median(setups + [r["setup_s"] for r in invocations]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        }
        result["setup_samples"] = len(setups) + len(invocations)
        return result

    traced = [r for r in invocations if r["mode"] == "trace"]
    per_run = [spans.layer_metrics(r["spans"], r["wall_s"], workload.jobs) for r in traced]
    metrics = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
    untraced_wall = statistics.median(r["wall_s"] for r in runs)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.overhead_pct"] = 100.0 * (traced_wall - untraced_wall) / untraced_wall
    result["metrics"] = metrics
    result["absent"] = traced[0]["absent"]
    trace_path = os.path.join(WORK, f"trace-{name}-seed{seed}.json")
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "argv": argv,
                   "absent": result["absent"],
                   "invocations": [{"wall_s": r["wall_s"], "spans": r["spans"]}
                                   for r in traced]}, fh)
    result["trace_path"] = trace_path
    return result


def stage_table(result: dict) -> list[str]:
    """ROADMAP's "where the time goes" table, from the first traced run."""
    traced = next(r for r in result["invocations"] if r["mode"] == "trace")
    tree = spans.SpanTree(traced["spans"])
    wall = traced["wall_s"]
    explain = tree.outermost("regions.explain_misclassified")
    under_explain = [c for s in explain for c in tree.children.get(s["id"], [])]

    def busy(*names: str) -> float:
        return sum(c["end"] - c["start"] for c in under_explain if c["name"] in names)

    m = spans.layer_metrics(traced["spans"], wall, WORKLOADS[result["workload"]].jobs)
    rows = [
        ("load", ("data.load_csv", "data.load_external_predictions"), m["data.load_s"],
         f"{m['data.rows_loaded']} rows"),
        ("train", ("model.train_gbdt",), m["model.train_s"], ""),
        ("evaluate + find", ("model.evaluate", "regions.find_misclassified"),
         tree.total("model.evaluate", "regions.find_misclassified"), ""),
        ("explain", ("regions.explain_misclassified",), m["regions.explain_s"],
         f"{m['lime.explanations']} explanations"),
        ("  predict (busy)", spans.PREDICTOR_SPANS, busy(*spans.PREDICTOR_SPANS),
         f"{sum(c['counts'].get('rows', 0) for c in under_explain)} rows"),
        ("  sample (busy)", ("lime.sample_perturbations",),
         busy("lime.sample_perturbations"), ""),
        ("  fit (busy)", ("lime.fit_local_model",), busy("lime.fit_local_model"), ""),
        ("  self", ("regions.explain_misclassified",), m["regions.explain_self_s"], ""),
        ("report (mine + score)", ("regions.report_from_explanations",),
         m["regions.report_s"],
         f"{m['regions.conditions_mined']} mined, {m['regions.regions_reported']} kept, "
         f"{m['regions.rescore_rows']} rows re-scored"),
        ("write", spans.WRITE_SPANS, m["report.write_s"], ""),
        ("other", (), m["cli.other_s"], "wall minus top-level spans"),
    ]
    absent = set(result["absent"])
    lines = [f"| stage ({result['workload']}, seed {result['seed']}) | seconds | % of wall "
             f"| note |", "| --- | ---: | ---: | --- |"]
    for label, names, seconds, note in rows:
        if names and all(n in absent for n in names):
            lines.append(f"| {label} | absent | | wrap target missing |")
        else:
            lines.append(f"| {label} | {seconds:.3f} | {100 * seconds / wall:.1f} | {note} |")
    lines.append(f"| total (cli.main) | {wall:.3f} | 100.0 | |")
    return lines


def machine_info() -> str:
    versions = ", ".join(f"{pkg} {metadata.version(pkg)}" for pkg in ("numpy", "scipy"))
    return (f"machine: {platform.machine()}, nproc {os.cpu_count()}, "
            f"Python {platform.python_version()}, {versions}")


def report(result: dict, trace: bool) -> dict:
    """Print one workload's result for people; return its JSON summary."""
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    attempted = len(result["invocations"])
    print(f"workload {result['workload']}, seed {result['seed']}: "
          f"errlens {' '.join(result['argv'])}")
    for i, found in enumerate(result["problems"]):
        for p in found:
            print(f"  FAILED check, invocation {i}: {p}")
    for key, unit in units.items():
        print(f"  {key:38s} {result['metrics'][key]:14.4f} {unit}")
    print(f"  {'failed_runs':38s} {result['failed']:>9d} / {attempted} runs")
    if trace:
        if result["absent"]:
            print(f"  absent wrap targets: {', '.join(result['absent'])}")
        print("\n".join(stage_table(result)))
        print(f"  spans written to {os.path.relpath(result['trace_path'], ROOT)}")
    else:
        print(f"  (medians: wall_s of {len(result['invocations'])} invocations, "
              f"setup_s of {result['setup_samples']} fresh imports)")
    return {
        "correct": result["failed"] == 0,
        "attempted": attempted,
        "failed": result["failed"],
        "metrics": {k: {"value": result["metrics"][k], "unit": u} for k, u in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "errlens", "cli.py")):
        print(f"run.py: no errlens sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    print(machine_info())
    try:
        results = [run_workload(n, args.seed, args.seconds, trace) for n in names]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    summaries = {r["workload"]: report(r, trace) for r in results}
    print(json.dumps(summaries[names[0]] if len(names) == 1 else summaries))
    return 0


if __name__ == "__main__":
    sys.exit(main())
