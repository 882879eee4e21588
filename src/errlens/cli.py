"""Command-line interface.

Subcommands: synth, featurize, train, eval, explain, mine, pipeline.
Every flag can also be given in a JSON config file (snake_case keys) passed
via --config; a flag on the command line overrides the file, which overrides
the built-in default.  The effective configuration is echoed into
``run_config.json`` in the output directory and into every JSON artifact.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import Mapping, Sequence

from .data import (
    FeatureSpec,
    LabeledTable,
    concat_tables,
    featurize_rolling,
    load_csv,
    load_series_csv,
    resample_series,
    split,
    write_csv,
)
from .errors import DataError, MissingColumn, NumericalError
from .lime import LimeConfig, fit_discretizer, write_explanations_jsonl
from .model import (
    GbdtModel,
    GbdtParams,
    Metrics,
    Predictor,
    load_external_predictions,
    train_gbdt,
)
from .regions import explain_misclassified, find_misclassified, report_from_explanations
from .report import write_report_files
from .serialize import dump_json
from .synth import default_spec, generate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class UsageError(Exception):
    """Invalid invocation: missing/inconsistent flags or config values."""


DEFAULTS: dict[str, object] = {
    "data": None,
    "model": None,
    "predictions": None,
    "out_dir": "out",
    "seed": 0,
    "threshold": 0.5,
    "top_k": 5,
    "n_samples": 5000,
    "kernel_width": None,
    "ridge_lambda": 1.0,
    "min_support": 0.1,
    "split_fraction": 0.25,
    "jobs": 1,
    "label_column": "label",
    "id_column": None,
    "categorical": (),
    "rows": 2000,
    "features": 6,
    "flip_rate": 0.4,
    "rounds": 100,
    "max_depth": 4,
    "learning_rate": 0.1,
    "min_leaf_count": 5,
    "l2": 1.0,
    "channels": (),
    "static_columns": (),
    "entity_column": "entity_id",
    "time_column": "timestamp_s",
    "windows": (3, 6),
    "lags": (1, 2),
    "interval": 300,
}

_LIST_KEYS = {"categorical": str, "channels": str, "static_columns": str,
              "windows": int, "lags": int}


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2 for
    data problems, so usage errors exit 1."""

    def error(self, message: str):  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file (snake_case keys)")
    p.add_argument("--seed", type=int)
    p.add_argument("--out-dir")
    p.add_argument("--threshold", type=float)
    p.add_argument("--top-k", type=int)
    p.add_argument("--n-samples", type=int)
    p.add_argument("--kernel-width", type=float)
    p.add_argument("--ridge-lambda", type=float)
    p.add_argument("--min-support", type=float)
    p.add_argument("--split-fraction", type=float)
    p.add_argument("--predictions", help="row_id,probability CSV replacing the model")
    p.add_argument("--jobs", type=int, help="parallel explanation workers")


def _add_table_io(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", help="labeled feature CSV")
    p.add_argument("--label-column")
    p.add_argument("--id-column")
    p.add_argument("--categorical", help="comma-separated categorical columns")


def build_parser() -> _Parser:
    parser = _Parser(prog="errlens", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("synth", help="generate synthetic data with a planted noisy box")
    _add_common(p)
    p.add_argument("--rows", type=int)
    p.add_argument("--features", type=int)
    p.add_argument("--flip-rate", type=float)

    p = sub.add_parser("featurize", help="turn long-format series CSV into a feature table")
    _add_common(p)
    p.add_argument("--data", help="long-format time-series CSV")
    p.add_argument("--channels", help="comma-separated channel columns")
    p.add_argument("--static-columns", help="comma-separated per-entity categorical columns")
    p.add_argument("--entity-column")
    p.add_argument("--time-column")
    p.add_argument("--label-column")
    p.add_argument("--windows", help="comma-separated rolling window lengths")
    p.add_argument("--lags", help="comma-separated lag offsets")
    p.add_argument("--interval", type=int, help="resampling interval in seconds")

    p = sub.add_parser("train", help="train the boosted-tree classifier")
    _add_common(p)
    _add_table_io(p)
    _add_train_params(p)

    p = sub.add_parser("eval", help="confusion metrics on a labeled table")
    _add_common(p)
    _add_table_io(p)
    p.add_argument("--model", help="model JSON produced by train")

    p = sub.add_parser("explain", help="explain each misclassified row")
    _add_common(p)
    _add_table_io(p)
    p.add_argument("--model")

    p = sub.add_parser("mine", help="mine and score poor-performance regions")
    _add_common(p)
    _add_table_io(p)
    p.add_argument("--model")

    p = sub.add_parser("pipeline", help="split, train, explain, and report end to end")
    _add_common(p)
    _add_table_io(p)
    _add_train_params(p)

    return parser


def _add_train_params(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rounds", type=int)
    p.add_argument("--max-depth", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--min-leaf-count", type=int)
    p.add_argument("--l2", type=float)


def _as_list(value: object, item_type) -> tuple:
    if value is None:
        return ()
    if isinstance(value, str):
        parts = [s.strip() for s in value.split(",")]
        items = [s for s in parts if s]
    elif isinstance(value, (list, tuple)):
        items = list(value)
    else:
        raise UsageError(f"expected list or comma-separated string, got {value!r}")
    try:
        return tuple(item_type(s) for s in items)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def merge_config(args: argparse.Namespace) -> dict[str, object]:
    """defaults < config file < command-line flags."""
    cfg = dict(DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, encoding="utf-8") as fh:
            try:
                file_cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise DataError(f"{config_path}: not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise UsageError(f"{config_path}: config must be a JSON object")
        unknown = sorted(set(file_cfg) - set(DEFAULTS))
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(unknown)}")
        cfg.update(file_cfg)
    for key in DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    for key, item_type in _LIST_KEYS.items():
        cfg[key] = _as_list(cfg[key], item_type)
    _validate(cfg)
    return cfg


def _validate(cfg: Mapping[str, object]) -> None:
    checks = [
        (0.0 <= cfg["threshold"] <= 1.0, "threshold must be within [0, 1]"),
        (0.0 < cfg["split_fraction"] < 1.0, "split-fraction must be within (0, 1)"),
        (cfg["top_k"] >= 1, "top-k must be at least 1"),
        (cfg["n_samples"] >= 2, "n-samples must be at least 2"),
        (cfg["kernel_width"] is None or cfg["kernel_width"] > 0,
         "kernel-width must be positive"),
        (cfg["ridge_lambda"] >= 0, "ridge-lambda must be non-negative"),
        (0.0 < cfg["min_support"] <= 1.0, "min-support must be within (0, 1]"),
        (cfg["jobs"] >= 1, "jobs must be at least 1"),
        (cfg["rows"] >= 1, "rows must be at least 1"),
        (cfg["features"] >= 1, "features must be at least 1"),
        (0.0 <= cfg["flip_rate"] <= 1.0, "flip-rate must be within [0, 1]"),
        (cfg["rounds"] >= 0, "rounds must be non-negative"),
        (cfg["max_depth"] >= 1, "max-depth must be at least 1"),
        (cfg["learning_rate"] > 0, "learning-rate must be positive"),
        (cfg["min_leaf_count"] >= 1, "min-leaf-count must be at least 1"),
        (cfg["l2"] >= 0, "l2 must be non-negative"),
        (cfg["interval"] >= 1, "interval must be at least 1"),
    ]
    for ok, message in checks:
        if not ok:
            raise UsageError(message)


_NOT_ECHOED = ("jobs", "out_dir")  # execution knobs; must never affect artifacts


def _echo(cfg: Mapping[str, object]) -> dict[str, object]:
    """The effective config embedded in artifacts."""
    return {k: (list(v) if isinstance(v, tuple) else v)
            for k, v in sorted(cfg.items()) if k not in _NOT_ECHOED}


def _require(cfg: Mapping[str, object], key: str, flag: str) -> object:
    value = cfg[key]
    if value is None:
        raise UsageError(f"{flag} is required (flag or config file)")
    return value


def _out_dir(cfg: Mapping[str, object]) -> str:
    out = str(cfg["out_dir"])
    os.makedirs(out, exist_ok=True)
    return out


def _infer_schema(path: str, label_column: str, id_column: str | None,
                  categorical: Sequence[str]) -> tuple[FeatureSpec, ...]:
    """Every non-label, non-id column is a feature; kinds come from the
    --categorical list (default: continuous)."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise MissingColumn("empty file: header row required") from None
    unknown = sorted(set(categorical) - set(header))
    if unknown:
        raise MissingColumn(f"categorical columns not in header: {', '.join(unknown)}")
    skip = {label_column, id_column}
    return tuple(
        FeatureSpec(name, "categorical" if name in categorical else "continuous")
        for name in header if name not in skip
    )


def _load_table(cfg: Mapping[str, object]) -> LabeledTable:
    path = str(_require(cfg, "data", "--data"))
    label_column = str(cfg["label_column"])
    id_column = cfg["id_column"]
    schema = _infer_schema(path, label_column, id_column, cfg["categorical"])
    return load_csv(path, schema, label_column=label_column, id_column=id_column)


def _predictor(cfg: Mapping[str, object], table: LabeledTable) -> Predictor:
    """External predictions, when given, replace the model entirely."""
    if cfg["predictions"] is not None:
        return load_external_predictions(str(cfg["predictions"]), table)
    if cfg["model"] is not None:
        return GbdtModel.load(str(cfg["model"]))
    raise UsageError("--model or --predictions is required")


def _lime_config(cfg: Mapping[str, object]) -> LimeConfig:
    return LimeConfig(
        n_samples=int(cfg["n_samples"]),
        kernel_width=(None if cfg["kernel_width"] is None
                      else float(cfg["kernel_width"])),
        ridge_lambda=float(cfg["ridge_lambda"]),
        top_k=int(cfg["top_k"]),
        seed=int(cfg["seed"]),
    )


def _gbdt_params(cfg: Mapping[str, object]) -> GbdtParams:
    return GbdtParams(
        rounds=int(cfg["rounds"]),
        max_depth=int(cfg["max_depth"]),
        learning_rate=float(cfg["learning_rate"]),
        min_leaf_count=int(cfg["min_leaf_count"]),
        l2=float(cfg["l2"]),
        seed=int(cfg["seed"]),
    )


def _write_metrics(metrics: Metrics, cfg: Mapping[str, object], path: str) -> None:
    obj = metrics.to_json_obj()
    obj["config"] = _echo(cfg)
    dump_json(obj, path)


def _save_model(model: GbdtModel, cfg: Mapping[str, object], path: str) -> None:
    obj = model.to_json_obj()
    obj["config"] = _echo(cfg)
    dump_json(obj, path)


# --- subcommands ---------------------------------------------------------------


def cmd_synth(cfg: Mapping[str, object]) -> str:
    out = _out_dir(cfg)
    spec = default_spec(n_rows=int(cfg["rows"]), n_features=int(cfg["features"]),
                        flip_rate=float(cfg["flip_rate"]), seed=int(cfg["seed"]))
    table, truth = generate(spec)
    write_csv(table, os.path.join(out, "synth.csv"))
    obj = truth.to_json_obj()
    obj["config"] = _echo(cfg)
    dump_json(obj, os.path.join(out, "ground_truth.json"))
    return (f"synth: {table.n_rows} rows, {len(truth.in_box_row_ids)} in box, "
            f"{len(truth.flipped_row_ids)} labels flipped -> {out}")


def cmd_featurize(cfg: Mapping[str, object]) -> str:
    out = _out_dir(cfg)
    path = str(_require(cfg, "data", "--data"))
    channels = cfg["channels"]
    if not channels:
        raise UsageError("--channels is required")
    frames = load_series_csv(
        path,
        channel_columns=channels,
        entity_column=str(cfg["entity_column"]),
        time_column=str(cfg["time_column"]),
        label_column=str(cfg["label_column"]),
        static_columns=cfg["static_columns"],
    )
    if not frames:
        raise DataError(f"{path}: no series found")
    tables = [
        featurize_rolling(
            resample_series(frame, interval_s=int(cfg["interval"])),
            windows=cfg["windows"],
            lags=cfg["lags"],
        )
        for frame in frames
    ]
    features = concat_tables(tables)
    write_csv(features, os.path.join(out, "features.csv"), include_row_id=True)
    return (f"featurize: {len(frames)} series -> {features.n_rows} rows x "
            f"{len(features.schema)} features -> {out}/features.csv")


def cmd_train(cfg: Mapping[str, object]) -> str:
    out = _out_dir(cfg)
    table = _load_table(cfg)
    model = train_gbdt(table, _gbdt_params(cfg))
    _save_model(model, cfg, os.path.join(out, "model.json"))
    metrics = find_misclassified(model, table, threshold=float(cfg["threshold"]),
                                 split="train").metrics
    _write_metrics(metrics, cfg, os.path.join(out, "metrics.json"))
    return (f"train: {len(model.trees)} trees on {table.n_rows} rows, "
            f"final loss {model.train_loss[-1]:.4f}, "
            f"training error rate {metrics.error_rate:.3f} -> {out}/model.json")


def cmd_eval(cfg: Mapping[str, object]) -> str:
    out = _out_dir(cfg)
    table = _load_table(cfg)
    predictor = _predictor(cfg, table)
    metrics = find_misclassified(predictor, table, threshold=float(cfg["threshold"]),
                                 split="all").metrics
    _write_metrics(metrics, cfg, os.path.join(out, "metrics.json"))
    return (f"eval: {table.n_rows} rows, error rate {metrics.error_rate:.3f}, "
            f"recall {metrics.recall:.3f}, precision {metrics.precision:.3f} "
            f"-> {out}/metrics.json")


def _explain_split(cfg: Mapping[str, object], predictor: Predictor,
                   table: LabeledTable, disc, split_name: str):
    mis = find_misclassified(predictor, table,
                             threshold=float(cfg["threshold"]), split=split_name)
    explanations = explain_misclassified(
        predictor, table, mis, disc,
        config=_lime_config(cfg), jobs=int(cfg["jobs"]),
    )
    return mis, explanations


def cmd_explain(cfg: Mapping[str, object]) -> str:
    out = _out_dir(cfg)
    table = _load_table(cfg)
    predictor = _predictor(cfg, table)
    disc = fit_discretizer(table)
    _, explanations = _explain_split(cfg, predictor, table, disc, "all")
    write_explanations_jsonl(explanations, os.path.join(out, "explanations.jsonl"))
    return (f"explain: {len(explanations)} of {table.n_rows} rows misclassified "
            f"-> {out}/explanations.jsonl")


def cmd_mine(cfg: Mapping[str, object]) -> str:
    out = _out_dir(cfg)
    table = _load_table(cfg)
    predictor = _predictor(cfg, table)
    disc = fit_discretizer(table)
    mis, explanations = _explain_split(cfg, predictor, table, disc, "all")
    report = report_from_explanations(
        table, explanations, mis,
        min_support_fraction=float(cfg["min_support"]),
        lime_config=_lime_config(cfg),
        extra_config=_echo(cfg),
    )
    write_explanations_jsonl(explanations, os.path.join(out, "explanations.jsonl"))
    write_report_files(report, out)
    return (f"mine: {len(report.regions)} regions from "
            f"{report.n_misclassified}/{report.n_total} misclassified "
            f"(baseline {report.baseline_error_rate:.3f}) -> {out}")


def cmd_pipeline(cfg: Mapping[str, object]) -> str:
    """synth-style table in, everything out: split, train, metrics per split,
    explanations per split, region reports per split."""
    out = _out_dir(cfg)
    table = _load_table(cfg)
    train_table, test_table = split(table, test_fraction=float(cfg["split_fraction"]),
                                    seed=int(cfg["seed"]))
    model = train_gbdt(train_table, _gbdt_params(cfg))
    _save_model(model, cfg, os.path.join(out, "model.json"))
    disc = fit_discretizer(train_table)
    summaries = []
    for name, part in (("train", train_table), ("test", test_table)):
        mis, explanations = _explain_split(cfg, model, part, disc, name)
        _write_metrics(mis.metrics, cfg, os.path.join(out, f"metrics_{name}.json"))
        report = report_from_explanations(
            part, explanations, mis,
            min_support_fraction=float(cfg["min_support"]),
            lime_config=_lime_config(cfg),
            extra_config=_echo(cfg),
        )
        write_explanations_jsonl(
            explanations, os.path.join(out, f"explanations_{name}.jsonl"))
        write_report_files(report, out, basename=f"report_{name}",
                           table_basename=f"table_{name}")
        summaries.append(f"{name} error rate {mis.metrics.error_rate:.3f}, "
                         f"{len(report.regions)} regions")
    return (f"pipeline: {train_table.n_rows}/{test_table.n_rows} train/test rows; "
            f"{'; '.join(summaries)} -> {out}")


COMMANDS = {
    "synth": cmd_synth,
    "featurize": cmd_featurize,
    "train": cmd_train,
    "eval": cmd_eval,
    "explain": cmd_explain,
    "mine": cmd_mine,
    "pipeline": cmd_pipeline,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        print(f"{parser.prog}: error: a subcommand is required", file=sys.stderr)
        return EXIT_USAGE
    try:
        cfg = merge_config(args)
        dump_json(_echo(cfg), os.path.join(_out_dir(cfg), "run_config.json"))
        print(COMMANDS[args.command](cfg))
    except UsageError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as exc:
        print(f"{parser.prog}: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"{parser.prog}: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
