"""Command-line interface.

Subcommands: synth, featurize, train, eval, explain, mine, pipeline.  Each
takes only the flags it reads.  Every flag can also be given in a JSON config
file (snake_case keys) passed via --config, which may also hold the keys of
other subcommands; those are skipped unread.  A flag on the command line
overrides the file, which overrides the built-in default.  File values go
through the same converter as flag strings, so a value of the wrong type is a
usage error.  The subcommand's effective options are echoed into
``run_config.json`` in the output directory and into every JSON artifact.  A
run's files reach the output directory only when the subcommand succeeds.

Exit codes: 0 success, 1 usage error, 2 data/format error (out of memory
included), 3 numerical error.
"""

from __future__ import annotations

import argparse
import math
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass, fields
from typing import Callable, Mapping, NamedTuple, Sequence

from .data import (
    LabeledTable,
    concat_tables,
    featurize_rolling,
    load_csv,
    load_series_csv,
    resample_series,
    split,
    write_csv,
)
from .errors import DataError, NumericalError
from .lime import LimeConfig, PerturbationPool, fit_discretizer, write_explanations_jsonl
from .model import GbdtModel, GbdtParams, Predictor, load_external_predictions, train_gbdt
from .regions import explain_misclassified, find_misclassified, report_from_explanations
from .report import write_report_files
from .serialize import dump_json, load_json
from .synth import MAX_CELLS, SynthSpec, default_spec, generate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class UsageError(Exception):
    """Invalid invocation: missing/inconsistent flags or config values."""


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2 for
    data problems, so usage errors exit 1, with a one-line message.  A flag
    must be spelled out: argparse would otherwise take ``--out`` as the
    ``--out-dir`` it abbreviates."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str):  # noqa: D102 - argparse hook
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# --- options ----------------------------------------------------------------------


def _scalar(parse: Callable[[object], object], json_types: tuple[type, ...],
            what: str) -> Callable[[object], object]:
    """Converter of a flag string, or of a config-file value of one of
    ``json_types`` (never a bool), through ``parse``."""
    def convert(value: object) -> object:
        if isinstance(value, (str, *json_types)) and not isinstance(value, bool):
            try:
                return parse(value)
            except (ValueError, OverflowError):
                pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {value!r}")
    return convert


def _finite(value: object) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(x)
    return x


def _list_of(item: Callable[[object], object]) -> Callable[[object], tuple]:
    """Converter of a comma-separated flag string or a config-file list."""
    def convert(value: object) -> tuple:
        if isinstance(value, str):
            value = [s.strip() for s in value.split(",") if s.strip()]
        if not isinstance(value, list):
            raise argparse.ArgumentTypeError(
                f"expected a list or comma-separated string, got {value!r}")
        return tuple(item(v) for v in value)
    return convert


_int = _scalar(int, (int,), "an integer")
_float = _scalar(_finite, (int, float), "a finite number")
_text = _scalar(str, (), "a string")


class Option(NamedTuple):
    """A config key, its converter, its default, and the subcommands that read
    it, as a kebab-case flag or from the config file.  A default of None also
    lets the config file give null.  ``check`` is a test no library config
    makes and the bound it states; ``echoed`` is False for an execution knob,
    which must never affect artifacts."""

    key: str
    convert: Callable[[object], object]
    default: object
    commands: tuple[str, ...]
    help: str | None = None
    check: tuple[Callable[[object], bool], str] | None = None
    echoed: bool = True


_EVAL = ("eval", "explain", "mine")
_EXPLAIN = ("explain", "mine", "pipeline")
_TABLE = ("train", *_EVAL, "pipeline")
_FIT = ("train", "pipeline")
_LIME = LimeConfig()
_GBDT = GbdtParams()
_EACH_AT_LEAST_1 = (lambda ns: min(ns, default=1) >= 1, "at least 1 each")
# Most perturbation samples: the pool is a float64 column of 80 MB per
# feature at most, like a synthetic table (synth.MAX_CELLS).
_MAX_SAMPLES = 10_000_000
# Most rounds: a tree has at most 2**(max_depth+1) - 1 nodes of 40 bytes, 124 MB at depth 4.
_MAX_ROUNDS = 100_000


def _within(least: int, most: int) -> tuple[Callable[[object], bool], str]:
    return (lambda n: least <= n <= most, f"at least {least} and at most {most:,}")


OPTIONS: tuple[Option, ...] = (
    Option("seed", _int, _LIME.seed, ("synth", "train", *_EXPLAIN)),
    Option("out_dir", _text, "out", ("synth", "featurize", *_TABLE), echoed=False),
    Option("threshold", _float, 0.5, _TABLE, check=(lambda x: 0.0 <= x <= 1.0, "within [0, 1]")),
    Option("top_k", _int, _LIME.top_k, _EXPLAIN),
    Option("n_samples", _int, _LIME.n_samples, _EXPLAIN,
           f"perturbation samples, at least 2 and at most {_MAX_SAMPLES:,}",
           _within(2, _MAX_SAMPLES)),
    Option("kernel_width", _float, _LIME.kernel_width, _EXPLAIN),
    Option("ridge_lambda", _float, _LIME.ridge_lambda, _EXPLAIN),
    Option("min_support", _float, 0.1, ("mine", "pipeline"),
           check=(lambda x: 0.0 < x <= 1.0, "within (0, 1]")),
    Option("split_fraction", _float, 0.25, ("pipeline",),
           check=(lambda x: 0.0 < x < 1.0, "within (0, 1)")),
    Option("predictions", _text, None, _EVAL, "row_id,probability CSV replacing the model"),
    Option("jobs", _int, 1, _EXPLAIN, "must be 1: explanations run on one thread",
           (lambda n: n == 1, "1"), echoed=False),
    Option("data", _text, None, ("featurize", *_TABLE),
           "labeled feature CSV (featurize: long-format time-series CSV)"),
    Option("label_column", _text, "label", ("featurize", *_TABLE)),
    Option("id_column", _text, None, _TABLE),
    Option("categorical", _list_of(_text), (), _TABLE, "comma-separated categorical columns"),
    Option("model", _text, None, _EVAL, "model JSON produced by train"),
    Option("rows", _int, 2000, ("synth",),
           f"rows to generate; rows x features at most {MAX_CELLS:,}", _within(1, MAX_CELLS)),
    Option("features", _int, 6, ("synth",),
           f"features to generate; rows x features at most {MAX_CELLS:,}",
           _within(1, MAX_CELLS)),
    Option("flip_rate", _float, 0.4, ("synth",)),
    Option("rounds", _int, _GBDT.rounds, _FIT, f"boosting rounds, at most {_MAX_ROUNDS:,}",
           _within(0, _MAX_ROUNDS)),
    Option("max_depth", _int, _GBDT.max_depth, _FIT),
    Option("learning_rate", _float, _GBDT.learning_rate, _FIT),
    Option("min_leaf_count", _int, _GBDT.min_leaf_count, _FIT),
    Option("l2", _float, _GBDT.l2, _FIT),
    Option("channels", _list_of(_text), (), ("featurize",), "comma-separated channel columns"),
    Option("static_columns", _list_of(_text), (), ("featurize",),
           "comma-separated per-entity categorical columns"),
    Option("entity_column", _text, "entity_id", ("featurize",)),
    Option("time_column", _text, "timestamp_s", ("featurize",)),
    Option("windows", _list_of(_int), (3, 6), ("featurize",),
           "comma-separated rolling window lengths", _EACH_AT_LEAST_1),
    Option("lags", _list_of(_int), (1, 2), ("featurize",), "comma-separated lag offsets",
           _EACH_AT_LEAST_1),
    Option("interval", _int, 300, ("featurize",),
           "resampling interval in seconds, at least 1 and below 2**63",
           (lambda n: 1 <= n < 2**63, "at least 1 and below 2**63")),
)


def build_parser(command: str | None = None) -> _Parser:
    """The full parser, or with ``command`` one with that subparser alone."""
    parser = _Parser(prog="errlens", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    for name, (_, help_text) in COMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file (snake_case keys)")
        for opt in OPTIONS:
            if name in opt.commands:
                p.add_argument("--" + opt.key.replace("_", "-"), type=opt.convert,
                               help=opt.help)
    return parser


@dataclass(frozen=True)
class RunConfig:
    """The effective options of one run, the library configs built from them
    once (None where unread), and ``echo``, the part embedded in artifacts."""

    options: Mapping[str, object]
    echo: Mapping[str, object]
    lime: LimeConfig | None
    gbdt: GbdtParams | None
    synth: SynthSpec | None

    def __getitem__(self, key: str) -> object:
        return self.options[key]


def _read_config(path: str) -> dict[str, object]:
    file_cfg = load_json(path)
    if not isinstance(file_cfg, dict):
        raise UsageError(f"{path}: config must be a JSON object")
    unknown = sorted(set(file_cfg) - {opt.key for opt in OPTIONS})
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    return file_cfg


def _file_value(opt: Option, value: object) -> object:
    if value is None and opt.default is None:
        return None
    try:
        return opt.convert(value)
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"config key {opt.key}: {exc}") from None


def _build(cls: type, options: Mapping[str, object]):
    """``cls`` from the options named like its fields."""
    return cls(**{f.name: options[f.name] for f in fields(cls)})


def merge_config(args: argparse.Namespace) -> RunConfig:
    """defaults < config file < command-line flags, for the options of
    ``args.command`` alone, each converted and checked here, before any input
    file is read.  Config-file keys of other subcommands are skipped unread."""
    command = args.command
    file_cfg = _read_config(args.config) if args.config else {}
    read = [opt for opt in OPTIONS if command in opt.commands]
    options: dict[str, object] = {}
    for opt in read:
        value = getattr(args, opt.key)
        if value is None and opt.key in file_cfg:
            value = _file_value(opt, file_cfg[opt.key])
        options[opt.key] = opt.default if value is None else value
    for opt in read:
        if opt.check and not opt.check[0](options[opt.key]):
            raise UsageError(f"{opt.key.replace('_', '-')} must be {opt.check[1]}")
    try:
        lime = _build(LimeConfig, options) if command in _EXPLAIN else None
        gbdt = _build(GbdtParams, options) if command in _FIT else None
        synth = (default_spec(options["rows"], options["features"], options["flip_rate"],
                              options["seed"]) if command == "synth" else None)
    except DataError as exc:
        raise UsageError(str(exc)) from None
    echo = {opt.key: options[opt.key] for opt in read if opt.echoed}
    return RunConfig(options, echo, lime, gbdt, synth)


def _require(cfg: RunConfig, key: str) -> object:
    value = cfg[key]
    if value is None:
        raise UsageError(f"--{key.replace('_', '-')} is required (flag or config file)")
    return value


def _load_table(cfg: RunConfig) -> LabeledTable:
    return load_csv(_require(cfg, "data"), label_column=cfg["label_column"],
                    id_column=cfg["id_column"], categorical=cfg["categorical"])


def _predictor(cfg: RunConfig, table: LabeledTable) -> Predictor:
    """External predictions, when given, replace the model entirely."""
    if cfg["predictions"] is not None:
        return load_external_predictions(cfg["predictions"], table)
    if cfg["model"] is not None:
        return GbdtModel.load(cfg["model"])
    raise UsageError("--model or --predictions is required")


def _dump_artifact(obj: dict, cfg: RunConfig, path: str) -> None:
    """Write a JSON artifact with the run's effective config embedded."""
    obj["config"] = cfg.echo
    dump_json(obj, path)


# --- subcommands ---------------------------------------------------------------
# Each writes into ``out``; :func:`_run` publishes that to the --out-dir it names.


def cmd_synth(cfg: RunConfig, out: str) -> str:
    table, truth = generate(cfg.synth)
    write_csv(table, os.path.join(out, "synth.csv"))
    _dump_artifact(truth.to_json_obj(), cfg, os.path.join(out, "ground_truth.json"))
    return (f"synth: {table.n_rows} rows, {len(truth.in_box_row_ids)} in box, "
            f"{len(truth.flipped_row_ids)} labels flipped -> {cfg['out_dir']}")


def cmd_featurize(cfg: RunConfig, out: str) -> str:
    path = _require(cfg, "data")
    channels = cfg["channels"]
    if not channels:
        raise UsageError("--channels is required")
    frames = load_series_csv(
        path,
        channel_columns=channels,
        entity_column=cfg["entity_column"],
        time_column=cfg["time_column"],
        label_column=cfg["label_column"],
        static_columns=cfg["static_columns"],
    )
    if not frames:
        raise DataError(f"{path}: no series found")
    tables = [
        featurize_rolling(
            resample_series(frame, interval_s=cfg["interval"]),
            windows=cfg["windows"],
            lags=cfg["lags"],
        )
        for frame in frames
    ]
    features = concat_tables(tables)
    write_csv(features, os.path.join(out, "features.csv"), include_row_id=True)
    return (f"featurize: {len(frames)} series -> {features.n_rows} rows x "
            f"{len(features.schema)} features -> {cfg['out_dir']}/features.csv")


def cmd_train(cfg: RunConfig, out: str) -> str:
    table = _load_table(cfg)
    model = train_gbdt(table, cfg.gbdt)
    _dump_artifact(model.to_json_obj(), cfg, os.path.join(out, "model.json"))
    metrics = find_misclassified(model, table, threshold=cfg["threshold"],
                                 split="train").metrics
    _dump_artifact(metrics.to_json_obj(), cfg, os.path.join(out, "metrics.json"))
    return (f"train: {len(model.trees)} trees on {table.n_rows} rows, "
            f"final loss {model.train_loss[-1]:.4f}, "
            f"training error rate {metrics.error_rate:.3f} -> {cfg['out_dir']}/model.json")


def cmd_eval(cfg: RunConfig, out: str) -> str:
    table = _load_table(cfg)
    predictor = _predictor(cfg, table)
    metrics = find_misclassified(predictor, table, threshold=cfg["threshold"],
                                 split="all").metrics
    _dump_artifact(metrics.to_json_obj(), cfg, os.path.join(out, "metrics.json"))
    return (f"eval: {table.n_rows} rows, error rate {metrics.error_rate:.3f}, "
            f"recall {metrics.recall:.3f}, precision {metrics.precision:.3f} "
            f"-> {cfg['out_dir']}/metrics.json")


def _explain_split(cfg: RunConfig, pool: PerturbationPool, table: LabeledTable, name: str):
    mis = find_misclassified(pool.predictor, table, threshold=cfg["threshold"], split=name)
    return mis, explain_misclassified(pool, mis)


def cmd_explain(cfg: RunConfig, out: str) -> str:
    table = _load_table(cfg)
    pool = PerturbationPool(_predictor(cfg, table), fit_discretizer(table), cfg.lime)
    _, explanations = _explain_split(cfg, pool, table, "all")
    write_explanations_jsonl(explanations, os.path.join(out, "explanations.jsonl"))
    return (f"explain: {len(explanations)} of {table.n_rows} rows misclassified "
            f"-> {cfg['out_dir']}/explanations.jsonl")


def cmd_mine(cfg: RunConfig, out: str) -> str:
    table = _load_table(cfg)
    pool = PerturbationPool(_predictor(cfg, table), fit_discretizer(table), cfg.lime)
    mis, explanations = _explain_split(cfg, pool, table, "all")
    report = report_from_explanations(explanations, mis, cfg["min_support"], cfg.echo)
    write_explanations_jsonl(explanations, os.path.join(out, "explanations.jsonl"))
    write_report_files(report, out)
    return (f"mine: {len(report.regions)} regions from "
            f"{report.n_misclassified}/{report.n_total} misclassified "
            f"(baseline {report.baseline_error_rate:.3f}) -> {cfg['out_dir']}")


def cmd_pipeline(cfg: RunConfig, out: str) -> str:
    """synth-style table in, everything out: split, train, metrics per split,
    explanations per split, region reports per split."""
    table = _load_table(cfg)
    train_table, test_table = split(table, test_fraction=cfg["split_fraction"],
                                    seed=cfg["seed"])
    model = train_gbdt(train_table, cfg.gbdt)
    _dump_artifact(model.to_json_obj(), cfg, os.path.join(out, "model.json"))
    # the two splits share one model and discretizer, so one pool
    pool = PerturbationPool(model, fit_discretizer(train_table), cfg.lime)
    summaries = []
    for name, part in (("train", train_table), ("test", test_table)):
        mis, explanations = _explain_split(cfg, pool, part, name)
        _dump_artifact(mis.metrics.to_json_obj(), cfg,
                       os.path.join(out, f"metrics_{name}.json"))
        report = report_from_explanations(explanations, mis, cfg["min_support"], cfg.echo)
        write_explanations_jsonl(
            explanations, os.path.join(out, f"explanations_{name}.jsonl"))
        write_report_files(report, out)
        summaries.append(f"{name} error rate {mis.metrics.error_rate:.3f}, "
                         f"{len(report.regions)} regions")
    return (f"pipeline: {train_table.n_rows}/{test_table.n_rows} train/test rows; "
            f"{'; '.join(summaries)} -> {cfg['out_dir']}")


# Each subcommand's function and its one-line help.
COMMANDS: dict[str, tuple[Callable[[RunConfig, str], str], str]] = {
    "synth": (cmd_synth, "generate synthetic data with a planted noisy box"),
    "featurize": (cmd_featurize, "turn long-format series CSV into a feature table"),
    "train": (cmd_train, "train the boosted-tree classifier"),
    "eval": (cmd_eval, "confusion metrics on a labeled table"),
    "explain": (cmd_explain, "explain each misclassified row"),
    "mine": (cmd_mine, "mine and score poor-performance regions"),
    "pipeline": (cmd_pipeline, "split, train, explain, and report end to end"),
}


def _run(command: Callable[[RunConfig, str], str], cfg: RunConfig) -> str:
    """Run ``command`` into a hidden staging directory, then move its files and
    ``run_config.json``, last, into --out-dir; if it raises, nothing moves.  An
    earlier ``run_config.json`` goes first, so a move that fails part-way leaves
    no directory that looks finished.  The directory sits inside an existing
    --out-dir, so that no move crosses a file system (--out-dir may be a mount
    point), and beside an absent one."""
    out = cfg["out_dir"]
    parent = out if os.path.isdir(out) else os.path.dirname(os.path.normpath(out)) or os.curdir
    os.makedirs(parent, exist_ok=True)
    stage = tempfile.mkdtemp(prefix=".errlens-", dir=parent)
    try:
        summary = command(cfg, stage)
        names = os.listdir(stage)
        dump_json(cfg.echo, os.path.join(stage, "run_config.json"))
        os.makedirs(out, exist_ok=True)
        if os.path.lexists(config := os.path.join(out, "run_config.json")):
            os.remove(config)
        for name in (*names, "run_config.json"):
            os.replace(os.path.join(stage, name), os.path.join(out, name))
    finally:
        shutil.rmtree(stage, ignore_errors=True)
    return summary


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        print(f"{parser.prog}: error: a subcommand is required", file=sys.stderr)
        return EXIT_USAGE
    try:
        cfg = merge_config(args)
        command, _ = COMMANDS[args.command]
        print(_run(command, cfg))
    except UsageError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as exc:
        print(f"{parser.prog}: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError:  # the input's size and the options asked for the memory
        print(f"{parser.prog}: data error: out of memory for this input and these options",
              file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"{parser.prog}: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
