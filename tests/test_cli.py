"""Command-line interface: artifacts, config merging, and exit codes."""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from conftest import count_table_scores
from errlens import ExternalPredictions, GbdtModel
from errlens.cli import (
    COMMANDS,
    EXIT_DATA,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    OPTIONS,
    build_parser,
    main,
)


def run(*argv: str) -> int:
    return main(list(argv))


def read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


@pytest.fixture()
def synth_dir(tmp_path) -> str:
    out = str(tmp_path / "synth")
    code = run("synth", "--rows", "120", "--features", "3", "--seed", "7",
               "--out-dir", out)
    assert code == EXIT_OK
    return out


@pytest.fixture()
def model_dir(tmp_path, synth_dir) -> str:
    out = str(tmp_path / "model")
    code = run("train", "--data", f"{synth_dir}/synth.csv", "--rounds", "8",
               "--seed", "7", "--out-dir", out)
    assert code == EXIT_OK
    return out


# --- artifacts per subcommand ---------------------------------------------------


def test_synth_writes_table_truth_and_config(synth_dir) -> None:
    assert sorted(os.listdir(synth_dir)) == [
        "ground_truth.json", "run_config.json", "synth.csv",
    ]
    truth = read_json(f"{synth_dir}/ground_truth.json")
    assert truth["box"][0] == [0.75, None]
    assert truth["config"]["rows"] == 120


def test_commands_print_a_single_summary_line(tmp_path, capsys) -> None:
    assert run("synth", "--rows", "40", "--features", "2",
               "--out-dir", str(tmp_path / "s")) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and out.startswith("synth:")


def test_train_writes_model_and_metrics(model_dir) -> None:
    assert sorted(os.listdir(model_dir)) == [
        "metrics.json", "model.json", "run_config.json",
    ]
    model = read_json(f"{model_dir}/model.json")
    assert len(model["trees"]) == 8
    assert model["config"]["rounds"] == 8
    metrics = read_json(f"{model_dir}/metrics.json")
    assert metrics["n"] == 120


def test_eval_writes_metrics(tmp_path, synth_dir, model_dir, capsys) -> None:
    out = str(tmp_path / "eval")
    code = run("eval", "--data", f"{synth_dir}/synth.csv",
               "--model", f"{model_dir}/model.json", "--out-dir", out)
    assert code == EXIT_OK
    assert capsys.readouterr().out.startswith("eval:")
    assert sorted(os.listdir(out)) == ["metrics.json", "run_config.json"]


def test_explain_writes_one_explanation_per_misclassified_row(
    tmp_path, synth_dir, model_dir, capsys
) -> None:
    out = str(tmp_path / "explain")
    code = run("explain", "--data", f"{synth_dir}/synth.csv",
               "--model", f"{model_dir}/model.json",
               "--n-samples", "200", "--out-dir", out)
    assert code == EXIT_OK
    assert capsys.readouterr().out.startswith("explain:")
    lines = read_lines(f"{out}/explanations.jsonl")
    metrics = read_json(f"{model_dir}/metrics.json")
    assert len(lines) == metrics["fp"] + metrics["fn"]
    first = json.loads(lines[0])
    assert first["true_label"] != first["predicted_label"]


def test_mine_writes_report_files(tmp_path, synth_dir, model_dir, capsys) -> None:
    out = str(tmp_path / "mine")
    code = run("mine", "--data", f"{synth_dir}/synth.csv",
               "--model", f"{model_dir}/model.json",
               "--n-samples", "200", "--out-dir", out)
    assert code == EXIT_OK
    assert capsys.readouterr().out.startswith("mine:")
    assert sorted(os.listdir(out)) == [
        "explanations.jsonl", "report.csv", "report.json", "report.svg",
        "run_config.json", "table.txt",
    ]
    report = read_json(f"{out}/report.json")
    assert report["split"] == "all"
    assert report["config"]["n_samples"] == 200


def test_pipeline_writes_the_full_artifact_set(tmp_path, synth_dir, capsys) -> None:
    out = str(tmp_path / "pipe")
    code = run("pipeline", "--data", f"{synth_dir}/synth.csv", "--rounds", "8",
               "--n-samples", "200", "--seed", "7", "--out-dir", out)
    assert code == EXIT_OK
    assert capsys.readouterr().out.startswith("pipeline:")
    expected = {"model.json", "run_config.json"}
    for name in ("train", "test"):
        expected |= {
            f"metrics_{name}.json", f"explanations_{name}.jsonl",
            f"report_{name}.json", f"report_{name}.csv", f"report_{name}.svg",
            f"table_{name}.txt",
        }
    assert set(os.listdir(out)) == expected
    train = read_json(f"{out}/metrics_train.json")
    test = read_json(f"{out}/metrics_test.json")
    assert train["n"] == 90 and test["n"] == 30


def test_featurize_turns_series_into_a_feature_table(tmp_path, capsys) -> None:
    data = tmp_path / "series.csv"
    rows = ["entity_id,timestamp_s,hr,label"]
    rows += [f"a,{t},{t / 100},1" for t in range(0, 3000, 300)]
    rows += [f"b,{t},{(3000 - t) / 100},0" for t in range(0, 3000, 300)]
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    out = str(tmp_path / "feat")
    code = run("featurize", "--data", str(data), "--channels", "hr",
               "--windows", "2,3", "--lags", "1", "--out-dir", out)
    assert code == EXIT_OK
    assert capsys.readouterr().out.startswith("featurize:")
    header, *body = read_lines(f"{out}/features.csv")
    assert header == "row_id,hr,hr_mean_2,hr_mean_3,hr_std_2,hr_std_3,hr_lag_1,label"
    assert len(body) == 16  # 10 steps per entity minus 2 warm-up rows each
    assert body[0].startswith("a:600,")



def test_featurize_reports_a_timestamp_beyond_int64_as_a_bad_cell(tmp_path, capsys) -> None:
    data = tmp_path / "s.csv"
    data.write_text("entity_id,timestamp_s,hr,label\na,0,1.0,1\na,99999999999999999999,2.0,1\n",
                    encoding="utf-8")
    assert run("featurize", "--data", str(data), "--channels", "hr",
               "--out-dir", str(tmp_path / "o")) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"errlens: data error: {data}: row 1, column 'timestamp_s': '99999999999999999999'\n")


def test_featurize_refuses_a_resampling_grid_too_large_to_allocate(tmp_path, capsys) -> None:
    data = tmp_path / "s.csv"
    data.write_text("entity_id,timestamp_s,hr,label\na,0,1,1\na,9000000000000000000,2,1\n",
                    encoding="utf-8")
    assert run("featurize", "--data", str(data), "--channels", "hr",
               "--out-dir", str(tmp_path / "o")) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("errlens: data error: series 'a': ")

# --- config merging -------------------------------------------------------------


def test_flags_override_the_config_file_which_overrides_defaults(tmp_path) -> None:
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"seed": 5, "rows": 60}), encoding="utf-8")
    out = str(tmp_path / "o")
    assert run("synth", "--config", str(config), "--rows", "70",
               "--out-dir", out) == EXIT_OK
    effective = read_json(f"{out}/run_config.json")
    assert effective["seed"] == 5       # from the file
    assert effective["rows"] == 70      # flag wins
    assert effective["features"] == 6   # untouched default
    assert "out_dir" not in effective and "jobs" not in effective


def test_every_json_artifact_echoes_the_effective_config(synth_dir, model_dir) -> None:
    for path in (f"{synth_dir}/ground_truth.json", f"{model_dir}/model.json",
                 f"{model_dir}/metrics.json"):
        config = read_json(path)["config"]
        assert config["seed"] == 7
        assert "out_dir" not in config and "jobs" not in config


def _series_csv(path) -> str:
    rows = ["entity_id,timestamp_s,hr,label"]
    rows += [f"a,{t},{t / 100},1" for t in range(0, 3000, 300)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


def test_each_subcommand_echoes_exactly_its_own_options(tmp_path, synth_dir,
                                                        model_dir) -> None:
    table, model = ("--data", f"{synth_dir}/synth.csv"), f"{model_dir}/model.json"
    argv = {
        "synth": ("--rows", "40"),
        "featurize": ("--data", _series_csv(tmp_path / "s.csv"), "--channels", "hr"),
        "train": (*table, "--rounds", "3"),
        "eval": (*table, "--model", model),
        "explain": (*table, "--model", model, "--n-samples", "50"),
        "mine": (*table, "--model", model, "--n-samples", "50"),
        "pipeline": (*table, "--rounds", "3", "--n-samples", "50"),
    }
    for command, flags in argv.items():
        out = str(tmp_path / "runs" / command)
        assert run(command, *flags, "--out-dir", out) == EXIT_OK, command
        echo = read_json(f"{out}/run_config.json")
        assert set(echo) == {opt.key for opt in OPTIONS if command in opt.commands
                             } - {"jobs", "out_dir"}, command
        artifacts = [name for name in os.listdir(out)
                     if name.endswith(".json") and name != "run_config.json"]
        assert artifacts or command in ("featurize", "explain")
        for name in artifacts:
            assert read_json(f"{out}/{name}")["config"] == echo, f"{command}: {name}"


def test_config_keys_of_other_subcommands_are_skipped_unread(tmp_path, synth_dir) -> None:
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"predictions": "p.csv", "rows": 9, "interval": 0,
                                  "flip_rate": 7}), encoding="utf-8")
    out = str(tmp_path / "pipe")
    assert run("pipeline", "--config", str(config), "--data", f"{synth_dir}/synth.csv",
               "--rounds", "3", "--n-samples", "50", "--out-dir", out) == EXIT_OK
    for name in os.listdir(out):
        if name.endswith(".json"):
            config_echo = read_json(f"{out}/{name}")
            config_echo = config_echo.get("config", config_echo)
            assert not {"predictions", "rows", "interval", "flip_rate"} & set(config_echo)
    # a key no subcommand reads is still refused
    config.write_text(json.dumps({"rows": 9, "rowz": 9}), encoding="utf-8")
    assert run("pipeline", "--config", str(config), "--data", f"{synth_dir}/synth.csv",
               "--out-dir", str(tmp_path / "o")) == EXIT_USAGE


@pytest.mark.parametrize("argv, config", [
    (("synth", "--seed", "-1"), None),
    (("pipeline", "--data", "absent.csv", "--seed", "-3"), None),
    (("pipeline", "--data", "absent.csv"), {"seed": -3}),
    (("explain", "--data", "absent.csv", "--model", "m.json",
      "--seed", str(2**64)), None),
    (("train", "--data", "absent.csv"), {"seed": 2**64 + 5}),
])
def test_seeds_outside_64_bits_are_one_line_usage_errors(tmp_path, capsys, argv,
                                                         config) -> None:
    if config is not None:
        (tmp_path / "c.json").write_text(json.dumps(config), encoding="utf-8")
        argv = (*argv, "--config", str(tmp_path / "c.json"))
    assert run(*argv, "--out-dir", str(tmp_path / "o")) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "seed must be within [0, 2**64)" in err
    assert not os.path.exists(tmp_path / "o")


def test_unknown_config_keys_are_a_usage_error(tmp_path) -> None:
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"rowz": 60}), encoding="utf-8")
    assert run("synth", "--config", str(config)) == EXIT_USAGE


def test_non_object_config_is_a_usage_error(tmp_path) -> None:
    config = tmp_path / "c.json"
    config.write_text("[1, 2]", encoding="utf-8")
    assert run("synth", "--config", str(config)) == EXIT_USAGE


def test_unparseable_config_is_a_data_error(tmp_path) -> None:
    config = tmp_path / "c.json"
    config.write_text("{not json", encoding="utf-8")
    assert run("synth", "--config", str(config)) == EXIT_DATA


def test_custom_column_names_and_categorical_kinds(tmp_path) -> None:
    data = tmp_path / "d.csv"
    data.write_text(
        "rid,x,grp,y\n" + "\n".join(
            f"r{i},{i / 10},{'a' if i % 2 else 'b'},{i % 2}" for i in range(20)
        ) + "\n",
        encoding="utf-8",
    )
    out = str(tmp_path / "o")
    code = run("train", "--data", str(data), "--label-column", "y",
               "--id-column", "rid", "--categorical", "grp",
               "--rounds", "3", "--out-dir", out)
    assert code == EXIT_OK
    schema = read_json(f"{out}/model.json")["schema"]
    assert schema == [{"name": "x", "kind": "continuous"},
                      {"name": "grp", "kind": "categorical"}]


# --- external predictions -------------------------------------------------------


def test_eval_accepts_external_predictions_instead_of_a_model(tmp_path) -> None:
    data = tmp_path / "d.csv"
    data.write_text("x,label\n1.0,0\n2.0,1\n3.0,1\n", encoding="utf-8")
    preds = tmp_path / "p.csv"
    preds.write_text("row_id,probability\n0,0.9\n1,0.9\n2,0.1\n", encoding="utf-8")
    out = str(tmp_path / "o")
    code = run("eval", "--data", str(data), "--predictions", str(preds),
               "--out-dir", out)
    assert code == EXIT_OK
    metrics = read_json(f"{out}/metrics.json")
    assert (metrics["fp"], metrics["fn"]) == (1, 1)


def test_eval_without_model_or_predictions_is_a_usage_error(tmp_path) -> None:
    data = tmp_path / "d.csv"
    data.write_text("x,label\n1.0,0\n", encoding="utf-8")
    assert run("eval", "--data", str(data),
               "--out-dir", str(tmp_path / "o")) == EXIT_USAGE


# --- one scoring pass per split ---------------------------------------------------


def test_pipeline_scores_each_split_once(tmp_path, synth_dir, monkeypatch) -> None:
    calls = count_table_scores(monkeypatch, GbdtModel)
    out = str(tmp_path / "pipe")
    assert run("pipeline", "--data", f"{synth_dir}/synth.csv", "--rounds", "8",
               "--n-samples", "200", "--seed", "7", "--out-dir", out) == EXIT_OK
    assert calls == [90, 30]  # train split, then test split
    assert read_json(f"{out}/report_train.json")["regions"]


def test_pipeline_scores_one_perturbation_pool_for_both_splits(
    tmp_path, synth_dir, monkeypatch,
) -> None:
    calls = []
    original = GbdtModel.predict_rows

    def counting(self, schema, columns):
        calls.append(len(columns[0]))
        return original(self, schema, columns)

    monkeypatch.setattr(GbdtModel, "predict_rows", counting)
    assert run("pipeline", "--data", f"{synth_dir}/synth.csv", "--rounds", "8",
               "--n-samples", "200", "--seed", "7",
               "--out-dir", str(tmp_path / "pipe")) == EXIT_OK
    assert calls == [90, 199, 30]  # train split, the shared pool, test split


def test_quick_start_explanations_keep_their_bytes(tmp_path) -> None:
    # README's quick start; the digests were recorded when trees came to be
    # grown level by level from 64-bin histograms
    data, out = str(tmp_path / "data"), str(tmp_path / "run")
    assert run("synth", "--rows", "2000", "--features", "6", "--flip-rate", "0.4",
               "--seed", "7", "--out-dir", data) == EXIT_OK
    assert run("pipeline", "--data", f"{data}/synth.csv", "--seed", "7",
               "--out-dir", out) == EXIT_OK
    digests = {}
    for name in ("train", "test"):
        with open(f"{out}/explanations_{name}.jsonl", "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    assert digests == {
        "train": "7dd56039cba7a7c2e4c9e5f4b45409a8fee8d7e4164918183b1d5c49232c4358",
        "test": "b0c700ddb6fae912e1466d8d410d2ee47dfce62ce6a2237edc88fc3dfa4bfc16",
    }


def test_mine_with_external_predictions_scores_the_table_once(
    tmp_path, synth_dir, monkeypatch,
) -> None:
    preds = tmp_path / "p.csv"
    preds.write_text("row_id,probability\n" + "".join(
        f"{i},{0.9 if i % 3 == 0 else 0.1}\n" for i in range(120)), encoding="utf-8")
    calls = count_table_scores(monkeypatch, ExternalPredictions)
    out = str(tmp_path / "mine")
    assert run("mine", "--data", f"{synth_dir}/synth.csv", "--predictions",
               str(preds), "--n-samples", "50", "--out-dir", out) == EXIT_OK
    assert calls == [120]
    assert read_json(f"{out}/report.json")["regions"]


# --- exit codes -------------------------------------------------------------------


def test_usage_errors_exit_one(tmp_path, capsys) -> None:
    assert run() == EXIT_USAGE                             # no subcommand
    assert capsys.readouterr().err.count("\n") == 1
    assert run("frobnicate") == EXIT_USAGE                 # unknown subcommand
    assert run("synth", "--frobnicate") == EXIT_USAGE      # unknown flag
    assert run("train", "--out-dir", str(tmp_path)) == EXIT_USAGE  # missing --data
    assert run("synth", "--rows", "0",
               "--out-dir", str(tmp_path / "a")) == EXIT_USAGE     # bad value
    assert run("pipeline", "--data", "x.csv", "--split-fraction", "1.5",
               "--out-dir", str(tmp_path / "b")) == EXIT_USAGE


def test_abbreviated_flags_are_usage_errors(tmp_path, capsys, monkeypatch) -> None:
    # argparse would take --out as the --out-dir it abbreviates, and write
    # the synth files into a directory named x.csv
    monkeypatch.chdir(tmp_path)
    assert run("synth", "--seed", "7", "--rows", "50", "--out", "x.csv") == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--out" in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("config, flags, key", [
    ({"top_k": "x"}, (), "top_k"),
    ({"threshold": None}, (), "threshold"),
    ({"seed": "x"}, (), "seed"),
    ({"rounds": 2.5}, (), "rounds"),
    ({"n_samples": True}, (), "n_samples"),
    ({"l2": float("inf")}, (), "l2"),  # a non-finite value could not be echoed
    (None, ("--learning-rate", "2"), "learning_rate"),
    (None, ("--ridge-lambda", "x"), "ridge-lambda"),
])
def test_bad_values_are_one_line_usage_errors_before_any_read(
    tmp_path, capsys, config, flags, key,
) -> None:
    # pipeline reads both the fit and the LIME flags, so each flag is
    # rejected for its value, never as an argument pipeline does not take
    argv = ["pipeline", "--data", str(tmp_path / "absent.csv"), *flags,
            "--out-dir", str(tmp_path / "o")]
    if config is not None:
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(path)]
    assert run(*argv) == EXIT_USAGE  # not EXIT_DATA: the data is never read
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and key in err and "unrecognized" not in err
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize("flags, config, key", [
    (("--windows", "3,0"), None, "windows"),
    (("--lags", "0"), None, "lags"),
    ((), {"lags": [1, -2]}, "lags"),
    (("--interval", "0"), None, "interval"),
    (("--interval", str(2**63)), None, "interval"),  # the grid's int64 timestamps
])
def test_featurize_bounds_are_one_line_usage_errors_before_any_read(
    tmp_path, capsys, flags, config, key,
) -> None:
    argv = ["featurize", "--data", str(tmp_path / "absent.csv"), "--channels", "hr", *flags,
            "--out-dir", str(tmp_path / "o")]
    if config is not None:
        (tmp_path / "c.json").write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(tmp_path / "c.json")]
    assert run(*argv) == EXIT_USAGE  # not EXIT_DATA: the absent file is never read
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{key} must be at least 1" in err
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize("argv, message", [
    (("synth", "--rows", str(10**20)), "rows must be at least 1 and at most 10,000,000"),
    (("synth", "--features", str(10**20)), "features must be at least 1 and at most 10,000,000"),
    (("synth", "--rows", "5000001", "--features", "2"),
     "5000001 rows x 2 features is more than 10,000,000 cells"),
    (("pipeline", "--n-samples", str(10**20)),
     "n-samples must be at least 2 and at most 10,000,000"),
    (("pipeline", "--n-samples", str(2**63)),
     "n-samples must be at least 2 and at most 10,000,000"),
])
def test_sizes_beyond_their_bounds_are_one_line_usage_errors_before_any_read(
    tmp_path, capsys, argv, message,
) -> None:
    # each size would be allocated as an array; past its bound it is refused
    # before any file is read or written, not raised from numpy
    command, *flags = argv
    data = ("--data", str(tmp_path / "absent.csv")) if command == "pipeline" else ()
    assert run(command, *data, *flags, "--out-dir", str(tmp_path / "o")) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize("flags, config", [
    (("--jobs", "2"), None),
    (("--jobs", "0"), None),
    ((), {"jobs": 2}),
])
def test_jobs_other_than_1_are_one_line_usage_errors_before_any_read(
    tmp_path, capsys, flags, config,
) -> None:
    argv = ["mine", "--data", str(tmp_path / "absent.csv"), *flags,
            "--out-dir", str(tmp_path / "o")]
    if config is not None:
        (tmp_path / "c.json").write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(tmp_path / "c.json")]
    assert run(*argv) == EXIT_USAGE  # not EXIT_DATA: the absent file is never read
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "jobs must be 1" in err
    assert not os.path.exists(tmp_path / "o")


_TABLE_IO = {"--config", "--out-dir", "--data", "--label-column", "--id-column",
             "--categorical", "--threshold"}
_FIT = {"--rounds", "--max-depth", "--learning-rate", "--min-leaf-count", "--l2"}
_LIME = {"--seed", "--top-k", "--n-samples", "--kernel-width", "--ridge-lambda", "--jobs"}
_EVAL = _TABLE_IO | {"--model", "--predictions"}


def _subparsers() -> dict:
    parser = build_parser()
    (action,) = [a for a in parser._actions if a.dest == "command"]
    return action.choices


def test_each_subcommand_accepts_exactly_its_flags() -> None:
    flags = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
             for name, p in _subparsers().items()}
    assert flags == {
        "synth": {"--config", "--seed", "--out-dir", "--rows", "--features",
                  "--flip-rate"},
        "featurize": {"--config", "--out-dir", "--data", "--label-column", "--channels",
                      "--static-columns", "--entity-column", "--time-column",
                      "--windows", "--lags", "--interval"},
        "train": _TABLE_IO | {"--seed"} | _FIT,
        "eval": _EVAL,
        "explain": _EVAL | _LIME,
        "mine": _EVAL | _LIME | {"--min-support"},
        "pipeline": _TABLE_IO | _LIME | _FIT | {"--split-fraction", "--min-support"},
    }
    # flag/subcommand pairs, --config aside
    assert sum(len(f) - 1 for f in flags.values()) == 83


@pytest.mark.parametrize("command", [None, *COMMANDS])
def test_help_is_the_full_parsers_help(command: str | None, capsys) -> None:
    full = build_parser() if command is None else _subparsers()[command]
    argv = ["--help"] if command is None else [command, "--help"]
    assert run(*argv) == EXIT_OK
    assert capsys.readouterr().out == full.format_help()


def test_an_unknown_subcommand_lists_every_subcommand(capsys) -> None:
    assert run("frob") == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "invalid choice: 'frob'" in err
    assert all(f"'{name}'" in err for name in COMMANDS)


def test_main_without_argv_reads_sys_argv(tmp_path, monkeypatch, capsys) -> None:
    out = tmp_path / "o"
    monkeypatch.setattr("sys.argv", ["errlens", "synth", "--rows", "40",
                                     "--out-dir", str(out)])
    assert main() == EXIT_OK
    assert (out / "synth.csv").exists() and capsys.readouterr().out.startswith("synth:")
    monkeypatch.setattr("sys.argv", ["errlens", "mine", "--help"])
    assert main() == EXIT_OK
    assert capsys.readouterr().out == _subparsers()["mine"].format_help()


def test_pipeline_rejects_a_predictions_file_it_would_not_use(tmp_path, capsys) -> None:
    (tmp_path / "p.csv").write_text("row_id,probability\n0,0.5\n", encoding="utf-8")
    assert run("pipeline", "--data", str(tmp_path / "d.csv"), "--predictions",
               str(tmp_path / "p.csv"), "--out-dir", str(tmp_path / "o")) == EXIT_USAGE
    assert capsys.readouterr().err.count("\n") == 1
    assert not os.path.exists(tmp_path / "o")


def test_every_config_key_is_a_flag_and_every_flag_a_config_key() -> None:
    dests = {a.dest for p in _subparsers().values() for a in p._actions}
    keys = {opt.key for opt in OPTIONS}
    assert len(keys) == len(OPTIONS) == 31
    assert dests - {"help", "config"} == keys


def test_missing_and_malformed_inputs_exit_two(tmp_path) -> None:
    assert run("train", "--data", str(tmp_path / "absent.csv"),
               "--out-dir", str(tmp_path / "o")) == EXIT_DATA
    bad = tmp_path / "bad.csv"
    bad.write_text("x,label\noops,0\n", encoding="utf-8")
    assert run("train", "--data", str(bad),
               "--out-dir", str(tmp_path / "o2")) == EXIT_DATA


_TABLE = b"x,label\n1.0,0\n2.0,1\n"


@pytest.mark.parametrize("files, argv", [
    pytest.param({"s.csv": b"entity_id,timestamp_s,hr,label\na,0,1.0,1\na,300\n"},
                 ["featurize", "--data", "s.csv", "--channels", "hr"], id="short_series_row"),
    pytest.param({"d.csv": b"x,label\n\xff,0\n"}, ["train", "--data", "d.csv"],
                 id="non_utf8_data"),
    pytest.param({"d.csv": _TABLE, "p.csv": b"row_id,probability\n0,\xff\n1,0.5\n"},
                 ["eval", "--data", "d.csv", "--predictions", "p.csv"],
                 id="non_utf8_predictions"),
    pytest.param({"d.csv": _TABLE, "c.json": b'{"seed": "\xff"}'},
                 ["train", "--data", "d.csv", "--config", "c.json"], id="non_utf8_config"),
    pytest.param({"d.csv": _TABLE, "m.json": b'{"kind": "\xff"}'},
                 ["eval", "--data", "d.csv", "--model", "m.json"], id="non_utf8_model"),
    pytest.param({"d.csv": b"f0,f0,label\n1.0,2.0,0\n"}, ["train", "--data", "d.csv"],
                 id="repeated_header_name"),
    pytest.param({"d.csv": _TABLE}, ["train", "--data", "d.csv", "--categorical", "nope"],
                 id="unknown_categorical_name"),
    pytest.param({"d.csv": _TABLE, "c.json": b'{"rounds": 1, "rounds": 3}'},
                 ["train", "--data", "d.csv", "--config", "c.json"], id="repeated_config_key"),
])
def test_malformed_input_files_are_one_line_data_errors(tmp_path, capsys, files, argv) -> None:
    for name, content in files.items():
        (tmp_path / name).write_bytes(content)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    assert run(*argv, "--out-dir", str(tmp_path / "o")) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("errlens: data error: ")


def test_csv_row_errors_name_their_file(tmp_path, capsys) -> None:
    (tmp_path / "d.csv").write_bytes(_TABLE)
    (tmp_path / "p.csv").write_bytes(b"row_id,probability\n0,0.5\n1\n")
    assert run("eval", "--data", str(tmp_path / "d.csv"), "--predictions",
               str(tmp_path / "p.csv"), "--out-dir", str(tmp_path / "o")) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "p.csv: row 1: expected 2 cells" in err

    # the cell, label and row-id checks of the table, series and prediction readers
    predict = ["eval", "--data", str(tmp_path / "d.csv"), "--predictions"]
    for name, content, argv, message in [
            ("cell.csv", b"x,label\n1.0,0\noops,1\n", ["train", "--data"],
             "cell.csv: row 1, column 'x': 'oops'"),
            ("label.csv", b"x,label\n1.0,0\n2.0,7\n", ["train", "--data"],
             "label.csv: row 1: '7'"),
            ("ids.csv", b"rid,x,label\na,1.0,0\nb,2.0,1\na,3.0,1\n",
             ["train", "--id-column", "rid", "--data"],
             "ids.csv: row 2: row id 'a' repeats row 0"),
            ("series.csv", b"entity_id,timestamp_s,hr,label\ne,0,60,0\ne,60,fast,0\n",
             ["featurize", "--channels", "hr", "--data"],
             "series.csv: row 1, column 'hr': 'fast'"),
            ("series_label.csv", b"entity_id,timestamp_s,hr,label\ne,0,60,2\n",
             ["featurize", "--channels", "hr", "--data"], "series_label.csv: row 0: '2'"),
            ("series_conflict.csv", b"entity_id,timestamp_s,hr,label\na,0,1,1\na,300,2,0\n",
             ["featurize", "--channels", "hr", "--data"],
             "series_conflict.csv: entity 'a' has conflicting labels"),
            ("twice.csv", b"row_id,probability\n0,0.5\n0,0.6\n1,0.5\n", predict,
             "twice.csv: row id '0' repeats"),
            ("short.csv", b"row_id,probability\n0,0.5\n", predict,
             "short.csv: no probability for row id '1'"),
            ("range.csv", b"row_id,probability\n0,1.5\n1,0.5\n", predict,
             "range.csv: row id '0': '1.5' is not a probability within [0, 1]")]:
        (tmp_path / name).write_bytes(content)
        assert run(*argv, str(tmp_path / name),
                   "--out-dir", str(tmp_path / "o")) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err


def test_singular_surrogate_systems_exit_three(tmp_path, capsys) -> None:
    # A constant feature makes its similarity column identical to the
    # intercept column, so an unregularized surrogate solve cannot proceed.
    data = tmp_path / "d.csv"
    data.write_text(
        "const,x,label\n" + "\n".join(f"5.0,{i}.0,0" for i in range(6)) + "\n",
        encoding="utf-8",
    )
    preds = tmp_path / "p.csv"
    preds.write_text(
        "row_id,probability\n" + "\n".join(f"{i},0.9" for i in range(6)) + "\n",
        encoding="utf-8",
    )
    code = run("explain", "--data", str(data), "--predictions", str(preds),
               "--ridge-lambda", "0", "--n-samples", "50",
               "--out-dir", str(tmp_path / "o"))
    assert code == EXIT_NUMERICAL
    # it names the feature, the first row it holds for, and the cure
    err = capsys.readouterr().err
    assert "feature 'const'" in err and "row '0'" in err and "--ridge-lambda" in err
