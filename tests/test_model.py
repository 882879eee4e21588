"""Boosted-tree training, prediction, metrics, and external predictions."""

from __future__ import annotations

import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from conftest import BAD_PREDICTOR_OUTPUTS, make_table, random_table
from errlens import (
    ExternalPredictions,
    FunctionPredictor,
    GbdtModel,
    GbdtParams,
    Metrics,
    find_misclassified,
    load_external_predictions,
    train_gbdt,
)
from errlens.errors import (
    DataError,
    DuplicateRowId,
    EmptyTable,
    MissingColumn,
    MissingRowId,
    ProbabilityOutOfRange,
    SchemaMismatch,
)
from errlens.serialize import canonical_json


def sigmoid(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


# --- training on tiny frozen datasets -------------------------------------------


def test_single_stump_splits_at_the_separating_midpoint() -> None:
    table = make_table([[1.0, 2.0, 3.0, 4.0]], [0, 0, 1, 1])
    model = train_gbdt(table, GbdtParams(rounds=1, max_depth=1,
                                         min_leaf_count=1, l2=1.0))
    # base rate 0.5 -> base score 0, g = +-0.5, h = 0.25 per row;
    # the only clean cut is between 2 and 3, leaves -G/(H + l2) = -+2/3
    assert model.base_score == 0.0
    root, left, right = model.trees[0].to_json_obj()
    assert root == {"feature": 0, "threshold": 2.5, "left": 1, "right": 2}
    assert left["leaf"] == pytest.approx(-2.0 / 3.0)
    assert right["leaf"] == pytest.approx(2.0 / 3.0)

    probs = model.predict_table(table)
    lr = model.params.learning_rate
    assert probs[0] == pytest.approx(sigmoid(-lr * 2.0 / 3.0))
    assert probs[3] == pytest.approx(sigmoid(lr * 2.0 / 3.0))


def test_min_leaf_count_blocks_the_only_available_split() -> None:
    table = make_table([[1.0, 2.0, 3.0, 4.0]], [0, 0, 1, 1])
    model = train_gbdt(table, GbdtParams(rounds=1, max_depth=1,
                                         min_leaf_count=3, l2=1.0))
    assert model.trees[0].to_json_obj() == [{"leaf": 0.0}]
    assert np.all(model.predict_table(table) == 0.5)


def test_categorical_split_sends_matching_rows_left() -> None:
    table = make_table(
        [["a", "a", "b", "b", "b", "a"]], [1, 1, 0, 0, 0, 1],
        kinds=["categorical"], names=["color"],
    )
    model = train_gbdt(table, GbdtParams(rounds=1, max_depth=1,
                                         min_leaf_count=1, l2=1.0))
    root = model.trees[0].to_json_obj()[0]
    assert root["feature"] == 0 and "category" in root
    probs = model.predict_table(table)
    assert np.all(probs[[0, 1, 5]] > 0.5)
    assert np.all(probs[[2, 3, 4]] < 0.5)


def test_base_score_is_the_clipped_log_odds_of_the_base_rate() -> None:
    table = make_table([[1.0, 2.0, 3.0, 4.0]], [0, 1, 1, 1])
    model = train_gbdt(table, GbdtParams(rounds=0))
    assert model.base_score == pytest.approx(math.log(0.75 / 0.25))
    assert np.all(model.predict_table(table) == pytest.approx(0.75))

    ones = make_table([[1.0, 2.0]], [1, 1])
    model = train_gbdt(ones, GbdtParams(rounds=5))
    assert model.base_score == pytest.approx(math.log((1 - 1e-6) / 1e-6))
    assert np.all(model.predict_table(ones) > 0.99)


def test_zero_rounds_yields_constant_predictions_and_one_loss_entry() -> None:
    table = make_table([[1.0, 2.0, 3.0]], [0, 1, 0])
    model = train_gbdt(table, GbdtParams(rounds=0))
    assert model.trees == ()
    assert len(model.train_loss) == 1
    assert np.all(model.predict_table(table) == pytest.approx(1.0 / 3.0))


def test_loss_curve_has_one_entry_per_round_and_improves() -> None:
    rng = np.random.default_rng(11)
    table = random_table(rng, 120, 3)
    model = train_gbdt(table, GbdtParams(rounds=12))
    assert len(model.train_loss) == 13
    assert model.train_loss[-1] <= model.train_loss[0]


def test_training_rejects_empty_tables_and_bad_params() -> None:
    with pytest.raises(EmptyTable):
        train_gbdt(make_table([[1.0]], [0]).subset([]))
    for bad in (dict(rounds=-1), dict(max_depth=0), dict(min_leaf_count=0),
                dict(l2=-0.1), dict(learning_rate=0.0), dict(learning_rate=1.5)):
        with pytest.raises(DataError):
            GbdtParams(**bad)


# --- prediction ----------------------------------------------------------------


def walk_tree(nodes: list[dict], row: tuple[float | str, ...]) -> float:
    """Independent per-row tree evaluation used as an oracle."""
    node = nodes[0]
    while "leaf" not in node:
        value = row[node["feature"]]
        if "category" in node:
            go_left = value == node["category"]
        else:
            go_left = value <= node["threshold"]
        node = nodes[node["left"] if go_left else node["right"]]
    return node["leaf"]


def test_vectorized_predictions_match_per_row_tree_walks() -> None:
    rng = np.random.default_rng(5)
    n = 150
    table = make_table(
        [
            rng.normal(size=n).tolist(),
            rng.integers(0, 4, size=n).astype(float).tolist(),
            rng.choice(["u", "v", "w"], size=n).tolist(),
        ],
        rng.integers(0, 2, size=n).tolist(),
        kinds=["continuous", "continuous", "categorical"],
    )
    model = train_gbdt(table, GbdtParams(rounds=10, max_depth=3))
    trees = [t.to_json_obj() for t in model.trees]
    lr = model.params.learning_rate
    expected = np.asarray([
        sigmoid(model.base_score
                + lr * sum(walk_tree(t, table.row_values(i)) for t in trees))
        for i in range(n)
    ])
    assert np.max(np.abs(model.predict_table(table) - expected)) < 1e-12


def reference_probs(model: GbdtModel, columns) -> np.ndarray:
    """Per-row tree walks, accumulated tree by tree in ensemble order."""
    lr = model.params.learning_rate
    raw = np.full(len(columns[0]), model.base_score)
    for tree in model.to_json_obj()["trees"]:
        raw += lr * np.asarray([walk_tree(tree, row) for row in zip(*columns)],
                               dtype=np.float64)
    return np.clip(expit(raw), 1e-12, 1.0 - 1e-12)


def mixed_model_and_rows() -> tuple[GbdtModel, list[np.ndarray]]:
    """A model on continuous + categorical columns, and fresh rows to score
    that include a category it never saw."""
    rng = np.random.default_rng(2306)
    n = 300
    x0 = rng.normal(size=n)
    x1 = rng.integers(0, 5, size=n).astype(float)
    c = rng.choice(["high", "low", "mid"], size=n)
    y = ((x0 + (c == "high") - 0.2 * x1 > 0.1) ^ (rng.random(n) < 0.1)).astype(int)
    table = make_table([x0.tolist(), x1.tolist(), c.tolist()], y.tolist(),
                       kinds=["continuous", "continuous", "categorical"])
    model = train_gbdt(table, GbdtParams(rounds=25, max_depth=4, min_leaf_count=3))
    m = 500
    rows = [rng.normal(size=m), rng.integers(-1, 7, size=m).astype(float),
            rng.choice(["high", "low", "mid", "unseen"], size=m)]
    return model, rows


def test_predictions_are_bit_identical_to_per_row_walks_on_mixed_columns() -> None:
    model, rows = mixed_model_and_rows()
    assert any("category" in node for tree in model.to_json_obj()["trees"]
               for node in tree)
    assert "unseen" in rows[2]
    assert np.array_equal(model.predict_rows(model.schema, rows),
                          reference_probs(model, rows))


def test_predictions_are_bit_identical_on_trees_of_unequal_depth() -> None:
    model, _ = mixed_model_and_rows()
    obj = model.to_json_obj()
    obj["trees"] = [
        [{"leaf": 0.25}],
        [{"feature": 2, "category": "mid", "left": 1, "right": 2},
         {"leaf": -0.5},
         {"feature": 0, "threshold": 0.0, "left": 3, "right": 4},
         {"leaf": 1.0 / 3.0},
         {"feature": 1, "threshold": 2.5, "left": 5, "right": 6},
         {"leaf": 0.7},
         {"leaf": -0.1}],
        [{"feature": 0, "threshold": -1.0, "left": 1, "right": 2},
         {"leaf": 0.3}, {"leaf": -0.3}],
    ]
    hand = GbdtModel.from_json_obj(obj)
    rows = [np.asarray([-2.0, 0.0, 0.0, 1.0, 1.0, np.inf]),
            np.asarray([0.0, 2.5, 3.0, 2.0, 9.0, 1.0]),
            np.asarray(["mid", "low", "high", "unseen", "", "mid"])]
    assert np.array_equal(hand.predict_rows(hand.schema, rows),
                          reference_probs(hand, rows))


def test_zero_rounds_and_zero_rows_predict_exactly() -> None:
    model, rows = mixed_model_and_rows()
    bare = train_gbdt(make_table([[1.0, 2.0, 3.0]], [0, 1, 1]), GbdtParams(rounds=0))
    one = [np.asarray([5.0, -5.0])]
    assert np.array_equal(bare.predict_rows(bare.schema, one),
                          reference_probs(bare, one))
    empty = [col[:0] for col in rows]
    out = model.predict_rows(model.schema, empty)
    assert out.shape == (0,) and out.dtype == np.float64


# Digests of mixed_model_and_rows()'s canonical model JSON and of its
# predict_rows output, recorded from the per-node-argsort trainer and the
# level-by-level router that preceded the presorted trainer and the compiled
# node tables.
PINNED_MODEL_SHA256 = "400823f2a38407f0bb67c7ca95776f7eaf59c702d78275aa401113e6f188ac78"
PINNED_PREDICTIONS_SHA256 = "ac2f64791e5a3d86b89557417c782b1cb0cec5c4249284dca592d0ad8ddefb8f"


def test_model_json_and_predictions_match_the_pinned_digests() -> None:
    model, rows = mixed_model_and_rows()
    text = canonical_json(model.to_json_obj())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PINNED_MODEL_SHA256
    probs = model.predict_rows(model.schema, rows)
    digest = hashlib.sha256(probs.astype("<f8").tobytes()).hexdigest()
    assert digest == PINNED_PREDICTIONS_SHA256


def test_model_round_trips_through_json_with_identical_predictions(tmp_path) -> None:
    rng = np.random.default_rng(9)
    table = random_table(rng, 80, 3)
    model = train_gbdt(table, GbdtParams(rounds=8, max_depth=3))
    path = str(tmp_path / "model.json")
    model.save(path)
    loaded = GbdtModel.load(path)
    assert loaded.params == model.params
    assert loaded.train_loss == model.train_loss
    assert np.array_equal(loaded.predict_table(table), model.predict_table(table))


STUMP = [{"feature": 0, "threshold": 0.5, "left": 1, "right": 2},
         {"leaf": -0.5}, {"leaf": 0.5}]


@pytest.mark.parametrize("tree", [
    [],
    [{**STUMP[0], "left": 3}, *STUMP[1:]],
    [{**STUMP[0], "left": 0}, *STUMP[1:]],
    [{**STUMP[0], "feature": 1}, *STUMP[1:]],
    [{"feature": 0, "category": "a", "left": 1, "right": 2}, *STUMP[1:]],
    [STUMP[0], {**STUMP[0], "left": 0}, STUMP[2]],
], ids=["empty", "child_out_of_range", "self_child", "kind_mismatch",
        "category_on_continuous", "cycle"])
def test_malformed_model_trees_are_data_errors(tree: list[dict]) -> None:
    model = train_gbdt(make_table([[1.0, 2.0], ["a", "b"]], [0, 1],
                                  kinds=["continuous", "categorical"]),
                       GbdtParams(rounds=0))
    obj = {**model.to_json_obj(), "trees": [tree]}
    with pytest.raises(DataError):
        GbdtModel.from_json_obj(obj)


def test_predictions_demand_the_training_schema() -> None:
    table = make_table([[1.0, 2.0]], [0, 1])
    other = make_table([[1.0, 2.0]], [0, 1], names=["g0"])
    model = train_gbdt(table, GbdtParams(rounds=1))
    with pytest.raises(SchemaMismatch):
        model.predict_table(other)


# --- metrics ---------------------------------------------------------------------


def predictor_returning(values: list[float], table) -> FunctionPredictor:
    probs = np.asarray(values)
    return FunctionPredictor(table.schema, lambda cols: probs[: len(cols[0])])


def test_confusion_counts_match_hand_checks() -> None:
    table = make_table([[0.0] * 4], [1, 1, 1, 1], row_ids=list("abcd"))
    metrics = find_misclassified(
        predictor_returning([0.9, 0.8, 0.6, 0.1], table), table).metrics
    assert (metrics.tp, metrics.fp, metrics.tn, metrics.fn) == (3, 0, 0, 1)
    assert metrics.recall == 0.75
    assert metrics.accuracy == 0.75
    assert metrics.error_rate == 0.25


def test_probability_at_the_threshold_counts_as_positive() -> None:
    table = make_table([[0.0]], [0])
    metrics = find_misclassified(predictor_returning([0.5], table), table,
                                 threshold=0.5).metrics
    assert (metrics.tp, metrics.fp, metrics.tn, metrics.fn) == (0, 1, 0, 0)


@pytest.mark.parametrize("bad", sorted(BAD_PREDICTOR_OUTPUTS))
def test_evaluate_rejects_outputs_that_are_not_probabilities(bad: str) -> None:
    table = make_table([np.linspace(0.0, 1.0, 10).tolist()], [0, 1] * 5)
    predictor = FunctionPredictor(table.schema, BAD_PREDICTOR_OUTPUTS[bad])
    with pytest.raises(DataError, match="predictor"):
        find_misclassified(predictor, table).metrics


def test_undefined_rates_degrade_to_zero() -> None:
    no_positives = Metrics(tp=0, fp=0, tn=5, fn=0, threshold=0.5)
    assert no_positives.recall == 0.0
    assert no_positives.precision == 0.0
    assert no_positives.accuracy == 1.0
    assert no_positives.error_rate == 0.0


def test_metrics_json_carries_counts_and_derived_rates() -> None:
    obj = Metrics(tp=2, fp=1, tn=6, fn=1, threshold=0.4).to_json_obj()
    assert obj["n"] == 10
    assert obj["recall"] == pytest.approx(2 / 3)
    assert obj["precision"] == pytest.approx(2 / 3)
    assert obj["error_rate"] == pytest.approx(0.2)
    assert obj["threshold"] == 0.4


# --- external predictions ---------------------------------------------------------


def test_external_predictions_answer_tables_by_exact_row_id(tmp_path) -> None:
    table = make_table([[1.0, 2.0, 3.0]], [0, 1, 1], row_ids=["a", "b", "c"])
    path = tmp_path / "p.csv"
    path.write_text("row_id,probability\na,0.1\nb,0.9\nc,0.4\n", encoding="utf-8")
    preds = load_external_predictions(str(path), table)
    assert preds.predict_table(table).tolist() == [0.1, 0.9, 0.4]
    metrics = find_misclassified(preds, table).metrics
    assert metrics.error_rate == pytest.approx(1 / 3)


def test_external_predictions_answer_bare_rows_by_nearest_reference() -> None:
    table = make_table(
        [[0.0, 10.0], ["x", "y"]], [0, 1],
        kinds=["continuous", "categorical"], row_ids=["a", "b"],
    )
    ext = ExternalPredictions({"a": 0.2, "b": 0.8}, table)
    columns = [np.asarray([1.0, 9.0, 5.0]), np.asarray(["x", "y", "x"])]
    out = ext.predict_rows(table.schema, columns)
    # rows 0/1 sit next to a/b; the midpoint row ties on distance only if the
    # categorical side also tied, so "x" pulls it to a
    assert out.tolist() == [0.2, 0.8, 0.2]


def test_external_predictions_break_distance_ties_toward_the_first_row() -> None:
    table = make_table([[0.0, 2.0]], [0, 1], row_ids=["a", "b"])
    ext = ExternalPredictions({"a": 0.1, "b": 0.9}, table)
    out = ext.predict_rows(table.schema, [np.asarray([1.0])])
    assert out.tolist() == [0.1]


def test_external_prediction_files_are_strictly_validated(tmp_path) -> None:
    table = make_table([[1.0, 2.0]], [0, 1], row_ids=["a", "b"])
    path = tmp_path / "p.csv"

    path.write_text("row_id,probability\na,0.5\n", encoding="utf-8")
    with pytest.raises(MissingRowId):
        load_external_predictions(str(path), table)

    path.write_text("row_id,probability\na,0.5\na,0.6\nb,0.5\n", encoding="utf-8")
    with pytest.raises(DuplicateRowId):
        load_external_predictions(str(path), table)

    path.write_text("row_id,probability\na,1.5\nb,0.5\n", encoding="utf-8")
    with pytest.raises(ProbabilityOutOfRange):
        load_external_predictions(str(path), table)

    path.write_text("id,prob\na,0.5\nb,0.5\n", encoding="utf-8")
    with pytest.raises(MissingColumn):
        load_external_predictions(str(path), table)


# --- external predictions: bare rows ------------------------------------------------


def scan_answers(ext: ExternalPredictions, columns) -> np.ndarray:
    """Bare-row answers by a full scan over the reference, in the arithmetic of
    the original brute-force predictor (kept here as the reference)."""
    reference = ext.reference
    scale = []
    for spec, col in zip(reference.schema, reference.columns):
        if spec.kind == "continuous":
            sd = float(col.std())
            scale.append(sd if sd > 0 else 1.0)
        else:
            scale.append(None)
    n = len(columns[0])
    out = np.empty(n)
    ref_cols = reference.columns
    block = max(1, 2_000_000 // max(1, reference.n_rows))
    for start in range(0, n, block):
        stop = min(n, start + block)
        d2 = np.zeros((stop - start, reference.n_rows))
        for j, spec in enumerate(reference.schema):
            if spec.kind == "continuous":
                diff = (columns[j][start:stop, None] - ref_cols[j][None, :])
                d2 += (diff / scale[j]) ** 2
            else:
                d2 += columns[j][start:stop, None] != ref_cols[j][None, :]
        out[start:stop] = ext._ref_probs[np.argmin(d2, axis=1)]
    return out


def external_on(ref_columns, kinds, probs=None) -> ExternalPredictions:
    n_ref = len(ref_columns[0])
    table = make_table(ref_columns, [0] * n_ref, kinds=kinds)
    if probs is None:
        probs = [(i + 1) / (n_ref + 1) for i in range(n_ref)]
    return ExternalPredictions(dict(zip(table.row_ids, probs)), table)


def bare(columns, kinds) -> list[np.ndarray]:
    return [np.asarray(col, dtype=(str if kind == "categorical" else np.float64))
            for col, kind in zip(columns, kinds)]


_CONT, _CAT = "continuous", "categorical"
_RNG = np.random.default_rng(11)
_ANGLES = _RNG.uniform(0.0, 2.0 * np.pi, size=40)
_SPREAD = _RNG.uniform(-1.5, 1.5, size=20)

# name -> (reference columns, kinds, reference probabilities or None, rows)
BARE_ROW_CASES = {
    "duplicate_reference_rows": (  # more rows than one k-d tree leaf holds
        [[0.0, 1.0, 1.0, 2.0, 1.0, 0.0] * 8, ["a", "b", "b", "a", "b", "a"] * 8],
        [_CONT, _CAT], _RNG.uniform(size=48).tolist(),
        [[0.0, 1.0, 1.1, 0.9, 2.0, 0.5], ["a", "b", "b", "b", "a", "a"]]),
    "exact_midpoint_ties": (
        [[0.0, 2.0, 4.0, 6.0], [0.0, 0.0, 2.0, 2.0]], [_CONT, _CONT], None,
        [[1.0, 3.0, 5.0, 2.0, 4.0], [0.0, 1.0, 2.0, 1.0, 1.0]]),
    "unseen_query_category": (
        [[0.0, 1.0, 2.0, 3.0], ["a", "b", "a", "c"]], [_CONT, _CAT], None,
        [[0.1, 1.9, 3.0, 2.5], ["z", "zz", "c", "z"]]),
    "all_categorical": (
        [_RNG.choice(list("ab"), size=40).tolist(), _RNG.choice(list("xy"), size=40).tolist(),
         _RNG.choice(list("pq"), size=40).tolist()],
        [_CAT, _CAT, _CAT], None,
        [list(col) for col in zip(*itertools.product("abz", "xy", "pq"))]),
    "zero_std_column": (
        [[5.0] * 6, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]], [_CONT, _CONT], None,
        [[5.0, 4.0, 7.0, 5.0], [0.2, 2.6, 4.9, 2.5]]),
    "one_row_reference": (
        [[3.0], ["a"]], [_CONT, _CAT], [0.7], [[0.0, 3.0, 100.0], ["a", "b", "a"]]),
    "zero_row_query": (
        [[0.0, 1.0, 2.0, 3.0]], [_CONT], None, [[]]),
    # unit spread around 1e8, the same in both columns so that their scales
    # agree to about 1e-6, plus a ring of reference rows 1e5 units in the last
    # place of 1e8 from (1e8, 1e8) and query rows near its centre: their
    # squared distances differ by about 1e-5 of themselves, which the tree's
    # rounded coordinates cannot resolve
    "values_near_1e8_with_unit_spread": (
        [(1e8 + np.concatenate([_SPREAD, 2.0 ** -26 * np.round(1e5 * ring(_ANGLES))])).tolist()
         for ring in (np.cos, np.sin)], [_CONT, _CONT], None,
        [(1e8 + np.concatenate([_RNG.uniform(-1.5, 1.5, size=50),
                                2.0 ** -26 * _RNG.integers(-50, 50, size=100)])).tolist()
         for _ in range(2)]),
}


@pytest.mark.parametrize("case", sorted(BARE_ROW_CASES))
def test_bare_rows_get_the_answer_of_a_full_scan(case: str) -> None:
    ref_columns, kinds, probs, rows = BARE_ROW_CASES[case]
    ext = external_on(ref_columns, kinds, probs)
    columns = bare(rows, kinds)
    out = ext.predict_rows(ext.reference.schema, columns)
    assert out.dtype == np.float64
    assert np.array_equal(out, scan_answers(ext, columns))


_GRID = st.integers(-3, 3).map(float)  # a coarse grid makes exact ties common
_WIDE = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def reference_and_rows(draw):
    kinds = draw(st.lists(st.sampled_from([_CONT, _CAT]), min_size=1, max_size=4))
    n_ref, n = draw(st.integers(1, 40)), draw(st.integers(0, 12))
    values = draw(st.sampled_from([_GRID, _WIDE]))
    ref_columns, columns = [], []
    for kind in kinds:
        cells = values if kind == _CONT else st.sampled_from("abc")
        ref_columns.append(draw(st.lists(cells, min_size=n_ref, max_size=n_ref)))
        cells = values if kind == _CONT else st.sampled_from("abcz")
        columns.append(draw(st.lists(cells, min_size=n, max_size=n)))
    probs = draw(st.lists(st.floats(0.0, 1.0), min_size=n_ref, max_size=n_ref))
    return ref_columns, kinds, probs, columns


@given(reference_and_rows())
@settings(max_examples=300)
def test_bare_row_answers_are_bit_identical_to_a_full_scan(drawn) -> None:
    ref_columns, kinds, probs, rows = drawn
    ext = external_on(ref_columns, kinds, probs)
    columns = bare(rows, kinds)
    assert np.array_equal(ext.predict_rows(ext.reference.schema, columns),
                          scan_answers(ext, columns))


def test_the_index_spares_distinct_rows_a_full_scan(monkeypatch) -> None:
    rng = np.random.default_rng(3)
    ext = external_on([rng.uniform(size=300).tolist() for _ in range(3)]
                      + [rng.choice(list("abcd"), size=300).tolist()],
                      [_CONT, _CONT, _CONT, _CAT])
    scanned: list[int] = []
    original = ExternalPredictions._sq_distances

    def recording(self, x, ref):
        if ref.shape[1] == self.reference.n_rows:  # every reference row at once
            scanned.append(len(x))
        return original(self, x, ref)

    monkeypatch.setattr(ExternalPredictions, "_sq_distances", recording)
    columns = [rng.uniform(size=500) for _ in range(3)] + [rng.choice(list("abcz"), size=500)]
    out = ext.predict_rows(ext.reference.schema, columns)
    assert scanned == []
    assert np.array_equal(out, scan_answers(ext, columns))

    # a row sitting on a reference row is settled by the index, unless that
    # reference row has a duplicate: two candidates then cannot rule out a third
    ext.predict_rows(ext.reference.schema, [col[:1] for col in ext.reference.columns])
    assert scanned == []
    dup = external_on([[0.0, 0.0, 1.0, 2.0]], [_CONT])
    assert dup.predict_rows(dup.reference.schema, [np.asarray([0.0, 1.9])]).tolist() == [0.2, 0.8]
    assert scanned == [1]


@pytest.mark.parametrize("columns", [
    pytest.param([np.asarray([np.nan]), np.asarray(["x"])], id="nan"),
    pytest.param([np.asarray([np.inf]), np.asarray(["x"])], id="inf"),
    pytest.param([np.asarray([1.0]), np.asarray(["x"]), np.asarray([2.0])],
                 id="extra_column"),
    pytest.param([], id="no_columns"),
    pytest.param([np.asarray([1.0, 2.0]), np.asarray(["x"])], id="ragged"),
    pytest.param([np.asarray(["one"]), np.asarray(["x"])], id="text_in_a_continuous_column"),
])
def test_external_predictions_reject_malformed_bare_rows(columns) -> None:
    table = make_table([[0.0, 10.0], ["x", "y"]], [0, 1],
                       kinds=["continuous", "categorical"])
    ext = ExternalPredictions({"0": 0.2, "1": 0.8}, table)
    with pytest.raises(DataError):
        ext.predict_rows(table.schema, columns)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the std of an empty column
def test_external_predictions_without_reference_rows_reject_bare_rows() -> None:
    table = make_table([[]], [])
    ext = ExternalPredictions({}, table)
    assert ext.predict_rows(table.schema, [np.asarray([])]).shape == (0,)
    with pytest.raises(EmptyTable):
        ext.predict_rows(table.schema, [np.asarray([1.0])])
