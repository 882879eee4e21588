"""Boosted-tree training, prediction, metrics, and external predictions."""

from __future__ import annotations

import hashlib
import json
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st
from scipy.special import expit

from conftest import BAD_PREDICTOR_OUTPUTS, make_table, random_table
from errlens import (
    ExternalPredictions,
    FeatureSpec,
    FunctionPredictor,
    GbdtModel,
    GbdtParams,
    Metrics,
    default_spec,
    find_misclassified,
    generate,
    load_external_predictions,
    split,
    train_gbdt,
    write_csv,
)
from errlens import model as model_module
from errlens.cli import EXIT_DATA
from errlens.cli import main as cli_main
from errlens.errors import (
    DataError,
    DuplicateRowId,
    EmptyTable,
    MissingColumn,
    MissingRowId,
    ProbabilityOutOfRange,
    SchemaMismatch,
)
from errlens.serialize import canonical_json, dump_json


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
    root, left, right = model.trees[0].to_json_obj(model.categories)
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
    assert model.trees[0].to_json_obj(model.categories) == [{"leaf": 0.0}]
    assert np.all(model.predict_table(table) == 0.5)


def test_categorical_split_sends_matching_rows_left() -> None:
    table = make_table(
        [["a", "a", "b", "b", "b", "a"]], [1, 1, 0, 0, 0, 1],
        kinds=["categorical"], names=["color"],
    )
    model = train_gbdt(table, GbdtParams(rounds=1, max_depth=1,
                                         min_leaf_count=1, l2=1.0))
    root = model.trees[0].to_json_obj(model.categories)[0]
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
                dict(l2=-0.1), dict(l2=math.nan), dict(learning_rate=0.0),
                dict(learning_rate=1.5)):
        with pytest.raises(DataError):
            GbdtParams(**bad)


def brute_force_trees(table, params) -> list[tuple]:
    """The histogram trainer's trees, grown node by node in plain Python.

    Each continuous column's cuts are midpoints of adjacent distinct values,
    all of them or, past 64 distinct values, the 63 at equal-count
    positions; a categorical column has a bin per category.  Per node, one
    pass over its rows sums each bin's rows, g and h in row order; then every
    cut of every feature is scanned, its left side summing bins in bin order
    as the trainer's histograms do, so equal gains tie alike.  The chosen
    cut's boolean mask splits the rows.  A tree is nested tuples: ``(feature,
    threshold or category, left, right)``, or ``("leaf", value)``.
    """
    n, lam, min_leaf = table.n_rows, params.l2, params.min_leaf_count
    y = table.labels.astype(float)
    rate = min(max(float(y.mean()), 1e-6), 1.0 - 1e-6)
    raw = np.full(n, math.log(rate / (1.0 - rate)))
    features = []  # per feature: categorical, each row's bin, each bin's split
    for spec, col in zip(table.schema, table.columns):
        values = sorted(set(col.tolist()))
        if spec.kind == "categorical":
            features.append((True, np.array([values.index(v) for v in col.tolist()]), values))
            continue
        k = len(values)
        at = range(1, k) if k <= 64 else [i * k // 64 for i in range(1, 64)]
        cuts = [(values[i - 1] + values[i]) / 2.0 for i in at]
        features.append((False, np.array([sum(c < v for c in cuts) for v in col.tolist()]),
                         cuts))
    trees = []
    for _ in range(params.rounds):
        p = np.clip(expit(raw), 1e-12, 1.0 - 1e-12)
        g, h = p - y, p * (1.0 - p)
        row_value = np.zeros(n)

        def grow(rows: np.ndarray, G: float, H: float, depth: int) -> tuple:
            best = None  # gain, feature, bin, left sums
            for j, (categorical, bins, splits) in enumerate(
                    features if depth < params.max_depth else ()):
                sums = [[0, 0.0, 0.0] for _ in range(len(splits) + (not categorical))]
                for b, gi, hi in zip(bins[rows].tolist(), g[rows].tolist(), h[rows].tolist()):
                    sums[b][0] += 1
                    sums[b][1] += gi
                    sums[b][2] += hi
                left = sums[0]
                for b, in_bin in enumerate(sums):
                    if categorical:
                        left = in_bin
                    elif b:
                        left = [left[0] + in_bin[0], left[1] + in_bin[1], left[2] + in_bin[2]]
                    CL, GL, HL = left
                    if CL < min_leaf or rows.size - CL < min_leaf:
                        continue
                    gain = 0.5 * (GL * GL / (HL + lam) + (G - GL) * (G - GL) / (H - HL + lam)
                                  - G * G / (H + lam))
                    if best is None or gain > best[0]:
                        best = (gain, j, b, GL, HL)
            if best is None or best[0] <= 0.0:
                row_value[rows] = value = -G / (H + lam)
                return ("leaf", value)
            _, j, b, GL, HL = best
            categorical, bins, splits = features[j]
            goes_left = bins[rows] == b if categorical else bins[rows] <= b
            return (j, splits[b], grow(rows[goes_left], GL, HL, depth + 1),
                    grow(rows[~goes_left], G - GL, H - HL, depth + 1))

        trees.append(grow(np.arange(n), g.sum(), h.sum(), 0))
        raw = raw + params.learning_rate * row_value
    return trees


def nested(nodes: list[dict], i: int = 0) -> tuple:
    """A model JSON tree as :func:`brute_force_trees` nests its trees."""
    node = nodes[i]
    if "leaf" in node:
        return ("leaf", node["leaf"])
    return (node["feature"], node.get("threshold", node.get("category")),
            nested(nodes, node["left"]), nested(nodes, node["right"]))


def assert_grows_the_oracles_trees(model: GbdtModel, table, params) -> None:
    """Tree structures equal exactly, leaf values to 1e-12 relative."""
    def shape(tree: tuple, leaves: list[float]) -> tuple:
        if tree[0] == "leaf":
            leaves.append(tree[1])
            return ("leaf",)
        return tree[:2] + (shape(tree[2], leaves), shape(tree[3], leaves))

    got = [nested(t) for t in model.to_json_obj()["trees"]]
    expected = brute_force_trees(table, params)
    got_leaves: list[float] = []
    expected_leaves: list[float] = []
    assert [shape(t, got_leaves) for t in got] == [shape(t, expected_leaves) for t in expected]
    assert got_leaves == pytest.approx(expected_leaves, rel=1e-12, abs=0.0)


@st.composite
def training_runs(draw):
    """A mixed table whose continuous values are few and heavily tied or
    spread out, and parameters with min_leaf_count at or near half the rows,
    where the first split is just possible or just impossible."""
    kinds = draw(st.lists(st.sampled_from(["continuous", "categorical"]),
                          min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 80))
    levels = draw(st.sampled_from([1, 2, 3, 5, 1000]))
    columns = [rng.integers(0, levels, size=n).astype(float) / 4.0 if kind == "continuous"
               else rng.choice(list("abcde")[:min(levels, 5)], size=n) for kind in kinds]
    min_leaf = draw(st.one_of(st.integers(1, 3),
                              st.sampled_from([max(1, n // 2 + d) for d in (-1, 0, 1)])))
    params = GbdtParams(rounds=draw(st.integers(1, 3)), max_depth=draw(st.integers(1, 6)),
                        min_leaf_count=min_leaf, l2=draw(st.sampled_from([0.0, 1.0])))
    table = make_table([col.tolist() for col in columns],
                       rng.integers(0, 2, size=n).tolist(), kinds=kinds)
    return table, params


@given(training_runs())
@settings(max_examples=300)
def test_the_batched_split_search_grows_the_per_node_growers_trees(drawn) -> None:
    table, params = drawn
    assert_grows_the_oracles_trees(train_gbdt(table, params), table, params)


def benchmark_sized_tables() -> dict[str, object]:
    """1500-row tables as large as the benchmark trains on: one of distinct
    uniform values, one of integer-valued (tied) columns beside a uniform one
    and a categorical one."""
    rng = np.random.default_rng(18)
    n = 1500
    uniform = [rng.uniform(size=n) for _ in range(4)]
    labels = (uniform[0] + uniform[1] + rng.uniform(size=n) > 1.5).astype(int)
    tie_free = make_table([col.tolist() for col in uniform], labels.tolist())
    tied = [rng.integers(0, 8, size=n).astype(float), rng.integers(0, 60, size=n).astype(float),
            rng.uniform(size=n), rng.choice(list("abcd"), size=n)]
    labels = ((tied[0] / 8 + tied[2] + (tied[3] == "b") + rng.uniform(size=n)) > 1.6).astype(int)
    mixed = make_table([col.tolist() for col in tied], labels.tolist(),
                       kinds=["continuous"] * 3 + ["categorical"])
    return {"tie-free": tie_free, "tied": mixed}


@pytest.mark.parametrize("max_depth", [4, 6])
@pytest.mark.parametrize("name", ["tie-free", "tied"])
def test_the_batched_split_search_grows_the_oracles_trees_at_benchmark_scale(
        name: str, max_depth: int) -> None:
    table = benchmark_sized_tables()[name]
    params = GbdtParams(rounds=20, max_depth=max_depth, min_leaf_count=3)
    model = train_gbdt(table, params)
    assert_grows_the_oracles_trees(model, table, params)
    assert max(t.leaves.size for t in model.trees) > 2 ** (max_depth - 1)  # trees grow deep


def test_every_continuous_threshold_is_a_midpoint_of_adjacent_training_values() -> None:
    # the tied table's 8- and 60-level columns keep every cut of an exact
    # search, and the uniform column's 63 cuts are midpoints too
    table = benchmark_sized_tables()["tied"]
    model = train_gbdt(table, GbdtParams(rounds=20, max_depth=6, min_leaf_count=3))
    used: dict[int, set[float]] = {}
    for tree in model.to_json_obj()["trees"]:
        for node in tree:
            if "threshold" in node:
                used.setdefault(node["feature"], set()).add(node["threshold"])
    assert sorted(used) == [0, 1, 2]
    for j, thresholds in used.items():
        values = sorted(set(table.columns[j].tolist()))
        assert thresholds <= {(a + b) / 2.0 for a, b in zip(values, values[1:])}
    assert len(used[1]) > 10  # the 60-level column splits at many of its cuts


def categorical_table() -> object:
    """A 600-row table of two categorical columns and no continuous one."""
    rng = np.random.default_rng(21)
    cats = [rng.choice([f"k{i}" for i in range(levels)], size=600) for levels in (5, 12)]
    labels = ((cats[0] == "k1") | (np.char.str_len(cats[1]) == 3)
              ^ (rng.uniform(size=600) < 0.1)).astype(int)
    return make_table([c.tolist() for c in cats], labels.tolist(),
                      kinds=["categorical", "categorical"])


def numbered_by_recursion(child: np.ndarray) -> tuple[list, list, list]:
    """A tree's leaves left to right, its split nodes in walk order, and per
    split the ``[first, end)`` numbers of its left subtree's leaves."""
    leaves: list[int] = []
    splits: list[int] = []
    spans: list[list[int]] = []

    def visit(i: int) -> None:
        left, right = child[2 * i: 2 * i + 2].tolist()
        if left == i:
            leaves.append(i)
            return
        splits.append(i)
        span = [len(leaves), 0]
        spans.append(span)
        visit(left)
        span[1] = len(leaves)
        visit(right)

    visit(0)
    return leaves, splits, spans


@pytest.mark.parametrize("max_depth", [1, 4, 6])
@pytest.mark.parametrize("name", ["tied", "categorical"])
def test_the_grower_numbers_leaves_and_splits_as_the_walk_does(name: str,
                                                               max_depth: int) -> None:
    # a trained tree and its JSON round trip are numbered alike, as a
    # recursion over the node table numbers them
    table = benchmark_sized_tables()["tied"] if name == "tied" else categorical_table()
    model = train_gbdt(table, GbdtParams(rounds=4, max_depth=max_depth, min_leaf_count=3))
    loaded = GbdtModel.from_json_obj(json.loads(canonical_json(model.to_json_obj())))
    for tree, again in zip(model.trees, loaded.trees, strict=True):
        for got, reloaded, expected in zip((tree.leaves, tree.splits, tree.left_leaves),
                                           (again.leaves, again.splits, again.left_leaves),
                                           numbered_by_recursion(tree.child)):
            assert got.dtype == reloaded.dtype == np.intp and got.shape == reloaded.shape
            assert np.array_equal(got, reloaded) and got.tolist() == expected
        assert tree.left_leaves.shape == (tree.splits.size, 2)
    assert max(t.splits.size for t in model.trees) >= max_depth  # trees grow


@pytest.mark.parametrize("l2", [0.0, 1.0])
@pytest.mark.parametrize("levels", [8, 200])
def test_the_categorical_split_search_grows_the_oracles_trees(levels: int, l2: float) -> None:
    # codes are counted per category, so a level absent from a node counts 0
    # rows: at l2 0 its gain is 0 / 0, which must neither win nor warn
    rng = np.random.default_rng(levels)
    n = 1500
    cats = [rng.choice([f"k{i}" for i in range(levels)], size=n) for _ in range(2)]
    x = rng.uniform(size=n)
    labels = ((np.char.str_len(cats[0]) % 2 + x + (cats[1] == "k3")
               + rng.uniform(size=n)) > 1.8).astype(int)
    table = make_table([c.tolist() for c in cats] + [x.tolist()], labels.tolist(),
                       kinds=["categorical", "categorical", "continuous"])
    params = GbdtParams(rounds=15, max_depth=5, min_leaf_count=3, l2=l2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = train_gbdt(table, params)
    assert_grows_the_oracles_trees(model, table, params)
    assert any(model.schema[j].kind == "categorical"
               for tree in model.trees for j in tree.feature[tree.splits].tolist())


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
    trees = [t.to_json_obj(model.categories) for t in model.trees]
    lr = model.params.learning_rate
    expected = np.asarray([
        sigmoid(model.base_score
                + lr * sum(walk_tree(t, table.row_values(i)) for t in trees))
        for i in range(n)
    ])
    assert np.max(np.abs(model.predict_table(table) - expected)) < 1e-12


def reference_raw(model: GbdtModel, columns) -> np.ndarray:
    """Per-row tree walks, accumulated tree by tree in ensemble order."""
    lr = model.params.learning_rate
    raw = np.full(len(columns[0]), model.base_score)
    for tree in model.to_json_obj()["trees"]:
        raw += lr * np.asarray([walk_tree(tree, row) for row in zip(*columns)],
                               dtype=np.float64)
    return raw


def reference_probs(model: GbdtModel, columns) -> np.ndarray:
    return np.clip(expit(reference_raw(model, columns)), 1e-12, 1.0 - 1e-12)


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


# every threshold of a model trained on integers, plus the integers themselves
_HALVES = st.integers(-14, 14).map(lambda k: k / 2.0)
# each of them, or its neighbour one ulp below or above
_NEAR_HALVES = _HALVES.flatmap(lambda h: st.sampled_from(
    [h, math.nextafter(h, -math.inf), math.nextafter(h, math.inf)]))
_CONT, _CAT = "continuous", "categorical"


@st.composite
def model_and_rows(draw):
    """A model trained with min_leaf_count 1 on random integers in [-6, 6]
    and categories "abc", rows to score that hit its thresholds exactly or
    one ulp to either side, lie at +-inf or carry an unseen category, and a
    block size for the row count to straddle."""
    kinds = draw(st.lists(st.sampled_from([_CONT, _CAT]), min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_train, n = int(rng.integers(2, 121)), draw(st.integers(0, 40))
    columns = [rng.integers(-6, 7, size=n_train).astype(float) if kind == _CONT
               else rng.choice(list("abc"), size=n_train) for kind in kinds]
    params = GbdtParams(rounds=draw(st.integers(0, 4)), max_depth=draw(st.integers(1, 6)),
                        min_leaf_count=1, l2=draw(st.sampled_from([0.0, 1.0])))
    model = train_gbdt(make_table([col.tolist() for col in columns],
                                  rng.integers(0, 2, size=n_train).tolist(), kinds=kinds),
                       params)
    rows = []
    for kind in kinds:
        cells = (st.one_of(_NEAR_HALVES, st.sampled_from([-math.inf, math.inf])) if kind == _CONT
                 else st.sampled_from("abcz"))
        rows.append(np.asarray(draw(st.lists(cells, min_size=n, max_size=n)),
                               dtype=(str if kind == _CAT else np.float64)))
    return model, rows, draw(st.integers(1, 64))


@given(model_and_rows())
@settings(max_examples=200)
def test_predictions_are_bit_identical_to_per_row_walks(drawn) -> None:
    model, rows, block = drawn
    # steer generation toward trees wider than one 16-leaf word
    target(float(max((t.leaves.size for t in model.trees), default=0)))
    with mock.patch.object(model_module, "_BLOCK", block):  # row counts straddle blocks
        out = model.predict_rows(model.schema, rows)
    assert np.array_equal(out, reference_probs(model, rows))


@given(model_and_rows(), st.integers(0, 2 ** 10))
@settings(max_examples=200)
def test_predictions_are_bit_identical_across_tree_groups(drawn, group_bytes) -> None:
    model, rows, block = drawn
    with mock.patch.object(model_module, "_GROUP_BYTES", group_bytes):
        grouped = GbdtModel(model.schema, model.base_score, model.trees, model.params,
                            model.categories)
    target(float(len(grouped._groups)))
    with mock.patch.object(model_module, "_BLOCK", block):
        out = grouped.predict_rows(model.schema, rows)
    assert np.array_equal(out, reference_probs(model, rows))


def test_a_long_ensemble_adds_its_trees_in_ensemble_order() -> None:
    rng = np.random.default_rng(23)
    model = train_gbdt(random_table(rng, 300, 3), GbdtParams(rounds=150, max_depth=3))
    assert len(model._groups) == 1
    step = model_module._BLOCK // len(model.trees)
    for n in (202, 1, step + 1):  # the last two end in a block of one row
        rows = [np.concatenate([[-np.inf, np.inf], rng.normal(size=n)])[:n] for _ in range(3)]
        x = np.stack(rows, axis=1)
        assert np.array_equal(model._raw_scores(x),
                              reference_raw(model, rows))


def test_trees_wider_than_one_word_predict_exactly() -> None:
    rng = np.random.default_rng(17)
    table = random_table(rng, 400, 2)
    model = train_gbdt(table, GbdtParams(rounds=3, max_depth=8, min_leaf_count=1))
    assert max(len(t.leaves) for t in model.trees) > 32  # three 16-leaf words
    rows = [np.concatenate([col, [-np.inf, np.inf]]) for col in
            (rng.normal(size=300), rng.normal(size=300))]
    assert np.array_equal(model.predict_rows(model.schema, rows),
                          reference_probs(model, rows))


def test_tableless_groups_and_padded_wide_words_predict_exactly() -> None:
    rng = np.random.default_rng(11)
    table = random_table(rng, 400, 2)
    # trees of a lone leaf: their group has no tables, and every row stays in leaf 0
    leaves = train_gbdt(table, GbdtParams(rounds=3, min_leaf_count=400))
    assert all(t.leaves.size == 1 for t in leaves.trees)
    assert [g.tables for g in leaves._groups] == [[]]
    deep = train_gbdt(table, GbdtParams(rounds=5, max_depth=6, min_leaf_count=1))
    (group,) = deep._groups
    assert group.words == 3 and group.n_trees * group.words == 15
    rows = [np.concatenate([col, [-np.inf, np.inf]]) for col in
            (rng.normal(size=300), rng.normal(size=300))]
    for model in (leaves, deep):
        assert np.array_equal(model.predict_rows(model.schema, rows),
                              reference_probs(model, rows))


def group_bytes(group) -> int:
    return sum(table.nbytes for _, _, table in group.tables)


def table_bytes(model: GbdtModel) -> int:
    return sum(group_bytes(group) for group in model._groups)


@pytest.fixture(scope="module")
def quick_start_train():
    table, _ = generate(default_spec(n_rows=2000, n_features=6, flip_rate=0.4, seed=7))
    return split(table, test_fraction=0.25, seed=7)[0]


@pytest.fixture(scope="module")
def long_model(quick_start_train) -> GbdtModel:
    """300 rounds of depth 10 on the quick-start training split: many groups,
    and its first 100 trees more than one.  (Trees grown from histograms
    share at most 63 thresholds per feature, so 100 of depth 8 fit one.)"""
    return train_gbdt(quick_start_train,
                      GbdtParams(rounds=300, max_depth=10, min_leaf_count=1))


def test_table_memory_grows_linearly_with_the_ensemble(quick_start_train, long_model) -> None:
    assert len(train_gbdt(quick_start_train)._groups) == 1  # the defaults: one group
    short = GbdtModel(long_model.schema, long_model.base_score, long_model.trees[:100],
                      long_model.params, long_model.categories)
    assert len(short._groups) > 1
    assert table_bytes(long_model) / table_bytes(short) <= 3.3


def test_each_tree_group_fills_its_byte_budget(long_model) -> None:
    budget, groups, trees = model_module._GROUP_BYTES, long_model._groups, long_model.trees
    assert len(groups) > 1
    start = 0
    for g, group in enumerate(groups):
        end = start + group.n_trees
        assert group_bytes(group) <= budget or group.n_trees == 1
        if g + 1 < len(groups):  # one more tree would go over
            grown = model_module._TreeGroup(trees[start:end + 1], long_model.categories,
                                            long_model.params.learning_rate)
            assert group_bytes(grown) > budget
        start = end
    assert start == len(trees)


def test_scoring_memory_stays_flat_in_the_number_of_rows() -> None:
    rng = np.random.default_rng(4)
    table = random_table(rng, 400, 6)
    model = train_gbdt(table, GbdtParams(rounds=100, max_depth=4))
    rows = [rng.normal(size=20_000) for _ in range(6)]
    tracemalloc.start()
    try:
        model.predict_rows(model.schema, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20


def test_the_probability_is_bit_identical_to_the_c_library_sigmoid() -> None:
    rng = np.random.default_rng(13)
    raw = np.concatenate([
        [0.0, -0.0, 700.0, -700.0, 745.0, -745.0, 1e-300, -1e-300, 5e-324, -5e-324,
         709.0, -709.0, 710.0, -710.0, 1e308, -1e308, np.inf, -np.inf],
        rng.normal(scale=4.0, size=400_000),
        rng.uniform(-750.0, 750.0, size=300_000),
        rng.choice([-1.0, 1.0], size=300_000) * 10.0 ** rng.uniform(-300, 3, size=300_000),
    ])
    got = model_module._probability(raw)
    oracle = np.clip(expit(raw), 1e-12, 1.0 - 1e-12)
    assert got.view(np.uint64).tolist() == oracle.view(np.uint64).tolist()
    # stdlib reference: exp(-x) past float64 range is inf, and 1 / inf is 0
    reference = np.clip([1.0 / (1.0 + (math.exp(-x) if -x < 709.0 else math.inf))
                         for x in raw.tolist()], 1e-12, 1.0 - 1e-12)
    assert got.view(np.uint64).tolist() == reference.view(np.uint64).tolist()


# Digests of mixed_model_and_rows()'s model JSON, fully indented with sorted
# keys, of its canonical_json text, and of its predict_rows output, recorded
# when trees came to be grown level by level from 64-bin histograms.
PINNED_MODEL_SHA256 = "5c78a708d6cbf1e8aa51f3ce61d1ce97e7e0c999349b2748d9c5d82a21c937aa"
PINNED_MODEL_JSON_SHA256 = "3034b0f511883c65c8cfc0c6fb13a892f1335d405f3803982c77c6c7c58f7501"
PINNED_PREDICTIONS_SHA256 = "5ca9259dd9a975f8d63d645def6f53b03c5c4dc7b33b5b9f1a5eef63a3668ab6"


def text_sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_model_json_and_predictions_match_the_pinned_digests() -> None:
    model, rows = mixed_model_and_rows()
    obj = model.to_json_obj()
    indented = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False,
                          ensure_ascii=False) + "\n"
    assert text_sha256(indented) == PINNED_MODEL_SHA256
    assert text_sha256(canonical_json(obj)) == PINNED_MODEL_JSON_SHA256
    probs = model.predict_rows(model.schema, rows)
    digest = hashlib.sha256(probs.astype("<f8").tobytes()).hexdigest()
    assert digest == PINNED_PREDICTIONS_SHA256


def test_model_round_trips_through_json_with_identical_predictions(tmp_path) -> None:
    rng = np.random.default_rng(9)
    table = random_table(rng, 80, 3)
    model = train_gbdt(table, GbdtParams(rounds=8, max_depth=3))
    path = str(tmp_path / "model.json")
    dump_json(model.to_json_obj(), path)
    loaded = GbdtModel.load(path)
    assert loaded.params == model.params
    assert loaded.train_loss == model.train_loss
    assert np.array_equal(loaded.predict_table(table), model.predict_table(table))


def test_a_fully_indented_model_file_loads_as_before(tmp_path) -> None:
    # model files written before artifacts were indented two levels deep
    model, rows = mixed_model_and_rows()
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model.to_json_obj(), sort_keys=True, indent=2), encoding="utf-8")
    loaded = GbdtModel.load(str(path))
    assert loaded.to_json_obj() == model.to_json_obj()
    assert np.array_equal(loaded.predict_rows(loaded.schema, rows),
                          model.predict_rows(model.schema, rows))


STUMP = [{"feature": 0, "threshold": 0.5, "left": 1, "right": 2},
         {"leaf": -0.5}, {"leaf": 0.5}]


@pytest.mark.parametrize("tree", [
    [],
    [{**STUMP[0], "left": 3}, *STUMP[1:]],
    [{**STUMP[0], "left": 0}, *STUMP[1:]],
    [{**STUMP[0], "feature": 1}, *STUMP[1:]],
    [{"feature": 0, "category": "a", "left": 1, "right": 2}, *STUMP[1:]],
    [STUMP[0], {**STUMP[0], "left": 0}, STUMP[2]],
    [{**STUMP[0], "right": 3}, {**STUMP[0], "left": 3, "right": 2}, STUMP[2], STUMP[1]],
    [{**STUMP[0], "threshold": math.nan}, *STUMP[1:]],
], ids=["empty", "child_out_of_range", "self_child", "kind_mismatch",
        "category_on_continuous", "cycle", "shared_child", "nan_threshold"])
def test_malformed_model_trees_are_data_errors(tree: list[dict]) -> None:
    model = train_gbdt(make_table([[1.0, 2.0], ["a", "b"]], [0, 1],
                                  kinds=["continuous", "categorical"]),
                       GbdtParams(rounds=0))
    obj = {**model.to_json_obj(), "trees": [tree]}
    with pytest.raises(DataError):
        GbdtModel.from_json_obj(obj)


def _stump(**node) -> list[dict]:
    return [{**STUMP[0], **node}, *STUMP[1:]]


@pytest.mark.parametrize("edit", [
    pytest.param({"kind": "forest"}, id="kind"),
    pytest.param({"trees": [_stump(feature=0.7)]}, id="float_feature"),
    pytest.param({"trees": [_stump(left=1.2)]}, id="float_left"),
    pytest.param({"trees": [_stump(left=True)]}, id="bool_left"),
    pytest.param({"trees": [_stump(threshold="0.5")]}, id="string_threshold"),
    pytest.param({"trees": [[STUMP[0], {"leaf": "1"}, STUMP[2]]]}, id="string_leaf"),
    pytest.param({"trees": [[STUMP[0], {"leaf": True}, STUMP[2]]]}, id="bool_leaf"),
    pytest.param({"trees": [_stump(feature=1, threshold=None, category=5)]},
                 id="number_category"),
    pytest.param({"base_score": "0.5"}, id="string_base_score"),
    pytest.param({"train_loss": ["1", True]}, id="string_and_bool_losses"),
    pytest.param({"train_loss": [True]}, id="bool_loss"),
    pytest.param({"params": {"rounds": 1.5}}, id="float_rounds"),
    pytest.param({"params": {"max_depth": True}}, id="bool_max_depth"),
    pytest.param({"params": {"l2": True}}, id="bool_l2"),
])
def test_model_fields_of_the_wrong_json_type_are_data_errors(tmp_path, edit: dict) -> None:
    table = make_table([[1.0, 2.0], ["a", "b"]], [0, 1], kinds=["continuous", "categorical"])
    obj = {**train_gbdt(table, GbdtParams(rounds=0)).to_json_obj(), "trees": [STUMP]}
    GbdtModel.from_json_obj(obj)  # well-formed before the edit
    bad = {**obj, **edit}
    with pytest.raises(DataError):
        GbdtModel.from_json_obj(bad)
    write_csv(table, str(tmp_path / "t.csv"))
    dump_json(bad, str(tmp_path / "model.json"))
    assert cli_main(["eval", "--data", str(tmp_path / "t.csv"), "--categorical", "f1",
                     "--model", str(tmp_path / "model.json"),
                     "--out-dir", str(tmp_path / "o")]) == EXIT_DATA


@pytest.mark.parametrize("key", ["left", "right", "feature"])
def test_a_node_index_beyond_64_bits_is_a_data_error_naming_it(tmp_path, key: str) -> None:
    table = make_table([[1.0, 2.0]], [0, 1])
    bad = {**train_gbdt(table, GbdtParams(rounds=0)).to_json_obj(),
           "trees": [_stump(**{key: 2**63})]}
    with pytest.raises(DataError, match=f"node 0: {key} 9223372036854775808 does not fit"):
        GbdtModel.from_json_obj(bad)
    write_csv(table, str(tmp_path / "t.csv"))
    dump_json(bad, str(tmp_path / "model.json"))
    assert cli_main(["eval", "--data", str(tmp_path / "t.csv"), "--model",
                     str(tmp_path / "model.json"), "--out-dir", str(tmp_path / "o")]) == EXIT_DATA


@pytest.mark.parametrize("categories", [
    pytest.param((None,), id="too_short"),
    pytest.param((None, np.asarray(["a", "b"]), None), id="too_long"),
    pytest.param((np.asarray(["a"]), np.asarray(["a", "b"])), id="categories_on_continuous"),
    pytest.param((None, None), id="none_on_categorical"),
])
def test_a_model_needs_one_category_coding_entry_per_feature(categories) -> None:
    model = train_gbdt(make_table([[1.0, 2.0], ["a", "b"]], [0, 1],
                                  kinds=["continuous", "categorical"]),
                       GbdtParams(rounds=1, max_depth=1, min_leaf_count=1))
    GbdtModel(model.schema, model.base_score, model.trees, model.params, model.categories)
    with pytest.raises(DataError):
        GbdtModel(model.schema, model.base_score, model.trees, model.params, categories)


@pytest.mark.parametrize("feature, cut, child, value", [
    pytest.param([], [], [], [], id="no_nodes"),
    pytest.param([0, 0, 0], [0.5, 0.0, 0.0], [1, 2, 1, 1], [0.0, -1.0, 1.0],
                 id="child_array_too_short"),
    pytest.param([0, 0, 0], [0.5, 0.0, 0.0], [1, 7, 1, 1, 2, 2], [0.0, -1.0, 1.0],
                 id="child_out_of_range"),
    pytest.param([0, 0], [0.5, 0.0, 0.0], [1, 2, 1, 1, 2, 2], [0.0, -1.0, 1.0],
                 id="feature_array_too_short"),
])
def test_trees_reject_malformed_node_tables(feature, cut, child, value) -> None:
    with pytest.raises(DataError):
        model_module.Tree(feature, cut, child, value)


@pytest.mark.parametrize("kind, feature, cut", [
    pytest.param("continuous", 5, 0.5, id="feature_outside_schema"),
    pytest.param("categorical", 0, 9.0, id="category_code_out_of_range"),
    pytest.param("categorical", 0, 0.5, id="fractional_category_code"),
])
def test_a_model_rejects_splits_its_schema_cannot_score(kind, feature, cut) -> None:
    tree = model_module.Tree([feature, 0, 0], [cut, 0.0, 0.0], [1, 2, 1, 1, 2, 2],
                             [0.0, -1.0, 1.0])
    categories = (None,) if kind == "continuous" else (np.asarray(["a", "b"]),)
    with pytest.raises(DataError):
        GbdtModel((FeatureSpec("f0", kind),), 0.0, (tree,), GbdtParams(rounds=1), categories)


@pytest.mark.parametrize("columns", [
    pytest.param([np.asarray([np.nan]), np.asarray(["x"])], id="nan"),
    pytest.param([np.asarray([1.0]), np.asarray(["x"]), np.asarray([2.0])],
                 id="extra_column"),
    pytest.param([], id="no_columns"),
    pytest.param([np.asarray([1.0, 2.0]), np.asarray(["x"])], id="ragged"),
    pytest.param([np.asarray(["one"]), np.asarray(["x"])], id="text_in_a_continuous_column"),
])
def test_gbdt_predictions_reject_malformed_bare_rows(columns) -> None:
    table = make_table([[0.0, 10.0, 1.0, 11.0], ["x", "y", "y", "x"]], [0, 1, 0, 1],
                       kinds=["continuous", "categorical"])
    model = train_gbdt(table, GbdtParams(rounds=2, max_depth=1, min_leaf_count=1))
    assert model.trees[0].to_json_obj(model.categories)[0]["feature"] == 0
    with pytest.raises(DataError):
        model.predict_rows(table.schema, columns)


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


def test_an_external_prediction_file_may_start_with_a_byte_order_mark(tmp_path) -> None:
    table = make_table([[1.0, 2.0]], [0, 1], row_ids=["a", "b"])
    path = tmp_path / "p.csv"
    path.write_text("\ufeffrow_id,probability\na,0.25\nb,0.75\n", encoding="utf-8")
    preds = load_external_predictions(str(path), table)
    assert preds.predict_table(table).tolist() == [0.25, 0.75]


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


def test_external_predictions_draw_table_rows_with_their_given_probabilities() -> None:
    table = make_table([[0.0, 1.0, 2.0, 3.0], ["w", "x", "y", "z"]], [0, 1, 0, 1],
                       kinds=["continuous", "categorical"], row_ids=list("abcd"))
    probs = {"a": 0.1, "b": 0.6, "c": 0.3, "d": 0.9}
    ext = ExternalPredictions(probs, table)
    columns, drawn = ext.sample_rows(40, seed=9)
    rows = np.random.default_rng(9).integers(4, size=40)
    assert [col.tolist() for col in columns] == [col[rows].tolist() for col in table.columns]
    assert drawn.tolist() == [probs["abcd"[i]] for i in rows]
    assert ext.sample_rows(0, seed=9)[1].shape == (0,)


# an outside model scores only its table's rows, so it refuses every bare row,
# well-formed or not
@pytest.mark.parametrize("columns", [
    pytest.param([np.asarray([np.nan]), np.asarray(["x"])], id="nan"),
    pytest.param([np.asarray([np.inf]), np.asarray(["x"])], id="inf"),
    pytest.param([np.asarray([1.0]), np.asarray(["x"]), np.asarray([2.0])],
                 id="extra_column"),
    pytest.param([], id="no_columns"),
    pytest.param([np.asarray([1.0, 2.0]), np.asarray(["x"])], id="ragged"),
    pytest.param([np.asarray(["one"]), np.asarray(["x"])], id="text_in_a_continuous_column"),
    pytest.param([np.asarray([0.0, 10.0]), np.asarray(["x", "y"])], id="the_tables_own_rows"),
    pytest.param([np.asarray([]), np.asarray([])], id="no_rows"),
])
def test_external_predictions_reject_malformed_bare_rows(columns) -> None:
    table = make_table([[0.0, 10.0], ["x", "y"]], [0, 1],
                       kinds=["continuous", "categorical"])
    ext = ExternalPredictions({"0": 0.2, "1": 0.8}, table)
    with pytest.raises(DataError, match="only its table's rows"):
        ext.predict_rows(table.schema, columns)


def test_external_predictions_without_reference_rows_reject_bare_rows() -> None:
    table = make_table([[]], [])
    ext = ExternalPredictions({}, table)
    with pytest.raises(DataError):
        ext.predict_rows(table.schema, [np.asarray([1.0])])
    with pytest.raises(EmptyTable):  # and have no rows to draw
        ext.sample_rows(5, seed=0)
