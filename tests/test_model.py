"""Boosted-tree training, prediction, metrics, and external predictions."""

from __future__ import annotations

import hashlib
import itertools
import math
import tracemalloc
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
)
from errlens import model as model_module
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


class PerNodeGrower:
    """The grower that preceded the batched split search, kept as the oracle:
    each node searches its continuous features one at a time.  It takes the
    batched grower's arguments and presorts each continuous column itself."""

    def __init__(self, x, xc, order, categories, g, h, params):
        self.x = x
        self.order = [np.argsort(col, kind="stable") if cats is None else None
                      for col, cats in zip(x, categories)]
        self.categories = categories
        self.g = g
        self.h = h
        self.p = params
        self.nodes: list[tuple[int, float, float]] = []
        self.child: list[int] = []
        self.row_value = np.zeros(len(g))
        self._goes_left = np.zeros(len(g), dtype=bool)

    def grow(self):
        self._node(np.arange(len(self.g), dtype=np.intp), self.order, depth=0)
        feature, cut, value = zip(*self.nodes)
        return model_module.Tree(feature, cut, self.child, value)

    def _append(self, feature, cut, value):
        slot = len(self.nodes)
        self.nodes.append((feature, cut, value))
        self.child += [slot, slot]
        return slot

    def _leaf(self, rows):
        value = -self.g[rows].sum() / (self.h[rows].sum() + self.p.l2)
        self.row_value[rows] = value
        return self._append(0, 0.0, value)

    def _node(self, rows, order, depth):
        if depth >= self.p.max_depth or rows.size < 2 * self.p.min_leaf_count:
            return self._leaf(rows)
        found = self._best_split(rows, order)
        if found is None:
            return self._leaf(rows)
        gain, feature, cut, left_mask = found
        slot = self._append(feature, cut, 0.0)
        self._goes_left[rows] = left_mask
        left_order = [None if o is None else o[self._goes_left[o]] for o in order]
        right_order = [None if o is None else o[~self._goes_left[o]] for o in order]
        left = self._node(rows[left_mask], left_order, depth + 1)
        right = self._node(rows[~left_mask], right_order, depth + 1)
        self.child[2 * slot: 2 * slot + 2] = left, right
        return slot

    def _best_split(self, rows, order):
        g, h, lam, min_leaf = self.g[rows], self.h[rows], self.p.l2, self.p.min_leaf_count
        G, H = g.sum(), h.sum()
        parent = G * G / (H + lam)
        best = None
        for j, sorted_rows in enumerate(order):
            if sorted_rows is not None:
                sv = self.x[j][sorted_rows]
                cg = np.cumsum(self.g[sorted_rows])
                ch = np.cumsum(self.h[sorted_rows])
                m = rows.size
                k = np.arange(1, m)
                ok = (sv[:-1] != sv[1:]) & (k >= min_leaf) & (m - k >= min_leaf)
                if not ok.any():
                    continue
                gl, hl = cg[:-1], ch[:-1]
                gain = 0.5 * (gl**2 / (hl + lam)
                              + (G - gl)**2 / (H - hl + lam) - parent)
                gain = np.where(ok, gain, -np.inf)
                i = int(np.argmax(gain))
                if best is None or gain[i] > best[0]:
                    thr = float((sv[i] + sv[i + 1]) / 2.0)
                    best = (float(gain[i]), j, thr, self.x[j][rows] <= thr)
            else:
                cats, inverse = np.unique(self.x[j][rows], return_inverse=True)
                counts = np.bincount(inverse)
                gl = np.bincount(inverse, weights=g)
                hl = np.bincount(inverse, weights=h)
                ok = (counts >= min_leaf) & (rows.size - counts >= min_leaf)
                if not ok.any():
                    continue
                gain = 0.5 * (gl**2 / (hl + lam)
                              + (G - gl)**2 / (H - hl + lam) - parent)
                gain = np.where(ok, gain, -np.inf)
                i = int(np.argmax(gain))
                if best is None or gain[i] > best[0]:
                    best = (float(gain[i]), j, float(cats[i]), inverse == i)
        if best is None or best[0] <= 0.0:
            return None
        return best


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
    with mock.patch.object(model_module, "_TreeGrower", PerNodeGrower):
        expected = train_gbdt(table, params).to_json_obj()
    assert train_gbdt(table, params).to_json_obj() == expected


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
_CONT, _CAT = "continuous", "categorical"


@st.composite
def model_and_rows(draw):
    """A model trained with min_leaf_count 1 on random integers in [-6, 6]
    and categories "abc", rows to score that hit its thresholds exactly, lie
    at +-inf or carry an unseen category, and a block size for the row count
    to straddle."""
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
        cells = (st.one_of(_HALVES, st.sampled_from([-math.inf, math.inf])) if kind == _CONT
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
    assert group.words == 3 and group.n_trees * group.words == 15  # padded to 16
    rows = [np.concatenate([col, [-np.inf, np.inf]]) for col in
            (rng.normal(size=300), rng.normal(size=300))]
    for model in (leaves, deep):
        assert np.array_equal(model.predict_rows(model.schema, rows),
                              reference_probs(model, rows))


@st.composite
def thresholds_and_values(draw):
    """Ascending distinct thresholds, and values to rank among them.

    The thresholds are arbitrary floats (subnormal, huge and infinite ones
    included), or normal draws around any centre at any spread, then a run
    of thresholds one ulp apart; a single threshold is among them.  The
    values are every threshold and its neighbours one ulp away, +-inf,
    +-1e300, signed zeros, and arbitrary floats."""
    anything = st.floats(allow_nan=False)
    if draw(st.booleans()):
        cuts = draw(st.lists(st.one_of(anything, st.floats(-1e-300, 1e-300)),
                             min_size=1, max_size=40))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        spread = 10.0 ** draw(st.integers(-300, 300))
        centre = draw(st.floats(-1e300, 1e300))
        cuts = (centre + spread * rng.normal(size=draw(st.integers(1, 300)))).tolist()
    for _ in range(draw(st.integers(0, 6))):
        cuts.append(math.nextafter(cuts[-1], math.inf))
    cuts = np.unique(np.asarray(cuts, dtype=np.float64))
    with np.errstate(over="ignore"):  # the neighbours of the largest floats
        neighbours = [np.nextafter(cuts, -np.inf), np.nextafter(cuts, np.inf)]
    values = np.concatenate([cuts, *neighbours, [-np.inf, np.inf, -1e300, 1e300, 0.0, -0.0],
                             draw(st.lists(anything, max_size=20))])
    return cuts, values


@given(thresholds_and_values())
@settings(max_examples=300)
def test_the_threshold_rank_is_searchsorted(drawn) -> None:
    cuts, values = drawn
    rank = model_module._ThresholdRank(cuts)
    target(float(rank.scale is not None))
    assert np.array_equal(rank(values), np.searchsorted(cuts, values))


def test_the_threshold_rank_looks_most_rows_up() -> None:
    rng = np.random.default_rng(8)
    cuts = np.unique(rng.normal(size=150))
    values = np.concatenate([rng.normal(size=20_000), cuts, np.nextafter(cuts, np.inf)])
    rank = model_module._ThresholdRank(cuts)
    assert rank.cells == 1024 and rank.base.nbytes == 8 * 1024
    crowded = rank.base[rank._cell(values)] < 0
    assert 0 < crowded.mean() < 0.1  # both paths taken, the search rarely
    assert np.array_equal(rank(values), np.searchsorted(cuts, values))
    for single in ([0.0], [-np.inf, 0.0], [0.0, 5e-324], [-1e308, 1e308]):
        assert model_module._ThresholdRank(np.asarray(single)).scale is None


def table_bytes(model: GbdtModel) -> int:
    return sum(table.nbytes for group in model._groups for _, _, table in group.tables)


def test_table_memory_grows_linearly_with_the_ensemble() -> None:
    table, _ = generate(default_spec(n_rows=2000, n_features=6, flip_rate=0.4, seed=7))
    train, _ = split(table, test_fraction=0.25, seed=7)
    assert len(train_gbdt(train)._groups) == 1  # the defaults: one group
    long = train_gbdt(train, GbdtParams(rounds=300, max_depth=8, min_leaf_count=1))
    short = GbdtModel(long.schema, long.base_score, long.trees[:100], long.params,
                      long.categories)
    assert len(short._groups) > 1
    assert table_bytes(long) / table_bytes(short) <= 3.3


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
    dump_json(model.to_json_obj(), path)
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


_RNG = np.random.default_rng(11)
_ANGLES = _RNG.uniform(0.0, 2.0 * np.pi, size=40)
_SPREAD = _RNG.uniform(-1.5, 1.5, size=20)


def _near_midpoints(seed: int):
    # 60 reference rows in two clusters 400 apart, each a cube of side 2 in 6
    # columns, so float32 rounding of every screen score exceeds the gap of a
    # near tie; four query rows within 1e-4 of the midpoint of each reference
    # row and its nearest neighbour.  Without the product's rounding bound E
    # the screen answers some of them wrongly.
    rng = np.random.default_rng(seed)
    ref = rng.uniform(-1.0, 1.0, (60, 6)) + 200.0 * rng.choice([-1.0, 1.0], size=(60, 1))
    sq = ((ref[:, None] - ref[None]) ** 2).sum(axis=-1)
    np.fill_diagonal(sq, np.inf)
    near, at = ref[np.repeat(sq.argmin(axis=1), 4)], np.repeat(ref, 4, axis=0)
    rows = (at + near) / 2 + rng.uniform(-1e-4, 1e-4, size=(240, 1)) * (near - at)
    return [col.tolist() for col in ref.T], [_CONT] * 6, None, [col.tolist() for col in rows.T]


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
    # centred screen coordinates of 1e200 and 1e39 overflow float32, and those
    # of 1e30 leave a rounding bound far wider than any gap between reference
    # rows; every distance of the 1e200 rows is inf
    "query_rows_beyond_float32_after_centring": (
        [_SPREAD.tolist(), _RNG.choice(list("ab"), size=20).tolist()], [_CONT, _CAT], None,
        [[1e200, -1e200, 1e39, 1e30, -1e30, 0.3, 1.4],
         ["a", "b", "a", "z", "b", "a", "b"]]),
    # a one-hot block of 301 coordinates, most of the screen's width
    "categorical_column_with_300_levels": (
        [_RNG.uniform(size=600).tolist(), [f"k{i % 300}" for i in range(600)]],
        [_CONT, _CAT], None,
        [_RNG.uniform(-0.2, 1.2, size=80).tolist(),
         [f"k{i}" for i in _RNG.integers(0, 320, size=80)]]),
    "near_ties_far_from_the_centre": _near_midpoints(3),
}


@pytest.mark.parametrize("case", [
    # the 1e200 rows' distances overflow to inf, in the scan as in its oracle
    pytest.param(case, marks=pytest.mark.filterwarnings(
        "ignore:overflow encountered in square:RuntimeWarning"))
    if case == "query_rows_beyond_float32_after_centring" else case
    for case in sorted(BARE_ROW_CASES)])
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

    # a categorical column with 2000 levels; each row is a reference row moved
    # by at most 1e-3 per column, half of them also to a random category
    levels = np.asarray([f"k{i}" for i in range(2000)])
    wide = external_on([rng.uniform(size=2000).tolist() for _ in range(3)]
                       + [levels[rng.integers(2000, size=2000)].tolist()],
                       [_CONT, _CONT, _CONT, _CAT])
    near = rng.integers(2000, size=500)
    columns = [col[near] + rng.uniform(-1e-3, 1e-3, size=500) for col in wide.reference.columns[:3]]
    columns.append(np.where(np.arange(500) % 2 == 0, wide.reference.columns[3][near],
                            levels[rng.integers(2000, size=500)]))
    out = wide.predict_rows(wide.reference.schema, columns)
    assert scanned == []
    assert np.array_equal(out, scan_answers(wide, columns))

    # a row sitting on a reference row is settled by the screen, unless that
    # reference row has a duplicate: the runner-up then scores as near
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
