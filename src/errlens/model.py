"""Black-box binary classifiers: a gradient-boosted tree learner and adapters.

The built-in learner is second-order (Newton) gradient boosting on logistic
loss with depth-limited regression trees, exact greedy splits, and L2 leaf
regularization.  Everything downstream (explanations, region mining) only
needs the :class:`Predictor` protocol, so externally produced probabilities
or arbitrary callables plug in the same way.
"""

from __future__ import annotations

import csv
import json
import math
import threading
from dataclasses import dataclass, field
from typing import Protocol, Sequence, runtime_checkable

import numpy as np
from scipy.special import expit

from .data import FeatureSpec, LabeledTable, _frozen
from .errors import (
    DataError,
    DuplicateRowId,
    EmptyTable,
    MissingColumn,
    MissingRowId,
    ProbabilityOutOfRange,
    SchemaMismatch,
)

Columns = Sequence[np.ndarray]

# Probabilities are clipped into the open unit interval so that downstream
# log-loss and thresholding never see an exact 0 or 1.
_P_EPS = 1e-12


@runtime_checkable
class Predictor(Protocol):
    """Anything that yields P(label=1) for feature rows."""

    def predict_table(self, table: LabeledTable) -> np.ndarray:
        """Probabilities for the rows of a labeled table."""
        ...

    def predict_rows(self, schema: tuple[FeatureSpec, ...], columns: Columns) -> np.ndarray:
        """Probabilities for bare columnar rows under the given schema."""
        ...


def check_probabilities(probs: object, n: int) -> np.ndarray:
    """A predictor's output for ``n`` rows as float64, validated.

    Raises DataError unless it has shape ``(n,)``, and ProbabilityOutOfRange
    unless every value is finite and within [0, 1].
    """
    try:
        out = np.asarray(probs, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DataError(f"predictor output is not numeric: {exc}") from None
    if out.shape != (n,):
        raise DataError(f"predictor returned shape {out.shape} for {n} rows")
    ok = (out >= 0.0) & (out <= 1.0)  # False for NaN
    if not ok.all():
        raise ProbabilityOutOfRange(
            f"predictor returned {float(out[~ok][0])!r}, not a probability")
    return out


# --- trees -------------------------------------------------------------------

# Per feature of a model's schema: None for a continuous feature, else the
# sorted categories its splits are coded against (the training column's
# categories, or on load those the splits name).  Every tree of one model
# shares one such tuple, so rows are coded once per call, not once per tree.
Categories = tuple[np.ndarray | None, ...]


def _codes(col: np.ndarray, cats: np.ndarray) -> np.ndarray:
    """Index of each value of ``col`` in the sorted ``cats``, or -1 if absent."""
    if cats.size == 0:
        return np.full(len(col), -1, dtype=np.intp)
    at = np.minimum(np.searchsorted(cats, col), cats.size - 1)
    return np.where(cats[at] == col, at, -1)


def _pack(columns: Columns, categories: Categories) -> np.ndarray:
    """One (n, d) float64 matrix of the columns, categorical ones as codes."""
    x = np.empty((len(columns[0]), len(categories)))
    for j, (col, cats) in enumerate(zip(columns, categories)):
        x[:, j] = col if cats is None else _codes(np.asarray(col, dtype=str), cats)
    return x


def _depth(child: np.ndarray) -> int:
    """Levels from the root to the deepest leaf; DataError on a cycle."""
    at, depth = np.zeros(1, dtype=np.intp), 0
    while True:
        nxt = child[np.concatenate([2 * at, 2 * at + 1])]
        at = np.unique(nxt[nxt != np.tile(at, 2)])
        if at.size == 0:
            return depth
        depth += 1
        if depth >= child.size:
            raise DataError("tree nodes form a cycle")


class Tree:
    """Regression tree as one flat node table (node 0 is the root).

    A row at node ``i`` goes left iff ``lo[i] <= x[feature[i]] <= hi[i]`` and
    moves to ``child[2*i + went_right]``.  A continuous split stores
    ``lo = -inf`` and ``hi = threshold``; a categorical split stores
    ``lo = hi = code``, the category's index in ``categories[feature]``, so a
    category the tree cannot match goes right.  Leaves point to themselves, so
    every row takes exactly ``depth`` branch-free steps.
    """

    def __init__(self, feature: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                 child: np.ndarray, value: np.ndarray, categories: Categories):
        self.feature = _frozen(np.asarray(feature, dtype=np.intp))
        self.lo = _frozen(np.asarray(lo, dtype=np.float64))
        self.hi = _frozen(np.asarray(hi, dtype=np.float64))
        self.child = _frozen(np.asarray(child, dtype=np.intp))
        self.value = _frozen(np.asarray(value, dtype=np.float64))
        self.categories = categories
        self.depth = _depth(self.child)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Leaf value per row of a matrix packed by :func:`_pack`."""
        n, d = x.shape
        v = x[:, self.feature[0]]  # every row starts at the root
        at = np.where((self.lo[0] <= v) & (v <= self.hi[0]), self.child[0], self.child[1])
        flat, base = x.ravel(), np.arange(0, n * d, d)
        for _ in range(self.depth - 1):
            v = flat.take(base + self.feature.take(at))
            go_left = (self.lo.take(at) <= v) & (v <= self.hi.take(at))
            at = self.child.take(2 * at + ~go_left)
        return self.value.take(at)

    def to_json_obj(self) -> list[dict]:
        out: list[dict] = []
        for i, (j, lo, hi, value) in enumerate(zip(self.feature.tolist(), self.lo.tolist(),
                                                   self.hi.tolist(), self.value.tolist())):
            left, right = self.child[2 * i: 2 * i + 2].tolist()
            if left == i:
                out.append({"leaf": value})
            elif self.categories[j] is not None:
                out.append({"feature": j, "category": str(self.categories[j][int(lo)]),
                            "left": left, "right": right})
            else:
                out.append({"feature": j, "threshold": hi, "left": left, "right": right})
        return out

    @classmethod
    def from_json_obj(cls, obj: Sequence[dict], categories: Categories) -> "Tree":
        n = len(obj)
        if n == 0:
            raise DataError("a tree needs at least one node")
        feature = np.zeros(n, dtype=np.intp)
        lo, hi = np.full(n, -np.inf), np.full(n, np.inf)
        child = np.repeat(np.arange(n, dtype=np.intp), 2)
        value = np.zeros(n)
        for i, rec in enumerate(obj):
            if "leaf" in rec:
                value[i] = float(rec["leaf"])
                continue
            j, left, right = int(rec["feature"]), int(rec["left"]), int(rec["right"])
            if not (0 <= j < len(categories) and 0 <= left < n and 0 <= right < n
                    and i not in (left, right)):
                raise DataError(f"node {i}: feature or child index out of range")
            cats = categories[j]
            if ("category" in rec) != (cats is not None):
                raise DataError(f"node {i}: split kind does not match feature {j}")
            if cats is None:
                hi[i] = float(rec["threshold"])
            else:
                lo[i] = hi[i] = np.searchsorted(cats, rec["category"])
            feature[i] = j
            child[2 * i: 2 * i + 2] = left, right
        return cls(feature, lo, hi, child, value, categories)


def _json_categories(schema: Sequence[FeatureSpec], trees: Sequence[Sequence[dict]]
                     ) -> Categories:
    """Per feature, the sorted categories a model's JSON trees split on."""
    used: list[set[str] | None] = [
        set() if f.kind == "categorical" else None for f in schema]
    for tree in trees:
        for rec in tree:
            if "category" in rec and used[rec["feature"]] is not None:
                used[rec["feature"]].add(rec["category"])
    return tuple(None if cats is None else _frozen(np.asarray(sorted(cats), dtype=str))
                 for cats in used)


# --- training ----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class GbdtParams:
    """Hyperparameters of the boosted ensemble.

    ``seed`` is recorded with the model for provenance; the exact greedy
    learner itself is deterministic.
    """

    rounds: int = 100
    max_depth: int = 4
    learning_rate: float = 0.1
    min_leaf_count: int = 5
    l2: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rounds < 0 or self.max_depth < 1 or self.min_leaf_count < 1:
            raise DataError("rounds >= 0, max_depth >= 1, min_leaf_count >= 1 required")
        if not 0.0 < self.learning_rate <= 1.0:
            raise DataError("learning_rate must be within (0, 1]")
        if self.l2 < 0:
            raise DataError("l2 must be non-negative")


class _TreeGrower:
    """Grows one tree on gradient/hessian targets via exact greedy splits.

    ``x[j]`` is training column j, a categorical one as codes into
    ``categories[j]``.  ``order[j]`` lists the rows by ascending value of
    continuous column j, ties in row order, and is None for a categorical
    column.  Each node receives its rows in ascending order together with
    its share of every ``order[j]``, split off by stable partition, so no
    node sorts and tie order matches a per-node stable argsort.
    """

    def __init__(self, x: Sequence[np.ndarray], order: Sequence[np.ndarray | None],
                 categories: Categories, g: np.ndarray, h: np.ndarray,
                 params: GbdtParams):
        self.x = x
        self.order = order
        self.categories = categories
        self.g = g
        self.h = h
        self.p = params
        self.nodes: list[tuple[int, float, float, float]] = []  # feature, lo, hi, value
        self.child: list[int] = []
        self.row_value = np.zeros(len(g))
        self._goes_left = np.zeros(len(g), dtype=bool)

    def grow(self) -> Tree:
        self._node(np.arange(len(self.g), dtype=np.intp), self.order, depth=0)
        feature, lo, hi, value = zip(*self.nodes)
        return Tree(feature, lo, hi, self.child, value, self.categories)

    def _append(self, feature: int, lo: float, hi: float, value: float) -> int:
        slot = len(self.nodes)
        self.nodes.append((feature, lo, hi, value))
        self.child += [slot, slot]
        return slot

    def _leaf(self, rows: np.ndarray) -> int:
        value = -self.g[rows].sum() / (self.h[rows].sum() + self.p.l2)
        self.row_value[rows] = value
        return self._append(0, -np.inf, np.inf, value)

    def _node(self, rows: np.ndarray, order: Sequence[np.ndarray | None],
              depth: int) -> int:
        if depth >= self.p.max_depth or rows.size < 2 * self.p.min_leaf_count:
            return self._leaf(rows)
        found = self._best_split(rows, order)
        if found is None:
            return self._leaf(rows)
        gain, feature, lo, hi, left_mask = found
        slot = self._append(feature, lo, hi, 0.0)
        self._goes_left[rows] = left_mask
        left_order = [None if o is None else o[self._goes_left[o]] for o in order]
        right_order = [None if o is None else o[~self._goes_left[o]] for o in order]
        left = self._node(rows[left_mask], left_order, depth + 1)
        right = self._node(rows[~left_mask], right_order, depth + 1)
        self.child[2 * slot: 2 * slot + 2] = left, right
        return slot

    def _best_split(self, rows: np.ndarray, order: Sequence[np.ndarray | None]):
        g, h, lam, min_leaf = self.g[rows], self.h[rows], self.p.l2, self.p.min_leaf_count
        G, H = g.sum(), h.sum()
        parent = G * G / (H + lam)
        best = None  # (gain, feature, lo, hi, left_mask)
        for j, sorted_rows in enumerate(order):
            if sorted_rows is not None:
                sv = self.x[j][sorted_rows]
                cg = np.cumsum(self.g[sorted_rows])
                ch = np.cumsum(self.h[sorted_rows])
                m = rows.size
                k = np.arange(1, m)  # left side takes k smallest rows
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
                    best = (float(gain[i]), j, -np.inf, thr, self.x[j][rows] <= thr)
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
                    code = float(cats[i])
                    best = (float(gain[i]), j, code, code, inverse == i)
        if best is None or best[0] <= 0.0:
            return None
        return best


def _log_loss(y: np.ndarray, p: np.ndarray) -> float:
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


@dataclass(frozen=True)
class GbdtModel:
    """Trained boosted-tree classifier.

    Raw score of a row is ``base_score + learning_rate * sum(tree values)``;
    the probability is its sigmoid.  ``train_loss`` holds the mean logistic
    loss on the training data after 0..rounds rounds.
    """

    schema: tuple[FeatureSpec, ...]
    base_score: float
    trees: tuple[Tree, ...]
    params: GbdtParams
    train_loss: tuple[float, ...] = field(default=(), repr=False)

    def __post_init__(self) -> None:
        if any(t.categories is not self.trees[0].categories for t in self.trees):
            raise DataError("the trees of one model must share one category coding")

    def predict_rows(self, schema: tuple[FeatureSpec, ...], columns: Columns) -> np.ndarray:
        if tuple(schema) != self.schema:
            raise SchemaMismatch(
                f"model expects {[f.name for f in self.schema]}, "
                f"got {[f.name for f in schema]}"
            )
        raw = np.full(len(columns[0]), self.base_score)
        if self.trees:
            x = _pack(columns, self.trees[0].categories)
            for tree in self.trees:
                raw += self.params.learning_rate * tree.predict(x)
        return np.clip(expit(raw), _P_EPS, 1.0 - _P_EPS)

    def predict_table(self, table: LabeledTable) -> np.ndarray:
        return self.predict_rows(table.schema, table.columns)

    # --- serialization ---

    def to_json_obj(self) -> dict:
        return {
            "kind": "gbdt",
            "schema": [{"name": f.name, "kind": f.kind} for f in self.schema],
            "base_score": self.base_score,
            "params": {
                "rounds": self.params.rounds,
                "max_depth": self.params.max_depth,
                "learning_rate": self.params.learning_rate,
                "min_leaf_count": self.params.min_leaf_count,
                "l2": self.params.l2,
                "seed": self.params.seed,
            },
            "train_loss": list(self.train_loss),
            "trees": [t.to_json_obj() for t in self.trees],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "GbdtModel":
        try:
            schema = tuple(FeatureSpec(f["name"], f["kind"]) for f in obj["schema"])
            categories = _json_categories(schema, obj["trees"])
            return cls(
                schema=schema,
                base_score=float(obj["base_score"]),
                trees=tuple(Tree.from_json_obj(t, categories) for t in obj["trees"]),
                params=GbdtParams(**obj["params"]),
                train_loss=tuple(float(x) for x in obj["train_loss"]),
            )
        except (IndexError, KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed model object: {exc}") from exc

    def save(self, path: str) -> None:
        from .serialize import dump_json

        dump_json(self.to_json_obj(), path)

    @classmethod
    def load(cls, path: str) -> "GbdtModel":
        with open(path, encoding="utf-8") as fh:
            try:
                obj = json.load(fh)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}: not valid JSON: {exc}") from exc
        return cls.from_json_obj(obj)


def train_gbdt(table: LabeledTable, params: GbdtParams = GbdtParams()) -> GbdtModel:
    """Fit the boosted ensemble on a labeled table.

    Each round fits one tree to the logistic gradients g = p - y and
    hessians h = p(1 - p) of the current ensemble, maximizing
    0.5*[GL^2/(HL+l2) + GR^2/(HR+l2) - G^2/(H+l2)] per split with leaf
    values -G/(H+l2).  The initial raw score is the log-odds of the
    training base rate.
    """
    if table.n_rows == 0:
        raise EmptyTable("cannot train on an empty table")
    y = table.labels.astype(np.float64)
    base_rate = float(np.clip(y.mean(), 1e-6, 1.0 - 1e-6))
    base_score = math.log(base_rate / (1.0 - base_rate))
    categories = tuple(_frozen(np.unique(col)) if f.kind == "categorical" else None
                       for f, col in zip(table.schema, table.columns))
    x = [col if cats is None else np.searchsorted(cats, col)
         for col, cats in zip(table.columns, categories)]
    order = [np.argsort(col, kind="stable") if cats is None else None
             for col, cats in zip(x, categories)]

    raw = np.full(table.n_rows, base_score)
    p = np.clip(expit(raw), _P_EPS, 1.0 - _P_EPS)
    losses = [_log_loss(y, p)]
    trees: list[Tree] = []
    for _ in range(params.rounds):
        grower = _TreeGrower(x, order, categories, g=p - y, h=p * (1.0 - p),
                             params=params)
        trees.append(grower.grow())
        raw = raw + params.learning_rate * grower.row_value
        p = np.clip(expit(raw), _P_EPS, 1.0 - _P_EPS)
        losses.append(_log_loss(y, p))

    return GbdtModel(schema=table.schema, base_score=base_score,
                     trees=tuple(trees), params=params,
                     train_loss=tuple(losses))


# --- evaluation --------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Metrics:
    """Confusion counts and derived rates at a fixed threshold."""

    tp: int
    fp: int
    tn: int
    fn: int
    threshold: float

    @property
    def n(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def recall(self) -> float:
        pos = self.tp + self.fn
        return self.tp / pos if pos else 0.0

    @property
    def precision(self) -> float:
        pred_pos = self.tp + self.fp
        return self.tp / pred_pos if pred_pos else 0.0

    @property
    def accuracy(self) -> float:
        return (self.tp + self.tn) / self.n

    @property
    def error_rate(self) -> float:
        return (self.fp + self.fn) / self.n

    def to_json_obj(self) -> dict:
        return {
            "tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn,
            "n": self.n, "threshold": self.threshold,
            "recall": self.recall, "precision": self.precision,
            "accuracy": self.accuracy, "error_rate": self.error_rate,
        }


# --- external predictions and callables --------------------------------------


class FunctionPredictor:
    """Wrap a plain ``f(columns) -> probabilities`` callable as a Predictor."""

    def __init__(self, schema: tuple[FeatureSpec, ...], fn):
        self.schema = tuple(schema)
        self._fn = fn

    def predict_rows(self, schema: tuple[FeatureSpec, ...], columns: Columns) -> np.ndarray:
        if tuple(schema) != self.schema:
            raise SchemaMismatch("predictor schema does not match rows")
        return np.asarray(self._fn(columns), dtype=np.float64)

    def predict_table(self, table: LabeledTable) -> np.ndarray:
        return self.predict_rows(table.schema, table.columns)


# Bare rows are answered through a k-d tree over the reference rows embedded so
# that squared Euclidean distance is the answering metric: a continuous value
# becomes ``value / scale``, a categorical one a one-hot block of weight
# sqrt(0.5) with a last slot for categories the reference lacks, so each
# mismatch adds 1.  The tree proposes the _K nearest rows; their distances are
# then recomputed exactly as the full scan computes them.  That answer stands
# only when every other reference row is provably farther, by these bounds
# (u is the unit roundoff, d the number of features, dim the number of tree
# coordinates, n the number of reference rows):
#
# * The scan's squared distance D sums d terms, each a square of a quotient of
#   a difference and so within (1 +- u)**5 of its exact value, in d roundings.
#   All terms are non-negative, so D is within a factor (1 +- u)**(d + 5) of
#   the exact squared distance delta whatever the magnitudes (the difference
#   of two floats is correctly rounded; it does not cancel).
# * The tree works on rounded coordinates ``fl(x / scale)``.  Their
#   differences are off by at most 3u * (|q_c| + M_c) per coordinate, where
#   M_c bounds the reference's |coordinate| -- an absolute error that grows
#   with the magnitude of the values, not with their spread.  So a row's norm
#   sqrt(delta) exceeds its tree coordinates' norm by at most
#   H = 3u * sqrt(sum_c (|q_c| + M_c)**2).
# * The tree's own distance is a sum of squares with a square root, and its
#   pruning updates a squared bound once per level of a path no longer than
#   the reference: a relative error below rho = (dim + 2n + 8)u, with margin
#   for evaluating the test.
#
# A reference row the tree did not return is at least dist_K (1 - rho) from
# the row in tree coordinates, hence sqrt(delta) >= dist_K (1 - rho) - H =:
# reach, and D >= reach**2 (1 - gamma) with gamma = (d + 16)u, which leaves
# margin for rounding the test itself.  The absolute term TINY covers
# subnormal results.  A row whose bound is not above the candidates' exact
# best -- exact ties, duplicate reference rows, non-finite distances -- falls
# back to the full scan.
_K = 2
_U = np.finfo(np.float64).eps / 2.0
_TINY = np.finfo(np.float64).tiny
_ONE_HOT = math.sqrt(0.5)
_UNBUILT = object()


class ExternalPredictions:
    """Predictor backed by a per-row-id probability file.

    Table rows are answered by exact row-id lookup.  Bare rows (as produced
    by explanation-time perturbation) have no id, so they are answered by the
    stored probability of the nearest reference row: continuous features are
    compared on a per-feature standardized scale, each categorical mismatch
    adds one unit of squared distance, and ties go to the lowest row index.
    An exact nearest-neighbour index, built on the first bare-row call, finds
    that row without comparing against every reference row; the answer is the
    same as a full scan's, bit for bit.
    """

    def __init__(self, probabilities: dict[str, float], reference: LabeledTable):
        for rid in reference.row_ids:
            if rid not in probabilities:
                raise MissingRowId(rid)
        self.probabilities = dict(probabilities)
        self.reference = reference
        self._ref_probs = np.asarray(
            [probabilities[r] for r in reference.row_ids], dtype=np.float64
        )
        self._categories: Categories = tuple(
            _frozen(np.unique(col)) if f.kind == "categorical" else None
            for f, col in zip(reference.schema, reference.columns))
        self._scale = []
        for spec, col in zip(reference.schema, reference.columns):
            if spec.kind == "continuous":
                sd = float(col.std())
                self._scale.append(sd if sd > 0 else 1.0)
            else:
                self._scale.append(None)
        self._ref = _pack(reference.columns, self._categories).T.copy()
        self._index_lock = threading.Lock()
        self._index = _UNBUILT

    def predict_table(self, table: LabeledTable) -> np.ndarray:
        try:
            return np.asarray([self.probabilities[r] for r in table.row_ids])
        except KeyError as exc:
            raise MissingRowId(str(exc.args[0])) from None

    def predict_rows(self, schema: tuple[FeatureSpec, ...], columns: Columns) -> np.ndarray:
        if tuple(schema) != self.reference.schema:
            raise SchemaMismatch("rows do not match the reference table schema")
        if len(columns) != len(schema):
            raise DataError(f"expected {len(schema)} columns, got {len(columns)}")
        n = len(columns[0])
        if any(np.ndim(col) != 1 or len(col) != n for col in columns):
            raise DataError("columns must be one-dimensional and of equal length")
        try:
            x = _pack(columns, self._categories)
        except (TypeError, ValueError) as exc:
            raise DataError(f"rows are not numeric where the schema says so: {exc}") from None
        if not np.isfinite(x).all():
            raise DataError("continuous cells must be finite")
        if n and not self.reference.n_rows:
            raise EmptyTable("no reference rows to answer bare rows with")
        return self._ref_probs[self._nearest(x)]

    def _sq_distances(self, x: np.ndarray, ref: np.ndarray) -> np.ndarray:
        """Squared distances of packed rows ``x`` to reference rows ``ref``.

        ``ref`` holds reference indices, ``(len(x), k)`` or ``(1, n_ref)``.
        Terms are added in schema order: a continuous term is
        ``((x - r) / scale) ** 2`` and a categorical mismatch, compared on
        codes, adds 1.  Every answer's distance is computed here.
        """
        d2 = np.zeros(np.broadcast_shapes((len(x), 1), ref.shape))
        for j, scale in enumerate(self._scale):
            r = self._ref[j][ref]
            if scale is None:
                d2 += x[:, j, None] != r
            else:
                d2 += ((x[:, j, None] - r) / scale) ** 2
        return d2

    def _embed(self, x: np.ndarray) -> np.ndarray:
        """Packed rows in the tree's coordinates (see the note above _K)."""
        parts = []
        for j, (scale, cats) in enumerate(zip(self._scale, self._categories)):
            if cats is None:
                parts.append(x[:, j, None] / scale)
            else:
                one_hot = np.zeros((len(x), cats.size + 1))
                # an absent category's code -1 picks the last, extra slot
                one_hot[np.arange(len(x)), x[:, j].astype(np.intp)] = _ONE_HOT
                parts.append(one_hot)
        return np.hstack(parts)

    def _neighbour_index(self):
        """``(tree, M_c, rho)``, built on first use; None when a full scan is
        as cheap (at most _K reference rows) or the coordinates overflow."""
        with self._index_lock:
            if self._index is _UNBUILT:
                ref = self._embed(self._ref.T)
                if self.reference.n_rows <= _K or not np.isfinite(ref).all():
                    self._index = None
                else:
                    from scipy.spatial import cKDTree

                    rho = (ref.shape[1] + 2 * len(ref) + 8) * _U
                    self._index = (cKDTree(ref), np.abs(ref).max(axis=0), rho)
        return self._index

    def _nearest(self, x: np.ndarray) -> np.ndarray:
        """Lowest index of a reference row at the least distance, per row."""
        n_ref = self.reference.n_rows
        best = np.full(len(x), -1, dtype=np.intp)
        index = self._neighbour_index()
        if index is not None:
            tree, ref_max, rho = index
            q = self._embed(x)
            finite = np.isfinite(q).all(axis=1)
            dist, cand = tree.query(np.where(finite[:, None], q, 0.0), k=_K)
            d2 = self._sq_distances(x, cand)
            best_d2 = d2.min(axis=1)
            best = np.where(d2 == best_d2[:, None], cand, n_ref).min(axis=1)
            slack = 3.0 * _U * np.sqrt(((np.abs(q) + ref_max) ** 2).sum(axis=1))
            reach = dist[:, -1] * (1.0 - rho) - slack - _TINY
            bound = reach * reach * (1.0 - (len(self._scale) + 16) * _U) - _TINY
            proven = finite & (reach >= 0.0) & np.isfinite(bound) & (bound > best_d2)
            best[~proven] = -1
        todo = np.flatnonzero(best < 0)
        block = max(1, 2_000_000 // max(1, n_ref))
        everyone = np.arange(n_ref)[None, :]
        for start in range(0, todo.size, block):
            rows = todo[start:start + block]
            best[rows] = np.argmin(self._sq_distances(x[rows], everyone), axis=1)
        return best


def load_external_predictions(path: str, table: LabeledTable) -> ExternalPredictions:
    """Read a ``row_id,probability`` CSV covering every row of ``table``."""
    probs: dict[str, float] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingColumn("empty file: header row required") from None
        if header != ["row_id", "probability"]:
            raise MissingColumn(f"expected header row_id,probability, got {header!r}")
        for row_idx, row in enumerate(reader):
            if len(row) != 2:
                raise DataError(f"row {row_idx}: expected 2 cells")
            rid, cell = row
            if rid in probs:
                raise DuplicateRowId(rid)
            try:
                p = float(cell)
            except ValueError:
                raise ProbabilityOutOfRange(f"{rid}: {cell!r}") from None
            if not (0.0 <= p <= 1.0):
                raise ProbabilityOutOfRange(f"{rid}: {p!r}")
            probs[rid] = p
    return ExternalPredictions(probs, table)
