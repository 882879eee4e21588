"""Black-box binary classifiers: a gradient-boosted tree learner and adapters.

The built-in learner is second-order (Newton) gradient boosting on logistic
loss with depth-limited regression trees, exact greedy splits, and L2 leaf
regularization.  Everything downstream (explanations, region mining) only
needs the :class:`Predictor` protocol, so externally produced probabilities
or arbitrary callables plug in the same way.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Protocol, Sequence, runtime_checkable

import numpy as np
from scipy.special import expit

from .data import FeatureSpec, LabeledTable, _frozen, read_csv
from .errors import (
    DataError,
    DuplicateRowId,
    EmptyTable,
    MissingColumn,
    MissingRowId,
    ProbabilityOutOfRange,
    SchemaMismatch,
)
from .serialize import load_json

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
# categories, or on load those the splits name).  A model holds one such tuple
# for all its trees, so rows are coded once per call, not once per tree.
Categories = tuple[np.ndarray | None, ...]


def _codes(col: np.ndarray, cats: np.ndarray) -> np.ndarray:
    """Index of each value of ``col`` in the sorted ``cats``, or -1 if absent."""
    if cats.size == 0:
        return np.full(len(col), -1, dtype=np.intp)
    at = np.minimum(np.searchsorted(cats, col), cats.size - 1)
    return np.where(cats[at] == col, at, -1)


def _pack(columns: Columns, categories: Categories) -> np.ndarray:
    """One (n, d) float64 matrix of the columns, categorical ones as codes,
    stored column by column so that a block of rows of one column is
    contiguous."""
    x = np.empty((len(categories), len(columns[0]))).T
    for j, (col, cats) in enumerate(zip(columns, categories)):
        x[:, j] = col if cats is None else _codes(np.asarray(col, dtype=str), cats)
    return x


def _packed_rows(expected: tuple[FeatureSpec, ...], schema: Sequence[FeatureSpec],
                 columns: Columns, categories: Categories) -> np.ndarray:
    """Bare rows packed by :func:`_pack`, checked at a predictor's boundary.

    Raises SchemaMismatch unless ``schema`` is ``expected``, and DataError
    unless there is one column per feature, all one-dimensional and of one
    length, with numeric cells where the feature is continuous.  Whether
    non-finite cells are allowed is each predictor's own rule.
    """
    if tuple(schema) != expected:
        raise SchemaMismatch(f"rows have features {[f.name for f in schema]}, "
                             f"expected {[f.name for f in expected]}")
    if len(columns) != len(expected):
        raise DataError(f"expected {len(expected)} columns, got {len(columns)}")
    n = len(columns[0])
    if any(np.ndim(col) != 1 or len(col) != n for col in columns):
        raise DataError("columns must be one-dimensional and of equal length")
    try:
        return _pack(columns, categories)
    except (TypeError, ValueError) as exc:
        raise DataError(f"rows are not numeric where the schema says so: {exc}") from None


def _walk(child: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Depth-first walk from the root, left before right.

    Returns the leaves in left-to-right order, the split nodes in walk order,
    and per split node the half-open range ``[first, end)`` of the numbers of
    the leaves in its left subtree.  DataError when a node is reached twice:
    a shared child or a cycle.
    """
    n = child.size // 2
    seen = np.zeros(n, dtype=bool)
    span = np.zeros((n, 2), dtype=np.intp)
    leaves: list[int] = []
    splits: list[int] = []
    stack = [0]
    while stack:
        i = stack.pop()
        if i < 0:  # the left subtree of split ~i is done
            span[~i, 1] = len(leaves)
            continue
        if seen[i]:
            raise DataError(f"tree node {i} has two parents or lies on a cycle")
        seen[i] = True
        left, right = int(child[2 * i]), int(child[2 * i + 1])
        if left == i:
            leaves.append(i)
            continue
        splits.append(i)
        span[i, 0] = len(leaves)
        stack += [right, ~i, left]
    return np.asarray(leaves, dtype=np.intp), np.asarray(splits, dtype=np.intp), span[splits]


class Tree:
    """Regression tree as one flat node table (node 0 is the root).

    Node ``i`` is a leaf with value ``value[i]`` iff ``child[2*i] == i``.
    Otherwise a row moves to ``child[2*i]`` (left) if it passes the split and
    to ``child[2*i + 1]`` (right) if not.  It passes a continuous split iff
    ``x[feature[i]] <= cut[i]``, the threshold, and a categorical split iff
    its category is ``categories[feature[i]][cut[i]]`` under its model's
    coding, so a category the tree cannot match goes right.  Construction
    walks the tree once, numbering its leaves left to right for
    :class:`_TreeGroup`.
    """

    def __init__(self, feature: np.ndarray, cut: np.ndarray, child: np.ndarray,
                 value: np.ndarray):
        self.feature = _frozen(np.asarray(feature, dtype=np.intp))
        self.cut = _frozen(np.asarray(cut, dtype=np.float64))
        self.child = _frozen(np.asarray(child, dtype=np.intp))
        self.value = _frozen(np.asarray(value, dtype=np.float64))
        n = self.value.size
        if n == 0 or any(a.shape != (n,) for a in (self.feature, self.cut, self.value)):
            raise DataError("a tree needs a node, and a feature, cut and value per node")
        if self.child.shape != (2 * n,) or not ((self.child >= 0) & (self.child < n)).all():
            raise DataError(f"a tree of {n} nodes needs two child indices below {n} per node")
        if np.isnan(self.cut).any():
            raise DataError("a split threshold is NaN")
        self.leaves, self.splits, self.left_leaves = map(_frozen, _walk(self.child))

    def to_json_obj(self, categories: Categories) -> list[dict]:
        out: list[dict] = []
        for i, (j, cut, value) in enumerate(zip(self.feature.tolist(), self.cut.tolist(),
                                                self.value.tolist())):
            left, right = self.child[2 * i: 2 * i + 2].tolist()
            if left == i:
                out.append({"leaf": value})
            elif categories[j] is not None:
                out.append({"feature": j, "category": str(categories[j][int(cut)]),
                            "left": left, "right": right})
            else:
                out.append({"feature": j, "threshold": cut, "left": left, "right": right})
        return out

    @classmethod
    def from_json_obj(cls, obj: Sequence[dict], categories: Categories) -> "Tree":
        n = len(obj)
        feature = np.zeros(n, dtype=np.intp)
        cut = np.zeros(n)
        child = np.repeat(np.arange(n, dtype=np.intp), 2)
        value = np.zeros(n)
        for i, rec in enumerate(obj):
            if "leaf" in rec:
                value[i] = float(rec["leaf"])
                continue
            j, left, right = int(rec["feature"]), int(rec["left"]), int(rec["right"])
            if left == i:
                raise DataError(f"node {i}: a split is its own left child")
            cats = categories[j] if 0 <= j < len(categories) else None  # GbdtModel rejects j
            if ("category" in rec) != (cats is not None):
                raise DataError(f"node {i}: split kind does not match feature {j}")
            if cats is None:
                cut[i] = float(rec["threshold"])
            else:
                cut[i] = np.searchsorted(cats, rec["category"])
            feature[i] = j
            child[2 * i: 2 * i + 2] = left, right
        return cls(feature, cut, child, value)


def _table_categories(table: LabeledTable) -> Categories:
    """Per feature, the sorted distinct values of a categorical column."""
    return tuple(_frozen(np.unique(col)) if f.kind == "categorical" else None
                 for f, col in zip(table.schema, table.columns))


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


# Leaves per bitvector word, a word with every bit set, rows x trees scored
# at once, which keeps each block's temporaries near 1 MiB whatever the
# call's size, and the most bytes one group's tables and ranks may take.
_WORD = 16
_ONES = (1 << _WORD) - 1
_BLOCK = 2 ** 16
_GROUP_BYTES = 2 ** 20
# bitvector words per uint64: a table row is ANDed as whole uint64s
_PACK = 64 // _WORD

# The trailing zeros of every word, and _WORD for the zero word.
_CTZ = np.full(1 << _WORD, _WORD, dtype=np.uint8)
for _bit in range(_WORD):
    _CTZ[1 << _bit::2 << _bit] = _bit


def _rank_cells(n_cuts: int) -> int:
    """The cells of a :class:`_ThresholdRank` over ``n_cuts`` thresholds:
    the power of two at least four times as many, so few cells hold two."""
    return 1 << (4 * n_cuts - 1).bit_length()


class _ThresholdRank:
    """``np.searchsorted(cuts, x)`` for a column ``x``, exactly, mostly by lookup.

    ``cuts`` ascend strictly.  A value falls in cell
    ``floor(clip((x - cuts[0]) * scale, 0, cells - 1))``, a map that never
    decreases as ``x`` grows, rounding included.  So every threshold in a
    lower cell than ``x``'s is below ``x`` and every one in a higher cell is
    above it.  ``base[cell]`` counts the thresholds in lower cells, so
    ``bounds[base[cell]]`` (``bounds`` is ``cuts`` and +inf) is the cell's one
    threshold if it has one, and else lies in a higher cell: the rank is
    ``base[cell] + (bounds[base[cell]] < x)``.  A cell holding two or more
    thresholds has a ``base`` of -1, which stays negative, and its rows fall
    back to ``searchsorted``; so does every row when there is a single
    threshold or ``scale`` is not a positive finite number (a span that is
    infinite or subnormal).
    """

    def __init__(self, cuts: np.ndarray):
        self.cuts = cuts
        self.low = cuts[0]
        self.cells = _rank_cells(cuts.size)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            self.scale = self.cells / (cuts[-1] - cuts[0])
        if cuts.size < 2 or not 0.0 < self.scale < math.inf:
            self.scale = None
            return
        count = np.bincount(self._cell(cuts), minlength=self.cells)
        self.base = np.where(count > 1, -1, np.cumsum(count) - count)
        self.bounds = np.append(cuts, math.inf)

    def _cell(self, x: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):  # a far value's cell is the first or last
            t = x - self.low
            t *= self.scale
        return np.clip(t, 0, self.cells - 1, out=t).astype(np.intp)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self.scale is None:
            return np.searchsorted(self.cuts, x)
        cell = self._cell(x)
        rank = self.base.take(cell)
        rank += self.bounds.take(rank) < x
        crowded = np.flatnonzero(rank < 0)
        if crowded.size:
            rank[crowded] = np.searchsorted(self.cuts, x[crowded])
        return rank


def _group_ends(trees: Sequence[Tree], categories: Categories) -> list[int]:
    """Where each group of consecutive trees ends: a group grows while its
    tables and ranks (see :class:`_TreeGroup`) fit in _GROUP_BYTES, and a
    tree that alone takes more is a group of its own."""
    def table_bytes(n_cuts: dict[int, int], n_trees: int, n_leaves: int) -> int:
        rows = sum(n + 1 if categories[j] is None else categories[j].size + 1
                   for j, n in n_cuts.items())
        ranks = sum(8 * (_rank_cells(n) + n + 1) for j, n in n_cuts.items()
                    if categories[j] is None and n > 1)
        packed = -(-n_trees * -(-n_leaves // _WORD) // _PACK)
        return 8 * packed * rows + ranks

    ends: list[int] = []
    # the open group's first tree, distinct cuts per feature and widest tree
    start, cuts, leaves = 0, {}, 0
    for t, tree in enumerate(trees):
        mine: dict[int, set[float]] = {}
        for j, cut in zip(tree.feature[tree.splits].tolist(), tree.cut[tree.splits].tolist()):
            mine.setdefault(j, set()).add(cut)
        n_cuts = {j: len(c) for j, c in cuts.items()}
        for j, c in mine.items():
            n_cuts[j] = n_cuts.get(j, 0) + len(c - cuts.get(j, set()))
        if t > start and table_bytes(n_cuts, t + 1 - start,
                                     max(leaves, tree.leaves.size)) > _GROUP_BYTES:
            ends.append(t)
            start, cuts, leaves = t, {}, 0
        for j, c in mine.items():
            cuts.setdefault(j, set()).update(c)
        leaves = max(leaves, tree.leaves.size)
    return [*ends, len(trees)] if trees else []


class _TreeGroup:
    """Consecutive trees of an ensemble compiled for QuickScorer-style scoring
    (Lucchese et al., SIGIR 2015).

    Each tree's leaves are numbered left to right and a row's state in a tree
    is a bitvector over them, ``words`` 16-bit words per tree.  A split the
    row fails (it goes right) clears the bits of the leaves in its left
    subtree; the row's exit leaf is then the lowest bit still set.  The masks
    are gathered per feature, not per split.  For a continuous feature,
    ``cuts`` holds its distinct thresholds in ascending order and row ``k``
    of its table ANDs the masks of the splits at ``cuts[:k]``, so the number
    of thresholds strictly below ``x`` (exactly the splits ``x <= threshold``
    fails), found by a :class:`_ThresholdRank`, picks the row.  For a
    categorical feature, row ``c`` ANDs the masks of the splits code ``c``
    fails, and the last row, picked by code -1, those of every split.  A
    table row holds the group's words tree by tree, padded to whole 64-bit
    words, which the rows of a call are ANDed in.

    A table has a row per distinct threshold and a column per tree, so an
    ensemble is compiled as consecutive groups (:func:`_group_ends`), each
    with its own tables, and memory grows linearly with the ensemble.
    """

    def __init__(self, trees: Sequence[Tree], categories: Categories,
                 learning_rate: float):
        n_trees = len(trees)
        self.words = -(-max(t.leaves.size for t in trees) // _WORD)
        width = _WORD * self.words
        self.n_trees = n_trees
        # leaf values premultiplied by the learning rate, one row per tree
        value = np.zeros((n_trees, width))
        for t, tree in enumerate(trees):
            value[t, :tree.leaves.size] = learning_rate * tree.value[tree.leaves]
        self.leaf_value = value.ravel()
        self.leaf_base = np.arange(n_trees, dtype=np.intp)[:, None] * width
        self.packed = -(-n_trees * self.words // _PACK)  # uint64s per table row

        # every split of the group: its tree, feature, cut and mask
        tree_of = np.repeat(np.arange(n_trees), [t.splits.size for t in trees])
        feature = np.concatenate([np.empty(0, np.intp), *(t.feature[t.splits] for t in trees)])
        cut = np.concatenate([np.empty(0), *(t.cut[t.splits] for t in trees)])
        span = np.concatenate([np.empty((0, 2), np.intp), *(t.left_leaves for t in trees)])
        lane = np.arange(width)
        keep = (lane < span[:, :1]) | (lane >= span[:, 1:])
        mask = np.packbits(keep, axis=1, bitorder="little").view("<u2").astype(np.uint16)
        # per used feature: (column, threshold rank or None, table)
        self.tables: list[tuple[int, _ThresholdRank | None, np.ndarray]] = []
        for j, cats in enumerate(categories):
            on = feature == j
            if not on.any():
                continue
            if cats is None:
                cuts, rank = np.unique(cut[on], return_inverse=True)
                fails, split = rank + 1, np.arange(rank.size)
                n_rows = cuts.size + 1
            else:
                cuts, code = None, cut[on].astype(np.intp)
                n_rows = cats.size + 1
                fails, split = np.nonzero(np.arange(n_rows)[:, None] != code)
            table = np.full((n_rows, n_trees, self.words), _ONES, dtype=np.uint16)
            np.bitwise_and.at(table, (fails, tree_of[on][split]), mask[on][split])
            if cats is None:
                np.bitwise_and.accumulate(table, axis=0, out=table)
            padded = np.full((n_rows, self.packed * _PACK), _ONES, dtype=np.uint16)
            padded[:, :table[0].size] = table.reshape(n_rows, -1)
            self.tables.append((j, None if cuts is None else _ThresholdRank(cuts),
                                padded.view(np.uint64)))

    def add_scores(self, x: np.ndarray, raw: np.ndarray) -> None:
        """Add the group's leaf values to ``raw`` tree by tree, in order."""
        n, n_trees = len(x), self.n_trees
        # each row's table row per feature, looked up once for the whole call
        keys = [(x[:, j].astype(np.intp) if rank is None else rank(x[:, j]), table)
                for j, rank, table in self.tables]
        step = max(1, _BLOCK // n_trees)
        # row 0 carries the raw score and rows 1.. the trees' values, so one
        # reduce over axis 0 adds them in ensemble order.  numpy folds away
        # an axis of length 1 and would then sum a lone column pairwise, so a
        # one-row block is reduced beside a column of zeros.
        buf = np.zeros((n_trees + 1, max(2, min(n, step))))
        for start in range(0, n, step):
            rows = slice(start, min(n, start + step))
            width = rows.stop - start
            # a group of lone leaves has no tables, and every row stays in leaf 0
            bits = np.full((width, self.packed), ~np.uint64(0))
            for key, table in keys:
                bits &= table.take(key[rows], axis=0)
            bits = bits.view(np.uint16)[:, :n_trees * self.words]
            bits = bits.reshape(width, n_trees, self.words)
            bits = np.ascontiguousarray(bits.transpose(2, 1, 0))  # (words, trees, rows)
            # the lowest set bit of the lowest nonzero word; _CTZ[0] is _WORD,
            # so a zero word leaves ``leaf`` at the start of the next word
            leaf = _CTZ.take(bits[0]) + self.leaf_base
            for w in range(1, self.words):
                start_w = self.leaf_base + _WORD * w
                leaf = np.where(leaf == start_w, start_w + _CTZ.take(bits[w]), leaf)
            out = buf[:, :max(2, width)]
            out[:, width:] = 0
            out[0, :width] = raw[rows]
            out[1:, :width] = self.leaf_value.take(leaf)
            raw[rows] = np.add.reduce(out, axis=0)[:width]


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
        if not self.l2 >= 0:
            raise DataError("l2 must be non-negative")


class _TreeGrower:
    """Grows one tree on gradient/hessian targets via exact greedy splits.

    ``x[j]`` is training column j, a categorical one as codes into
    ``categories[j]``.  ``xc`` stacks the continuous columns, in schema
    order, into one ``(c, n)`` matrix, and row r of ``order`` lists the rows
    by ascending value of ``xc[r]``, ties in row order.  Each node receives
    its rows in ascending order together with its ``(c, m)`` share of
    ``order``, split off by stable partition, so no node sorts, tie order
    matches a per-node stable argsort, and one pass searches every
    continuous feature of the node.
    """

    def __init__(self, x: Sequence[np.ndarray], xc: np.ndarray, order: np.ndarray,
                 categories: Categories, g: np.ndarray, h: np.ndarray,
                 params: GbdtParams):
        self.x = x
        self.xc = xc
        self.order = order
        self.categories = categories
        self.g = g
        self.h = h
        self.p = params
        self.nodes: list[tuple[int, float, float]] = []  # feature, cut, value
        self.child: list[int] = []
        self.row_value = np.zeros(len(g))
        self._goes_left = np.zeros(len(g), dtype=bool)

    def grow(self) -> Tree:
        self._node(np.arange(len(self.g), dtype=np.intp), self.order, depth=0)
        feature, cut, value = zip(*self.nodes)
        return Tree(feature, cut, self.child, value)

    def _append(self, feature: int, cut: float, value: float) -> int:
        slot = len(self.nodes)
        self.nodes.append((feature, cut, value))
        self.child += [slot, slot]
        return slot

    def _leaf(self, rows: np.ndarray) -> int:
        value = -self.g[rows].sum() / (self.h[rows].sum() + self.p.l2)
        self.row_value[rows] = value
        return self._append(0, 0.0, value)

    def _node(self, rows: np.ndarray, order: np.ndarray, depth: int) -> int:
        if depth >= self.p.max_depth or rows.size < 2 * self.p.min_leaf_count:
            return self._leaf(rows)
        found = self._best_split(rows, order)
        if found is None:
            return self._leaf(rows)
        feature, cut = found
        column = self.x[feature][rows]
        left_mask = column <= cut if self.categories[feature] is None else column == cut
        slot = self._append(feature, cut, 0.0)
        self._goes_left[rows] = left_mask
        # every row of ``order`` holds the node's rows, so each keeps n_left
        goes_left = self._goes_left[order]
        n_left = int(left_mask.sum())
        left_order = order[goes_left].reshape(len(order), n_left)
        right_order = order[~goes_left].reshape(len(order), rows.size - n_left)
        left = self._node(rows[left_mask], left_order, depth + 1)
        right = self._node(rows[~left_mask], right_order, depth + 1)
        self.child[2 * slot: 2 * slot + 2] = left, right
        return slot

    def _best_split(self, rows: np.ndarray, order: np.ndarray) -> tuple[int, float] | None:
        """The split of most gain, as (feature, cut), or None if none gains.

        The first maximum wins within a feature, and a strictly greater gain
        across features in schema order.
        """
        g, h, lam, min_leaf = self.g[rows], self.h[rows], self.p.l2, self.p.min_leaf_count
        G, H = g.sum(), h.sum()
        parent = G * G / (H + lam)
        m = rows.size
        # continuous features, all at once: the left side takes the i + 1
        # smallest rows, and min_leaf <= i + 1 <= m - min_leaf
        lo, hi = min_leaf - 1, m - min_leaf
        sv = np.take_along_axis(self.xc, order, axis=1)
        gl = np.cumsum(self.g[order], axis=1)[:, lo:hi]
        hl = np.cumsum(self.h[order], axis=1)[:, lo:hi]
        ok = sv[:, lo:hi] != sv[:, lo + 1:hi + 1]
        gains = 0.5 * (gl**2 / (hl + lam) + (G - gl)**2 / (H - hl + lam) - parent)
        gains = np.where(ok, gains, -np.inf)
        at = gains.argmax(axis=1)
        splittable = ok.any(axis=1)

        best = None  # (gain, feature, cut)
        r = 0  # the next continuous feature's row of ``order``
        for j, cats in enumerate(self.categories):
            if cats is None:
                i = at[r]
                if splittable[r] and (best is None or gains[r, i] > best[0]):
                    cut = float((sv[r, lo + i] + sv[r, lo + i + 1]) / 2.0)
                    best = (float(gains[r, i]), j, cut)
                r += 1
                continue
            codes, inverse = np.unique(self.x[j][rows], return_inverse=True)
            counts = np.bincount(inverse)
            gl = np.bincount(inverse, weights=g)
            hl = np.bincount(inverse, weights=h)
            ok = (counts >= min_leaf) & (m - counts >= min_leaf)
            if not ok.any():
                continue
            gain = 0.5 * (gl**2 / (hl + lam)
                          + (G - gl)**2 / (H - hl + lam) - parent)
            gain = np.where(ok, gain, -np.inf)
            i = int(np.argmax(gain))
            if best is None or gain[i] > best[0]:
                best = (float(gain[i]), j, float(codes[i]))
        if best is None or best[0] <= 0.0:
            return None
        return best[1], best[2]


def _log_loss(y: np.ndarray, p: np.ndarray) -> float:
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


@dataclass(frozen=True)
class GbdtModel:
    """Trained boosted-tree classifier.

    Raw score of a row is ``base_score + learning_rate * sum(tree values)``;
    the probability is its sigmoid.  ``categories`` is the coding every
    tree's categorical splits use (see :data:`Categories`).  ``train_loss``
    holds the mean logistic loss on the training data after 0..rounds rounds.
    """

    schema: tuple[FeatureSpec, ...]
    base_score: float
    trees: tuple[Tree, ...]
    params: GbdtParams
    categories: Categories = field(repr=False, compare=False)
    train_loss: tuple[float, ...] = field(default=(), repr=False)
    _groups: tuple[_TreeGroup, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        kinds = ["continuous" if cats is None else "categorical" for cats in self.categories]
        if kinds != [f.kind for f in self.schema]:
            raise DataError("categories must have one entry per feature, "
                            "None exactly for the continuous ones")
        for tree in self.trees:
            for j, cut in zip(tree.feature[tree.splits].tolist(), tree.cut[tree.splits].tolist()):
                if not 0 <= j < len(self.schema):
                    raise DataError(f"a split on feature {j} lies outside the schema")
                cats = self.categories[j]
                if cats is not None and not (cut.is_integer() and 0 <= cut < cats.size):
                    raise DataError(f"categorical cut {cut!r} on feature {j} is not a code")
        starts = [0, *_group_ends(self.trees, self.categories)]
        object.__setattr__(self, "_groups", tuple(
            _TreeGroup(self.trees[a:b], self.categories, self.params.learning_rate)
            for a, b in zip(starts, starts[1:])))

    def _raw_scores(self, x: np.ndarray) -> np.ndarray:
        """``base_score`` plus every tree's leaf value, added tree by tree in
        ensemble order, per row of a matrix packed by :func:`_pack`."""
        raw = np.full(len(x), self.base_score)
        for group in self._groups:
            group.add_scores(x, raw)
        return raw

    def predict_rows(self, schema: tuple[FeatureSpec, ...], columns: Columns) -> np.ndarray:
        """Probabilities for bare rows; DataError on malformed rows (see
        :func:`_packed_rows`) and on NaN.  Infinite values are ordered like any
        other, so they are scored."""
        x = _packed_rows(self.schema, schema, columns, self.categories)
        if np.isnan(x).any():
            raise DataError("continuous cells must not be NaN")
        raw = self._raw_scores(x)
        return np.clip(expit(raw), _P_EPS, 1.0 - _P_EPS)

    def predict_table(self, table: LabeledTable) -> np.ndarray:
        return self.predict_rows(table.schema, table.columns)

    # --- serialization ---

    def to_json_obj(self) -> dict:
        return {
            "kind": "gbdt",
            "schema": [{"name": f.name, "kind": f.kind} for f in self.schema],
            "base_score": self.base_score,
            "params": asdict(self.params),
            "train_loss": list(self.train_loss),
            "trees": [t.to_json_obj(self.categories) for t in self.trees],
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
                categories=categories,
                train_loss=tuple(float(x) for x in obj["train_loss"]),
            )
        except (IndexError, KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed model object: {exc}") from exc

    @classmethod
    def load(cls, path: str) -> "GbdtModel":
        return cls.from_json_obj(load_json(path))


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
    categories = _table_categories(table)
    x = [col if cats is None else np.searchsorted(cats, col)
         for col, cats in zip(table.columns, categories)]
    xc = np.asarray([col for col, cats in zip(x, categories) if cats is None],
                    dtype=np.float64).reshape(-1, table.n_rows)
    order = np.argsort(xc, axis=1, kind="stable")

    raw = np.full(table.n_rows, base_score)
    p = np.clip(expit(raw), _P_EPS, 1.0 - _P_EPS)
    losses = [_log_loss(y, p)]
    trees: list[Tree] = []
    for _ in range(params.rounds):
        grower = _TreeGrower(x, xc, order, categories, g=p - y, h=p * (1.0 - p),
                             params=params)
        trees.append(grower.grow())
        raw = raw + params.learning_rate * grower.row_value
        p = np.clip(expit(raw), _P_EPS, 1.0 - _P_EPS)
        losses.append(_log_loss(y, p))

    return GbdtModel(schema=table.schema, base_score=base_score,
                     trees=tuple(trees), params=params, categories=categories,
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


# Bare rows are answered through a screen over the reference rows embedded so
# that squared Euclidean distance is the answering metric: a continuous value
# becomes ``value / scale``, a categorical one a one-hot block of weight
# sqrt(0.5) with a last slot for categories the reference lacks, so each
# mismatch adds 1.  The continuous coordinates are centred on the reference
# rows' mean m, the one-hot slots are not, and all are cast to float32: r for
# a reference row, q for a query row.  One float32 matrix product of the rows
# [-2q, 1] with the columns [r, fl(|r|**2)] scores every pair with
# p = |r|**2 - 2 q.r = |r - q|**2 - |q|**2, up to rounding.
# The row of least score is the candidate; its distance is then recomputed
# exactly as the full scan computes it.  That answer stands only when every
# other reference row is provably farther, by these bounds (u and v are the
# float64 and float32 unit roundoffs, t = 2**-149 float32's least subnormal,
# d the number of features, dim the number of coordinates, k = d + 1, R the
# largest |r| and N the largest stored |r|**2):
#
# * The scan's squared distance D sums d terms, each a square of a quotient of
#   a difference and so within (1 +- u)**5 of its exact value, in d roundings.
#   All terms are non-negative, so D is within a factor (1 +- u)**(d + 5) of
#   the exact squared distance delta whatever the magnitudes (the difference
#   of two floats is correctly rounded; it does not cancel).
# * A coordinate is rounded three times: ``value / scale`` (or sqrt(0.5)), the
#   centring, the cast.  So q_c is within 2v|q_c| + 2u|m_c| + 2t of its exact
#   centred value, and r_c likewise; the shift m cancels in r - q.  By the
#   triangle inequality sqrt(delta) and the screen's distance
#   sqrt(p + |q|**2) differ by at most
#   H = 2v(|q| + R) + 4u|m| + 4t sqrt(dim), p taken exactly.
# * p sums dim + 1 products, but at most k of them are not exactly zero: one
#   per continuous coordinate, one per categorical column (the slots of q and
#   r are both nonzero only where they share a category) and |r|**2.  Adding
#   an exact zero rounds nothing, so however many slots the one-hot blocks
#   have, p errs as a sum of k terms, whose magnitudes add up to at most
#   T = 2|q| R + N (Cauchy-Schwarz).  In any summation order, with or without
#   fused multiply-adds, it errs by at most gamma_k T with
#   gamma_k = kv / (1 - kv), plus kt for products that underflow -- provided
#   nothing overflows, which max(|q|, T) < 2**126 rules out.  The stored |r|**2 sums exact float64
#   squares and is cast, so it errs by at most 2vN + t.  Hence the computed p
#   errs by at most E = gamma_k T + 2vN + (k + 1)t.
#
# Every reference row but the candidate scores at least the runner-up's
# score p2, so its exact p + |q|**2 >= p2 + |q|**2 - E, with |q|**2 summed in
# float64 from exact squares and taken as |q|**2 (1 - v).  Then sqrt(delta) >=
# sqrt(p2 + |q|**2 - E) - H =: reach, and D >= reach**2 (1 - gamma) with
# gamma = (d + 16)u.  Evaluating these bounds in float64 errs by a few u of
# their terms, far inside the slack of the v terms above.  The absolute term
# TINY covers subnormal results.  A row whose bound is not above the
# candidate's exact distance -- ties and near ties of its two nearest rows,
# duplicate reference rows, rows beyond float32's range -- falls back to the
# full scan.
_U = np.finfo(np.float64).eps / 2.0
_V = float(np.finfo(np.float32).eps) / 2.0
_T = 2.0 ** -149
_TINY = np.finfo(np.float64).tiny
_SAFE = 2.0 ** 126
_ONE_HOT = math.sqrt(0.5)


class ExternalPredictions:
    """Predictor backed by a per-row-id probability file.

    Table rows are answered by exact row-id lookup.  Bare rows (as produced
    by explanation-time perturbation) have no id, so they are answered by the
    stored probability of the nearest reference row: continuous features are
    compared on a per-feature standardized scale, each categorical mismatch
    adds one unit of squared distance, and ties go to the lowest row index.
    A float32 matrix-product screen, built with the object, proves that row
    for nearly every query without computing every distance exactly, and a
    full scan settles the rest; the answer is the same as a full scan's, bit
    for bit.
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
        self._categories = _table_categories(reference)
        self._scale = []
        for spec, col in zip(reference.schema, reference.columns):
            if spec.kind == "continuous":
                sd = float(col.std())
                self._scale.append(sd if sd > 0 else 1.0)
            else:
                self._scale.append(None)
        self._ref = _pack(reference.columns, self._categories).T.copy()
        self._screen = self._build_screen()

    def predict_table(self, table: LabeledTable) -> np.ndarray:
        try:
            return np.asarray([self.probabilities[r] for r in table.row_ids])
        except KeyError as exc:
            raise MissingRowId(str(exc.args[0])) from None

    def predict_rows(self, schema: tuple[FeatureSpec, ...], columns: Columns) -> np.ndarray:
        x = _packed_rows(self.reference.schema, schema, columns, self._categories)
        if not np.isfinite(x).all():
            raise DataError("continuous cells must be finite")
        if len(x) and not self.reference.n_rows:
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
        """Packed rows in the screen's coordinates, before centring (see the
        note above _U)."""
        parts = [np.empty((len(x), 0))]
        for j, (scale, cats) in enumerate(zip(self._scale, self._categories)):
            if cats is None:
                parts.append(x[:, j, None] / scale)
            else:
                one_hot = np.zeros((len(x), cats.size + 1))
                # an absent category's code -1 picks the last, extra slot
                one_hot[np.arange(len(x)), x[:, j].astype(np.intp)] = _ONE_HOT
                parts.append(one_hot)
        return np.hstack(parts)

    def _build_screen(self):
        """``(m, matrix, R, N)``: the centre, the float32 ``(dim + 1, n_ref)``
        matrix of columns ``[r, fl(|r|**2)]`` and the bounds on them; None when
        a full scan is as cheap (at most two reference rows) or a scale or a
        coordinate overflows."""
        if self.reference.n_rows <= 2 or not all(
                scale is None or math.isfinite(scale) for scale in self._scale):
            return None
        with np.errstate(over="ignore", invalid="ignore"):
            ref = self._embed(self._ref.T)
            widths = [1 if cats is None else cats.size + 1 for cats in self._categories]
            continuous = np.repeat([cats is None for cats in self._categories], widths)
            centre = np.where(continuous, ref.mean(axis=0), 0.0)
            r = (ref - centre).astype(np.float32)
        if not np.isfinite(r).all():
            return None
        sq = np.einsum("ij,ij->i", r, r, dtype=np.float64)
        matrix = np.vstack([r.T, sq.astype(np.float32)])
        return centre, matrix, float(np.sqrt(sq.max())), float(matrix[-1].max())

    def _screened(self, x: np.ndarray) -> np.ndarray:
        """Per packed row, the full scan's answer where the screen proves it,
        else -1."""
        centre, matrix, r_max, n_max = self._screen
        dim = centre.size
        q = np.empty((len(x), dim + 1), dtype=np.float32)
        with np.errstate(over="ignore", invalid="ignore"):
            q[:, :dim] = self._embed(x) - centre
            q_sq = np.einsum("ij,ij->i", q[:, :dim], q[:, :dim], dtype=np.float64)
            q_norm = np.sqrt(q_sq)
            terms = 2.0 * q_norm * r_max + n_max
            safe = np.maximum(q_norm, terms) < _SAFE  # False for inf and NaN
        q[~safe] = q_sq[~safe] = q_norm[~safe] = terms[~safe] = 0.0
        q[:, :dim] *= -2.0
        q[:, dim] = 1.0
        score = q @ matrix
        rows = np.arange(len(x))
        first = score.argmin(axis=1)
        score[rows, first] = np.inf
        k = len(self._scale) + 1
        err = k * _V / (1.0 - k * _V) * terms + 2.0 * _V * n_max + (k + 1) * _T
        low = score.min(axis=1) + q_sq * (1.0 - _V) - err
        slack = (2.0 * _V * (q_norm + r_max) + 4.0 * _U * float(np.sqrt(centre @ centre))
                 + 4.0 * _T * math.sqrt(dim))
        reach = np.sqrt(np.maximum(low, 0.0)) - slack - _TINY
        bound = reach * reach * (1.0 - (len(self._scale) + 16) * _U) - _TINY
        proven = safe & (reach >= 0.0) & (bound > self._sq_distances(x, first[:, None])[:, 0])
        return np.where(proven, first, -1)

    def _nearest(self, x: np.ndarray) -> np.ndarray:
        """Lowest index of a reference row at the least distance, per row."""
        n_ref = self.reference.n_rows
        block = max(1, 2_000_000 // max(1, n_ref))
        best = np.full(len(x), -1, dtype=np.intp)
        if self._screen is not None:
            for start in range(0, len(x), block):
                best[start:start + block] = self._screened(x[start:start + block])
        todo = np.flatnonzero(best < 0)
        everyone = np.arange(n_ref)[None, :]
        for start in range(0, todo.size, block):
            rows = todo[start:start + block]
            best[rows] = np.argmin(self._sq_distances(x[rows], everyone), axis=1)
        return best


def load_external_predictions(path: str, table: LabeledTable) -> ExternalPredictions:
    """Read a ``row_id,probability`` CSV covering every row of ``table``."""
    rows = read_csv(path, ("row_id", "probability"))
    header = next(rows)
    if header != ["row_id", "probability"]:
        raise MissingColumn(f"expected header row_id,probability, got {header!r}")
    probs: dict[str, float] = {}
    for rid, cell in rows:
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
