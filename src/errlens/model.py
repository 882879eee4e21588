"""Black-box binary classifiers: a gradient-boosted tree learner and adapters.

The built-in learner is second-order (Newton) gradient boosting on logistic
loss with depth-limited regression trees grown level by level, splits
searched over 64-bin histograms, and L2 leaf regularization.  Everything
downstream (explanations, region mining) only needs the :class:`Predictor`
protocol, so externally produced probabilities or arbitrary callables plug in
the same way.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field, fields
from typing import NamedTuple, Protocol, Sequence, runtime_checkable

import numpy as np

from .data import (FeatureSpec, LabeledTable, _frozen, _read_columns, category_codes, check_seed,
                   read_csv)
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


def _probability(raw: np.ndarray) -> np.ndarray:
    """``clip(1 / (1 + exp(-raw)), _P_EPS, 1 - _P_EPS)`` with the C library's
    ``exp``, bit for bit what the logistic function of scipy gives.

    numpy's float64 ``exp`` is a vectorized approximation that differs from
    the C library's in the last bit on about 2 % of values.  Its complex
    ``exp`` calls the C library's ``cexp``, whose real part at a zero
    imaginary part is exactly ``exp`` of the real part as long as that part
    is below about 709, where ``cexp`` starts to rescale; an argument above
    700 already lands on the clip.
    """
    e = np.exp(np.minimum(-raw, 700.0).astype(np.complex128)).real
    return np.clip(1.0 / (1.0 + e), _P_EPS, 1.0 - _P_EPS)


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


def _pack(columns: Columns, categories: Categories) -> np.ndarray:
    """One (n, d) float64 matrix of the columns, categorical ones as codes,
    stored column by column so that a block of rows of one column is
    contiguous."""
    x = np.empty((len(categories), len(columns[0]))).T
    for j, (col, cats) in enumerate(zip(columns, categories)):
        x[:, j] = col if cats is None else category_codes(col, cats)
    return x


def _walk(child: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Depth-first walk from the root, left before right.

    Returns the leaves in left-to-right order, the split nodes in walk order,
    and per split node the half-open range ``[first, end)`` of the numbers of
    the leaves in its left subtree.  DataError when a node is reached twice:
    a shared child or a cycle.
    """
    kids = child.tolist()
    seen = [False] * (len(kids) // 2)
    leaves: list[int] = []
    splits: list[int] = []
    spans: list[list[int]] = []
    stack = [0]
    while stack:
        i = stack.pop()
        if i < 0:  # the left subtree of splits[~i] is done
            spans[~i][1] = len(leaves)
            continue
        if seen[i]:
            raise DataError(f"tree node {i} has two parents or lies on a cycle")
        seen[i] = True
        left, right = kids[2 * i], kids[2 * i + 1]
        if left == i:
            leaves.append(i)
            continue
        splits.append(i)
        stack += [right, ~len(spans), left]
        spans.append([len(leaves), 0])
    return (np.asarray(leaves, dtype=np.intp), np.asarray(splits, dtype=np.intp),
            np.asarray(spans, dtype=np.intp).reshape(-1, 2))


def _json_number(value: object, what: str, integral: bool = False) -> float:
    """``value``, a model file's JSON integer (``integral``) or number, never
    a bool; DataError naming ``what`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, int if integral else (int, float)):
        raise DataError(f"{what} must be {'an integer' if integral else 'a number'}, "
                        f"not {value!r}")
    return value


def _json_index(value: object, what: str) -> int:
    """``value``, a model file's JSON integer that an index array holds;
    DataError naming ``what`` otherwise."""
    intp = np.iinfo(np.intp)
    if not intp.min <= _json_number(value, what, integral=True) <= intp.max:
        raise DataError(f"{what} {value} does not fit a {intp.bits}-bit index")
    return value


class Tree:
    """Regression tree as one flat node table (node 0 is the root).

    Node ``i`` is a leaf with value ``value[i]`` iff ``child[2*i] == i``.
    Otherwise a row moves to ``child[2*i]`` (left) if it passes the split and
    to ``child[2*i + 1]`` (right) if not.  It passes a continuous split iff
    ``x[feature[i]] <= cut[i]``, the threshold, and a categorical split iff
    its category is ``categories[feature[i]][cut[i]]`` under its model's
    coding, so a category the tree cannot match goes right.  Construction
    walks the tree once (:func:`_walk`), numbering its leaves left to right
    for :class:`_TreeGroup`.
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
        child = self.child.tolist()
        for i, (j, cut, value) in enumerate(zip(self.feature.tolist(), self.cut.tolist(),
                                                self.value.tolist())):
            left, right = child[2 * i: 2 * i + 2]
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
                value[i] = _json_number(rec["leaf"], f"node {i}: leaf")
                continue
            j, left, right = (_json_index(rec[key], f"node {i}: {key}")
                              for key in ("feature", "left", "right"))
            if left == i:
                raise DataError(f"node {i}: a split is its own left child")
            cats = categories[j] if 0 <= j < len(categories) else None  # GbdtModel rejects j
            if ("category" in rec) != (cats is not None):
                raise DataError(f"node {i}: split kind does not match feature {j}")
            if cats is None:
                cut[i] = _json_number(rec["threshold"], f"node {i}: threshold")
            else:
                cut[i] = np.searchsorted(cats, rec["category"])
            feature[i] = j
            child[2 * i: 2 * i + 2] = left, right
        return cls(feature, cut, child, value)


def _distinct(col: np.ndarray) -> np.ndarray:
    """``np.unique(col)`` by a sort and a neighbour compare: a plain
    ``np.unique`` imports ``numpy.ma``, a start-up cost."""
    col = np.sort(col)
    keep = np.ones(col.size, dtype=bool)
    keep[1:] = col[1:] != col[:-1]
    return col[keep]


def _json_categories(schema: Sequence[FeatureSpec], trees: Sequence[Sequence[dict]]
                     ) -> Categories:
    """Per feature, the sorted categories a model's JSON trees split on."""
    used: list[set[str] | None] = [
        set() if f.kind == "categorical" else None for f in schema]
    for tree in trees:
        for rec in tree:
            if "category" in rec and used[rec["feature"]] is not None:
                if not isinstance(rec["category"], str):
                    raise DataError(f"category must be a string, not {rec['category']!r}")
                used[rec["feature"]].add(rec["category"])
    return tuple(None if cats is None else _frozen(np.asarray(sorted(cats), dtype=str))
                 for cats in used)


# Leaves per bitvector word, a word with every bit set, rows x trees scored
# at once, which keeps each block's temporaries near 256 KiB whatever the
# call's size, and the most bytes one group's tables may take.  (A block of
# 2**15 was slower than 2**16 when a run scored 741,000 rows; since the
# shared perturbation pool a run scores about 5,000, and 2**14 is faster.)
_WORD = 16
_ONES = (1 << _WORD) - 1
_BLOCK = 2 ** 14
_GROUP_BYTES = 2 ** 20

# The trailing zeros of every word, and _WORD for the zero word.
_CTZ = np.full(1 << _WORD, _WORD, dtype=np.uint8)
for _bit in range(_WORD):
    _CTZ[1 << _bit::2 << _bit] = _bit


def _group_ends(trees: Sequence[Tree], categories: Categories) -> list[int]:
    """Where each group of consecutive trees ends: a group grows while its
    tables (see :class:`_TreeGroup`) fit in _GROUP_BYTES, and a tree that
    alone takes more is a group of its own."""
    def table_bytes(n_cuts: dict[int, int], n_trees: int, n_leaves: int) -> int:
        rows = sum(n + 1 if categories[j] is None else categories[j].size + 1
                   for j, n in n_cuts.items())
        return 2 * n_trees * -(-n_leaves // _WORD) * rows

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
    fails), ``np.searchsorted(cuts, x)``, picks the row.  For a categorical
    feature, row ``c`` ANDs the masks of the splits code ``c`` fails, and
    the last row, picked by code -1, those of every split.  A table row
    holds the group's words tree by tree.

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

        # every split of the group: its tree, feature, cut and mask
        tree_of = np.repeat(np.arange(n_trees), [t.splits.size for t in trees])
        feature = np.concatenate([np.empty(0, np.intp), *(t.feature[t.splits] for t in trees)])
        cut = np.concatenate([np.empty(0), *(t.cut[t.splits] for t in trees)])
        span = np.concatenate([np.empty((0, 2), np.intp), *(t.left_leaves for t in trees)])
        lane = np.arange(width)
        keep = (lane < span[:, :1]) | (lane >= span[:, 1:])
        mask = np.packbits(keep, axis=1, bitorder="little").view("<u2").astype(np.uint16)
        # per used feature: (column, ascending thresholds or None, table)
        self.tables: list[tuple[int, np.ndarray | None, np.ndarray]] = []
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
            self.tables.append((j, cuts, table.reshape(n_rows, -1)))

    def add_scores(self, x: np.ndarray, raw: np.ndarray) -> None:
        """Add the group's leaf values to ``raw`` tree by tree, in order."""
        n, n_trees = len(x), self.n_trees
        # each row's table row per feature, looked up once for the whole call
        keys = [(x[:, j].astype(np.intp) if cuts is None else np.searchsorted(cuts, x[:, j]),
                 table) for j, cuts, table in self.tables]
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
            bits = np.full((width, n_trees * self.words), _ONES, dtype=np.uint16)
            for key, table in keys:
                bits &= table.take(key[rows], axis=0)
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

    ``seed`` is recorded with the model for provenance; the learner itself
    is deterministic.
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
        check_seed(self.seed)


# Most bins a training column is cut into: a continuous column of more
# distinct values gets _BINS - 1 cuts (see :func:`_bin`).
_BINS = 64


def _bin(col: np.ndarray, cats: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """A training column's bins: per bin the cut its split stores, and each
    row's bin.

    A categorical column has one bin per category, its rows' codes, and the
    split of bin ``b`` sends code ``b`` left.  A continuous column's cuts are
    midpoints of adjacent distinct values: all of them when it has at most
    _BINS distinct values, else the _BINS - 1 at equal-count positions of the
    sorted distinct values.  A row's bin is the number of cuts below its
    value, so ``x <= cuts[b]`` iff its bin is at most ``b``; the last bin,
    whose split would send every row left, stores ``inf``.
    """
    if cats is not None:
        return np.arange(cats.size, dtype=np.float64), np.searchsorted(cats, col)
    u = _distinct(col)
    at = np.arange(1, u.size) if u.size <= _BINS else np.arange(1, _BINS) * u.size // _BINS
    cuts = (u[at - 1] + u[at]) / 2.0
    return np.append(cuts, np.inf), np.searchsorted(cuts, col)


class _Bins(NamedTuple):
    """A training table in bins, as :func:`_grow` reads it.

    With ``width`` the largest bin count of a feature, ``key[i, f]`` is row
    i's bin in feature f plus ``f * width``, ``cut[f, b]`` is what a split
    on bin b of feature f stores, ``right[f * width + b]`` flags the bins
    that split sends right, and ``categorical`` lists the features whose
    split is ``bin == b`` rather than ``bin <= b``.
    """

    key: np.ndarray
    cut: np.ndarray
    right: np.ndarray
    categorical: np.ndarray


def _bin_table(columns: Columns, categories: Categories) -> _Bins:
    """The training columns in bins (see :func:`_bin`), padded to one width."""
    cuts, bins = zip(*map(_bin, columns, categories))
    width = max(c.size for c in cuts)
    cut = np.zeros((len(cuts), width))
    for f, c in enumerate(cuts):
        cut[f, :c.size] = c
    categorical = np.asarray([cats is not None for cats in categories])
    b = np.arange(width)
    right = np.where(categorical[:, None, None], b != b[:, None], b > b[:, None])
    key = np.ascontiguousarray(np.transpose(bins)) + np.arange(0, cut.size, width)
    return _Bins(key, cut, right.reshape(cut.size, width), np.flatnonzero(categorical))


def _grow(bins: _Bins, g: np.ndarray, h: np.ndarray,
          params: GbdtParams) -> tuple[Tree, np.ndarray]:
    """One tree grown level by level on gradients ``g`` and hessians ``h``,
    and each training row's leaf value.

    Each depth counts one histogram per statistic (rows, g, h) over (node,
    feature, bin) for all of its nodes with one ``np.bincount``, rows
    accumulating in row order, and then searches every node at once.  A node
    splits where the gain is largest and positive with at least
    ``min_leaf_count`` rows on each side; the first maximum wins, features in
    schema order, then bins from lowest.  The root's sums are ``g.sum()``
    and ``h.sum()``, and a child's are its side of its parent's split.  Nodes
    are numbered breadth first.
    """
    n, d = bins.key.shape
    width = bins.cut.shape[1]
    size, lam, min_leaf = d * width, params.l2, params.min_leaf_count
    categorical = bins.categorical
    gw, hw = np.repeat(g, d), np.repeat(h, d)
    at_row = np.arange(0, n * d, d)
    slot = np.zeros(n, dtype=np.intp)  # a row's node in the level, m once in a leaf
    node = np.zeros(n, dtype=np.intp)  # the number of a row's node in the tree
    total = np.array([[n], [g.sum()], [h.sum()]])  # per node of the level: rows, G, H
    found, totals = [], []  # per level: each node's split as f * width + b or -1, sums
    first = 0  # the number of the level's first node
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 / 0 at l2 0, never chosen
        for depth in range(params.max_depth + 1):
            m = total.shape[1]
            if depth == params.max_depth:
                at = np.full(m, -1)
            else:
                key = (slot * size)[:, None] + bins.key
                hist = np.concatenate([np.bincount(key.ravel(), w, (m + 1) * size)[:m * size]
                                       for w in (None, gw, hw)]).reshape(3, m, d, width)
                left = np.cumsum(hist, axis=3)
                if categorical.size:
                    left[:, :, categorical] = hist[:, :, categorical]
                cl, gl, hl = left
                count, G, H = total[:, :, None, None]
                gain = 0.5 * (gl * gl / (hl + lam) + (G - gl) ** 2 / (H - hl + lam)
                              - G * G / (H + lam))
                gain = np.where((cl >= min_leaf) & (cl <= count - min_leaf), gain, -np.inf)
                gain = gain.reshape(m, -1)
                at = np.where(gain.max(axis=1) > 0.0, gain.argmax(axis=1), -1)
            found.append(at)
            totals.append(total)
            split = at >= 0
            if not split.any():
                break
            # the children's sums, then each row's node among them, in the
            # order of their parents; a row in a leaf goes to node k, past them
            side = left.reshape(3, m, -1)[:, split, at[split]]
            other = total[:, split] - side
            k = 2 * side.shape[1]
            total = np.empty((3, k))
            total[:, ::2], total[:, 1::2] = side, other
            dest = np.full((m + 1, d, width), k)
            dest[:m][split] = (bins.right[at[split]] + np.arange(0, k, 2)[:, None])[:, None]
            feature = (np.maximum(at, 0) // width).take(slot, mode="clip")
            slot = dest.ravel()[key.ravel()[at_row + feature]]
            first += m
            node = np.where(slot < k, first + slot, node)
    at, total = np.concatenate(found), np.concatenate(totals, axis=1)
    value = -total[1] / (total[2] + lam)
    split = at >= 0
    feature, b = np.divmod(np.maximum(at, 0), width)
    child = np.repeat(np.arange(at.size), 2).reshape(-1, 2)  # a leaf is its own child
    # the k-th split node's children are 2k - 1 and 2k
    child[split] = np.arange(2, 2 * split.sum() + 1, 2)[:, None] - [1, 0]
    return Tree(feature, np.where(split, bins.cut[feature, b], 0.0), child.ravel(),
                np.where(split, 0.0, value)), value[node]


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
        """Probabilities for bare rows.  Raises SchemaMismatch unless ``schema``
        is the model's, and DataError unless there is one column per feature,
        all one-dimensional and of one length, with numeric cells that are not
        NaN where the feature is continuous.  Infinite values are ordered like
        any other, so they are scored."""
        if tuple(schema) != self.schema:
            raise SchemaMismatch(f"rows have features {[f.name for f in schema]}, "
                                 f"expected {[f.name for f in self.schema]}")
        if len(columns) != len(self.schema):
            raise DataError(f"expected {len(self.schema)} columns, got {len(columns)}")
        if any(np.ndim(col) != 1 or len(col) != len(columns[0]) for col in columns):
            raise DataError("columns must be one-dimensional and of equal length")
        try:
            x = _pack(columns, self.categories)
        except (TypeError, ValueError) as exc:
            raise DataError(f"rows are not numeric where the schema says so: {exc}") from None
        if np.isnan(x).any():
            raise DataError("continuous cells must not be NaN")
        raw = self._raw_scores(x)
        return _probability(raw)

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
            if obj["kind"] != "gbdt":
                raise DataError(f"model kind must be 'gbdt', not {obj['kind']!r}")
            schema = tuple(FeatureSpec(f["name"], f["kind"]) for f in obj["schema"])
            categories = _json_categories(schema, obj["trees"])
            params = obj["params"]
            for f in fields(GbdtParams):
                if f.name in params:
                    _json_number(params[f.name], f"params.{f.name}",
                                 integral=isinstance(f.default, int))
            return cls(
                schema=schema,
                base_score=float(_json_number(obj["base_score"], "base_score")),
                trees=tuple(Tree.from_json_obj(t, categories) for t in obj["trees"]),
                params=GbdtParams(**params),
                categories=categories,
                train_loss=tuple(float(_json_number(x, "a train_loss entry"))
                                 for x in obj["train_loss"]),
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
    # per feature, the sorted distinct values of a categorical column
    categories = tuple(_frozen(_distinct(col)) if f.kind == "categorical" else None
                       for f, col in zip(table.schema, table.columns))
    bins = _bin_table(table.columns, categories)

    raw = np.full(table.n_rows, base_score)
    p = _probability(raw)
    losses = [_log_loss(y, p)]
    trees: list[Tree] = []
    for _ in range(params.rounds):
        tree, row_value = _grow(bins, p - y, p * (1.0 - p), params)
        trees.append(tree)
        raw = raw + params.learning_rate * row_value
        p = _probability(raw)
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


class ExternalPredictions:
    """Predictor backed by a per-row-id probability file.

    An outside model is known only at the rows of its table, so table rows
    are answered by exact row-id lookup and bare rows, which have no id, are
    refused.  Explanations perturb with :meth:`sample_rows` instead: rows of
    the reference table, whose probabilities are known.
    """

    def __init__(self, probabilities: dict[str, float], reference: LabeledTable):
        self.probabilities = dict(probabilities)
        self.reference = reference
        self._ref_probs = self._lookup(reference.row_ids)

    def predict_table(self, table: LabeledTable) -> np.ndarray:
        return self._lookup(table.row_ids)

    def _lookup(self, row_ids: Sequence[str]) -> np.ndarray:
        try:
            return np.asarray([self.probabilities[r] for r in row_ids], dtype=np.float64)
        except KeyError as exc:
            raise MissingRowId(f"no probability for row id {exc.args[0]!r}") from None

    def predict_rows(self, schema: tuple[FeatureSpec, ...], columns: Columns) -> np.ndarray:
        """Refused: a bare row has no id, so the file holds no score for it."""
        raise DataError("an outside model answers only its table's rows: "
                        "pass the row's probability")

    def sample_rows(self, n: int, seed: int) -> tuple[list[np.ndarray], np.ndarray]:
        """``n`` reference rows drawn with replacement by
        ``default_rng(seed).integers``, as one column per feature, and their
        probabilities."""
        if not self.reference.n_rows:
            raise EmptyTable("no reference rows to draw from")
        rows = np.random.default_rng(seed).integers(self.reference.n_rows, size=n)
        return [col[rows] for col in self.reference.columns], self._ref_probs[rows]


def load_external_predictions(path: str, table: LabeledTable) -> ExternalPredictions:
    """Read a ``row_id,probability`` CSV covering every row of ``table``: cells as
    by :func:`load_csv`, then the first repeated id or value outside [0, 1]."""
    rows = read_csv(path, ("row_id", "probability"))
    header = next(rows)
    if header != ["row_id", "probability"]:
        raise MissingColumn(f"expected header row_id,probability, got {header!r}")
    ids, p = _read_columns(path, header, rows, [("row_id", "text"), ("probability", "continuous")])
    probs = dict(zip(ids := ids.tolist(), p.tolist()))
    # the row of the first repeated id and of the first value outside [0, 1]
    first: dict[str, int] = {}
    repeat = len(ids) if len(probs) == len(ids) else next(
        i for i, rid in enumerate(ids) if first.setdefault(rid, i) != i)
    bad = min(np.flatnonzero((p < 0.0) | (p > 1.0)), default=len(ids))
    if repeat < len(ids) and repeat <= bad:
        raise DuplicateRowId(f"{path}: row id {ids[repeat]!r} repeats")
    if bad < len(ids):
        cell = next(itertools.islice(read_csv(path), bad + 1, None))[1]
        raise ProbabilityOutOfRange(
            f"{path}: row id {ids[bad]!r}: {cell!r} is not a probability within [0, 1]")
    try:
        return ExternalPredictions(probs, table)
    except MissingRowId as exc:
        raise MissingRowId(f"{path}: {exc}") from None
