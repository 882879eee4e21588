"""Local surrogate explanations for tabular classifiers (LIME-style).

An instance is explained by (1) discretizing continuous features into
training-set quartile bins, (2) sampling perturbed rows feature-by-feature
from the per-bin training distribution (rows of its table for a model known
only there), (3) weighting samples by an exponential kernel on binary-indicator
similarity to the instance, and (4) fitting a weighted ridge regression to the
classifier's probabilities.  The surrogate coefficients rank human-readable
feature conditions by their local influence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .data import FeatureSpec, LabeledTable, category_codes, check_seed, feature_index
from .errors import DataError, EmptyTable, SchemaMismatch, SingularSystem
from .model import Columns, ExternalPredictions, Predictor, check_probabilities
from .serialize import canonical_json_line

# --- conditions ----------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Condition:
    """A single-feature predicate with a canonical text form.

    Continuous predicates are one of ``f <= hi``, ``lo < f <= hi``,
    ``f > lo``; categorical ones are ``f = category``.  Unused bounds are
    None.  Bounds render with full (shortest round-trip) precision, so the
    text form is a faithful key for counting.
    """

    feature: str
    low: float | None = None
    high: float | None = None
    category: str | None = None
    # rendered once: terms share the pool's conditions and read it many times
    text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # plain Python floats so text form always uses shortest repr
        if self.low is not None:
            object.__setattr__(self, "low", float(self.low))
        if self.high is not None:
            object.__setattr__(self, "high", float(self.high))
        if self.category is not None:
            object.__setattr__(self, "category", str(self.category))
            if self.low is not None or self.high is not None:
                raise DataError("categorical condition cannot carry bounds")
        elif self.low is None and self.high is None:
            raise DataError("continuous condition needs at least one bound")
        elif any(math.isnan(b) for b in (self.low, self.high) if b is not None):
            raise DataError(f"NaN bound in condition on {self.feature!r}")
        elif self.low is not None and self.high is not None and not self.low < self.high:
            raise DataError(f"empty interval ({self.low!r}, {self.high!r}]")
        object.__setattr__(self, "text", (
            f"{self.feature} = {self.category}" if self.category is not None
            else f"{self.feature} <= {self.high!r}" if self.low is None
            else f"{self.feature} > {self.low!r}" if self.high is None
            else f"{self.low!r} < {self.feature} <= {self.high!r}"))

    def matches(self, values: np.ndarray) -> np.ndarray:
        """Vectorized membership test over a feature column."""
        if self.category is not None:
            return np.asarray(values) == self.category
        values = np.asarray(values, dtype=np.float64)
        if self.low is None:
            return values <= self.high
        if self.high is None:
            return values > self.low
        return (values > self.low) & (values <= self.high)


# --- discretizer ----------------------------------------------------------------


def _percentile(sorted_values: np.ndarray, q: float) -> float:
    """Linear-interpolation percentile at rank (n-1)*q of pre-sorted values."""
    n = sorted_values.size
    rank = (n - 1) * q
    lo = int(math.floor(rank))
    if lo + 1 >= n:
        return float(sorted_values[-1])
    frac = rank - lo
    return float(sorted_values[lo] + frac * (sorted_values[lo + 1] - sorted_values[lo]))


@dataclass(frozen=True, slots=True)
class ContinuousBins:
    """Quartile bins of one continuous feature.

    ``edges`` are the deduplicated 25/50/75-percentile cut points (edges that
    would leave the top bin empty are dropped); bin ``i`` is
    ``(edges[i-1], edges[i]]`` with open ends at the extremes.  Per-bin
    training statistics drive perturbation sampling; an interior bin that
    captured no training mass has frequency 0 and is never sampled.
    """

    edges: tuple[float, ...]
    frequencies: tuple[float, ...]
    means: tuple[float, ...]
    stds: tuple[float, ...]
    mins: tuple[float, ...]
    maxs: tuple[float, ...]

    @property
    def n_bins(self) -> int:
        return len(self.edges) + 1

    def bin_of(self, value: float) -> int:
        return int(np.searchsorted(self.edges, float(value), side="left"))


@dataclass(frozen=True, slots=True)
class CategoricalBins:
    """Training categories of one categorical feature with frequencies."""

    categories: tuple[str, ...]
    frequencies: tuple[float, ...]


@dataclass(frozen=True)
class Discretizer:
    """Per schema feature, its bins of that feature's kind with one entry per
    bin in each statistic (a categorical feature's bins are its categories),
    and a categorical feature's categories distinct and in ascending order,
    else DataError."""

    schema: tuple[FeatureSpec, ...]
    per_feature: tuple[ContinuousBins | CategoricalBins, ...]

    def __post_init__(self) -> None:
        if len(self.per_feature) > len(self.schema):
            raise DataError(f"{len(self.per_feature)} bins for {len(self.schema)} features")
        for j, spec in enumerate(self.schema):
            bins = self.per_feature[j] if j < len(self.per_feature) else None
            kind = CategoricalBins if spec.kind == "categorical" else ContinuousBins
            if not isinstance(bins, kind):
                raise DataError(f"feature {spec.name!r}: its bins are not {kind.__name__}")
            if kind is ContinuousBins:
                n_bins, stats = bins.n_bins, ("frequencies", "means", "stds", "mins", "maxs")
            else:
                n_bins, stats = len(bins.categories), ("frequencies",)
            for stat in stats:
                if len(getattr(bins, stat)) != n_bins:
                    raise DataError(f"feature {spec.name!r}: {len(getattr(bins, stat))} "
                                    f"{stat} for {n_bins} bins")
            # a category's code is found by a binary search of the categories
            cats = np.asarray(getattr(bins, "categories", ()), dtype=str)
            if (cats[1:] <= cats[:-1]).any():
                raise DataError(f"feature {spec.name!r}: categories are not distinct "
                                "and in ascending order")

    def index_of(self, feature: str) -> int:
        return feature_index(self.schema, feature)


def fit_discretizer(train: LabeledTable) -> Discretizer:
    """Learn per-feature bins and sampling statistics from training data."""
    if train.n_rows == 0:
        raise EmptyTable("cannot fit a discretizer on an empty table")
    per_feature: list[ContinuousBins | CategoricalBins] = []
    n = train.n_rows
    for spec, col in zip(train.schema, train.columns):
        if spec.kind == "categorical":
            cats, counts = np.unique(col, return_counts=True)
            per_feature.append(CategoricalBins(
                categories=tuple(str(c) for c in cats),
                frequencies=tuple(counts / n),
            ))
            continue
        sorted_col = np.sort(col)
        edges: list[float] = []
        for q in (0.25, 0.5, 0.75):
            e = _percentile(sorted_col, q)
            # dedupe, and drop edges at/above the maximum (they would
            # create an empty top bin)
            if (not edges or e > edges[-1]) and e < sorted_col[-1]:
                edges.append(e)
        # each bin is a slice of the sorted column, whatever the rows' order
        cuts = [0, *np.searchsorted(sorted_col, edges, side="right").tolist(), n]
        stats = []
        for b in range(len(edges) + 1):
            members = sorted_col[cuts[b]:cuts[b + 1]]
            if members.size == 0:
                # unreachable via sampling; park neutral stats at the midpoint
                mid = (edges[b - 1] + edges[b]) / 2.0
                stats.append((0.0, mid, 0.0, mid, mid))
            else:
                stats.append((members.size / n, members.mean(), members.std(),
                              members[0], members[-1]))
        freqs, means, stds, mins, maxs = (tuple(map(float, stat)) for stat in zip(*stats))
        per_feature.append(ContinuousBins(tuple(edges), freqs, means, stds, mins, maxs))
    return Discretizer(schema=train.schema, per_feature=tuple(per_feature))


def _bin_condition(feature: str, edges: tuple[float, ...], b: int) -> Condition:
    """The canonical condition describing bin ``b`` of a continuous feature."""
    if not edges:
        # single-bin feature: the whole real line
        return Condition(feature=feature, low=float("-inf"))
    if b == 0:
        return Condition(feature=feature, high=edges[0])
    if b == len(edges):
        return Condition(feature=feature, low=edges[-1])
    return Condition(feature=feature, low=edges[b - 1], high=edges[b])


def condition_for(disc: Discretizer, feature: str, value: float | str) -> Condition:
    """The canonical condition describing ``value``'s bin of ``feature``."""
    bins = disc.per_feature[disc.index_of(feature)]
    if isinstance(bins, CategoricalBins):
        return Condition(feature=feature, category=str(value))
    return _bin_condition(feature, bins.edges, bins.bin_of(value))


# --- perturbation sampling -------------------------------------------------------


def sample_perturbations(
    disc: Discretizer, n_samples: int, seed: int
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Draw perturbed samples 1..n-1, which no explained row affects.

    Each continuous feature draws a bin by training frequency, then a value
    from that bin's normal(mean, std) clamped to the bin's observed range;
    categorical features draw a category by frequency.  Returns the
    ``(n-1, d)`` drawn bins (category codes for categorical features) and
    each feature's drawn values.  The RNG is consumed feature by feature.
    DataError names a feature whose bins cannot be sampled: frequencies that
    are not a distribution, or a negative std.
    """
    if n_samples < 1:
        raise DataError("n_samples must be at least 1")
    rng = np.random.default_rng(seed)
    m = n_samples - 1
    # a feature's draws are contiguous: rows are matched feature by feature
    drawn = np.empty((len(disc.schema), m), dtype=np.intp).T
    columns: list[np.ndarray] = []
    for j, bins in enumerate(disc.per_feature):
        try:
            b = drawn[:, j] = rng.choice(len(bins.frequencies), size=m, p=bins.frequencies)
            if isinstance(bins, ContinuousBins):
                raw = rng.normal(np.asarray(bins.means)[b], np.asarray(bins.stds)[b])
        except ValueError as exc:
            raise DataError(f"feature {disc.schema[j].name!r}: its bins cannot be "
                            f"sampled: {exc}") from None
        if isinstance(bins, CategoricalBins):
            columns.append(np.asarray(bins.categories, dtype=str)[b])
        else:
            columns.append(np.clip(raw, np.asarray(bins.mins)[b], np.asarray(bins.maxs)[b]))
    return drawn, columns


def kernel_weights(z: np.ndarray, kernel_width: float) -> np.ndarray:
    """Exponential kernel exp(-d^2 / width^2), d^2 = count of 0s per row of
    0/1 indicators ``z`` (``(..., n, d)``, a row along the last axis)."""
    if not kernel_width > 0:
        raise DataError("kernel_width must be positive")
    # a product with ones sums a short row far faster than sum(axis=-1), and
    # as exactly: 0/1 terms leave every partial sum a small integer
    d2 = z.shape[-1] - z @ np.ones(z.shape[-1])
    return np.exp(-d2 / (kernel_width * kernel_width))


def default_kernel_width(n_features: int) -> float:
    return 0.75 * math.sqrt(n_features)


# --- weighted ridge surrogate ----------------------------------------------------


# Rounding leaves a collinear column's pivot about 1e-15 of its weighted square
# norm; the quick-start surrogates' pivots keep at least 0.66 of theirs.
_PIVOT_RTOL = 1e-10


def _factor(a: np.ndarray) -> None:
    """Check the Cholesky pivots of a stack of normal matrices.  A singular one
    raises :class:`SingularSystem`: in a stack, the first, as it would alone."""
    try:
        u = np.linalg.cholesky(a, upper=True)
    except np.linalg.LinAlgError as exc:
        why = str(exc)
    else:
        # pivot i squared is what is left of column i's weighted square norm
        # once the columns before it are projected out: by a rule, not by
        # rounding
        kept = np.diagonal(u, axis1=-2, axis2=-1) ** 2 / np.diagonal(a, axis1=-2, axis2=-1)
        if not (kept <= _PIVOT_RTOL).any():
            return
        why = None
    if a.ndim > 2:  # the first singular matrix of the stack raises
        for one in a.reshape(-1, *a.shape[-2:]):
            _factor(one)
    raise SingularSystem(why or f"surrogate column {int(np.argmin(kept))} is collinear")


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a stack of normal equations ``a @ beta = b`` by LAPACK, checked by
    :func:`_factor`; each equals its system's solution alone, bit for bit."""
    _factor(a)
    # b as a stack of one-column matrices: numpy reads only a 1-D b as vectors
    return np.linalg.solve(a, b[..., None])[..., 0]


def _r2(varies: np.ndarray, ss_res: np.ndarray, ss_tot: np.ndarray, n: int,
        y_max: np.ndarray, w_sum: np.ndarray) -> np.ndarray:
    """``1 - ss_res / ss_tot`` of fits of ``n`` samples whose targets vary, else
    1: nothing to explain.  Targets that differ (``varies``) vary only if
    ``ss_tot`` is above n * eps of their weight times their largest square:
    up to there it may be rounding of the fit's n-term sums alone."""
    floor = n * np.finfo(np.float64).eps * y_max * y_max * w_sum
    with np.errstate(all="ignore"):
        return np.where(varies & (ss_tot > floor), 1.0 - ss_res / ss_tot, 1.0)


def fit_local_model(
    z: np.ndarray, y: np.ndarray, weights: np.ndarray, ridge_lambda: float
) -> tuple[np.ndarray, np.ndarray | float, np.ndarray | float]:
    """Weighted ridge fits of y on z with an unpenalized intercept.

    ``z`` is ``(..., n, d)`` and ``y`` and ``weights`` are ``(..., n)``: the
    leading axes index independent fits, and a 2-D ``z`` is one fit.  Each
    solves its (d+1)-dimensional normal equations with ``ridge_lambda`` added
    to the non-intercept diagonal, by a LAPACK solve after a Cholesky pivot
    check.  Returns (coefficients ``(..., d)``, intercepts and
    weighted R^2 ``(...)``, floats for one fit); each fit of a stack equals
    that fit alone, bit for bit.  A column collinear with the intercept or the
    columns before it (say, a constant column with ``ridge_lambda`` 0) raises
    :class:`SingularSystem`, the first singular fit's in a stack.
    """
    z = np.asarray(z, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if z.ndim < 2 or y.shape != z.shape[:-1] or w.shape != y.shape:
        raise DataError("z, y, and weights must agree on the sample count")
    if (w < 0).any() or not (w.sum(axis=-1) > 0).all():
        raise DataError("weights must be non-negative with positive sum")
    if not ridge_lambda >= 0:
        raise DataError("ridge_lambda must be non-negative")

    x = np.concatenate([np.ones((*y.shape, 1)), z], axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):
        # each fit's x.T * w with a lone fit's strides, so that the stacked
        # products make a lone fit's BLAS calls, one per fit
        xtw = (x * w[..., None]).swapaxes(-1, -2)
        a = xtw @ x
        a[..., 1:, 1:] += ridge_lambda * np.eye(z.shape[-1])
        b = (xtw @ y[..., None])[..., 0]
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise DataError("the weighted normal equations are not finite")
    beta = _solve(a, b)

    pos = w > 0
    varies = np.where(pos, y, -np.inf).max(axis=-1) > np.where(pos, y, np.inf).min(axis=-1)
    with np.errstate(all="ignore"):
        y_bar = np.sum(w * y, axis=-1) / np.sum(w, axis=-1)
        ss_tot = np.sum(w * (y - y_bar[..., None]) ** 2, axis=-1)
        ss_res = np.sum(w * (y - (x @ beta[..., None])[..., 0]) ** 2, axis=-1)
    r2 = _r2(varies, ss_res, ss_tot, y.shape[-1], np.abs(y).max(axis=-1), np.sum(w, axis=-1))
    if y.ndim == 1:
        return beta[1:], float(beta[0]), float(r2)
    return beta[..., 1:], beta[..., 0], r2


def _fit_patterns(keys: np.ndarray, y0: np.ndarray, y: np.ndarray, design: np.ndarray,
                  w: np.ndarray, ridge_lambda: float
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`fit_local_model`'s stacked fits of rows whose indicators are
    binary, from each match pattern's count, sum of targets and sum of
    squared targets (less the pool's mean target).

    Row r's samples are its unperturbed sample 0, which matches every
    feature and has target ``y0[r]``, and the pool's samples, with targets
    ``y`` and match patterns ``keys[r]`` (bit j set where feature j
    matches).  ``design`` holds each pattern's row (1, then its bits) and
    ``w`` its kernel weight, so the weighted normal equations are
    design' diag(count * w) design + ridge against design' (w * sum y).
    Each fit of a stack equals that fit alone, bit for bit, and differs from
    the per-sample fit by rounding only.
    """
    rows, m = len(keys), len(design)
    # targets less the pool's mean, so that the sums of squares do not
    # cancel where targets vary little around a mean far from 0
    c = y.mean()
    dev, dev0 = y - c, y0 - c
    dev2 = dev * dev
    count, sy, syy = np.empty((3, rows, m))
    for r, key in enumerate(keys):
        count[r] = np.bincount(key, minlength=m)
        sy[r] = np.bincount(key, weights=dev, minlength=m)
        syy[r] = np.bincount(key, weights=dev2, minlength=m)
    count[:, -1] += 1.0
    sy[:, -1] += dev0
    syy[:, -1] += dev0 * dev0

    # each row's design.T * count * w is a lone row's array, so that the
    # stacked products make a lone row's BLAS calls, one per row
    cw = count * w
    a = (design.T * cw[:, None, :]) @ design
    a[:, 1:, 1:] += ridge_lambda * np.eye(design.shape[1] - 1)
    wsy = sy * w
    beta = _solve(a, (wsy[:, None, :] @ design)[:, 0])

    # R^2 by fit_local_model's rule: the squared deviations of a pattern's
    # samples from c + v sum to syy - v * (2 * sy - count * v)
    if (w > 0).all():
        lo = np.minimum(y.min(), y0)
        hi = np.maximum(y.max(), y0)
    else:  # kernel weights that underflow leave some patterns' samples out
        counted = (w > 0)[keys]
        lo = np.minimum(np.where(counted, y, np.inf).min(axis=1), y0)
        hi = np.maximum(np.where(counted, y, -np.inf).max(axis=1), y0)
    fit = (design @ beta[..., None])[..., 0]
    y_bar = (wsy.sum(axis=1) / cw.sum(axis=1))[:, None]
    ss_tot = (w * (syy - y_bar * (2.0 * sy - count * y_bar))).sum(axis=1)
    ss_res = (w * (syy - fit * (2.0 * sy - count * fit))).sum(axis=1)
    r2 = _r2(hi > lo, ss_res, ss_tot, len(y) + 1,
             np.maximum(np.abs(y).max(), np.abs(y0)), cw.sum(axis=1))
    return beta[:, 1:], beta[:, 0] + c, r2


# --- explanation ------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class LimeConfig:
    """Knobs of the explanation procedure.

    ``kernel_width=None`` resolves to 0.75*sqrt(n_features) at explain time.
    ``seed`` draws the one pool of perturbed samples that every explanation
    shares, so none depends on the order or the other rows.
    """

    n_samples: int = 5000
    kernel_width: float | None = None
    ridge_lambda: float = 1.0
    top_k: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_samples < 2:
            raise DataError("n_samples must be at least 2")
        if self.kernel_width is not None and not self.kernel_width > 0:
            raise DataError("kernel_width must be positive")
        if not 0 <= self.ridge_lambda < math.inf:
            raise DataError("ridge_lambda must be finite and non-negative")
        if self.top_k < 1:
            raise DataError("top_k must be at least 1")
        check_seed(self.seed)


@dataclass(frozen=True, slots=True)
class Explanation:
    """Ranked local explanation of one prediction.

    ``terms`` pairs each retained condition with its surrogate weight,
    ordered by descending absolute weight (ties: schema order).  The
    instance satisfies every condition by construction.
    """

    row_id: str
    true_label: int
    predicted_label: int
    predicted_probability: float
    terms: tuple[tuple[Condition, float], ...]
    intercept: float
    surrogate_r2: float

    def to_json_obj(self) -> dict:
        return {
            "row_id": self.row_id,
            "true_label": self.true_label,
            "predicted_label": self.predicted_label,
            "predicted_probability": self.predicted_probability,
            "terms": [[cond.text, weight] for cond, weight in self.terms],
            "intercept": self.intercept,
            "surrogate_r2": self.surrogate_r2,
        }


def write_explanations_jsonl(explanations: Sequence[Explanation], path: str) -> None:
    """One canonical JSON object per line, in the given order."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for exp in explanations:
            fh.write(canonical_json_line(exp.to_json_obj()))


def explain(
    pool: PerturbationPool,
    row_id: str,
    instance: Sequence[float | str],
    true_label: int,
    threshold: float = 0.5,
    *,
    probability: float | None = None,
) -> Explanation:
    """Explain one prediction of ``pool.predictor`` with a locally weighted
    ridge surrogate: the pool's :meth:`~PerturbationPool.explain_rows` of the
    one row, so lone explanations through one pool score its samples once.

    ``probability``, when given, is the score a scoring pass already gave
    the instance: sample 0, the unperturbed instance, is fitted to it and
    the explanation states it; it is checked like the predictor's answers.
    Without it, both use the predictor's answer for the bare instance; an
    :class:`ExternalPredictions` answers no bare row, so it needs
    ``probability``, else DataError.
    """
    disc = pool.disc
    if len(instance) != len(disc.schema):
        raise DataError("instance does not match the discretizer schema")
    row = [np.asarray([v], dtype=str if isinstance(b, CategoricalBins) else float)
           for b, v in zip(disc.per_feature, instance)]
    if probability is None:
        probability = check_probabilities(pool.predictor.predict_rows(disc.schema, row), 1)[0]
    (exp,) = pool.explain_rows([row_id], row, [true_label], [probability], threshold)
    return exp


# A block of rows shares one stacked surrogate fit, whose arrays (the pool's
# ``row_bytes`` per row) stay within this budget, so that a block's few
# temporaries of that size stay near what one row of a per-sample fit at the
# default 5000 samples needs (about 270 KiB on 6 features): blocks save
# calls, not memory.
_BLOCK_BYTES = 512 * 1024


class PerturbationPool:
    """The perturbed samples 1..n-1 of every explanation of ``predictor``
    under ``disc`` and ``config``.  No explained row affects them, so they are
    drawn from ``config.seed`` and scored once, on first use, and a
    difference between two rows' explanations is the model's, not the draws'.
    """

    def __init__(self, predictor: Predictor, disc: Discretizer,
                 config: LimeConfig = LimeConfig()) -> None:
        self.predictor, self.disc, self.config = predictor, disc, config
        # per feature, what codes a value (a continuous feature's edges, a
        # categorical feature's sorted training categories) and each code's
        # condition; a category unseen in training has code -1, which no draw
        # has, and a condition made from its value
        self._codings = tuple(
            (np.asarray(bins.edges, dtype=np.float64),
             tuple(_bin_condition(spec.name, bins.edges, b) for b in range(bins.n_bins)))
            if isinstance(bins, ContinuousBins) else
            (np.asarray(bins.categories, dtype=str),
             tuple(Condition(spec.name, category=c) for c in bins.categories))
            for spec, bins in zip(disc.schema, disc.per_feature))
        # LIME's indicators are binary: with no more match patterns than
        # samples, a row's fit takes its samples' patterns (keys in the
        # narrowest unsigned type) and per-pattern sums, not a design matrix
        d, n = len(disc.schema), config.n_samples
        self._width = config.kernel_width or default_kernel_width(d)
        m = 1 << d
        if m <= n:
            self._key_type = np.min_scalar_type(m - 1).type
            # what one row of a block holds: its keys, and the booleans and
            # bits that build them, per pool sample; d + 9 float64s per pattern
            self.row_bytes = (n - 1) * (2 * self._key_type().itemsize + 1) + 8 * (d + 9) * m
        else:
            self._key_type = None
            self.row_bytes = 8 * n * (d + 1)  # its design row per sample

    @cached_property
    def _patterns(self) -> tuple[np.ndarray, np.ndarray]:
        """Each match pattern's design row (1, then bit j of its number for
        feature j) and kernel weight.  Built on first use, not with the pool:
        its float matrix product and ``exp`` are a run's first, and their
        one-time set-up memory would add to the peak of the scoring passes
        that run in between."""
        d = len(self.disc.schema)
        bits = (np.arange(1 << d)[:, None] >> np.arange(d) & 1).astype(np.float64)
        return (np.concatenate([np.ones((len(bits), 1)), bits], axis=1),
                kernel_weights(bits, self._width))

    @cached_property
    def scored(self) -> tuple[np.ndarray, np.ndarray]:
        """The pool's codes (see :meth:`_codes`), in the narrowest unsigned
        type, and scores: an :class:`ExternalPredictions`' own
        :meth:`~ExternalPredictions.sample_rows`, else the predictor's scores
        of :func:`sample_perturbations`' rows."""
        predictor, n, seed = self.predictor, self.config.n_samples, self.config.seed
        if isinstance(predictor, ExternalPredictions):
            if predictor.reference.schema != self.disc.schema:
                raise SchemaMismatch("the reference table does not match the discretizer schema")
            columns, probs = predictor.sample_rows(n - 1, seed)
            drawn = self._codes(columns, n - 1)
            # a drawn -1 would match every explained row's unseen category
            unseen = (drawn < 0).any(axis=0)
            if unseen.any():
                raise DataError(f"feature {self.disc.schema[int(unseen.argmax())].name!r}: a "
                                "table row holds a category the discretizer never saw")
        else:
            drawn, columns = sample_perturbations(self.disc, n, seed)
            probs = predictor.predict_rows(self.disc.schema, columns)
        # the codes live as long as the pool, so they take as few bytes as the
        # keys do: an eighth of intp's on the benchmark inputs
        probs = check_probabilities(probs, len(drawn))
        return drawn.astype(np.min_scalar_type(drawn.max())), probs

    def _codes(self, columns: Columns, n: int) -> np.ndarray:
        """Each feature's codes of ``n`` rows given as columns, contiguous in an
        ``(n, d)`` array: a value's bin, or its training category's index (-1
        if unseen)."""
        if len(columns) != len(self._codings):
            raise DataError("rows do not match the discretizer schema")
        codes = np.empty((len(self._codings), n), dtype=np.intp).T
        for j, ((coding, _), column) in enumerate(zip(self._codings, columns)):
            codes[:, j] = (coding.searchsorted(np.asarray(column, dtype=np.float64))
                           if coding.dtype == np.float64 else category_codes(column, coding))
        return codes

    def explain_rows(self, row_ids: Sequence[str], columns: Columns,
                     true_labels: Sequence[int], probabilities: Sequence[float],
                     threshold: float = 0.5) -> list[Explanation]:
        """Explain rows, given as one column per feature, each with the score
        a scoring pass gave it.

        Rows are fitted in blocks of at most :data:`_BLOCK_BYTES`, at
        :attr:`row_bytes` per row, one stacked surrogate fit each; each
        explanation equals its row's lone :func:`explain`, bit for bit: the
        fit of a stack is each of its fits alone.  No rows score no pool.  A
        ``threshold`` outside [0, 1] is a DataError.  With ``ridge_lambda`` 0,
        a feature that every sample of a row matches is a SingularSystem
        naming it and the first such row.
        """
        if not 0.0 <= threshold <= 1.0:
            raise DataError(f"threshold {threshold!r} is not within [0, 1]")
        config, n = self.config, len(row_ids)
        codes = self._codes(columns, n)
        probabilities = check_probabilities(probabilities, n)
        if n and config.ridge_lambda == 0:
            # without a ridge, an indicator that every sample matches (sample
            # 0 does by construction) is collinear with the intercept
            drawn = self.scored[0]
            ones = (codes == drawn[0]) & (drawn == drawn[0]).all(axis=0)
            if ones.any():
                j = int(ones.any(axis=0).argmax())
                raise SingularSystem(
                    f"feature {self.disc.schema[j].name!r} matches every sample of row "
                    f"{row_ids[int(ones[:, j].argmax())]!r}, so the surrogate cannot tell "
                    "it from the intercept; a positive ridge_lambda (--ridge-lambda) fits it")
        coef, (intercept, r2) = np.empty(codes.shape), np.empty((2, n))
        step = max(1, _BLOCK_BYTES // self.row_bytes)
        for start in range(0, n, step):
            block = slice(start, start + step)
            rows, (drawn, pool_probs) = codes[block], self.scored
            if self._key_type is None:
                z = np.ones((len(rows), config.n_samples, rows.shape[1]))
                z[:, 1:] = drawn == rows[:, None, :]
                y = np.empty(z.shape[:2])
                y[:, 0], y[:, 1:] = probabilities[block], pool_probs
                fit = fit_local_model(z, y, kernel_weights(z, self._width),
                                      config.ridge_lambda)
            else:
                # bit j of a sample's key is set where its draw matches code j
                keys = np.zeros((len(rows), len(drawn)), dtype=self._key_type)
                for j, code in enumerate(rows.T):
                    keys |= (drawn[:, j] == code[:, None]) * self._key_type(1 << j)
                fit = _fit_patterns(keys, probabilities[block], pool_probs,
                                    *self._patterns, config.ridge_lambda)
            coef[block], intercept[block], r2[block] = fit

        # terms by descending absolute weight, ties in schema order
        order = np.argsort(-np.abs(coef), axis=-1, kind="stable")[:, :config.top_k]
        explanations = []
        for r, (row_id, label, prob, row_codes, row_coef) in enumerate(zip(
                row_ids, true_labels, probabilities.tolist(), codes.tolist(), coef.tolist())):
            terms = []
            for j in order[r].tolist():
                b = row_codes[j]
                cond = (self._codings[j][1][b] if b >= 0 else
                        Condition(self.disc.schema[j].name, category=str(columns[j][r])))
                terms.append((cond, row_coef[j]))
            explanations.append(Explanation(row_id, int(label), int(prob >= threshold), prob,
                                            tuple(terms), float(intercept[r]), float(r2[r])))
        return explanations
