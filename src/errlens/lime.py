"""Local surrogate explanations for tabular classifiers (LIME-style).

An instance is explained by (1) discretizing continuous features into
training-set quartile bins, (2) sampling perturbed rows feature-by-feature
from the per-bin training distribution, (3) weighting samples by an
exponential kernel on binary-indicator similarity to the instance, and
(4) fitting a weighted ridge regression to the classifier's probabilities.
The surrogate coefficients rank human-readable feature conditions by their
local influence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .data import FeatureSpec, LabeledTable, check_seed, feature_index
from .errors import DataError, EmptyTable, SingularSystem
from .model import Predictor, check_probabilities
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

    @property
    def text(self) -> str:
        if self.category is not None:
            return f"{self.feature} = {self.category}"
        if self.low is None:
            return f"{self.feature} <= {self.high!r}"
        if self.high is None:
            return f"{self.feature} > {self.low!r}"
        return f"{self.low!r} < {self.feature} <= {self.high!r}"

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

    def bin_of(self, value: object) -> int:
        """The category's code; -1, which no draw has, for an unseen one."""
        value = str(value)
        return self.categories.index(value) if value in self.categories else -1


@dataclass(frozen=True)
class Discretizer:
    schema: tuple[FeatureSpec, ...]
    per_feature: tuple[ContinuousBins | CategoricalBins, ...]

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
        idx = np.searchsorted(edges, col, side="left")
        freqs, means, stds, mins, maxs = [], [], [], [], []
        for b in range(len(edges) + 1):
            members = col[idx == b]
            if members.size == 0:
                # unreachable via sampling; park neutral stats at the midpoint
                mid = (edges[b - 1] + edges[b]) / 2.0
                freqs.append(0.0)
                means.append(mid)
                stds.append(0.0)
                mins.append(mid)
                maxs.append(mid)
            else:
                freqs.append(members.size / n)
                means.append(float(members.mean()))
                stds.append(float(members.std()))
                mins.append(float(members.min()))
                maxs.append(float(members.max()))
        per_feature.append(ContinuousBins(
            edges=tuple(edges), frequencies=tuple(freqs), means=tuple(means),
            stds=tuple(stds), mins=tuple(mins), maxs=tuple(maxs),
        ))
    return Discretizer(schema=train.schema, per_feature=tuple(per_feature))


def condition_for(disc: Discretizer, feature: str, value: float | str) -> Condition:
    """The canonical condition describing ``value``'s bin of ``feature``."""
    j = disc.index_of(feature)
    bins = disc.per_feature[j]
    if isinstance(bins, CategoricalBins):
        return Condition(feature=feature, category=str(value))
    if not bins.edges:
        # single-bin feature: the whole real line
        return Condition(feature=feature, low=float("-inf"))
    b = bins.bin_of(float(value))
    if b == 0:
        return Condition(feature=feature, high=bins.edges[0])
    if b == len(bins.edges):
        return Condition(feature=feature, low=bins.edges[-1])
    return Condition(feature=feature, low=bins.edges[b - 1], high=bins.edges[b])


# --- perturbation sampling -------------------------------------------------------


def _choice(rng: np.random.Generator, frequencies: Sequence[float], m: int) -> np.ndarray:
    """``rng.choice(len(frequencies), size=m, p=frequencies)`` by the steps
    numpy takes inside it, so the same stream gives the same draws, without
    its checks of ``p``, which training frequencies always pass."""
    cdf = np.cumsum(frequencies)
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(m), side="right")


def sample_perturbations(
    disc: Discretizer, n_samples: int, seed: int
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Draw perturbed samples 1..n-1, which no explained row affects.

    Each continuous feature draws a bin by training frequency, then a value
    from that bin's normal(mean, std) clamped to the bin's observed range;
    categorical features draw a category by frequency.  Returns the
    ``(n-1, d)`` drawn bins (category codes for categorical features) and
    each feature's drawn values.  The RNG is consumed feature by feature.
    """
    if n_samples < 1:
        raise DataError("n_samples must be at least 1")
    rng = np.random.default_rng(seed)
    m = n_samples - 1
    drawn = np.empty((m, len(disc.schema)), dtype=np.intp)
    columns: list[np.ndarray] = []
    for j, bins in enumerate(disc.per_feature):
        b = drawn[:, j] = _choice(rng, bins.frequencies, m)
        if isinstance(bins, CategoricalBins):
            columns.append(np.asarray(bins.categories, dtype=str)[b])
        else:
            # what rng.normal(loc, scale) computes, from the same draws
            raw = np.asarray(bins.stds)[b] * rng.standard_normal(m)
            raw += np.asarray(bins.means)[b]
            columns.append(np.clip(raw, np.asarray(bins.mins)[b], np.asarray(bins.maxs)[b]))
    return drawn, columns


def kernel_weights(z: np.ndarray, kernel_width: float) -> np.ndarray:
    """Exponential kernel exp(-d^2 / width^2), d^2 = count of 0s per row."""
    if not kernel_width > 0:
        raise DataError("kernel_width must be positive")
    d2 = z.shape[1] - z.sum(axis=1)
    return np.exp(-d2 / (kernel_width * kernel_width))


def default_kernel_width(n_features: int) -> float:
    return 0.75 * math.sqrt(n_features)


# --- weighted ridge surrogate ----------------------------------------------------


# Rounding leaves a collinear column's pivot about 1e-15 of its weighted square
# norm; the quick-start surrogates' pivots keep at least 0.66 of theirs.
_PIVOT_RTOL = 1e-10


def fit_local_model(
    z: np.ndarray, y: np.ndarray, weights: np.ndarray, ridge_lambda: float
) -> tuple[np.ndarray, float, float]:
    """Weighted ridge fit of y on z with an unpenalized intercept.

    Solves the (d+1)-dimensional normal equations with ``ridge_lambda`` added
    to the non-intercept diagonal, via a symmetric positive-definite
    (Cholesky) solve.  Returns (coefficients, intercept, weighted R^2).
    A column collinear with the intercept or the columns before it (say, a
    constant column with ``ridge_lambda`` 0) raises :class:`SingularSystem`.
    """
    z = np.asarray(z, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if z.ndim != 2 or y.shape != (z.shape[0],) or w.shape != (z.shape[0],):
        raise DataError("z, y, and weights must agree on the sample count")
    if (w < 0).any() or not w.sum() > 0:
        raise DataError("weights must be non-negative with positive sum")
    if not ridge_lambda >= 0:
        raise DataError("ridge_lambda must be non-negative")

    x = np.hstack([np.ones((z.shape[0], 1)), z])
    with np.errstate(over="ignore", invalid="ignore"):
        xtw = x.T * w
        a = xtw @ x
        a[1:, 1:] += ridge_lambda * np.eye(z.shape[1])
        b = xtw @ y
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise DataError("the weighted normal equations are not finite")
    try:
        u = np.linalg.cholesky(a, upper=True)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    # pivot i squared is what is left of column i's weighted square norm once
    # the columns before it are projected out: by a rule, not by rounding
    kept = np.diagonal(u) ** 2 / np.diagonal(a)
    if (kept <= _PIVOT_RTOL).any():
        raise SingularSystem(f"surrogate column {int(np.argmin(kept))} is collinear")
    # a = u.T @ u: solve u.T @ t = b forward, then u @ beta = t backward, in
    # Python floats: at this size a quarter of the time numpy calls take.
    # Multiplying by the diagonal's reciprocals, as OpenBLAS's triangular
    # solve does, keeps beta closer to scipy's cho_solve than dividing does.
    u, beta = u.tolist(), b.tolist()
    n = len(beta)
    inv = [1.0 / u[i][i] for i in range(n)]
    for i in range(n):
        for k in range(i):
            beta[i] -= u[k][i] * beta[k]
        beta[i] *= inv[i]
    for i in reversed(range(n)):
        for k in range(i + 1, n):
            beta[i] -= u[i][k] * beta[k]
        beta[i] *= inv[i]
    beta = np.asarray(beta)

    r2 = 1.0  # unless the weighted target varies, there is nothing to explain
    if np.ptp(y[w > 0]) > 0.0:
        y_bar = float(np.sum(w * y) / np.sum(w))
        ss_tot = float(np.sum(w * (y - y_bar) ** 2))
        if ss_tot > 0.0:
            r2 = 1.0 - float(np.sum(w * (y - x @ beta) ** 2)) / ss_tot
    return beta[1:], float(beta[0]), float(r2)


# --- explanation ------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class LimeConfig:
    """Knobs of the explanation procedure.

    ``kernel_width=None`` resolves to 0.75*sqrt(n_features) at explain time.
    ``seed`` draws the one pool of perturbed samples that every explanation
    shares, so none depends on the order, the threads or the other rows.
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
    predictor: Predictor,
    disc: Discretizer,
    row_id: str,
    instance: Sequence[float | str],
    true_label: int,
    config: LimeConfig = LimeConfig(),
    threshold: float = 0.5,
    *,
    probability: float | None = None,
) -> Explanation:
    """Explain one prediction with a locally weighted ridge surrogate.

    ``probability``, when given, is the score a scoring pass already gave
    the instance: sample 0, the unperturbed instance, is fitted to it and
    the explanation states it; it is checked like the predictor's answers.
    Without it, both use the predictor's answer for the bare instance, which
    differs where the predictor answers a bare row with another row's score,
    as :class:`ExternalPredictions` does.  Samples 1..n-1 are the
    :class:`PerturbationPool`'s, whose explanation this equals.
    """
    return PerturbationPool(predictor, disc, config).explain(
        row_id, instance, true_label, probability, threshold)


class PerturbationPool:
    """The perturbed samples 1..n-1 of every explanation of ``predictor``
    under ``disc`` and ``config``.  No explained row affects them, so they are
    drawn from ``config.seed`` and scored once, on first use, and a
    difference between two rows' explanations is the model's, not the draws'.
    """

    def __init__(self, predictor: Predictor, disc: Discretizer,
                 config: LimeConfig = LimeConfig()) -> None:
        self.predictor, self.disc, self.config = predictor, disc, config

    @cached_property
    def scored(self) -> tuple[np.ndarray, np.ndarray]:
        """The pool's drawn bins, and the predictor's scores of its rows."""
        drawn, columns = sample_perturbations(self.disc, self.config.n_samples,
                                              self.config.seed)
        probs = self.predictor.predict_rows(self.disc.schema, columns)
        return drawn, check_probabilities(probs, len(drawn))

    def explain(self, row_id: str, instance: Sequence[float | str], true_label: int,
                probability: float | None, threshold: float = 0.5) -> Explanation:
        """:func:`explain` with this pool."""
        disc, config = self.disc, self.config
        if len(instance) != len(disc.schema):
            raise DataError("instance does not match the discretizer schema")
        if probability is None:
            row = [np.asarray([v], dtype=str if isinstance(b, CategoricalBins) else float)
                   for b, v in zip(disc.per_feature, instance)]
            probability = check_probabilities(self.predictor.predict_rows(disc.schema, row), 1)[0]
        drawn, probs = self.scored
        z = np.ones((config.n_samples, len(disc.schema)))
        z[1:] = drawn == [b.bin_of(v) for b, v in zip(disc.per_feature, instance)]
        width = config.kernel_width or default_kernel_width(len(disc.schema))
        probs = np.concatenate([check_probabilities([probability], 1), probs])
        coef, intercept, r2 = fit_local_model(z, probs, kernel_weights(z, width),
                                              config.ridge_lambda)

        order = sorted(range(len(coef)), key=lambda j: (-abs(coef[j]), j))
        terms = tuple(
            (condition_for(disc, disc.schema[j].name, instance[j]), float(coef[j]))
            for j in order[: config.top_k]
        )
        prob = float(probs[0])
        return Explanation(row_id, int(true_label), int(prob >= threshold), prob, terms,
                           intercept, r2)
