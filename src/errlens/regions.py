"""Mining poor-performance regions from per-instance explanations.

Misclassified rows are explained individually; the conditions that recur
across those explanations define candidate regions of feature space.  Each
region is then scored on the full split it came from: how many rows fall in
it (coverage) and what fraction of those the classifier gets wrong
(error rate).  Regions whose error rate clears the split's baseline mark
where the model performs poorly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .data import LabeledTable
from .errors import DataError, EmptyTable, NoExplanations
from .lime import Condition, Explanation, PerturbationPool
from .model import Metrics, Predictor, check_probabilities


@dataclass(frozen=True, slots=True)
class MisclassifiedSet:
    """One scoring pass of a predictor over one split.

    Built from the split's ``table`` and the pass's per-row ``probabilities``
    (p >= threshold is positive; threshold within [0, 1]), it derives the
    rest: ``row_ids`` are the rows the pass got wrong, in table order;
    ``wrong`` is the read-only per-row verdict (thresholded prediction !=
    label) the region counts read; ``metrics`` are the confusion counts of
    the same pass.  The probabilities are kept as a read-only copy, which
    explanations state.
    """

    table: LabeledTable = field(compare=False, repr=False)
    probabilities: np.ndarray = field(compare=False, repr=False)
    threshold: float = 0.5
    split: str = "test"  # "train", "test" or "all"
    wrong: np.ndarray = field(init=False, compare=False, repr=False)
    row_ids: tuple[str, ...] = field(init=False)
    metrics: Metrics = field(init=False)

    def __post_init__(self) -> None:
        table, threshold = self.table, self.threshold
        if table.n_rows == 0:
            raise EmptyTable("cannot scan an empty table")
        if not 0.0 <= threshold <= 1.0:
            raise DataError(f"threshold {threshold!r} is not within [0, 1]")
        # a copy, so that freezing it leaves the caller's own array writable
        probs = check_probabilities(self.probabilities, table.n_rows).copy()
        pred = probs >= threshold
        actual = table.labels == 1
        wrong = pred != actual
        wrong.flags.writeable = probs.flags.writeable = False
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "wrong", wrong)
        object.__setattr__(self, "row_ids",
                           tuple(rid for rid, bad in zip(table.row_ids, wrong) if bad))
        object.__setattr__(self, "metrics", Metrics(
            tp=int(np.sum(pred & actual)),
            fp=int(np.sum(pred & ~actual)),
            tn=int(np.sum(~pred & ~actual)),
            fn=int(np.sum(~pred & actual)),
            threshold=threshold,
        ))


def find_misclassified(predictor: Predictor, table: LabeledTable,
                       threshold: float = 0.5,
                       split: str = "test") -> MisclassifiedSet:
    """Score a table once (p >= threshold is positive)."""
    return MisclassifiedSet(table, predictor.predict_table(table), threshold, split)


def explain_misclassified(
    pool: PerturbationPool,
    misclassified: MisclassifiedSet,
) -> tuple[Explanation, ...]:
    """One explanation of ``pool.predictor`` per misclassified row of the pass's table.

    Each explanation states the probability ``misclassified``'s scoring pass
    gave its row, and fits its unperturbed sample 0 to it.  Samples 1..n-1
    are ``pool``'s, drawn and scored once for all its passes (see
    :attr:`PerturbationPool.scored`); so each equals the pool's one-row
    :meth:`~PerturbationPool.explain_rows` of its row with that probability,
    whatever the order, block or other rows.  Results are in
    ``misclassified.row_ids`` order.
    """
    table, rows = misclassified.table, np.flatnonzero(misclassified.wrong)
    return tuple(pool.explain_rows(misclassified.row_ids,
                                   [column[rows] for column in table.columns],
                                   table.labels[rows].tolist(),
                                   misclassified.probabilities[rows], misclassified.threshold))


def _check_min_support(fraction: float) -> None:
    if not 0.0 < fraction <= 1.0:
        raise DataError("min_support_fraction must be within (0, 1]")


def mine_conditions(
    explanations: Sequence[Explanation],
    min_support_fraction: float = 0.1,
) -> list[tuple[Condition, int]]:
    """Count canonical conditions across explanations and keep frequent ones.

    A condition counts at most once per explanation.  Kept conditions have
    support/len(explanations) >= min_support_fraction and are ordered by
    descending support, then ascending canonical text.
    """
    if not explanations:
        raise NoExplanations("no explanations to mine")
    _check_min_support(min_support_fraction)
    by_text: dict[str, Condition] = {}
    counts: dict[str, int] = {}
    for exp in explanations:
        for text, cond in {c.text: c for c, _ in exp.terms}.items():
            counts[text] = counts.get(text, 0) + 1
            by_text.setdefault(text, cond)
    keep = [t for t, c in counts.items()
            if c / len(explanations) >= min_support_fraction]
    keep.sort(key=lambda t: (-counts[t], t))
    return [(by_text[t], counts[t]) for t in keep]


def _json_bound(x: float | None) -> float | str | None:
    """Interval bounds as JSON values; infinities become strings."""
    if x is None or np.isfinite(x):
        return x
    return repr(x)


@dataclass(frozen=True, slots=True)
class ConditionStats:
    """A mined condition scored as a region of one data split."""

    condition: Condition
    support: int  # explanations containing the condition
    support_fraction: float
    coverage: int  # rows of the split satisfying the condition
    errors_in_region: int
    error_rate: float

    def to_json_obj(self) -> dict:
        return {
            "condition": self.condition.text,
            "feature": self.condition.feature,
            "low": _json_bound(self.condition.low),
            "high": _json_bound(self.condition.high),
            "category": self.condition.category,
            "support": self.support,
            "support_fraction": self.support_fraction,
            "coverage": self.coverage,
            "errors_in_region": self.errors_in_region,
            "error_rate": self.error_rate,
        }


@dataclass(frozen=True)
class RegionReport:
    """Scored regions of one split, sorted worst-first.

    Ordering: error_rate desc, then coverage desc, then canonical text asc.
    ``baseline_error_rate`` is the split-wide misclassification rate the
    regions should be read against; ``config`` is the configuration its
    caller states produced the report, stored as given.
    """

    split: str
    n_total: int
    n_misclassified: int
    baseline_error_rate: float
    regions: tuple[ConditionStats, ...]
    config: Mapping[str, object]

    def to_json_obj(self) -> dict:
        return {
            "split": self.split,
            "n_total": self.n_total,
            "n_misclassified": self.n_misclassified,
            "baseline_error_rate": self.baseline_error_rate,
            "regions": [r.to_json_obj() for r in self.regions],
            "config": dict(self.config),
        }


def report_from_explanations(
    explanations: Sequence[Explanation],
    misclassified: MisclassifiedSet,
    min_support_fraction: float = 0.1,
    config: Mapping[str, object] | None = None,
) -> RegionReport:
    """Mine conditions from the explanations of ``misclassified``'s rows and
    score each on the pass's table.

    ``explanations`` must follow ``misclassified.row_ids`` one to one, as
    :func:`explain_misclassified` returns them.  A condition that covers no
    row of the table is dropped.  With no misclassified rows the report has
    zero regions and baseline 0.  The report stores ``config`` as given.
    """
    _check_min_support(min_support_fraction)
    table = misclassified.table
    if tuple(e.row_id for e in explanations) != misclassified.row_ids:
        raise DataError("one explanation per misclassified row required, "
                        "in misclassified order")
    n_mis = len(misclassified.row_ids)

    stats: list[ConditionStats] = []
    if explanations:
        for cond, support in mine_conditions(explanations, min_support_fraction):
            in_region = cond.matches(table.column(cond.feature))
            coverage = int(in_region.sum())
            if coverage == 0:
                continue
            errors = int((in_region & misclassified.wrong).sum())
            stats.append(ConditionStats(
                condition=cond, support=support, support_fraction=support / n_mis,
                coverage=coverage, errors_in_region=errors, error_rate=errors / coverage,
            ))
    stats.sort(key=lambda s: (-s.error_rate, -s.coverage, s.condition.text))
    return RegionReport(
        split=misclassified.split,
        n_total=table.n_rows,
        n_misclassified=n_mis,
        baseline_error_rate=n_mis / table.n_rows,
        regions=tuple(stats),
        config=dict(config or {}),
    )
