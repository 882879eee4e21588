"""Shared builders for the test suite."""

from __future__ import annotations

from typing import Sequence

import numpy as np
from hypothesis import settings

from errlens import (
    FeatureSpec,
    LabeledTable,
    LimeConfig,
    RegionReport,
    explain_misclassified,
    find_misclassified,
    report_from_explanations,
)
from errlens.lime import PerturbationPool

# random in CI too, where the profile would otherwise inherit Hypothesis's
# derandomized "ci" profile; a failure prints the @reproduce_failure blob
# that replays it
settings.register_profile("suite", deadline=None, derandomize=False, print_blob=True)
settings.load_profile("suite")


def make_table(
    columns: Sequence[Sequence[float | str]],
    labels: Sequence[int],
    kinds: Sequence[str] | None = None,
    names: Sequence[str] | None = None,
    row_ids: Sequence[str] | None = None,
) -> LabeledTable:
    """Build a LabeledTable from plain Python lists."""
    d = len(columns)
    kinds = tuple(kinds) if kinds is not None else ("continuous",) * d
    names = tuple(names) if names is not None else tuple(f"f{j}" for j in range(d))
    cols = tuple(
        np.asarray(col, dtype=(str if kind == "categorical" else np.float64))
        for col, kind in zip(columns, kinds)
    )
    ids = (tuple(row_ids) if row_ids is not None
           else tuple(str(i) for i in range(len(labels))))
    return LabeledTable(
        schema=tuple(FeatureSpec(name, kind) for name, kind in zip(names, kinds)),
        columns=cols,
        labels=np.asarray(labels, dtype=np.int64),
        row_ids=ids,
    )


def random_table(rng: np.random.Generator, n: int, d: int) -> LabeledTable:
    """A small all-continuous table with random labels."""
    return make_table(
        [rng.normal(size=n).tolist() for _ in range(d)],
        rng.integers(0, 2, size=n).tolist(),
    )


# Predictor outputs that are not one probability per row, keyed by test id.
BAD_PREDICTOR_OUTPUTS = {
    "nan": lambda cols: np.full(len(cols[0]), np.nan),
    "outside_unit_interval": lambda cols: 3.0 * np.asarray(cols[0], dtype=float) - 1.0,
    "wrong_length": lambda cols: np.full(len(cols[0]) - 1, 0.5),
}


def find_explain_report(predictor, disc, table: LabeledTable, split: str = "test",
                        lime_config: LimeConfig = LimeConfig()) -> RegionReport:
    """The library's find -> explain -> report sequence on one split."""
    mis = find_misclassified(predictor, table, split=split)
    explanations = explain_misclassified(PerturbationPool(predictor, disc, lime_config), mis)
    return report_from_explanations(explanations, mis)


def count_table_scores(monkeypatch, predictor_class) -> list[int]:
    """Patch ``predictor_class.predict_table`` to record the row count of every
    table it scores; returns the (live) list of those counts."""
    calls: list[int] = []
    original = predictor_class.predict_table

    def counting(self, table):
        calls.append(table.n_rows)
        return original(self, table)

    monkeypatch.setattr(predictor_class, "predict_table", counting)
    return calls
