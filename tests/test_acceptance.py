"""Acceptance suite: one test per shipping criterion.

``pytest -v tests/test_acceptance.py`` prints one pass/fail line per
criterion.  Every tolerance is pinned next to its assertion.  Criterion 2
exercises the whole stack (generate -> split -> train -> explain -> mine ->
score) on a dataset with a known noisy region and requires the region to be
recovered; its artifacts are shared with criteria 5c and 6 so the expensive
end-to-end run happens once.
"""

from __future__ import annotations

import filecmp
import json
import os
import time
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import explain_one, make_table
from errlens import (
    Condition,
    Explanation,
    FunctionPredictor,
    GbdtModel,
    GbdtParams,
    LabeledTable,
    LimeConfig,
    Metrics,
    MisclassifiedSet,
    Predictor,
    RegionReport,
    default_spec,
    explain_misclassified,
    find_misclassified,
    fit_discretizer,
    fit_local_model,
    generate,
    report_from_explanations,
    split,
    train_gbdt,
)
from errlens.cli import EXIT_OK, main as cli_main
from errlens.lime import PerturbationPool


# --- shared end-to-end run on data with a planted noisy region ---------------------


@dataclass(frozen=True)
class PlantedRun:
    test_table: LabeledTable
    model: GbdtModel
    misclassified: MisclassifiedSet
    explanations: tuple[Explanation, ...]
    report: RegionReport
    seconds: float


@pytest.fixture(scope="session")
def planted_run() -> PlantedRun:
    """n=5000, d=6 uniform features, labels from a linear concept, labels
    flipped with probability 0.4 inside f0's top quartile; 25% test split;
    default training and explanation settings, single-threaded."""
    t0 = time.perf_counter()
    table, _ = generate(default_spec(n_rows=5000, n_features=6,
                                     flip_rate=0.4, seed=7))
    train_table, test_table = split(table, test_fraction=0.25, seed=7)
    model = train_gbdt(train_table, GbdtParams())
    disc = fit_discretizer(train_table)
    mis = find_misclassified(model, test_table, threshold=0.5, split="test")
    explanations = explain_misclassified(PerturbationPool(model, disc, LimeConfig()), mis)
    report = report_from_explanations(explanations, mis)
    return PlantedRun(
        test_table=test_table,
        model=model,
        misclassified=mis,
        explanations=explanations,
        report=report,
        seconds=time.perf_counter() - t0,
    )


# --- criterion 1: confusion-metric arithmetic ---------------------------------------


def test_criterion_1_metrics_match_hand_built_confusion_matrices() -> None:
    # 4 true positives-and-negatives tallied by hand: labels 1,1,1,1,0,0
    # scored 0.9,0.8,0.6,0.1,0.7,0.2 at threshold 0.5 -> tp=3 fn=1 fp=1 tn=1
    table = make_table([[0.0] * 6], [1, 1, 1, 1, 0, 0])
    probs = np.asarray([0.9, 0.8, 0.6, 0.1, 0.7, 0.2])
    metrics = find_misclassified(FunctionPredictor(table.schema, lambda c: probs),
                                 table, threshold=0.5).metrics
    assert (metrics.tp, metrics.fp, metrics.tn, metrics.fn) == (3, 1, 1, 1)
    assert metrics.recall == 0.75          # 3 / (3 + 1)
    assert metrics.precision == 0.75       # 3 / (3 + 1)
    assert metrics.accuracy == pytest.approx(4 / 6)
    assert metrics.error_rate == pytest.approx(2 / 6)

    # a probability exactly at the threshold predicts positive
    one = make_table([[0.0]], [0])
    boundary = find_misclassified(FunctionPredictor(one.schema,
                                                    lambda c: np.asarray([0.5])),
                                  one).metrics
    assert (boundary.tp, boundary.fp, boundary.tn, boundary.fn) == (0, 1, 0, 0)

    # degenerate denominators degrade to 0.0 instead of raising
    empty_rates = Metrics(tp=0, fp=0, tn=3, fn=0, threshold=0.5)
    assert empty_rates.recall == 0.0
    assert empty_rates.precision == 0.0
    assert empty_rates.error_rate == 0.0


# --- criterion 2: planted-region recovery, end to end -------------------------------


def test_criterion_2_recovers_the_planted_noisy_region(planted_run: PlantedRun) -> None:
    """At least one reported region must pin f0 inside its top quartile with
    an error rate at least twice the baseline and coverage of 50+ rows, in
    under 60 seconds single-threaded.  The lower-bound slack 0.72 allows for
    quantile estimation noise: the empirical 75th percentile of 3750 uniform
    draws has a standard error near 0.007, so 0.72 sits 4+ standard errors
    below the true box edge at 0.75."""
    report = planted_run.report
    assert planted_run.seconds < 60.0
    assert report.baseline_error_rate > 0.0

    qualifying = [
        region for region in report.regions
        if region.condition.feature == "f0"
        and region.condition.low is not None
        and region.condition.low >= 0.72
        and region.error_rate >= 2.0 * report.baseline_error_rate
        and region.coverage >= 50
    ]
    assert qualifying, (
        f"no region pins f0's top quartile at 2x baseline; "
        f"got {[r.condition.text for r in report.regions]}"
    )


# --- criterion 3: ridge solver vs an independent least-squares oracle ---------------


def test_criterion_3_ridge_fit_matches_an_independent_lstsq_oracle() -> None:
    """The weighted ridge problem (intercept unpenalized) is restated as an
    ordinary least-squares system -- rows scaled by sqrt(weight) plus one
    sqrt(lambda) row per coefficient -- and solved with np.linalg.lstsq,
    a different algorithm (SVD) from the production solve of the normal
    equations (LAPACK's LU, after a Cholesky pivot check)."""
    rng = np.random.default_rng(42)
    for _ in range(50):
        z = rng.integers(0, 2, size=(10, 6)).astype(float)
        y = rng.normal(size=10)
        w = rng.uniform(0.1, 2.0, size=10)
        lam = float(rng.uniform(0.1, 2.0))

        design = np.hstack([np.ones((10, 1)), z]) * np.sqrt(w)[:, None]
        ridge_rows = np.hstack([np.zeros((6, 1)), np.sqrt(lam) * np.eye(6)])
        expected, *_ = np.linalg.lstsq(
            np.vstack([design, ridge_rows]),
            np.concatenate([np.sqrt(w) * y, np.zeros(6)]),
            rcond=None,
        )

        coef, intercept, _ = fit_local_model(z, y, w, lam)
        assert abs(intercept - expected[0]) < 1e-8
        assert np.max(np.abs(coef - expected[1:])) < 1e-8


# --- criterion 4: quartile edges vs a brute-force percentile oracle ------------------


def oracle_percentile(values: list[int], q: float) -> float:
    """Sorted-array percentile at rank (n-1)*q, as a convex combination of
    the bracketing order statistics (the production code interpolates via
    the difference instead; on integer data both are exact in binary)."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q
    lower = int(rank)
    if lower + 1 >= len(ordered):
        return float(ordered[-1])
    frac = rank - lower
    return ordered[lower] * (1.0 - frac) + ordered[lower + 1] * frac


def test_criterion_4_quartile_edges_match_the_percentile_oracle_exactly() -> None:
    rng = np.random.default_rng(7)
    for case in range(20):
        n = int(rng.integers(1, 200))
        spread = (2, 3, 5, 50)[case % 4]  # small spreads force heavy duplication
        values = rng.integers(0, spread, size=n).tolist()

        expected: list[float] = []
        for q in (0.25, 0.5, 0.75):
            edge = oracle_percentile(values, q)
            if (not expected or edge > expected[-1]) and edge < max(values):
                expected.append(edge)

        disc = fit_discretizer(make_table([values], [0] * n))
        assert disc.per_feature[0].edges == tuple(expected), (
            f"case {case}: n={n} spread={spread}"
        )


# --- criterion 5: local-surrogate sanity --------------------------------------------


def uniform_table(seed: int, n: int = 2000, d: int = 6) -> LabeledTable:
    rng = np.random.default_rng(seed)
    return make_table([rng.uniform(size=n).tolist() for _ in range(d)],
                      [0] * n)


SLOPES = np.asarray([3.0, -2.0, 1.5, -1.0, 0.5, 2.5])


def sloped_predictor(table: LabeledTable) -> FunctionPredictor:
    def fn(columns):
        raw = sum(a * np.asarray(c, float) for a, c in zip(SLOPES, columns))
        return 1.0 / (1.0 + np.exp(-(raw - SLOPES.sum() / 2.0)))

    return FunctionPredictor(table.schema, fn)


def test_criterion_5a_constant_predictor_yields_no_weights() -> None:
    table = uniform_table(seed=0, n=500, d=4)
    constant = FunctionPredictor(table.schema,
                                 lambda c: np.full(len(c[0]), 0.7))
    pool = PerturbationPool(constant, fit_discretizer(table), LimeConfig(n_samples=1000, seed=0))
    for i in range(10):
        result = explain_one(pool, str(i), table.row_values(i), 0)
        assert all(abs(w) < 1e-6 for _, w in result.terms)


def signed_agreements(literal: bool) -> tuple[int, int]:
    """Count explanation terms over 100 instances whose weight sign agrees
    with the predictor's slope (literal) or with slope * bin contrast."""
    table = uniform_table(seed=0)
    predictor = sloped_predictor(table)
    disc = fit_discretizer(table)
    pool = PerturbationPool(predictor, disc, LimeConfig(n_samples=2000, seed=0))
    agree = total = 0
    for i in range(100):
        instance = table.row_values(i)
        result = explain_one(pool, str(i), instance, 0)
        for cond, weight in result.terms:
            j = table.index_of(cond.feature)
            if literal:
                reference = SLOPES[j]
            else:
                bins = disc.per_feature[j]
                b = bins.bin_of(float(instance[j]))
                freqs = np.asarray(bins.frequencies)
                means = np.asarray(bins.means)
                others = ((freqs @ means - freqs[b] * means[b])
                          / (1.0 - freqs[b]))
                reference = SLOPES[j] * (means[b] - others)
            total += 1
            agree += (weight > 0) == (reference > 0)
    return agree, total


@pytest.mark.xfail(
    strict=True,
    reason=(
        "A surrogate fit on binary same-bin indicators recovers, per feature, "
        "the sign of (instance-bin mean - mean of the other bins) scaled by "
        "the slope -- not the sign of the slope itself.  Instances sitting in "
        "below-average bins therefore get the opposite sign, which caps "
        "literal agreement near 50% on uniform data (measured: 48%).  The "
        "attainable form of this check is the bin-contrast variant below."
    ),
)
def test_criterion_5b_linear_predictor_weight_signs_match_the_slopes() -> None:
    agree, total = signed_agreements(literal=True)
    assert agree / total >= 0.95


def test_criterion_5b_weight_signs_match_the_slope_times_bin_contrast() -> None:
    agree, total = signed_agreements(literal=False)
    assert agree / total >= 0.95


def test_criterion_5c_every_instance_satisfies_its_own_conditions(
    planted_run: PlantedRun,
) -> None:
    table = planted_run.test_table
    index = {rid: i for i, rid in enumerate(table.row_ids)}
    assert planted_run.explanations  # exhaustive over a non-empty set
    for explanation in planted_run.explanations:
        row = table.row_values(index[explanation.row_id])
        assert explanation.terms
        for cond, _ in explanation.terms:
            value = row[table.index_of(cond.feature)]
            assert cond.matches([value])[0], (
                f"{explanation.row_id}: {cond.text} vs {value!r}"
            )


# --- criterion 6: region counts vs a brute-force row scan ----------------------------


def holds_by_hand(cond: Condition, value: float | str) -> bool:
    if cond.category is not None:
        return value == cond.category
    value = float(value)
    if cond.low is not None and not value > cond.low:
        return False
    return cond.high is None or value <= cond.high


def recount_regions(report: RegionReport, misclassified: MisclassifiedSet,
                    predictor: Predictor) -> None:
    table = misclassified.table
    probs = predictor.predict_table(table)
    threshold = misclassified.threshold
    assert report.regions  # the scan below must actually check something
    for region in report.regions:
        j = table.index_of(region.condition.feature)
        coverage = errors = 0
        for i in range(table.n_rows):
            if not holds_by_hand(region.condition, table.columns[j][i]):
                continue
            coverage += 1
            wrong = (probs[i] >= threshold) != (table.labels[i] == 1)
            errors += int(wrong)
        assert coverage == region.coverage, region.condition.text
        assert errors == region.errors_in_region, region.condition.text
        assert region.error_rate == errors / coverage


def test_criterion_6_region_counts_survive_a_brute_force_rescan(
    planted_run: PlantedRun,
) -> None:
    recount_regions(planted_run.report, planted_run.misclassified,
                    planted_run.model)

    # and again on a dataset with a categorical feature in the mix
    rng = np.random.default_rng(13)
    n = 400
    table = make_table(
        [rng.uniform(size=n).tolist(),
         rng.normal(size=n).tolist(),
         rng.choice(["a", "b", "c"], size=n).tolist()],
        rng.integers(0, 2, size=n).tolist(),
        kinds=["continuous", "continuous", "categorical"],
    )
    model = train_gbdt(table.subset(range(250)), GbdtParams(rounds=20))
    mis = find_misclassified(model, table, split="all")
    explanations = explain_misclassified(
        PerturbationPool(model, fit_discretizer(table), LimeConfig(n_samples=400, seed=1)), mis)
    recount_regions(report_from_explanations(explanations, mis), mis, model)


# --- criterion 7: byte-identical artifacts across runs --------------------------------


def test_criterion_7_pipeline_artifacts_are_byte_identical(tmp_path) -> None:
    data_dir = str(tmp_path / "data")
    assert cli_main(["synth", "--rows", "400", "--features", "4",
                     "--seed", "3", "--out-dir", data_dir]) == EXIT_OK

    def run_pipeline(name: str) -> str:
        out = str(tmp_path / name)
        code = cli_main(["pipeline", "--data", f"{data_dir}/synth.csv",
                         "--rounds", "15", "--n-samples", "300",
                         "--seed", "3", "--out-dir", out])
        assert code == EXIT_OK
        return out

    first = run_pipeline("first")
    second = run_pipeline("second")

    artifacts = sorted(os.listdir(first))
    assert "model.json" in artifacts and "report_test.svg" in artifacts
    assert sorted(os.listdir(second)) == artifacts
    match, mismatch, funny = filecmp.cmpfiles(first, second, artifacts,
                                              shallow=False)
    assert (mismatch, funny) == ([], []), f"{second}: {mismatch or funny}"
    assert match == artifacts


def test_criterion_7_mine_with_predictions_artifacts_are_byte_identical(tmp_path) -> None:
    # an outside model's explanations perturb with rows of its table, drawn
    # from the seed: the same rows whatever the run (163 misclassified rows,
    # in three blocks at 2000 samples)
    data_dir = str(tmp_path / "data")
    assert cli_main(["synth", "--rows", "400", "--features", "4",
                     "--seed", "3", "--out-dir", data_dir]) == EXIT_OK
    preds = tmp_path / "p.csv"
    rng = np.random.default_rng(3)
    preds.write_text("row_id,probability\n" + "".join(
        f"{i},{p!r}\n" for i, p in enumerate(rng.uniform(size=400).tolist())), encoding="utf-8")

    def run_mine(name: str) -> str:
        out = str(tmp_path / name)
        assert cli_main(["mine", "--data", f"{data_dir}/synth.csv", "--predictions",
                         str(preds), "--n-samples", "2000", "--seed", "3",
                         "--out-dir", out]) == EXIT_OK
        return out

    first = run_mine("first")
    artifacts = sorted(os.listdir(first))
    assert "explanations.jsonl" in artifacts and "report.json" in artifacts
    second = run_mine("second")
    assert sorted(os.listdir(second)) == artifacts
    match, mismatch, funny = filecmp.cmpfiles(first, second, artifacts, shallow=False)
    assert (mismatch, funny) == ([], []), f"{second}: {mismatch or funny}"


# --- criterion 8: training loss is non-increasing ------------------------------------


def test_criterion_8_training_loss_never_increases() -> None:
    for seed in range(10):
        rng = np.random.default_rng(seed)
        table = make_table([rng.normal(size=200).tolist() for _ in range(4)],
                           rng.integers(0, 2, size=200).tolist())
        model = train_gbdt(table, GbdtParams(rounds=30, learning_rate=0.1,
                                             l2=1.0))
        losses = np.asarray(model.train_loss)
        assert losses.size == 31
        assert np.all(np.diff(losses) <= 1e-9), f"seed {seed}"
