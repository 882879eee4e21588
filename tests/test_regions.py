"""Misclassification scanning, condition mining, and region reports."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    BAD_PREDICTOR_OUTPUTS,
    count_table_scores,
    find_explain_report,
    make_table,
    random_table,
)
from errlens import (
    Condition,
    ConditionStats,
    Explanation,
    ExternalPredictions,
    FunctionPredictor,
    GbdtModel,
    GbdtParams,
    LimeConfig,
    MisclassifiedSet,
    RegionReport,
    explain,
    explain_misclassified,
    find_misclassified,
    fit_discretizer,
    mine_conditions,
    report_from_explanations,
    train_gbdt,
    write_explanations_jsonl,
)
from errlens import lime as lime_module
from errlens.errors import DataError, EmptyTable, NoExplanations, UnknownFeature
from errlens.lime import PerturbationPool, default_kernel_width
from errlens.serialize import canonical_json


def fixed_predictor(table, probs) -> FunctionPredictor:
    values = np.asarray(probs, dtype=np.float64)
    return FunctionPredictor(table.schema, lambda cols: values[: len(cols[0])])


def explanation(row_id: str, *conds: Condition) -> Explanation:
    return Explanation(
        row_id=row_id, true_label=0, predicted_label=1,
        predicted_probability=0.9,
        terms=tuple((c, 1.0) for c in conds),
        intercept=0.1, surrogate_r2=0.5,
    )


def greater(feature: str) -> Condition:
    return Condition(feature=feature, low=1.0)


# --- finding misclassified rows ----------------------------------------------------


def test_find_misclassified_keeps_table_order_and_threshold_boundary() -> None:
    table = make_table([[0.0] * 4], [1, 0, 1, 0], row_ids=list("wxyz"))
    mis = find_misclassified(fixed_predictor(table, [0.9, 0.5, 0.2, 0.1]), table,
                             threshold=0.5, split="test")
    # row w: correct; row x: 0.5 counts as positive -> wrong; row y: missed
    assert mis.row_ids == ("x", "y")
    assert mis.split == "test" and mis.threshold == 0.5


@pytest.mark.parametrize("threshold", [math.nan, 1.5, -0.5])
def test_a_threshold_outside_the_unit_interval_is_a_data_error(threshold: float) -> None:
    # NaN would call every row negative, and its metrics would not encode
    table = make_table([[0.1, 0.9]], [0, 1])
    with pytest.raises(DataError, match="threshold"):
        MisclassifiedSet(table, [0.2, 0.8], threshold)
    pool = PerturbationPool(fixed_predictor(table, [0.2] * 9), fit_discretizer(table),
                            LimeConfig(n_samples=10))
    with pytest.raises(DataError, match="threshold"):
        explain(pool, "0", table.row_values(0), 0, threshold, probability=0.2)


@pytest.mark.parametrize("bad", sorted(BAD_PREDICTOR_OUTPUTS))
def test_find_misclassified_rejects_outputs_that_are_not_probabilities(bad: str) -> None:
    table = make_table([np.linspace(0.0, 1.0, 10).tolist()], [0, 1] * 5)
    predictor = FunctionPredictor(table.schema, BAD_PREDICTOR_OUTPUTS[bad])
    with pytest.raises(DataError, match="predictor"):
        find_misclassified(predictor, table)


def test_find_misclassified_rejects_empty_tables() -> None:
    table = make_table([[1.0]], [0]).subset([])
    with pytest.raises(EmptyTable):
        find_misclassified(fixed_predictor(table, []), table)


def test_explanations_follow_the_misclassified_order() -> None:
    rng = np.random.default_rng(3)
    table = random_table(rng, 60, 3)
    model = train_gbdt(table.subset(range(40)), GbdtParams(rounds=5))
    mis = find_misclassified(model, table, split="all")
    disc = fit_discretizer(table)
    config = LimeConfig(n_samples=120, seed=2)
    explanations = explain_misclassified(PerturbationPool(model, disc, config), mis)
    assert tuple(e.row_id for e in explanations) == mis.row_ids


def test_a_batch_scores_one_pool_in_one_predictor_call() -> None:
    rng = np.random.default_rng(5)
    table = random_table(rng, 40, 3)
    calls = []

    def score(cols):
        calls.append(len(cols[0]))
        return 1.0 / (1.0 + np.exp(-(np.asarray(cols[0], dtype=np.float64) - 0.5)))

    predictor = FunctionPredictor(table.schema, score)
    mis = find_misclassified(predictor, table, split="all")
    assert len(mis.row_ids) >= 2 and calls == [40]
    calls.clear()
    pool = PerturbationPool(predictor, fit_discretizer(table), LimeConfig(n_samples=300))
    explanations = explain_misclassified(pool, mis)
    assert len(explanations) == len(mis.row_ids)
    assert calls == [299]


def test_an_explanation_states_the_probability_the_scoring_pass_gave_its_row() -> None:
    # a and b share their features; b is the one misclassified row, and only
    # its id tells its 0.3 from a's 0.7
    table = make_table([[0.5, 0.5, 0.0, 1.0]], [1, 1, 0, 1], row_ids=list("abcd"))
    predictor = ExternalPredictions({"a": 0.7, "b": 0.3, "c": 0.2, "d": 0.9}, table)
    mis = find_misclassified(predictor, table, split="all")
    assert mis.row_ids == ("b",)
    (exp,) = explain_misclassified(
        PerturbationPool(predictor, fit_discretizer(table), LimeConfig(n_samples=50)), mis)
    assert (exp.predicted_probability, exp.predicted_label) == (0.3, 0)


def test_sample_zero_is_fitted_to_the_score_the_scoring_pass_gave_its_row() -> None:
    # as above: a row at b's features may be a, with 0.7, or b, with 0.3,
    # so the fit shows which of them its unperturbed sample 0 carries
    table = make_table([[0.5, 0.5, 0.0, 1.0]], [1, 1, 0, 1], row_ids=list("abcd"))
    probs = {"a": 0.7, "b": 0.3, "c": 0.2, "d": 0.9}
    predictor = ExternalPredictions(probs, table)
    disc, config = fit_discretizer(table), LimeConfig(n_samples=50)
    mis = find_misclassified(predictor, table, split="all")
    (exp,) = explain_misclassified(PerturbationPool(predictor, disc, config), mis)
    # the pool's samples 1..49 are table rows, each with its given score
    rows = np.random.default_rng(config.seed).integers(4, size=49)
    drawn = np.asarray([[disc.per_feature[0].bin_of(v)] for v in table.columns[0][rows]])
    answers = [probs[table.row_ids[i]] for i in rows]
    assert {0.7, 0.3} <= set(answers)
    # the surrogate sees its samples through each match pattern's kernel
    # weight, count and sum of targets: sample 0 and the draws in b's bin
    # match, the others do not
    matches = [True, *(drawn[:, 0] == disc.per_feature[0].bin_of(0.5)).tolist()]
    weight = {True: 1.0, False: math.exp(-1.0 / default_kernel_width(1) ** 2)}
    fits = {}
    for target in (0.3, 0.7):
        count, total = {True: 0, False: 0}, {True: 0.0, False: 0.0}
        for match, y in zip(matches, [target, *answers]):
            count[match] += 1
            total[match] += y
        # the normal equations [[W, W1], [W1, W1 + lambda]] @ (b0, b1) = (S, S1)
        w_all = weight[True] * count[True] + weight[False] * count[False]
        w_one = weight[True] * count[True] + config.ridge_lambda
        s_all = weight[True] * total[True] + weight[False] * total[False]
        s_one = weight[True] * total[True]
        det = w_all * w_one - (weight[True] * count[True]) ** 2
        fits[target] = ((s_all * w_one - weight[True] * count[True] * s_one) / det,
                        (w_all * s_one - weight[True] * count[True] * s_all) / det)
    assert exp.intercept == pytest.approx(fits[0.3][0], rel=1e-12)
    assert exp.terms[0][1] == pytest.approx(fits[0.3][1], rel=1e-12)
    assert abs(exp.intercept - fits[0.7][0]) > 1e-3
    # the surrogate's value at sample 0 (z all ones) moves toward b's own score
    # (measured on the pool: 0.531 against 0.547)
    assert sum(fits[0.7]) - sum(fits[0.3]) > 0.01


@pytest.mark.parametrize("block", [1, 3, None])
def test_explanation_bytes_do_not_depend_on_the_block_size(
    tmp_path, monkeypatch, block: int | None,
) -> None:
    rng = np.random.default_rng(12)
    table = make_table(
        [rng.uniform(size=80).tolist(), rng.uniform(size=80).tolist(),
         rng.choice(["a", "b", "c", "d"], size=80).tolist()],
        rng.integers(0, 2, size=80).tolist(), kinds=["continuous"] * 2 + ["categorical"])

    def score(cols):
        x0, x1 = (np.asarray(c, dtype=np.float64) for c in cols[:2])
        return 1.0 / (1.0 + np.exp(-(x0 - x1 + 0.5 * (np.asarray(cols[2]) == "a"))))

    predictor = FunctionPredictor(table.schema, score)
    # fitted without category "d", so some explained rows hold an unseen one
    disc = fit_discretizer(table.subset(np.flatnonzero(table.columns[2] != "d")))
    config = LimeConfig(n_samples=150, seed=4)
    mis = find_misclassified(predictor, table, split="all")
    assert len(mis.row_ids) >= 8

    def written(path) -> bytes:
        write_explanations_jsonl(
            explain_misclassified(PerturbationPool(predictor, disc, config), mis),
            str(path))
        return path.read_bytes()

    reference = written(tmp_path / "reference.jsonl")  # the budget's own blocks
    stacks = []
    fit = lime_module._fit_patterns
    monkeypatch.setattr(lime_module, "_fit_patterns",
                        lambda keys, *args: stacks.append(len(keys)) or fit(keys, *args))
    # 2**3 match patterns for 150 samples: a row holds its 149 one-byte keys,
    # their booleans and bits, and 3 + 9 float64s per pattern
    row_bytes = PerturbationPool(predictor, disc, config).row_bytes
    assert row_bytes == 149 * 3 + 8 * 12 * 8
    rows = block or len(mis.row_ids)
    monkeypatch.setattr(lime_module, "_BLOCK_BYTES", rows * row_bytes)
    assert written(tmp_path / "blocks.jsonl") == reference
    full, rest = divmod(len(mis.row_ids), rows)
    assert sorted(stacks) == sorted([rows] * full + [rest] * (rest > 0))
    assert b'"f2 = d"' in reference


def test_rows_that_do_not_match_the_discretizer_are_a_data_error() -> None:
    table = random_table(np.random.default_rng(7), 30, 2)

    class Loose:  # answers any rows without checking their schema
        def predict_table(self, table):
            return np.linspace(0.0, 1.0, table.n_rows)

        def predict_rows(self, schema, columns):
            return np.full(len(columns[0]), 0.5)

    predictor = Loose()
    mis = find_misclassified(predictor, table, split="all")
    disc = fit_discretizer(make_table([table.columns[0].tolist()], table.labels.tolist()))
    with pytest.raises(DataError, match="discretizer"):
        explain_misclassified(PerturbationPool(predictor, disc, LimeConfig(n_samples=50)), mis)


# --- mining ---------------------------------------------------------------------


def test_mining_counts_each_condition_once_per_explanation() -> None:
    a, b, c = greater("a"), greater("b"), greater("c")
    explanations = [explanation("0", a, b), explanation("1", a, c),
                    explanation("2", a)]
    assert mine_conditions(explanations, 0.5) == [(a, 3)]
    assert mine_conditions(explanations, 0.3) == [(a, 3), (b, 1), (c, 1)]
    assert mine_conditions(explanations, 1.0) == [(a, 3)]


def test_repeats_inside_one_explanation_do_not_inflate_support() -> None:
    a = greater("a")
    assert mine_conditions([explanation("0", a, a)], 0.1) == [(a, 1)]


def test_mining_rejects_empty_input_and_bad_support_bounds() -> None:
    with pytest.raises(NoExplanations):
        mine_conditions([], 0.5)
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(DataError):
            mine_conditions([explanation("0", greater("a"))], bad)


def test_report_rejects_bad_support_bounds_even_with_nothing_to_mine() -> None:
    table = make_table([[1.0, 2.0]], [0, 1])
    mis = find_misclassified(fixed_predictor(table, [0.1, 0.9]), table)
    assert mis.row_ids == ()
    assert report_from_explanations([], mis).regions == ()
    for bad in (0.0, 5.0, float("nan")):
        with pytest.raises(DataError, match="min_support_fraction"):
            report_from_explanations([], mis, min_support_fraction=bad)


@given(
    st.lists(
        st.lists(st.sampled_from("abcdef"), min_size=1, max_size=4),
        min_size=1, max_size=20,
    ),
    st.floats(min_value=0.05, max_value=1.0),
)
def test_mined_supports_match_a_brute_force_recount(
    term_sets: list[list[str]], min_support: float
) -> None:
    explanations = [
        explanation(str(i), *(greater(ch) for ch in chars))
        for i, chars in enumerate(term_sets)
    ]
    counts: dict[str, int] = {}
    for chars in term_sets:
        for ch in set(chars):
            counts[ch] = counts.get(ch, 0) + 1
    expected = sorted(
        ((ch, n) for ch, n in counts.items()
         if n / len(term_sets) >= min_support),
        key=lambda item: (-item[1], greater(item[0]).text),
    )
    mined = [(cond.feature, n) for cond, n in mine_conditions(explanations,
                                                              min_support)]
    assert mined == expected


# --- scoring one region ---------------------------------------------------------


def test_region_stats_count_covered_rows_and_their_errors() -> None:
    table = make_table([list(range(10))], [0] * 10)
    probs = [0.1] * 10
    probs[7] = 0.9  # the one mistake, inside the region
    mis = find_misclassified(fixed_predictor(table, probs), table)
    report = report_from_explanations(
        [explanation("7", Condition(feature="f0", low=5.5))], mis)
    (stats,) = report.regions
    assert stats.coverage == 4
    assert stats.errors_in_region == 1
    assert stats.error_rate == 0.25
    assert stats.support == 1 and stats.support_fraction == 1.0


# --- assembling reports ------------------------------------------------------------


def test_report_orders_regions_by_rate_then_coverage_then_text() -> None:
    # f0 in [0..5]; labels all 0; mistakes at rows 4 and 5
    table = make_table([[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]], [0] * 6)
    predictor = fixed_predictor(table, [0.1, 0.1, 0.1, 0.1, 0.9, 0.9])
    mis = find_misclassified(predictor, table, split="test")
    half = Condition(feature="f0", low=2.5)        # covers 3, errors 2
    top = Condition(feature="f0", low=3.5)         # covers 2, errors 2
    low = Condition(feature="f0", high=2.5)        # covers 3, errors 0
    explanations = [explanation("4", top, half, low),
                    explanation("5", top, half, low)]
    report = report_from_explanations(explanations, mis)
    ordering = [(r.condition.text, r.coverage, r.error_rate)
                for r in report.regions]
    assert ordering == [
        ("f0 > 3.5", 2, 1.0),
        ("f0 > 2.5", 3, pytest.approx(2 / 3)),
        ("f0 <= 2.5", 3, 0.0),
    ]
    assert report.baseline_error_rate == pytest.approx(1 / 3)
    assert report.n_total == 6 and report.n_misclassified == 2
    assert report.regions[0].support == 2
    assert report.regions[0].support_fraction == 1.0


def test_report_drops_conditions_that_cover_nothing() -> None:
    table = make_table([[1.0, 2.0]], [0, 0])
    predictor = fixed_predictor(table, [0.9, 0.1])
    mis = find_misclassified(predictor, table, split="test")
    nowhere = Condition(feature="f0", low=50.0)
    report = report_from_explanations([explanation("0", nowhere)], mis)
    assert report.regions == ()


def test_report_requires_one_explanation_per_misclassified_row() -> None:
    table = make_table([[1.0, 2.0]], [0, 0])
    predictor = fixed_predictor(table, [0.9, 0.1])
    mis = find_misclassified(predictor, table, split="test")
    with pytest.raises(DataError):
        report_from_explanations([], mis)


def test_report_requires_explanations_of_the_misclassified_rows_in_order() -> None:
    table = make_table([[1.0, 2.0, 3.0]], [0, 0, 0])
    mis = find_misclassified(fixed_predictor(table, [0.1, 0.9, 0.9]), table)
    assert mis.row_ids == ("1", "2")
    for ids in (["0", "2"], ["2", "1"]):  # a correct row; the right rows reordered
        explanations = [explanation(rid, greater("f0")) for rid in ids]
        with pytest.raises(DataError, match="misclassified"):
            report_from_explanations(explanations, mis)


def test_report_rejects_an_explanation_of_a_feature_the_table_lacks() -> None:
    table = make_table([[1.0, 2.0]], [0, 0])
    mis = find_misclassified(fixed_predictor(table, [0.9, 0.1]), table)
    with pytest.raises(UnknownFeature, match="'nope'"):
        report_from_explanations([explanation("0", greater("nope"))], mis)


def test_report_stores_the_given_config_verbatim() -> None:
    table = make_table([[1.0, 2.0]], [0, 0])
    predictor = fixed_predictor(table, [0.9, 0.1])
    mis = find_misclassified(predictor, table, threshold=0.4, split="train")
    config = {"threshold": 0.4, "min_support": 0.2, "top_k": 3, "n_samples": 100,
              "kernel_width": None, "ridge_lambda": 1.0, "seed": 8}
    report = report_from_explanations(
        [explanation("0", greater("f0"))], mis, min_support_fraction=0.2, config=config,
    )
    assert report.config == config
    assert report.to_json_obj()["config"] == config
    assert report_from_explanations([explanation("0", greater("f0"))], mis).config == {}


def test_build_report_is_consistent_with_the_evaluation_metrics() -> None:
    rng = np.random.default_rng(12)
    table = random_table(rng, 80, 3)
    model = train_gbdt(table.subset(range(50)), GbdtParams(rounds=5))
    report = find_explain_report(model, fit_discretizer(table), table, split="all",
                                 lime_config=LimeConfig(n_samples=150, seed=1))
    metrics = find_misclassified(model, table).metrics
    assert report.baseline_error_rate == pytest.approx(metrics.error_rate)
    assert report.n_misclassified == metrics.fp + metrics.fn
    for region in report.regions:
        assert 1 <= region.coverage <= table.n_rows
        assert 0.0 <= region.error_rate <= 1.0
        assert region.errors_in_region <= report.n_misclassified


def test_find_explain_report_scores_the_table_once(monkeypatch) -> None:
    rng = np.random.default_rng(12)
    table = random_table(rng, 80, 3)
    model = train_gbdt(table.subset(range(50)), GbdtParams(rounds=5))
    calls = count_table_scores(monkeypatch, GbdtModel)
    report = find_explain_report(model, fit_discretizer(table), table, split="all",
                                 lime_config=LimeConfig(n_samples=150, seed=1))
    assert calls == [80]
    assert report.regions  # every region was counted without a second pass


_CONDITIONS = (Condition(feature="f0", low=0.0), Condition(feature="f0", high=0.5),
               Condition(feature="f1", low=-0.5), Condition(feature="f1", high=1.0))


@given(st.data())
def test_permuting_rows_and_probabilities_together_permutes_the_pass(data) -> None:
    n = data.draw(st.integers(1, 25), label="n")
    column = st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)
    table = make_table([data.draw(column), data.draw(column)],
                       data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
                       row_ids=[f"r{i}" for i in range(n)])
    probs = np.asarray(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    perm = np.asarray(data.draw(st.permutations(range(n))), dtype=np.intp)
    terms = {rid: data.draw(st.lists(st.sampled_from(_CONDITIONS), min_size=1, max_size=3))
             for rid in table.row_ids}

    mis = MisclassifiedSet(table, probs)
    moved = MisclassifiedSet(table.subset(perm), probs[perm])
    assert np.array_equal(moved.wrong, mis.wrong[perm])
    assert np.array_equal(moved.probabilities, mis.probabilities[perm])
    assert moved.metrics == mis.metrics

    def counts(scored: MisclassifiedSet) -> dict:
        explanations = [explanation(rid, *terms[rid]) for rid in scored.row_ids]
        return {r.condition.text: (r.coverage, r.errors_in_region)
                for r in report_from_explanations(explanations, scored).regions}

    assert counts(moved) == counts(mis)


def test_the_misclassified_mask_is_read_only() -> None:
    table = make_table([[1.0, 2.0]], [0, 0])
    mis = find_misclassified(fixed_predictor(table, [0.9, 0.1]), table)
    assert mis.wrong.tolist() == [True, False]
    with pytest.raises(ValueError):
        mis.wrong[1] = True


def test_a_perfect_predictor_yields_an_empty_report() -> None:
    table = make_table([[1.0, 2.0]], [0, 1])
    perfect = fixed_predictor(table, [0.1, 0.9])
    report = find_explain_report(perfect, fit_discretizer(table), table)
    assert report.regions == ()
    assert report.baseline_error_rate == 0.0


def test_region_reports_round_trip_through_json_with_infinite_bounds() -> None:
    stats = ConditionStats(
        condition=Condition(feature="f0", low=float("-inf")),
        support=2, support_fraction=0.5, coverage=4, errors_in_region=1,
        error_rate=0.25,
    )
    report = RegionReport(
        split="test", n_total=8, n_misclassified=4, baseline_error_rate=0.5,
        regions=(stats,), config={"seed": 0},
    )
    text = canonical_json(report.to_json_obj())  # strict JSON: no bare Infinity
    assert '"low": "-inf"' in text
