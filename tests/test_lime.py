"""Discretization, perturbation sampling, the weighted ridge surrogate, and
per-instance explanations."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from conftest import BAD_PREDICTOR_OUTPUTS, make_table
from errlens import (
    Condition,
    FunctionPredictor,
    LimeConfig,
    condition_for,
    explain,
    fit_discretizer,
    fit_local_model,
    instance_seed,
    kernel_weights,
    sample_perturbations,
    write_explanations_jsonl,
)
from errlens.errors import DataError, ProbabilityOutOfRange, SingularSystem, UnknownFeature
from errlens.lime import default_kernel_width, fnv1a64


# --- seeding ---------------------------------------------------------------------


def test_row_id_hash_matches_published_fnv1a_vectors() -> None:
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("a") == 0xAF63DC4C8601EC8C
    assert fnv1a64("foobar") == 0x85944171F73967E8


def test_instance_seeds_mix_base_seed_and_row_id() -> None:
    assert instance_seed(0, "foobar") == 0x85944171F73967E8
    assert instance_seed(3, "r1") == 3 ^ fnv1a64("r1")
    assert instance_seed(3, "r1") != instance_seed(3, "r2")
    assert instance_seed(3, "r1") != instance_seed(4, "r1")


# --- discretizer -------------------------------------------------------------------


def test_quartile_edges_of_one_through_twelve() -> None:
    disc = fit_discretizer(make_table([list(range(1, 13))], [0] * 12))
    bins = disc.per_feature[0]
    assert bins.edges == (3.75, 6.5, 9.25)
    assert bins.n_bins == 4
    assert bins.frequencies == (0.25, 0.25, 0.25, 0.25)
    assert bins.means == (2.0, 5.0, 8.0, 11.0)
    assert bins.mins == (1.0, 4.0, 7.0, 10.0)
    assert bins.maxs == (3.0, 6.0, 9.0, 12.0)
    assert bins.stds == pytest.approx([math.sqrt(2 / 3)] * 4)


def test_duplicate_heavy_column_collapses_to_fewer_bins() -> None:
    disc = fit_discretizer(make_table([[0, 0, 0, 0, 1]], [0] * 5))
    bins = disc.per_feature[0]
    assert bins.edges == (0.0,)
    assert bins.frequencies == (0.8, 0.2)


def test_edges_at_the_maximum_are_dropped() -> None:
    disc = fit_discretizer(make_table([[0, 0, 1, 1]], [0] * 4))
    assert disc.per_feature[0].edges == (0.0, 0.5)


def test_constant_column_has_a_single_bin() -> None:
    disc = fit_discretizer(make_table([[7.0, 7.0, 7.0]], [0] * 3))
    bins = disc.per_feature[0]
    assert bins.edges == ()
    assert bins.n_bins == 1
    assert bins.frequencies == (1.0,)


def test_bin_lookup_puts_edge_values_in_the_lower_bin() -> None:
    disc = fit_discretizer(make_table([list(range(1, 13))], [0] * 12))
    bins = disc.per_feature[0]
    assert bins.bin_of(3.75) == 0
    assert bins.bin_of(3.7500001) == 1
    assert bins.bin_of(-100.0) == 0
    assert bins.bin_of(100.0) == 3


def test_categorical_features_bin_by_category_frequency() -> None:
    disc = fit_discretizer(make_table(
        [["a", "b", "a", "a"]], [0] * 4, kinds=["categorical"], names=["c"],
    ))
    bins = disc.per_feature[0]
    assert bins.categories == ("a", "b")
    assert bins.frequencies == (0.75, 0.25)


def test_unknown_feature_lookup_raises() -> None:
    disc = fit_discretizer(make_table([[1.0, 2.0]], [0, 1]))
    with pytest.raises(UnknownFeature):
        disc.index_of("nope")


# --- canonical conditions ----------------------------------------------------------


def test_conditions_for_each_quartile_of_one_through_twelve() -> None:
    disc = fit_discretizer(make_table([list(range(1, 13))], [0] * 12))
    assert condition_for(disc, "f0", 2).text == "f0 <= 3.75"
    assert condition_for(disc, "f0", 7).text == "6.5 < f0 <= 9.25"
    assert condition_for(disc, "f0", 100).text == "f0 > 9.25"
    assert condition_for(disc, "f0", 3.75).text == "f0 <= 3.75"


def test_condition_for_constant_feature_covers_everything() -> None:
    disc = fit_discretizer(make_table([[7.0, 7.0]], [0, 1]))
    cond = condition_for(disc, "f0", 7.0)
    assert cond.text == "f0 > -inf"
    assert cond.matches(np.asarray([-1e300, 0.0, 1e300])).all()


def test_condition_for_categorical_value() -> None:
    disc = fit_discretizer(make_table(
        [["red", "blue"]], [0, 1], kinds=["categorical"], names=["c"],
    ))
    assert condition_for(disc, "c", "red").text == "c = red"


def test_condition_bounds_render_with_full_float_precision() -> None:
    cond = Condition(feature="f", high=0.1 + 0.2)
    assert cond.text == "f <= 0.30000000000000004"


def test_interval_membership_is_open_below_and_closed_above() -> None:
    cond = Condition(feature="f", low=1.0, high=2.0)
    assert cond.matches(np.asarray([1.0, 1.5, 2.0, 2.5])).tolist() == [
        False, True, True, False,
    ]
    assert not cond.matches([1.0])[0]
    assert cond.matches([2.0])[0]


@pytest.mark.parametrize(
    "cond",  # (condition, its text)
    [
        (Condition(feature="f", high=3.75), "f <= 3.75"),
        (Condition(feature="f", low=9.25), "f > 9.25"),
        (Condition(feature="f", low=6.5, high=9.25), "6.5 < f <= 9.25"),
        (Condition(feature="f", low=float("-inf")), "f > -inf"),
        (Condition(feature="c", category="red"), "c = red"),
        (Condition(feature="c", category="a = b <= c"), "c = a = b <= c"),
    ],
)
def test_condition_text_round_trips(cond: tuple[Condition, str]) -> None:
    # the text is the key conditions are counted under when mining regions
    condition, text = cond
    assert condition.text == text


def test_malformed_conditions_are_rejected() -> None:
    with pytest.raises(DataError):
        Condition(feature="f")
    with pytest.raises(DataError):
        Condition(feature="f", low=2.0, high=2.0)
    with pytest.raises(DataError):
        Condition(feature="c", category="x", low=1.0)
    for bounds in ({"high": math.nan}, {"low": math.nan}, {"low": 0.0, "high": math.nan}):
        with pytest.raises(DataError):
            Condition(feature="f", **bounds)


# --- kernel -------------------------------------------------------------------------


def test_kernel_weight_decays_with_each_differing_feature() -> None:
    z = np.asarray([[1, 1, 1], [1, 1, 0], [0, 0, 0]], dtype=float)
    w = kernel_weights(z, kernel_width=1.0)
    assert w[0] == 1.0
    assert w[1] == pytest.approx(math.exp(-1.0))
    assert w[2] == pytest.approx(math.exp(-3.0))


def test_default_kernel_width_scales_with_the_square_root_of_dimension() -> None:
    assert default_kernel_width(4) == 1.5
    z = np.asarray([[1] * 6, [1] * 5 + [0]], dtype=float)
    w = kernel_weights(z, default_kernel_width(6))
    assert w[1] == pytest.approx(math.exp(-1.0 / 3.375))


def test_kernel_width_must_be_positive() -> None:
    with pytest.raises(DataError):
        kernel_weights(np.ones((2, 2)), kernel_width=0.0)


# --- weighted ridge surrogate --------------------------------------------------------


def test_unregularized_two_sample_fit_is_exact() -> None:
    coef, intercept, r2 = fit_local_model(
        z=np.asarray([[1.0], [0.0]]),
        y=np.asarray([1.0, 0.0]),
        weights=np.asarray([1.0, 1.0]),
        ridge_lambda=0.0,
    )
    assert coef[0] == pytest.approx(1.0)
    assert intercept == pytest.approx(0.0)
    assert r2 == pytest.approx(1.0)


def test_huge_ridge_penalty_shrinks_weights_but_not_the_intercept() -> None:
    rng = np.random.default_rng(0)
    z = rng.integers(0, 2, size=(40, 5)).astype(float)
    y = rng.normal(size=40)
    w = rng.uniform(0.5, 1.0, size=40)
    coef, intercept, _ = fit_local_model(z, y, w, ridge_lambda=1e6)
    assert np.max(np.abs(coef)) < 1e-3
    assert intercept == pytest.approx(float(np.sum(w * y) / np.sum(w)), abs=1e-3)


def test_constant_targets_yield_zero_weights_and_perfect_r2() -> None:
    rng = np.random.default_rng(1)
    z = rng.integers(0, 2, size=(30, 4)).astype(float)
    coef, intercept, r2 = fit_local_model(
        z, np.full(30, 0.7), np.ones(30), ridge_lambda=1.0
    )
    assert np.max(np.abs(coef)) < 1e-9
    assert intercept == pytest.approx(0.7)
    assert r2 == 1.0


def test_duplicate_columns_without_ridge_are_singular() -> None:
    z = np.asarray([[1.0, 1.0], [0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    y = np.asarray([1.0, 0.0, 1.0, 0.0])
    with pytest.raises(SingularSystem):
        fit_local_model(z, y, np.ones(4), ridge_lambda=0.0)


def test_the_ridge_solve_matches_a_lapack_cholesky_solve() -> None:
    # systems shaped like the quick-start run's: 6 features, 5000 samples
    rng = np.random.default_rng(3)
    for i in range(200):
        lam = (1.0, 0.01, 0.0)[i % 3]
        z = (rng.uniform(size=(5000, 6)) < rng.uniform(0.2, 0.9, size=6)).astype(float)
        y = np.clip(rng.uniform() + z @ rng.normal(scale=0.2, size=6)
                    + rng.normal(scale=0.05, size=5000), 1e-12, 1.0 - 1e-12)
        w = kernel_weights(z, default_kernel_width(6))
        coef, intercept, _ = fit_local_model(z, y, w, lam)

        x = np.hstack([np.ones((5000, 1)), z])
        a = (x.T * w) @ x + np.diag([0.0] + [lam] * 6)
        expected = cho_solve(cho_factor(a), (x.T * w) @ y)
        error = np.max(np.abs(np.r_[intercept, coef] - expected))
        assert error <= 1e-13 * np.max(np.abs(expected))


def test_non_finite_normal_equations_are_data_errors() -> None:
    z = np.asarray([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    with pytest.raises(DataError):
        fit_local_model(z, np.ones(3), np.ones(3), math.inf)
    with pytest.raises(DataError):
        fit_local_model(z, np.asarray([0.5, math.nan, 0.5]), np.ones(3), 1.0)
    with pytest.raises(DataError):
        fit_local_model(z, np.ones(3), np.asarray([1.0, math.inf, 1.0]), 1.0)


def test_fit_rejects_malformed_inputs() -> None:
    z = np.ones((3, 2))
    y = np.ones(3)
    with pytest.raises(DataError):
        fit_local_model(z, np.ones(2), np.ones(3), 1.0)
    with pytest.raises(DataError):
        fit_local_model(z, y, np.asarray([1.0, -1.0, 1.0]), 1.0)
    with pytest.raises(DataError):
        fit_local_model(z, y, np.zeros(3), 1.0)
    for bad_lambda in (-1.0, math.nan):
        with pytest.raises(DataError):
            fit_local_model(z, y, np.ones(3), bad_lambda)


# --- perturbation sampling ------------------------------------------------------------


@pytest.fixture()
def mixed_table():
    rng = np.random.default_rng(2)
    n = 200
    return make_table(
        [rng.uniform(0, 10, size=n).tolist(),
         rng.choice(["a", "b", "c"], size=n, p=[0.5, 0.3, 0.2]).tolist()],
        rng.integers(0, 2, size=n).tolist(),
        kinds=["continuous", "categorical"],
        names=["x", "c"],
    )


def test_sampling_keeps_the_instance_as_the_first_row(mixed_table) -> None:
    disc = fit_discretizer(mixed_table)
    z, columns = sample_perturbations(disc, (4.2, "b"), n_samples=50, seed=9)
    assert z.shape == (50, 2)
    assert z[0].tolist() == [1.0, 1.0]
    assert columns[0][0] == 4.2
    assert columns[1][0] == "b"


def test_sampling_is_deterministic_in_the_seed(mixed_table) -> None:
    disc = fit_discretizer(mixed_table)
    z1, cols1 = sample_perturbations(disc, (4.2, "b"), n_samples=40, seed=9)
    z2, cols2 = sample_perturbations(disc, (4.2, "b"), n_samples=40, seed=9)
    z3, _ = sample_perturbations(disc, (4.2, "b"), n_samples=40, seed=10)
    assert np.array_equal(z1, z2)
    assert all(np.array_equal(a, b) for a, b in zip(cols1, cols2))
    assert not np.array_equal(z1, z3)


def test_sampled_values_stay_inside_observed_bin_ranges(mixed_table) -> None:
    disc = fit_discretizer(mixed_table)
    bins = disc.per_feature[0]
    z, columns = sample_perturbations(disc, (4.2, "b"), n_samples=500, seed=3)
    values = columns[0]
    assert values.min() >= min(bins.mins)
    assert values.max() <= max(bins.maxs)
    inst_bin = bins.bin_of(4.2)
    same = values[1:][z[1:, 0] == 1.0]
    assert same.size > 0
    assert same.min() >= bins.mins[inst_bin]
    assert same.max() <= bins.maxs[inst_bin]


def test_categorical_similarity_column_is_exact_equality(mixed_table) -> None:
    disc = fit_discretizer(mixed_table)
    z, columns = sample_perturbations(disc, (4.2, "b"), n_samples=300, seed=3)
    assert np.array_equal(z[:, 1], (columns[1] == "b").astype(float))
    assert set(np.unique(columns[1])) <= {"a", "b", "c"}


def numpy_perturbations(disc, instance, n_samples: int, seed: int):
    """sample_perturbations as drawn by numpy's own ``rng.choice(..., p=...)``
    and ``rng.normal(loc, scale)``: the oracle of its inlined draws."""
    rng = np.random.default_rng(seed)
    z = np.ones((n_samples, len(disc.schema)))
    columns = []
    m = n_samples - 1
    for j, bins in enumerate(disc.per_feature):
        if hasattr(bins, "categories"):
            cats = np.asarray(bins.categories, dtype=str)
            drawn = cats[rng.choice(len(cats), size=m, p=np.asarray(bins.frequencies))]
            z[1:, j] = drawn == instance[j]
            columns.append(np.concatenate([[instance[j]], drawn]))
        else:
            drawn = rng.choice(bins.n_bins, size=m, p=np.asarray(bins.frequencies))
            raw = rng.normal(np.asarray(bins.means)[drawn], np.asarray(bins.stds)[drawn])
            raw = np.clip(raw, np.asarray(bins.mins)[drawn], np.asarray(bins.maxs)[drawn])
            z[1:, j] = drawn == bins.bin_of(instance[j])
            columns.append(np.concatenate([[instance[j]], raw]))
    return z, columns


def test_sampling_draws_what_numpys_choice_and_normal_draw(mixed_table) -> None:
    # f0's quartiles are 0.175, 0.5 and 0.6, and no value lies in (0.5, 0.6]
    table = make_table([[0.0, 0.5, 0.5, 1.0, 0.2, 0.9, 0.5, 0.1],
                        list("xyyzxyzz"), [3.0, -1.0, 2.5, 7.0, 0.0, 1.0, 2.0, 4.0]],
                       [0, 1, 0, 1, 0, 1, 0, 1], kinds=["continuous", "categorical",
                                                         "continuous"])
    disc = fit_discretizer(table)
    assert 0.0 in disc.per_feature[0].frequencies[1:-1]  # an empty interior bin
    for d, instance in ((disc, (0.5, "y", 2.0)), (disc, (1.0, "q", -3.0)),
                        (fit_discretizer(mixed_table), (4.2, "b"))):
        for seed in (0, 3, 2 ** 64 - 1):
            z, columns = sample_perturbations(d, instance, n_samples=700, seed=seed)
            z_ref, columns_ref = numpy_perturbations(d, instance, 700, seed)
            assert np.array_equal(z, z_ref)
            assert all(np.array_equal(a, b) for a, b in zip(columns, columns_ref))


def test_sampling_validates_instance_shape_and_count(mixed_table) -> None:
    disc = fit_discretizer(mixed_table)
    with pytest.raises(DataError):
        sample_perturbations(disc, (4.2,), n_samples=10, seed=0)
    with pytest.raises(DataError):
        sample_perturbations(disc, (4.2, "b"), n_samples=0, seed=0)


# --- explanations -----------------------------------------------------------------


def linear_predictor(table, weights) -> FunctionPredictor:
    w = np.asarray(weights)

    def fn(columns):
        cols = np.stack([np.asarray(c, dtype=np.float64) for c in columns])
        return 1.0 / (1.0 + np.exp(-(w @ cols)))

    return FunctionPredictor(table.schema, fn)


def test_explanations_are_deterministic_and_ranked_by_weight() -> None:
    rng = np.random.default_rng(4)
    table = make_table([rng.uniform(size=100).tolist() for _ in range(3)],
                       rng.integers(0, 2, size=100).tolist())
    disc = fit_discretizer(table)
    predictor = linear_predictor(table, [3.0, -1.0, 0.2])
    config = LimeConfig(n_samples=400, top_k=2, seed=5)
    instance = table.row_values(7)

    first = explain(predictor, disc, "7", instance, true_label=1, config=config)
    second = explain(predictor, disc, "7", instance, true_label=1, config=config)
    assert first == second
    assert len(first.terms) == 2
    magnitudes = [abs(w) for _, w in first.terms]
    assert magnitudes == sorted(magnitudes, reverse=True)
    assert first.predicted_probability == pytest.approx(
        float(predictor.predict_table(table)[7]), abs=1e-12
    )
    for cond, _ in first.terms:
        value = instance[table.index_of(cond.feature)]
        assert cond.matches([value])[0]


@pytest.mark.parametrize("bad", sorted(BAD_PREDICTOR_OUTPUTS))
def test_explain_rejects_predictor_outputs_that_are_not_probabilities(bad: str) -> None:
    table = make_table([np.linspace(0.0, 1.0, 40).tolist()], [0, 1] * 20)
    predictor = FunctionPredictor(table.schema, BAD_PREDICTOR_OUTPUTS[bad])
    with pytest.raises(DataError, match="predictor"):
        explain(predictor, fit_discretizer(table), "0", table.row_values(0), 0,
                LimeConfig(n_samples=50))


@pytest.mark.parametrize("probability", [1.5, -0.25, math.nan])
def test_explain_rejects_a_stated_probability_outside_the_unit_interval(
    probability: float,
) -> None:
    table = make_table([np.linspace(0.0, 1.0, 40).tolist()], [0, 1] * 20)
    predictor = FunctionPredictor(table.schema, lambda cols: np.full(len(cols[0]), 0.5))
    with pytest.raises(ProbabilityOutOfRange):
        explain(predictor, fit_discretizer(table), "0", table.row_values(0), 0,
                LimeConfig(n_samples=50), probability=probability)


def test_explanations_depend_on_the_row_id_not_the_call_order() -> None:
    rng = np.random.default_rng(6)
    table = make_table([rng.uniform(size=60).tolist() for _ in range(2)],
                       rng.integers(0, 2, size=60).tolist())
    disc = fit_discretizer(table)
    predictor = linear_predictor(table, [1.0, 1.0])
    config = LimeConfig(n_samples=200, seed=0)

    one = explain(predictor, disc, "a", table.row_values(0), 0, config)
    explain(predictor, disc, "b", table.row_values(1), 0, config)
    one_again = explain(predictor, disc, "a", table.row_values(0), 0, config)
    assert one == one_again

    renamed = explain(predictor, disc, "z", table.row_values(0), 0, config)
    assert renamed.terms != one.terms  # a different stream, not a shared one


def test_explanations_round_trip_through_jsonl(tmp_path) -> None:
    rng = np.random.default_rng(8)
    table = make_table(
        [rng.uniform(size=40).tolist(), rng.choice(["a", "b"], size=40).tolist()],
        rng.integers(0, 2, size=40).tolist(),
        kinds=["continuous", "categorical"],
    )
    disc = fit_discretizer(table)
    predictor = FunctionPredictor(
        table.schema, lambda cols: np.linspace(0.05, 0.95, len(cols[0]))
    )
    config = LimeConfig(n_samples=150, seed=1)
    explanations = [
        explain(predictor, disc, rid, table.row_values(i), int(table.labels[i]),
                config)
        for i, rid in enumerate(table.row_ids[:5])
    ]
    path = str(tmp_path / "e.jsonl")
    write_explanations_jsonl(explanations, path)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert [json.loads(line) for line in lines] == [e.to_json_obj() for e in explanations]


def test_lime_config_validates_every_knob() -> None:
    for bad in (dict(n_samples=1), dict(kernel_width=0.0), dict(ridge_lambda=-1.0),
                dict(ridge_lambda=math.nan), dict(ridge_lambda=math.inf), dict(top_k=0)):
        with pytest.raises(DataError):
            LimeConfig(**bad)
