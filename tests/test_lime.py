"""Discretization, perturbation sampling, the weighted ridge surrogate, and
per-instance explanations."""

from __future__ import annotations

import dataclasses
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from conftest import BAD_PREDICTOR_OUTPUTS, explain_one, make_table
from errlens import (
    CategoricalBins,
    Condition,
    ExternalPredictions,
    FunctionPredictor,
    GbdtParams,
    LimeConfig,
    fit_discretizer,
    find_misclassified,
    explain_misclassified,
    fit_local_model,
    kernel_weights,
    sample_perturbations,
    write_explanations_jsonl,
)
from errlens import lime as lime_module
from errlens.data import feature_index
from errlens.errors import (
    DataError,
    EmptyTable,
    ProbabilityOutOfRange,
    SchemaMismatch,
    SingularSystem,
    UnknownFeature,
)
from errlens.lime import PerturbationPool, default_kernel_width


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


@given(st.data())
def test_a_discretizer_does_not_depend_on_the_order_of_the_rows(data) -> None:
    # sums of a bin's values in another order round differently
    n = data.draw(st.integers(1, 40))
    values = st.sampled_from((0.1, 0.2, 0.3, 0.7)) | st.floats(-1e6, 1e6)
    table = make_table(
        [data.draw(st.lists(values, min_size=n, max_size=n)) for _ in range(2)]
        + [data.draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n))],
        [0] * n, kinds=["continuous", "continuous", "categorical"])
    perm = data.draw(st.permutations(range(n)))
    assert fit_discretizer(table.subset(perm)) == fit_discretizer(table)


def test_a_discretizer_checks_its_bins_when_it_is_built() -> None:
    # a category's code is found by binary search, so repeated or unsorted
    # categories would code a value as another category's, and a missing
    # feature's bins would fail only when a row is explained
    disc = fit_discretizer(make_table([[0.0, 0.5, 1.0], list("aba")], [0, 1, 0],
                                      kinds=["continuous", "categorical"], names=["x", "c"]))
    x, c = disc.per_feature
    for per_feature in [
        (x, CategoricalBins(("a", "b", "a"), (0.4, 0.3, 0.3))),
        (x, dataclasses.replace(c, categories=("b", "a"))),
        (x,),
        (c, x),
    ]:
        with pytest.raises(DataError, match="feature '[xc]'"):
            dataclasses.replace(disc, per_feature=per_feature)
    with pytest.raises(DataError, match="3 bins for 2 features"):
        dataclasses.replace(disc, per_feature=(x, c, c))
    assert dataclasses.replace(disc, per_feature=(x, c)) == disc
    # a draw is clipped into its bin's observed range, which must lie within
    # the bin's edges for the pool to code the draw as its bin; x's bin 2,
    # (0.5, 0.75], is empty and never drawn
    assert x.edges == (0.25, 0.5, 0.75) and x.frequencies[2] == 0.0
    for b, low, high in [(0, 0.6, 0.9), (1, 0.25, 0.5), (1, 0.5, 0.4), (3, 0.75, 1.0),
                         (0, math.nan, 0.0)]:
        mins, maxs = list(x.mins), list(x.maxs)
        mins[b], maxs[b] = low, high
        with pytest.raises(DataError, match=f"feature 'x': bin {b} holds"):
            dataclasses.replace(disc, per_feature=(
                dataclasses.replace(x, mins=tuple(mins), maxs=tuple(maxs)), c))
    parked = dataclasses.replace(x, mins=(0.0, 0.5, 9.0, 1.0), maxs=(0.0, 0.5, -9.0, 1.0))
    assert dataclasses.replace(disc, per_feature=(parked, c)).per_feature[0] == parked


@pytest.mark.parametrize("feature, stat", [
    ("x", "frequencies"), ("x", "means"), ("x", "stds"), ("x", "mins"), ("x", "maxs"),
    ("c", "frequencies"),
])
@pytest.mark.parametrize("change", [-1, 1])
def test_a_discretizer_needs_one_statistic_per_bin(feature: str, stat: str, change: int) -> None:
    # a statistic short of a bin would never draw that bin, and a row in it
    # would match no sample of the pool
    disc = fit_discretizer(make_table([[0.0, 0.2, 0.4, 0.6, 0.8, 1.0], list("aabbbc")],
                                      [0, 1] * 3, kinds=["continuous", "categorical"],
                                      names=["x", "c"]))
    j = feature_index(disc.schema, feature)
    bins = disc.per_feature[j]
    n_bins = len(getattr(bins, stat))
    assert n_bins == (len(bins.edges) + 1 if feature == "x" else len(bins.categories)) > 2
    values = getattr(bins, stat)[:-1] if change < 0 else getattr(bins, stat) + (0.0,)
    per_feature = list(disc.per_feature)
    per_feature[j] = dataclasses.replace(bins, **{stat: values})
    with pytest.raises(DataError, match=f"feature '{feature}': {n_bins + change} {stat} "
                                        f"for {n_bins} bins"):
        dataclasses.replace(disc, per_feature=tuple(per_feature))


def test_unknown_feature_lookup_raises() -> None:
    disc = fit_discretizer(make_table([[1.0, 2.0]], [0, 1]))
    with pytest.raises(UnknownFeature):
        feature_index(disc.schema, "nope")


# --- canonical conditions ----------------------------------------------------------


def term_condition(disc, value: float | str) -> Condition:
    """The condition of the lone term of a one-feature row's explanation."""
    predictor = FunctionPredictor(disc.schema, lambda cols: np.full(len(cols[0]), 0.5))
    pool = PerturbationPool(predictor, disc, LimeConfig(n_samples=10, top_k=1))
    ((cond, _),) = explain_one(pool, "r", (value,), 0, probability=0.5).terms
    return cond


def test_conditions_for_each_quartile_of_one_through_twelve() -> None:
    disc = fit_discretizer(make_table([list(range(1, 13))], [0] * 12))
    assert term_condition(disc, 2).text == "f0 <= 3.75"
    assert term_condition(disc, 7).text == "6.5 < f0 <= 9.25"
    assert term_condition(disc, 100).text == "f0 > 9.25"
    assert term_condition(disc, 3.75).text == "f0 <= 3.75"


def test_condition_for_constant_feature_covers_everything() -> None:
    disc = fit_discretizer(make_table([[7.0, 7.0]], [0, 1]))
    cond = term_condition(disc, 7.0)
    assert cond.text == "f0 > -inf"
    assert cond.matches(np.asarray([-1e300, 0.0, 1e300])).all()


def test_condition_for_categorical_value() -> None:
    disc = fit_discretizer(make_table(
        [["red", "blue"]], [0, 1], kinds=["categorical"], names=["c"],
    ))
    assert term_condition(disc, "red").text == "c = red"


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


def reference_condition_text(c: Condition) -> str:
    """The text as a property rendered it from the fields on every read."""
    if c.category is not None:
        return f"{c.feature} = {c.category}"
    if c.low is None:
        return f"{c.feature} <= {c.high!r}"
    if c.high is None:
        return f"{c.feature} > {c.low!r}"
    return f"{c.low!r} < {c.feature} <= {c.high!r}"


BOUNDS = st.none() | st.floats(allow_nan=False)


@given(feature=st.text(max_size=4), low=BOUNDS, high=BOUNDS,
       category=st.none() | st.text(max_size=4), other=st.text(max_size=4),
       as_bound=st.sampled_from([float, np.float64]))
@example(feature="f", low=None, high=0.1 + 0.2, category=None, other="", as_bound=np.float64)
def test_condition_text_is_rendered_once_from_its_fields(feature: str, low, high, category,
                                                         other: str, as_bound) -> None:
    if category is not None:
        low = high = None
    assume(category is not None or low is not None or high is not None)
    if low is not None and high is not None:
        assume(low != high)
        low, high = sorted((low, high))
    # bounds may arrive as numpy floats, which __post_init__ makes plain
    bounds = [None if b is None else as_bound(b) for b in (low, high)]
    cond = Condition(feature, *bounds, category)
    assert cond.text == reference_condition_text(cond)
    # the stored text takes no part in equality, hashing, repr or matching
    twin = Condition(feature, *bounds, category)
    object.__setattr__(twin, "text", other)
    assert twin == cond and hash(twin) == hash(cond) and repr(twin) == repr(cond)
    assert Condition.__match_args__ == ("feature", "low", "high", "category")
    with pytest.raises(TypeError):
        Condition(feature, *bounds, category, text=other)
    # a replaced condition renders its own fields
    moved = dataclasses.replace(twin, feature=feature + "g")
    assert moved.text == reference_condition_text(moved)


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


@pytest.mark.parametrize("others", [None, 0.9])
def test_targets_that_differ_by_rounding_yield_perfect_r2_in_both_fits(others) -> None:
    # kernel width 0.02 weighs only the samples that match every feature
    # (exp(-2500) is 0); their targets differ by a few units in the last
    # place, which both fits' sums round away.  The samples of weight 0 hold
    # the same targets, or all hold ``others``.
    eps = np.finfo(np.float64).eps
    rng = np.random.default_rng(3)
    d, n = 3, 256
    bits = (np.arange(1 << d)[:, None] >> np.arange(d) & 1).astype(np.float64)
    keys = rng.integers(0, 1 << d, size=n - 1)
    keys[:40] = (1 << d) - 1
    z = np.vstack([np.ones(d), bits[keys]])
    w = kernel_weights(z, 0.02)
    design = np.hstack([np.ones((1 << d, 1)), bits])
    for _ in range(10):
        y = rng.uniform(0.05, 0.95) * (1.0 + rng.integers(0, 5, size=n) * eps)
        if others is not None:
            y[1:][w[1:] == 0] = others
        assert fit_local_model(z, y, w, ridge_lambda=1.0)[2] == 1.0
        *_, r2 = lime_module._fit_patterns(keys[None].astype(np.uint8), y[:1], y[1:], design,
                                           kernel_weights(bits, 0.02), 1.0)
        assert r2.tolist() == [1.0]


def test_duplicate_columns_without_ridge_are_singular() -> None:
    z = np.asarray([[1.0, 1.0], [0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    y = np.asarray([1.0, 0.0, 1.0, 0.0])
    with pytest.raises(SingularSystem):
        fit_local_model(z, y, np.ones(4), ridge_lambda=0.0)


@given(
    st.integers(min_value=2, max_value=60),
    st.integers(min_value=1, max_value=6),
    st.data(),
)
def test_a_constant_column_without_ridge_is_always_singular(n: int, d: int, data) -> None:
    # whatever the weights and the other columns, a constant column is
    # collinear with the intercept: singular by rule, not by rounding
    weights = np.asarray(data.draw(st.lists(
        st.floats(0.0, 1.0, allow_subnormal=False), min_size=n, max_size=n)))
    assume(weights.sum() > 0)
    z = np.asarray(data.draw(st.lists(st.lists(st.sampled_from((0.0, 1.0)),
                                               min_size=d, max_size=d),
                                      min_size=n, max_size=n)))
    z[:, data.draw(st.integers(0, d - 1))] = data.draw(st.sampled_from((0.0, 1.0)))
    y = np.asarray(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    with pytest.raises(SingularSystem):
        fit_local_model(z, y, weights, ridge_lambda=0.0)
    fit_local_model(z, y, weights, ridge_lambda=1.0)  # the ridge makes it regular


def _fit_or_error(z, y, w, lam):
    try:
        return fit_local_model(z, y, w, lam)
    except SingularSystem as exc:
        return exc


@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=2, max_value=30),
    st.integers(min_value=1, max_value=5),
    st.sampled_from((0.0, 0.01, 1.0)),
    st.data(),
)
def test_a_stacked_fit_is_each_fit_alone_bit_for_bit(stack: int, n: int, d: int,
                                                     lam: float, data) -> None:
    # zero weights, ridge 0 and constant columns make members singular, each
    # in its own way: a zero column fails the factorization, a column of ones
    # is collinear with the intercept
    z = np.asarray(data.draw(st.lists(st.sampled_from((0.0, 1.0)),
                                      min_size=stack * n * d, max_size=stack * n * d)))
    z = z.reshape(stack, n, d)
    for r in range(stack):
        column = data.draw(st.none() | st.integers(0, d - 1))
        if column is not None:
            z[r, :, column] = data.draw(st.sampled_from((0.0, 1.0)))
    y = np.asarray(data.draw(st.lists(st.floats(0.0, 1.0), min_size=stack * n,
                                      max_size=stack * n))).reshape(stack, n)
    w = np.asarray(data.draw(st.lists(
        st.one_of(st.just(0.0), st.floats(0.0, 1.0, allow_subnormal=False)),
        min_size=stack * n, max_size=stack * n))).reshape(stack, n)
    assume((w.sum(axis=1) > 0).all())
    alone = [_fit_or_error(z[r], y[r], w[r], lam) for r in range(stack)]
    errors = [str(fit) for fit in alone if isinstance(fit, SingularSystem)]
    if errors:
        with pytest.raises(SingularSystem) as raised:
            fit_local_model(z, y, w, lam)
        assert str(raised.value) == errors[0]
        return
    coef, intercept, r2 = fit_local_model(z, y, w, lam)
    assert coef.shape == (stack, d) and intercept.shape == r2.shape == (stack,)
    for r, (coef_r, intercept_r, r2_r) in enumerate(alone):
        assert coef[r].tobytes() == coef_r.tobytes()
        assert intercept[r].tobytes() == np.float64(intercept_r).tobytes()
        assert r2[r].tobytes() == np.float64(r2_r).tobytes()


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


@settings(max_examples=80, deadline=None)
@given(k=st.integers(1, 12), rows=st.integers(1, 24), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-8, 1e-3, 1.0, 1e3, 1e8]))
def test_a_stacked_solve_is_each_solve_alone_and_a_cholesky_solve(
        k: int, rows: int, seed: int, scale: float) -> None:
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=scale, size=(rows, k + 3, k))
    a = x.swapaxes(1, 2) @ x + scale * scale * np.eye(k)
    b = rng.normal(scale=scale, size=(rows, k))
    beta = lime_module._solve(a, b)
    assert beta.shape == b.shape
    for r in range(rows):
        assert beta[r].tobytes() == lime_module._solve(a[r], b[r]).tobytes()
        # a backward-stable solve's error is within a few k * eps of the
        # system's condition number, relative to the solution
        expected = cho_solve(cho_factor(a[r]), b[r])
        bound = 4 * k * np.finfo(np.float64).eps * np.linalg.cond(a[r])
        assert np.abs(beta[r] - expected).max() <= bound * np.abs(expected).max()


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


def pool_codes(disc, n_samples: int, seed: int) -> np.ndarray:
    """The pool's codes of sample_perturbations' rows."""
    predictor = FunctionPredictor(disc.schema, lambda cols: np.full(len(cols[0]), 0.5))
    return PerturbationPool(predictor, disc, LimeConfig(n_samples=n_samples, seed=seed)).scored[0]


def test_sampling_keeps_the_instance_as_the_first_row(mixed_table) -> None:
    # the pool is samples 1..n-1; a lone explanation scores its instance first
    disc = fit_discretizer(mixed_table)
    columns = sample_perturbations(disc, n_samples=50, seed=9)
    assert [len(c) for c in columns] == [49, 49]
    asked = []

    def record(cols):
        asked.append(cols)
        return np.full(len(cols[0]), 0.5)

    pool = PerturbationPool(FunctionPredictor(mixed_table.schema, record), disc,
                            LimeConfig(n_samples=50, seed=9))
    explain_one(pool, "r", (4.2, "b"), 0)
    instance, pooled = asked
    assert [c.tolist() for c in instance] == [[4.2], ["b"]]
    assert all(np.array_equal(c, p) for c, p in zip(pooled, columns))
    assert pool.scored[0].shape == (49, 2)


def test_sampling_is_deterministic_in_the_seed(mixed_table) -> None:
    disc = fit_discretizer(mixed_table)
    cols1 = sample_perturbations(disc, n_samples=40, seed=9)
    cols2 = sample_perturbations(disc, n_samples=40, seed=9)
    assert all(np.array_equal(a, b) for a, b in zip(cols1, cols2))
    assert np.array_equal(pool_codes(disc, 40, 9), pool_codes(disc, 40, 9))
    assert not np.array_equal(pool_codes(disc, 40, 9), pool_codes(disc, 40, 10))


def test_sampled_values_stay_inside_observed_bin_ranges(mixed_table) -> None:
    disc = fit_discretizer(mixed_table)
    bins = disc.per_feature[0]
    values = sample_perturbations(disc, n_samples=500, seed=3)[0]
    assert values.min() >= min(bins.mins)
    assert values.max() <= max(bins.maxs)
    inst_bin = bins.bin_of(4.2)
    same = values[pool_codes(disc, 500, 3)[:, 0] == inst_bin]
    assert same.size > 0
    assert same.min() >= bins.mins[inst_bin]
    assert same.max() <= bins.maxs[inst_bin]


def test_categorical_similarity_column_is_exact_equality(mixed_table) -> None:
    disc = fit_discretizer(mixed_table)
    categories = sample_perturbations(disc, n_samples=300, seed=3)[1]
    b = disc.per_feature[1].categories.index("b")
    assert np.array_equal(pool_codes(disc, 300, 3)[:, 1] == b, categories == "b")
    assert set(np.unique(categories)) <= {"a", "b", "c"}


def numpy_perturbations(disc, n_samples: int, seed: int):
    """sample_perturbations as drawn by numpy's own ``rng.choice(..., p=...)``
    and ``rng.normal(loc, scale)``: the oracle of its inlined draws, with the
    bins it drew."""
    rng = np.random.default_rng(seed)
    drawn = np.empty((n_samples - 1, len(disc.schema)), dtype=int)
    columns = []
    m = n_samples - 1
    for j, bins in enumerate(disc.per_feature):
        if hasattr(bins, "categories"):
            cats = np.asarray(bins.categories, dtype=str)
            drawn[:, j] = rng.choice(len(cats), size=m, p=np.asarray(bins.frequencies))
            columns.append(cats[drawn[:, j]])
        else:
            drawn[:, j] = rng.choice(bins.n_bins, size=m, p=np.asarray(bins.frequencies))
            b = drawn[:, j]
            raw = rng.normal(np.asarray(bins.means)[b], np.asarray(bins.stds)[b])
            columns.append(np.clip(raw, np.asarray(bins.mins)[b], np.asarray(bins.maxs)[b]))
    return drawn, columns


def empty_bin_table():
    """A table whose f0 has an empty interior bin: its quartiles are 0.175,
    0.5 and 0.6, and no value lies in (0.5, 0.6]."""
    return make_table([[0.0, 0.5, 0.5, 1.0, 0.2, 0.9, 0.5, 0.1],
                       list("xyyzxyzz"), [3.0, -1.0, 2.5, 7.0, 0.0, 1.0, 2.0, 4.0]],
                      [0, 1, 0, 1, 0, 1, 0, 1], kinds=["continuous", "categorical",
                                                        "continuous"])


def test_sampling_draws_what_numpys_choice_and_normal_draw(mixed_table) -> None:
    disc = fit_discretizer(empty_bin_table())
    assert 0.0 in disc.per_feature[0].frequencies[1:-1]  # an empty interior bin
    for d in (disc, fit_discretizer(mixed_table)):
        for seed in (0, 3, 2 ** 64 - 1):
            columns = sample_perturbations(d, n_samples=700, seed=seed)
            drawn_ref, columns_ref = numpy_perturbations(d, 700, seed)
            assert all(np.array_equal(a, b) for a, b in zip(columns, columns_ref))
            assert np.array_equal(pool_codes(d, 700, seed), drawn_ref)


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.lists(st.sampled_from([-1.5, 0.0, 0.1, 0.2, 0.5, 0.9, 1.0, 1e9]),
                                min_size=8, max_size=8), min_size=1, max_size=3),
       seed=st.integers(0, 2 ** 64 - 1))
@example(values=[empty_bin_table().columns[0].tolist()], seed=0)
def test_the_pool_codes_each_draw_as_the_bin_it_was_drawn_from(values, seed) -> None:
    # the pool codes its draws as it codes explained rows, which is exact
    # because a draw is clipped into its bin's observed range, within the
    # bin's edges.  Beside the drawn features (the example's has an empty
    # interior bin): a one-bin feature and a categorical feature
    table = make_table([*values, [7.0] * 8, list("aabbbcca")], [0] * 8,
                       kinds=["continuous"] * (len(values) + 1) + ["categorical"])
    disc = fit_discretizer(table)
    assert disc.per_feature[-2].n_bins == 1
    drawn, columns = numpy_perturbations(disc, 300, seed)
    pool = PerturbationPool(FunctionPredictor(disc.schema, lambda c: np.full(len(c[0]), 0.5)),
                            disc, LimeConfig(n_samples=300, seed=seed))
    assert np.array_equal(pool._codes(columns, 299), drawn)


@pytest.mark.parametrize("feature, field, values", [
    ("x", "frequencies", (0.5, 0.7)),
    ("c", "frequencies", (0.5, math.nan)),
    ("x", "stds", (-1.0, 0.0)),
])
def test_bins_that_cannot_be_sampled_are_data_errors(feature, field, values) -> None:
    disc = fit_discretizer(make_table([[0, 0, 0, 0, 1], list("aabbb")], [0] * 5,
                                      kinds=["continuous", "categorical"], names=["x", "c"]))
    j = feature_index(disc.schema, feature)
    per_feature = list(disc.per_feature)
    assert len(getattr(per_feature[j], field)) == len(values)
    per_feature[j] = dataclasses.replace(per_feature[j], **{field: values})
    bad = dataclasses.replace(disc, per_feature=tuple(per_feature))
    with pytest.raises(DataError, match=f"feature '{feature}'"):
        sample_perturbations(bad, n_samples=20, seed=0)


def test_sampling_validates_instance_shape_and_count(mixed_table) -> None:
    disc = fit_discretizer(mixed_table)
    predictor = FunctionPredictor(mixed_table.schema, lambda cols: np.full(len(cols[0]), 0.5))
    with pytest.raises(DataError, match="discretizer schema"):
        PerturbationPool(predictor, disc, LimeConfig(n_samples=10)).explain_rows(
            ["r"], [np.asarray([4.2])], [0], [0.5])
    with pytest.raises(DataError):
        sample_perturbations(disc, n_samples=0, seed=0)


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

    first = explain_one(PerturbationPool(predictor, disc, config), "7", instance, true_label=1)
    second = explain_one(PerturbationPool(predictor, disc, config), "7", instance, true_label=1)
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


def test_one_pool_scores_its_samples_once_for_many_lone_explanations() -> None:
    rng = np.random.default_rng(4)
    table = make_table([rng.uniform(size=40).tolist() for _ in range(2)],
                       rng.integers(0, 2, size=40).tolist())
    calls = []

    def score(cols):
        calls.append(len(cols[0]))
        return 1.0 / (1.0 + np.exp(-np.asarray(cols[0], dtype=np.float64)))

    pool = PerturbationPool(FunctionPredictor(table.schema, score), fit_discretizer(table),
                            LimeConfig(n_samples=100))
    for i in range(3):  # each scores its bare row; the first also the pool
        explain_one(pool, str(i), table.row_values(i), int(table.labels[i]))
    assert calls == [1, 99, 1, 1]
    assert pool.scored[0].dtype == np.uint8  # quartile bins 0..3, kept for the pool's life
    calls.clear()
    for i in range(3):
        explain_one(pool, str(i), table.row_values(i), int(table.labels[i]), probability=0.5)
    assert calls == []


@pytest.mark.parametrize("bad", sorted(BAD_PREDICTOR_OUTPUTS))
def test_explain_rejects_predictor_outputs_that_are_not_probabilities(bad: str) -> None:
    table = make_table([np.linspace(0.0, 1.0, 40).tolist()], [0, 1] * 20)
    predictor = FunctionPredictor(table.schema, BAD_PREDICTOR_OUTPUTS[bad])
    with pytest.raises(DataError, match="predictor"):
        explain_one(PerturbationPool(predictor, fit_discretizer(table), LimeConfig(n_samples=50)),
                    "0", table.row_values(0), 0)


@pytest.mark.parametrize("probability", [1.5, -0.25, math.nan])
def test_explain_rejects_a_stated_probability_outside_the_unit_interval(
    probability: float,
) -> None:
    table = make_table([np.linspace(0.0, 1.0, 40).tolist()], [0, 1] * 20)
    predictor = FunctionPredictor(table.schema, lambda cols: np.full(len(cols[0]), 0.5))
    with pytest.raises(ProbabilityOutOfRange):
        explain_one(PerturbationPool(predictor, fit_discretizer(table), LimeConfig(n_samples=50)),
                    "0", table.row_values(0), 0, probability=probability)


@pytest.mark.parametrize("override, error, message", [
    ({"true_labels": [0]}, DataError, r"true_labels has shape \(1,\) for 3 row_ids"),
    ({"columns": [[0.1, 0.5, 0.9], ["a", "b"]]}, DataError,
     r"columns\[1\] has shape \(2,\) for 3 row_ids"),
    ({"probabilities": [0.5]}, DataError, r"probabilities has shape \(1,\) for 3 row_ids"),
    # of the right length, a bad output is still the predictor's
    ({"probabilities": [[0.5]] * 3}, DataError, r"predictor returned shape \(3, 1\) for 3 rows"),
    ({"probabilities": [0.5, math.nan, 0.5]}, ProbabilityOutOfRange, "predictor returned nan"),
])
def test_explain_rows_names_a_per_row_argument_that_is_not_one_per_row(
    override: dict, error: type, message: str,
) -> None:
    table = make_table([[0.1, 0.5, 0.9, 0.3], list("abab")], [0, 1, 0, 1],
                       kinds=["continuous", "categorical"])
    predictor = FunctionPredictor(table.schema, lambda cols: np.full(len(cols[0]), 0.5))
    pool = PerturbationPool(predictor, fit_discretizer(table), LimeConfig(n_samples=20))
    args = {"columns": [column[:3] for column in table.columns], "true_labels": [0, 1, 0],
            "probabilities": [0.5, 0.5, 0.5]}
    with pytest.raises(error, match=message):
        pool.explain_rows(["0", "1", "2"], **(args | override))


# --- outside models: a pool of table rows -------------------------------------------


def outside_model(n: int = 30, seed: int = 8) -> tuple:
    """An ExternalPredictions over a mixed table of ``n`` rows, and the table's
    discretizer."""
    rng = np.random.default_rng(seed)
    table = make_table([rng.uniform(size=n).tolist(), rng.choice(list("abc"), size=n).tolist()],
                       rng.integers(0, 2, size=n).tolist(), kinds=["continuous", "categorical"])
    probs = dict(zip(table.row_ids, rng.uniform(size=n).tolist()))
    return ExternalPredictions(probs, table), fit_discretizer(table)


def test_an_outside_models_pool_is_table_rows_with_their_given_probabilities() -> None:
    predictor, disc = outside_model()
    table = predictor.reference
    config = LimeConfig(n_samples=60, seed=17)
    drawn, scores = PerturbationPool(predictor, disc, config).scored
    rows = np.random.default_rng(17).integers(table.n_rows, size=59)
    codes = [[disc.per_feature[0].bin_of(table.columns[0][i]),
              disc.per_feature[1].categories.index(table.columns[1][i])] for i in rows]
    assert drawn.tolist() == codes
    assert scores.tolist() == [predictor.probabilities[table.row_ids[i]] for i in rows]


def test_a_lone_explanation_of_an_outside_model_needs_the_rows_probability() -> None:
    predictor, disc = outside_model()
    table, pool = predictor.reference, PerturbationPool(predictor, disc, LimeConfig(n_samples=60))
    with pytest.raises(DataError, match="only its table's rows"):
        explain_one(pool, "3", table.row_values(3), int(table.labels[3]))
    exp = explain_one(pool, "3", table.row_values(3), int(table.labels[3]),
                      probability=predictor.probabilities["3"])
    assert exp.predicted_probability == predictor.probabilities["3"]


def test_an_outside_models_pool_needs_rows_its_discretizer_codes() -> None:
    predictor, disc = outside_model()
    config = LimeConfig(n_samples=60)
    empty = ExternalPredictions({}, predictor.reference.subset([]))
    with pytest.raises(EmptyTable):
        PerturbationPool(empty, disc, config).scored
    # a category the discretizer never saw has code -1, which would match an
    # explained row's unseen category whatever its value
    seen = np.flatnonzero(predictor.reference.columns[1] != "c")
    with pytest.raises(DataError, match="'f1'"):
        PerturbationPool(predictor, fit_discretizer(predictor.reference.subset(seen)),
                         config).scored
    other = make_table([[0.0, 1.0]], [0, 1])
    with pytest.raises(SchemaMismatch):
        PerturbationPool(predictor, fit_discretizer(other), config).scored


def test_a_lone_explanation_equals_the_rows_explanation_in_any_batch() -> None:
    rng = np.random.default_rng(6)
    table = make_table(
        [rng.uniform(size=60).tolist(), rng.uniform(size=60).tolist(),
         rng.choice(["a", "b", "c"], size=60).tolist()],
        rng.integers(0, 2, size=60).tolist(), kinds=["continuous"] * 2 + ["categorical"])
    disc = fit_discretizer(table)

    def score(cols):
        x0, x1 = (np.asarray(c, dtype=np.float64) for c in cols[:2])
        return 1.0 / (1.0 + np.exp(-(x0 - x1 + 0.5 * (np.asarray(cols[2]) == "a"))))

    predictor = FunctionPredictor(table.schema, score)
    config = LimeConfig(n_samples=200, seed=11)
    mis = find_misclassified(predictor, table, split="all")
    assert len(mis.row_ids) >= 4
    batch = explain_misclassified(PerturbationPool(predictor, disc, config), mis)

    rows = {rid: i for i, rid in enumerate(table.row_ids)}
    for exp in reversed(batch):  # another order, one row at a time
        i = rows[exp.row_id]
        # each through its own pool: one drawn independently gives the same
        lone = explain_one(PerturbationPool(predictor, disc, config), exp.row_id,
                           table.row_values(i), int(table.labels[i]),
                           probability=float(mis.probabilities[i]))
        assert lone == exp
    # a batch of other rows leaves each row's explanation as it was
    keep = [rows[rid] for rid in mis.row_ids[::2]]
    fewer = find_misclassified(predictor, table.subset(keep), split="all")
    assert explain_misclassified(PerturbationPool(predictor, disc, config), fewer) == batch[::2]


def test_explain_rows_fits_a_wide_pass_in_blocks_of_its_own_budget(monkeypatch,
                                                                    tmp_path) -> None:
    # 2**8 match patterns for 100 samples: each row is fitted per sample, and
    # holds its design row per sample
    rng = np.random.default_rng(9)
    table = make_table([rng.uniform(size=40).tolist() for _ in range(8)],
                       rng.integers(0, 2, size=40).tolist())
    predictor = FunctionPredictor(
        table.schema, lambda cols: 1.0 / (1.0 + np.exp(-np.asarray(cols[0], dtype=np.float64))))
    pool = PerturbationPool(predictor, fit_discretizer(table), LimeConfig(n_samples=100, seed=3))
    assert pool.row_bytes == 8 * 100 * 9
    stacks = []
    fit = lime_module.fit_local_model
    monkeypatch.setattr(lime_module, "fit_local_model",
                        lambda z, *args: stacks.append(len(z)) or fit(z, *args))

    def written(path) -> bytes:
        write_explanations_jsonl(pool.explain_rows(table.row_ids, table.columns,
                                                   table.labels.tolist(),
                                                   np.linspace(0.1, 0.9, 40)), str(path))
        return path.read_bytes()

    reference = written(tmp_path / "one.jsonl")
    assert stacks == [40]  # the budget holds the whole pass
    stacks.clear()
    monkeypatch.setattr(lime_module, "_BLOCK_BYTES", pool.row_bytes)
    assert written(tmp_path / "rows.jsonl") == reference
    assert stacks == [1] * 40


@pytest.mark.parametrize("n_features", [1, 7])  # match patterns, then samples
def test_explaining_no_rows_scores_no_pool(n_features: int) -> None:
    table = make_table([[0.0, 1.0, 2.0, 3.0]] * (n_features - 1) + [[5.0] * 4], [0, 1, 0, 1])

    def score(cols):
        raise AssertionError("the pool was scored")

    # a constant feature with no ridge: any row to explain would be singular
    pool = PerturbationPool(FunctionPredictor(table.schema, score), fit_discretizer(table),
                            LimeConfig(n_samples=50, ridge_lambda=0.0))
    assert pool.explain_rows([], [np.zeros(0)] * n_features, [], []) == []


@pytest.mark.parametrize("kind, values, explained, named", [
    # one bin: every row matches every sample
    ("continuous", [5.0] * 4, [5.0, 5.0, 5.0], "a"),
    # one category, which row "a" does not hold
    ("categorical", ["k"] * 4, ["zz", "k", "k"], "b"),
])
def test_a_feature_every_sample_of_a_row_matches_is_named_without_a_ridge(
    kind: str, values: list, explained: list, named: str,
) -> None:
    table = make_table([[0.0, 1.0, 2.0, 3.0], values], [0, 1, 0, 1],
                       kinds=["continuous", kind])
    predictor = FunctionPredictor(table.schema, lambda cols: np.full(len(cols[0]), 0.5))
    pool = PerturbationPool(predictor, fit_discretizer(table),
                            LimeConfig(n_samples=50, ridge_lambda=0.0))
    rows = (["a", "b", "c"], [np.asarray([0.0, 1.0, 2.0]), np.asarray(explained)], [0, 1, 0],
            [0.5] * 3)
    with pytest.raises(SingularSystem, match=rf"feature 'f1' .* row '{named}'.*--ridge-lambda"):
        pool.explain_rows(*rows)
    # a ridge fits every row
    assert len(PerturbationPool(predictor, pool.disc, LimeConfig(n_samples=50)).explain_rows(
        *rows)) == 3


def per_sample_designs(pool: PerturbationPool, columns, probabilities) -> list:
    """Each row's per-sample design ``(z, y, w)``, where sample 0 matches
    every feature and a pool sample feature j where its drawn bin or category
    is the row's."""
    drawn, pool_probs = pool.scored
    d = len(pool.disc.schema)
    width = pool.config.kernel_width or default_kernel_width(d)
    designs = []
    for r, probability in enumerate(probabilities):
        codes = [bins.bin_of(column[r]) if not hasattr(bins, "categories") else
                 bins.categories.index(column[r]) if column[r] in bins.categories else -1
                 for bins, column in zip(pool.disc.per_feature, columns)]
        z = np.ones((pool.config.n_samples, d))
        z[1:] = drawn == codes
        designs.append((z, np.r_[probability, pool_probs], kernel_weights(z, width)))
    return designs


def eliminate(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The solution of a positive-definite system by Gaussian elimination,
    in the precision of ``a`` and ``b``."""
    a, b = a.copy(), b.copy()
    k = len(b)
    for i in range(k):
        for r in range(i + 1, k):
            m = a[r, i] / a[i, i]
            a[r, i:] -= m * a[i, i:]
            b[r] -= m * b[i]
    beta = np.zeros_like(b)
    for i in reversed(range(k)):
        beta[i] = (b[i] - a[i, i + 1:] @ beta[i + 1:]) / a[i, i]
    return beta


def longdouble_fits(pool: PerturbationPool, columns, probabilities) -> list:
    """Each row's per-sample fit (coefficients, intercept and R^2) with its
    sums and solve in np.longdouble, or fit_local_model's SingularSystem;
    with the weighted variance of the row's targets and the condition number
    of its normal equations.  A float64 fit's sums over hundreds of samples
    may round further from the exact fit than the pattern fit does."""
    lam = pool.config.ridge_lambda
    fits = []
    for z, y, w in per_sample_designs(pool, columns, probabilities):
        variance = float(np.sum(w * (y - np.sum(w * y) / np.sum(w)) ** 2) / np.sum(w))
        ridge = lam * np.diag([0.0] + [1.0] * z.shape[1])
        x = np.hstack([np.ones((len(z), 1)), z])
        cond = float(np.linalg.cond((x * w[:, None]).T @ x + ridge))
        fit = _fit_or_error(z, y, w, lam)
        if not isinstance(fit, SingularSystem):
            x, y, w = (v.astype(np.longdouble) for v in (x, y, w))
            xtw = (x * w[:, None]).T
            beta = eliminate(xtw @ x + ridge, xtw @ y)
            pos = w > 0
            y_bar = np.sum(w * y) / np.sum(w)
            r2 = lime_module._r2(y[pos].max() > y[pos].min(), np.sum(w * (y - x @ beta) ** 2),
                                 np.sum(w * (y - y_bar) ** 2), len(y), np.abs(y).max(),
                                 np.sum(w))
            fit = beta[1:].astype(np.float64), float(beta[0]), float(r2)
        fits.append((fit, variance, cond))
    return fits


def pool_and_rows(kinds, levels, table_seed: int, slope_scale: float, config: LimeConfig,
                  unseen):
    """A pool over features of ``kinds``, feature j drawn from ``levels[j]``
    levels (one level: a single bin), with slopes scaled by ``slope_scale``
    (0: constant targets); and three rows to explain, with the scores a
    scoring pass gave them.  Row 0 holds a category unseen in training in
    each categorical feature j with ``unseen[j]``."""
    rng = np.random.default_rng(table_seed)
    columns = [rng.integers(0, n, size=40) / 2.0 if kind == "continuous"
               else rng.choice(list("abcd")[:n], size=40) for kind, n in zip(kinds, levels)]
    table = make_table([c.tolist() for c in columns], [0] * 40, kinds=kinds)
    slopes = rng.normal(size=len(kinds)) * slope_scale

    def score(cols):
        x = [np.asarray(c, dtype=np.float64) if k == "continuous" else
             (np.asarray(c) == "a") - (np.asarray(c) == "b") * 1.0 for c, k in zip(cols, kinds)]
        return 1.0 / (1.0 + np.exp(-(slopes @ np.stack(x) - 0.2)))

    pool = PerturbationPool(FunctionPredictor(table.schema, score), fit_discretizer(table),
                            config)
    rows = rng.integers(0, 40, size=3)
    explained = [column[rows] for column in table.columns]
    for column, new_category in zip(explained, unseen):
        if new_category:
            column[0] = "zz"  # unseen in training: it matches no draw
    return pool, explained, score(explained)


@st.composite
def pools_and_rows(draw, wide: bool):
    """:func:`pool_and_rows` over d <= 8 mixed features, with ridge 0 or
    more, and kernel widths whose weights may underflow to 0.  The predictor
    may be constant.  Its 2**d match patterns are more than its samples if
    ``wide``, else at most as many."""
    d = draw(st.integers(1 + wide, 8))
    table_seed = draw(st.integers(0, 2 ** 32 - 1))
    kinds = draw(st.lists(st.sampled_from(["continuous", "categorical"]),
                          min_size=d, max_size=d))
    levels = [draw(st.sampled_from([1, 2, 4, 4])) for _ in kinds]
    slope_scale = draw(st.sampled_from([0.0, 1.0]))
    config = LimeConfig(
        n_samples=draw(st.integers(2, 2 ** d - 1) if wide else st.integers(2 ** d, 2 ** d + 400)),
        kernel_width=draw(st.sampled_from([None, 0.4, 0.02])),  # 0.02: exp(-2500) is 0
        ridge_lambda=draw(st.sampled_from([0.0, 1.0, 1.0])), top_k=d,
        seed=draw(st.integers(0, 2 ** 64 - 1)))
    unseen = [kind == "categorical" and draw(st.booleans()) for kind in kinds]
    return pool_and_rows(kinds, levels, table_seed, slope_scale, config, unseen)


def explain_or_error(pool, columns, probabilities, off_path: str):
    """The pool's explanations of the rows, or its SingularSystem, with the
    fit named ``off_path`` failing if it is called."""
    with mock.patch.object(lime_module, off_path, side_effect=AssertionError(off_path)):
        try:
            return pool.explain_rows(["r0", "r1", "r2"], columns, [0] * 3, probabilities)
        except SingularSystem as exc:
            return exc


@given(pools_and_rows(wide=False))
@settings(max_examples=500)
# the shrunk failures of --hypothesis-seed 15 and 38 on an empty example
# database, when the reference fit summed its 338 and 356 samples in float64
@example(pool_and_rows(["continuous"], [4], 10487273, 1.0,
                       LimeConfig(n_samples=338, kernel_width=0.4, ridge_lambda=0.0, top_k=1,
                                  seed=30), [False]))
@example(pool_and_rows(["continuous"] * 4, [4] * 4, 218, 1.0,
                       LimeConfig(n_samples=356, kernel_width=0.4, ridge_lambda=0.0, top_k=4,
                                  seed=0), [False] * 4))
def test_the_pattern_fit_agrees_with_the_per_sample_fit(case) -> None:
    # with no more match patterns than samples, each row is fitted from its
    # patterns' counts and sums: the per-sample fit's values up to rounding,
    # and its SingularSystem
    pool, columns, probabilities = case
    expected = longdouble_fits(pool, columns, probabilities)
    got = explain_or_error(pool, columns, probabilities, off_path="fit_local_model")
    if any(isinstance(fit, SingularSystem) for fit, _, _ in expected):
        assert isinstance(got, SingularSystem)
        return
    assert not isinstance(got, SingularSystem)
    names = [spec.name for spec in pool.disc.schema]
    for exp, ((coef, intercept, r2), variance, cond) in zip(got, expected):
        # rounding moves a solution by up to the condition number times more
        tol = 1e-12 * max(1.0, cond / 1e3)
        weights = dict((c.feature, w) for c, w in exp.terms)
        scale = max(1.0, float(np.abs(coef).max()))
        assert np.abs([weights[name] for name in names] - coef).max() <= tol * scale
        assert abs(exp.intercept - intercept) <= tol * max(1.0, abs(intercept))
        # R^2 compares squared residuals with the targets' variance, so where
        # the targets barely vary, rounding moves it by more
        assert abs(exp.surrogate_r2 - r2) * min(1.0, variance) <= tol
        if variance == 0.0:
            assert exp.surrogate_r2 == r2 == 1.0


@given(pools_and_rows(wide=True))
@settings(max_examples=100)
def test_with_more_patterns_than_samples_explanations_keep_the_per_sample_bytes(case) -> None:
    pool, columns, probabilities = case
    designs = per_sample_designs(pool, columns, probabilities)
    expected = [_fit_or_error(z, y, w, pool.config.ridge_lambda) for z, y, w in designs]
    got = explain_or_error(pool, columns, probabilities, off_path="_fit_patterns")
    # without a ridge, a feature that every sample of a row matches is named,
    # with its first such row; any other singular fit keeps its own message
    matched = [(spec.name, f"r{r}") for j, spec in enumerate(pool.disc.schema)
               for r, (z, _, _) in enumerate(designs) if z[:, j].all()]
    if pool.config.ridge_lambda == 0 and matched:
        name, row = matched[0]
        assert isinstance(got, SingularSystem)
        assert f"feature {name!r}" in str(got) and f"row {row!r}" in str(got)
        return
    if any(isinstance(fit, SingularSystem) for fit in expected):
        assert str(got) == str(next(f for f in expected if isinstance(f, SingularSystem)))
        return
    names = [spec.name for spec in pool.disc.schema]
    for exp, (coef, intercept, r2) in zip(got, expected):
        weights = dict((cond.feature, w) for cond, w in exp.terms)
        assert np.asarray([weights[name] for name in names]).tobytes() == coef.tobytes()
        assert (exp.intercept, exp.surrogate_r2) == (intercept, r2)


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
    pool = PerturbationPool(predictor, disc, config)
    explanations = [explain_one(pool, rid, table.row_values(i), int(table.labels[i]))
                    for i, rid in enumerate(table.row_ids[:5])]
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


@pytest.mark.parametrize("config", [LimeConfig, GbdtParams])
def test_library_configs_take_only_64_bit_unsigned_seeds(config) -> None:
    assert config(seed=2**64 - 1).seed == 2**64 - 1
    for bad in (-1, 2**64):
        with pytest.raises(DataError, match=r"seed must be within \[0, 2\*\*64\)"):
            config(seed=bad)
