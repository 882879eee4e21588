"""Synthetic data generation with a planted noisy region."""

from __future__ import annotations

import math

import numpy as np
import pytest

from errlens import SynthSpec, default_spec, generate
from errlens.errors import InvalidSpec


def test_default_spec_plants_the_box_on_the_first_feature() -> None:
    spec = default_spec(n_rows=100, n_features=4)
    assert spec.ranges == ((0.0, 1.0),) * 4
    assert spec.weights == (1.0,) * 4
    assert spec.offset == 2.0
    assert spec.box == ((0.75, None), (None, None), (None, None), (None, None))


def test_generation_is_deterministic_per_seed() -> None:
    spec = default_spec(n_rows=50, seed=3)
    t1, g1 = generate(spec)
    t2, g2 = generate(spec)
    t3, _ = generate(default_spec(n_rows=50, seed=4))
    assert np.array_equal(t1.columns[0], t2.columns[0])
    assert t1.labels.tolist() == t2.labels.tolist()
    assert g1 == g2
    assert not np.array_equal(t1.columns[0], t3.columns[0])


def test_row_ids_are_the_row_indices() -> None:
    table, _ = generate(default_spec(n_rows=5))
    assert table.row_ids == ("0", "1", "2", "3", "4")


def test_labels_are_the_linear_concept_flipped_only_inside_the_box() -> None:
    spec = default_spec(n_rows=400, n_features=3, flip_rate=0.5, seed=9)
    table, truth = generate(spec)
    score = sum(w * table.columns[j] for j, w in enumerate(spec.weights))
    clean = (score > spec.offset).astype(int)

    flipped = set(truth.flipped_row_ids)
    in_box = set(truth.in_box_row_ids)
    assert flipped <= in_box
    for i, rid in enumerate(table.row_ids):
        expected = 1 - clean[i] if rid in flipped else clean[i]
        assert table.labels[i] == expected

    box_mask = table.columns[0] >= 0.75
    assert {rid for rid, inside in zip(table.row_ids, box_mask) if inside} == in_box


def test_box_mass_and_flip_counts_match_their_probabilities() -> None:
    table, truth = generate(default_spec(n_rows=10_000, flip_rate=0.4, seed=1))
    n_box = len(truth.in_box_row_ids)
    assert n_box / table.n_rows == pytest.approx(0.25, abs=0.02)

    expected_flips = 0.4 * n_box
    std = math.sqrt(n_box * 0.4 * 0.6)
    assert abs(len(truth.flipped_row_ids) - expected_flips) <= 3 * std


def test_flip_rate_extremes() -> None:
    _, none_flipped = generate(default_spec(n_rows=300, flip_rate=0.0, seed=2))
    assert none_flipped.flipped_row_ids == ()
    _, all_flipped = generate(default_spec(n_rows=300, flip_rate=1.0, seed=2))
    assert all_flipped.flipped_row_ids == all_flipped.in_box_row_ids


def test_ground_truth_serializes_to_plain_json() -> None:
    _, truth = generate(default_spec(n_rows=10, seed=5))
    obj = truth.to_json_obj()
    assert obj["box"][0] == [0.75, None]
    assert set(obj["flipped_row_ids"]) <= set(obj["in_box_row_ids"])


def test_spec_validation_rejects_inconsistent_shapes_and_ranges() -> None:
    base = dict(n_rows=10, ranges=((0.0, 1.0),), weights=(1.0,),
                offset=0.5, box=((None, None),), flip_rate=0.1)
    SynthSpec(**base)  # sanity: the base spec itself is valid
    with pytest.raises(InvalidSpec):
        SynthSpec(**{**base, "n_rows": 0})
    with pytest.raises(InvalidSpec):
        SynthSpec(**{**base, "weights": (1.0, 2.0)})
    with pytest.raises(InvalidSpec):
        SynthSpec(**{**base, "ranges": ((1.0, 0.0),)})
    with pytest.raises(InvalidSpec):
        SynthSpec(**{**base, "box": ((5.0, None),)})
    with pytest.raises(InvalidSpec):
        SynthSpec(**{**base, "flip_rate": 1.5})


def test_spec_rejects_a_negative_seed() -> None:
    default_spec(n_rows=10, seed=0)
    with pytest.raises(InvalidSpec, match="seed"):
        default_spec(n_rows=10, seed=-1)
