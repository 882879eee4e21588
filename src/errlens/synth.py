"""Synthetic tabular data with a planted noisy region.

Rows are uniform over per-feature ranges; the clean label is a linear
threshold concept.  Inside one axis-aligned box the label is flipped with a
fixed probability, planting a region of irreducible error whose recovery can
be checked against ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import FeatureSpec, LabeledTable, check_seed
from .errors import InvalidSpec

Interval = tuple[float | None, float | None]  # None = unconstrained side


@dataclass(frozen=True, slots=True)
class SynthSpec:
    """Generator parameters.

    ``box`` gives, per feature, the interval (inclusive) the noisy region
    occupies; use None bounds for unconstrained sides.  Labels inside the box
    flip with probability ``flip_rate``; rows outside are never flipped.
    """

    n_rows: int
    ranges: tuple[tuple[float, float], ...]
    weights: tuple[float, ...]
    offset: float
    box: tuple[Interval, ...]
    flip_rate: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_rows < 1:
            raise InvalidSpec("n_rows must be at least 1")
        d = len(self.ranges)
        if d == 0:
            raise InvalidSpec("at least one feature required")
        if len(self.weights) != d or len(self.box) != d:
            raise InvalidSpec("weights and box must cover every feature")
        for lo, hi in self.ranges:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise InvalidSpec(f"bad feature range ({lo!r}, {hi!r})")
        for (lo, hi), (blo, bhi) in zip(self.ranges, self.box):
            lo_eff = blo if blo is not None else lo
            hi_eff = bhi if bhi is not None else hi
            if lo_eff > hi_eff or hi_eff < lo or lo_eff > hi:
                raise InvalidSpec("box does not intersect the feature ranges")
        if not 0.0 <= self.flip_rate <= 1.0:
            raise InvalidSpec("flip_rate must be within [0, 1]")
        check_seed(self.seed, InvalidSpec)

    @property
    def n_features(self) -> int:
        return len(self.ranges)


@dataclass(frozen=True, slots=True)
class GroundTruth:
    """What was planted: the noisy box and which rows actually flipped."""

    box: tuple[Interval, ...]
    flipped_row_ids: tuple[str, ...]
    in_box_row_ids: tuple[str, ...]

    def to_json_obj(self) -> dict:
        return {
            "box": [[lo, hi] for lo, hi in self.box],
            "flipped_row_ids": list(self.flipped_row_ids),
            "in_box_row_ids": list(self.in_box_row_ids),
        }


def default_spec(n_rows: int, n_features: int = 6, flip_rate: float = 0.4,
                 seed: int = 0) -> SynthSpec:
    """Balanced default: unit-cube features, majority-sum concept, and a
    noisy box on the top quartile of the first feature."""
    if n_features < 1:
        raise InvalidSpec("at least one feature required")
    box: list[Interval] = [(None, None)] * n_features
    box[0] = (0.75, None)
    return SynthSpec(
        n_rows=n_rows,
        ranges=((0.0, 1.0),) * n_features,
        weights=(1.0,) * n_features,
        offset=n_features / 2.0,
        box=tuple(box),
        flip_rate=flip_rate,
        seed=seed,
    )


def generate(spec: SynthSpec) -> tuple[LabeledTable, GroundTruth]:
    """Draw the table and ground truth for a spec; fully seed-determined.

    Features are drawn column by column, then one flip draw per row, so the
    stream layout is stable across spec changes that keep n_rows and the
    feature count.  Row ids are the row indices as strings.
    """
    rng = np.random.default_rng(spec.seed)
    n, d = spec.n_rows, spec.n_features
    columns = tuple(rng.uniform(lo, hi, size=n) for lo, hi in spec.ranges)

    score = np.zeros(n)
    for c, col in zip(spec.weights, columns):
        score += c * col
    clean = score > spec.offset

    in_box = np.ones(n, dtype=bool)
    for (blo, bhi), col in zip(spec.box, columns):
        if blo is not None:
            in_box &= col >= blo
        if bhi is not None:
            in_box &= col <= bhi
    flips = in_box & (rng.uniform(size=n) < spec.flip_rate)

    labels = np.where(flips, ~clean, clean).astype(np.int64)
    row_ids = tuple(str(i) for i in range(n))
    table = LabeledTable(
        schema=tuple(FeatureSpec(f"f{j}", "continuous") for j in range(d)),
        columns=columns,
        labels=labels,
        row_ids=row_ids,
    )
    truth = GroundTruth(
        box=spec.box,
        flipped_row_ids=tuple(r for r, f in zip(row_ids, flips) if f),
        in_box_row_ids=tuple(r for r, b in zip(row_ids, in_box) if b),
    )
    return table, truth
