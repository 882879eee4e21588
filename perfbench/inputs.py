"""Seeded input tables for the benchmark workloads.

The generators live here, not in ``errlens.synth``, so that a change to the
program cannot change what the benchmark feeds it.  Each takes the workload
seed and a directory and writes the CSV files the workload's argv names.
Continuous cells use ``repr(float)``, the same shortest round-trip format as
``errlens.data.write_csv``, so ``planted`` reproduces ``errlens synth`` byte
for byte.
"""

from __future__ import annotations

import csv
import os

import numpy as np

LEVELS = tuple(f"k{i}" for i in range(5))


def _write(path: str, header: list[str], columns: list, labels: np.ndarray) -> None:
    cells = [[repr(float(v)) for v in col] if col.dtype.kind == "f" else list(col)
             for col in columns]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*cells, (str(int(y)) for y in labels)))


def planted(out_dir: str, seed: int, n_rows: int = 2000, n_features: int = 6,
            flip_rate: float = 0.4) -> dict[str, str]:
    """``default_spec``'s distribution: unit-cube features, majority-sum
    concept, labels flipped with ``flip_rate`` where ``f0 >= 0.75``.  The
    random stream is drawn in the same order as ``errlens.synth.generate``."""
    rng = np.random.default_rng(seed)
    columns = [rng.uniform(0.0, 1.0, size=n_rows) for _ in range(n_features)]
    clean = np.sum(columns, axis=0) > n_features / 2.0
    flips = (columns[0] >= 0.75) & (rng.uniform(size=n_rows) < flip_rate)
    labels = np.where(flips, ~clean, clean)
    path = os.path.join(out_dir, "planted.csv")
    _write(path, [f"f{j}" for j in range(n_features)] + ["label"], columns, labels)
    return {"data": path}


def external(out_dir: str, seed: int, n_rows: int = 2000, n_continuous: int = 6,
             n_categorical: int = 2, n_flips: int = 200) -> dict[str, str]:
    """A table plus a ``row_id,probability`` file from an outside model.

    The probabilities are a sigmoid of the clean score
    ``sum(x) + 0.5*[c0 == k0]`` centred on its median, so the outside model
    is wrong exactly where labels were flipped.  Exactly ``n_flips`` labels
    are flipped, drawn from the rows where ``x0 >= 0.75``, so that every seed
    asks ``mine`` for the same number of explanations.
    """
    rng = np.random.default_rng(seed)
    xs = [rng.uniform(0.0, 1.0, size=n_rows) for _ in range(n_continuous)]
    cs = [np.asarray(LEVELS)[rng.integers(len(LEVELS), size=n_rows)]
          for _ in range(n_categorical)]
    score = np.sum(xs, axis=0) + 0.5 * (cs[0] == LEVELS[0])
    centred = score - np.median(score)
    flips = np.zeros(n_rows, dtype=bool)
    flips[rng.choice(np.flatnonzero(xs[0] >= 0.75), size=n_flips, replace=False)] = True
    labels = np.where(flips, centred <= 0, centred > 0)
    header = ([f"x{j}" for j in range(n_continuous)]
              + [f"c{j}" for j in range(n_categorical)] + ["label"])
    data = os.path.join(out_dir, "external.csv")
    _write(data, header, xs + cs, labels)
    preds = os.path.join(out_dir, "preds.csv")
    probs = 1.0 / (1.0 + np.exp(-4.0 * centred))
    with open(preds, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["row_id", "probability"])
        writer.writerows((str(i), repr(float(p))) for i, p in enumerate(probs))
    return {"data": data, "predictions": preds}
