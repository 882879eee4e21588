"""errlens: find the regions of feature space where a classifier fails.

Workflow: ingest tabular or time-series data into a :class:`LabeledTable`,
train (or wrap) a binary classifier, explain each misclassified row with a
local surrogate model, mine the recurring feature conditions from those
explanations, and score each condition as a region by its error rate.
"""

from .data import (
    FeatureSpec,
    LabeledTable,
    SeriesFrame,
    concat_tables,
    featurize_rolling,
    load_csv,
    load_series_csv,
    resample_series,
    split,
    write_csv,
)
from .errors import DataError, ErrlensError, NumericalError
from .lime import (
    CategoricalBins,
    Condition,
    ContinuousBins,
    Discretizer,
    Explanation,
    LimeConfig,
    PerturbationPool,
    fit_discretizer,
    fit_local_model,
    kernel_weights,
    sample_perturbations,
    write_explanations_jsonl,
)
from .model import (
    ExternalPredictions,
    FunctionPredictor,
    GbdtModel,
    GbdtParams,
    Metrics,
    Predictor,
    load_external_predictions,
    train_gbdt,
)
from .regions import (
    ConditionStats,
    MisclassifiedSet,
    RegionReport,
    explain_misclassified,
    find_misclassified,
    mine_conditions,
    report_from_explanations,
)
from .report import render_error_plot, render_text_table, write_report_files
from .synth import GroundTruth, SynthSpec, default_spec, generate

__version__ = "0.1.0"

__all__ = [
    "CategoricalBins",
    "Condition",
    "ConditionStats",
    "ContinuousBins",
    "DataError",
    "Discretizer",
    "ErrlensError",
    "Explanation",
    "ExternalPredictions",
    "FeatureSpec",
    "FunctionPredictor",
    "GbdtModel",
    "GbdtParams",
    "GroundTruth",
    "LabeledTable",
    "LimeConfig",
    "Metrics",
    "MisclassifiedSet",
    "NumericalError",
    "PerturbationPool",
    "Predictor",
    "RegionReport",
    "SeriesFrame",
    "SynthSpec",
    "concat_tables",
    "default_spec",
    "explain_misclassified",
    "featurize_rolling",
    "find_misclassified",
    "fit_discretizer",
    "fit_local_model",
    "generate",
    "kernel_weights",
    "load_csv",
    "load_external_predictions",
    "load_series_csv",
    "mine_conditions",
    "render_error_plot",
    "render_text_table",
    "report_from_explanations",
    "resample_series",
    "sample_perturbations",
    "split",
    "train_gbdt",
    "write_csv",
    "write_explanations_jsonl",
    "write_report_files",
]
