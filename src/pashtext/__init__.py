"""pashtext: dependency-light text classification for Arabic-script corpora.

The package covers the full experimental loop: corpus loading, validation
and stratified splitting; Unicode normalisation and tokenization tuned for
Pashto; unigram and TFIDF features with chi-square selection; eight
classifier families implemented from first principles; evaluation metrics;
and a deterministic 16-cell comparison grid, all scriptable through the
``pashtext`` command.
"""

import os

# Before any submodule imports numpy: the models' matrix products are small,
# and OpenBLAS threads made them slower, never different.  A set value wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .corpus import (
    DEFAULT_LABEL_NAMES,
    Corpus,
    CorpusSplit,
    Document,
    LabelSet,
    SplitSpec,
    ValidationReport,
    load_corpus,
    load_split,
    save_corpus,
    save_split,
    stratified_split,
    validate,
)
from .errors import (
    DataError,
    InvalidHyperparameterError,
    PashtextError,
    TrainingDivergedError,
    TrainingError,
    UsageError,
)
from .grid import GridCell, GridReport, run_grid
from .metrics import (
    AggregateMetrics,
    ClassMetrics,
    ConfusionMatrix,
    EvalReport,
    aggregate,
    class_metrics,
    confusion_matrix,
    evaluate_predictions,
    overall_accuracy,
)
from .models import (
    KIND_DISPLAY_NAMES,
    Model,
    ModelKind,
    default_params,
    train,
)
from .pipeline import (
    PreprocessResult,
    TokenizedDocument,
    normalize_text,
    preprocess,
    preprocess_text,
    strip_noise,
)
from .prng import GOLDEN_GAMMA, SplitMix64, derive_seed, mix64
from .synth import generate_corpus
from .vectorize import (
    FEATURE_MODES,
    TFIDF,
    UNIGRAM,
    FeatureMask,
    FeatureMatrix,
    SplitFeatures,
    Vocabulary,
    apply_mask,
    build_vocabulary,
    chi2_scores,
    idf_weights,
    select_top_k,
    split_features,
    vectorize_documents,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateMetrics",
    "ClassMetrics",
    "ConfusionMatrix",
    "Corpus",
    "CorpusSplit",
    "DataError",
    "DEFAULT_LABEL_NAMES",
    "Document",
    "EvalReport",
    "FEATURE_MODES",
    "FeatureMask",
    "FeatureMatrix",
    "GOLDEN_GAMMA",
    "GridCell",
    "GridReport",
    "InvalidHyperparameterError",
    "KIND_DISPLAY_NAMES",
    "LabelSet",
    "Model",
    "ModelKind",
    "PashtextError",
    "PreprocessResult",
    "SplitFeatures",
    "SplitMix64",
    "SplitSpec",
    "TFIDF",
    "TokenizedDocument",
    "TrainingDivergedError",
    "TrainingError",
    "UNIGRAM",
    "UsageError",
    "ValidationReport",
    "Vocabulary",
    "aggregate",
    "apply_mask",
    "build_vocabulary",
    "chi2_scores",
    "class_metrics",
    "confusion_matrix",
    "default_params",
    "derive_seed",
    "evaluate_predictions",
    "generate_corpus",
    "idf_weights",
    "load_corpus",
    "load_split",
    "mix64",
    "normalize_text",
    "overall_accuracy",
    "preprocess",
    "preprocess_text",
    "run_grid",
    "save_corpus",
    "save_split",
    "select_top_k",
    "split_features",
    "stratified_split",
    "strip_noise",
    "train",
    "validate",
    "vectorize_documents",
    "__version__",
]
