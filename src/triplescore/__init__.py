"""Relevance scoring for type-like knowledge-base triples.

Given (person, relation, object) statements that are technically true
but unequally salient, this package extracts corpus and embedding
features and scores each triple on the 0..7 relevance scale with a
proportional-odds ordinal regression, alongside two reference baselines.
"""

__version__ = "0.1.0"

from .artifact import ARTIFACT_VERSION, load_model, save_model
from .baselines import (
    MultinomialModel,
    first_baseline_predictions,
    first_baseline_score,
    fit_multinomial,
)
from .corpus import (
    ABSTRACT,
    FULL_PAGE,
    Corpus,
    PageRecord,
    first_mentioned,
    load_corpus,
    mentions,
)
from .embeddings import EmbeddingStore, load_embeddings, normalize_key
from .evaluation import (
    CVResult,
    EvalReport,
    cross_validate,
    evaluate,
    kendall_tau,
)
from .features import (
    FEATURE_NAMES,
    FeatureVector,
    KeyPlan,
    ObjectUniverse,
    Relation,
    Standardizer,
    Triple,
    extract,
    fit_standardizer,
    load_triples,
    load_universe,
    lookup_keys,
    matrix,
    object_entity_similarity,
    object_mention_feature,
    ops,
    ops_rank,
)
from .model import FitConfig
from .ordinal import OrdinalModel, logistic
from .ordinal import fit as fit_ordinal
from .pipeline import (
    CV_MODEL_TYPES,
    extract_matrix,
    make_trainer,
    predict_scores,
    run_cv_comparison,
    train_model,
    truth_labels,
)

__all__ = [
    "ARTIFACT_VERSION",
    "ABSTRACT",
    "CV_MODEL_TYPES",
    "FULL_PAGE",
    "FEATURE_NAMES",
    "Corpus",
    "CVResult",
    "EmbeddingStore",
    "EvalReport",
    "FeatureVector",
    "FitConfig",
    "KeyPlan",
    "MultinomialModel",
    "ObjectUniverse",
    "OrdinalModel",
    "PageRecord",
    "Relation",
    "Standardizer",
    "Triple",
    "cross_validate",
    "evaluate",
    "extract",
    "extract_matrix",
    "first_baseline_predictions",
    "first_baseline_score",
    "first_mentioned",
    "fit_multinomial",
    "fit_ordinal",
    "fit_standardizer",
    "kendall_tau",
    "load_corpus",
    "load_embeddings",
    "load_model",
    "load_triples",
    "load_universe",
    "logistic",
    "lookup_keys",
    "make_trainer",
    "matrix",
    "mentions",
    "normalize_key",
    "object_entity_similarity",
    "object_mention_feature",
    "ops",
    "ops_rank",
    "predict_scores",
    "run_cv_comparison",
    "save_model",
    "train_model",
    "truth_labels",
]
