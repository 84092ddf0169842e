"""Relevance scoring for type-like knowledge-base triples.

Given (person, relation, object) statements that are technically true
but unequally salient, this package extracts corpus and embedding
features and scores each triple on the 0..7 relevance scale with a
proportional-odds ordinal regression, alongside two reference baselines.
"""

__version__ = "0.1.0"

from .corpus import load_corpus
from .embeddings import EmbeddingStore, load_embeddings
from .evaluation import evaluate
from .features import (
    KeyPlan,
    Relation,
    extract,
    load_triples,
    load_universe,
    matrix,
)
from .pipeline import extract_matrix, predict_scores, run_cv_comparison, train_model

__all__ = [
    "EmbeddingStore",
    "KeyPlan",
    "Relation",
    "evaluate",
    "extract",
    "extract_matrix",
    "load_corpus",
    "load_embeddings",
    "load_triples",
    "load_universe",
    "matrix",
    "predict_scores",
    "run_cv_comparison",
    "train_model",
]
