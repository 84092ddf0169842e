"""End-to-end orchestration shared by the command-line layer and tests.

Every function here is a thin composition of library calls, so a CLI
command's output can be checked byte-for-byte against the same sequence
of library operations.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .baselines import MultinomialModel, first_baseline_predictions, fit_multinomial
from .corpus import Corpus
from .embeddings import EmbeddingStore
from .evaluation import CVResult, FoldPlan, Trainer, cross_validate, truth_labels
from .features import KeyPlan, Relation, Triple, extract, fit_standardizer, matrix
from .model import ARGMAX, FitConfig, LearnedModel
from .ordinal import OrdinalModel
from .ordinal import fit as fit_ordinal

MODEL_FIRST = "first"
MODEL_MULTINOMIAL = MultinomialModel.model_type
MODEL_ORDINAL = OrdinalModel.model_type
CV_MODEL_TYPES = (MODEL_FIRST, MODEL_MULTINOMIAL, MODEL_ORDINAL)


def extract_matrix(store: EmbeddingStore, plan: KeyPlan, *,
                   ops_denominator: str = "embedded"):
    """Feature vectors of the plan's triples plus their (n, 4) matrix form."""
    vectors = extract(store, plan, ops_denominator=ops_denominator)
    return vectors, matrix(vectors)


def train_model(triples: list[Triple], X, *, model_type: str = MODEL_ORDINAL,
                fit_config: FitConfig | None = None,
                relation: Relation | None = None):
    """Standardize on the given rows, fit, and attach that standardizer and the relation."""
    fit = {MODEL_ORDINAL: fit_ordinal, MODEL_MULTINOMIAL: fit_multinomial}.get(model_type)
    if fit is None:
        raise ValueError(f"unknown model type {model_type!r}")
    y = truth_labels(triples)
    standardizer = fit_standardizer(X)
    return dataclasses.replace(fit(standardizer.apply(X), y, fit_config),
                               standardizer=standardizer, relation=relation)


def predict_scores(model: LearnedModel, X, rule: str = ARGMAX) -> list[int]:
    """Apply the model's own standardizer, then predict raw feature rows.

    An artifact's standardizer can overflow a row; `model.predict` refuses
    the row, as ArtifactError, once it reaches a non-finite logit.
    """
    X = np.asarray(X, dtype=float)
    if model.standardizer is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            X = model.standardizer.apply(X)
    return model.predict(X, rule)


def make_trainer(model_type: str, *, fit_config: FitConfig | None = None,
                 corpus: Corpus | None = None,
                 prediction_rule: str = ARGMAX) -> Trainer:
    """Trainer in the cross_validate calling convention.

    The rule baseline ignores features and labels entirely; the two
    learned models standardize on the training rows they are handed.
    """
    if model_type == MODEL_FIRST:
        if corpus is None:
            raise ValueError("the first-mention baseline needs the corpus")

        def first_trainer(train_triples, X_train, y_train):
            def predict(test_triples, X_test):
                return first_baseline_predictions(corpus, test_triples)
            return predict

        return first_trainer

    if model_type in (MODEL_ORDINAL, MODEL_MULTINOMIAL):

        def model_trainer(train_triples, X_train, y_train):
            model = train_model(
                train_triples, X_train, model_type=model_type, fit_config=fit_config
            )

            def predict(test_triples, X_test):
                return predict_scores(model, X_test, prediction_rule)
            return predict

        return model_trainer

    raise ValueError(f"unknown model type {model_type!r}")


def run_cv_comparison(triples: list[Triple], X, corpus: Corpus, *,
                      fit_config: FitConfig | None = None, folds: int = 5,
                      seed: int = 0, delta: int = 2, tau_variant: str = "b",
                      singleton_policy: str = "one",
                      prediction_rule: str = ARGMAX) -> dict[str, CVResult]:
    """Cross-validate every model type over one fold plan.

    The three result sets share the exact same splits, so they are
    directly comparable. Every fold of every model runs in order in the
    calling thread.
    """
    plan = FoldPlan(triples, folds, seed)
    results = {}
    for model_type in CV_MODEL_TYPES:
        trainer = make_trainer(
            model_type, fit_config=fit_config, corpus=corpus,
            prediction_rule=prediction_rule,
        )
        results[model_type] = cross_validate(
            plan, X, trainer, delta=delta, tau_variant=tau_variant,
            singleton_policy=singleton_policy,
        )
    return results
