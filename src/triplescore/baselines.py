"""Reference scorers the ordinal model is compared against.

Two baselines: a rule that gives full relevance to the first candidate
object mentioned in an entity's abstract and zero to everything else,
and an 8-way multinomial logistic classifier that ignores class order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, first_mentioned
from .embeddings import normalize_key
from .features import Relation, Standardizer, Triple
from .model import NUM_CLASSES, FitConfig, LearnedModel, fit_model

FIRST_MATCH_SCORE = 7
FIRST_MISS_SCORE = 0


def first_baseline_score(corpus: Corpus, entity: str,
                         candidates: list[str]) -> dict[str, int]:
    """Score an entity's candidate objects by the first-mention rule.

    The candidate whose mention appears earliest in the entity's abstract
    gets 7; every other candidate gets 0, as does everything when no
    candidate is mentioned or the entity has no page record. Keys of the
    returned map are normalized candidate keys.
    """
    record = corpus.get(entity)
    first = first_mentioned(record, candidates) if record is not None else None
    return {
        key: FIRST_MATCH_SCORE if key == first else FIRST_MISS_SCORE
        for key in (normalize_key(c) for c in candidates)
    }


def first_baseline_predictions(corpus: Corpus, triples: list[Triple]) -> list[int]:
    """First-mention rule over a triple list, grouping candidates by entity."""
    objects_by_entity: dict[str, list[str]] = {}
    for triple in triples:
        objects_by_entity.setdefault(triple.entity_key, []).append(triple.object_key)
    scores = {
        entity: first_baseline_score(corpus, entity, candidates)
        for entity, candidates in objects_by_entity.items()
    }
    return [scores[t.entity_key][t.object_key] for t in triples]


def multinomial_nll(params: np.ndarray, X: np.ndarray, y: np.ndarray,
                    reg_lambda: float) -> tuple[float, np.ndarray]:
    """Penalized softmax negative log-likelihood with analytic gradient.

    params flattens W (8 x p) row-major followed by the 8 biases; the
    penalty reg_lambda/2 ||W||_F^2 leaves the biases unpenalized.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    n, p = X.shape
    W = params[:NUM_CLASSES * p].reshape(NUM_CLASSES, p)
    b = params[NUM_CLASSES * p:]

    logits = X @ W.T + b
    shift = logits.max(axis=1)
    log_norm = shift + np.log(np.sum(np.exp(logits - shift[:, None]), axis=1))
    value = float(
        -np.sum(logits[np.arange(n), y] - log_norm)
        + 0.5 * reg_lambda * np.sum(W * W)
    )

    probs = np.exp(logits - log_norm[:, None])
    probs[np.arange(n), y] -= 1.0
    grad_W = probs.T @ X + reg_lambda * W
    grad_b = probs.sum(axis=0)
    return value, np.concatenate([grad_W.ravel(), grad_b])


@dataclass(eq=False)
class MultinomialModel(LearnedModel):
    """8-way softmax classifier: one weight row W[k] and bias b[k] per class."""

    model_type = "multinomial"
    param_names = ("W", "b")

    W: np.ndarray
    b: np.ndarray

    def _check_shapes(self) -> None:
        if self.W.ndim != 2 or self.W.shape[0] != NUM_CLASSES or self.b.shape != (NUM_CLASSES,):
            raise ValueError(f"expected {NUM_CLASSES} rows of weights and biases")

    def logits(self, X) -> np.ndarray:
        return self._rows(X) @ self.W.T + self.b

    def class_probs(self, X) -> np.ndarray:
        logits = self.logits(X)
        shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
        return shifted / shifted.sum(axis=1, keepdims=True)

    def _argmax_basis(self, X) -> np.ndarray:
        # softmax is order-preserving, so the logits decide the argmax
        return self.logits(X)

    def summary(self) -> str:
        return (f"fitted multinomial model: {NUM_CLASSES} classes"
                f" x {len(self.feature_names)} features")


def fit_multinomial(X, y, config: FitConfig | None = None, *,
                    feature_names: tuple[str, ...] | None = None,
                    standardizer: Standardizer | None = None,
                    relation: Relation | None = None) -> MultinomialModel:
    """Deterministic penalized fit from a zero start."""
    return fit_model(
        MultinomialModel, multinomial_nll,
        lambda y, p: np.zeros(NUM_CLASSES * p + NUM_CLASSES),
        lambda x, p: {"W": x[:NUM_CLASSES * p].reshape(NUM_CLASSES, p), "b": x[NUM_CLASSES * p:]},
        X, y, config,
        feature_names=feature_names, standardizer=standardizer, relation=relation,
    )
