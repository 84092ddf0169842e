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
from .model import NUM_CLASSES, OUTER_LIMIT, FitConfig, LearnedModel, fit_model

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


def _log_softmax_terms(params: np.ndarray, X: np.ndarray):
    """W (K x p), the (n, K) logits and each row's log normaliser, for the
    K = params.size / (p + 1) classes."""
    p = X.shape[1]
    k = params.size // (p + 1)
    W = params[:k * p].reshape(k, p)
    logits = X @ W.T + params[k * p:]
    shift = logits.max(axis=1)
    log_norm = shift + np.log(np.sum(np.exp(logits - shift[:, None]), axis=1))
    return W, logits, log_norm


def newton_objective(params: np.ndarray, X: np.ndarray, y: np.ndarray,
                     reg_lambda: float):
    """`multinomial_nll`'s value and gradient for array X and y, and a
    callable giving the Hessian at params from the same softmax terms."""
    n = X.shape[0]
    terms = _log_softmax_terms(params, X)
    W, logits, log_norm = terms
    value = float(
        -np.sum(logits[np.arange(n), y] - log_norm)
        + 0.5 * reg_lambda * np.sum(W * W)
    )

    probs = np.exp(logits - log_norm[:, None])
    probs[np.arange(n), y] -= 1.0
    grad_W = probs.T @ X + reg_lambda * W
    grad_b = probs.sum(axis=0)
    return (value, np.concatenate([grad_W.ravel(), grad_b]),
            lambda: multinomial_hessian(params, X, y, reg_lambda, terms))


def multinomial_nll(params: np.ndarray, X: np.ndarray, y: np.ndarray,
                    reg_lambda: float) -> tuple[float, np.ndarray]:
    """Penalized softmax negative log-likelihood with analytic gradient.

    params flattens W (K x p) row-major followed by the K biases, for labels
    0..K-1 (K = 8 for the model); the penalty reg_lambda/2 ||W||_F^2 leaves
    the biases unpenalized.
    """
    value, grad, _ = newton_objective(
        params, np.asarray(X, dtype=float), np.asarray(y, dtype=int), reg_lambda)
    return value, grad


def multinomial_hessian(params: np.ndarray, X: np.ndarray, y: np.ndarray,
                        reg_lambda: float, terms=None) -> np.ndarray:
    """Analytic Hessian of `multinomial_nll`, in the same parameter order.

    With z = (x, 1), the entry for classes k, l and columns a, b of z is
    sum_i pi_ik (delta_kl - pi_il) z_ia z_ib. With G[i, (k, a)] = pi_ik z_ia
    that is the class-diagonal part of G^T Z minus G^T G. The labels do not
    enter it. `terms` are `_log_softmax_terms(params, X)` when the caller
    already has them.
    """
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    q = p + 1
    _, logits, log_norm = _log_softmax_terms(params, X) if terms is None else terms
    k = logits.shape[1]
    probs = np.exp(logits - log_norm[:, None])
    Z = np.hstack([X, np.ones((n, 1))])
    G = (probs[:, :, None] * Z[:, None, :]).reshape(n, k * q)
    row_class = np.repeat(np.arange(k), q)
    H = ((G.T @ Z)[:, np.tile(np.arange(q), k)]
         * (row_class[:, None] == row_class[None, :]) - G.T @ G)
    # rows of (class, column of z) -> parameter order: W row-major, then b
    index = np.arange(k * q).reshape(k, q)
    order = np.concatenate([index[:, :p].ravel(), index[:, p]])
    H = H[np.ix_(order, order)]
    H[:k * p, :k * p] += reg_lambda * np.eye(k * p)
    return H


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


def _all_classes(x: np.ndarray, p: int, observed: np.ndarray) -> dict:
    """W and b over the 8 classes from those fitted for the observed ones.

    An absent class's bias goes to -inf, after which its weight row feels
    only the penalty: it gets a zero row and a bias OUTER_LIMIT below the
    lowest fitted one.
    """
    k = observed.size
    W = np.zeros((NUM_CLASSES, p))
    W[observed] = x[:k * p].reshape(k, p)
    b = np.full(NUM_CLASSES, x[k * p:].min() - OUTER_LIMIT)
    b[observed] = x[k * p:]
    return {"W": W, "b": b}


def fit_multinomial(X, y, config: FitConfig | None = None, *,
                    feature_names: tuple[str, ...] | None = None,
                    standardizer: Standardizer | None = None,
                    relation: Relation | None = None) -> MultinomialModel:
    """Deterministic penalized fit from a zero start."""
    return fit_model(
        MultinomialModel, newton_objective,
        lambda y, p, k: np.zeros(k * p + k), _all_classes, X, y, config,
        feature_names=feature_names, standardizer=standardizer, relation=relation,
    )
