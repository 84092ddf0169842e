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


def newton_objective(X: np.ndarray, y: np.ndarray, reg_lambda: float, n_classes: int):
    """`multinomial_nll` and its Hessian on fixed X, labels y in
    0..n_classes-1 and reg_lambda, as a function of params.

    Returns `evaluate(params) -> (value, grad, hessian)`, where `hessian()`
    gives the analytic Hessian at params from the probabilities the value
    came from. The work is class-major, on (K, n) arrays. What depends only
    on the data is built here, once: the transposed rows, z = (x, 1), where
    each row's label sits in the (K, n) arrays, and where each class's
    (q x q) block of the Hessian sits in parameter order.

    With G[(k, a), i] = pi_ik z_ia in parameter order, the Hessian is the
    class-diagonal blocks of G Z minus G G^T; the labels do not enter it.
    """
    n, p = X.shape
    k, q = n_classes, p + 1
    x_t = np.ascontiguousarray(X.T)
    z = np.hstack([X, np.ones((n, 1))])
    labels = y * n + np.arange(n)
    # parameter index of (class c, column a of z): W row-major, then b
    index = np.empty((k, q), dtype=int)
    index[:, :p] = np.arange(k * p).reshape(k, p)
    index[:, p] = k * p + np.arange(k)
    order = np.argsort(index, axis=None)      # flat (k, q) position of each parameter
    # flat position in H of each parameter's row of its own class's block
    blocks = (np.arange(k * q)[:, None] * (k * q) + index[order // q]).ravel()
    w_diagonal = np.arange(k * p) * (k * q + 1)

    def evaluate(params: np.ndarray):
        w = params[:k * p]
        logits = w.reshape(k, p) @ x_t
        logits += params[k * p:, None]
        shift = logits.max(axis=0)
        exp = np.exp(logits - shift)
        total = exp.sum(axis=0)
        log_norm = shift + np.log(total)
        value = float(np.sum(log_norm - logits.ravel()[labels])
                      + 0.5 * reg_lambda * np.dot(w, w))
        probs = exp / total
        residual = probs.copy()
        residual.ravel()[labels] -= 1.0
        grad = (residual @ z).ravel()[order]
        grad[:k * p] += reg_lambda * w

        def hessian() -> np.ndarray:
            G = np.empty((k * q, n))
            np.multiply(probs[:, None, :], x_t, out=G[:k * p].reshape(k, p, n))
            G[k * p:] = probs
            H = G @ G.T
            np.negative(H, out=H)
            H.reshape(-1)[blocks] += (G @ z).ravel()
            H.reshape(-1)[w_diagonal] += reg_lambda
            return H

        return value, grad, hessian

    return evaluate


def multinomial_nll(params: np.ndarray, X: np.ndarray, y: np.ndarray,
                    reg_lambda: float) -> tuple[float, np.ndarray]:
    """Penalized softmax negative log-likelihood with analytic gradient.

    params flattens W (K x p) row-major followed by the K biases, for labels
    0..K-1 (K = 8 for the model); the penalty reg_lambda/2 ||W||_F^2 leaves
    the biases unpenalized.
    """
    value, grad, _ = _objective_at(params, X, y, reg_lambda)
    return value, grad


def multinomial_hessian(params: np.ndarray, X: np.ndarray, y: np.ndarray,
                        reg_lambda: float) -> np.ndarray:
    """Analytic Hessian of `multinomial_nll`, in the same parameter order."""
    return _objective_at(params, X, y, reg_lambda)[2]()


def _objective_at(params, X, y, reg_lambda):
    X = np.asarray(X, dtype=float)
    return newton_objective(X, np.asarray(y, dtype=int), reg_lambda,
                            params.size // (X.shape[1] + 1))(params)


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
