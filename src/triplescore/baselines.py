"""Reference scorers the ordinal model is compared against.

Two baselines: a rule that gives full relevance to the first candidate
object mentioned in an entity's abstract and zero to everything else,
and an 8-way multinomial logistic classifier that ignores class order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, first_mentioned
from .features import Triple
from .model import NUM_CLASSES, OUTER_LIMIT, FitConfig, LearnedModel, WarmStart, fit_model

FIRST_MATCH_SCORE = 7
FIRST_MISS_SCORE = 0


def first_baseline_predictions(corpus: Corpus, triples: list[Triple]) -> list[int]:
    """Score each triple by the first-mention rule among its entity's triples.

    Of one entity's object keys, the one whose mention appears earliest in
    the entity's abstract gets 7; every other one gets 0, as does
    everything when no object is mentioned or the entity has no page record.
    """
    keys_by_entity: dict[str, list[str]] = {}
    for triple in triples:
        keys_by_entity.setdefault(triple.entity_key, []).append(triple.object_key)
    first = {}
    for entity, keys in keys_by_entity.items():
        record = corpus.records.get(entity)
        first[entity] = None if record is None else first_mentioned(record, keys)
    return [FIRST_MATCH_SCORE if t.object_key == first[t.entity_key] else FIRST_MISS_SCORE
            for t in triples]


def newton_objective(X: np.ndarray, y: np.ndarray, reg_lambda: float, n_classes: int):
    """The penalized softmax negative log-likelihood, its gradient and its
    Hessian on fixed X, labels y in 0..n_classes-1 and reg_lambda, as a
    function of params.

    params flattens W (K x p) row-major followed by the K biases, K =
    n_classes; the penalty reg_lambda/2 ||W||_F^2 covers the weights only,
    not the biases. Returns `evaluate(params) -> (value, grad, hessian)`,
    where `hessian()` gives the analytic Hessian at params, in the same
    parameter order, from the probabilities the value came from.

    The work is class-major, on (K, n) arrays. What depends only on the
    data is built here, once: the transposed rows, z = (x, 1), where each
    row's label sits in the (K, n) arrays, and where each class's (q x q)
    block of the Hessian sits in parameter order.

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


@dataclass(eq=False)
class MultinomialModel(LearnedModel):
    """8-way softmax classifier: one weight row W[k] and bias b[k] per class."""

    model_type = "multinomial"
    param_shapes = {"W": (NUM_CLASSES, "p"), "b": (NUM_CLASSES,)}

    W: np.ndarray
    b: np.ndarray

    def logits(self, X) -> np.ndarray:
        return self._rows(X) @ self.W.T + self.b

    def _probs(self, logits: np.ndarray) -> np.ndarray:
        shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
        return shifted / shifted.sum(axis=1, keepdims=True)

    def _argmax_basis(self, logits: np.ndarray) -> np.ndarray:
        # softmax is order-preserving, so the logits decide the argmax
        return logits

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
                    warm: WarmStart | None = None) -> MultinomialModel:
    """Deterministic penalized fit from a zero start (or `warm`'s point, as
    `fit_model` says); no standardizer or relation."""
    return fit_model(
        MultinomialModel, newton_objective,
        lambda y, p, k: np.zeros(k * p + k), _all_classes, X, y, config, warm=warm,
    )
