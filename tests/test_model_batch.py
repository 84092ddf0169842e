"""Batch class_probs/predict of both learned models against the per-row oracle.

The oracle below is the row-by-row code both models predicted with
before inference became batch-only: one `np.dot` (ordinal) or one
matrix-vector product (multinomial) per row. A one-row product and the
same row inside a matrix product may round differently in the last bit,
so probabilities agree within p * eps * max(S, 1) per row, where S bounds
the magnitude of the linear scores: |x| . |w| for the ordinal model and
max_k (|x| . |W_k| + |b_k|) for the multinomial model. The floor of 1 is
the probability's own last-place rounding, which a score that differs in
its last bit can flip even when S is tiny. Predicted classes must agree
exactly under both rules.
"""

import numpy as np
import pytest

from triplescore.baselines import MultinomialModel
from triplescore.model import ARGMAX, EXPECTED_ROUNDED, NUM_CLASSES
from triplescore.ordinal import OrdinalModel, logistic

EPS = np.finfo(float).eps
RULES = (ARGMAX, EXPECTED_ROUNDED)


def oracle_ordinal_probs(model, x):
    cum = logistic(model.theta - np.dot(model.w, x))
    return np.diff(np.concatenate(([0.0], cum, [1.0])))


def oracle_multinomial_logits(model, x):
    return model.W @ x + model.b


def oracle_multinomial_probs(model, x):
    logits = oracle_multinomial_logits(model, x)
    shifted = np.exp(logits - logits.max())
    return shifted / shifted.sum()


def oracle_predict(model, x, rule):
    """Argmax on the class probabilities (ordinal) or the logits (multinomial),
    lower class on ties; expected-rounded on the class probabilities."""
    if isinstance(model, OrdinalModel):
        probs = oracle_ordinal_probs(model, x)
        basis = probs
    else:
        probs = oracle_multinomial_probs(model, x)
        basis = oracle_multinomial_logits(model, x)
    if rule == ARGMAX:
        return int(np.argmax(basis))
    expectation = float(np.dot(np.arange(NUM_CLASSES), probs))
    return int(np.clip(np.rint(expectation), 0, NUM_CLASSES - 1))


def oracle_probs(model, x):
    if isinstance(model, OrdinalModel):
        return oracle_ordinal_probs(model, x)
    return oracle_multinomial_probs(model, x)


def tolerance(model, X):
    """p * eps * max(S, 1) per row; S bounds the magnitude of the linear scores."""
    if isinstance(model, OrdinalModel):
        S = np.abs(X) @ np.abs(model.w)
    else:
        S = np.max(np.abs(X) @ np.abs(model.W).T + np.abs(model.b), axis=1)
    return X.shape[1] * EPS * np.maximum(S, 1.0)


def random_model(rng, kind, p):
    names = tuple(f"x{i}" for i in range(p))
    if kind == "ordinal":
        return OrdinalModel(w=rng.normal(scale=2.0, size=p),
                            theta=np.sort(rng.normal(scale=3.0, size=NUM_CLASSES - 1)),
                            feature_names=names)
    return MultinomialModel(W=rng.normal(scale=2.0, size=(NUM_CLASSES, p)),
                            b=rng.normal(scale=2.0, size=NUM_CLASSES), feature_names=names)


KINDS = ("ordinal", "multinomial")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n_rows", [1, 2, 37, 1000])
@pytest.mark.parametrize("scale", [1.0, 10.0, 100.0, 1000.0])
def test_batch_matches_per_row_oracle(kind, n_rows, scale):
    rng = np.random.default_rng([KINDS.index(kind), n_rows, int(scale)])
    for _ in range(3):
        p = int(rng.integers(1, 7))
        model = random_model(rng, kind, p)
        X = rng.normal(scale=scale, size=(n_rows, p))

        probs = model.class_probs(X)
        assert probs.shape == (n_rows, NUM_CLASSES)
        want = np.array([oracle_probs(model, x) for x in X])
        err = np.max(np.abs(probs - want), axis=1)
        bound = tolerance(model, X)
        assert np.all(err <= bound), f"worst {np.max(err / bound):.2f}x the tolerance"

        for rule in RULES:
            assert model.predict(X, rule) == [oracle_predict(model, x, rule) for x in X]


def test_ordinal_cumulative_probs_match_oracle():
    rng = np.random.default_rng(5)
    model = random_model(rng, "ordinal", 4)
    X = rng.normal(scale=10.0, size=(200, 4))
    want = np.array([logistic(model.theta - np.dot(model.w, x)) for x in X])
    assert np.all(np.max(np.abs(model.cumulative_probs(X) - want), axis=1)
                  <= tolerance(model, X))


@pytest.mark.parametrize("kind", KINDS)
def test_empty_batch(kind):
    model = random_model(np.random.default_rng(3), kind, 4)
    assert model.class_probs(np.empty((0, 4))).shape == (0, NUM_CLASSES)
    assert model.predict(np.empty((0, 4))) == []
    assert model.predict(np.empty((0, 4)), EXPECTED_ROUNDED) == []


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("shape", [(4,), (3, 5), (2, 3, 4)])
def test_rejects_non_matrix_or_wrong_width(kind, shape):
    model = random_model(np.random.default_rng(3), kind, 4)
    with pytest.raises(ValueError, match="matrix"):
        model.predict(np.zeros(shape))
