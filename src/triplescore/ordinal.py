"""Proportional-odds ordinal regression over the 8 relevance classes.

The model keeps one weight vector w and ordered thresholds theta_0 <= ...
<= theta_6 on the latent score w.x:

    P(y <= j | x) = logistic(theta_j - w.x),   P(y <= 7) = 1

Class probabilities are differences of consecutive cumulative terms.
Fitting maximizes the L2-penalized log-likelihood in an unconstrained
parametrization (w, theta_0, s_1..s_6) with theta_j = theta_{j-1} +
exp(s_j), which keeps every iterate's thresholds strictly ordered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import Relation, Standardizer
from .model import NUM_CLASSES, FitConfig, LearnedModel, fit_model

NUM_THRESHOLDS = NUM_CLASSES - 1


def logistic(t):
    """Numerically stable 1 / (1 + exp(-t)), elementwise.

    Sign-split so neither branch exponentiates a large positive number;
    stable for |t| well beyond 1e3.
    """
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    exp_t = np.exp(t[~pos])
    out[~pos] = exp_t / (1.0 + exp_t)
    if out.ndim == 0:
        return float(out)
    return out


def _log_sigmoid(t):
    return -np.logaddexp(0.0, -np.asarray(t, dtype=float))


def thresholds_from_params(params: np.ndarray, n_features: int) -> np.ndarray:
    """Recover theta (7,) from the unconstrained parameter vector."""
    theta0 = params[n_features]
    s = params[n_features + 1:]
    return theta0 + np.concatenate(([0.0], np.cumsum(np.exp(s))))


def params_from_thresholds(w: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Inverse of thresholds_from_params; theta must be strictly increasing."""
    gaps = np.diff(theta)
    if np.any(gaps <= 0):
        raise ValueError("thresholds must be strictly increasing to parametrize")
    return np.concatenate([w, [theta[0]], np.log(gaps)])


def penalized_nll(params: np.ndarray, X: np.ndarray, y: np.ndarray,
                  reg_lambda: float) -> tuple[float, np.ndarray]:
    """Penalized negative log-likelihood and its analytic gradient.

    params is (w, theta_0, s_1..s_6); the L2 penalty reg_lambda/2 ||w||^2
    applies to the weights only. All pieces use log-space formulas so the
    value stays finite for extreme linear scores.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    n, p = X.shape
    w = params[:p]
    s = params[p + 1:]
    theta = thresholds_from_params(params, p)

    eta = X @ w
    hi_open = y == NUM_CLASSES - 1     # P(y <= 7) == 1, no upper threshold
    lo_open = y == 0                   # P(y <= -1) == 0, no lower threshold
    z_hi = np.where(hi_open, np.inf, theta[np.minimum(y, NUM_THRESHOLDS - 1)] - eta)
    z_lo = np.where(lo_open, -np.inf, theta[np.maximum(y - 1, 0)] - eta)

    log_p = np.empty(n)
    interior = ~hi_open & ~lo_open
    log_p[lo_open] = _log_sigmoid(z_hi[lo_open])
    log_p[hi_open] = _log_sigmoid(-z_lo[hi_open])
    if np.any(interior):
        zh, zl = z_hi[interior], z_lo[interior]
        with np.errstate(divide="ignore"):
            log_p[interior] = (
                _log_sigmoid(zh) + _log_sigmoid(-zl) + np.log1p(-np.exp(zl - zh))
            )

    value = float(-np.sum(log_p) + 0.5 * reg_lambda * np.dot(w, w))
    if not np.isfinite(value):
        grad = np.full_like(params, np.nan)
        return value, grad

    # ratio_hi = logistic'(z_hi) / P, computed as exp(log phi' - log P);
    # the derivative of log logistic(t) is logistic(t) * logistic(-t).
    ratio_hi = np.zeros(n)
    ratio_lo = np.zeros(n)
    closed_hi = ~hi_open
    closed_lo = ~lo_open
    ratio_hi[closed_hi] = np.exp(
        _log_sigmoid(z_hi[closed_hi]) + _log_sigmoid(-z_hi[closed_hi]) - log_p[closed_hi]
    )
    ratio_lo[closed_lo] = np.exp(
        _log_sigmoid(z_lo[closed_lo]) + _log_sigmoid(-z_lo[closed_lo]) - log_p[closed_lo]
    )

    # d NLL / d eta_i; threshold gradients accumulate per cut index.
    d_eta = ratio_hi - ratio_lo
    grad_w = X.T @ d_eta + reg_lambda * w

    d_theta = np.zeros(NUM_THRESHOLDS)
    np.add.at(d_theta, y[closed_hi], -ratio_hi[closed_hi])
    np.add.at(d_theta, y[closed_lo] - 1, ratio_lo[closed_lo])

    # theta_j = theta_0 + sum_{m<=j} exp(s_m): the theta_0 gradient sums all
    # cut gradients, each s_m collects the cuts at or above m.
    tail = np.cumsum(d_theta[::-1])[::-1]
    grad_theta0 = tail[0]
    grad_s = np.exp(s) * tail[1:]

    grad = np.concatenate([grad_w, [grad_theta0], grad_s])
    return value, grad


@dataclass(eq=False)
class OrdinalModel(LearnedModel):
    """Fitted proportional-odds model: weights w and ordered thresholds theta."""

    model_type = "ordinal"
    param_names = ("w", "theta")

    w: np.ndarray
    theta: np.ndarray

    def _check_shapes(self) -> None:
        if self.w.ndim != 1:
            raise ValueError(f"expected a weight vector, got shape {self.w.shape}")
        if self.theta.shape != (NUM_THRESHOLDS,):
            raise ValueError(f"expected {NUM_THRESHOLDS} thresholds, got {self.theta.shape}")
        if np.any(np.diff(self.theta) < 0):
            raise ValueError("thresholds must be nondecreasing")

    def cumulative_probs(self, X) -> np.ndarray:
        """(n, 7) matrix of P(y <= j | x) for the cut indices j = 0..6."""
        return logistic(self.theta[None, :] - (self._rows(X) @ self.w)[:, None])

    def class_probs(self, X) -> np.ndarray:
        return np.diff(self.cumulative_probs(X), axis=1, prepend=0.0, append=1.0)

    def feature_weights(self) -> list[tuple[str, float]]:
        """(name, weight) pairs in descending |weight| order."""
        order = sorted(range(len(self.w)), key=lambda i: (-abs(self.w[i]), i))
        return [(self.feature_names[i], float(self.w[i])) for i in order]

    def summary(self) -> str:
        rows = self.feature_weights()
        width = max(len(name) for name, _ in rows)
        return "\n".join(["feature weights (descending |weight|):"] + [
            f"  {name:<{width}}  {weight:+9.4f}  abs {abs(weight):.4f}" for name, weight in rows
        ])


def initial_params(y: np.ndarray, n_features: int) -> np.ndarray:
    """Deterministic start: w = 0, cuts at empirical cumulative logits.

    Class counts are Laplace-smoothed so unobserved classes never yield an
    infinite logit; logits clamp to [-10, 10] and gaps floor at 1e-6 to
    keep the log-gap parametrization finite.
    """
    counts = np.bincount(y, minlength=NUM_CLASSES).astype(float) + 1.0
    cum = np.cumsum(counts)[:-1] / counts.sum()
    logits = np.clip(np.log(cum / (1.0 - cum)), -10.0, 10.0)
    gaps = np.maximum(np.diff(logits), 1e-6)
    theta = np.concatenate(([logits[0]], logits[0] + np.cumsum(gaps)))
    return params_from_thresholds(np.zeros(n_features), theta)


def fit(X, y, config: FitConfig | None = None, *,
        feature_names: tuple[str, ...] | None = None,
        standardizer: Standardizer | None = None,
        relation: Relation | None = None) -> OrdinalModel:
    """Fit the model on an already-standardized matrix.

    Deterministic: fixed initialization, no randomized steps; identical
    inputs produce bit-identical models.
    """
    return fit_model(
        OrdinalModel, penalized_nll, initial_params,
        lambda x, p: {"w": x[:p], "theta": thresholds_from_params(x, p)}, X, y, config,
        feature_names=feature_names, standardizer=standardizer, relation=relation,
    )
