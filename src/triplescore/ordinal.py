"""Proportional-odds ordinal regression over the 8 relevance classes.

The model keeps one weight vector w and ordered thresholds theta_0 <= ...
<= theta_6 on the latent score w.x:

    P(y <= j | x) = logistic(theta_j - w.x),   P(y <= 7) = 1

Class probabilities are differences of consecutive cumulative terms.
Fitting maximizes the L2-penalized log-likelihood in an unconstrained
parametrization (w, theta_0, s_1..s_{K-2}) with theta_j = theta_{j-1} +
exp(s_j), which keeps every iterate's thresholds strictly ordered. The
objective and its derivatives take labels 0..K-1 for any K >= 2, with K - 1
cuts; the fit runs them over the K classes the training labels contain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import Relation, Standardizer
from .model import NUM_CLASSES, OUTER_LIMIT, FitConfig, LearnedModel, fit_model

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
    """Recover the cuts theta (7 for the 8 classes) from the unconstrained
    parameter vector."""
    theta0 = params[n_features]
    s = params[n_features + 1:]
    return theta0 + np.concatenate(([0.0], np.cumsum(np.exp(s))))


def params_from_thresholds(w: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Inverse of thresholds_from_params; theta must be strictly increasing."""
    gaps = np.diff(theta)
    if np.any(gaps <= 0):
        raise ValueError("thresholds must be strictly increasing to parametrize")
    return np.concatenate([w, [theta[0]], np.log(gaps)])


def _row_terms(params: np.ndarray, X: np.ndarray, y: np.ndarray):
    """Per-row log-space pieces shared by the NLL, its gradient and Hessian.

    Returns the cut arguments z_hi = theta_y - w.x and z_lo = theta_{y-1} - w.x
    (+inf and -inf at the open ends), log P(y | x), and the ratios
    logistic'(z) / P at each cut (0 at the open ends).
    """
    n, p = X.shape
    theta = thresholds_from_params(params, p)
    top = theta.size                   # the highest class
    eta = X @ params[:p]
    hi_open = y == top                 # P(y <= top) == 1, no upper threshold
    lo_open = y == 0                   # P(y <= -1) == 0, no lower threshold
    z_hi = np.where(hi_open, np.inf, theta[np.minimum(y, top - 1)] - eta)
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

    # ratio = exp(log logistic'(z) - log P); the derivative of logistic(t)
    # is logistic(t) * logistic(-t).
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
    return z_hi, z_lo, log_p, ratio_hi, ratio_lo


def _threshold_tail(y: np.ndarray, ratio_hi: np.ndarray, ratio_lo: np.ndarray,
                    n_cuts: int) -> np.ndarray:
    """tail[m] = sum over cuts j >= m of d NLL / d theta_j.

    theta_j = theta_0 + sum_{m<=j} exp(s_m), so tail[0] is the theta_0
    gradient and exp(s_m) * tail[m] the s_m gradient.
    """
    d_theta = np.zeros(n_cuts)
    closed_hi = y < n_cuts
    closed_lo = y > 0
    np.add.at(d_theta, y[closed_hi], -ratio_hi[closed_hi])
    np.add.at(d_theta, y[closed_lo] - 1, ratio_lo[closed_lo])
    return np.cumsum(d_theta[::-1])[::-1]


def newton_objective(params: np.ndarray, X: np.ndarray, y: np.ndarray,
                     reg_lambda: float):
    """`penalized_nll`'s value and gradient for array X and y, and a
    callable giving the Hessian at params from the same per-row terms."""
    p = X.shape[1]
    w = params[:p]
    terms = _row_terms(params, X, y)
    _, _, log_p, ratio_hi, ratio_lo = terms

    value = float(-np.sum(log_p) + 0.5 * reg_lambda * np.dot(w, w))
    if not np.isfinite(value):
        grad = np.full_like(params, np.nan)
    else:
        # d NLL / d eta_i is ratio_hi - ratio_lo
        grad_w = X.T @ (ratio_hi - ratio_lo) + reg_lambda * w
        tail = _threshold_tail(y, ratio_hi, ratio_lo, params.size - p)
        grad_s = np.exp(params[p + 1:]) * tail[1:]
        grad = np.concatenate([grad_w, [tail[0]], grad_s])
    return value, grad, lambda: penalized_nll_hessian(params, X, y, reg_lambda, terms)


def penalized_nll(params: np.ndarray, X: np.ndarray, y: np.ndarray,
                  reg_lambda: float) -> tuple[float, np.ndarray]:
    """Penalized negative log-likelihood and its analytic gradient.

    params is (w, theta_0, s_1..s_{K-2}) for labels 0..K-1, so (w, theta_0,
    s_1..s_6) for the 8 classes; the L2 penalty reg_lambda/2 ||w||^2
    applies to the weights only. All pieces use log-space formulas so the
    value stays finite for extreme linear scores.
    """
    value, grad, _ = newton_objective(
        params, np.asarray(X, dtype=float), np.asarray(y, dtype=int), reg_lambda)
    return value, grad


def penalized_nll_hessian(params: np.ndarray, X: np.ndarray, y: np.ndarray,
                          reg_lambda: float, terms=None) -> np.ndarray:
    """Analytic Hessian of `penalized_nll` in its (w, theta_0, s) parameters.

    Row i's NLL depends on the parameters through (z_hi, z_lo) only, so the
    Hessian in (w, theta) is J_hi^T H_hh J_hi + J_hi^T H_hl J_lo + ... with
    J = dz / d(w, theta) = [-x, one-hot cut]. The chain rule through
    theta = J_s (theta_0, s) adds diag(grad_s) on the s block. `terms` are
    `_row_terms(params, X, y)` when the caller already has them.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    p = X.shape[1]
    n_cuts = params.size - p
    if terms is None:
        terms = _row_terms(params, X, y)
    z_hi, z_lo, _, ratio_hi, ratio_lo = terms

    # second derivatives of -log(logistic(z_hi) - logistic(z_lo)); the
    # logistic'' / logistic' factor 1 - 2 logistic(z) is -tanh(z / 2), and
    # the ratios vanish at the open ends, where z is infinite
    h_hh = ratio_hi * (ratio_hi + np.tanh(z_hi / 2))
    h_ll = ratio_lo * (ratio_lo - np.tanh(z_lo / 2))
    h_hl = -ratio_hi * ratio_lo
    cuts = np.eye(n_cuts + 1)[y]
    J_hi = np.hstack([-X, cuts[:, :n_cuts]])
    J_lo = np.hstack([-X, cuts[:, 1:]])
    H = (J_hi.T @ (h_hh[:, None] * J_hi + h_hl[:, None] * J_lo)
         + J_lo.T @ (h_hl[:, None] * J_hi + h_ll[:, None] * J_lo))
    H[:p, :p] += reg_lambda * np.eye(p)

    # d theta_j / d theta_0 = 1, d theta_j / d s_m = exp(s_m) for m <= j
    gaps = np.exp(params[p + 1:])
    chain = np.eye(p + n_cuts)
    chain[p:, p:] = np.tril(np.ones((n_cuts, n_cuts))) * np.concatenate(([1.0], gaps))
    H = chain.T @ H @ chain
    grad_s = gaps * _threshold_tail(y, ratio_hi, ratio_lo, n_cuts)[1:]
    H[p + 1:, p + 1:] += np.diag(grad_s)
    return H


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


def initial_params(y: np.ndarray, n_features: int,
                   n_classes: int = NUM_CLASSES) -> np.ndarray:
    """Deterministic start for labels 0..n_classes-1: w = 0, cuts at empirical
    cumulative logits.

    Class counts are Laplace-smoothed so unobserved classes never yield an
    infinite logit; logits clamp to [-10, 10] and gaps floor at 1e-6 to
    keep the log-gap parametrization finite.
    """
    counts = np.bincount(y, minlength=n_classes).astype(float) + 1.0
    cum = np.cumsum(counts)[:-1] / counts.sum()
    logits = np.clip(np.log(cum / (1.0 - cum)), -10.0, 10.0)
    gaps = np.maximum(np.diff(logits), 1e-6)
    theta = np.concatenate(([logits[0]], logits[0] + np.cumsum(gaps)))
    return params_from_thresholds(np.zeros(n_features), theta)


def _all_cuts(fitted: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """The 7 cuts from the cuts fitted between consecutive observed classes.

    Cut j separates classes <= j from the rest. Between two observed classes
    it is the fitted cut there, so an absent class's two cuts meet; below the
    lowest or above the highest observed class it stands OUTER_LIMIT beyond
    the outermost fitted cut.
    """
    below = np.searchsorted(observed, np.arange(NUM_THRESHOLDS), side="right")
    return np.concatenate(([fitted[0] - OUTER_LIMIT], fitted,
                           [fitted[-1] + OUTER_LIMIT]))[below]


def fit(X, y, config: FitConfig | None = None, *,
        feature_names: tuple[str, ...] | None = None,
        standardizer: Standardizer | None = None,
        relation: Relation | None = None) -> OrdinalModel:
    """Fit the model on an already-standardized matrix.

    Deterministic: fixed initialization, no randomized steps; identical
    inputs produce bit-identical models.
    """
    return fit_model(
        OrdinalModel, newton_objective, initial_params,
        lambda x, p, observed: {
            "w": x[:p], "theta": _all_cuts(thresholds_from_params(x, p), observed)},
        X, y, config,
        feature_names=feature_names, standardizer=standardizer, relation=relation,
    )
