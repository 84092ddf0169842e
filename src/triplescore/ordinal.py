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

from .model import NUM_CLASSES, OUTER_LIMIT, FitConfig, LearnedModel, WarmStart, fit_model

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


# Cut arguments beyond the fitted cuts: cut y of the top class and cut
# y - 1 (index -1) of class 0 are open, at +inf and -inf.
_OPEN_ENDS = np.array([np.inf, -np.inf])
# d NLL / d z is -ratio at a row's upper cut and +ratio at its lower one.
_SIGNS = np.array([[-1.0], [1.0]])


def newton_objective(X: np.ndarray, y: np.ndarray, reg_lambda: float, n_classes: int):
    """The L2-penalized negative log-likelihood, its gradient and its Hessian
    on fixed X, labels y in 0..n_classes-1 and reg_lambda, as a function of
    params.

    params is (w, theta_0, s_1..s_{K-2}) for K = n_classes, so (w, theta_0,
    s_1..s_6) for the 8 classes; the penalty reg_lambda/2 ||w||^2 covers the
    weights only. Every piece is a log-space formula, so the value stays
    finite for extreme linear scores. Returns `evaluate(params) -> (value,
    grad, hessian)`, where `hessian()` gives the analytic Hessian at params
    from the per-row terms the value came from.

    What depends only on the data is built here, once: each row's two cut
    indices (y above, y - 1 below) and the transposed design D^T,
    D = [[-X, L_hi], [-X, L_lo]]. D's row for a cut argument z is dz /
    d(w, theta_0, theta_1 - theta_0, ...): L[j] has ones in columns <= j,
    since cut j is theta_0 plus the gaps beneath it, and it is zero at an
    open end.

    Row i's NLL depends on the parameters through its two cut arguments
    only. So the gradient is D^T g for per-argument weights g, and the
    Hessian is D^T diag(h) D with a correction on the cut diagonal for the
    cross derivative between a row's two cuts. Its weight rows are one
    (p, 2n) x (2n, q) product, and its cut block sums h per cut with
    np.bincount. The chain rule through the gaps exp(s) scales the gap rows
    and columns and adds diag(grad_s).
    """
    n, p = X.shape
    n_cuts = n_classes - 1
    q = p + n_cuts
    cut_index = np.stack([y, y - 1])
    bins = np.where(cut_index < 0, n_cuts, cut_index).ravel()   # open ends: bin n_cuts
    design_t = np.empty((q, 2, n))
    design_t[:p] = -X.T[:, None, :]
    design_t[p:] = (np.arange(n_cuts)[:, None, None] <= cut_index) & (cut_index < n_cuts)
    design_t = design_t.reshape(q, 2 * n)
    # (L^T diag(a) L)[k, l] is the sum of a_j over j >= max(k, l)
    later_cut = np.maximum.outer(np.arange(n_cuts), np.arange(n_cuts))
    w_diagonal = np.arange(p) * (q + 1)           # flat indices of H's weight diagonal
    cut_diagonal = np.arange(p, q) * (q + 1)      # and of its cut diagonal

    def evaluate(params: np.ndarray):
        w = params[:p]
        theta = thresholds_from_params(params, p)
        z = np.concatenate((theta, _OPEN_ENDS))[cut_index] - X @ w
        # softplus(t) = log(1 + exp(t)) = max(t, 0) + log1p(exp(-|t|)), so
        # -log logistic(z_hi) = softplus(-z_hi), -log logistic(-z_lo) =
        # softplus(z_lo), and -log logistic'(z) = |z| + 2 log1p(exp(-|z|))
        size = np.abs(z)
        rest = np.log1p(np.exp(-size))
        softplus = np.maximum(_SIGNS * z, 0.0) + rest
        # a row with P = 0 (coinciding cuts) makes the value infinite and its
        # ratios nan, and then the gradient is nan
        with np.errstate(divide="ignore", invalid="ignore"):
            # log P = log logistic(z_hi) + log logistic(-z_lo) + log(1 - exp(z_lo - z_hi))
            log_p = np.log1p(-np.exp(z[1] - z[0])) - (softplus[0] + softplus[1])
            # logistic'(z) / P, zero at the open ends
            ratio = np.exp(-(size + 2.0 * rest) - log_p)
        value = float(-np.sum(log_p) + 0.5 * reg_lambda * np.dot(w, w))
        # d theta / d theta_0 is 1 and d theta / d s_j is exp(s_j), a gap
        scale = np.concatenate((np.ones(p + 1), np.exp(params[p + 1:])))
        if not np.isfinite(value):
            grad = np.full_like(params, np.nan)
        else:
            grad = design_t @ (_SIGNS * ratio).ravel()
            grad[:p] += reg_lambda * w
            grad *= scale

        def hessian() -> np.ndarray:
            # second derivatives of -log(logistic(z_hi) - logistic(z_lo)): h_cut
            # in each cut argument, h_cross across the two; logistic'' /
            # logistic' is 1 - 2 logistic(z) = -tanh(z / 2)
            h_cut = ratio * (ratio - _SIGNS * np.tanh(0.5 * z))
            h_cross = -ratio[0] * ratio[1]
            weights = (h_cut + h_cross).ravel()
            H = np.empty((q, q))
            H[:p] = (design_t[:p] * weights) @ design_t.T
            H[p:, :p] = H[:p, p:].T
            per_cut = np.bincount(bins, weights=weights, minlength=n_cuts + 1)[:n_cuts]
            H[p:, p:] = np.cumsum(per_cut[::-1])[::-1][later_cut]
            # D^T diag(h_cut + h_cross) D has h_cross (L_hi L_hi^T + L_lo L_lo^T)
            # where the Hessian has h_cross (L_hi L_lo^T + L_lo L_hi^T); the two
            # differ by h_cross on the diagonal entry of cut y
            H.flat[cut_diagonal] -= np.bincount(y, weights=h_cross, minlength=n_classes)[:n_cuts]
            H.flat[w_diagonal] += reg_lambda
            H *= scale
            H *= scale[:, None]
            H.flat[cut_diagonal[1:]] += grad[p + 1:]
            return H

        return value, grad, hessian

    return evaluate


@dataclass(eq=False)
class OrdinalModel(LearnedModel):
    """Fitted proportional-odds model: weights w and ordered thresholds theta."""

    model_type = "ordinal"
    param_shapes = {"w": ("p",), "theta": (NUM_THRESHOLDS,)}

    w: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        if np.any(np.diff(self.theta) < 0):
            raise ValueError("ordinal parameter theta must be nondecreasing")

    def logits(self, X) -> np.ndarray:
        """(n, 7) matrix of the cumulative logits theta_j - w.x, j = 0..6."""
        return self.theta[None, :] - (self._rows(X) @ self.w)[:, None]

    def cumulative_probs(self, X) -> np.ndarray:
        """(n, 7) matrix of P(y <= j | x) for the cut indices j = 0..6."""
        return logistic(self.logits(X))

    def _probs(self, logits: np.ndarray) -> np.ndarray:
        return np.diff(logistic(logits), axis=1, prepend=0.0, append=1.0)

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
        warm: WarmStart | None = None) -> OrdinalModel:
    """Fit the model on an already-standardized matrix; no standardizer or relation.

    Deterministic: fixed initialization (or `warm`'s point, as `fit_model`
    says), no randomized steps; identical inputs produce bit-identical models.
    """
    return fit_model(
        OrdinalModel, newton_objective, initial_params,
        lambda x, p, observed: {
            "w": x[:p], "theta": _all_cuts(thresholds_from_params(x, p), observed)},
        X, y, config, warm=warm,
    )
