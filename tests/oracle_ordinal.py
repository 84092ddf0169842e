"""The ordinal objective's kernels before they were built once per fit.

`_row_terms`, `newton_objective` and `penalized_nll_hessian` (with the
helpers they call) are the code `triplescore.ordinal` fitted with until
the objective was rebuilt as one kernel per fit: per-row masked
log-sigmoid terms and a Hessian from two dense Jacobians. They stay here,
unchanged, as the oracle `test_objective_kernels.py` checks the kernel
against.
"""

import numpy as np

from triplescore.ordinal import thresholds_from_params


def _log_sigmoid(t):
    return -np.logaddexp(0.0, -np.asarray(t, dtype=float))


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
