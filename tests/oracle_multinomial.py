"""The multinomial objective's kernels before they were built once per fit.

`_log_softmax_terms`, `newton_objective` and `multinomial_hessian` are the
code `triplescore.baselines` fitted with until the objective was rebuilt
as one class-major kernel per fit. They stay here, unchanged, as the
oracle `test_objective_kernels.py` checks the kernel against.
"""

import numpy as np


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
