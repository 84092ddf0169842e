"""Both Newton objectives against the kernels they replaced.

`oracle_ordinal.py` and `oracle_multinomial.py` hold the objectives the
fits used before each was built once per fit: masked per-row log-sigmoid
terms and a Hessian from two dense Jacobians for the ordinal model, and a
row-major softmax for the multinomial one. Drawn problems have 2 to 8
classes, some of them absent from the labels, one row or more, and linear
scores |w.x| up to 1e3.

The value must match the oracle at relative 1e-12; its per-row terms are
all nonnegative, so nothing cancels in it. The gradient and the Hessian
are sums whose terms can cancel, and the two kernels round them
differently. With |w.x| near 1e3, a row far beyond both its cuts adds
O(1) terms h_hh + 2 h_hl + h_ll to the ordinal weight block that cancel to
nearly 0, h_hh = r (r + tanh(z / 2)) is itself a difference of two O(1)
products, and the old softmax rounds log P(y) to 0 for a row it fits to
within 1e-14. So each entry must match within 1e-12 times the largest
entry of the same sum taken over its terms' absolute values (its
magnitude), which is max|grad| or max|H| wherever nothing cancels.

An objective is built once and then called at many points, so a later
call must not change what an earlier one returned.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_multinomial
import oracle_ordinal
from triplescore import baselines, ordinal
from triplescore.model import NUM_CLASSES
from triplescore.ordinal import params_from_thresholds

ORDINAL, MULTINOMIAL = "ordinal", "multinomial"


def drawn_problem(seed, n, p, k, n_present, log_score, reg_lambda, kind):
    """Labels from n_present of the k classes, and params whose largest
    |w.x| over the rows is 10 ** log_score."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    y = rng.choice(rng.choice(k, size=min(n_present, k), replace=False), size=n)

    def scaled(w):
        return w * 10.0 ** log_score / max(np.max(np.abs(X @ w.T)), 1e-300)

    if kind == ORDINAL:
        cuts = np.cumsum(np.concatenate(([rng.normal(scale=3.0)],
                                         np.exp(rng.normal(size=k - 2)))))
        params = params_from_thresholds(scaled(rng.normal(size=p)), cuts)
    else:
        params = np.concatenate([scaled(rng.normal(size=(k, p))).ravel(),
                                 rng.normal(scale=3.0, size=k)])
    return kind, params, X, y, reg_lambda


problems = st.builds(
    drawn_problem, seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), p=st.integers(1, 4),
    k=st.integers(2, NUM_CLASSES), n_present=st.integers(1, NUM_CLASSES),
    log_score=st.floats(-2.0, 3.0), reg_lambda=st.floats(0.0, 1.0),
    kind=st.sampled_from([ORDINAL, MULTINOMIAL]),
)


def ordinal_magnitudes(params, X, y, reg_lambda):
    """The ordinal gradient and Hessian, each summed over absolute terms."""
    p = X.shape[1]
    n_cuts = params.size - p
    z_hi, z_lo, _, ratio_hi, ratio_lo = oracle_ordinal._row_terms(params, X, y)
    gaps = np.exp(params[p + 1:])
    tail = oracle_ordinal._threshold_tail(y, -ratio_hi, ratio_lo, n_cuts)
    grad = np.concatenate([np.abs(X).T @ (ratio_hi + ratio_lo) + reg_lambda * np.abs(params[:p]),
                           tail[:1], gaps * tail[1:]])
    h_hh = ratio_hi * (ratio_hi + np.abs(np.tanh(z_hi / 2)))
    h_ll = ratio_lo * (ratio_lo + np.abs(np.tanh(z_lo / 2)))
    h_hl = ratio_hi * ratio_lo
    cuts = np.eye(n_cuts + 1)[y]
    J_hi = np.hstack([np.abs(X), cuts[:, :n_cuts]])
    J_lo = np.hstack([np.abs(X), cuts[:, 1:]])
    H = (J_hi.T @ (h_hh[:, None] * J_hi + h_hl[:, None] * J_lo)
         + J_lo.T @ (h_hl[:, None] * J_hi + h_ll[:, None] * J_lo))
    H[:p, :p] += reg_lambda * np.eye(p)
    chain = np.eye(p + n_cuts)
    chain[p:, p:] = np.tril(np.ones((n_cuts, n_cuts))) * np.concatenate(([1.0], gaps))
    H = chain.T @ H @ chain
    H[p + 1:, p + 1:] += np.diag(grad[p + 1:])
    return grad, H


def multinomial_magnitudes(params, X, y, reg_lambda):
    """The multinomial gradient and Hessian, each summed over absolute terms."""
    n, p = X.shape
    W, logits, log_norm = oracle_multinomial._log_softmax_terms(params, X)
    k = W.shape[0]
    probs = np.exp(logits - log_norm[:, None])
    Z = np.abs(np.hstack([X, np.ones((n, 1))]))
    weight = probs + np.eye(k)[y]
    grad = np.concatenate([(weight.T @ Z[:, :p] + reg_lambda * np.abs(W)).ravel(),
                           weight.sum(axis=0)])
    # |pi_k (delta_kl - pi_l)| <= pi_k (delta_kl + pi_l): the oracle's Hessian
    # with the subtraction made an addition
    G = (probs[:, :, None] * Z[:, None, :]).reshape(n, -1)
    same = np.repeat(np.arange(k), p + 1)
    H = (G.T @ Z)[:, np.tile(np.arange(p + 1), k)] * (same[:, None] == same[None, :]) + G.T @ G
    index = np.arange(k * (p + 1)).reshape(k, p + 1)
    order = np.concatenate([index[:, :p].ravel(), index[:, p]])
    H = H[np.ix_(order, order)]
    H[:k * p, :k * p] += reg_lambda * np.eye(k * p)
    return grad, H


KERNELS = {
    ORDINAL: (ordinal.newton_objective, oracle_ordinal.newton_objective, ordinal_magnitudes,
              lambda params, p: params.size - p + 1),
    MULTINOMIAL: (baselines.newton_objective, oracle_multinomial.newton_objective,
                  multinomial_magnitudes, lambda params, p: params.size // (p + 1)),
}


def built(kind, X, y, reg_lambda, params):
    """The objective built once for X, y and reg_lambda, over params' classes."""
    build, _, _, n_classes = KERNELS[kind]
    return build(X, y, reg_lambda, n_classes(params, X.shape[1]))


def assert_within_magnitude(new, old, magnitude):
    assert np.all(np.abs(new - old) <= 1e-12 * np.max(magnitude))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(problem=problems)
def test_kernel_matches_the_oracle(problem):
    kind, params, X, y, reg_lambda = problem
    _, oracle, magnitudes, _ = KERNELS[kind]
    value, grad, hessian = built(kind, X, y, reg_lambda, params)(params)
    old_value, old_grad, old_hessian = oracle(params, X, y, reg_lambda)
    grad_magnitude, hessian_magnitude = magnitudes(params, X, y, reg_lambda)
    assert abs(value - old_value) <= 1e-12 * abs(old_value)
    assert_within_magnitude(grad, old_grad, grad_magnitude)
    assert_within_magnitude(hessian(), old_hessian(), hessian_magnitude)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(problem=problems, step=st.floats(1e-3, 1.0))
def test_a_built_objective_keeps_no_state_between_calls(problem, step):
    """Calls at x1, x2, then x1 again; every Hessian is asked for after the
    later calls. Each result must be bit-equal to a freshly built objective's."""
    kind, x1, X, y, reg_lambda = problem
    x2 = x1 + step * np.random.default_rng(0).normal(size=x1.size)
    objective = built(kind, X, y, reg_lambda, x1)
    first, second, third = objective(x1), objective(x2), objective(x1)
    for x, (value, grad, hessian) in ((x1, first), (x2, second), (x1, third)):
        fresh_value, fresh_grad, fresh_hessian = built(kind, X, y, reg_lambda, x)(x)
        assert value == fresh_value
        assert np.array_equal(grad, fresh_grad)
        assert np.array_equal(hessian(), fresh_hessian())
