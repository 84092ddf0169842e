"""What both learned models share: fields, batch prediction rules, fitting.

A subclass declares its artifact `model_type` and parameter arrays and
turns a feature matrix into class probabilities; the rest lives here once.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import ArtifactError, DegenerateLabelsError, NonFiniteError
from .features import FEATURE_NAMES, Relation, Standardizer

NUM_CLASSES = 8

ARGMAX = "argmax"
EXPECTED_ROUNDED = "expected-rounded"

# How far beyond the fitted parameters a fit stores one whose limit is
# infinite; logistic(-40) and exp(-40) are below machine epsilon.
OUTER_LIMIT = 40.0


@dataclass(frozen=True)
class FitConfig:
    """Optimizer settings; defaults give a deterministic penalized MLE.

    The Newton fit stops once max |gradient| <= tol, or after max_iters steps.
    """

    reg_lambda: float = 1e-3
    max_iters: int = 500
    tol: float = 1e-6


@dataclass(eq=False, kw_only=True)
class LearnedModel:
    """Fitted model over feature rows; immutable in practice, safe to share.

    Subclasses add their parameter arrays as fields, declare each one's
    shape in `param_shapes`, the weight array first and "p" standing for the
    feature count (its last axis), and define `logits(X)` and
    `_probs(logits)`. `feature_names` and the standardizer must be as wide
    as the weights. An artifact holds the dataclass fields.
    """

    model_type: ClassVar[str]
    param_shapes: ClassVar[dict[str, tuple]]

    feature_names: tuple[str, ...] = FEATURE_NAMES
    standardizer: Standardizer | None = None
    relation: Relation | None = None
    fit_config: FitConfig = field(default_factory=FitConfig)

    def __post_init__(self):
        for name in self.param_shapes:
            value = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{self.model_type} parameter {name} is not finite")
            setattr(self, name, value)
        weights_name = next(iter(self.param_shapes))
        weights = getattr(self, weights_name)
        p = weights.shape[-1] if weights.ndim else None
        if p is not None and p != len(self.feature_names):
            raise ValueError(f"{self.model_type} parameter {weights_name} has {p} weights "
                             f"for {len(self.feature_names)} feature_names")
        for name, shape in self.param_shapes.items():
            got = getattr(self, name).shape
            if got != tuple(p if n == "p" else n for n in shape):
                declared = str(shape).replace("'", "")
                raise ValueError(f"{self.model_type} parameter {name} must have shape "
                                 f"{declared}, got {got}")
        std = self.standardizer
        if std is not None and {len(std.means), len(std.stddevs)} != {self.n_features}:
            raise ValueError(f"standardizer has {len(std.means)} means and "
                             f"{len(std.stddevs)} stddevs for {self.n_features} weights")

    @property
    def n_features(self) -> int:
        """Width of a feature row: the last axis of the weight array."""
        return getattr(self, next(iter(self.param_shapes))).shape[-1]

    def logits(self, X) -> np.ndarray:
        """(n, k) values that the class probabilities are a function of, per row."""
        raise NotImplementedError

    def _probs(self, logits: np.ndarray) -> np.ndarray:
        """(n, 8) class probabilities of the rows' logits."""
        raise NotImplementedError

    def class_probs(self, X) -> np.ndarray:
        """(n, 8) class probabilities; each row is nonnegative and sums to 1."""
        return self._probs(self.logits(X))

    def _argmax_basis(self, logits: np.ndarray) -> np.ndarray:
        """(n, 8) values whose row argmax is the predicted class."""
        return self._probs(logits)

    def predict(self, X, rule: str = ARGMAX) -> list[int]:
        """Integer score 0..7 per row; argmax ties resolve to the lower class.

        A row whose logits or class probabilities are not finite raises
        ArtifactError: a fit keeps its parameters bounded, so only parameters
        read from an artifact can overflow on finite features.
        """
        if rule not in (ARGMAX, EXPECTED_ROUNDED):
            raise ValueError(f"unknown prediction rule {rule!r}")
        with np.errstate(over="ignore", invalid="ignore"):
            logits = self.logits(X)
            basis = self._argmax_basis(logits) if rule == ARGMAX else self._probs(logits)
        bad = ~(np.isfinite(logits).all(axis=1) & np.isfinite(basis).all(axis=1))
        if bad.any():
            raise ArtifactError(f"the {self.model_type} model's parameters give non-finite "
                                f"logits or class probabilities on {np.count_nonzero(bad)} "
                                f"of {len(bad)} feature rows, the first at row "
                                f"{np.argmax(bad) + 1}")
        if rule == ARGMAX:
            return np.argmax(basis, axis=1).tolist()
        expectation = basis @ np.arange(NUM_CLASSES)
        return np.clip(np.rint(expectation), 0, NUM_CLASSES - 1).astype(int).tolist()

    def _rows(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"expected an (n, {self.n_features}) matrix, got {X.shape}")
        return X


ARMIJO = 1e-4                           # share of the predicted decrease a step must achieve
MIN_STEP = 2.0 ** -40                   # backtracking gives up below this step length
ROUNDING = 64 * np.finfo(float).eps     # relative size of the objective's rounding error


def _newton_direction(hessian: np.ndarray, grad: np.ndarray) -> np.ndarray | None:
    """(H + shift I)^-1 grad, with H + shift I positive definite.

    The Levenberg shift is the first of 1e-10 max|diag H| x 10^k, k = 0, 1,
    ..., for which the Cholesky factorization succeeds; the shifted system is
    then solved once, by LU. Even a positive definite H gets the smallest
    shift: the multinomial objective is flat along equal bias shifts, and
    without it rounding in that null direction walks the biases.
    None when no finite shift works (a non-finite Hessian).
    """
    diagonal = np.diagonal(hessian)
    shifted = hessian.copy()
    shift = max(1e-10 * np.max(np.abs(diagonal)), np.finfo(float).tiny)
    while np.isfinite(shift):
        np.fill_diagonal(shifted, diagonal + shift)
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            shift *= 10.0
            continue
        return np.linalg.solve(shifted, grad)
    return None


def _newton(objective, x: np.ndarray, config: FitConfig):
    """Damped Newton minimization of `objective(x) -> (value, grad, hessian)`
    from x, where `hessian()` gives the Hessian at x.

    `objective` is built once per fit over fixed data (see `fit_model`), so
    a call does only the work that depends on x; `hessian()` reuses that
    call's terms and is asked for only at accepted points. Each step solves
    against the Hessian at the current point and backtracks (halving) until
    the Armijo condition holds. Near the optimum the objective's change falls
    below its rounding error, so there a step that keeps the objective within
    rounding and shrinks max|grad| is accepted too. Stops when max|grad| <=
    config.tol, after config.max_iters steps, or when backtracking can no
    longer decrease the objective. Returns the last accepted (x, value, grad)
    and the step count.
    """
    value, grad, hessian = objective(x)
    grad_max = np.max(np.abs(grad))
    n_iter = 0
    while n_iter < config.max_iters and grad_max > config.tol:
        direction = _newton_direction(hessian(), grad)
        if direction is None:
            break
        decrease = ARMIJO * float(grad @ direction)
        step = 1.0
        while step >= MIN_STEP:
            trial = x - step * direction
            trial_value, trial_grad, trial_hessian = objective(trial)
            trial_max = np.max(np.abs(trial_grad))
            if trial_value <= value - step * decrease or (
                    trial_value <= value + ROUNDING * abs(value) and trial_max < grad_max):
                break
            step *= 0.5
        else:
            break
        x, value, grad, grad_max = trial, trial_value, trial_grad, trial_max
        hessian = trial_hessian
        n_iter += 1
    return x, value, grad, n_iter


def fit_model(model_cls, objective, start, unpack, X, y, config: FitConfig | None):
    """Fit model_cls by Newton's method over the classes y contains.

    A class absent from y has no finite maximum-likelihood parameters: they
    run to a limit (a bias to -inf, a cut to +-inf or onto its neighbour).
    So the fit runs over the K observed classes, relabelled 0..K-1, and
    `unpack(x, p, observed)` builds the 8-class parameter arrays by name,
    putting the absent classes' parameters at their limits; a limit at
    infinity is stored OUTER_LIMIT beyond the fitted parameters.

    `objective(X, y, reg_lambda, K)` is called once per fit, with y the
    labels relabelled 0..K-1, and builds everything that depends only on the
    data. It returns `evaluate(x) -> (value, gradient, hessian)`, where
    `hessian()` computes the analytic Hessian at x from the terms the value
    came from; each call keeps its own terms, so a hessian asked for after
    later calls is still the one at its x. `start(y, p, K)` gives the
    starting point. A fit that stops above `config.tol` warns with a
    RuntimeWarning. Deterministic: identical inputs produce bit-identical
    models. The model names its columns FEATURE_NAMES if there are four,
    else x0..x{p-1}, and has no standardizer or relation.
    """
    config = config or FitConfig()
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("X must be a non-empty 2-d matrix")
    if y.shape != (X.shape[0],):
        raise ValueError("y length must match X rows")
    if np.any((y < 0) | (y >= NUM_CLASSES)):
        raise ValueError(f"labels must be integers in [0, {NUM_CLASSES - 1}]")
    observed = np.flatnonzero(np.bincount(y, minlength=NUM_CLASSES))
    if observed.size < 2:
        raise DegenerateLabelsError("training labels contain a single class")

    p = X.shape[1]
    ranks = np.searchsorted(observed, y)
    x, value, grad, n_iter = _newton(objective(X, ranks, config.reg_lambda, observed.size),
                                     start(ranks, p, observed.size), config)
    if not np.all(np.isfinite(x)) or not np.isfinite(value):
        raise NonFiniteError(f"{model_cls.model_type} objective diverged; "
                             "check feature scaling")
    grad_max = float(np.max(np.abs(grad)))
    if grad_max > config.tol:
        warnings.warn(f"{model_cls.model_type} fit did not converge: stopped after "
                      f"{n_iter} Newton iterations with max|gradient| {grad_max:.3g} "
                      f"> tol {config.tol:g}", RuntimeWarning)

    feature_names = FEATURE_NAMES if p == len(FEATURE_NAMES) else tuple(
        f"x{i}" for i in range(p))
    return model_cls(**unpack(x, p, observed), feature_names=feature_names, fit_config=config)
