"""What both learned models share: fields, batch prediction rules, fitting.

A subclass declares its artifact `model_type` and parameter arrays and
turns a feature matrix into class probabilities; the rest lives here once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np
from scipy.optimize import minimize

from .errors import DegenerateLabelsError, NonFiniteError
from .features import FEATURE_NAMES, Relation, Standardizer

NUM_CLASSES = 8

ARGMAX = "argmax"
EXPECTED_ROUNDED = "expected-rounded"


@dataclass(frozen=True)
class FitConfig:
    """Optimizer settings; defaults give a deterministic penalized MLE."""

    reg_lambda: float = 1e-3
    max_iters: int = 500
    tol: float = 1e-6

    def to_dict(self) -> dict:
        return {"reg_lambda": self.reg_lambda, "max_iters": self.max_iters, "tol": self.tol}

    @classmethod
    def from_dict(cls, data: dict) -> "FitConfig":
        return cls(
            reg_lambda=float(data["reg_lambda"]),
            max_iters=int(data["max_iters"]),
            tol=float(data["tol"]),
        )


@dataclass(eq=False, kw_only=True)
class LearnedModel:
    """Fitted model over feature rows; immutable in practice, safe to share.

    Subclasses add their parameter arrays as fields, weights first, and
    define `_check_shapes()` and `class_probs(X)`.
    """

    model_type: ClassVar[str]
    param_names: ClassVar[tuple[str, ...]]  # the weight array first

    feature_names: tuple[str, ...] = FEATURE_NAMES
    standardizer: Standardizer | None = None
    relation: Relation | None = None
    fit_config: FitConfig = field(default_factory=FitConfig)

    def __post_init__(self):
        for name in self.param_names:
            value = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{self.model_type} parameter {name} is not finite")
            setattr(self, name, value)
        self._check_shapes()
        if len(self.feature_names) != self.n_features:
            raise ValueError(f"feature_names length must match the {self.n_features} features")

    @property
    def n_features(self) -> int:
        """Width of a feature row: the last axis of the weight array."""
        return getattr(self, self.param_names[0]).shape[-1]

    def class_probs(self, X) -> np.ndarray:
        """(n, 8) class probabilities; each row is nonnegative and sums to 1."""
        raise NotImplementedError

    def _argmax_basis(self, X) -> np.ndarray:
        """(n, 8) values whose row argmax is the predicted class."""
        return self.class_probs(X)

    def predict(self, X, rule: str = ARGMAX) -> list[int]:
        """Integer score 0..7 per row; argmax ties resolve to the lower class."""
        if rule == ARGMAX:
            return np.argmax(self._argmax_basis(X), axis=1).tolist()
        if rule == EXPECTED_ROUNDED:
            expectation = self.class_probs(X) @ np.arange(NUM_CLASSES)
            return np.clip(np.rint(expectation), 0, NUM_CLASSES - 1).astype(int).tolist()
        raise ValueError(f"unknown prediction rule {rule!r}")

    def _rows(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"expected an (n, {self.n_features}) matrix, got {X.shape}")
        return X


def fit_model(model_cls, objective, start, unpack, X, y, config: FitConfig | None,
              *, feature_names, standardizer, relation):
    """Minimize `objective` with L-BFGS-B from `start(y, p)` and build model_cls
    from `unpack(x, p)`, the optimum's parameter arrays by name. Deterministic:
    identical inputs produce bit-identical models.
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
    if np.unique(y).size < 2:
        raise DegenerateLabelsError("training labels contain a single class")

    p = X.shape[1]
    if feature_names is None:
        feature_names = FEATURE_NAMES if p == len(FEATURE_NAMES) else tuple(
            f"x{i}" for i in range(p)
        )

    result = minimize(
        objective,
        start(y, p),
        args=(X, y, config.reg_lambda),
        method="L-BFGS-B",
        jac=True,
        options={"maxiter": config.max_iters, "gtol": config.tol, "ftol": 1e-14},
    )
    if not np.all(np.isfinite(result.x)) or not np.isfinite(result.fun):
        raise NonFiniteError(f"{model_cls.model_type} objective diverged; "
                             "check feature scaling")

    return model_cls(
        **unpack(result.x, p),
        feature_names=tuple(feature_names),
        standardizer=standardizer,
        relation=relation,
        fit_config=config,
    )
