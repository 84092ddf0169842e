"""The Newton fit against the L-BFGS-B fit it replaced, and both Hessians.

The oracle is the fit both learned models used before: scipy's L-BFGS-B
on the same objective from the same start, with `gtol=tol` and
`ftol=1e-14`. On drawn problems and on the planted world the Newton fit
must reach an objective no worse than the oracle's (relative 1e-12),
stop with max |gradient| <= tol, and predict the same argmax classes.
Both fits run over the classes the labels contain and put the absent
classes' parameters at their limits, so each objective is taken over all
8 classes, and the ordinal gradient over the classes present (its cuts
for absent classes coincide, where the 8-class gradient is undefined).
Each analytic Hessian must match central differences of the analytic
gradient it belongs to.
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

import triplescore
from conftest import drawn_problem, objective_at
from triplescore import baselines, ordinal
from triplescore.baselines import MultinomialModel, fit_multinomial
from triplescore.errors import NonFiniteError
from triplescore.evaluation import truth_labels
from triplescore.features import fit_standardizer
from triplescore.model import MIN_STEP, NUM_CLASSES, FitConfig, _newton
from triplescore.ordinal import (
    OrdinalModel,
    fit,
    initial_params,
    params_from_thresholds,
    thresholds_from_params,
)

ORDINAL, MULTINOMIAL = "ordinal", "multinomial"


def ordinal_value(model, X, y, reg_lambda):
    """The 8-class penalized NLL of a fitted ordinal model, in log space.

    P(y | x) = logistic(hi) - logistic(lo) with hi = theta_y - w.x and
    lo = theta_{y-1} - w.x (+-inf at the open ends), so
    log P = log logistic(hi) + log logistic(-lo) + log(1 - exp(lo - hi)).
    """
    def log_logistic(t):
        return -np.logaddexp(0.0, -t)

    eta = X @ model.w
    cuts = np.concatenate(([-np.inf], model.theta, [np.inf]))
    hi, lo = cuts[y + 1] - eta, cuts[y] - eta
    log_p = log_logistic(hi) + log_logistic(-lo) + np.log1p(-np.exp(lo - hi))
    return float(-np.sum(log_p) + 0.5 * reg_lambda * np.dot(model.w, model.w))


def ordinal_fit_gradient(model, X, y, reg_lambda):
    """Gradient of the objective the ordinal fit minimizes: the NLL over the
    observed classes, ranked 0..K-1, at the model's cuts between them."""
    observed = np.flatnonzero(np.bincount(y, minlength=NUM_CLASSES))
    params = params_from_thresholds(model.w, model.theta[observed[:-1]])
    return objective_at(ordinal, params, X, np.searchsorted(observed, y), reg_lambda)[1]


def multinomial_params(model):
    return np.concatenate([model.W.ravel(), model.b])


def oracle_fit(kind, X, y, config):
    """The L-BFGS-B fit over all 8 classes, returned as a model."""
    p = X.shape[1]
    if kind == ORDINAL:
        module, start = ordinal, initial_params(y, p)
    else:
        module, start = baselines, np.zeros(NUM_CLASSES * p + NUM_CLASSES)
    x = minimize(lambda q: objective_at(module, q, X, y, config.reg_lambda)[:2], start,
                 method="L-BFGS-B", jac=True,
                 options={"maxiter": config.max_iters, "gtol": config.tol, "ftol": 1e-14}).x
    names = tuple(f"x{i}" for i in range(p))
    if kind == ORDINAL:
        return OrdinalModel(w=x[:p], theta=thresholds_from_params(x, p), feature_names=names)
    return MultinomialModel(W=x[:NUM_CLASSES * p].reshape(NUM_CLASSES, p),
                            b=x[NUM_CLASSES * p:], feature_names=names)


def assert_newton_matches_oracle(kind, X, y, config=FitConfig()):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a converged fit does not warn
        model = (fit if kind == ORDINAL else fit_multinomial)(X, y, config)
    oracle = oracle_fit(kind, X, y, config)
    lam = config.reg_lambda
    if kind == ORDINAL:
        value, oracle_value = ordinal_value(model, X, y, lam), ordinal_value(oracle, X, y, lam)
        grad = ordinal_fit_gradient(model, X, y, lam)
    else:
        value, grad, _ = objective_at(baselines, multinomial_params(model), X, y, lam)
        oracle_value = objective_at(baselines, multinomial_params(oracle), X, y, lam)[0]
    assert value <= oracle_value + 1e-12 * abs(oracle_value)
    assert np.max(np.abs(grad)) <= config.tol
    assert model.predict(X) == oracle.predict(X)


class TestAgainstLbfgsOracle:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(20, 300), p=st.integers(1, 5),
           n_classes=st.integers(2, NUM_CLASSES),
           weight_scale=st.floats(0.0, 3.0),
           kind=st.sampled_from([ORDINAL, MULTINOMIAL]))
    def test_drawn_problems(self, seed, n, p, n_classes, weight_scale, kind):
        X, y = drawn_problem(seed, n, p, n_classes, weight_scale)
        assert_newton_matches_oracle(kind, X, y)

    @pytest.mark.parametrize("kind", [ORDINAL, MULTINOMIAL])
    def test_planted_world(self, planted, kind):
        triples, X, _ = planted
        assert_newton_matches_oracle(kind, fit_standardizer(X).apply(X),
                                     np.asarray(truth_labels(triples)))


def central_difference_hessian(module, params, X, y, reg_lambda, h=1e-6):
    columns = []
    for i in range(params.size):
        e = np.zeros_like(params)
        e[i] = h
        columns.append((objective_at(module, params + e, X, y, reg_lambda)[1]
                        - objective_at(module, params - e, X, y, reg_lambda)[1]) / (2 * h))
    return np.column_stack(columns)


class TestHessians:
    """K classes, not only 8: the fit runs the objectives over the observed ones."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), p=st.integers(1, 4),
           k=st.integers(2, NUM_CLASSES), reg_lambda=st.floats(0.0, 1.0))
    def test_ordinal_matches_central_differences(self, seed, n, p, k, reg_lambda):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, p))
        y = rng.integers(0, k, size=n)
        cuts = np.sort(rng.normal(scale=2.0, size=k - 1)) + np.arange(k - 1) * 0.05
        params = params_from_thresholds(rng.normal(size=p), cuts)
        H = objective_at(ordinal, params, X, y, reg_lambda)[2]()
        fd = central_difference_hessian(ordinal, params, X, y, reg_lambda)
        assert np.allclose(H, fd, rtol=1e-5, atol=1e-6 * max(1.0, np.max(np.abs(H))))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), p=st.integers(1, 4),
           k=st.integers(2, NUM_CLASSES), reg_lambda=st.floats(0.0, 1.0))
    def test_multinomial_matches_central_differences(self, seed, n, p, k, reg_lambda):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, p))
        y = rng.integers(0, k, size=n)
        params = rng.normal(size=k * p + k)
        H = objective_at(baselines, params, X, y, reg_lambda)[2]()
        fd = central_difference_hessian(baselines, params, X, y, reg_lambda)
        assert np.allclose(H, fd, rtol=1e-5, atol=1e-6 * max(1.0, np.max(np.abs(H))))


class TestNonConvergence:
    @pytest.mark.parametrize("fitter, model_type", [(fit, ORDINAL),
                                                     (fit_multinomial, MULTINOMIAL)])
    def test_stopping_above_tol_warns(self, fitter, model_type):
        X, y = drawn_problem(5, 200, 3, NUM_CLASSES, 1.0)
        with pytest.warns(RuntimeWarning) as record:
            model = fitter(X, y, FitConfig(max_iters=1))
        assert len(record) == 1
        message = str(record[0].message)
        assert message.startswith(f"{model_type} fit did not converge")
        assert "after 1 Newton iterations" in message
        assert "max|gradient|" in message
        assert model.fit_config.max_iters == 1

    @pytest.mark.parametrize("fitter, model_type", [(fit, ORDINAL),
                                                     (fit_multinomial, MULTINOMIAL)])
    def test_nan_feature_diverges(self, fitter, model_type):
        X, y = drawn_problem(5, 200, 3, NUM_CLASSES, 1.0)
        X[17, 1] = np.nan
        with pytest.raises(NonFiniteError) as err:
            fitter(X, y)
        assert str(err.value) == f"{model_type} objective diverged; check feature scaling"

    def test_non_finite_hessian_stops_the_fit(self):
        # x**4 from x = 1: the first Newton step lands at 2/3 (up to the
        # Levenberg shift), where the Hessian is made infinite, so no second
        # step is taken
        def objective(x):
            curvature = 12 * x[0] ** 2 if x[0] == 1.0 else np.inf
            return x[0] ** 4, 4 * x ** 3, lambda: np.array([[curvature]])

        x, value, grad, n_iter = _newton(objective, np.array([1.0]), FitConfig())
        assert n_iter == 1
        assert x[0] == pytest.approx(2 / 3, rel=1e-9)
        assert (value, grad[0]) == (x[0] ** 4, 4 * x[0] ** 3)

    def test_backtracking_that_cannot_decrease_stops_the_fit(self):
        # the gradient reported for x**2 has the wrong sign, so every step
        # along the Newton direction raises the objective, down to MIN_STEP
        steps = []

        def objective(x):
            steps.append(x[0])
            return x[0] ** 2, -2 * x, lambda: np.array([[2.0]])

        start = np.array([1.5])
        x, value, grad, n_iter = _newton(objective, start, FitConfig())
        assert (x[0], value, grad[0], n_iter) == (1.5, 2.25, -3.0, 0)
        # the start, then one trial at each step length 1, 1/2, ..., MIN_STEP
        assert len(steps) == 2 - int(np.log2(MIN_STEP))
        assert all(trial > 1.5 for trial in steps[1:])

    def test_cli_warns_on_stderr_and_keeps_stdout(self, micro_paths, tmp_path):
        src = str(Path(triplescore.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        args = ["train", "--embeddings", str(micro_paths["embeddings"]),
                "--corpus", str(micro_paths["corpus"]),
                "--universe", str(micro_paths["universe"]),
                "--triples", str(micro_paths["triples"])]
        outputs = []
        for name, extra in (("converged", []), ("stopped", ["--max-iters", "1"])):
            model = tmp_path / f"{name}.json"
            code = ("import sys; from triplescore.cli import main; "
                    "sys.exit(main(sys.argv[1:]))")
            result = subprocess.run([sys.executable, "-c", code, *args, "--model", str(model),
                                     *extra], env=env, capture_output=True, text=True)
            assert result.returncode == 0, result.stderr
            outputs.append((result.stdout, result.stderr))
        (_, converged_err), (stopped_out, stopped_err) = outputs
        assert "did not converge" not in converged_err
        assert stopped_err.count("ordinal fit did not converge") == 1
        assert "did not converge" not in stopped_out

    def test_cv_warnings_name_their_fold(self):
        """Each learned model warns once per fold, naming the fold, and the
        warnings leave stdout as it is when they are ignored."""
        planted = Path(__file__).parent / "data" / "planted"
        args = ["cv", *(f"--{name}={planted / file}" for name, file in (
            ("embeddings", "embeddings.txt"), ("corpus", "corpus.jsonl"),
            ("universe", "universe.txt"), ("triples", "triples.tsv"))), "--max-iters", "1"]
        src = str(Path(triplescore.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-m", "triplescore", *args], env=env,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stderr.count("RuntimeWarning: ") == 10
        for model_type in (MULTINOMIAL, ORDINAL):
            for k in range(1, 6):
                assert result.stderr.count(
                    f"RuntimeWarning: fold {k} of 5: {model_type} fit did not converge") == 1
        quiet = subprocess.run([sys.executable, "-W", "ignore::RuntimeWarning", "-m",
                                "triplescore", *args], env=env, capture_output=True, text=True)
        assert quiet.returncode == 0
        assert "RuntimeWarning" not in quiet.stderr
        assert result.stdout == quiet.stdout and "kendall_tau" in result.stdout
