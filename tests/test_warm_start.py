"""Cross-validation fits start each fold where the previous fold's fit ended.

A learned model's CV trainer keeps one `WarmStart`: fold k's Newton fit
starts from fold k - 1's reduced parameters when both folds saw the same
observed classes and feature width, and from the model's fixed start
otherwise. The stopping rule is the cold fit's, so each warm fit must stop
at max |gradient| <= tol on its own rows and predict what a cold fit of the
same rows predicts: the same held-out argmax classes, and class
probabilities within 1e-6. Parameters are not compared, since multinomial
biases may differ by a common shift.

On a near-separable multinomial problem the default tol itself leaves
fits about 2e-5 apart in probability, whatever their start (9 of 750
drawn problems, |W| 15-40, both fits stopping at max |gradient| 1e-7 to
8e-7), so drawn problems compare probabilities at tol 1e-9.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import drawn_problem, objective_at
from triplescore import baselines, model, ordinal, pipeline
from triplescore.baselines import fit_multinomial
from triplescore.evaluation import FoldPlan, cross_validate
from triplescore.features import Relation, Triple, fit_standardizer
from triplescore.model import NUM_CLASSES, FitConfig, WarmStart
from triplescore.ordinal import fit as fit_ordinal

# model type -> (fit, module with its newton_objective)
FITS = {"multinomial": (fit_multinomial, baselines), "ordinal": (fit_ordinal, ordinal)}


def fit_quietly(fit, *args, **kwargs):
    """Fit with every warning an error: a fit that stops above tol warns."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fit(*args, **kwargs)


def assert_warm_folds_match_cold(kind, X, y, fold_of, config=FitConfig(), prob_tol=1e-6):
    """Fit the folds in order through one WarmStart, as a CV trainer does,
    and hold each warm fit to a cold fit of the same standardized rows;
    prob_tol None leaves the probabilities unchecked."""
    fit, module = FITS[kind]
    warm = WarmStart()
    for k in range(fold_of.max() + 1):
        held = fold_of == k
        standardizer = fit_standardizer(X[~held])
        X_train, X_held = standardizer.apply(X[~held]), standardizer.apply(X[held])
        y_train = y[~held]
        fitted = fit_quietly(fit, X_train, y_train, config, warm=warm)
        cold = fit_quietly(fit, X_train, y_train, config)
        observed = np.flatnonzero(np.bincount(y_train, minlength=NUM_CLASSES))
        grad = objective_at(module, warm.x, X_train, np.searchsorted(observed, y_train),
                            config.reg_lambda)[1]
        assert np.max(np.abs(grad)) <= config.tol
        assert fitted.predict(X_held) == cold.predict(X_held)
        if prob_tol is not None:
            assert np.max(np.abs(fitted.class_probs(X_held)
                                 - cold.class_probs(X_held))) <= prob_tol


def plan_folds(triples, folds=5, seed=0) -> np.ndarray:
    """Each row's fold in the CV plan of the triples."""
    return np.argmax([split.test for split in FoldPlan(triples, folds, seed).splits], axis=0)


def counting_newton_steps(monkeypatch) -> list:
    """Record (start, end, steps) of every Newton run from now on."""
    runs = []
    newton = model._newton

    def recording(objective, x, config):
        result = newton(objective, x, config)
        runs.append((x, result[0], result[3]))
        return result

    monkeypatch.setattr(model, "_newton", recording)
    return runs


@pytest.mark.parametrize("kind", sorted(FITS))
@pytest.mark.parametrize("world", ["planted", "dirty"])
def test_committed_worlds(kind, world, request):
    triples, X, _ = request.getfixturevalue(world)
    assert_warm_folds_match_cold(kind, X, pipeline.truth_labels(triples), plan_folds(triples))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(40, 400), p=st.integers(1, 5),
       n_classes=st.integers(2, NUM_CLASSES), folds=st.integers(3, 5),
       weight_scale=st.floats(0.0, 3.0), kind=st.sampled_from(sorted(FITS)))
def test_drawn_problems(seed, n, p, n_classes, folds, weight_scale, kind):
    X, y = drawn_problem(seed, n, p, n_classes, weight_scale)
    fold_of = np.random.default_rng(seed).permutation(n) % folds
    assert_warm_folds_match_cold(kind, X, y, fold_of, prob_tol=None)
    assert_warm_folds_match_cold(kind, X, y, fold_of, FitConfig(tol=1e-9))


def test_planted_cv_takes_at_most_70_percent_of_the_cold_steps(planted, monkeypatch):
    triples, X, corpus = planted
    runs = counting_newton_steps(monkeypatch)
    results = pipeline.run_cv_comparison(triples, X, corpus)
    warm_steps = sum(steps for *_, steps in runs)
    runs.clear()
    plan = FoldPlan(triples, 5, 0)
    for kind in FITS:
        def cold_trainer(train_triples, X_train, y_train, kind=kind):
            fitted = pipeline.train_model(train_triples, X_train, model_type=kind)
            return lambda test_triples, X_test: pipeline.predict_scores(fitted, X_test)

        assert cross_validate(plan, X, cold_trainer).to_dict() == results[kind].to_dict()
    cold_steps = sum(steps for *_, steps in runs)
    assert len(runs) == 10
    assert warm_steps <= 0.7 * cold_steps


@pytest.mark.parametrize("kind", sorted(FITS))
def test_a_trainer_starts_where_its_last_fit_ended_over_the_same_classes(kind, monkeypatch):
    X, y = drawn_problem(11, 160, 4, NUM_CLASSES, 1.0)
    triples = [Triple(f"p{i}", Relation.PROFESSION, f"o{i}", int(t)) for i, t in enumerate(y)]
    lacking = np.flatnonzero(y != y[0])   # every row but those of row 0's class
    fits = [np.arange(160), np.arange(10, 160), lacking, lacking[5:], np.arange(160)]
    runs = counting_newton_steps(monkeypatch)
    trainer = pipeline.make_trainer(kind)
    for rows in fits:
        trainer([triples[i] for i in rows], X[rows], y[rows])
    cold_starts = []
    for rows in fits:
        pipeline.train_model([triples[i] for i in rows], X[rows], model_type=kind)
        cold_starts.append(runs.pop()[0])
    starts = [start.tobytes() for start, *_ in runs]
    ends = [end.tobytes() for _, end, _ in runs]
    # a fresh trainer, and a fit whose class set differs from the last one's, start cold
    for k in (0, 2, 4):
        assert starts[k] == cold_starts[k].tobytes()
    # a fit over the classes of the last fit starts at its end
    for k in (1, 3):
        assert starts[k] == ends[k - 1] != cold_starts[k].tobytes()
        assert runs[k][2] < runs[k - 1][2]


@pytest.mark.parametrize("kind", sorted(FITS))
def test_a_fit_over_other_classes_or_width_starts_cold(kind):
    fit, _ = FITS[kind]
    X, y = drawn_problem(7, 200, 3, 5, 1.0)
    lacking = y != y[0]
    absent = np.setdiff1d(np.arange(NUM_CLASSES), y)[0]
    swapped = np.where(lacking, y, absent)   # as many classes, not the same ones
    for X_next, y_next in ((X[lacking], y[lacking]), (X, swapped), (X[:, :2], y)):
        warm = WarmStart()
        fit_quietly(fit, X, y, warm=warm)
        fitted = fit_quietly(fit, X_next, y_next, warm=warm)
        cold = fit(X_next, y_next)
        for name in fitted.param_shapes:
            assert getattr(fitted, name).tobytes() == getattr(cold, name).tobytes()
