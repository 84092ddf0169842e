"""Ordinal regression: probability laws, prediction rules, fitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import objective_at
from triplescore import ordinal
from triplescore.errors import DegenerateLabelsError
from triplescore.model import ARGMAX, EXPECTED_ROUNDED, NUM_CLASSES, FitConfig
from triplescore.ordinal import (
    OrdinalModel,
    fit,
    initial_params,
    logistic,
    params_from_thresholds,
    thresholds_from_params,
)

THETA_LADDER = np.array([-2.25, -1.5, -0.75, 0.0, 0.75, 1.5, 2.25])


def cum_row(m, x):
    """P(y <= j | x) for j = 0..6, through the batch API on a one-row matrix."""
    return m.cumulative_probs(np.asarray(x, dtype=float)[None, :])[0]


def probs_row(m, x):
    return m.class_probs(np.asarray(x, dtype=float)[None, :])[0]


def predict_row(m, x, rule=ARGMAX):
    return m.predict(np.asarray(x, dtype=float)[None, :], rule)[0]


def hand_model(w, theta, names=None):
    w = np.asarray(w, dtype=float)
    if names is None:
        names = tuple(f"x{i}" for i in range(w.shape[0]))
    return OrdinalModel(w=w, theta=np.asarray(theta, dtype=float), feature_names=names)


def random_model(rng):
    p = rng.integers(1, 5)
    w = rng.normal(scale=2.0, size=p)
    cuts = np.sort(rng.normal(scale=2.0, size=7))
    cuts += np.arange(7) * 1e-3  # break exact ties so cuts stay ordered
    return hand_model(w, cuts)


class TestLogistic:
    def test_midpoint(self):
        assert logistic(0.0) == 0.5

    def test_extremes_stay_finite(self):
        assert logistic(1000.0) == 1.0
        assert logistic(-1000.0) == 0.0
        assert logistic(800.0) == 1.0

    def test_known_value(self):
        assert logistic(1.0) == pytest.approx(1 / (1 + np.exp(-1)), abs=1e-15)

    def test_vector_input(self):
        out = logistic(np.array([-1.0, 0.0, 1.0]))
        assert out.shape == (3,)
        assert out[1] == 0.5

    @given(st.floats(min_value=-700, max_value=700, allow_nan=False))
    def test_complement_symmetry(self, t):
        assert logistic(t) + logistic(-t) == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_bounded(self, t):
        v = logistic(t)
        assert 0.0 <= v <= 1.0


class TestCumulativeProb:
    def test_half_at_threshold(self):
        m = hand_model([1.0, 0.0], THETA_LADDER)
        for j in range(7):
            assert cum_row(m, [THETA_LADDER[j], 5.0])[j] == 0.5

    def test_zero_weights_ignore_features(self):
        m = hand_model([0.0, 0.0], THETA_LADDER)
        a = cum_row(m, [0.0, 0.0]).tolist()
        b = cum_row(m, [100.0, -3.0]).tolist()
        assert a == b

    def test_nondecreasing_in_cut(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = random_model(rng)
            x = rng.normal(size=m.w.shape[0])
            cum = cum_row(m, x)
            assert all(cum[j] <= cum[j + 1] for j in range(6))

    def test_one_column_per_cut(self):
        m = hand_model([1.0], THETA_LADDER)
        assert m.cumulative_probs(np.zeros((5, 1))).shape == (5, 7)


class TestClassDistribution:
    def test_matches_cumulative_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            m = random_model(rng)
            x = rng.normal(size=m.w.shape[0])
            probs = probs_row(m, x)
            cum = cum_row(m, x)
            assert probs[0] == pytest.approx(cum[0], abs=1e-15)
            for j in range(1, 7):
                assert probs[j] == pytest.approx(cum[j] - cum[j - 1], abs=1e-15)
            assert probs[7] == pytest.approx(1.0 - cum[6], abs=1e-15)

    def test_sums_to_one(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            m = random_model(rng)
            x = rng.normal(scale=3.0, size=m.w.shape[0])
            probs = probs_row(m, x)
            assert np.all(probs >= 0.0)
            assert abs(probs.sum() - 1.0) < 1e-10

    def test_ladder_midpoint(self):
        m = hand_model([0.0], np.array([0.0, 800, 801, 802, 803, 804, 805]))
        probs = probs_row(m, [0.0])
        assert probs[0] == 0.5
        assert probs[1] == 0.5


class TestPredict:
    def test_unique_maximum(self):
        m = hand_model([1.0], THETA_LADDER * 3)
        # strong negative score concentrates mass at class 0, etc.
        assert predict_row(m, [-50.0]) == 0
        assert predict_row(m, [50.0]) == 7

    def test_exact_tie_resolves_to_lower_class(self):
        m = hand_model([0.0], np.array([-800.0, -800, 0, 0, 0, 800, 800]))
        probs = probs_row(m, [0.0])
        assert probs[2] == 0.5 and probs[5] == 0.5  # exact two-way tie
        assert predict_row(m, [0.0]) == 2

    def test_endpoint_tie(self):
        m = hand_model([0.0], np.zeros(7))
        probs = probs_row(m, [0.0])
        assert probs[0] == 0.5 and probs[7] == 0.5
        assert predict_row(m, [0.0]) == 0

    def test_agrees_with_bruteforce_argmax(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            m = random_model(rng)
            x = rng.normal(scale=2.0, size=m.w.shape[0])
            probs = probs_row(m, x)
            best = min(range(NUM_CLASSES), key=lambda k: (-probs[k], k))
            assert predict_row(m, x) == best

    def test_expected_rounded(self):
        m = hand_model([0.0], np.array([-800.0, -800, -800, 0, 800, 800, 800]))
        probs = probs_row(m, [0.0])
        assert probs[3] == 0.5 and probs[4] == 0.5
        assert predict_row(m, [0.0], rule=ARGMAX) == 3
        # expectation 3.5 rounds half-to-even up to 4
        assert predict_row(m, [0.0], rule=EXPECTED_ROUNDED) == 4

    def test_expected_rounded_tracks_expectation(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            m = random_model(rng)
            x = rng.normal(size=m.w.shape[0])
            expectation = float(np.dot(np.arange(8), probs_row(m, x)))
            assert predict_row(m, x, rule=EXPECTED_ROUNDED) == int(np.rint(expectation))

    def test_unknown_rule(self):
        m = hand_model([1.0], THETA_LADDER)
        with pytest.raises(ValueError):
            predict_row(m, [0.0], rule="mode")

    def test_batch_matches_row_by_row(self):
        rng = np.random.default_rng(23)
        m = random_model(rng)
        X = rng.normal(size=(12, m.w.shape[0]))
        assert m.predict(X) == [predict_row(m, x) for x in X]

    @given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=0.1, max_value=5.0))
    @settings(max_examples=60)
    def test_expectation_monotone_along_weights(self, seed, step):
        # moving x along w raises the latent score, so the expected class
        # never decreases: the single-index structure of the model
        rng = np.random.default_rng(seed)
        m = random_model(rng)
        x = rng.normal(size=m.w.shape[0])
        norm2 = float(np.dot(m.w, m.w))
        if norm2 == 0.0:
            return
        e = [
            float(np.dot(np.arange(8), probs_row(m, x + t * m.w)))
            for t in (0.0, step)
        ]
        assert e[1] >= e[0] - 1e-12


class TestParametrization:
    def test_round_trip(self):
        w = np.array([0.3, -1.2, 2.0])
        params = params_from_thresholds(w, THETA_LADDER)
        theta = thresholds_from_params(params, 3)
        assert np.allclose(theta, THETA_LADDER, atol=1e-12)
        assert np.array_equal(params[:3], w)

    def test_requires_strictly_increasing(self):
        with pytest.raises(ValueError):
            params_from_thresholds(np.zeros(1), np.array([0.0, 0, 1, 2, 3, 4, 5]))

    def test_reconstructed_thresholds_ordered(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            params = rng.normal(size=4 + 7)
            theta = thresholds_from_params(params, 4)
            assert np.all(np.diff(theta) > 0)

    def test_initial_params_finite_with_missing_classes(self):
        params = initial_params(np.array([0, 0, 7, 7]), 4)
        assert np.all(np.isfinite(params))
        theta = thresholds_from_params(params, 4)
        assert np.all(np.diff(theta) > 0)


class TestPenalizedNll:
    @staticmethod
    def instance(seed, n=24, p=3):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, p))
        y = rng.integers(0, NUM_CLASSES, size=n)
        params = params_from_thresholds(
            rng.normal(size=p), np.sort(rng.normal(scale=2.0, size=7)) + np.arange(7) * 1e-2
        )
        return params, X, y

    def test_gradient_matches_central_differences(self):
        params, X, y = self.instance(31)
        value, grad, _ = objective_at(ordinal, params, X, y, 0.1)
        h = 1e-6
        for i in range(params.size):
            e = np.zeros_like(params)
            e[i] = h
            hi = objective_at(ordinal, params + e, X, y, 0.1)[0]
            lo = objective_at(ordinal, params - e, X, y, 0.1)[0]
            fd = (hi - lo) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-7)

    def test_penalty_applies_to_weights_only(self):
        params, X, y = self.instance(37)
        p = 3
        base, grad0, _ = objective_at(ordinal, params, X, y, 0.0)
        val, grad2, _ = objective_at(ordinal, params, X, y, 2.0)
        w = params[:p]
        assert val - base == pytest.approx(0.5 * 2.0 * np.dot(w, w), rel=1e-12)
        diff = grad2 - grad0
        assert np.allclose(diff[:p], 2.0 * w, atol=1e-12)
        assert np.allclose(diff[p:], 0.0, atol=1e-12)

    def test_value_finite_under_extreme_scores(self):
        params, X, y = self.instance(41)
        params[:3] = [300.0, -300.0, 250.0]
        value, grad, _ = objective_at(ordinal, params, X, y, 1e-3)
        assert np.isfinite(value)


def synthetic(seed, n, w, theta, noise=True):
    """Draw labels from the ordinal model itself (logistic latent noise)."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, len(w)))
    u = X @ np.asarray(w, dtype=float)
    if noise:
        r = rng.uniform(1e-12, 1 - 1e-12, size=n)
        u = u + np.log(r / (1 - r))
    y = np.sum(u[:, None] > np.asarray(theta)[None, :], axis=1)
    return X, y


class TestFit:
    def test_near_separable_data(self):
        X, y = synthetic(43, 400, [3.6, -2.4], THETA_LADDER * 3, noise=False)
        if np.unique(y).size < 2:
            pytest.fail("fixture degenerate")
        model = fit(X, y, FitConfig(reg_lambda=1e-4))
        acc = np.mean(np.array(model.predict(X)) == y)
        assert acc >= 0.9

    def test_two_class_labels_yield_valid_model(self):
        rng = np.random.default_rng(47)
        X = rng.normal(size=(200, 2))
        y = np.where(X @ np.array([2.0, -1.0]) > 0, 7, 0)
        model = fit(X, y, FitConfig(reg_lambda=1e-3))
        assert np.all(np.isfinite(model.w)) and np.all(np.isfinite(model.theta))
        probs = probs_row(model, rng.normal(size=2))
        assert np.all(probs >= 0) and abs(probs.sum() - 1.0) < 1e-10
        acc = np.mean(np.array(model.predict(X)) == y)
        assert acc >= 0.9

    def test_deterministic(self):
        X, y = synthetic(53, 300, [1.0, -0.5, 0.25], THETA_LADDER)
        a = fit(X, y)
        b = fit(X, y)
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(a.theta, b.theta)

    def test_single_class_rejected(self):
        X = np.random.default_rng(59).normal(size=(10, 2))
        with pytest.raises(DegenerateLabelsError):
            fit(X, np.full(10, 3))

    def test_label_range_checked(self):
        X = np.ones((4, 2))
        with pytest.raises(ValueError):
            fit(X, np.array([0, 1, 2, 8]))
        with pytest.raises(ValueError):
            fit(X, np.array([0, 1, -1, 3]))

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            fit(np.empty((0, 2)), np.array([], dtype=int))
        with pytest.raises(ValueError):
            fit(np.ones(5), np.zeros(5, dtype=int))
        with pytest.raises(ValueError):
            fit(np.ones((5, 2)), np.zeros(4, dtype=int))

    def test_metadata_carried(self):
        X, y = synthetic(61, 120, [1.0, 1.0], THETA_LADDER)
        cfg = FitConfig(reg_lambda=0.5, max_iters=200, tol=1e-5)
        model = fit(X, y, cfg, feature_names=("a", "b"))
        assert model.feature_names == ("a", "b")
        assert model.fit_config == cfg

    def test_regularization_shrinks_weights(self):
        X, y = synthetic(67, 500, [2.0, -1.0], THETA_LADDER)
        loose = fit(X, y, FitConfig(reg_lambda=1e-6))
        tight = fit(X, y, FitConfig(reg_lambda=100.0))
        assert np.linalg.norm(tight.w) < np.linalg.norm(loose.w)


class TestModelValidation:
    def test_threshold_shape(self):
        with pytest.raises(ValueError):
            hand_model([1.0], np.zeros(6))

    def test_threshold_order(self):
        theta = THETA_LADDER.copy()
        theta[3], theta[4] = theta[4], theta[3]
        with pytest.raises(ValueError):
            hand_model([1.0], theta)

    def test_feature_name_length(self):
        with pytest.raises(ValueError):
            OrdinalModel(w=np.zeros(2), theta=THETA_LADDER, feature_names=("only",))

    def test_feature_weights_sorted_by_magnitude(self):
        m = hand_model([0.5, -2.0, 0.5, 1.0], THETA_LADDER,
                       names=("a", "b", "c", "d"))
        assert m.feature_weights() == [("b", -2.0), ("d", 1.0), ("a", 0.5), ("c", 0.5)]

    def test_fit_config_round_trip(self):
        cfg = FitConfig(reg_lambda=0.25, max_iters=77, tol=1e-8)
        assert FitConfig.from_dict(cfg.to_dict()) == cfg
