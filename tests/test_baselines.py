"""First-mention rule and multinomial softmax baseline."""

import numpy as np
import pytest

from conftest import objective_at
from triplescore import baselines
from triplescore.baselines import (
    FIRST_MATCH_SCORE,
    FIRST_MISS_SCORE,
    MultinomialModel,
    first_baseline_predictions,
    fit_multinomial,
)
from triplescore.corpus import Corpus, PageRecord
from triplescore.errors import DegenerateLabelsError
from triplescore.features import Relation, Triple
from triplescore.model import NUM_CLASSES, FitConfig


def one_person_corpus(abstract, page=None):
    record = PageRecord("Pat", (), abstract, page if page is not None else abstract)
    return Corpus({"pat": record})


def first_baseline_score(corpus, entity, candidates):
    """The first-mention scores of one entity's candidates, by normalized object key."""
    triples = [Triple(entity, Relation.PROFESSION, c) for c in candidates]
    scores = first_baseline_predictions(corpus, triples)
    return {t.object_key: score for t, score in zip(triples, scores)}


class TestFirstBaselineScore:
    def test_earliest_candidate_wins(self):
        corpus = one_person_corpus("Pat is an author and later a politician.")
        scores = first_baseline_score(corpus, "pat", ["politician", "author"])
        assert scores == {"author": 7, "politician": 0}

    def test_no_candidate_mentioned(self):
        corpus = one_person_corpus("Pat kept bees.")
        scores = first_baseline_score(corpus, "pat", ["author", "politician"])
        assert scores == {"author": 0, "politician": 0}

    def test_single_candidate_mentioned(self):
        corpus = one_person_corpus("Pat, the noted author.")
        assert first_baseline_score(corpus, "pat", ["author"]) == {"author": 7}

    def test_missing_record_scores_all_zero(self):
        corpus = one_person_corpus("irrelevant")
        scores = first_baseline_score(corpus, "nobody", ["author", "politician"])
        assert scores == {"author": 0, "politician": 0}

    def test_abstract_scope_only(self):
        corpus = one_person_corpus("Pat kept bees.", page="Pat kept bees. An author too.")
        scores = first_baseline_score(corpus, "pat", ["author"])
        assert scores == {"author": 0}

    def test_keys_normalized(self):
        corpus = one_person_corpus("A software engineer by trade.")
        scores = first_baseline_score(corpus, "pat", ["Software Engineer"])
        assert scores == {"software_engineer": 7}

    def test_at_most_one_full_score(self):
        corpus = one_person_corpus("An author, a poet, and a politician walked in.")
        scores = first_baseline_score(corpus, "pat", ["poet", "politician", "author"])
        assert sorted(scores.values()) == [0, 0, 7]
        assert scores["author"] == FIRST_MATCH_SCORE
        assert scores["poet"] == FIRST_MISS_SCORE


class TestFirstBaselinePredictions:
    def test_micro_world(self, micro):
        preds = first_baseline_predictions(micro["corpus"], micro["triples"])
        assert preds == [7, 0, 0, 0, 7, 0, 0, 0, 0, 0]

    def test_candidates_are_entity_local(self):
        # "poet" wins for pat even though quin's triples also list "author"
        corpus = Corpus({
            "pat": PageRecord("Pat", (), "Pat the poet wrote.", ""),
            "quin": PageRecord("Quin", (), "Quin the author wrote.", ""),
        })
        triples = [
            Triple("pat", Relation.PROFESSION, "poet"),
            Triple("pat", Relation.PROFESSION, "author"),
            Triple("quin", Relation.PROFESSION, "author"),
        ]
        assert first_baseline_predictions(corpus, triples) == [7, 0, 7]

    def test_empty(self, micro):
        assert first_baseline_predictions(micro["corpus"], []) == []

    def test_output_aligns_with_input_order(self, micro):
        triples = list(reversed(micro["triples"]))
        preds = first_baseline_predictions(micro["corpus"], triples)
        assert preds == [0, 0, 0, 0, 0, 7, 0, 0, 0, 7]


def multiclass_instance(seed, n=150, p=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    centers = rng.normal(scale=2.0, size=(NUM_CLASSES, p))
    y = np.argmax(X @ centers.T, axis=1)
    return X, y


class TestMultinomialNll:
    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(71)
        X = rng.normal(size=(20, 2))
        y = rng.integers(0, NUM_CLASSES, size=20)
        params = rng.normal(scale=0.5, size=NUM_CLASSES * 2 + NUM_CLASSES)
        _, grad, _ = objective_at(baselines, params, X, y, 0.3)
        h = 1e-6
        for i in range(params.size):
            e = np.zeros_like(params)
            e[i] = h
            hi = objective_at(baselines, params + e, X, y, 0.3)[0]
            lo = objective_at(baselines, params - e, X, y, 0.3)[0]
            assert grad[i] == pytest.approx((hi - lo) / (2 * h), rel=1e-4, abs=1e-7)

    def test_penalty_skips_biases(self):
        rng = np.random.default_rng(73)
        X = rng.normal(size=(15, 2))
        y = rng.integers(0, NUM_CLASSES, size=15)
        params = rng.normal(size=NUM_CLASSES * 2 + NUM_CLASSES)
        W = params[:NUM_CLASSES * 2]
        v0, g0, _ = objective_at(baselines, params, X, y, 0.0)
        v1, g1, _ = objective_at(baselines, params, X, y, 4.0)
        assert v1 - v0 == pytest.approx(2.0 * np.dot(W, W), rel=1e-12)
        assert np.allclose((g1 - g0)[NUM_CLASSES * 2:], 0.0, atol=1e-12)


class TestMultinomialModel:
    def test_distribution_sums_to_one(self):
        rng = np.random.default_rng(79)
        m = MultinomialModel(W=rng.normal(size=(8, 3)), b=rng.normal(size=8),
                             feature_names=("a", "b", "c"))
        for _ in range(20):
            probs = m.class_probs(rng.normal(scale=4.0, size=(1, 3)))[0]
            assert np.all(probs >= 0)
            assert abs(probs.sum() - 1.0) < 1e-12

    def test_predict_is_distribution_argmax(self):
        rng = np.random.default_rng(83)
        m = MultinomialModel(W=rng.normal(size=(8, 3)), b=rng.normal(size=8),
                             feature_names=("a", "b", "c"))
        for _ in range(50):
            x = rng.normal(size=(1, 3))
            assert m.predict(x) == [int(np.argmax(m.class_probs(x)[0]))]

    def test_bias_shift_preserves_predictions(self):
        # adding a constant to every logit leaves the ordering untouched
        rng = np.random.default_rng(89)
        W = rng.normal(size=(8, 2))
        b = rng.normal(size=8)
        m1 = MultinomialModel(W=W, b=b, feature_names=("a", "b"))
        m2 = MultinomialModel(W=W, b=b + 11.5, feature_names=("a", "b"))
        X = rng.normal(size=(40, 2))
        assert m1.predict(X) == m2.predict(X)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            MultinomialModel(W=np.zeros((7, 2)), b=np.zeros(8))
        with pytest.raises(ValueError):
            MultinomialModel(W=np.zeros((8, 2)), b=np.zeros(7))
        with pytest.raises(ValueError):
            MultinomialModel(W=np.zeros((8, 2)), b=np.zeros(8),
                             feature_names=("just_one",))


class TestFitMultinomial:
    def test_fits_separable_classes(self):
        X, y = multiclass_instance(97)
        model = fit_multinomial(X, y, FitConfig(reg_lambda=1e-4))
        acc = np.mean(np.array(model.predict(X)) == y)
        assert acc >= 0.85

    def test_deterministic(self):
        X, y = multiclass_instance(101)
        a = fit_multinomial(X, y)
        b = fit_multinomial(X, y)
        assert np.array_equal(a.W, b.W)
        assert np.array_equal(a.b, b.b)

    def test_single_class_rejected(self):
        X = np.random.default_rng(103).normal(size=(10, 2))
        with pytest.raises(DegenerateLabelsError):
            fit_multinomial(X, np.full(10, 5))

    def test_label_and_shape_checks(self):
        with pytest.raises(ValueError):
            fit_multinomial(np.ones((4, 2)), np.array([0, 1, 2, 9]))
        with pytest.raises(ValueError):
            fit_multinomial(np.empty((0, 2)), np.array([], dtype=int))
        with pytest.raises(ValueError):
            fit_multinomial(np.ones((5, 2)), np.zeros(3, dtype=int))

    def test_metadata_carried(self):
        X, y = multiclass_instance(107, n=80)
        cfg = FitConfig(reg_lambda=0.1)
        model = fit_multinomial(X, y, cfg)
        assert model.feature_names == ("x0", "x1", "x2")
        assert model.fit_config == cfg
