"""Pipeline glue: training, prediction, and the three-way CV comparison."""

import threading

import numpy as np
import pytest

from conftest import micro_plan
from triplescore import evaluation, pipeline
from triplescore.baselines import MultinomialModel, fit_multinomial
from triplescore.errors import InputFormatError
from triplescore.evaluation import FoldPlan, cross_validate
from triplescore.features import Relation, Triple, fit_standardizer
from triplescore.model import EXPECTED_ROUNDED, FitConfig
from triplescore.ordinal import OrdinalModel
from triplescore.ordinal import fit as fit_ordinal
from triplescore.pipeline import (
    CV_MODEL_TYPES,
    MODEL_FIRST,
    extract_matrix,
    make_trainer,
    predict_scores,
    run_cv_comparison,
    train_model,
    truth_labels,
)


class TestTruthLabels:
    def test_collects_scores(self, micro):
        labels = truth_labels(micro["triples"])
        assert labels.tolist() == [7, 5, 2, 0, 7, 4, 1, 3, 6, 0]

    def test_unscored_triple_rejected(self):
        triples = [Triple("a", Relation.PROFESSION, "x", 3),
                   Triple("a", Relation.PROFESSION, "y")]
        with pytest.raises(InputFormatError, match="no truth score"):
            truth_labels(triples)


class TestTrainAndPredict:
    def test_ordinal_standardizes_internally(self, micro):
        _, X = extract_matrix(micro["store"], micro_plan(micro))
        model = train_model(micro["triples"], X, relation=Relation.PROFESSION)
        assert isinstance(model, OrdinalModel)
        assert model.standardizer == fit_standardizer(X)
        # predict_scores standardizes with the model's own transform
        scores = predict_scores(model, X)
        manual = model.predict(model.standardizer.apply(X))
        assert scores == manual

    def test_multinomial_variant(self, micro):
        _, X = extract_matrix(micro["store"], micro_plan(micro))
        model = train_model(micro["triples"], X, model_type="multinomial")
        assert isinstance(model, MultinomialModel)
        assert all(0 <= s <= 7 for s in predict_scores(model, X))

    @pytest.mark.parametrize("model_type, fit", [("ordinal", fit_ordinal),
                                                 ("multinomial", fit_multinomial)])
    def test_attaches_standardizer_and_relation_to_the_fit(self, micro, model_type, fit):
        _, X = extract_matrix(micro["store"], micro_plan(micro))
        cfg = FitConfig(reg_lambda=0.05)
        model = train_model(micro["triples"], X, model_type=model_type, fit_config=cfg,
                            relation=Relation.PROFESSION)
        standardizer = fit_standardizer(X)
        bare = fit(standardizer.apply(X), truth_labels(micro["triples"]), cfg)
        assert bare.standardizer is None and bare.relation is None
        for name in model.param_shapes:
            assert getattr(model, name).tobytes() == getattr(bare, name).tobytes()
        assert model.standardizer == standardizer
        assert model.relation is Relation.PROFESSION
        assert model.feature_names == bare.feature_names
        assert model.fit_config == cfg

    def test_unknown_model_type(self, micro):
        _, X = extract_matrix(micro["store"], micro_plan(micro))
        with pytest.raises(ValueError, match="model type"):
            train_model(micro["triples"], X, model_type="tree")

    def test_prediction_rule_passthrough(self, micro):
        _, X = extract_matrix(micro["store"], micro_plan(micro))
        model = train_model(micro["triples"], X)
        rounded = predict_scores(model, X, EXPECTED_ROUNDED)
        manual = model.predict(model.standardizer.apply(X), EXPECTED_ROUNDED)
        assert rounded == manual

    def test_predict_without_standardizer(self):
        model = OrdinalModel(w=np.array([1.0]), theta=np.linspace(-3, 3, 7),
                             feature_names=("x0",))
        assert predict_scores(model, np.array([[-99.0]])) == [0]
        assert predict_scores(model, np.array([[99.0]])) == [7]


class TestMakeTrainer:
    def test_first_needs_corpus(self):
        with pytest.raises(ValueError, match="corpus"):
            make_trainer(MODEL_FIRST)

    def test_first_ignores_features(self, micro):
        trainer = make_trainer(MODEL_FIRST, corpus=micro["corpus"])
        predict = trainer([], np.empty((0, 4)), np.empty(0, dtype=int))
        preds = predict(micro["triples"], np.zeros((10, 4)))
        assert preds == [7, 0, 0, 0, 7, 0, 0, 0, 0, 0]

    def test_model_trainer_standardizes_on_training_rows_only(self, micro):
        """Held-out rows must not leak into the feature scaling."""
        _, X = extract_matrix(micro["store"], micro_plan(micro))
        train_idx = [0, 1, 2, 3, 4, 5, 6]
        test_idx = [7, 8, 9]
        train_triples = [micro["triples"][i] for i in train_idx]
        test_triples = [micro["triples"][i] for i in test_idx]

        trainer = make_trainer("ordinal", fit_config=FitConfig(reg_lambda=0.1))
        predict = trainer(train_triples, X[train_idx], truth_labels(train_triples))
        got = predict(test_triples, X[test_idx])

        fold_std = fit_standardizer(X[train_idx])
        model = train_model(train_triples, X[train_idx],
                            fit_config=FitConfig(reg_lambda=0.1))
        assert model.standardizer == fold_std
        assert got == model.predict(fold_std.apply(X[test_idx]))

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            make_trainer("nearest")


class TestRunCvComparison:
    def test_identical_folds_across_model_types(self, micro):
        _, X = extract_matrix(micro["store"], micro_plan(micro))
        results = run_cv_comparison(micro["triples"], X, micro["corpus"],
                                    folds=3, seed=5)
        assert set(results) == set(CV_MODEL_TYPES)
        fold_shapes = {
            name: [(r.n_triples, r.n_entities) for r in res.fold_reports]
            for name, res in results.items()
        }
        assert len(set(map(tuple, fold_shapes.values()))) == 1

    def test_matches_direct_cross_validate(self, micro):
        _, X = extract_matrix(micro["store"], micro_plan(micro))
        results = run_cv_comparison(micro["triples"], X, micro["corpus"],
                                    folds=3, seed=2)
        trainer = make_trainer(MODEL_FIRST, corpus=micro["corpus"])
        direct = cross_validate(FoldPlan(micro["triples"], 3, 2), X, trainer)
        assert results[MODEL_FIRST].to_dict() == direct.to_dict()

    def test_first_rule_runs_inline_and_learned_fits_on_the_pool(self, micro, monkeypatch):
        _, X = extract_matrix(micro["store"], micro_plan(micro))
        splits = FoldPlan(micro["triples"], 3, 2).splits
        monkeypatch.setattr(evaluation, "_POOL_MIN_TRAIN_ROWS",
                            min(len(split.train_triples) for split in splits))
        threads: dict[str, list[int]] = {"first": [], "fit": []}

        def recorded(name, call):
            def wrapper(*args, **kwargs):
                threads[name].append(threading.get_ident())
                return call(*args, **kwargs)
            return wrapper

        # run_cv_comparison looks both up on the module when it calls them
        monkeypatch.setattr(pipeline, "first_baseline_predictions",
                            recorded("first", pipeline.first_baseline_predictions))
        monkeypatch.setattr(pipeline, "train_model", recorded("fit", pipeline.train_model))
        serial = run_cv_comparison(micro["triples"], X, micro["corpus"], folds=3, seed=2)
        assert set(threads["first"]) == set(threads["fit"]) == {threading.get_ident()}
        threads["first"].clear()
        threads["fit"].clear()
        pooled = run_cv_comparison(micro["triples"], X, micro["corpus"], folds=3, seed=2,
                                   max_workers=2)
        assert threads["first"] == [threading.get_ident()] * 3
        assert len(threads["fit"]) == 6 and threading.get_ident() not in threads["fit"]
        assert {k: r.to_dict() for k, r in pooled.items()} == \
            {k: r.to_dict() for k, r in serial.items()}

    def test_nonpositive_workers_rejected(self, micro, monkeypatch):
        _, X = extract_matrix(micro["store"], micro_plan(micro))
        calls = []
        monkeypatch.setattr(pipeline, "first_baseline_predictions",
                            lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="max_workers must be at least 1"):
            run_cv_comparison(micro["triples"], X, micro["corpus"], folds=3, max_workers=0)
        assert calls == []
