"""Saving and reloading fitted models through versioned JSON."""

import contextlib
import dataclasses
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from triplescore.artifact import (
    ARTIFACT_VERSION,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from triplescore.baselines import MultinomialModel, fit_multinomial
from triplescore.cli import main
from triplescore.errors import ArtifactError
from triplescore.features import Relation, Standardizer, fit_standardizer
from triplescore.model import FitConfig
from triplescore.ordinal import OrdinalModel, fit


@pytest.fixture(scope="module")
def training_data():
    rng = np.random.default_rng(211)
    X = rng.normal(size=(300, 4))
    u = X @ np.array([2.0, -1.5, 1.0, 0.5])
    y = np.sum(u[:, None] > np.linspace(-4, 4, 7)[None, :], axis=1)
    return X, y


@pytest.fixture(scope="module")
def ordinal_model(training_data):
    X, y = training_data
    std = Standardizer(means=(0.1, 0.2, 0.3, 0.4), stddevs=(1.0, 2.0, 1.5, 0.5))
    return dataclasses.replace(fit(X, y, FitConfig(reg_lambda=0.01)), standardizer=std,
                               relation=Relation.PROFESSION)


@pytest.fixture(scope="module")
def multinomial_model(training_data):
    X, y = training_data
    return dataclasses.replace(fit_multinomial(X, y, FitConfig(reg_lambda=0.01)),
                               relation=Relation.NATIONALITY)


MISSING = object()


def with_value(data, path, value):
    """A deep copy of an artifact dict with the entry at `path` set to `value`,
    or deleted if `value` is MISSING."""
    data = json.loads(json.dumps(data))
    holder = data
    for key in path[:-1]:
        holder = holder[key]
    if value is MISSING:
        del holder[path[-1]]
    else:
        holder[path[-1]] = value
    return data


class TestRoundTrip:
    def test_ordinal_predictions_bit_identical(self, ordinal_model, training_data, tmp_path):
        X, _ = training_data
        path = tmp_path / "model.json"
        save_model(ordinal_model, path)
        loaded = load_model(path)
        assert isinstance(loaded, OrdinalModel)
        assert np.array_equal(loaded.w, ordinal_model.w)
        assert np.array_equal(loaded.theta, ordinal_model.theta)
        assert loaded.predict(X) == ordinal_model.predict(X)
        assert np.array_equal(loaded.class_probs(X[:20]), ordinal_model.class_probs(X[:20]))

    def test_multinomial_predictions_bit_identical(self, multinomial_model, training_data, tmp_path):
        X, _ = training_data
        path = tmp_path / "model.json"
        save_model(multinomial_model, path)
        loaded = load_model(path)
        assert isinstance(loaded, MultinomialModel)
        assert np.array_equal(loaded.W, multinomial_model.W)
        assert np.array_equal(loaded.b, multinomial_model.b)
        assert loaded.predict(X) == multinomial_model.predict(X)

    def test_fields_preserved(self, ordinal_model, tmp_path):
        path = tmp_path / "model.json"
        save_model(ordinal_model, path)
        loaded = load_model(path)
        assert loaded.feature_names == ordinal_model.feature_names
        assert loaded.relation is Relation.PROFESSION
        assert loaded.standardizer == ordinal_model.standardizer
        assert loaded.fit_config == ordinal_model.fit_config

    def test_none_fields_survive(self, training_data, tmp_path):
        X, y = training_data
        model = fit(X, y)  # no standardizer, no relation
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.standardizer is None
        assert loaded.relation is None

    def test_file_shape(self, ordinal_model, tmp_path):
        path = tmp_path / "model.json"
        save_model(ordinal_model, path)
        text = path.read_text()
        assert text.endswith("\n")
        data = json.loads(text)
        assert data["version"] == ARTIFACT_VERSION
        assert data["model_type"] == "ordinal"
        assert "created" in data
        assert list(data.keys()) == sorted(data.keys())

    def test_standardizer_round_trip(self, training_data, tmp_path):
        X, y = training_data
        std = fit_standardizer(np.array([[1.0, 2.0], [3.0, 5.0]]))
        model = dataclasses.replace(fit(X[:, :2], y), standardizer=std)
        path = tmp_path / "model.json"
        save_model(model, path)
        assert load_model(path).standardizer == std

    def test_fit_config_round_trip(self, training_data, tmp_path):
        X, y = training_data
        cfg = FitConfig(0.25, 77, 1e-8)
        model = dataclasses.replace(fit(X, y), fit_config=cfg)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path).fit_config
        assert loaded == cfg
        assert type(loaded.max_iters) is int

    def test_dict_round_trip_without_file(self, multinomial_model):
        again = model_from_dict(model_to_dict(multinomial_model))
        assert np.array_equal(again.W, multinomial_model.W)


class TestMalformedArtifacts:
    def test_version_mismatch(self, ordinal_model):
        data = model_to_dict(ordinal_model)
        data["version"] = "999"
        with pytest.raises(ArtifactError, match="version"):
            model_from_dict(data)

    def test_unknown_model_type(self, ordinal_model):
        data = model_to_dict(ordinal_model)
        data["model_type"] = "tree"
        with pytest.raises(ArtifactError, match="model_type"):
            model_from_dict(data)

    @pytest.mark.parametrize("field, value", [("model_type", []), ("model_type", 5),
                                              ("relation", 5), ("relation", ["profession"])])
    def test_field_of_another_json_type(self, ordinal_model, field, value):
        data = model_to_dict(ordinal_model)
        data[field] = value
        with pytest.raises(ArtifactError, match=field):
            model_from_dict(data)

    @pytest.mark.parametrize("field, value", [
        *(("standardizer", v) for v in ({}, False, 0, [])),
        *(("relation", v) for v in ("", False, 0, [])),
    ])
    def test_falsy_standardizer_or_relation_rejected(self, ordinal_model, field, value):
        data = model_to_dict(ordinal_model)
        data[field] = value
        with pytest.raises(ArtifactError):
            model_from_dict(data)

    @pytest.mark.parametrize("field", ["standardizer", "relation"])
    def test_null_standardizer_or_relation_loads(self, ordinal_model, field):
        data = model_to_dict(ordinal_model)
        data[field] = None
        assert getattr(model_from_dict(data), field) is None

    @pytest.mark.parametrize("field", ["version", "model_type", "w", "theta", "fit_config"])
    def test_missing_field(self, ordinal_model, field):
        data = model_to_dict(ordinal_model)
        del data[field]
        with pytest.raises(ArtifactError):
            model_from_dict(data)

    @pytest.mark.parametrize("path, value, message", [
        (("standardizer",), {}, "model artifact field 'standardizer' is missing 'means'"),
        (("standardizer",), [1.0], "model artifact field 'standardizer' must be an object"),
        (("standardizer", "stddevs"), 2.0,
         "model artifact field 'stddevs' must be an array of numbers"),
        (("fit_config",), MISSING, "model artifact is missing field 'fit_config'"),
        (("fit_config",), [1e-3, 500, 1e-6], "model artifact field 'fit_config' must be an object"),
        (("fit_config", "tol"), MISSING, "model artifact field 'fit_config' is missing 'tol'"),
        (("feature_names",), "abcd",
         "model artifact field 'feature_names' must be an array of strings"),
        (("feature_names",), ["x0", 1, "x2", "x3"],
         "model artifact field 'feature_names' must be an array of strings"),
        (("feature_names",), MISSING, "model artifact is missing field 'feature_names'"),
        (("theta",), MISSING, "model artifact is missing field 'theta'"),
        (("notes",), "hand-edited", "model artifact has unknown field 'notes'"),
        (("W",), [[0.0] * 4] * 8, "model artifact has unknown field 'W'"),
        (("fit_config", "lr"), 0.1, "model artifact field 'fit_config' has unknown key 'lr'"),
        (("standardizer", "scale"), [1.0] * 4,
         "model artifact field 'standardizer' has unknown key 'scale'"),
        (("standardizer", "stddevs"), [[1.0, 2.0, 1.5, 0.5]],
         "model artifact field 'stddevs' must be an array of numbers"),
        *((("fit_config", key), [], f"model artifact field {key!r} must be a number")
          for key in ("reg_lambda", "max_iters", "tol")),
        (("w",), [[0.5]] * 4, "model artifact field 'w' must be an array of numbers"),
        (("theta",), 0.0, "model artifact field 'theta' must be an array of numbers"),
        (("theta",), [3.0, 2.0, 1.0, 0.0, -1.0, -2.0, -3.0],
         "model artifact is malformed: ordinal parameter theta must be nondecreasing"),
        (("w",), lambda w: w + [0.5],
         "model artifact is malformed: ordinal parameter w has 5 weights for 4 feature_names"),
        (("w",), lambda w: w[:-1],
         "model artifact is malformed: ordinal parameter w has 3 weights for 4 feature_names"),
        (("W",), lambda W: [row + [0.5] for row in W],
         "model artifact is malformed: multinomial parameter W has 5 weights for 4 "
         "feature_names"),
    ])
    def test_refusal_names_its_field(self, ordinal_model, multinomial_model, tmp_path, path,
                                     value, message):
        """A callable value edits the field's current value, in the artifact
        that holds the field."""
        data = model_to_dict(ordinal_model)
        if callable(value):
            if path[0] not in data:
                data = model_to_dict(multinomial_model)
            value = value(data[path[0]])
        data = with_value(data, path, value)
        with pytest.raises(ArtifactError) as err:
            model_from_dict(data)
        assert str(err.value) == message
        file = tmp_path / "model.json"
        file.write_text(json.dumps(data))
        with pytest.raises(ArtifactError) as err:
            load_model(file)
        assert str(err.value) == f"{file}: {message}"

    def test_corrupt_values(self, ordinal_model):
        data = model_to_dict(ordinal_model)
        data["theta"] = data["theta"][:3]  # wrong length
        with pytest.raises(ArtifactError):
            model_from_dict(data)

    @pytest.mark.parametrize("model_name, path", [
        ("ordinal_model", ("w", 0)),
        ("ordinal_model", ("theta", 6)),
        ("multinomial_model", ("W", 3, 1)),
        ("multinomial_model", ("b", 7)),
        ("ordinal_model", ("standardizer", "means", 2)),
        ("ordinal_model", ("standardizer", "stddevs", 1)),
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_value_rejected(self, request, model_name, path, value):
        data = with_value(model_to_dict(request.getfixturevalue(model_name)), path, value)
        with pytest.raises(ArtifactError, match="finite"):
            model_from_dict(data)

    @pytest.mark.parametrize("model_name, path, value", [
        ("ordinal_model", ("w", 0), True),
        ("ordinal_model", ("w", 1), "0.5"),
        ("ordinal_model", ("theta", 2), None),
        ("multinomial_model", ("W", 3, 1), False),
        ("multinomial_model", ("b", 7), "1"),
        ("ordinal_model", ("standardizer", "means", 2), True),
        ("ordinal_model", ("standardizer", "stddevs", 1), "2.0"),
        ("ordinal_model", ("fit_config", "max_iters"), True),
        ("ordinal_model", ("fit_config", "tol"), "1e-6"),
        ("ordinal_model", ("fit_config", "reg_lambda"), False),
    ])
    def test_value_that_is_not_a_number_rejected(self, request, model_name, path, value):
        data = with_value(model_to_dict(request.getfixturevalue(model_name)), path, value)
        field = [key for key in path if isinstance(key, str)][-1]
        with pytest.raises(ArtifactError, match=f"field '{field}' holds a value that is not"):
            model_from_dict(data)

    @pytest.mark.parametrize("field, value, rule", [
        ("reg_lambda", -5, "must be >= 0, got -5"),
        ("tol", 0, "must be > 0, got 0"),
        ("max_iters", 2.5, "must be a whole number, got 2.5"),
        ("max_iters", 0, "must be >= 1, got 0"),
        ("max_iters", float("inf"), "must be a whole number, got inf"),
        ("reg_lambda", float("nan"), "must be >= 0, got nan"),
        ("tol", float("nan"), "must be > 0, got nan"),
        ("max_iters", float("nan"), "must be >= 1, got nan"),
    ])
    def test_fit_setting_its_run_setting_refuses_rejected(self, ordinal_model, field, value,
                                                          rule):
        data = with_value(model_to_dict(ordinal_model), ("fit_config", field), value)
        with pytest.raises(ArtifactError) as exc:
            model_from_dict(data)
        assert str(exc.value) == f"model artifact field {field!r} {rule}"

    def test_json_nan_fit_setting_rejected(self, ordinal_model, tmp_path):
        path = tmp_path / "model.json"
        save_model(ordinal_model, path)
        path.write_text(path.read_text().replace('"tol": 1e-06', '"tol": NaN'))
        with pytest.raises(ArtifactError, match="'tol' must be > 0, got nan"):
            load_model(path)

    def test_fit_settings_at_their_bounds_load(self, ordinal_model):
        data = model_to_dict(ordinal_model)
        data["fit_config"] = {"reg_lambda": 0, "max_iters": 1.0, "tol": 5e-324}
        config = model_from_dict(data).fit_config
        assert config == FitConfig(reg_lambda=0.0, max_iters=1, tol=5e-324)
        assert type(config.max_iters) is int

    def test_negative_stddev_rejected(self, ordinal_model):
        data = with_value(model_to_dict(ordinal_model), ("standardizer", "stddevs", 0), -1.0)
        with pytest.raises(ArtifactError, match="stddevs must be >= 0"):
            model_from_dict(data)

    @pytest.mark.parametrize("model_name, path", [
        ("ordinal_model", ("w", 0)),
        ("ordinal_model", ("theta", 6)),
        ("multinomial_model", ("W", 3, 1)),
        ("multinomial_model", ("b", 7)),
        ("ordinal_model", ("standardizer", "means", 2)),
        ("ordinal_model", ("fit_config", "reg_lambda")),
        ("ordinal_model", ("fit_config", "tol")),
    ])
    def test_integer_beyond_float_range_rejected(self, request, model_name, path):
        data = with_value(model_to_dict(request.getfixturevalue(model_name)), path, 10**400)
        field = [key for key in path if isinstance(key, str)][-1]
        with pytest.raises(ArtifactError) as err:
            model_from_dict(data)
        assert str(err.value) == f"model artifact field {field!r} holds a number beyond float range"

    @pytest.mark.parametrize("path", [("w",), ("standardizer", "means"),
                                      ("standardizer", "stddevs")])
    def test_integers_beyond_int64_load_as_floats(self, ordinal_model, path):
        data = with_value(model_to_dict(ordinal_model), path, [10**20] * 4)
        loaded = model_from_dict(data)
        for key in path:
            loaded = getattr(loaded, key)
        assert np.asarray(loaded).dtype == np.float64 and list(loaded) == [1e20] * 4

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ArtifactError, match="JSON"):
            load_model(path)

    def test_non_object_json(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ArtifactError) as err:
            load_model(path)
        assert str(err.value) == f"{path}: expected a JSON object"

    def test_unfittable_type_rejected(self):
        with pytest.raises(TypeError):
            model_to_dict(object())


class TestStandardizerWidth:
    """The model refuses a standardizer that is not as wide as its weights,
    however the model is built."""

    @pytest.mark.parametrize("model_name", ["ordinal_model", "multinomial_model"])
    @pytest.mark.parametrize("means, stddevs", [(3, 3), (3, 4), (4, 3), (5, 5)])
    def test_another_width_refused(self, request, model_name, means, stddevs):
        model = request.getfixturevalue(model_name)
        std = Standardizer(means=(0.0,) * means, stddevs=(1.0,) * stddevs)
        message = f"standardizer has {means} means and {stddevs} stddevs for 4 weights"
        params = {name: getattr(model, name) for name in model.param_shapes}
        with pytest.raises(ValueError) as built:
            type(model)(**params, standardizer=std)
        with pytest.raises(ValueError) as replaced:
            dataclasses.replace(model, standardizer=std)
        assert str(built.value) == str(replaced.value) == message


PLANTED = Path(__file__).parent / "data" / "planted"
PLANTED_INPUTS = [f"--{key}={PLANTED / file}" for key, file in (
    ("embeddings", "embeddings.txt"), ("corpus", "corpus.jsonl"),
    ("universe", "universe.txt"), ("triples", "triples.tsv"))]
RETYPED = [None, True, "text", [], {}, 0, 1.5]


@pytest.fixture(scope="module")
def planted_artifacts(tmp_path_factory):
    """The ordinal and multinomial artifacts `train` writes on the planted world."""
    artifacts = {}
    for model_type in ("ordinal", "multinomial"):
        path = tmp_path_factory.mktemp("planted") / "model.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["train", *PLANTED_INPUTS, "--model", str(path),
                         "--model-type", model_type]) == 0
        artifacts[model_type] = json.loads(path.read_text())
    return artifacts


def rescaled(value, scale):
    """`value` with each number in it replaced by scale(number)."""
    if isinstance(value, list):
        return [rescaled(v, scale) for v in value]
    if isinstance(value, dict):
        return {k: rescaled(v, scale) for k, v in value.items()}
    return scale(value) if type(value) in (int, float) else value


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_an_edited_artifact_predicts_or_is_refused_by_name(planted_artifacts, tmp_path, data):
    """One top-level field, or one key of `standardizer` or `fit_config`, of a
    planted artifact is dropped, retyped, resized or rescaled (each number in
    it times +-1e300, or made an integer beyond the float or the int64
    range). `predict` then writes every row, or exits 2 naming the file and
    a field or key; any other exception propagates."""
    artifact = planted_artifacts[data.draw(st.sampled_from(sorted(planted_artifacts)))]
    names = {*artifact, *artifact["standardizer"], *artifact["fit_config"]}
    *section, key = data.draw(st.sampled_from(
        [(name,) for name in sorted(artifact)]
        + [(part, name) for part in ("standardizer", "fit_config")
           for name in sorted(artifact[part])]))
    edited = json.loads(json.dumps(artifact))
    holder = edited[section[0]] if section else edited
    old = holder.pop(key)
    kind = data.draw(st.sampled_from(["drop", "retype", "resize", "rescale"]))
    if kind == "retype":
        holder[key] = data.draw(st.sampled_from(RETYPED))
    elif kind == "resize":
        how = data.draw(st.sampled_from(["append", "pop", "nest"]))
        if isinstance(old, list) and how != "nest":
            holder[key] = old + old[-1:] if how == "append" else old[:-1]
        else:
            holder[key] = [old]
    elif kind == "rescale":
        how, by = data.draw(st.sampled_from(
            [("times", 1e300), ("times", -1e300), ("integer", 10**400), ("integer", 10**20)]))
        holder[key] = rescaled(old, lambda x: x * by if how == "times" else by)

    model = tmp_path / "edited.json"
    model.write_text(json.dumps(edited))
    scores = tmp_path / "scores.tsv"
    scores.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["predict", *PLANTED_INPUTS, "--model", str(model),
                     "--output", str(scores)])
    assert code in (0, 2), err.getvalue()
    if code == 0:
        rows = scores.read_text().splitlines()
        triples = (PLANTED / "triples.tsv").read_text().splitlines()
        assert [row.split("\t")[:2] for row in rows] == \
            [line.split("\t")[:2] for line in triples]
        assert all(row.split("\t")[2] in set("01234567") for row in rows)
    else:
        message = err.getvalue()
        assert message.startswith(f"error: {model}: "), message
        assert re.search(r"\b(%s)\b" % "|".join(map(re.escape, names)),
                         message[len(f"error: {model}: "):]), message
