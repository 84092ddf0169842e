"""End-to-end command tests: each command is a thin wrapper over the library."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import triplescore
from conftest import micro_plan
from triplescore import __version__, cli
from triplescore.artifact import ARTIFACT_VERSION, load_model
from triplescore.cli import main
from triplescore.config import RunConfig, apply_overrides, parse_config_file
from triplescore.errors import ArtifactError, MalformedLineError
from triplescore.evaluation import FoldPlan
from triplescore.corpus import load_corpus
from triplescore.features import (
    FEATURE_NAMES,
    KeyPlan,
    Relation,
    extract,
    load_triples,
    load_universe,
    matrix_to_tsv,
    missing_summary,
)
from triplescore.ordinal import OrdinalModel
from triplescore.pipeline import extract_matrix, predict_scores, run_cv_comparison

PLANTED = Path(__file__).parent / "data" / "planted"

def invoke(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def input_args(paths):
    return [
        "--embeddings", str(paths["embeddings"]),
        "--corpus", str(paths["corpus"]),
        "--universe", str(paths["universe"]),
        "--triples", str(paths["triples"]),
    ]


@pytest.fixture(scope="module")
def trained(micro_paths, tmp_path_factory):
    """One ordinal artifact shared by the predict tests."""
    model_path = tmp_path_factory.mktemp("artifact") / "model.json"
    code = main(["train", *input_args(micro_paths), "--model", str(model_path)])
    assert code == 0
    return model_path


class TestConfigFile:
    def test_types_and_values(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text(
            "# a comment\n"
            "\n"
            "triples = data/train.tsv\n"
            "relation = nationality\n"
            "folds = 7\n"
            "reg_lambda = 0.5\n"
            "tau_variant = 'a'\n"
        )
        config = parse_config_file(path)
        assert config.triples == "data/train.tsv"
        assert config.relation == "nationality"
        assert config.folds == 7
        assert config.reg_lambda == 0.5
        assert config.tau_variant == "a"
        assert config.model_type == "ordinal"  # untouched default

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("fold_count = 3\n")
        with pytest.raises(MalformedLineError, match="known keys"):
            parse_config_file(path)

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("folds = 3\nfolds = 4\n")
        with pytest.raises(MalformedLineError, match="duplicate"):
            parse_config_file(path)

    def test_line_without_equals(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("just words\n")
        with pytest.raises(MalformedLineError, match="key = value"):
            parse_config_file(path)

    def test_bad_value_type(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("folds = five\n")
        with pytest.raises(MalformedLineError, match="invalid value"):
            parse_config_file(path)

    def test_undecodable_config_names_the_file(self, micro_paths, tmp_path, capsys):
        bad = tmp_path / "run.conf"
        bad.write_bytes(b"folds = 3\n# caf\xff\n")
        code, out, err = invoke(capsys, "extract", "--config", str(bad),
                                *input_args(micro_paths))
        assert code == 2
        assert out == ""
        assert err == f"error: {bad}: not valid UTF-8\n"

    def test_overrides_skip_none(self):
        config = RunConfig(folds=3, delta=1)
        updated = apply_overrides(config, {"folds": 9, "delta": None})
        assert updated.folds == 9
        assert updated.delta == 1


class TestVersion:
    def test_version_banner(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.strip() == f"triplescore {__version__} (artifact format {ARTIFACT_VERSION})"


class TestExtract:
    def test_output_matches_library_bytes(self, micro, micro_paths, tmp_path, capsys):
        out_path = tmp_path / "features.tsv"
        code, _, err = invoke(
            capsys, "extract", *input_args(micro_paths), "--output", str(out_path)
        )
        assert code == 0
        vectors = extract(micro["store"], micro_plan(micro))
        assert out_path.read_text() == matrix_to_tsv(micro["triples"], vectors)
        assert "missing data: 4/10 rows flagged" in err

    @pytest.mark.parametrize("command", ["extract", "train", "predict", "cv"])
    def test_key_plan_is_made_once_per_run(self, micro_paths, trained, tmp_path, capsys,
                                           monkeypatch, command):
        made = []
        of_run = KeyPlan.of_run.__func__

        def counted(cls, *args):
            made.append(args)
            return of_run(cls, *args)

        monkeypatch.setattr(KeyPlan, "of_run", classmethod(counted))
        extra = {"train": ["--model", str(tmp_path / "m.json")],
                 "predict": ["--model", str(trained)],
                 "cv": ["--folds", "3"]}.get(command, [])
        code, _, _ = invoke(capsys, command, *input_args(micro_paths), *extra)
        assert code == 0
        assert len(made) == 1

    @pytest.mark.parametrize("command", ["extract", "train", "predict", "cv"])
    def test_every_command_that_extracts_reports_coverage(self, micro, micro_paths, trained,
                                                          tmp_path, capsys, command):
        extra = {"train": ["--model", str(tmp_path / "m.json")],
                 "predict": ["--model", str(trained)],
                 "cv": ["--folds", "3"]}.get(command, [])
        code, _, err = invoke(capsys, command, *input_args(micro_paths), *extra)
        assert code == 0
        summary = missing_summary(extract(micro["store"], micro_plan(micro)))
        assert summary.startswith("missing data: 4/10 rows flagged")
        assert err == summary + "\n"

    def test_stdout_by_default(self, micro_paths, capsys):
        code, out, err = invoke(capsys, "extract", *input_args(micro_paths))
        assert code == 0
        assert out.startswith("entity\tobject\ttruth\t")
        assert "missing data" in err

    def test_missing_input_flag(self, micro_paths, capsys):
        code, _, err = invoke(
            capsys, "extract",
            "--embeddings", str(micro_paths["embeddings"]),
            "--corpus", str(micro_paths["corpus"]),
            "--universe", str(micro_paths["universe"]),
        )
        assert code == 2
        assert "missing required input" in err
        assert "--triples" in err

    def test_nonexistent_file(self, micro_paths, tmp_path, capsys):
        ghost = tmp_path / "ghost.tsv"
        args = input_args(micro_paths)
        args[args.index(str(micro_paths["triples"]))] = str(ghost)
        code, _, err = invoke(capsys, "extract", *args)
        assert code == 2
        assert str(ghost) in err

    def test_universe_relation_header_mismatch(self, micro_paths, capsys):
        code, _, err = invoke(
            capsys, "extract", *input_args(micro_paths), "--relation", "nationality"
        )
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("command", ["extract", "train", "predict"])
    def test_max_workers_is_cv_only(self, micro_paths, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, *input_args(micro_paths), "--max-workers", "2"])
        assert exc.value.code == 2
        assert "--max-workers" in capsys.readouterr().err

    def test_non_finite_embedding_is_exit_2(self, micro_paths, tmp_path, capsys):
        emb = tmp_path / "emb.txt"
        emb.write_text(micro_paths["embeddings"].read_text().replace("ben 0 1", "ben 0 nan"))
        args = input_args(micro_paths)
        args[args.index(str(micro_paths["embeddings"]))] = str(emb)
        code, _, err = invoke(capsys, "extract", *args)
        assert code == 2
        assert f"{emb}:3:" in err and "non-finite" in err

    def test_embeddings_header_without_entries_is_exit_2(self, micro_paths, tmp_path, capsys):
        # no vector line bounds the header's dim, here one numpy cannot allocate
        emb = tmp_path / "emb.txt"
        emb.write_text("0 4611686018427387904\n")
        args = input_args(micro_paths)
        args[args.index(str(micro_paths["embeddings"]))] = str(emb)
        code, out, err = invoke(capsys, "extract", *args)
        assert code == 2
        assert out == ""
        assert f"{emb}:1: header must declare an entry, got 0" in err

    def test_unreachable_non_finite_embedding_is_not_parsed(self, micro_paths, tmp_path,
                                                            capsys):
        # no triple, universe object or page of a triple's person reaches "zed"
        emb = tmp_path / "emb.txt"
        emb.write_text(micro_paths["embeddings"].read_text().replace("9 2", "10 2")
                       + "zed 0 nan\n")
        args = input_args(micro_paths)
        _, expected, _ = invoke(capsys, "extract", *args)
        args[args.index(str(micro_paths["embeddings"]))] = str(emb)
        code, out, _ = invoke(capsys, "extract", *args)
        assert code == 0
        assert out == expected

    def test_malformed_triples_reported_before_embeddings(self, micro_paths, tmp_path,
                                                           capsys):
        emb, triples = tmp_path / "emb.txt", tmp_path / "triples.tsv"
        emb.write_text("not a header\n")
        triples.write_text("ada\n")
        args = input_args(micro_paths)
        args[args.index(str(micro_paths["embeddings"]))] = str(emb)
        args[args.index(str(micro_paths["triples"]))] = str(triples)
        code, _, err = invoke(capsys, "extract", *args)
        assert code == 2
        assert f"{triples}:1:" in err and str(emb) not in err

    @pytest.mark.parametrize("name, message", [
        ("embeddings", ":10: not valid UTF-8"),
        ("corpus", ": not valid UTF-8 after line"),
        ("universe", ": not valid UTF-8 after line"),
        ("triples", ": not valid UTF-8 after line"),
    ])
    def test_undecodable_input_names_the_file(self, micro_paths, tmp_path, name, message):
        bad = tmp_path / micro_paths[name].name
        data = micro_paths[name].read_bytes()
        bad.write_bytes(data.replace(b"wing", b"w\xffng") if name == "embeddings"
                        else data + b"\xff\n")
        args = input_args(micro_paths)
        args[args.index(str(micro_paths[name]))] = str(bad)
        src = str(Path(triplescore.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-m", "triplescore", "extract", *args],
                                env=env, capture_output=True, text=True)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith(f"error: {bad}{message}"), result.stderr

    def test_underflowing_vectors_are_flagged_not_fatal(self, micro_paths, tmp_path, capsys):
        # nonzero components whose norm underflows to 0: usable by no rule
        emb = tmp_path / "emb.txt"
        emb.write_text(micro_paths["embeddings"].read_text()
                       .replace("ada 1 0", "ada 1e-170 1e-170")
                       .replace("coder 1 0", "coder 1e-170 1e-170"))
        args = input_args(micro_paths)
        args[args.index(str(micro_paths["embeddings"]))] = str(emb)
        code, out, _ = invoke(capsys, "extract", *args)
        assert code == 0
        rows = {tuple(line.split("\t")[:2]): line.split("\t")[-1]
                for line in out.splitlines()[1:]}
        assert rows[("ada", "poet")] == "entity_embedding"
        assert rows[("ben", "coder")] == "object_embedding,ops_terms"

    def test_universe_without_objects_is_exit_2(self, micro_paths, tmp_path, capsys):
        universe = tmp_path / "universe.txt"
        universe.write_text("# relation: profession\n# no objects yet\n")
        args = input_args(micro_paths)
        args[args.index(str(micro_paths["universe"]))] = str(universe)
        code, out, err = invoke(capsys, "extract", *args)
        assert code == 2
        assert out == ""
        assert f"{universe}: object universe is empty" in err

    def test_bad_ops_denominator(self, micro_paths, capsys):
        code, _, err = invoke(
            capsys, "extract", *input_args(micro_paths), "--ops-denominator", "mean"
        )
        assert code == 2


class TestTrain:
    def test_writes_loadable_artifact(self, micro_paths, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        code, out, _ = invoke(
            capsys, "train", *input_args(micro_paths), "--model", str(model_path)
        )
        assert code == 0
        assert "feature weights (descending |weight|):" in out
        assert f"model written to {model_path}" in out
        model = load_model(model_path)
        assert isinstance(model, OrdinalModel)
        assert str(model.relation) == "profession"
        assert model.standardizer is not None

    @pytest.mark.parametrize("module", ["triplescore", "triplescore.cli"])
    def test_python_m_writes_artifact(self, micro_paths, tmp_path, module):
        src = str(Path(triplescore.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        model_path = tmp_path / "model.json"
        result = subprocess.run(
            [sys.executable, "-m", module, "train", *input_args(micro_paths),
             "--model", str(model_path)],
            env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert f"model written to {model_path}" in result.stdout
        assert isinstance(load_model(model_path), OrdinalModel)

    def test_rerun_identical_modulo_timestamp(self, micro_paths, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        invoke(capsys, "train", *input_args(micro_paths), "--model", str(a))
        invoke(capsys, "train", *input_args(micro_paths), "--model", str(b))
        da, db = json.loads(a.read_text()), json.loads(b.read_text())
        da.pop("created")
        db.pop("created")
        assert da == db

    def test_multinomial_variant(self, micro_paths, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        code, out, _ = invoke(
            capsys, "train", *input_args(micro_paths),
            "--model", str(model_path), "--model-type", "multinomial",
        )
        assert code == 0
        assert "fitted multinomial model" in out
        assert json.loads(model_path.read_text())["model_type"] == "multinomial"

    def test_unknown_model_type(self, micro_paths, tmp_path, capsys):
        code, _, err = invoke(
            capsys, "train", *input_args(micro_paths),
            "--model", str(tmp_path / "m.json"), "--model-type", "forest",
        )
        assert code == 2

    def test_single_class_training_fails_numerically(self, micro_paths, tmp_path, capsys):
        flat = tmp_path / "flat.tsv"
        flat.write_text("ada\tcoder\t3\nben\tpoet\t3\ncyd\tsailor\t3\n")
        args = input_args(micro_paths)
        args[args.index(str(micro_paths["triples"]))] = str(flat)
        code, _, err = invoke(
            capsys, "train", *args, "--model", str(tmp_path / "m.json")
        )
        assert code == 3
        assert "single class" in err

    def test_missing_model_path(self, micro_paths, capsys):
        code, _, err = invoke(capsys, "train", *input_args(micro_paths))
        assert code == 2
        assert "missing required output path" in err


class TestPredict:
    def test_matches_library_composition(self, micro, micro_paths, trained, tmp_path, capsys):
        out_path = tmp_path / "scores.tsv"
        code, _, _ = invoke(
            capsys, "predict", *input_args(micro_paths),
            "--model", str(trained), "--output", str(out_path),
        )
        assert code == 0
        model = load_model(trained)
        _, X = extract_matrix(micro["store"], micro_plan(micro))
        scores = predict_scores(model, X, "argmax")
        expected = "".join(
            f"{t.entity}\t{t.object}\t{s}\n"
            for t, s in zip(micro["triples"], scores)
        )
        assert out_path.read_text() == expected

    def test_undecodable_model_names_the_file(self, micro_paths, trained, tmp_path, capsys):
        bad = tmp_path / "model.json"
        bad.write_bytes(trained.read_bytes().replace(b'"created"', b'"cr\xffated"'))
        code, out, err = invoke(capsys, "predict", *input_args(micro_paths),
                                "--model", str(bad))
        assert code == 2
        assert out == ""
        assert err == f"error: {bad}: not valid UTF-8\n"

    def test_preserves_input_order(self, micro_paths, trained, tmp_path, capsys):
        reordered = tmp_path / "reordered.tsv"
        lines = micro_paths["triples"].read_text().splitlines()
        reordered.write_text("\n".join(reversed(lines)) + "\n")
        args = input_args(micro_paths)
        args[args.index(str(micro_paths["triples"]))] = str(reordered)
        code, out, _ = invoke(capsys, "predict", *args, "--model", str(trained))
        assert code == 0
        got_pairs = [tuple(line.split("\t")[:2]) for line in out.splitlines()]
        want_pairs = [tuple(line.split("\t")[:2]) for line in reversed(lines)]
        assert got_pairs == want_pairs

    def test_empty_triples_file(self, micro_paths, trained, tmp_path, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        args = input_args(micro_paths)
        args[args.index(str(micro_paths["triples"]))] = str(empty)
        out_path = tmp_path / "scores.tsv"
        code, _, _ = invoke(
            capsys, "predict", *args, "--model", str(trained),
            "--output", str(out_path),
        )
        assert code == 0
        assert out_path.read_text() == ""

    def test_relation_conflict_with_artifact(self, micro_paths, trained, capsys):
        code, _, err = invoke(
            capsys, "predict", *input_args(micro_paths),
            "--model", str(trained), "--relation", "nationality",
        )
        assert code == 2
        assert "trained for relation 'profession'" in err

    def test_alternative_prediction_rule(self, micro_paths, trained, capsys):
        code, out, _ = invoke(
            capsys, "predict", *input_args(micro_paths),
            "--model", str(trained), "--prediction-rule", "expected-rounded",
        )
        assert code == 0
        scores = [int(line.split("\t")[2]) for line in out.splitlines()]
        assert all(0 <= s <= 7 for s in scores)

    def test_multinomial_honours_expected_rounded(self, micro, micro_paths, tmp_path,
                                                   capsys):
        model_path = tmp_path / "multinomial.json"
        invoke(capsys, "train", *input_args(micro_paths), "--model", str(model_path),
               "--model-type", "multinomial", "--reg-lambda", "1")
        model = load_model(model_path)
        _, X = extract_matrix(micro["store"], micro_plan(micro))
        X_std = model.standardizer.apply(X)
        expected = np.rint(model.class_probs(X_std) @ np.arange(8)).astype(int).tolist()
        assert expected != model.predict(X_std)  # the two rules differ on this model
        code, out, _ = invoke(
            capsys, "predict", *input_args(micro_paths),
            "--model", str(model_path), "--prediction-rule", "expected-rounded",
        )
        assert code == 0
        assert [int(line.split("\t")[2]) for line in out.splitlines()] == expected

    def test_unknown_rule(self, micro_paths, trained, capsys):
        code, _, err = invoke(
            capsys, "predict", *input_args(micro_paths),
            "--model", str(trained), "--prediction-rule", "mode",
        )
        assert code == 2

    def test_permuted_feature_names_is_exit_2(self, micro_paths, trained, tmp_path, capsys):
        data = json.loads(trained.read_text())
        data["feature_names"] = data["feature_names"][::-1]
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(data, indent=2, sort_keys=True))
        code, out, err = invoke(
            capsys, "predict", *input_args(micro_paths), "--model", str(model_path)
        )
        assert code == 2
        assert out == ""
        assert str(data["feature_names"]) in err and str(list(FEATURE_NAMES)) in err

    @pytest.mark.parametrize("model_type, field, value", [
        ("ordinal", "w", "NaN"),
        ("ordinal", "theta", "NaN"),
        ("multinomial", "W", "NaN"),
        ("ordinal", "stddevs", "Infinity"),
    ])
    def test_non_finite_artifact_value_is_exit_2(self, micro_paths, tmp_path, capsys,
                                                 model_type, field, value):
        model_path = tmp_path / "model.json"
        invoke(capsys, "train", *input_args(micro_paths), "--model", str(model_path),
               "--model-type", model_type)
        data = json.loads(model_path.read_text())
        values = data["standardizer"][field] if field == "stddevs" else data[field]
        if field == "W":
            values = values[2]
        values[1] = float(value)
        model_path.write_text(json.dumps(data, indent=2, sort_keys=True))
        assert value in model_path.read_text()
        code, out, err = invoke(
            capsys, "predict", *input_args(micro_paths), "--model", str(model_path)
        )
        assert code == 2
        assert out == ""
        assert "model artifact is malformed" in err and "finite" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("model_type, field", [("ordinal", "w"), ("multinomial", "W")])
    @pytest.mark.parametrize("rule", ["argmax", "expected-rounded"])
    def test_weights_that_overflow_are_exit_2(self, tmp_path, capsys, model_type, field, rule):
        """Finite weights of 1e308 overflow the logits of some planted rows,
        which would otherwise be scored from nan."""
        planted = input_args({name: PLANTED / f"{name}.{ext}" for name, ext in (
            ("embeddings", "txt"), ("corpus", "jsonl"), ("universe", "txt"), ("triples", "tsv"))})
        model_path, scores = tmp_path / "model.json", tmp_path / "scores.tsv"
        assert main(["train", *planted, "--model", str(model_path),
                     "--model-type", model_type]) == 0
        data = json.loads(model_path.read_text())
        data[field] = np.full(np.shape(data[field]), 1e308).tolist()
        model_path.write_text(json.dumps(data))
        capsys.readouterr()
        code, out, err = invoke(capsys, "predict", *planted, "--model", str(model_path),
                                "--prediction-rule", rule, "--output", str(scores))
        assert (code, out, scores.exists()) == (2, "", False)
        assert re.fullmatch(rf"error: {re.escape(str(model_path))}: the {model_type} model's "
                            r"parameters give non-finite logits or class probabilities on "
                            r"\d+ of 300 feature rows, the first at row \d+\n", err), err

    @pytest.mark.parametrize("field, value, rule", [
        ("reg_lambda", -5, "must be >= 0, got -5"),
        ("tol", 0, "must be > 0, got 0"),
        ("max_iters", 2.5, "must be a whole number, got 2.5"),
        ("max_iters", 0, "must be >= 1, got 0"),
        ("tol", float("nan"), "must be > 0, got nan"),
        ("tol", float("inf"), "must be finite, got inf"),
        ("reg_lambda", float("inf"), "must be finite, got inf"),
    ])
    def test_fit_setting_out_of_bounds_is_exit_2(self, micro_paths, trained, tmp_path, capsys,
                                                 field, value, rule):
        data = json.loads(trained.read_text())
        data["fit_config"][field] = value
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(data, indent=2, sort_keys=True))
        code, out, err = invoke(
            capsys, "predict", *input_args(micro_paths), "--model", str(model_path)
        )
        assert (code, out) == (2, "")
        assert err == f"error: {model_path}: model artifact field {field!r} {rule}\n"


class TestErrorFamilies:
    """Input errors exit 2 and fit errors 3; any other exception is a fault
    of the program and propagates with its traceback."""

    RELATIONS = "expected one of: profession, nationality"

    def test_unknown_relation_flag_is_exit_2(self, micro_paths, capsys):
        code, out, err = invoke(capsys, "extract", *input_args(micro_paths),
                                "--relation", "bogus")
        assert (code, out) == (2, "")
        assert err == f"error: unknown relation 'bogus'; {self.RELATIONS}\n"

    def test_unknown_universe_relation_names_the_line(self, micro_paths, tmp_path, capsys):
        universe = tmp_path / "universe.txt"
        universe.write_text("coder\n# relation: bogus\npoet\n")
        args = input_args(micro_paths)
        args[args.index("--universe") + 1] = str(universe)
        code, out, err = invoke(capsys, "extract", *args)
        assert (code, out) == (2, "")
        assert err == f"error: {universe}:2: unknown relation 'bogus'; {self.RELATIONS}\n"

    def test_unknown_artifact_relation_is_malformed(self, micro_paths, trained, tmp_path,
                                                    capsys):
        data = json.loads(trained.read_text())
        data["relation"] = "bogus"
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(data))
        code, out, err = invoke(capsys, "predict", *input_args(micro_paths),
                                "--model", str(model_path))
        assert (code, out) == (2, "")
        assert err == (f"error: {model_path}: model artifact is malformed: "
                       f"unknown relation 'bogus'; {self.RELATIONS}\n")

    @pytest.mark.parametrize("fields", [("means", "stddevs"), ("means",), ("stddevs",)])
    def test_standardizer_of_another_width_fails_before_any_input_is_read(
            self, micro_paths, trained, tmp_path, capsys, monkeypatch, fields):
        data = json.loads(trained.read_text())
        for field in fields:
            data["standardizer"][field].pop()
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(data))
        means, stddevs = (len(data["standardizer"][f]) for f in ("means", "stddevs"))
        message = (f"{model_path}: model artifact is malformed: standardizer has {means} means "
                   f"and {stddevs} stddevs for 4 weights")
        with pytest.raises(ArtifactError) as exc:
            load_model(model_path)
        assert str(exc.value) == message
        read = []
        monkeypatch.setattr(cli, "load_corpus", lambda path: read.append(path))
        code, out, err = invoke(capsys, "predict", *input_args(micro_paths),
                                "--model", str(model_path))
        assert (code, out, err, read) == (2, "", f"error: {message}\n", [])

    @pytest.mark.parametrize("command", ["train", "cv", "predict"])
    def test_a_repeated_triple_pair_is_exit_2(self, trained, tmp_path, capsys, command):
        # the planted triples plus a second copy of the first pair, scored 1, not 6
        text = (PLANTED / "triples.tsv").read_text()
        entity, obj, score = text.splitlines()[0].split("\t")
        assert score == "6"
        triples = tmp_path / "triples.tsv"
        triples.write_text(f"{text}{entity}\t{obj}\t1\n")
        args = input_args({"embeddings": PLANTED / "embeddings.txt",
                           "corpus": PLANTED / "corpus.jsonl",
                           "universe": PLANTED / "universe.txt", "triples": triples})
        model = {"train": tmp_path / "model.json", "predict": trained}.get(command)
        code, out, err = invoke(capsys, command, *args,
                                *(["--model", str(model)] if model else []))
        assert (code, out) == (2, "")
        assert err == f"error: duplicate key '{entity}/{obj}' in {triples}\n"

    @pytest.mark.parametrize("command", ["train", "cv"])
    def test_unscored_row_is_refused_before_the_embeddings_are_read(
            self, micro_paths, tmp_path, capsys, command):
        # the embeddings file would itself be refused, at its header
        emb, triples = tmp_path / "emb.txt", tmp_path / "triples.tsv"
        emb.write_text("not a header\n")
        triples.write_text(micro_paths["triples"].read_text() + "ben\tsailor\n")
        args = input_args(micro_paths)
        args[args.index(str(micro_paths["embeddings"]))] = str(emb)
        args[args.index(str(micro_paths["triples"]))] = str(triples)
        model = ["--model", str(tmp_path / "model.json")] if command == "train" else []
        code, out, err = invoke(capsys, command, *args, *model)
        assert (code, out) == (2, "")
        assert err == (f"error: {triples}: triple ben/sailor has no truth score; "
                       "training and evaluation need three-column rows\n")
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("command", ["extract", "train", "predict", "cv"])
    def test_embeddings_that_share_no_key_are_exit_2(self, trained, tmp_path, capsys, command):
        # the planted vectors, every key renamed: held, but by no key the run reads
        head, *lines = (PLANTED / "embeddings.txt").read_text().splitlines(keepends=True)
        emb = tmp_path / "embeddings.txt"
        emb.write_text(head + "".join(f"renamed_{line}" for line in lines))
        paths = {"embeddings": emb, "corpus": PLANTED / "corpus.jsonl",
                 "universe": PLANTED / "universe.txt", "triples": PLANTED / "triples.tsv"}
        plan = KeyPlan.of_run(load_corpus(paths["corpus"]),
                              load_universe(paths["universe"], Relation.PROFESSION),
                              load_triples(paths["triples"], Relation.PROFESSION))
        model = {"train": tmp_path / "model.json", "predict": trained}.get(command)
        code, out, err = invoke(capsys, command, *input_args(paths),
                                *(["--model", str(model)] if model else []))
        assert (code, out) == (2, "")
        assert err == f"error: {emb}: holds none of the {len(plan.rows)} keys the run reads\n"
        assert not (tmp_path / "model.json").exists()

    def test_a_broken_internal_contract_propagates(self, micro_paths, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("broken contract")

        monkeypatch.setattr(cli, "extract_matrix", broken)
        with pytest.raises(ValueError, match="broken contract"):
            main(["extract", *input_args(micro_paths)])


class TestEvaluate:
    def run_eval(self, capsys, tmp_path, truth_rows, pred_rows, *extra):
        truth = tmp_path / "truth.tsv"
        preds = tmp_path / "preds.tsv"
        truth.write_text("".join(f"{e}\t{o}\t{s}\n" for e, o, s in truth_rows))
        preds.write_text("".join(f"{e}\t{o}\t{s}\n" for e, o, s in pred_rows))
        return invoke(
            capsys, "evaluate", "--triples", str(truth),
            "--predictions", str(preds), *extra,
        )

    @staticmethod
    def json_payload(out):
        return json.loads(out[out.index("{"):])

    def test_perfect_predictions(self, tmp_path, capsys):
        rows = [("a", "x", 5), ("a", "y", 1), ("b", "z", 7)]
        code, out, _ = self.run_eval(capsys, tmp_path, rows, rows)
        assert code == 0
        report = self.json_payload(out)
        assert report["accuracy"] == 1.0
        assert report["avg_score_diff"] == 0.0
        assert report["kendall_tau"] == 1.0
        assert "1.00" in out and "0.00" in out

    def test_hand_fixture(self, tmp_path, capsys):
        truth = [("a", "x", 5), ("a", "y", 3)]
        preds = [("a", "x", 7), ("a", "y", 0)]
        code, out, _ = self.run_eval(capsys, tmp_path, truth, preds)
        assert code == 0
        report = self.json_payload(out)
        assert report["accuracy"] == 0.5
        assert report["avg_score_diff"] == 2.5
        assert report["n_triples"] == 2
        assert report["n_entities"] == 1

    def test_prediction_order_irrelevant(self, tmp_path, capsys):
        truth = [("a", "x", 5), ("a", "y", 3), ("b", "z", 2)]
        preds = [("b", "z", 2), ("a", "y", 3), ("a", "x", 5)]
        code, out, _ = self.run_eval(capsys, tmp_path, truth, preds)
        assert code == 0
        assert self.json_payload(out)["accuracy"] == 1.0

    def test_mismatched_sets(self, tmp_path, capsys):
        truth = [("a", "x", 5), ("a", "y", 3)]
        preds = [("a", "x", 5), ("b", "q", 3)]
        code, _, err = self.run_eval(capsys, tmp_path, truth, preds)
        assert code == 2
        assert "1 truth triples missing from predictions" in err
        assert "1 predicted triples not in the truth file" in err
        assert "a/y" in err and "b/q" in err

    def test_duplicate_prediction_rows(self, tmp_path, capsys):
        truth = [("a", "x", 5)]
        preds = [("a", "x", 5), ("A", "x ", 4)]
        code, _, err = self.run_eval(capsys, tmp_path, truth, preds)
        assert code == 2
        assert err == f"error: duplicate key 'A/x' in {tmp_path / 'preds.tsv'}\n"

    def test_missing_score_column(self, tmp_path, capsys):
        truth = tmp_path / "truth.tsv"
        preds = tmp_path / "preds.tsv"
        truth.write_text("a\tx\t5\n")
        preds.write_text("a\tx\n")
        code, _, err = invoke(
            capsys, "evaluate", "--triples", str(truth), "--predictions", str(preds)
        )
        assert code == 2
        assert "no score" in err

    def test_unscored_truth_row_names_the_truth_file(self, tmp_path, capsys):
        truth = tmp_path / "truth.tsv"
        preds = tmp_path / "preds.tsv"
        truth.write_text("a\tx\t5\nb\ty\n")
        preds.write_text("a\tx\t5\nb\ty\t3\n")
        code, _, err = invoke(
            capsys, "evaluate", "--triples", str(truth), "--predictions", str(preds)
        )
        assert code == 2
        assert f"{truth}: triple b/y has no truth score" in err

    def test_delta_flag(self, tmp_path, capsys):
        truth = [("a", "x", 0), ("a", "y", 7)]
        preds = [("a", "x", 7), ("a", "y", 0)]
        code, out, _ = self.run_eval(capsys, tmp_path, truth, preds, "--delta", "7")
        assert code == 0
        report = self.json_payload(out)
        assert report["delta"] == 7
        assert report["accuracy"] == 1.0

    def test_output_file(self, tmp_path, capsys):
        rows = [("a", "x", 5), ("a", "y", 1)]
        out_path = tmp_path / "report.json"
        code, out, _ = self.run_eval(
            capsys, tmp_path, rows, rows, "--output", str(out_path)
        )
        assert code == 0
        assert json.loads(out_path.read_text())["accuracy"] == 1.0
        assert "model" in out  # table still printed


class TestCv:
    def test_repeatable_and_complete(self, micro_paths, capsys):
        args = ["cv", *input_args(micro_paths), "--folds", "3", "--seed", "11"]
        code_a, out_a, _ = invoke(capsys, *args)
        code_b, out_b, _ = invoke(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b
        payload = json.loads(out_a[out_a.index("{"):])
        assert sorted(payload) == ["first", "multinomial", "ordinal"]
        for result in payload.values():
            assert len(result["folds"]) == 3
            assert set(result["mean"]) == {
                "accuracy", "avg_score_diff", "delta", "kendall_tau",
                "n_entities", "n_triples",
            }
        header = out_a.splitlines()[0]
        assert header.split() == [
            "model", "accuracy(delta=2)", "avg_score_diff", "kendall_tau",
        ]

    def test_output_file_holds_the_json_payload(self, micro_paths, tmp_path, capsys):
        out_path = tmp_path / "cv.json"
        args = ["cv", *input_args(micro_paths), "--folds", "3", "--seed", "11"]
        code, out, _ = invoke(capsys, *args, "--output", str(out_path))
        assert code == 0
        assert out_path.read_text() == out[out.index("{"):]

    def test_seed_changes_folds(self, micro_paths, capsys):
        # seed 0 holds out cyd (3 triples), seed 6 holds out ada (4 triples)
        base = ["cv", *input_args(micro_paths), "--folds", "2"]
        _, out_a, _ = invoke(capsys, *base, "--seed", "0")
        _, out_b, _ = invoke(capsys, *base, "--seed", "6")
        payload_a = json.loads(out_a[out_a.index("{"):])
        payload_b = json.loads(out_b[out_b.index("{"):])
        sizes = lambda p: [f["n_triples"] for f in p["first"]["folds"]]
        assert sizes(payload_a) == [7, 3]
        assert sizes(payload_b) == [6, 4]

    def test_folds_floor(self, micro_paths, capsys):
        code, _, err = invoke(
            capsys, "cv", *input_args(micro_paths), "--folds", "1"
        )
        assert code == 2
        assert "folds" in err

    def test_more_folds_than_entities(self, micro_paths, capsys):
        code, _, err = invoke(
            capsys, "cv", *input_args(micro_paths), "--folds", "4"
        )
        assert code == 2
        assert "entities" in err


    def test_worker_count_equivalent(self, micro_paths, capsys):
        args = ["cv", *input_args(micro_paths), "--folds", "3", "--seed", "11"]
        _, out_one, _ = invoke(capsys, *args, "--max-workers", "1")
        _, out_two, _ = invoke(capsys, *args, "--max-workers", "2")
        assert out_one and out_one == out_two

    def test_nonpositive_workers_rejected(self, micro_paths, capsys):
        code, _, err = invoke(
            capsys, "cv", *input_args(micro_paths), "--max-workers", "0"
        )
        assert code == 2
        assert "max_workers" in err

    def test_multinomial_honours_expected_rounded(self, micro, micro_paths, capsys):
        args = ["cv", *input_args(micro_paths), "--folds", "3", "--seed", "11"]
        payloads = {}
        for rule in ("argmax", "expected-rounded"):
            code, out, _ = invoke(capsys, *args, "--prediction-rule", rule)
            assert code == 0
            payloads[rule] = json.loads(out[out.index("{"):])
        argmax, rounded = payloads["argmax"], payloads["expected-rounded"]
        assert rounded["first"] == argmax["first"]
        assert rounded["multinomial"] != argmax["multinomial"]
        _, X = extract_matrix(micro["store"], micro_plan(micro))
        library = run_cv_comparison(micro["triples"], X, micro["corpus"], folds=3, seed=11,
                                    prediction_rule="expected-rounded")
        assert rounded["multinomial"] == library["multinomial"].to_dict()

    def test_fold_plan_is_made_once_per_run(self, micro_paths, capsys, monkeypatch):
        made = []
        init = FoldPlan.__init__

        def counted(self, *args):
            made.append(args[1:])
            init(self, *args)

        monkeypatch.setattr(FoldPlan, "__init__", counted)
        code, _, _ = invoke(capsys, "cv", *input_args(micro_paths), "--folds", "3",
                            "--seed", "11", "--max-workers", "2")
        assert code == 0
        assert made == [(3, 11)]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_dirty_world_reproduces_the_committed_output(self, workers, capsys):
        # tests/data/dirty (see test_features.py) has objects outside the
        # universe, pageless persons and flagged rows; cv.txt is its `cv` stdout
        # at the default seed and folds, written before the fold plan existed.
        dirty = Path(__file__).parent / "data" / "dirty"
        args = [f"--{name}={dirty / file}" for name, file in (
            ("embeddings", "embeddings.txt"), ("corpus", "corpus.jsonl"),
            ("universe", "universe.txt"), ("triples", "triples.tsv"))]
        code, out, _ = invoke(capsys, "cv", *args, "--max-workers", workers)
        assert code == 0
        assert out == (dirty / "cv.txt").read_text()


class TestConfigPrecedence:
    def test_config_file_supplies_paths(self, micro_paths, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text(
            f"embeddings = {micro_paths['embeddings']}\n"
            f"corpus = {micro_paths['corpus']}\n"
            f"universe = {micro_paths['universe']}\n"
            f"triples = {micro_paths['triples']}\n"
        )
        code, out, _ = invoke(capsys, "extract", "--config", str(conf))
        assert code == 0
        assert out.startswith("entity\tobject\t")

    def test_flag_overrides_config_value(self, tmp_path, capsys):
        truth = tmp_path / "truth.tsv"
        truth.write_text("a\tx\t0\n")
        preds = tmp_path / "preds.tsv"
        preds.write_text("a\tx\t7\n")
        conf = tmp_path / "run.conf"
        conf.write_text(
            f"triples = {truth}\npredictions = {preds}\ndelta = 0\n"
        )
        code, out, _ = invoke(capsys, "evaluate", "--config", str(conf))
        assert code == 0
        assert json.loads(out[out.index("{"):])["accuracy"] == 0.0

        code, out, _ = invoke(
            capsys, "evaluate", "--config", str(conf), "--delta", "7"
        )
        assert code == 0
        report = json.loads(out[out.index("{"):])
        assert report["delta"] == 7
        assert report["accuracy"] == 1.0

    def test_unknown_config_key_is_exit_2(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("turbo = yes\n")
        code, _, err = invoke(capsys, "extract", "--config", str(conf))
        assert code == 2
        assert "unknown key" in err

    def test_missing_config_file(self, tmp_path, capsys):
        code, _, err = invoke(
            capsys, "extract", "--config", str(tmp_path / "ghost.conf")
        )
        assert code == 2


class TestEnumSettings:
    @pytest.mark.parametrize("command, flag", [
        ("train", "--model-type"),
        ("cv", "--prediction-rule"),
        ("cv", "--ops-denominator"),
        ("cv", "--tau-variant"),
        ("cv", "--singleton-policy"),
    ])
    def test_bad_value_fails_before_any_input_is_read(self, micro_paths, tmp_path, capsys,
                                                       command, flag):
        args = input_args(micro_paths)
        args[args.index("--embeddings") + 1] = str(tmp_path / "absent.txt")
        code, out, err = invoke(capsys, command, *args, flag, "z")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag} must be one of ")
        assert err.endswith(", got 'z'\n")


class TestSettingChecks:
    @pytest.mark.parametrize("entry", ["flag", "config file"])
    @pytest.mark.parametrize("name, value, message", [
        ("delta", "-1", "delta must be >= 0"),
        ("folds", "1", "folds must be >= 2"),
        ("max_iters", "0", "max_iters must be >= 1"),
        ("reg_lambda", "-0.5", "reg_lambda must be >= 0"),
        ("reg_lambda", "nan", "reg_lambda must be >= 0"),
        ("tol", "0", "tol must be > 0"),
        ("tol", "nan", "tol must be > 0"),
        ("reg_lambda", "inf", "reg_lambda must be finite"),
        ("tol", "inf", "tol must be finite"),
        ("max_workers", "0", "max_workers must be >= 1"),
        ("model_type", "z", "--model-type must be one of ordinal, multinomial, got 'z'"),
        ("prediction_rule", "z",
         "--prediction-rule must be one of argmax, expected-rounded, got 'z'"),
        ("ops_denominator", "z", "--ops-denominator must be one of embedded, all, got 'z'"),
        ("tau_variant", "z", "--tau-variant must be one of b, a, got 'z'"),
        ("singleton_policy", "z", "--singleton-policy must be one of one, skip, got 'z'"),
    ])
    def test_bad_value_fails_before_any_input_is_read(self, micro_paths, tmp_path, capsys,
                                                       entry, name, value, message):
        args = input_args(micro_paths)
        args[args.index("--embeddings") + 1] = str(tmp_path / "absent.txt")
        if entry == "flag":
            args += ["--" + name.replace("_", "-"), value]
        else:
            conf = tmp_path / "run.conf"
            conf.write_text(f"{name} = {value}\n")
            args += ["--config", str(conf)]
        command = "train" if name == "model_type" else "cv"
        assert invoke(capsys, command, *args) == (2, "", f"error: {message}\n")
