"""Command-line pipeline: extract, train, predict, evaluate, cv.

Every command is a thin wrapper over library calls, reads an optional
`key = value` config file, and lets flags override file values. Exit
codes: 0 success, 2 input or format error, 3 numerical fit failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .artifact import ARTIFACT_VERSION, load_model, save_model
from .config import DEFAULT_RELATION, RunConfig, apply_overrides, parse_config_file
from .corpus import load_corpus
from .embeddings import load_embeddings
from .errors import (
    ArtifactError,
    DuplicateKeyError,
    FitError,
    InputFormatError,
    RelationMismatchError,
)
from .evaluation import (
    SINGLETON_ONE,
    SINGLETON_SKIP,
    TAU_A,
    TAU_B,
    evaluate,
    format_comparison_table,
)
from .features import (
    FEATURE_NAMES,
    OPS_DENOM_ALL,
    OPS_DENOM_EMBEDDED,
    KeyPlan,
    Relation,
    load_triples,
    load_universe,
    matrix_to_tsv,
    missing_summary,
)
from .model import ARGMAX, EXPECTED_ROUNDED, FitConfig
from .pipeline import (
    CV_MODEL_TYPES,
    MODEL_MULTINOMIAL,
    MODEL_ORDINAL,
    extract_matrix,
    predict_scores,
    run_cv_comparison,
    train_model,
)

_EXTRACT_INPUTS = ("embeddings", "corpus", "universe", "triples")

# the values each enumerated setting takes
_CHOICES = {
    "model_type": (MODEL_ORDINAL, MODEL_MULTINOMIAL),
    "prediction_rule": (ARGMAX, EXPECTED_ROUNDED),
    "ops_denominator": (OPS_DENOM_EMBEDDED, OPS_DENOM_ALL),
    "tau_variant": (TAU_B, TAU_A),
    "singleton_policy": (SINGLETON_ONE, SINGLETON_SKIP),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _resolve_relation(config: RunConfig, fallback: Relation | None = None) -> Relation:
    if config.relation is not None:
        return Relation.parse(config.relation)
    if fallback is not None:
        return fallback
    return Relation.parse(DEFAULT_RELATION)


def _require_inputs(config: RunConfig, names) -> None:
    """Fail fast, before any compute, if an input is unset or absent."""
    for name in names:
        value = getattr(config, name)
        if value is None:
            raise InputFormatError(
                f"missing required input: pass {_flag(name)} or set config key {name!r}"
            )
        if not Path(value).is_file():
            raise InputFormatError(f"{name} file not found: {value}")


def _require_output(config: RunConfig, name: str) -> None:
    if getattr(config, name) is None:
        raise InputFormatError(
            f"missing required output path: pass {_flag(name)} or set config key {name!r}"
        )


def _validate_params(config: RunConfig) -> None:
    checks = (
        (config.delta >= 0, "delta must be >= 0"),
        (config.folds >= 2, "folds must be >= 2"),
        (config.max_iters >= 1, "max_iters must be >= 1"),
        (config.reg_lambda >= 0, "reg_lambda must be >= 0"),
        (config.tol > 0, "tol must be > 0"),
        (config.max_workers >= 1, "max_workers must be >= 1"),
    )
    for ok, message in checks:
        if not ok:
            raise InputFormatError(message)
    for name, choices in _CHOICES.items():
        value = getattr(config, name)
        if value not in choices:
            raise InputFormatError(
                f"{_flag(name)} must be one of {', '.join(choices)}, got {value!r}")


def _emit(text: str, path: str | None) -> None:
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load_and_extract(config: RunConfig, relation: Relation):
    """Load the four extract inputs; return the corpus, triples, feature vectors and matrix.

    Only the vectors extract can reach are parsed, and the key plan that
    lists them is the one extract reads.
    """
    corpus = load_corpus(config.corpus)
    universe = load_universe(config.universe, relation)
    triples = load_triples(config.triples, relation)
    plan = KeyPlan.of_run(corpus, universe, triples)
    store = load_embeddings(config.embeddings, plan.rows)
    vectors, X = extract_matrix(store, corpus, universe, triples,
                                ops_denominator=config.ops_denominator, plan=plan)
    return corpus, triples, vectors, X


def _fit_config(config: RunConfig) -> FitConfig:
    return FitConfig(
        reg_lambda=config.reg_lambda, max_iters=config.max_iters, tol=config.tol
    )


def cmd_extract(config: RunConfig) -> int:
    _require_inputs(config, _EXTRACT_INPUTS)
    relation = _resolve_relation(config)
    _, triples, vectors, _ = _load_and_extract(config, relation)
    _emit(matrix_to_tsv(triples, vectors), config.output)
    print(missing_summary(vectors), file=sys.stderr)
    return 0


def cmd_train(config: RunConfig) -> int:
    _require_inputs(config, _EXTRACT_INPUTS)
    _require_output(config, "model")
    relation = _resolve_relation(config)
    _, triples, _, X = _load_and_extract(config, relation)
    model = train_model(
        triples, X, model_type=config.model_type,
        fit_config=_fit_config(config), relation=relation,
    )
    save_model(model, config.model)
    print(model.summary())
    print(f"model written to {config.model}")
    return 0


def cmd_predict(config: RunConfig) -> int:
    _require_inputs(config, _EXTRACT_INPUTS + ("model",))
    model = load_model(config.model)
    if config.relation is not None and model.relation is not None:
        requested = Relation.parse(config.relation)
        if requested != model.relation:
            raise RelationMismatchError(
                f"model artifact was trained for relation '{model.relation}' "
                f"but '{requested}' was requested"
            )
    if tuple(model.feature_names) != FEATURE_NAMES:
        raise ArtifactError(
            f"{config.model}: model artifact has feature_names "
            f"{list(model.feature_names)}, expected {list(FEATURE_NAMES)}"
        )
    relation = _resolve_relation(config, fallback=model.relation)
    _, triples, _, X = _load_and_extract(config, relation)
    scores = predict_scores(model, X, config.prediction_rule)
    text = "".join(f"{t.entity}\t{t.object}\t{s}\n" for t, s in zip(triples, scores))
    _emit(text, config.output)
    return 0


def _keyed_by_pair(triples, path):
    out = {}
    for t in triples:
        key = (t.entity_key, t.object_key)
        if key in out:
            raise DuplicateKeyError(f"{t.entity}/{t.object}", path)
        out[key] = t
    return out


def cmd_evaluate(config: RunConfig) -> int:
    _require_inputs(config, ("predictions", "triples"))
    relation = _resolve_relation(config)
    truth_triples = load_triples(config.triples, relation)
    pred_triples = load_triples(config.predictions, relation)
    truth_map = _keyed_by_pair(truth_triples, config.triples)
    pred_map = _keyed_by_pair(pred_triples, config.predictions)

    missing = [k for k in truth_map if k not in pred_map]
    extra = [k for k in pred_map if k not in truth_map]
    if missing or extra:
        detail = []
        if missing:
            detail.append(f"{len(missing)} truth triples missing from predictions "
                          f"(first: {missing[0][0]}/{missing[0][1]})")
        if extra:
            detail.append(f"{len(extra)} predicted triples not in the truth file "
                          f"(first: {extra[0][0]}/{extra[0][1]})")
        raise InputFormatError("prediction and truth triple sets differ: " + "; ".join(detail))

    predicted = []
    for t in truth_triples:
        scored = pred_map[(t.entity_key, t.object_key)]
        if scored.truth is None:
            raise InputFormatError(
                f"{config.predictions}: triple {scored.entity}/{scored.object} has no score"
            )
        predicted.append(scored.truth)

    try:
        report = evaluate(truth_triples, predicted, config.delta, config.tau_variant,
                          config.singleton_policy)
    except InputFormatError as exc:  # no truth rows, or one without a score
        raise InputFormatError(f"{config.triples}: {exc}") from None
    print(format_comparison_table([("predictions", report)]))
    text = report.to_json() + "\n"
    sys.stdout.write(text)
    if config.output:
        Path(config.output).write_text(text, encoding="utf-8")
    return 0


def cmd_cv(config: RunConfig) -> int:
    _require_inputs(config, _EXTRACT_INPUTS)
    relation = _resolve_relation(config)
    corpus, triples, _, X = _load_and_extract(config, relation)
    results = run_cv_comparison(
        triples, X, corpus,
        fit_config=_fit_config(config), folds=config.folds, seed=config.seed,
        delta=config.delta, tau_variant=config.tau_variant,
        singleton_policy=config.singleton_policy,
        prediction_rule=config.prediction_rule, max_workers=config.max_workers,
    )
    print(format_comparison_table(
        [(name, results[name].mean) for name in CV_MODEL_TYPES]
    ))
    payload = {name: results[name].to_dict() for name in CV_MODEL_TYPES}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if config.output:
        Path(config.output).write_text(text, encoding="utf-8")
    return 0


def _add_flags(parser, *names) -> None:
    specs = {
        "embeddings": ("path to the embedding vectors file", str),
        "corpus": ("path to the page corpus (JSON lines)", str),
        "universe": ("path to the object universe file", str),
        "triples": ("path to the triple TSV (truth column where applicable)", str),
        "predictions": ("path to a predicted-score TSV", str),
        "model": ("path of the model artifact (JSON)", str),
        "output": ("output path (default: stdout)", str),
        "relation": ("relation to score: profession or nationality", str),
        "model_type": ("model to train: ordinal or multinomial", str),
        "prediction_rule": ("argmax or expected-rounded", str),
        "reg_lambda": ("L2 penalty strength on the weights", float),
        "max_iters": ("Newton iteration cap of the fit", int),
        "tol": ("the fit stops once max |gradient| <= tol", float),
        "delta": ("accuracy tolerance on the score difference", int),
        "folds": ("cross-validation fold count", int),
        "seed": ("shuffle seed for fold assignment", int),
        "tau_variant": ("rank correlation variant: b or a", str),
        "singleton_policy": ("one-triple entity groups: one or skip", str),
        "ops_denominator": ("ops average denominator: embedded or all", str),
        "max_workers": ("worker threads for cross-validation folds", int),
    }
    for name in names:
        help_text, value_type = specs[name]
        parser.add_argument(
            _flag(name), dest=name, type=value_type,
            default=None, help=help_text,
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triplescore",
        description="Score knowledge-base triples for relevance on a 0..7 scale.",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"%(prog)s {__version__} (artifact format {ARTIFACT_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit_flags = ("model_type", "reg_lambda", "max_iters", "tol")
    eval_flags = ("delta", "tau_variant", "singleton_policy")

    p = sub.add_parser("extract", help="write the feature matrix as TSV")
    p.add_argument("--config", help="key = value config file; flags override")
    _add_flags(p, *_EXTRACT_INPUTS, "relation", "output", "ops_denominator")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="fit a model and save its artifact")
    p.add_argument("--config", help="key = value config file; flags override")
    _add_flags(p, *_EXTRACT_INPUTS, "relation", "model", *fit_flags, "ops_denominator")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="score triples with a saved model")
    p.add_argument("--config", help="key = value config file; flags override")
    _add_flags(p, *_EXTRACT_INPUTS, "relation", "model", "output",
               "prediction_rule", "ops_denominator")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="compare a prediction file to a truth file")
    p.add_argument("--config", help="key = value config file; flags override")
    _add_flags(p, "predictions", "triples", "relation", "output", *eval_flags)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("cv", help="cross-validate every model type on one dataset")
    p.add_argument("--config", help="key = value config file; flags override")
    _add_flags(p, *_EXTRACT_INPUTS, "relation", "output", "prediction_rule",
               "folds", "seed", *eval_flags, "reg_lambda", "max_iters", "tol",
               "ops_denominator", "max_workers")
    p.set_defaults(func=cmd_cv)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = parse_config_file(args.config) if args.config else RunConfig()
        overrides = {
            k: v for k, v in vars(args).items()
            if k not in ("command", "func", "config")
        }
        config = apply_overrides(config, overrides)
        _validate_params(config)
        return args.func(config)
    except FitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InputFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
