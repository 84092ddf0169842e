"""Command-line pipeline: extract, train, predict, evaluate, cv.

Every command is a thin wrapper over library calls, reads an optional
`key = value` config file, and lets flags override file values. Exit
codes: 0 success, 2 input or format error, 3 numerical fit failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import __version__
from .artifact import ARTIFACT_VERSION, load_model, save_model
from .config import (
    DEFAULT_RELATION,
    SETTINGS,
    RunConfig,
    apply_overrides,
    flag,
    parse_config_file,
    validate,
)
from .corpus import load_corpus
from .embeddings import load_embeddings
from .errors import (
    ArtifactError,
    FitError,
    InputFormatError,
    RelationMismatchError,
)
from .evaluation import evaluate, format_comparison_table, truth_labels
from .features import (
    FEATURE_NAMES,
    KeyPlan,
    Relation,
    load_triples,
    load_universe,
    matrix_to_tsv,
    missing_summary,
)
from .model import FitConfig
from .pipeline import (
    CV_MODEL_TYPES,
    extract_matrix,
    predict_scores,
    run_cv_comparison,
    train_model,
)

_EXTRACT_INPUTS = ("embeddings", "corpus", "universe", "triples")


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
                f"missing required input: pass {flag(name)} or set config key {name!r}"
            )
        if not Path(value).is_file():
            raise InputFormatError(f"{name} file not found: {value}")


def _require_output(config: RunConfig, name: str) -> None:
    if getattr(config, name) is None:
        raise InputFormatError(
            f"missing required output path: pass {flag(name)} or set config key {name!r}"
        )


def _emit(text: str, path: str | None) -> None:
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load_and_extract(config: RunConfig, relation: Relation, scored: bool = False):
    """Load the four extract inputs; return the corpus, triples, feature vectors and matrix.

    Only the vectors extract can reach are parsed, and the key plan that
    lists them is the one extract reads. With `scored`, a triple without a
    truth score is refused, naming the triples file, before the embeddings
    are read. An embeddings file that holds none of the plan's keys is
    refused too, naming that file: every row would be flagged, with 0.0
    for both similarity features.
    """
    corpus = load_corpus(config.corpus)
    universe = load_universe(config.universe, relation)
    triples = load_triples(config.triples, relation)
    if scored:
        try:
            truth_labels(triples)
        except InputFormatError as exc:
            raise InputFormatError(f"{config.triples}: {exc}") from None
    plan = KeyPlan.of_run(corpus, universe, triples)
    store = load_embeddings(config.embeddings, plan.rows)
    if not len(store):
        raise InputFormatError(f"{config.embeddings}: holds none of the "
                               f"{len(plan.rows)} keys the run reads")
    vectors, X = extract_matrix(store, plan, ops_denominator=config.ops_denominator)
    return corpus, triples, vectors, X


def _fit_config(config: RunConfig) -> FitConfig:
    return FitConfig(**{name: getattr(config, name) for name in _FIT})


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
    _, triples, vectors, X = _load_and_extract(config, relation, scored=True)
    model = train_model(
        triples, X, model_type=config.model_type,
        fit_config=_fit_config(config), relation=relation,
    )
    save_model(model, config.model)
    print(model.summary())
    print(f"model written to {config.model}")
    print(missing_summary(vectors), file=sys.stderr)
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
    _, triples, vectors, X = _load_and_extract(config, relation)
    try:
        scores = predict_scores(model, X, config.prediction_rule)
    except ArtifactError as exc:
        raise ArtifactError(f"{config.model}: {exc}") from None
    text = "".join(f"{t.entity}\t{t.object}\t{s}\n" for t, s in zip(triples, scores))
    _emit(text, config.output)
    print(missing_summary(vectors), file=sys.stderr)
    return 0


def _keyed_by_pair(triples):
    """Triples by normalized (entity, object) pair; `load_triples` rejects a repeat."""
    return {(t.entity_key, t.object_key): t for t in triples}


def cmd_evaluate(config: RunConfig) -> int:
    _require_inputs(config, ("predictions", "triples"))
    relation = _resolve_relation(config)
    truth_triples = load_triples(config.triples, relation)
    pred_triples = load_triples(config.predictions, relation)
    truth_map = _keyed_by_pair(truth_triples)
    pred_map = _keyed_by_pair(pred_triples)

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
    corpus, triples, vectors, X = _load_and_extract(config, relation, scored=True)
    results = run_cv_comparison(
        triples, X, corpus,
        fit_config=_fit_config(config), folds=config.folds, seed=config.seed,
        delta=config.delta, tau_variant=config.tau_variant,
        singleton_policy=config.singleton_policy,
        prediction_rule=config.prediction_rule,
    )
    print(format_comparison_table(
        [(name, results[name].mean) for name in CV_MODEL_TYPES]
    ))
    payload = {name: results[name].to_dict() for name in CV_MODEL_TYPES}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if config.output:
        Path(config.output).write_text(text, encoding="utf-8")
    print(missing_summary(vectors), file=sys.stderr)
    return 0


_FIT = tuple(f.name for f in dataclasses.fields(FitConfig))
_EVAL = ("delta", "tau_variant", "singleton_policy")

# subcommand: (function, help, the settings it takes as flags, in --help order)
_COMMANDS = {
    "extract": (cmd_extract, "write the feature matrix as TSV",
                (*_EXTRACT_INPUTS, "relation", "output", "ops_denominator")),
    "train": (cmd_train, "fit a model and save its artifact",
              (*_EXTRACT_INPUTS, "relation", "model", "model_type", *_FIT, "ops_denominator")),
    "predict": (cmd_predict, "score triples with a saved model",
                (*_EXTRACT_INPUTS, "relation", "model", "output", "prediction_rule",
                 "ops_denominator")),
    "evaluate": (cmd_evaluate, "compare a prediction file to a truth file",
                 ("predictions", "triples", "relation", "output", *_EVAL)),
    "cv": (cmd_cv, "cross-validate every model type on one dataset",
           (*_EXTRACT_INPUTS, "relation", "output", "prediction_rule", "folds", "seed",
            *_EVAL, *_FIT, "ops_denominator", "max_workers")),
}


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
    for command, (func, help_text, names) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="key = value config file; flags override")
        for name in names:
            meta = SETTINGS[name].metadata
            p.add_argument(flag(name), dest=name, type=meta["type"], default=None,
                           help=meta["help"])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = parse_config_file(args.config) if args.config else RunConfig()
        config = apply_overrides(config, vars(args))
        validate(config)
        return args.func(config)
    except FitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InputFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
