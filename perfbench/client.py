"""One closed-loop client run of the triplescore CLI.

    python3 perfbench/client.py SPEC.json

SPEC.json holds the CLI arguments (argv), whether to trace, and where to
write the run's record. The run imports triplescore.cli and calls
cli.main(argv), so what it times and what it writes are the CLI's own.
Spans are put from outside on the names cli.py imports (the loaders,
extract, train, save, predict, cv); a traced run adds spans around the
pipeline's calls into the model layers, per-layer counts and the
feature-family probes. Stage times and peak RSS go to SPEC["record"].
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

from spans import Tracer

LOAD_STAGES = ("cli.load_artifact", "cli.load_embeddings", "cli.load_corpus",
               "cli.load_inputs")

# name cli.py imports -> stage span around every call of it
CLI_STAGES = {
    "load_model": "cli.load_artifact",
    "load_embeddings": "cli.load_embeddings",
    "load_corpus": "cli.load_corpus",
    "load_universe": "cli.load_inputs",
    "load_triples": "cli.load_inputs",
    "extract_matrix": "cli.extract",
    "predict_scores": "cli.predict",
    "train_model": "cli.train",
    "save_model": "cli.save",
    "run_cv_comparison": "cli.cv",
}
STAGE_NAMES = set(CLI_STAGES.values())


def instrument(tracer: Tracer, cli, pipeline, features, evaluation, OrdinalModel,
               fold_busy: list) -> None:
    """Span the public calls the pipeline makes into the model layers."""
    def model_layer(args, kwargs):
        return "ordinal.predict" if isinstance(args[0], OrdinalModel) \
            else "baselines.multinomial_predict"

    def count_rows(args, kwargs, result):
        tracer.count(model_layer(args, kwargs) + "_rows", len(result))

    tracer.wrap(pipeline, "fit_ordinal", lambda a, k: "ordinal.fit")
    tracer.wrap(pipeline, "fit_multinomial", lambda a, k: "baselines.multinomial_fit")
    # cli.py holds its own reference to predict_scores, for the predict command
    for module in (pipeline, cli):
        tracer.wrap(module, "predict_scores", model_layer, count_rows)
    tracer.wrap(pipeline, "first_baseline_predictions",
                lambda a, k: "baselines.first_mention")
    tracer.wrap(pipeline, "fit_standardizer", lambda a, k: "features.standardize")
    tracer.wrap(features.Standardizer, "apply", lambda a, k: "features.standardize")
    tracer.wrap(evaluation, "evaluate", lambda a, k: "evaluation.evaluate")

    # Per-model CV spans: wrap the Trainer callable cross_validate accepts,
    # and the cross_validate call itself, whose span the fold threads adopt.
    make_trainer, cross_validate = pipeline.make_trainer, pipeline.cross_validate

    def traced_make_trainer(model_type, **kwargs):
        trainer = make_trainer(model_type, **kwargs)

        def timed_trainer(train_triples, X_train, y_train):
            start = time.perf_counter()
            with tracer.span("evaluation.fold_train"):
                predict = trainer(train_triples, X_train, y_train)
            trained = time.perf_counter() - start

            def timed_predict(test_triples, X_test):
                start = time.perf_counter()
                with tracer.span("evaluation.fold_predict"):
                    result = predict(test_triples, X_test)
                fold_busy.append(trained + time.perf_counter() - start)
                return result
            return timed_predict

        timed_trainer.model_type = model_type
        return timed_trainer

    def traced_cross_validate(triples, X, trainer, **kwargs):
        with tracer.span(f"evaluation.cv_{trainer.model_type}", adopt=True):
            return cross_validate(triples, X, trainer, **kwargs)

    pipeline.make_trainer = traced_make_trainer
    pipeline.cross_validate = traced_cross_validate


def keep_fold_models(pipeline, OrdinalModel, fits: list) -> None:
    """Record every model cross-validation fits, with the entities it was fit on."""
    train_model = pipeline.train_model

    def recording_train_model(triples, X, **kwargs):
        model = train_model(triples, X, **kwargs)
        std = model.standardizer
        params = ({"w": model.w.tolist(), "theta": model.theta.tolist()}
                  if isinstance(model, OrdinalModel)
                  else {"W": model.W.tolist(), "b": model.b.tolist()})
        fits.append({"model_type": kwargs.get("model_type"),
                     "entities": sorted({t.entity_key for t in triples}),
                     "means": list(std.means), "stddevs": list(std.stddevs),
                     "reg_lambda": model.fit_config.reg_lambda, **params})
        return model

    pipeline.train_model = recording_train_model


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    traced = spec["trace"]
    tracer = Tracer(spec["run_id"])
    with tracer.span("cli.import"):
        from triplescore import cli
    from triplescore import evaluation, features, pipeline
    from triplescore.ordinal import OrdinalModel

    fold_busy: list[float] = []
    fold_fits: list[dict] = []
    seen: dict = {}
    if traced:
        instrument(tracer, cli, pipeline, features, evaluation, OrdinalModel, fold_busy)
    if spec.get("dump"):
        keep_fold_models(pipeline, OrdinalModel, fold_fits)
    for attr, stage in CLI_STAGES.items():
        tracer.wrap(cli, attr, lambda a, k, stage=stage: stage,
                    lambda a, k, r, attr=attr: seen.__setitem__(attr, r))

    with tracer.span("cli.main"):
        code = cli.main(spec["argv"])
    sys.stdout.flush()
    if code != 0:
        return code

    stages: dict[str, float] = {}
    for s in tracer.spans:
        if s["parent"] is None or s["name"] in STAGE_NAMES:
            stages[s["name"]] = stages.get(s["name"], 0.0) + s["end"] - s["start"]
    store, corpus = seen["load_embeddings"], seen["load_corpus"]
    universe, triples = seen["load_universe"], seen["load_triples"]
    vectors, X = seen["extract_matrix"]
    record = {
        "stages": stages,
        "rows": len(triples),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if traced:
        with tracer.span("probe"):
            probe_layers(tracer, store, corpus, universe, triples,
                         cli.RunConfig().ops_denominator)
        record["counts"] = layer_counts(tracer, spec, store, corpus, universe, triples,
                                        vectors, fold_busy)
        record["spans"] = tracer.spans
        record["probe_s"] = tracer.total("probe")
    if spec.get("dump"):
        import numpy as np
        np.save(spec["dump"] + ".npy", X)
        Path(spec["dump"] + ".flags.json").write_text(
            json.dumps([sorted(v.missing) for v in vectors]))
        Path(spec["dump"] + ".folds.json").write_text(json.dumps(fold_fits))
    Path(spec["record"]).write_text(json.dumps(record))
    return 0


def probe_layers(tracer, store, corpus, universe, triples, denominator) -> None:
    """Time each feature family by calling its public function on the same triples."""
    from triplescore import features

    entities = list(dict.fromkeys(t.entity_key for t in triples))
    members = set(universe.objects)
    with tracer.span("features.sim"):
        for t in triples:
            features.object_entity_similarity(store, t.entity_key, t.object_key)
    with tracer.span("features.ops_rank"):
        for e in entities:
            features.ops_rank(store, corpus, e, universe, denominator)
    with tracer.span("features.mention"):
        for t in triples:
            features.object_mention_feature(corpus, t.entity_key, t.object_key)
    with tracer.span("features.ops_oou"):
        for t in triples:
            if t.object_key not in members:
                features.ops(store, corpus, t.entity_key, t.object_key, denominator)


def layer_counts(tracer, spec, store, corpus, universe, triples, vectors,
                 fold_busy) -> dict:
    """Counts measured at the layer boundaries, from the layers' own inputs and outputs."""
    members = set(universe.objects)
    oou_by_entity: dict[str, int] = {}
    for t in triples:
        oou_by_entity.setdefault(t.entity_key, 0)
        if t.object_key not in members:
            oou_by_entity[t.entity_key] += 1
    cosine_terms = 0
    for entity, n_oou in oou_by_entity.items():
        record = corpus.get(entity)
        if record is not None:
            embedded = sum(1 for e in record.linked_entities
                           if (v := store.lookup(e)) is not None and v.any())
            cosine_terms += (len(members) + n_oou) * embedded
    rows = len(triples)
    model_path = spec.get("model")
    cv_total = sum(tracer.total(f"evaluation.cv_{m}")
                   for m in ("first", "multinomial", "ordinal"))
    predicted = tracer.counts["ordinal.predict_rows"]
    return {
        "embeddings.vectors": len(store),
        "embeddings.file_mb": os.path.getsize(spec["embeddings"]) / 1e6,
        "corpus.linked_entities": sum(len(r.linked_entities) for r in corpus.records.values()),
        "features.rows": rows,
        "features.entities": len(oou_by_entity),
        "features.cosine_terms": cosine_terms,
        "features.oou_share": sum(oou_by_entity.values()) / rows,
        "features.flagged_share": sum(1 for v in vectors if v.missing) / rows,
        "ordinal.fits": tracer.calls("ordinal.fit"),
        "ordinal.predict_us_per_row":
            tracer.total("ordinal.predict") / predicted * 1e6 if predicted else 0.0,
        "evaluation.fold_max_s": max(fold_busy, default=0.0),
        "evaluation.fold_overlap": sum(fold_busy) / cv_total if cv_total else 0.0,
        "artifact.bytes": os.path.getsize(model_path) if model_path else 0,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
