"""Shared fixtures: a hand-built micro-world small enough to verify by hand,
and the committed planted-signal world.

The micro-world has three people, a four-object universe, two-dimensional
embeddings, and short page texts. Every feature value the suite asserts
against was computed by hand from these numbers. The planted world's origin
is described in `test_planted_world.py`.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from triplescore import (
    EmbeddingStore,
    KeyPlan,
    Relation,
    extract_matrix,
    load_corpus,
    load_embeddings,
    load_triples,
    load_universe,
)
from triplescore import baselines, ordinal
from triplescore.model import NUM_CLASSES

PLANTED = Path(__file__).parent / "data" / "planted"
DIRTY = Path(__file__).parent / "data" / "dirty"

EMBEDDINGS_TEXT = """9 2
ada 1 0
ben 0 1
cyd 0.6 0.8
coder 1 0
poet 0 1
pilot 0.8 0.6
math 0.6 0.8
verse -0.6 0.8
wing 1 1
"""

CORPUS_RECORDS = [
    {
        "person": "ada",
        "entities": ["math", "wing", "ghost"],
        "abstract": "Ada was a coder and poet.",
        "page": "Ada was a coder and poet. She loved math.",
    },
    {
        "person": "ben",
        "entities": ["verse"],
        "abstract": "Ben wrote verse as a poet.",
        "page": "Ben wrote verse as a poet. A pilot too.",
    },
    {
        "person": "cyd",
        "entities": [],
        "abstract": "",
        "page": "Cyd.",
    },
]

UNIVERSE_TEXT = "# relation: profession\ncoder\npoet\npilot\nsailor\n"

TRAIN_ROWS = [
    ("ada", "coder", 7),
    ("ada", "poet", 5),
    ("ada", "pilot", 2),
    ("ada", "sailor", 0),
    ("ben", "poet", 7),
    ("ben", "pilot", 4),
    ("ben", "coder", 1),
    ("cyd", "coder", 3),
    ("cyd", "poet", 6),
    ("cyd", "sailor", 0),
]


def store_from(dim: int, vectors: dict) -> EmbeddingStore:
    """A store of the normalized-key -> dim-vector pairs in `vectors`."""
    matrix = np.array(list(vectors.values()), dtype=float).reshape(len(vectors), dim)
    return EmbeddingStore(list(vectors), matrix)


def micro_plan(micro, triples=None) -> KeyPlan:
    """`KeyPlan.of_run` of the micro-world, over its triples or the ones given."""
    return KeyPlan.of_run(micro["corpus"], micro["universe"],
                          micro["triples"] if triples is None else triples)


def objective_at(module, params, X, y, reg_lambda):
    """`module.newton_objective` at params, as (value, grad, hessian).

    module is `ordinal` or `baselines`; the class count K is the one the
    size of params gives: p weights then K - 1 cuts for the ordinal model,
    K x p weights then K biases for the multinomial one.
    """
    X = np.asarray(X, dtype=float)
    p = X.shape[1]
    k = params.size - p + 1 if module is ordinal else params.size // (p + 1)
    return module.newton_objective(X, np.asarray(y, dtype=int), reg_lambda, k)(params)


def drawn_problem(seed, n, p, n_classes, weight_scale):
    """Rows with a noisy ordinal signal, binned into n_classes of the 8 classes.

    The bins have equal counts, so every chosen class occurs; the classes
    left out exercise the fits' unbounded directions.
    """
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    latent = X @ rng.normal(scale=weight_scale, size=p) + rng.logistic(size=n)
    classes = np.sort(rng.choice(NUM_CLASSES, size=n_classes, replace=False))
    ranks = np.argsort(np.argsort(latent))
    return X, classes[ranks * n_classes // n]


@pytest.fixture(scope="session")
def micro_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("micro")
    paths = {
        "embeddings": root / "embeddings.txt",
        "corpus": root / "corpus.jsonl",
        "universe": root / "universe.txt",
        "triples": root / "train.tsv",
        "root": root,
    }
    paths["embeddings"].write_text(EMBEDDINGS_TEXT)
    paths["corpus"].write_text(
        "\n".join(json.dumps(r) for r in CORPUS_RECORDS) + "\n"
    )
    paths["universe"].write_text(UNIVERSE_TEXT)
    paths["triples"].write_text(
        "".join(f"{e}\t{o}\t{t}\n" for e, o, t in TRAIN_ROWS)
    )
    return paths


@pytest.fixture(scope="session")
def micro(micro_paths):
    return {
        "store": load_embeddings(micro_paths["embeddings"]),
        "corpus": load_corpus(micro_paths["corpus"]),
        "universe": load_universe(micro_paths["universe"], Relation.PROFESSION),
        "triples": load_triples(micro_paths["triples"], Relation.PROFESSION),
        "paths": micro_paths,
    }


def world_features(world: Path):
    """(triples, raw feature matrix, corpus) of a committed world."""
    triples = load_triples(world / "triples.tsv", Relation.PROFESSION)
    corpus = load_corpus(world / "corpus.jsonl")
    universe = load_universe(world / "universe.txt", Relation.PROFESSION)
    _, X = extract_matrix(load_embeddings(world / "embeddings.txt"),
                          KeyPlan.of_run(corpus, universe, triples))
    return triples, X, corpus


@pytest.fixture(scope="session")
def planted():
    """(triples, raw feature matrix, corpus) of the planted world."""
    return world_features(PLANTED)


@pytest.fixture(scope="session")
def dirty():
    """(triples, raw feature matrix, corpus) of the dirty world (see test_features.py)."""
    return world_features(DIRTY)
