"""Reordering or respelling the planted world's inputs changes no feature bit.

The loader writes each kept vector at its key's row of the run's key
plan, not at its line in the file, every name is normalized where it
enters, and `extract` and `predict` keep the input order of the triples.
So, on the planted world:

- shuffling the embedding vector lines after the header leaves the
  `extract` TSV byte-identical;
- so does appending vectors that no triple can reach, with the header's
  count raised to match;
- so does shuffling the universe lines or the corpus lines;
- case and whitespace variants of every name (triple entities and
  objects, universe objects, corpus persons and linked entities, and the
  case of every embedding key) leave every feature column byte-identical;
- permuting the triples permutes the `extract` TSV rows and the `predict`
  rows the same way, bit for bit.
"""

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triplescore.cli import main

PLANTED = Path(__file__).parent / "data" / "planted"
NAMES = {"embeddings": "embeddings.txt", "corpus": "corpus.jsonl", "universe": "universe.txt",
         "triples": "triples.tsv"}
HEADER, *VECTOR_LINES = (PLANTED / "embeddings.txt").read_text().splitlines(keepends=True)
TRIPLE_LINES = (PLANTED / "triples.tsv").read_text().splitlines(keepends=True)
UNIVERSE_LINES = (PLANTED / "universe.txt").read_text().splitlines(keepends=True)
CORPUS_LINES = (PLANTED / "corpus.jsonl").read_text().splitlines(keepends=True)
TABLE = (PLANTED / "features.tsv").read_text()
DIM = int(HEADER.split()[1])


def run(command: str, *args: str, **texts: str) -> str:
    """`triplescore <command>` on the planted world with the given file texts
    in place of the committed files; returns what it writes to --output."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: PLANTED / file for name, file in NAMES.items()}
        for name, text in texts.items():
            paths[name] = Path(tmp) / NAMES[name]
            paths[name].write_text(text)
        out = Path(tmp) / "out.tsv"
        with contextlib.redirect_stderr(io.StringIO()):
            code = main([command, *(f"--{key}={path}" for key, path in paths.items()), *args,
                         f"--output={out}"])
        assert code == 0
        return out.read_text()


def extract_tsv(**texts: str) -> str:
    return run("extract", **texts)


def test_the_committed_table_is_the_baseline():
    assert extract_tsv() == TABLE


@settings(max_examples=25, deadline=None)
@given(st.permutations(VECTOR_LINES))
def test_shuffled_vector_lines_change_no_byte(lines):
    assert extract_tsv(embeddings=HEADER + "".join(lines)) == TABLE


# a component of each kind: zero, ordinary, one whose square overflows, subnormal
COMPONENT = st.sampled_from(["0", "-0.5", "0.25", "3", "1e200", "5e-324"])


@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(COMPONENT, min_size=DIM, max_size=DIM), min_size=1, max_size=6),
       st.data())
def test_unreachable_vectors_change_no_byte(extra, data):
    # no triple, universe object or page links a key named "unreachable_<i>"
    lines = list(VECTOR_LINES)
    for i, values in enumerate(extra):
        at = data.draw(st.integers(0, len(lines)))
        lines.insert(at, " ".join([f"unreachable_{i}", *values]) + "\n")
    header = f"{len(lines)} {DIM}\n"
    assert extract_tsv(embeddings=header + "".join(lines)) == TABLE


@settings(max_examples=25, deadline=None)
@given(st.permutations(range(len(TRIPLE_LINES))))
def test_permuted_triples_permute_the_rows(order):
    head, *rows = TABLE.splitlines(keepends=True)
    got = extract_tsv(triples="".join(TRIPLE_LINES[i] for i in order))
    assert got == head + "".join(rows[i] for i in order)


@settings(max_examples=10, deadline=None)
@given(st.permutations(UNIVERSE_LINES))
def test_shuffled_universe_lines_change_no_byte(lines):
    assert extract_tsv(universe="".join(lines)) == TABLE


@settings(max_examples=10, deadline=None)
@given(st.permutations(CORPUS_LINES))
def test_shuffled_corpus_lines_change_no_byte(lines):
    assert extract_tsv(corpus="".join(lines)) == TABLE


def respell(name: str, rng: random.Random) -> str:
    """name with each letter's case drawn, each gap between its words widened
    (runs of spaces, U+00A0 or U+2003) and its ends padded."""
    words = ["".join(rng.choice((c.lower(), c.upper())) for c in word) for word in name.split()]
    gaps = [rng.choice([" ", "  ", "   ", "\u00a0", "\u2003"]) for _ in words[1:]]
    pad = [rng.choice(["", " ", "  "]) for _ in range(2)]
    return pad[0] + words[0] + "".join(g + w for g, w in zip(gaps, words[1:])) + pad[1]


def respelled_inputs(rng: random.Random) -> dict[str, str]:
    """The planted inputs with every name respelled; an embedding key, one
    token, only has its case drawn."""
    triples = []
    for line in TRIPLE_LINES:
        entity, obj, *rest = line.rstrip("\n").split("\t")
        triples.append("\t".join([respell(entity, rng), respell(obj, rng), *rest]) + "\n")
    universe = [line if line.startswith("#") else respell(line.strip(), rng) + "\n"
                for line in UNIVERSE_LINES]
    corpus = []
    for line in CORPUS_LINES:
        record = json.loads(line)
        record["person"] = respell(record["person"], rng)
        record["entities"] = [respell(name, rng) for name in record["entities"]]
        corpus.append(json.dumps(record) + "\n")
    vectors = []
    for line in VECTOR_LINES:
        key, values = line.split(" ", 1)
        vectors.append("".join(rng.choice((c.lower(), c.upper())) for c in key) + " " + values)
    return {"triples": "".join(triples), "universe": "".join(universe),
            "corpus": "".join(corpus), "embeddings": HEADER + "".join(vectors)}


def feature_columns(table: str) -> list[list[str]]:
    """Each TSV line without its entity and object columns, which echo the input."""
    return [line.split("\t")[2:] for line in table.splitlines()]


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_respelled_names_change_no_feature_bit(seed):
    inputs = respelled_inputs(random.Random(seed))
    assert inputs["triples"] != "".join(TRIPLE_LINES)
    assert feature_columns(extract_tsv(**inputs)) == feature_columns(TABLE)


@pytest.fixture(scope="module")
def planted_model(tmp_path_factory):
    model = tmp_path_factory.mktemp("model") / "model.json"
    with contextlib.redirect_stderr(io.StringIO()):
        code = main(["train", *(f"--{key}={PLANTED / file}" for key, file in NAMES.items()),
                     f"--model={model}"])
    assert code == 0
    return model


@settings(max_examples=10, deadline=None)
@given(order=st.permutations(range(len(TRIPLE_LINES))))
def test_permuted_triples_permute_the_predict_rows(planted_model, order):
    rows = run("predict", f"--model={planted_model}").splitlines(keepends=True)
    assert "".join(rows) == (PLANTED / "scores.tsv").read_text()
    got = run("predict", f"--model={planted_model}",
              triples="".join(TRIPLE_LINES[i] for i in order))
    assert got == "".join(rows[i] for i in order)
