"""Reordering the planted world's inputs changes no feature bit.

The loader writes each kept vector at its key's row of the run's key
plan, not at its line in the file, and `extract` keeps the input order of
the triples. So, for `triplescore extract` on the planted world:

- shuffling the embedding vector lines after the header leaves the TSV
  byte-identical;
- so does appending vectors that no triple can reach, with the header's
  count raised to match;
- permuting the triples permutes the TSV rows the same way, bit for bit.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from triplescore.cli import main

PLANTED = Path(__file__).parent / "data" / "planted"
HEADER, *VECTOR_LINES = (PLANTED / "embeddings.txt").read_text().splitlines(keepends=True)
TRIPLE_LINES = (PLANTED / "triples.tsv").read_text().splitlines(keepends=True)
TABLE = (PLANTED / "features.tsv").read_text()
DIM = int(HEADER.split()[1])


def extract_tsv(embeddings: str | None = None, triples: str | None = None) -> str:
    """`triplescore extract` on the planted world, with the given file texts in place."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"embeddings": PLANTED / "embeddings.txt", "corpus": PLANTED / "corpus.jsonl",
                 "universe": PLANTED / "universe.txt", "triples": PLANTED / "triples.tsv"}
        for name, text in (("embeddings", embeddings), ("triples", triples)):
            if text is not None:
                paths[name] = Path(tmp) / paths[name].name
                paths[name].write_text(text)
        out = Path(tmp) / "features.tsv"
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(["extract", *(f"--{key}={path}" for key, path in paths.items()),
                         f"--output={out}"])
        assert code == 0
        return out.read_text()


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
