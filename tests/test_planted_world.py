"""The paper's headline finding on a committed planted-signal world.

Acceptance criterion 9 checks that the ordinal model beats the baselines
and leans on `ops_rank` most, but only when the external task data is
present. This is its offline counterpart. The four input files in
`tests/data/planted/` are checked in as data; they were written once by
the benchmark's world generator, run from `perfbench/`:

    from world import WorldSpec, generate
    generate(WorldSpec(persons=60, universe=12, page_len=4, dim=8,
                       triples_per_person=5), 7, "../tests/data/planted")

Each person's truth scores there are a noisy monotone function of the
object's `ops` rank and of its mention on the page. The `planted`
fixture that loads them is in `conftest.py`. Three more files pin the
command line's outputs on them byte for byte, and CI's runtime-only job
compares them with the console script's output too:

- `features.tsv`, the `triplescore extract` output, which any rewrite of
  the feature layer must reproduce;
- `cv.txt`, the `triplescore cv` stdout at the default seed and folds;
- `scores.tsv`, the `triplescore predict` output of a model that
  `triplescore train` fitted on the same triples.

The last two pin the fits: a faster objective or solver may move a fitted
parameter in its last digits, but no score and no CV metric.
"""

from pathlib import Path

import pytest

from triplescore import Relation, run_cv_comparison, train_model
from triplescore.cli import main
from triplescore.corpus import load_corpus
from triplescore.embeddings import load_embeddings
from triplescore.features import KeyPlan, extract, load_triples, load_universe, matrix_to_tsv

PLANTED = Path(__file__).parent / "data" / "planted"
BOM = b"\xef\xbb\xbf"
INPUTS = ["--embeddings", str(PLANTED / "embeddings.txt"),
          "--corpus", str(PLANTED / "corpus.jsonl"),
          "--universe", str(PLANTED / "universe.txt"),
          "--triples", str(PLANTED / "triples.tsv")]


def test_ordinal_beats_first_mention_on_every_metric(planted):
    triples, X, corpus = planted
    results = run_cv_comparison(triples, X, corpus, folds=5, seed=0)
    ordinal, first = results["ordinal"].mean, results["first"].mean
    assert ordinal.accuracy > first.accuracy
    assert ordinal.avg_score_diff < first.avg_score_diff
    assert ordinal.kendall_tau > first.kendall_tau


def test_ops_rank_carries_the_largest_weight(planted):
    triples, X, _ = planted
    model = train_model(triples, X, relation=Relation.PROFESSION)
    assert model.feature_weights()[0][0] == "ops_rank"


def test_extract_reproduces_the_committed_feature_table():
    triples = load_triples(PLANTED / "triples.tsv", Relation.PROFESSION)
    plan = KeyPlan.of_run(load_corpus(PLANTED / "corpus.jsonl"),
                          load_universe(PLANTED / "universe.txt", Relation.PROFESSION), triples)
    vectors = extract(load_embeddings(PLANTED / "embeddings.txt"), plan)
    assert matrix_to_tsv(triples, vectors) == (PLANTED / "features.tsv").read_text()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_cv_reproduces_the_committed_output(workers, capsys):
    assert main(["cv", *INPUTS, "--max-workers", workers]) == 0
    assert capsys.readouterr().out == (PLANTED / "cv.txt").read_text()


def test_train_then_predict_reproduces_the_committed_scores(tmp_path, capsys):
    model, scores = tmp_path / "model.json", tmp_path / "scores.tsv"
    assert main(["train", *INPUTS, "--model", str(model)]) == 0
    assert main(["predict", *INPUTS, "--model", str(model), "--output", str(scores)]) == 0
    assert scores.read_bytes() == (PLANTED / "scores.tsv").read_bytes()


@pytest.mark.parametrize("name", ["embeddings", "corpus", "universe", "triples"])
def test_a_byte_order_mark_is_skipped_in_each_input(name, tmp_path, capsys):
    args = list(INPUTS)
    i = args.index(f"--{name}") + 1
    copy = tmp_path / Path(args[i]).name
    copy.write_bytes(BOM + Path(args[i]).read_bytes())
    args[i] = str(copy)
    assert main(["extract", *args]) == 0
    assert capsys.readouterr().out == (PLANTED / "features.tsv").read_text()


def test_a_byte_order_mark_is_skipped_in_the_config_file_and_the_artifact(tmp_path):
    config, model, scores = tmp_path / "run.conf", tmp_path / "model.json", tmp_path / "out.tsv"
    lines = [f"{flag[2:]} = {path}\n" for flag, path in zip(INPUTS[::2], INPUTS[1::2])]
    config.write_bytes(BOM + "".join(lines).encode())
    assert main(["train", "--config", str(config), "--model", str(model)]) == 0
    model.write_bytes(BOM + model.read_bytes())
    assert main(["predict", "--config", str(config), "--model", str(model),
                 "--output", str(scores)]) == 0
    assert scores.read_bytes() == (PLANTED / "scores.tsv").read_bytes()
