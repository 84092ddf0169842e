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
fixture that loads them is in `conftest.py`. The fifth file,
`features.tsv`, is the `triplescore extract` output on them, which any
rewrite of the feature layer must reproduce byte for byte; CI's
runtime-only job compares it with the console script's output too.
"""

from pathlib import Path

from triplescore import Relation, run_cv_comparison, train_model
from triplescore.corpus import load_corpus
from triplescore.embeddings import load_embeddings
from triplescore.features import extract, load_triples, load_universe, matrix_to_tsv

PLANTED = Path(__file__).parent / "data" / "planted"


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
    vectors = extract(load_embeddings(PLANTED / "embeddings.txt"),
                      load_corpus(PLANTED / "corpus.jsonl"),
                      load_universe(PLANTED / "universe.txt", Relation.PROFESSION), triples)
    assert matrix_to_tsv(triples, vectors) == (PLANTED / "features.tsv").read_text()
