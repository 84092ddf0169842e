"""The paper's headline finding on a committed planted-signal world.

Acceptance criterion 9 checks that the ordinal model beats the baselines
and leans on `ops_rank` most, but only when the external task data is
present. This is its offline counterpart. The four files in
`tests/data/planted/` are checked in as data; they were written once by
the benchmark's world generator, run from `perfbench/`:

    from world import WorldSpec, generate
    generate(WorldSpec(persons=60, universe=12, page_len=4, dim=8,
                       triples_per_person=5), 7, "../tests/data/planted")

Each person's truth scores there are a noisy monotone function of the
object's `ops` rank and of its mention on the page. The `planted`
fixture that loads them is in `conftest.py`.
"""

from triplescore import Relation, run_cv_comparison, train_model


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
