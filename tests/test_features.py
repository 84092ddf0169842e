"""Feature extraction against hand-computed micro-world values."""

import math
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import micro_plan, store_from
from triplescore import features
from triplescore.baselines import first_baseline_predictions
from triplescore.corpus import Corpus, PageRecord, first_mentioned, load_corpus, mentions
from triplescore.embeddings import load_embeddings, normalize_key
from triplescore.errors import (
    DuplicateKeyError,
    EmptyTrainingSetError,
    EmptyUniverseError,
    InputFormatError,
    MalformedLineError,
    RelationMismatchError,
)
from triplescore.features import (
    FEATURE_NAMES,
    FLAG_ENTITY_EMBEDDING,
    FLAG_OBJECT_EMBEDDING,
    FLAG_OPS_TERMS,
    FLAG_PAGE_RECORD,
    FeatureVector,
    KeyPlan,
    ObjectUniverse,
    Relation,
    Triple,
    extract,
    fit_standardizer,
    load_triples,
    load_universe,
    matrix,
    matrix_to_tsv,
    missing_summary,
    object_entity_similarity,
    object_mention_feature,
    ops,
    ops_rank,
)

# micro-world vectors, restated so the oracle is independent of the store
VEC = {
    "ada": (1.0, 0.0), "ben": (0.0, 1.0), "cyd": (0.6, 0.8),
    "coder": (1.0, 0.0), "poet": (0.0, 1.0), "pilot": (0.8, 0.6),
    "math": (0.6, 0.8), "verse": (-0.6, 0.8), "wing": (1.0, 1.0),
}


def with_vectors(store, **replaced):
    """A store of the micro-world vectors with some replaced or added.

    It is built from VEC, not from the store's rows: those are unit rows,
    and normalising them again could move their last bits."""
    return store_from(store.dim, VEC | replaced)


def oracle_cos(a, b):
    dot = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(y * y for y in b))
    return dot / (na * nb)


class TestObjectEntitySimilarity:
    @pytest.mark.parametrize("entity,obj", [
        ("ada", "coder"), ("ada", "poet"), ("ada", "pilot"),
        ("ben", "coder"), ("ben", "poet"), ("ben", "pilot"),
        ("cyd", "coder"), ("cyd", "poet"),
    ])
    def test_matches_oracle(self, micro, entity, obj):
        got = object_entity_similarity(micro["store"], entity, obj)
        assert got == pytest.approx(oracle_cos(VEC[entity], VEC[obj]), abs=1e-15)

    def test_missing_object_embedding_is_zero(self, micro):
        assert object_entity_similarity(micro["store"], "ada", "sailor") == 0.0

    def test_missing_entity_embedding_is_zero(self, micro):
        assert object_entity_similarity(micro["store"], "nobody", "coder") == 0.0

    @pytest.mark.parametrize("entity,obj", [("Ada", "CODER"), (" cyd ", "Poet"),
                                            ("Ada", "United  States")])
    def test_raw_names_are_normalized(self, micro, entity, obj):
        store = with_vectors(micro["store"], united_states=(0.6, 0.8))
        got = object_entity_similarity(store, entity, obj)
        assert got == object_entity_similarity(store, normalize_key(entity),
                                               normalize_key(obj)) != 0.0


class TestOps:
    def test_ada_means_over_embedded_page_entities(self, micro):
        # ada links math, wing, ghost; ghost has no embedding
        store, corpus = micro["store"], micro["corpus"]
        for obj in ("coder", "poet", "pilot"):
            expected = (
                oracle_cos(VEC[obj], VEC["math"]) + oracle_cos(VEC[obj], VEC["wing"])
            ) / 2
            assert ops(store, corpus, "ada", obj) == pytest.approx(expected, abs=1e-15)

    def test_ben_single_term(self, micro):
        store, corpus = micro["store"], micro["corpus"]
        for obj in ("coder", "poet", "pilot"):
            expected = oracle_cos(VEC[obj], VEC["verse"])
            assert ops(store, corpus, "ben", obj) == pytest.approx(expected, abs=1e-15)

    def test_no_linked_entities_gives_zero(self, micro):
        assert ops(micro["store"], micro["corpus"], "cyd", "coder") == 0.0

    def test_unembeddable_object_gives_zero(self, micro):
        assert ops(micro["store"], micro["corpus"], "ada", "sailor") == 0.0

    def test_missing_person_record_gives_zero(self, micro):
        assert ops(micro["store"], micro["corpus"], "nobody", "coder") == 0.0

    def test_all_denominator_counts_unembedded_links(self, micro):
        store, corpus = micro["store"], micro["corpus"]
        # ada has 3 linked entities but only 2 contribute terms
        total = oracle_cos(VEC["coder"], VEC["math"]) + oracle_cos(VEC["coder"], VEC["wing"])
        assert ops(store, corpus, "ada", "coder", "all") == pytest.approx(total / 3, abs=1e-15)
        assert ops(store, corpus, "ada", "coder", "embedded") == pytest.approx(total / 2, abs=1e-15)

    def test_unknown_denominator_rejected(self, micro):
        with pytest.raises(ValueError):
            ops(micro["store"], micro["corpus"], "ada", "coder", "some")


class TestOpsRank:
    def test_ada_ranks_follow_descending_ops(self, micro):
        ranks = ops_rank(micro["store"], micro["corpus"], "ada", micro["universe"])
        assert ranks == {"pilot": 1, "poet": 2, "coder": 3, "sailor": 4}

    def test_cyd_all_zero_ops_break_ties_by_key(self, micro):
        ranks = ops_rank(micro["store"], micro["corpus"], "cyd", micro["universe"])
        assert ranks == {"coder": 1, "pilot": 2, "poet": 3, "sailor": 4}

    def test_ranks_match_independent_sort(self, micro):
        # definitional oracle: sort the implementation's own scores
        store, corpus, universe = micro["store"], micro["corpus"], micro["universe"]
        for entity in ("ada", "ben", "cyd"):
            scores = {o: ops(store, corpus, entity, o) for o in universe.objects}
            expected_order = sorted(universe.objects, key=lambda o: (-scores[o], o))
            expected = {o: i + 1 for i, o in enumerate(expected_order)}
            assert ops_rank(store, corpus, entity, universe) == expected

    def test_rank_values_cover_universe(self, micro):
        ranks = ops_rank(micro["store"], micro["corpus"], "ben", micro["universe"])
        assert sorted(ranks.values()) == [1, 2, 3, 4]

    def test_empty_universe_rejected(self):
        with pytest.raises(EmptyUniverseError):
            ObjectUniverse(relation=Relation.PROFESSION, objects=())
        with pytest.raises(EmptyUniverseError):
            ObjectUniverse.from_names(Relation.PROFESSION, [])

    @pytest.mark.parametrize("objects", [("poet", "coder"), ("coder", "coder")])
    def test_unsorted_or_repeated_objects_rejected(self, objects):
        # ranks break ties on key order, and extract numbers each key once
        with pytest.raises(ValueError, match="sorted and unique"):
            ObjectUniverse(relation=Relation.PROFESSION, objects=objects)


class TestObjectMention:
    @pytest.mark.parametrize("entity,obj,expected", [
        ("ada", "coder", 1.0), ("ada", "poet", 1.0), ("ada", "pilot", 0.0),
        ("ada", "sailor", 0.0),
        ("ben", "poet", 1.0), ("ben", "pilot", 1.0), ("ben", "coder", 0.0),
        ("cyd", "coder", 0.0), ("cyd", "poet", 0.0), ("cyd", "sailor", 0.0),
    ])
    def test_page_scope_bits(self, micro, entity, obj, expected):
        assert object_mention_feature(micro["corpus"], entity, obj) == expected

    def test_missing_record_is_zero(self, micro):
        assert object_mention_feature(micro["corpus"], "nobody", "coder") == 0.0

    @pytest.mark.parametrize("key", ["_", "__"])
    def test_key_without_words_is_never_mentioned(self, key):
        # The surface form of a key made only of underscores is all spaces, a
        # phrase whose bare pattern is empty and so matches at any boundary.
        ada = PageRecord("ada", ("poems",), "Ada, a mathematician. Poems.",
                         "Ada wrote. Poems.")
        corpus = Corpus({"ada": ada})
        universe = ObjectUniverse.from_names(Relation.PROFESSION, [key, "mathematician"])
        triples = [Triple("ada", Relation.PROFESSION, name) for name in (key, "poems")]
        store = store_from(2, {"ada": (1.0, 0.0), key: (0.0, 1.0), "poems": (0.6, 0.8)})
        vectors = extract(store, KeyPlan.of_run(corpus, universe, triples))
        assert [fv.object_mention for fv in vectors] == [0.0, 1.0]
        assert not mentions(ada, key)
        assert object_mention_feature(corpus, "ada", key) == 0.0
        assert first_mentioned(ada, ["mathematician", key]) == "mathematician"
        assert first_mentioned(ada, [key]) is None


class TestExtract:
    def test_equals_per_feature_composition(self, micro):
        store, corpus, universe = micro["store"], micro["corpus"], micro["universe"]
        vectors = extract(store, KeyPlan.of_run(corpus, universe, micro["triples"]))
        for t, fv in zip(micro["triples"], vectors):
            assert fv.obj_entity_sim == object_entity_similarity(store, t.entity, t.object)
            assert fv.ops == ops(store, corpus, t.entity, t.object)
            ranks = ops_rank(store, corpus, t.entity, universe)
            assert fv.ops_rank == float(ranks[t.object_key])
            assert fv.object_mention == object_mention_feature(corpus, t.entity, t.object)

    def test_missing_flags(self, micro):
        vectors = extract(micro["store"], micro_plan(micro))
        by_pair = {
            (t.entity_key, t.object_key): fv.missing
            for t, fv in zip(micro["triples"], vectors)
        }
        assert by_pair[("ada", "sailor")] == {FLAG_OBJECT_EMBEDDING, FLAG_OPS_TERMS}
        assert by_pair[("cyd", "coder")] == {FLAG_OPS_TERMS}
        assert by_pair[("cyd", "sailor")] == {FLAG_OBJECT_EMBEDDING, FLAG_OPS_TERMS}
        assert by_pair[("ada", "coder")] == frozenset()
        assert by_pair[("ben", "poet")] == frozenset()

    def test_unknown_entity_gets_flags_not_errors(self, micro):
        triples = [Triple("dex", Relation.PROFESSION, "coder")]
        (fv,) = extract(micro["store"], micro_plan(micro, triples))
        assert fv.obj_entity_sim == 0.0
        assert fv.ops == 0.0
        assert fv.object_mention == 0.0
        assert fv.ops_rank == 1.0  # all-zero scores rank by ascending key
        assert {FLAG_ENTITY_EMBEDDING, FLAG_PAGE_RECORD, FLAG_OPS_TERMS} <= fv.missing

    def test_relation_mismatch_rejected(self, micro):
        triples = [Triple("ada", Relation.NATIONALITY, "coder")]
        with pytest.raises(RelationMismatchError):
            KeyPlan.of_run(micro["corpus"], micro["universe"], triples)

    def test_repeated_calls_give_equal_output(self, micro):
        args = (micro["store"], micro_plan(micro))
        assert extract(*args) == extract(*args)

    def test_underflowing_entity_vector_is_flagged(self, micro):
        # [1e-170, 1e-170] has nonzero components but a norm of 0.0
        store = with_vectors(micro["store"], ada=(1e-170, 1e-170))
        triples = [Triple("ada", Relation.PROFESSION, "coder")]
        (fv,) = extract(store, micro_plan(micro, triples))
        assert fv.missing == {FLAG_ENTITY_EMBEDDING}
        assert fv.obj_entity_sim == 0.0
        assert object_entity_similarity(store, "ada", "coder") == 0.0

    def test_underflowing_object_vector_is_flagged(self, micro):
        store = with_vectors(micro["store"], coder=(1e-170, 1e-170))
        triples = [Triple("ada", Relation.PROFESSION, "coder")]
        (fv,) = extract(store, micro_plan(micro, triples))
        assert fv.missing == {FLAG_OBJECT_EMBEDDING, FLAG_OPS_TERMS}
        assert (fv.obj_entity_sim, fv.ops) == (0.0, 0.0)
        assert ops(store, micro["corpus"], "ada", "coder") == 0.0

    def test_underflowing_only_page_vector_flags_ops_terms(self, micro):
        # verse is ben's only linked entity
        store = with_vectors(micro["store"], verse=(1e-170, 1e-170))
        triples = [Triple("ben", Relation.PROFESSION, "poet")]
        (fv,) = extract(store, micro_plan(micro, triples))
        assert fv.missing == {FLAG_OPS_TERMS}
        assert fv.ops == 0.0

    def test_overflowing_norm_is_unusable(self, micro):
        # finite components whose norm overflows cannot be normalised; the
        # store normalises its rows, so the overflow happens as it is made
        with np.errstate(over="ignore"):
            store = with_vectors(micro["store"], coder=(1e200, 1e200))
        triples = [Triple("ada", Relation.PROFESSION, "coder")]
        (fv,) = extract(store, micro_plan(micro, triples))
        assert fv.missing == {FLAG_OBJECT_EMBEDDING, FLAG_OPS_TERMS}
        assert (fv.obj_entity_sim, fv.ops) == (0.0, 0.0)

    def test_empty_triples(self, micro):
        assert extract(micro["store"], micro_plan(micro, [])) == []

    def test_object_outside_universe_gets_insertion_rank(self, micro):
        # "wing" is embeddable but not a universe object; its rank is the
        # position it would occupy in the universe's descending-score order
        store, corpus, universe = micro["store"], micro["corpus"], micro["universe"]
        triples = [Triple("ada", Relation.PROFESSION, "wing", 3)]
        (fv,) = extract(store, KeyPlan.of_run(corpus, universe, triples))
        obj_score = ops(store, corpus, "ada", "wing")
        scores = {o: ops(store, corpus, "ada", o) for o in universe.objects}
        ahead = sum(
            1 for o, s in scores.items()
            if s > obj_score or (s == obj_score and o < "wing")
        )
        assert fv.ops_rank == float(ahead + 1)


class RecordingStore:
    """A store that records every key its rows are gathered for.

    Its rows are a gather for any keys, even `plan.rows`, so extract gathers
    every row it reads."""

    def __init__(self, store):
        self.store, self.dim, self.keys = store, store.dim, set()

    def rows(self, keys):
        keys = list(keys)
        self.keys.update(keys)
        return self.store.rows(keys)


DATA = Path(__file__).parent / "data"
PLANTED = DATA / "planted"
# Written from perfbench/ with generate(WorldSpec(persons=40, universe=12,
# page_len=4, dim=8, triples_per_person=5, oou_share=0.2,
# unembedded_share=0.2, pageless_share=0.1), 7, "../tests/data/dirty"): 37 of
# its 200 rows have an object outside the universe and 15 a person without
# a page. features.tsv and features_all.tsv are its `triplescore extract`
# output under the "embedded" and "all" ops denominators; cv.txt, its
# `triplescore cv` stdout, is checked in test_cli.py.
DIRTY = DATA / "dirty"


def load_world(world: Path):
    return (load_corpus(world / "corpus.jsonl"),
            load_universe(world / "universe.txt", Relation.PROFESSION),
            load_triples(world / "triples.tsv", Relation.PROFESSION))


# 64 bytes is less than one page's products with the universe rows (12 x 8
# doubles), so `_Pages.outer` then takes one page a chunk
@pytest.mark.parametrize("chunk_bytes", [64, features._CHUNK_BYTES])
@pytest.mark.parametrize("denominator, table", [("embedded", "features.tsv"),
                                                ("all", "features_all.tsv")])
def test_dirty_world_reproduces_the_committed_feature_tables(denominator, table, chunk_bytes):
    corpus, universe, triples = load_world(DIRTY)
    with mock.patch.object(features, "_CHUNK_BYTES", chunk_bytes):
        vectors = extract(load_embeddings(DIRTY / "embeddings.txt"),
                          KeyPlan.of_run(corpus, universe, triples), ops_denominator=denominator)
    assert matrix_to_tsv(triples, vectors) == (DIRTY / table).read_text()


def test_a_store_in_plan_order_is_read_as_it_is_by_two_extracts():
    # the CLI's store: its rows for plan.rows are its own matrix and mask, not
    # a copy, and for an equal copy of plan.rows a bit-equal, writable gather;
    # a second extract reads the same bits, as does one that gathers from a
    # store in file order
    corpus, universe, triples = load_world(PLANTED)
    plan = KeyPlan.of_run(corpus, universe, triples)
    store = load_embeddings(PLANTED / "embeddings.txt", plan.rows)
    units, usable = store.rows(plan.rows)
    assert units is store.vectors and usable is store.usable
    copies, copied = store.rows(dict(plan.rows))
    assert copies.flags.writeable and copied.flags.writeable
    assert not np.shares_memory(copies, store.vectors)
    assert not np.shares_memory(copied, store.usable)
    assert copies.tobytes() == units.tobytes() and copied.tolist() == usable.tolist()
    first = matrix_to_tsv(triples, extract(store, plan))
    assert matrix_to_tsv(triples, extract(store, plan)) == first
    gathered = extract(load_embeddings(PLANTED / "embeddings.txt"), plan)
    assert matrix_to_tsv(triples, gathered) == first == (PLANTED / "features.tsv").read_text()


class TestLookupKeys:
    # an out-of-universe object with and without a vector, and a pageless,
    # unembedded person; ada's page links the unembedded "ghost"
    EXTRA = [Triple("ada", Relation.PROFESSION, "wing"),
             Triple("ada", Relation.PROFESSION, "Zeppelin"),
             Triple("Dex", Relation.PROFESSION, "coder")]

    def test_micro_world_key_set(self, micro):
        keys = set(KeyPlan.of_run(micro["corpus"], micro["universe"],
                                  micro["triples"] + self.EXTRA).rows)
        assert keys == {"coder", "pilot", "poet", "sailor", "ada", "ben", "cyd", "dex",
                        "wing", "zeppelin", "math", "ghost", "verse"}

    @pytest.mark.parametrize("denominator", ["embedded", "all"])
    def test_covers_every_lookup_of_extract_micro(self, micro, denominator):
        store = RecordingStore(micro["store"])
        plan = micro_plan(micro, micro["triples"] + self.EXTRA)
        extract(store, plan, ops_denominator=denominator)
        assert store.keys == set(plan.rows)

    @staticmethod
    def covers(world: Path, denominator: str):
        corpus, universe, triples = load_world(world)
        # half the persons, so that the other half's vectors are unreachable
        persons = sorted({t.entity_key for t in triples})[::2]
        triples = [t for t in triples if t.entity_key in persons]
        full = load_embeddings(world / "embeddings.txt")
        plan = KeyPlan.of_run(corpus, universe, triples)
        keys = set(plan.rows)
        store = RecordingStore(full)
        vectors = extract(store, plan, ops_denominator=denominator)
        assert store.keys == keys

        filtered = load_embeddings(world / "embeddings.txt", keys)
        assert len(filtered) < len(full)
        assert matrix_to_tsv(triples, extract(filtered, plan, ops_denominator=denominator)) \
            == matrix_to_tsv(triples, vectors)

    @pytest.mark.parametrize("denominator", ["embedded", "all"])
    def test_covers_every_lookup_of_extract_planted(self, denominator):
        self.covers(PLANTED, denominator)

    @pytest.mark.parametrize("denominator", ["embedded", "all"])
    def test_covers_every_lookup_of_extract_dirty(self, denominator):
        self.covers(DIRTY, denominator)


def count_normalize_key_calls(monkeypatch) -> list[str]:
    """The names normalize_key is called on from here on, by any package module."""
    calls = []

    def counting(raw):
        calls.append(raw)
        return normalize_key(raw)

    for name, module in list(sys.modules.items()):
        if name == "triplescore" or name.startswith("triplescore."):
            monkeypatch.setattr(module, "normalize_key", counting, raising=False)
    return calls


def test_loaded_keys_are_not_normalised_again(monkeypatch):
    """Names are normalised where they enter; the first-mention rule and the
    filtered loader take the keys they are given as they are."""
    corpus, universe, triples = load_world(DIRTY)
    plan = KeyPlan.of_run(corpus, universe, triples)
    calls = count_normalize_key_calls(monkeypatch)
    first_baseline_predictions(corpus, triples)
    assert len(calls) == 0
    load_embeddings(DIRTY / "embeddings.txt", plan.rows)
    assert len(calls) == 0


class TestKeyPlan:
    def test_a_plan_made_earlier_gives_the_same_features(self, micro):
        plan = micro_plan(micro)
        # a second store that also holds a vector the plan does not list
        other = with_vectors(micro["store"], zeppelin=(1.0, 1.0))
        for denominator in ("embedded", "all"):
            fresh = extract(micro["store"], micro_plan(micro), ops_denominator=denominator)
            assert extract(micro["store"], plan, ops_denominator=denominator) == fresh
            assert extract(other, plan, ops_denominator=denominator) == fresh
        # extracting leaves the plan itself store-free
        assert not hasattr(plan, "units")


def loop_pages(plan, pages, denominator):
    """The page sums, live mask and denominators as `_Pages` made them page by page."""
    ok = pages.usable.tolist()
    sums = np.zeros((len(plan.records), pages.units.shape[1]))
    terms, linked = [], []
    for i, record in enumerate(plan.records):
        page = [] if record is None else [plan.rows[key] for key in record.linked_keys]
        used = [r for r in page if ok[r]]
        sums[i] = pages.units[used].sum(axis=0)
        terms.append(len(used))
        linked.append(len(page))
    live = np.array(terms) > 0
    denoms = np.where(live, terms if denominator == "embedded" else linked, 1).astype(float)
    return sums, live, denoms


class TestPageSums:
    @pytest.mark.parametrize("chunk_bytes", [1, 1 << 10, 1 << 20])
    @pytest.mark.parametrize("denominator", ["embedded", "all"])
    @pytest.mark.parametrize("world", [PLANTED, DIRTY])
    def test_equal_the_per_page_loop_bit_for_bit(self, world, denominator, chunk_bytes):
        corpus, universe, triples = load_world(world)
        plan = KeyPlan.of_run(corpus, universe, triples)
        # One paged person's linked entities get no vector, so that page has
        # no usable term; the dirty world also has persons without a page.
        emptied = next(r for r in plan.records if r is not None)
        keys = set(plan.rows) - set(emptied.linked_keys)
        store = load_embeddings(world / "embeddings.txt", keys)
        with mock.patch.object(features, "_CHUNK_BYTES", chunk_bytes):
            pages = features._Pages(plan, store, denominator)
        sums, live, denoms = loop_pages(plan, pages, denominator)
        assert pages.sums.tobytes() == sums.tobytes()
        assert pages.live.tolist() == live.tolist()
        assert pages.denoms.tobytes() == denoms.tobytes()
        assert not pages.live[plan.records.index(emptied)]
        assert (None in plan.records) == (world == DIRTY)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 20), max_size=10), st.integers(1, 5),
           st.integers(0, 2**32 - 1), st.sampled_from([1, 64, 1 << 20]))
    def test_each_page_is_added_as_on_its_own(self, terms, dim, seed, chunk_bytes):
        """Signed zeros, cancellation and wide ranges: only the loop's order gives its bits.

        With dim 1 numpy adds a page's values pairwise from 9 terms on.
        """
        rng = np.random.default_rng(seed)
        units = rng.choice([-0.0, 0.0, 1.0, -1.0, 0.1, -0.3, 1e-17, 1e16, 3.0], size=(9, dim))
        units[rng.random(units.shape) < 0.5] *= rng.random()
        terms = np.array(terms, dtype=int)
        rows = rng.integers(0, len(units), size=terms.sum())
        with mock.patch.object(features, "_CHUNK_BYTES", chunk_bytes):
            got = features._page_sums(units, rows, terms)
        starts = np.cumsum(terms) - terms
        want = np.zeros((len(terms), dim))
        for i, (start, n) in enumerate(zip(starts, terms)):
            want[i] = units[rows[start:start + n]].sum(axis=0)
        assert got.tobytes() == want.tobytes()


class TestMatrix:
    def test_shape_and_order(self, micro):
        vectors = extract(micro["store"], micro_plan(micro))
        X = matrix(vectors)
        assert X.shape == (len(vectors), len(FEATURE_NAMES))
        assert X[0].tolist() == list(vectors[0].values())

    def test_empty(self):
        assert matrix([]).shape == (0, len(FEATURE_NAMES))


class TestStandardizer:
    def test_zscore(self):
        std = fit_standardizer(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert std.means == (2.0, 3.0)
        assert std.stddevs == (1.0, 1.0)
        out = std.apply(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert out.tolist() == [[-1.0, -1.0], [1.0, 1.0]]

    def test_population_stddev(self):
        std = fit_standardizer(np.array([[0.0], [2.0]]))
        assert std.stddevs == (1.0,)  # ddof=0: sqrt(((0-1)^2+(2-1)^2)/2)

    def test_zero_spread_column_centered_only(self):
        std = fit_standardizer(np.array([[5.0, 1.0], [5.0, 2.0]]))
        out = std.apply(np.array([[5.0, 1.0], [5.0, 2.0]]))
        assert out[:, 0].tolist() == [0.0, 0.0]
        assert out[:, 1].tolist() == [-1.0, 1.0]

    def test_empty_rejected(self):
        with pytest.raises(EmptyTrainingSetError):
            fit_standardizer(np.empty((0, 4)))

    def test_column_count_checked(self):
        std = fit_standardizer(np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError):
            std.apply(np.array([[1.0, 2.0, 3.0]]))

    def test_accepts_feature_vectors(self, micro):
        vectors = extract(micro["store"], micro_plan(micro))
        std = fit_standardizer(matrix(vectors))
        assert len(std.means) == len(FEATURE_NAMES)

    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40)
    def test_standardized_columns_center(self, n, seed):
        X = np.random.default_rng(seed).normal(size=(n, 3)) * 5 + 1
        out = fit_standardizer(X).apply(X)
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-9)


class TestTriple:
    def test_truth_bounds(self):
        with pytest.raises(ValueError):
            Triple("a", Relation.PROFESSION, "b", 8)
        with pytest.raises(ValueError):
            Triple("a", Relation.PROFESSION, "b", -1)
        assert Triple("a", Relation.PROFESSION, "b", 0).truth == 0
        assert Triple("a", Relation.PROFESSION, "b").truth is None

    def test_keys_normalized(self):
        t = Triple("Albert Einstein", Relation.PROFESSION, "Theoretical Physicist", 7)
        assert t.entity_key == "albert_einstein"
        assert t.object_key == "theoretical_physicist"

    def test_stored_keys_leave_equality_hash_and_repr_alone(self):
        a = Triple("Ada Lovelace", Relation.PROFESSION, "Poet", 3)
        b = Triple("Ada Lovelace", Relation.PROFESSION, "Poet", 3)
        assert a == b and hash(a) == hash(b)
        assert Triple("ada_lovelace", Relation.PROFESSION, "poet", 3) != a
        assert "_key" not in repr(a)

    def test_relation_parse(self):
        assert Relation.parse(" Profession ") is Relation.PROFESSION
        with pytest.raises(ValueError):
            Relation.parse("sibling")

    def test_unknown_relation_is_an_input_error(self):
        with pytest.raises(InputFormatError) as err:
            Relation.parse("sibling")
        assert str(err.value) == \
            "unknown relation 'sibling'; expected one of: profession, nationality"


class TestLoaders:
    def test_triples_with_and_without_truth(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("a\tcoder\t7\nb\tpoet\n")
        triples = load_triples(path, Relation.PROFESSION)
        assert triples[0].truth == 7
        assert triples[1].truth is None

    def test_triples_bad_field_count(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("a\n")
        with pytest.raises(MalformedLineError):
            load_triples(path, Relation.PROFESSION)

    def test_triples_bad_score(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("a\tb\tnine\n")
        with pytest.raises(MalformedLineError):
            load_triples(path, Relation.PROFESSION)

    def test_triples_score_out_of_range(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("a\tb\t9\n")
        with pytest.raises(MalformedLineError):
            load_triples(path, Relation.PROFESSION)

    def test_triples_repeated_pair_is_duplicate(self, tmp_path):
        # the pair is compared as normalized keys; a score does not tell copies apart
        path = tmp_path / "t.tsv"
        path.write_text("Ada  Lovelace\tcoder\t7\nada lovelace\tpoet\t2\n"
                        "ada lovelace\tCoder \t1\n")
        with pytest.raises(DuplicateKeyError) as err:
            load_triples(path, Relation.PROFESSION)
        assert str(err.value) == f"duplicate key 'ada lovelace/Coder' in {path}"

    def test_triples_blank_and_whitespace_lines_skip(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("\na\tcoder\t7\n  \t \n\nb\tpoet\n \n")
        triples = load_triples(path, Relation.PROFESSION)
        assert [(t.entity, t.object, t.truth) for t in triples] == [
            ("a", "coder", 7), ("b", "poet", None)]

    @pytest.mark.parametrize("line", ["\tcoder\t7", "ada\t \t7", "  \tcoder"])
    def test_triples_empty_entity_or_object_refused(self, tmp_path, line):
        path = tmp_path / "t.tsv"
        path.write_text(f"a\tpoet\n{line}\n")
        with pytest.raises(MalformedLineError) as err:
            load_triples(path, Relation.PROFESSION)
        assert str(err.value) == f"{path}:2: entity and object must be non-empty"

    def test_triples_empty_file(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("")
        assert load_triples(path, Relation.PROFESSION) == []

    def test_universe_sorted_unique(self, tmp_path):
        path = tmp_path / "u.txt"
        path.write_text("# comment\npoet\ncoder\n")
        uni = load_universe(path, Relation.PROFESSION)
        assert uni.objects == ("coder", "poet")

    def test_universe_blank_and_whitespace_lines_skip(self, tmp_path):
        path = tmp_path / "u.txt"
        path.write_text("\npoet\n   \n\t\ncoder\n\n")
        uni = load_universe(path, Relation.PROFESSION)
        assert uni.objects == ("coder", "poet")

    def test_universe_duplicate(self, tmp_path):
        path = tmp_path / "u.txt"
        path.write_text("poet\nPoet\n")
        with pytest.raises(DuplicateKeyError):
            load_universe(path, Relation.PROFESSION)

    def test_universe_relation_header_mismatch(self, tmp_path):
        path = tmp_path / "u.txt"
        path.write_text("# relation: profession\npoet\n")
        with pytest.raises(RelationMismatchError):
            load_universe(path, Relation.NATIONALITY)

    def test_universe_unknown_relation_header_names_the_line(self, tmp_path):
        path = tmp_path / "u.txt"
        path.write_text("poet\n# relation: bogus\ncoder\n")
        with pytest.raises(MalformedLineError) as err:
            load_universe(path, Relation.PROFESSION)
        assert str(err.value) == (f"{path}:2: unknown relation 'bogus'; "
                                  "expected one of: profession, nationality")

    def test_universe_relation_header_match(self, tmp_path):
        path = tmp_path / "u.txt"
        path.write_text("# relation: nationality\nfrench\n")
        uni = load_universe(path, Relation.NATIONALITY)
        assert uni.objects == ("french",)


class TestTsv:
    def test_header_and_row_shape(self, micro):
        vectors = extract(micro["store"], micro_plan(micro))
        text = matrix_to_tsv(micro["triples"], vectors)
        lines = text.splitlines()
        assert lines[0] == "entity\tobject\ttruth\t" + "\t".join(FEATURE_NAMES) + "\tmissing"
        assert len(lines) == len(micro["triples"]) + 1
        assert text.endswith("\n")
        first = lines[1].split("\t")
        assert first[0] == "ada" and first[1] == "coder" and first[2] == "7"

    def test_float_fields_round_trip(self, micro):
        vectors = extract(micro["store"], micro_plan(micro))
        text = matrix_to_tsv(micro["triples"], vectors)
        for line, fv in zip(text.splitlines()[1:], vectors):
            fields = line.split("\t")
            parsed = tuple(float(f) for f in fields[3:7])
            assert parsed == fv.values()

    def test_missing_summary_counts(self, micro):
        vectors = extract(micro["store"], micro_plan(micro))
        line = missing_summary(vectors)
        assert "4/10" in line
        assert "object_embedding: 2" in line
        assert "ops_terms: 4" in line

    def test_missing_summary_clean(self):
        line = missing_summary([FeatureVector(1.0, 2.0, 3.0, 1.0)])
        assert line.startswith("missing data: none")
