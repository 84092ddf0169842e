"""The vectorised ops/ops_rank kernel against the scalar per-pair oracle.

The oracle below is the per-(object, page entity) cosine loop that
feature extraction used before the kernel, with the one usability rule
(a vector counts iff its norm is a positive finite number), and the
compiled phrase pattern for mentions. Random worlds exercise the paths
where the two could part: zero vectors, entities without a page,
duplicate, unembedded and differently cased page entities, objects
outside the universe, tied scores from duplicate object vectors, and
pages that mention objects across whitespace runs, glued to word
characters or next to non-ASCII text, under both ops denominators.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import store_from
from triplescore import features
from triplescore.corpus import Corpus, PageRecord, _phrase_pattern, surface_form
from triplescore.embeddings import normalize_key
from triplescore.features import (
    FLAG_ENTITY_EMBEDDING,
    FLAG_OBJECT_EMBEDDING,
    FLAG_OPS_TERMS,
    FLAG_PAGE_RECORD,
    OPS_DENOM_EMBEDDED,
    KeyPlan,
    ObjectUniverse,
    Relation,
    Triple,
    extract,
    object_entity_similarity,
    object_mention_feature,
    ops,
    ops_rank,
)


def usable(vec):
    return vec is not None and 0.0 < np.linalg.norm(vec) < np.inf


def cosine(a, b):
    """Cosine similarity sum(a_i b_i) / (||a|| ||b||) of two usable vectors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    return float(np.dot(a, b) / (na * nb))


def oracle_ops_terms(store, record, obj):
    """Cosine terms between the object and each usable page entity, in
    document order, plus the total linked-entity count."""
    n_linked = len(record.linked_entities)
    obj_vec = store.lookup(obj)
    if not usable(obj_vec):
        return [], n_linked
    terms = [cosine(obj_vec, vec) for ent in record.linked_entities
             if usable(vec := store.lookup(ent))]
    return terms, n_linked


def oracle_ops(store, corpus, entity, obj, denominator):
    record = corpus.get(entity)
    if record is None:
        return 0.0
    terms, n_linked = oracle_ops_terms(store, record, obj)
    if not terms:
        return 0.0
    n = len(terms) if denominator == OPS_DENOM_EMBEDDED else n_linked
    return sum(terms) / n


def oracle_mention(corpus, entity, obj):
    record, phrase = corpus.get(entity), surface_form(obj)
    if record is None or not phrase.split():  # a key without words is never mentioned
        return 0.0
    return 1.0 if _phrase_pattern(phrase).search(record.page_text) else 0.0


class OracleEntityContext:
    """Per-entity scores and ranks of the whole universe."""

    def __init__(self, store, corpus, universe, entity_key, denominator):
        self.record = corpus.get(entity_key)
        if self.record is None:
            self.n_page_terms = 0
        else:
            self.n_page_terms = sum(1 for ent in self.record.linked_entities
                                    if usable(store.lookup(ent)))
        self.ops_values = {
            obj: oracle_ops(store, corpus, entity_key, obj, denominator)
            for obj in universe.objects
        }
        order = sorted(self.ops_values.items(), key=lambda pair: (-pair[1], pair[0]))
        self.ranks = {obj: position for position, (obj, _) in enumerate(order, start=1)}

    def rank_of(self, obj_key, obj_ops):
        # an object outside the universe takes the position it would occupy
        if obj_key in self.ranks:
            return self.ranks[obj_key]
        ahead = sum(1 for other, score in self.ops_values.items()
                    if score > obj_ops or (score == obj_ops and other < obj_key))
        return ahead + 1


def oracle_extract(store, corpus, universe, triples, denominator):
    """(sim, ops, rank, mention, flags) per triple, from scalar cosines."""
    contexts = {}
    rows = []
    for t in triples:
        ekey, okey = t.entity_key, t.object_key
        if ekey not in contexts:
            contexts[ekey] = OracleEntityContext(store, corpus, universe, ekey, denominator)
        ctx = contexts[ekey]
        ev, ov = store.lookup(ekey), store.lookup(okey)
        flags = set()
        if not usable(ev):
            flags.add(FLAG_ENTITY_EMBEDDING)
        if not usable(ov):
            flags.add(FLAG_OBJECT_EMBEDDING)
        sim = 0.0 if flags else cosine(ev, ov)
        if ctx.record is None:
            flags.add(FLAG_PAGE_RECORD)
        if ctx.record is None or not usable(ov) or ctx.n_page_terms == 0:
            flags.add(FLAG_OPS_TERMS)
        value = ctx.ops_values.get(okey)
        if value is None:
            value = oracle_ops(store, corpus, ekey, okey, denominator)
        rows.append((sim, value, ctx.rank_of(okey, value),
                     oracle_mention(corpus, ekey, okey), frozenset(flags)))
    return rows


@st.composite
def worlds(draw):
    """A random store, corpus, universe and triple list.

    Object and page-entity vectors come from two small pools of random
    directions, each with the zero vector added, so reusing a pool entry
    makes duplicates and exact ties. Ties that hold only by rounding luck
    are kept out: with dim >= 2 no two directions are parallel (parallel
    vectors of different lengths tie up to rounding), and objects never
    share a vector with page entities (a page of objects a and b scores
    both alike, again up to rounding).
    """
    dim = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def pool():
        vectors = [rng.normal(size=dim) * rng.uniform(0.1, 10.0)
                   for _ in range(draw(st.integers(1, 4)))]
        return vectors + [np.zeros(dim)]

    entries = {}

    def embed(keys, vectors):
        """Give each key a vector from the pool, or leave it unembedded."""
        for key in keys:
            if draw(st.integers(0, 4)) > 0:
                entries[key] = vectors[draw(st.integers(0, len(vectors) - 1))].copy()

    # one-, two- and three-word object names
    universe = [f"o{i}" + " a" * (i % 3) for i in range(draw(st.integers(1, 6)))]
    outside = [f"x{i}" + " b" * (i % 2) for i in range(draw(st.integers(0, 3)))]
    page_pool = [f"p{i}" for i in range(draw(st.integers(0, 5)))]
    persons = [f"e{i}" for i in range(draw(st.integers(1, 4)))]
    embed([normalize_key(name) for name in universe + outside] + persons, pool())
    embed(page_pool, pool())

    def page_text():
        """Object names in mixed case across whitespace runs, some glued to
        a word character, and sometimes a non-ASCII character."""
        pieces = []
        for _ in range(draw(st.integers(0, 4))):
            words = draw(st.sampled_from(universe + outside)).split()
            cased = ["".join(c.upper() if draw(st.booleans()) else c for c in word)
                     for word in words]
            runs = [draw(st.sampled_from([" ", "  ", "\t", "\n ", "\x0b", "\x1c"]))
                    for _ in words[1:]]
            phrase = cased[0] + "".join(run + word for run, word in zip(runs, cased[1:]))
            glue = st.sampled_from(["", "", "", "b", "7", "_", "("])
            pieces.append(draw(glue) + phrase + draw(glue))
            if draw(st.integers(0, 4)) == 0:
                pieces.append(draw(st.sampled_from(["\u00e9", "\u017f", "\u212a", "\u0130"])))
        return " ".join(pieces)

    records = {}
    for person in persons:
        if draw(st.booleans()) or not page_pool:
            continue
        linked = [name.upper() if draw(st.booleans()) else name
                  for name in draw(st.lists(st.sampled_from(page_pool), max_size=6))]
        records[person] = PageRecord(person=person, linked_entities=tuple(linked),
                                     page_text=page_text())
    triples = [
        Triple(person, Relation.PROFESSION, obj)
        for person in persons
        for obj in draw(st.lists(st.sampled_from(universe + outside), min_size=1,
                                 max_size=4, unique=True))
    ]
    return (store_from(dim, entries), Corpus(records),
            ObjectUniverse.from_names(Relation.PROFESSION, universe), triples)


@given(worlds(), st.sampled_from(["embedded", "all"]))
@settings(max_examples=300, deadline=None)
def test_extract_matches_scalar_oracle(world, denominator):
    store, corpus, universe, triples = world
    plan = KeyPlan.of_run(corpus, universe, triples)
    vectors = extract(store, plan, ops_denominator=denominator)
    expected = oracle_extract(store, corpus, universe, triples, denominator)
    for fv, (sim, value, rank, mention, flags) in zip(vectors, expected):
        assert fv.obj_entity_sim == pytest.approx(sim, abs=1e-15)
        assert fv.ops == pytest.approx(value, abs=1e-15)
        assert fv.ops_rank == rank
        assert fv.object_mention == mention
        assert fv.missing == flags


@given(worlds(), st.sampled_from(["embedded", "all"]))
@settings(max_examples=100, deadline=None)
def test_public_wrappers_match_extract(world, denominator):
    # the public wrappers agree bit for bit with what extract reports
    store, corpus, universe, triples = world
    plan = KeyPlan.of_run(corpus, universe, triples)
    vectors = extract(store, plan, ops_denominator=denominator)
    for t, fv in zip(triples, vectors):
        assert fv.obj_entity_sim == object_entity_similarity(store, t.entity_key, t.object_key)
        assert fv.ops == ops(store, corpus, t.entity_key, t.object_key, denominator)
        assert fv.object_mention == object_mention_feature(corpus, t.entity_key, t.object_key)
        ranks = ops_rank(store, corpus, t.entity_key, universe, denominator)
        if t.object_key in ranks:
            assert fv.ops_rank == ranks[t.object_key]


@given(worlds(), st.sampled_from(["embedded", "all"]), st.sampled_from([8, 40, 200]))
@settings(max_examples=100, deadline=None)
def test_chunk_size_changes_no_value(world, denominator, chunk_bytes):
    # with chunks of one or a few rows, every value keeps its bits
    store, corpus, universe, triples = world
    plan = KeyPlan.of_run(corpus, universe, triples)

    def table():
        vectors = extract(store, plan, ops_denominator=denominator)
        return [(*map(repr, fv.values()), fv.missing) for fv in vectors]

    whole = table()
    with mock.patch.object(features, "_CHUNK_BYTES", chunk_bytes):
        assert table() == whole
