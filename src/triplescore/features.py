"""The four per-triple features and standardized matrix assembly.

Features, in canonical column order:
  obj_entity_sim  cosine between entity and object embeddings
  ops             mean cosine between the object and the entity's page entities
  ops_rank        1 + the universe objects with a larger ops for that
                  entity + those with an equal ops and a smaller key, so a
                  universe object gets its place when the universe is
                  sorted by descending ops, ties by ascending key (1 = highest)
  object_mention  1.0 iff the object phrase occurs in the entity's page

Missing inputs never raise here: the affected feature becomes 0.0 and a
flag is recorded on the vector, so coverage gaps in embedding or corpus
files stay visible without killing a run.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain

import numpy as np

from .corpus import Corpus, _search, mentions, surface_form
from .embeddings import EmbeddingStore, KeyCache, normalize_key
from .errors import (
    DuplicateKeyError,
    EmptyTrainingSetError,
    EmptyUniverseError,
    MalformedLineError,
    RelationMismatchError,
    UnknownRelationError,
    text_lines,
)

FEATURE_NAMES = ("obj_entity_sim", "ops", "ops_rank", "object_mention")

# missing-data flags on FeatureVector
FLAG_ENTITY_EMBEDDING = "entity_embedding"
FLAG_OBJECT_EMBEDDING = "object_embedding"
FLAG_PAGE_RECORD = "page_record"
FLAG_OPS_TERMS = "ops_terms"

OPS_DENOM_EMBEDDED = "embedded"
OPS_DENOM_ALL = "all"


class Relation(str, Enum):
    PROFESSION = "profession"
    NATIONALITY = "nationality"

    def __str__(self) -> str:
        return self.value

    @classmethod
    def parse(cls, name: str) -> "Relation":
        try:
            return cls(str(name).strip().lower())
        except ValueError:
            valid = ", ".join(r.value for r in cls)
        raise UnknownRelationError(f"unknown relation {name!r}; expected one of: {valid}")


@dataclass(frozen=True, slots=True)
class Triple:
    """(entity, relation, object) with an optional ground-truth score 0..7.

    The normalized entity and object keys are computed once, at
    construction; they take no part in equality, hashing or repr.
    `Triple(...)` computes them with `normalize_key`; `load_triples` hands
    a file's to `Triple._keyed`, from a `KeyCache` that calls
    `normalize_key` once per distinct name.
    """

    entity: str
    relation: Relation
    object: str
    truth: int | None = None
    entity_key: str = field(init=False, repr=False, compare=False)
    object_key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_truth(self.truth)
        object.__setattr__(self, "entity_key", normalize_key(self.entity))
        object.__setattr__(self, "object_key", normalize_key(self.object))

    @classmethod
    def _keyed(cls, relation: Relation, rows) -> list[Triple]:
        """`Triple(entity, relation, obj, truth)` of each (entity, obj, truth,
        entity_key, object_key) row, whose keys are those `normalize_key`
        gives its names.

        Each slot is set through its descriptor, looked up by field name,
        instead of through the frozen `__init__`'s `object.__setattr__`.
        """
        slot = {name: getattr(cls, name).__set__ for name in cls.__slots__}
        set_entity, set_relation, set_object = slot["entity"], slot["relation"], slot["object"]
        set_truth, set_entity_key, set_object_key = (
            slot["truth"], slot["entity_key"], slot["object_key"])
        new, triples = object.__new__, []
        for entity, obj, truth, entity_key, object_key in rows:
            _check_truth(truth)
            triple = new(cls)
            set_entity(triple, entity)
            set_relation(triple, relation)
            set_object(triple, obj)
            set_truth(triple, truth)
            set_entity_key(triple, entity_key)
            set_object_key(triple, object_key)
            triples.append(triple)
        return triples


def _check_truth(truth) -> None:
    if truth is not None and not (0 <= truth <= 7):
        raise ValueError(f"truth score must be in [0, 7], got {truth}")


@dataclass(frozen=True)
class ObjectUniverse:
    """All objects of one relation, as sorted unique normalized keys; never empty."""

    relation: Relation
    objects: tuple[str, ...]

    def __post_init__(self):
        if not self.objects:
            raise EmptyUniverseError("object universe is empty")
        if any(a >= b for a, b in zip(self.objects, self.objects[1:])):
            raise ValueError("universe objects must be sorted and unique")

    @classmethod
    def from_names(cls, relation: Relation, names) -> "ObjectUniverse":
        seen = set()
        for name in names:
            key = normalize_key(name)
            if key in seen:
                raise DuplicateKeyError(key)
            seen.add(key)
        return cls(relation=relation, objects=tuple(sorted(seen)))


@dataclass(frozen=True)
class FeatureVector:
    obj_entity_sim: float
    ops: float
    ops_rank: float
    object_mention: float
    missing: frozenset[str] = frozenset()

    def values(self) -> tuple[float, float, float, float]:
        return (self.obj_entity_sim, self.ops, self.ops_rank, self.object_mention)

    @classmethod
    def rows(cls, X: np.ndarray, missing) -> list["FeatureVector"]:
        """One vector per row of an (n, 4) feature matrix, with that row's flags."""
        return [cls(*row, flags) for row, flags in zip(X.tolist(), missing)]


# Cap on the bytes of each temporary array the features are computed in; a
# chunk of `_Pages.outer` holds at least one page's U x d products. Every row
# is reduced on its own, so the cap changes no value.
_CHUNK_BYTES = 1 << 20


def _per_chunk(row_bytes: int) -> int:
    """Rows of row_bytes each that fit in one chunk; at least one."""
    return max(1, _CHUNK_BYTES // row_bytes)


def object_entity_similarity(store: EmbeddingStore, entity: str, obj: str) -> float:
    """Cosine between the entity and object embeddings, 0.0 when unavailable."""
    rows, usable = store.rows((normalize_key(entity), normalize_key(obj)))
    return float(rows[0] @ rows[1]) if usable.all() else 0.0


class KeyPlan:
    """The normalized embedding keys one run reads, numbered.

    The keys are numbered in one pass, each at its first appearance: the
    objects first, so that universe objects put first take rows 0..U-1,
    then the entities, then the linked keys of the entities' page
    records. `entities` numbers the distinct entities 0, 1, ... and
    `records` holds their page records, both in first-appearance order. The
    objects and entities given are normalized keys. A plan holds no
    vectors, so one plan serves any store.
    """

    def __init__(self, corpus: Corpus, objects, entities):
        self.entities = {key: i for i, key in enumerate(dict.fromkeys(entities))}
        self.records = [corpus.records.get(key) for key in self.entities]
        keys = dict.fromkeys(chain(objects, self.entities, *(
            record.linked_keys for record in self.records if record is not None)))
        self.rows = dict(zip(keys, range(len(keys))))

    @classmethod
    def of_run(cls, corpus: Corpus, universe: ObjectUniverse,
               triples: list[Triple]) -> "KeyPlan":
        """The plan `extract` reads: the universe objects, each triple's entity
        and object, and the linked entities of those entities' page records,
        plus the universe and the triples, which must share its relation. A
        store of only these keys gives the same features as the full one."""
        for t in triples:
            if t.relation != universe.relation:
                raise RelationMismatchError(f"triple relation {t.relation.value!r} does not "
                                            f"match universe relation {universe.relation.value!r}")
        plan = cls(corpus, [*universe.objects, *(t.object_key for t in triples)],
                   (t.entity_key for t in triples))
        plan.universe, plan.triples = universe, triples
        return plan


def _page_sums(units: np.ndarray, rows: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Each page's sum of the unit rows `rows` lists for it, as numpy sums them alone.

    rows holds page 0's terms[0] rows of units, then page 1's, and so on.
    Pages with the same number of terms are gathered, a chunk at a time,
    into one (pages, terms, d) block and summed over its middle axis,
    which numpy does for each page exactly as it sums that page's own
    (terms, d) rows: row by row, or pairwise when d is 1. So every page
    gets the bits of its own sum. A page without rows sums to +0.0.
    """
    sums = np.zeros((len(terms), units.shape[1]))
    starts = np.cumsum(terms) - terms
    for n in sorted(set(terms.tolist()) - {0}):
        pages = np.flatnonzero(terms == n)
        step = _per_chunk(n * units[0].nbytes)
        for i in range(0, len(pages), step):
            chunk = pages[i:i + step]
            sums[chunk] = units[rows[starts[chunk, None] + np.arange(n)]].sum(axis=1)
    return sums


class _Pages:
    """The plan keys' `store.rows`, only read, and ops against the plan's pages.

    The mean cosine between an object and a page's usable linked entities
    (duplicates counted per occurrence) is the dot product of the object's
    unit vector with the sum of the page's unit vectors, over the
    denominator. Each dot product is an elementwise product summed over
    the last axis, so a pair gets the same value whatever other pairs it
    is computed with.
    """

    def __init__(self, plan: KeyPlan, store: EmbeddingStore, denominator: str):
        if denominator not in (OPS_DENOM_EMBEDDED, OPS_DENOM_ALL):
            raise ValueError(
                f"denominator must be {OPS_DENOM_EMBEDDED!r} or {OPS_DENOM_ALL!r}, "
                f"got {denominator!r}"
            )
        self.units, self.usable = store.rows(plan.rows)
        records = plan.records
        linked = np.array([0 if r is None else len(r.linked_keys) for r in records], dtype=int)
        rows = np.array([plan.rows[key] for r in records if r is not None
                         for key in r.linked_keys], dtype=np.intp)
        used = self.usable[rows]
        terms = np.bincount(np.repeat(np.arange(len(records)), linked)[used],
                            minlength=len(records))
        self.sums = _page_sums(self.units, rows[used], terms)
        self.live = terms > 0
        denoms = terms if denominator == OPS_DENOM_EMBEDDED else linked
        self.denoms = np.where(self.live, denoms, 1).astype(float)

    def outer(self, first: int, last: int, n_rows: int) -> np.ndarray:
        """ops of plan rows 0..n_rows-1 (columns) against pages first..last-1.

        Zero for unusable rows and for pages without a usable term.
        """
        rows, sums = self.units[:n_rows], self.sums[first:last]
        dots = np.empty((len(sums), n_rows))
        step = _per_chunk(rows.nbytes)
        for i in range(0, len(sums), step):
            dots[i:i + step] = (sums[i:i + step, None] * rows).sum(axis=-1)
        keep = self.usable[:n_rows] & self.live[first:last, None]
        return np.where(keep, dots / self.denoms[first:last, None], 0.0)

    def paired(self, pages: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """ops of plan row rows[i] against page pages[i], for each i."""
        dots = (self.units[rows] * self.sums[pages]).sum(axis=1)
        keep = self.usable[rows] & self.live[pages]
        return np.where(keep, dots / self.denoms[pages], 0.0)


def _places(values: np.ndarray, value: np.ndarray, position: np.ndarray) -> np.ndarray:
    """1-based rank of each object by descending ops in its row of universe ops.

    value[i] is the object's ops and position[i] the number of universe
    keys that sort before its key, so equal ops rank those keys first.
    For a universe object, position is its own column, and the rank is
    the one a stable sort of the row by descending ops gives it.
    """
    ahead = np.count_nonzero(values > value[:, None], axis=1)
    before = np.arange(values.shape[1]) < position[:, None]
    tied = np.count_nonzero((values == value[:, None]) & before, axis=1)
    return ahead + tied + 1


def ops(store: EmbeddingStore, corpus: Corpus, entity: str, obj: str,
        denominator: str = "embedded") -> float:
    """Average object-to-page-entity similarity; 0.0 when no term exists.

    denominator="embedded" divides by the number of contributing terms;
    "all" divides by the total linked-entity count, so unembeddable page
    entities drag the average toward zero.
    """
    plan = KeyPlan(corpus, (normalize_key(obj),), (normalize_key(entity),))
    pages = _Pages(plan, store, denominator)
    first = np.zeros(1, dtype=int)
    return float(pages.paired(first, first)[0])


def ops_rank(store: EmbeddingStore, corpus: Corpus, entity: str,
             universe: ObjectUniverse, denominator: str = "embedded") -> dict[str, int]:
    """1-based rank of every universe object by descending ops for the entity.

    Ties break on ascending object key so the ranking is a deterministic
    bijection onto 1..len(universe).
    """
    n_objects = len(universe.objects)
    plan = KeyPlan(corpus, universe.objects, (normalize_key(entity),))
    values = _Pages(plan, store, denominator).outer(0, 1, n_objects)
    ranks = _places(np.broadcast_to(values, (n_objects, n_objects)), values[0],
                    np.arange(n_objects))
    return dict(zip(universe.objects, ranks.tolist()))


def object_mention_feature(corpus: Corpus, entity: str, obj: str) -> float:
    """1.0 iff the object phrase occurs anywhere in the entity's page."""
    record = corpus.get(entity)
    return 1.0 if record is not None and mentions(record, obj) else 0.0


def _flag_sets() -> tuple[frozenset[str], ...]:
    """Missing flags by row code. Bit 0: unusable entity vector; bit 1:
    unusable object vector; bit 2: no page record; bit 3: no usable page
    term. Any of the last three means no ops term."""
    named = (FLAG_ENTITY_EMBEDDING, FLAG_OBJECT_EMBEDDING, FLAG_PAGE_RECORD)
    sets = []
    for code in range(16):
        flags = {flag for bit, flag in enumerate(named) if code >> bit & 1}
        if code & 0b1110:
            flags.add(FLAG_OPS_TERMS)
        sets.append(frozenset(flags))
    return tuple(sets)


_FLAG_SETS = _flag_sets()


def extract_columns(store: EmbeddingStore, plan: KeyPlan, *,
                    ops_denominator: str = "embedded"
                    ) -> tuple[np.ndarray, list[frozenset[str]]]:
    """(n, 4) feature matrix of the plan's triples, in input order, with
    each row's missing flags.

    `plan` is `KeyPlan.of_run` of the corpus, universe and triples. The
    store's unit rows are read in plan order (`EmbeddingStore.rows`), and
    each entity's page is summed once.
    One loop walks the rows, sorted by entity, a chunk at a time: the chunk's
    entities get their universe ops (twice, with the same bits, for one whose
    rows span two chunks), then each row its ops, its place in its entity's
    universe row, and its similarity. Each page is lowercased once for all of
    its entity's mention searches.
    """
    triples, objects = plan.triples, plan.universe.objects
    n_objects = len(objects)
    pages = _Pages(plan, store, ops_denominator)
    entity = np.array([plan.entities[t.entity_key] for t in triples], dtype=int)
    obj = np.array([plan.rows[t.object_key] for t in triples], dtype=int)
    e_row = np.array([plan.rows[t.entity_key] for t in triples], dtype=int)
    position = np.array([bisect_left(objects, t.object_key) for t in triples], dtype=int)

    units, usable = pages.units, pages.usable
    values = np.zeros(len(triples))
    ranks = np.zeros(len(triples), dtype=int)
    sims = np.zeros(len(triples))
    order = np.argsort(entity, kind="stable")
    step = _per_chunk(8 * max(n_objects, units.shape[1]))
    for i in range(0, len(triples), step):
        part = order[i:i + step]
        first, last = entity[part[0]], entity[part[-1]]
        universe_ops = pages.outer(first, last + 1, n_objects)
        values[part] = pages.paired(entity[part], obj[part])
        ranks[part] = _places(universe_ops[entity[part] - first], values[part], position[part])
        # one `@` per row: numpy's stacked matmul calls dot for each 1 x d by d x 1 pair
        a, b = units[e_row[part]], units[obj[part]]
        sims[part] = (a[:, None, :] @ b[:, :, None])[:, 0, 0]
    sims = np.where(usable[e_row] & usable[obj], sims, 0.0)

    no_record = np.array([record is None for record in plan.records], dtype=bool)
    codes = (~usable[e_row] * 1 + ~usable[obj] * 2
             + no_record[entity] * 4 + ~pages.live[entity] * 8)

    texts = [None if record is None else (record.page_text, record.page_text.lower())
             for record in plan.records]
    mention = [0.0 if text is None or _search(surface_form(t.object_key), *text) is None
               else 1.0 for t, text in zip(triples, map(texts.__getitem__, entity.tolist()))]

    X = np.column_stack((sims, values, ranks.astype(float), mention))
    return X, [_FLAG_SETS[code] for code in codes.tolist()]


def extract(store: EmbeddingStore, plan: KeyPlan, *,
            ops_denominator: str = "embedded") -> list[FeatureVector]:
    """Feature vectors for the plan's triples, in input order: the rows of
    `extract_columns`."""
    return FeatureVector.rows(*extract_columns(store, plan, ops_denominator=ops_denominator))


def matrix(vectors: list[FeatureVector]) -> np.ndarray:
    """Stack feature vectors into an (n, 4) float matrix."""
    return np.array([fv.values() for fv in vectors], dtype=float).reshape(len(vectors), len(FEATURE_NAMES))


@dataclass(frozen=True)
class Standardizer:
    """Per-column z-score transform fitted on training data.

    Columns with zero spread are centered only; population stddev is used.
    """

    means: tuple[float, ...]
    stddevs: tuple[float, ...]

    def __post_init__(self):
        if not (np.all(np.isfinite(self.means)) and np.all(np.isfinite(self.stddevs))):
            raise ValueError("standardizer means and stddevs must be finite")
        if min(self.stddevs, default=0.0) < 0:
            raise ValueError("standardizer stddevs must be >= 0")

    def apply(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        means = np.asarray(self.means)
        stds = np.asarray(self.stddevs)
        if X.ndim != 2 or X.shape[1] != means.shape[0]:
            raise ValueError(f"expected an (n, {means.shape[0]}) matrix, got {X.shape}")
        scale = np.where(stds == 0.0, 1.0, stds)
        return (X - means) / scale


def fit_standardizer(X) -> Standardizer:
    """Column means and population stddevs of a non-empty training matrix."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected an (n, p) matrix, got {X.shape}")
    if X.size == 0:
        raise EmptyTrainingSetError("cannot fit a standardizer on an empty matrix")
    means = X.mean(axis=0)
    stds = X.std(axis=0)
    return Standardizer(means=tuple(float(m) for m in means),
                        stddevs=tuple(float(s) for s in stds))


def load_triples(path, relation: Relation) -> list[Triple]:
    """Load a TSV triple file: entity<TAB>object[<TAB>score].

    An absent or empty score column means unscored; otherwise the score
    must be an integer in [0, 7]. A normalized (entity, object) pair may
    occur once: a repeat is a `DuplicateKeyError` naming the file and the
    pair. Each distinct name is normalized once, however often it occurs.
    """
    rows = []
    pairs = set()
    keys = KeyCache()
    for line_no, line in text_lines(path):
        line = line.rstrip("\n").rstrip("\r")
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) not in (2, 3):
            raise MalformedLineError(
                path, line_no, f"expected 2 or 3 tab-separated fields, got {len(fields)}"
            )
        entity, obj = fields[0].strip(), fields[1].strip()
        if not entity or not obj:
            raise MalformedLineError(path, line_no, "entity and object must be non-empty")
        truth = None
        if len(fields) == 3 and fields[2].strip():
            try:
                truth = int(fields[2].strip())
            except ValueError:
                raise MalformedLineError(
                    path, line_no, f"score must be an integer, got {fields[2].strip()!r}"
                ) from None
            if not (0 <= truth <= 7):
                raise MalformedLineError(path, line_no, f"score must be in [0, 7], got {truth}")
        pair = (keys[entity], keys[obj])
        if pair in pairs:
            raise DuplicateKeyError(f"{entity}/{obj}", path)
        pairs.add(pair)
        rows.append((entity, obj, truth, *pair))
    return Triple._keyed(relation, rows)


def load_universe(path, relation: Relation) -> ObjectUniverse:
    """Load an object universe file: one object name per line.

    Lines starting with '#' are comments; a '# relation: <name>' comment
    declares the file's relation and must match the requested one.
    """
    names = []
    for line_no, line in text_lines(path):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped.lstrip("#").strip()
            if body.lower().startswith("relation:"):
                declared = body.split(":", 1)[1].strip()
                try:
                    declared_relation = Relation.parse(declared)
                except UnknownRelationError as exc:
                    raise MalformedLineError(path, line_no, str(exc)) from None
                if declared_relation != relation:
                    raise RelationMismatchError(
                        f"{path}:{line_no}: universe file declares relation "
                        f"{declared!r}, requested {relation.value!r}"
                    )
            continue
        names.append(stripped)
    try:
        return ObjectUniverse.from_names(relation, names)
    except DuplicateKeyError as exc:
        raise DuplicateKeyError(exc.key, path) from None
    except EmptyUniverseError:
        raise EmptyUniverseError(f"{path}: object universe is empty") from None


def matrix_to_tsv(triples: list[Triple], vectors: list[FeatureVector]) -> str:
    """Debug-friendly TSV with header: raw features plus missing flags."""
    header = "entity\tobject\ttruth\t" + "\t".join(FEATURE_NAMES) + "\tmissing"
    lines = [header]
    for t, fv in zip(triples, vectors):
        truth = "" if t.truth is None else str(t.truth)
        values = "\t".join(repr(v) for v in fv.values())
        flags = ",".join(sorted(fv.missing))
        lines.append(f"{t.entity}\t{t.object}\t{truth}\t{values}\t{flags}")
    return "\n".join(lines) + "\n"


def missing_summary(vectors: list[FeatureVector]) -> str:
    """One-line report of how many rows carry each missing-data flag."""
    counts: dict[str, int] = {}
    flagged = 0
    for fv in vectors:
        if fv.missing:
            flagged += 1
        for flag in fv.missing:
            counts[flag] = counts.get(flag, 0) + 1
    if not counts:
        return f"missing data: none ({len(vectors)} rows)"
    parts = ", ".join(f"{flag}: {counts[flag]}" for flag in sorted(counts))
    return f"missing data: {flagged}/{len(vectors)} rows flagged ({parts})"
