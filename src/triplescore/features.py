"""The four per-triple features and standardized matrix assembly.

Features, in canonical column order:
  obj_entity_sim  cosine between entity and object embeddings
  ops             mean cosine between the object and the entity's page entities
  ops_rank        1-based position of the object when the whole object
                  universe is sorted by ops for that entity (1 = highest)
  object_mention  1.0 iff the object phrase occurs in the entity's page

Missing inputs never raise here: the affected feature becomes 0.0 and a
flag is recorded on the vector, so coverage gaps in embedding or corpus
files stay visible without killing a run.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .corpus import FULL_PAGE, Corpus, mentions
from .embeddings import EmbeddingStore, normalize_key
from .errors import (
    DuplicateKeyError,
    EmptyTrainingSetError,
    EmptyUniverseError,
    MalformedLineError,
    RelationMismatchError,
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
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(r.value for r in cls)
            raise ValueError(f"unknown relation {name!r}; expected one of: {valid}") from None


@dataclass(frozen=True)
class Triple:
    """(entity, relation, object) with an optional ground-truth score 0..7.

    The normalized entity and object keys are computed once, at
    construction; they take no part in equality, hashing or repr.
    """

    entity: str
    relation: Relation
    object: str
    truth: int | None = None
    entity_key: str = field(init=False, repr=False, compare=False)
    object_key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.truth is not None and not (0 <= self.truth <= 7):
            raise ValueError(f"truth score must be in [0, 7], got {self.truth}")
        object.__setattr__(self, "entity_key", normalize_key(self.entity))
        object.__setattr__(self, "object_key", normalize_key(self.object))


@dataclass(frozen=True)
class ObjectUniverse:
    """All objects of one relation, as sorted unique normalized keys; never empty."""

    relation: Relation
    objects: tuple[str, ...]

    def __post_init__(self):
        if not self.objects:
            raise EmptyUniverseError("object universe is empty")

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


def _unit_rows(store: EmbeddingStore, keys) -> tuple[np.ndarray, np.ndarray]:
    """Unit-normalised rows of the keys' vectors, and which rows are usable.

    A vector is usable iff the store holds it and its norm is a positive
    finite number. This one rule decides the similarity flags, the ops
    terms and the ops_terms flag. The rows of unusable vectors are
    meaningless.
    """
    rows = np.zeros((len(keys), store.dim))
    for i, key in enumerate(keys):
        vec = store.lookup(key)
        if vec is not None:
            rows[i] = vec
    norms = np.linalg.norm(rows, axis=1)
    usable = (norms > 0.0) & np.isfinite(norms)
    rows[usable] /= norms[usable, None]
    return rows, usable


def object_entity_similarity(store: EmbeddingStore, entity: str, obj: str) -> float:
    """Cosine between the entity and object embeddings, 0.0 when unavailable."""
    rows, usable = _unit_rows(store, (entity, obj))
    return float(rows[0] @ rows[1]) if usable.all() else 0.0


class _OpsKernel:
    """ops of any object against one entity's page.

    The mean cosine between an object and the page's usable linked
    entities (duplicates counted per occurrence) is the dot product of the
    object's unit vector with the sum of the page's unit vectors, over the
    denominator. Each object row is reduced on its own, so an object gets
    the same value whatever other rows it is computed with.
    """

    def __init__(self, store, corpus, entity, denominator):
        if denominator not in (OPS_DENOM_EMBEDDED, OPS_DENOM_ALL):
            raise ValueError(
                f"denominator must be {OPS_DENOM_EMBEDDED!r} or {OPS_DENOM_ALL!r}, "
                f"got {denominator!r}"
            )
        self.record = corpus.get(entity)
        linked = self.record.linked_entities if self.record is not None else ()
        page, usable = _unit_rows(store, linked)
        self.n_terms = int(usable.sum())
        self.page_sum = page[usable].sum(axis=0)
        self.denom = self.n_terms if denominator == OPS_DENOM_EMBEDDED else len(linked)

    def values(self, units: np.ndarray, usable: np.ndarray) -> np.ndarray:
        """ops of each object row; 0.0 for unusable objects and pages without a usable term."""
        if self.n_terms == 0:
            return np.zeros(len(units))
        return np.where(usable, (units * self.page_sum).sum(axis=1) / self.denom, 0.0)


class _Ranking:
    """ops of every universe object for one entity, and their 1-based ranks."""

    def __init__(self, kernel: _OpsKernel, keys: tuple[str, ...], units, usable):
        self.kernel, self.keys = kernel, keys
        self.ops = kernel.values(units, usable)
        # keys are sorted, so a stable sort breaks ties on ascending key
        order = np.argsort(-self.ops, kind="stable")
        self.ranks = np.empty(len(keys), dtype=int)
        self.ranks[order] = np.arange(1, len(keys) + 1)

    def place(self, key: str, units, usable) -> tuple[float, int]:
        """ops of an object outside the universe, and the rank it would take."""
        value = self.kernel.values(units, usable)[0]
        ahead = np.count_nonzero(self.ops > value)
        tied = np.count_nonzero(self.ops[:bisect_left(self.keys, key)] == value)
        return float(value), int(ahead + tied) + 1


def ops(store: EmbeddingStore, corpus: Corpus, entity: str, obj: str,
        denominator: str = "embedded") -> float:
    """Average object-to-page-entity similarity; 0.0 when no term exists.

    denominator="embedded" divides by the number of contributing terms;
    "all" divides by the total linked-entity count, so unembeddable page
    entities drag the average toward zero.
    """
    kernel = _OpsKernel(store, corpus, entity, denominator)
    return float(kernel.values(*_unit_rows(store, (obj,)))[0])


def ops_rank(store: EmbeddingStore, corpus: Corpus, entity: str,
             universe: ObjectUniverse, denominator: str = "embedded") -> dict[str, int]:
    """1-based rank of every universe object by descending ops for the entity.

    Ties break on ascending object key so the ranking is a deterministic
    bijection onto 1..len(universe).
    """
    units, usable = _unit_rows(store, universe.objects)
    ranking = _Ranking(_OpsKernel(store, corpus, entity, denominator),
                       universe.objects, units, usable)
    return dict(zip(universe.objects, ranking.ranks.tolist()))


def object_mention_feature(corpus: Corpus, entity: str, obj: str) -> float:
    """1.0 iff the object phrase occurs anywhere in the entity's page."""
    record = corpus.get(entity)
    if record is None:
        return 0.0
    return 1.0 if mentions(record, obj, FULL_PAGE) else 0.0


def extract(store: EmbeddingStore, corpus: Corpus, universe: ObjectUniverse,
            triples: list[Triple], *, ops_denominator: str = "embedded") -> list[FeatureVector]:
    """Feature vectors for the triples, in input order.

    The universe is normalised once; the page and the ranking are built
    once per distinct entity and reused for all of that entity's triples.
    """
    for t in triples:
        if t.relation != universe.relation:
            raise RelationMismatchError(
                f"triple relation {t.relation.value!r} does not match "
                f"universe relation {universe.relation.value!r}"
            )

    keys = universe.objects
    index = {key: i for i, key in enumerate(keys)}
    units, usable = _unit_rows(store, keys)
    entities = {}
    out = []
    for t in triples:
        ekey, okey = t.entity_key, t.object_key
        if ekey not in entities:
            e_units, e_usable = _unit_rows(store, (ekey,))
            kernel = _OpsKernel(store, corpus, ekey, ops_denominator)
            entities[ekey] = (e_units[0], e_usable[0], _Ranking(kernel, keys, units, usable))
        e_unit, e_usable, ranking = entities[ekey]
        kernel = ranking.kernel

        if okey in index:
            i = index[okey]
            o_unit, o_usable = units[i], usable[i]
            ops_value, rank = float(ranking.ops[i]), int(ranking.ranks[i])
        else:
            o_units, o_usables = _unit_rows(store, (okey,))
            o_unit, o_usable = o_units[0], o_usables[0]
            ops_value, rank = ranking.place(okey, o_units, o_usables)

        flags = set()
        if not e_usable:
            flags.add(FLAG_ENTITY_EMBEDDING)
        if not o_usable:
            flags.add(FLAG_OBJECT_EMBEDDING)
        if kernel.record is None:
            flags.add(FLAG_PAGE_RECORD)
        if kernel.record is None or not o_usable or kernel.n_terms == 0:
            flags.add(FLAG_OPS_TERMS)
        sim = float(e_unit @ o_unit) if e_usable and o_usable else 0.0

        out.append(
            FeatureVector(
                obj_entity_sim=sim,
                ops=ops_value,
                ops_rank=float(rank),
                object_mention=object_mention_feature(corpus, ekey, okey),
                missing=frozenset(flags),
            )
        )
    return out


def lookup_keys(corpus: Corpus, universe: ObjectUniverse,
                triples: list[Triple]) -> set[str]:
    """Every normalized key `extract` can look up in the embedding store.

    These are the universe objects, each triple's entity and object, and
    the linked entities of each triple entity's page record; a store
    loaded with only these keys gives the same features as the full one.
    """
    entities = {t.entity_key for t in triples}
    keys = set(universe.objects) | entities | {t.object_key for t in triples}
    for ekey in entities:
        record = corpus.get(ekey)
        if record is not None:
            keys.update(map(normalize_key, record.linked_entities))
    return keys


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

    def apply(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        means = np.asarray(self.means)
        stds = np.asarray(self.stddevs)
        if X.shape[1] != means.shape[0]:
            raise ValueError(f"expected {means.shape[0]} columns, got {X.shape[1]}")
        scale = np.where(stds == 0.0, 1.0, stds)
        return (X - means) / scale

    def to_dict(self) -> dict:
        return {"means": list(self.means), "stddevs": list(self.stddevs)}

    @classmethod
    def from_dict(cls, data: dict) -> "Standardizer":
        return cls(means=tuple(data["means"]), stddevs=tuple(data["stddevs"]))


def fit_standardizer(X) -> Standardizer:
    """Column means and population stddevs of a non-empty training matrix."""
    X = np.asarray(X, dtype=float)
    if X.size == 0 or X.shape[0] == 0:
        raise EmptyTrainingSetError("cannot fit a standardizer on an empty matrix")
    means = X.mean(axis=0)
    stds = X.std(axis=0)
    return Standardizer(means=tuple(float(m) for m in means),
                        stddevs=tuple(float(s) for s in stds))


def load_triples(path, relation: Relation) -> list[Triple]:
    """Load a TSV triple file: entity<TAB>object[<TAB>score].

    An absent or empty score column means unscored; otherwise the score
    must be an integer in [0, 7].
    """
    triples = []
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
        triples.append(Triple(entity=entity, relation=relation, object=obj, truth=truth))
    return triples


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
                if Relation.parse(declared) != relation:
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
