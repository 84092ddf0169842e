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
from copy import copy
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain

import numpy as np

from .corpus import Corpus, _search, mentions, surface_form
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


# Cap on the bytes of each temporary array the features are computed in.
# Every row is reduced on its own, so the cap changes no value.
_CHUNK_BYTES = 1 << 20


def _per_chunk(row_bytes: int) -> int:
    """Rows of row_bytes each that fit in one chunk; at least one."""
    return max(1, _CHUNK_BYTES // row_bytes)


def _unit_rows(store: EmbeddingStore, keys) -> tuple[np.ndarray, np.ndarray]:
    """Unit-normalised rows of the normalized keys' vectors, and which rows are usable.

    A vector is usable iff the store holds it and its norm is a positive
    finite number. This one rule decides the similarity flags, the ops
    terms and the ops_terms flag. The rows of unusable vectors are zero.
    """
    rows, usable = store.rows(keys)
    step = _per_chunk(8 * store.dim)
    for i in range(0, len(rows), step):
        part = rows[i:i + step]
        norms = np.linalg.norm(part, axis=1)
        ok = usable[i:i + step] = (norms > 0.0) & np.isfinite(norms)
        part /= np.where(ok, norms, 1.0)[:, None]
        part[~ok] = 0.0
    return rows, usable


def object_entity_similarity(store: EmbeddingStore, entity: str, obj: str) -> float:
    """Cosine between the entity and object embeddings, 0.0 when unavailable."""
    rows, usable = _unit_rows(store, (normalize_key(entity), normalize_key(obj)))
    return float(rows[0] @ rows[1]) if usable.all() else 0.0


class KeyPlan:
    """The normalized embedding keys one run reads, numbered.

    The keys are numbered in one pass, each at its first appearance: the
    objects first, so that universe objects put first take rows 0..U-1,
    then the entities, then the linked keys of the entities' page
    records. `build` reads them all with one `_unit_rows` call. The
    objects and entities given are normalized keys.
    """

    def __init__(self, corpus: Corpus, objects, entities):
        self.entities = list(dict.fromkeys(entities))
        self.records = [corpus.records.get(key) for key in self.entities]
        keys = dict.fromkeys(chain(objects, self.entities, *(
            record.linked_keys for record in self.records if record is not None)))
        self.rows = dict(zip(keys, range(len(keys))))
        self.inputs = None

    @classmethod
    def of_run(cls, corpus: Corpus, universe: ObjectUniverse,
               triples: list[Triple]) -> "KeyPlan":
        """The plan of the keys `extract` reads for these inputs: the universe
        objects, each triple's entity and object, and the linked entities of
        those entities' page records. A store of only these keys gives the
        same features as the full one."""
        plan = cls(corpus, [*universe.objects, *(t.object_key for t in triples)],
                   (t.entity_key for t in triples))
        plan.inputs = (corpus, universe, triples)
        return plan

    def build(self, store: EmbeddingStore) -> "KeyPlan":
        """A copy that also holds each key's unit row in store, and whether it is usable."""
        table = copy(self)
        table.units, table.usable = _unit_rows(store, list(self.rows))
        return table


def _page_sums(units: np.ndarray, rows: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Each page's sum of the unit rows `rows` lists for it, as numpy sums them alone.

    rows holds page 0's terms[0] table rows, then page 1's, and so on.
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
    """ops of table rows against the pages of the table's entities.

    The mean cosine between an object and a page's usable linked entities
    (duplicates counted per occurrence) is the dot product of the object's
    unit vector with the sum of the page's unit vectors, over the
    denominator. Each dot product is an elementwise product summed over
    the last axis, so a pair gets the same value whatever other pairs it
    is computed with.
    """

    def __init__(self, table: KeyPlan, denominator: str):
        if denominator not in (OPS_DENOM_EMBEDDED, OPS_DENOM_ALL):
            raise ValueError(
                f"denominator must be {OPS_DENOM_EMBEDDED!r} or {OPS_DENOM_ALL!r}, "
                f"got {denominator!r}"
            )
        self.table = table
        records = table.records
        linked = np.array([0 if r is None else len(r.linked_keys) for r in records], dtype=int)
        rows = np.array([table.rows[key] for r in records if r is not None
                         for key in r.linked_keys], dtype=np.intp)
        used = table.usable[rows]
        terms = np.bincount(np.repeat(np.arange(len(records)), linked)[used],
                            minlength=len(records))
        self.sums = _page_sums(table.units, rows[used], terms)
        self.live = terms > 0
        denoms = terms if denominator == OPS_DENOM_EMBEDDED else linked
        self.denoms = np.where(self.live, denoms, 1).astype(float)

    def outer(self, first: int, last: int, n_rows: int) -> np.ndarray:
        """ops of table rows 0..n_rows-1 (columns) against pages first..last-1.

        Zero for unusable rows and for pages without a usable term.
        """
        rows, sums = self.table.units[:n_rows], self.sums[first:last]
        dots = np.empty((len(sums), n_rows))
        per_chunk = _per_chunk(rows[0].nbytes)
        r_step = min(n_rows, per_chunk)
        p_step = max(1, per_chunk // r_step)
        product = np.empty((min(p_step, len(sums)), r_step, rows.shape[1]))
        for i in range(0, len(sums), p_step):
            for j in range(0, n_rows, r_step):
                part_r, part_s = rows[j:j + r_step], sums[i:i + p_step]
                part = product[:len(part_s), :len(part_r)]
                np.multiply(part_r[None], part_s[:, None], out=part)
                dots[i:i + p_step, j:j + r_step] = part.sum(axis=-1)
        keep = self.table.usable[:n_rows] & self.live[first:last, None]
        return np.where(keep, dots / self.denoms[first:last, None], 0.0)

    def paired(self, pages: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """ops of table row rows[i] against page pages[i], for each i."""
        dots = (self.table.units[rows] * self.sums[pages]).sum(axis=1)
        keep = self.table.usable[rows] & self.live[pages]
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
    table = KeyPlan(corpus, (normalize_key(obj),), (normalize_key(entity),))
    pages = _Pages(table.build(store), denominator)
    first = np.zeros(1, dtype=int)
    return float(pages.paired(first, first)[0])


def ops_rank(store: EmbeddingStore, corpus: Corpus, entity: str,
             universe: ObjectUniverse, denominator: str = "embedded") -> dict[str, int]:
    """1-based rank of every universe object by descending ops for the entity.

    Ties break on ascending object key so the ranking is a deterministic
    bijection onto 1..len(universe).
    """
    n_objects = len(universe.objects)
    table = KeyPlan(corpus, universe.objects, (normalize_key(entity),))
    values = _Pages(table.build(store), denominator).outer(0, 1, n_objects)
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


def extract(store: EmbeddingStore, corpus: Corpus, universe: ObjectUniverse,
            triples: list[Triple], *, ops_denominator: str = "embedded",
            plan: KeyPlan | None = None) -> list[FeatureVector]:
    """Feature vectors for the triples, in input order.

    `plan`, if given, is `KeyPlan.of_run` of these same corpus, universe
    and triples objects, made earlier (to choose the vectors to load) and
    not made again. Every key it lists is unit-normalised once, in one
    table, and each entity's page is summed once. The universe ops are
    computed for a chunk of entities at a time; each of the chunk's rows
    then gets its ops, its place among that universe row, and its
    similarity, a chunk of rows at a time. Each page is lowercased once
    for all of its entity's mention searches.
    """
    for t in triples:
        if t.relation != universe.relation:
            raise RelationMismatchError(
                f"triple relation {t.relation.value!r} does not match "
                f"universe relation {universe.relation.value!r}"
            )

    objects = universe.objects
    n_objects = len(objects)
    if plan is None:
        plan = KeyPlan.of_run(corpus, universe, triples)
    elif plan.inputs is None or any(
            a is not b for a, b in zip(plan.inputs, (corpus, universe, triples))):
        raise ValueError("plan was made for other inputs")
    table = plan.build(store)
    pages = _Pages(table, ops_denominator)
    entity_of = {key: i for i, key in enumerate(table.entities)}
    entity = np.array([entity_of[t.entity_key] for t in triples], dtype=int)
    obj = np.array([table.rows[t.object_key] for t in triples], dtype=int)
    e_row = np.array([table.rows[t.entity_key] for t in triples], dtype=int)
    position = np.array([bisect_left(objects, t.object_key) for t in triples], dtype=int)

    units, usable = table.units, table.usable
    values = np.zeros(len(triples))
    ranks = np.zeros(len(triples), dtype=int)
    sims = np.zeros(len(triples))
    order = np.argsort(entity, kind="stable")
    by_entity = entity[order]
    step = _per_chunk(8 * n_objects)
    row_step = _per_chunk(8 * max(n_objects, units.shape[1]))
    for first in range(0, len(table.entities), step):
        universe_ops = pages.outer(first, first + step, n_objects)
        lo, hi = np.searchsorted(by_entity, (first, first + step))
        for i in range(lo, hi, row_step):
            part = order[i:min(i + row_step, hi)]
            values[part] = pages.paired(entity[part], obj[part])
            ranks[part] = _places(universe_ops[entity[part] - first], values[part],
                                  position[part])
            # one `@` per row: numpy's stacked matmul calls dot for each 1 x d by d x 1 pair
            a, b = units[e_row[part]], units[obj[part]]
            sims[part] = (a[:, None, :] @ b[:, :, None])[:, 0, 0]
    sims = np.where(usable[e_row] & usable[obj], sims, 0.0)

    no_record = np.array([record is None for record in table.records], dtype=bool)
    codes = (~usable[e_row] * 1 + ~usable[obj] * 2
             + no_record[entity] * 4 + ~pages.live[entity] * 8)

    texts = [None if record is None else (record.page_text, record.page_text.lower())
             for record in table.records]
    phrases: dict[str, str] = {}
    mention = []
    for t, e in zip(triples, entity.tolist()):
        phrase = phrases.get(t.object_key)
        if phrase is None:
            phrase = phrases[t.object_key] = surface_form(t.object_key)
        text = texts[e]
        found = text is not None and phrase and _search(phrase, *text) is not None
        mention.append(1.0 if found else 0.0)

    return [
        FeatureVector(sim, value, float(rank), mentioned, _FLAG_SETS[code])
        for sim, value, rank, mentioned, code in zip(
            sims.tolist(), values.tolist(), ranks.tolist(), mention, codes.tolist())
    ]


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
