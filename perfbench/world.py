"""Deterministic planted-signal world generator.

A world is the set of files the triplescore CLI reads: a word2vec-text
embedding file, a JSON-lines page corpus, an object universe and triple
TSVs. The same seed and spec always give byte-identical files.

Signal is planted so the paper's headline finding holds: each person has
two "core" universe objects, their page entities cluster around those
objects, and the truth score of a triple is a noisy monotone function of
the object's ops rank among the universe and of whether the page
mentions it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference

SYLLABLES = tuple(c + v for c in "bdfgklmnprstvz" for v in "aeiou")
SCALE = 1e5          # vector components are written with five decimals
LIMIT = 99999        # |component| <= LIMIT / SCALE
CORE_PER_PERSON = 2


@dataclass(frozen=True)
class WorldSpec:
    persons: int                 # persons with triples (train plus held out)
    universe: int                # U, objects of the relation
    page_len: int                # L, linked entities per page
    dim: int                     # d, embedding dimension
    triples_per_person: int
    filler: int = 0              # extra embedding vectors nothing refers to
    oou_share: float = 0.0       # share of triples whose object is out of universe
    unembedded_share: float = 0.0  # share of page entities without a vector
    pageless_share: float = 0.0  # share of persons without a corpus record
    holdout: int = 0             # persons written to test.tsv instead of triples.tsv


class _Names:
    """Unique pseudo-words drawn from the world's generator."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.taken: set[str] = set()

    def word(self, lo: int = 2, hi: int = 3) -> str:
        n = int(self.rng.integers(lo, hi + 1))
        return "".join(SYLLABLES[i] for i in self.rng.integers(0, len(SYLLABLES), n))

    def unique(self, words: int) -> str:
        while True:
            name = " ".join(self.word().capitalize() for _ in range(words))
            key = reference.normalize_key(name)
            if key not in self.taken:
                self.taken.add(key)
                return name


def _quantize(rng: np.random.Generator, shape, loc=None, sigma=0.3) -> np.ndarray:
    """Integer components in [-LIMIT, LIMIT]; value = component / SCALE."""
    x = rng.normal(0.0, sigma, shape)
    if loc is not None:
        x = x + loc
    return np.rint(np.clip(x, -LIMIT / SCALE, LIMIT / SCALE) * SCALE).astype(np.int64)


def _format_table() -> np.ndarray:
    # Each component is exactly nine bytes with a leading-space pad, so a
    # row of the table concatenates into a space-separated line.
    values = (np.arange(2 * LIMIT + 1) - LIMIT) / SCALE
    return np.array([f"{v:9.5f}".encode() for v in values], dtype="S9")


def _write_embeddings(path: Path, keys: list[str], ints: np.ndarray, filler: int,
                      rng: np.random.Generator, dim: int) -> None:
    table = _format_table()
    with open(path, "wb") as fh:
        fh.write(f"{len(keys) + filler} {dim}\n".encode())
        body = table[ints + LIMIT]
        for key, row in zip(keys, body):
            fh.write(key.encode() + row.tobytes() + b"\n")
        chunk = 8192
        for start in range(0, filler, chunk):
            n = min(chunk, filler - start)
            body = table[_quantize(rng, (n, dim)) + LIMIT]
            fh.write(b"".join(
                f"filler_{start + i:06d}".encode() + body[i].tobytes() + b"\n"
                for i in range(n)
            ))


def _truth(rng, rank: int, universe: int, mention: float) -> int:
    # Rank 1 maps to 7 and the last rank to 0, concave so that a random
    # object lands mid-scale; a mention adds about one class.
    base = 7.0 * (1.0 - math.sqrt(min(rank - 1, universe - 1) / (universe - 1)))
    return int(np.clip(np.rint(base + 1.2 * mention - 0.6 + rng.normal(0.0, 1.0)), 0, 7))


def generate(spec: WorldSpec, seed: int, out_dir) -> dict:
    """Write the world's files into out_dir; return its train and test row counts."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    names = _Names(rng)
    U, L, d, T = spec.universe, spec.page_len, spec.dim, spec.triples_per_person

    objects = [names.unique(1 + (rng.random() < 0.25)) for _ in range(U)]
    n_oou = max(1, math.ceil(spec.oou_share * spec.persons * T)) if spec.oou_share else 0
    oou_objects = [names.unique(1 + (rng.random() < 0.25)) for _ in range(n_oou)]
    filler_words = [names.word() for _ in range(300)]
    obj_ints = _quantize(rng, (U + n_oou, d))
    obj_vals = obj_ints / SCALE

    row_of = {name: i for i, name in enumerate(objects + oou_objects)}
    universe_vecs = {reference.normalize_key(o): obj_vals[i] for i, o in enumerate(objects)}
    emb_keys = [reference.normalize_key(n) for n in objects + oou_objects]
    emb_ints = [obj_ints]
    records, triple_rows = [], []
    for p in range(spec.persons):
        person = names.unique(2)
        core = rng.choice(U, CORE_PER_PERSON, replace=False)
        topic = obj_vals[core].mean(axis=0)
        person_ints = _quantize(rng, (1, d), loc=topic)
        emb_keys.append(reference.normalize_key(person))
        emb_ints.append(person_ints)

        has_page = rng.random() >= spec.pageless_share
        page_entities = [names.unique(2) for _ in range(L)]
        page_ints = _quantize(rng, (L, d), loc=topic, sigma=0.35)
        embedded = rng.random(L) >= spec.unembedded_share
        for name, row, keep in zip(page_entities, page_ints, embedded):
            if keep:
                emb_keys.append(reference.normalize_key(name))
                emb_ints.append(row[None, :])

        others = rng.permutation(np.setdiff1d(np.arange(U), core))[: T - CORE_PER_PERSON]
        chosen = [objects[i] for i in core] + [objects[i] for i in others]
        for slot in range(T):
            if n_oou and rng.random() < spec.oou_share:
                chosen[slot] = oou_objects[int(rng.integers(0, n_oou))]
        chosen = list(dict.fromkeys(chosen))

        # Page text: filler words with mentions of the likely-relevant
        # objects; the abstract leads with the core objects.
        words = [filler_words[i] for i in rng.integers(0, len(filler_words), 6 * L)]
        for slot, obj in enumerate(chosen):
            if rng.random() < (0.8 if slot < CORE_PER_PERSON else 0.25):
                words.insert(int(rng.integers(0, len(words) + 1)), obj.lower())
        lead = [objects[i] for i in core if rng.random() < 0.7]
        rng.shuffle(lead)
        abstract = f"{person} is known as " + " and ".join(lead or ["a person"]) + "."
        page_text = abstract + " " + " ".join(words) + "."
        if has_page:
            records.append({"person": person, "entities": page_entities,
                            "abstract": abstract, "page": page_text})

        # Planted truth from the ranks the features will see.
        page_vecs = (page_ints[embedded] / SCALE) if has_page else np.zeros((0, d))
        cand = {reference.normalize_key(o): obj_vals[row_of[o]] for o in chosen}
        ranks = reference.rank_objects(universe_vecs, cand, page_vecs)
        for obj in chosen:
            key = reference.normalize_key(obj)
            mention = float(has_page and reference.mentions(page_text, key))
            triple_rows.append((p, person, obj, _truth(rng, ranks[key], U, mention)))

    _write_embeddings(out / "embeddings.txt", emb_keys, np.concatenate(emb_ints), spec.filler,
                      rng, d)
    with open(out / "corpus.jsonl", "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    (out / "universe.txt").write_text(
        "# relation: profession\n" + "".join(o + "\n" for o in objects), encoding="utf-8")

    n_train = spec.persons - spec.holdout
    train = [r for r in triple_rows if r[0] < n_train]
    test = [r for r in triple_rows if r[0] >= n_train]
    _write_tsv(out / "triples.tsv", train, truth=True)
    if test:
        _write_tsv(out / "test.tsv", test, truth=False)
        _write_tsv(out / "test_truth.tsv", test, truth=True)
    return {"train_rows": len(train), "test_rows": len(test)}


def _write_tsv(path: Path, rows, truth: bool) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for _, person, obj, score in rows:
            fh.write(f"{person}\t{obj}\t{score}\n" if truth else f"{person}\t{obj}\n")
