"""Plain-numpy reference for checking the program's outputs.

Nothing here imports triplescore: the four features, the ordinal and
multinomial argmax rules, the optimality of a fitted ordinal or
multinomial model, the first-mention
baseline, entity-grouped fold assignment and the three metrics are
written again from their definitions, so a regression in the package
cannot hide behind the code that is being checked.
"""

from __future__ import annotations

import json
import math
import random
import re
from functools import lru_cache

import numpy as np

NUM_CLASSES = 8
FEATURE_TOL = 1e-12      # |package - reference| allowed on a cosine feature
METRIC_TOL = 1e-9        # allowed on a recomputed fold metric


def normalize_key(raw: str) -> str:
    return "_".join(raw.lower().split())


@lru_cache(maxsize=None)
def _pattern(key: str) -> re.Pattern:
    phrase = key.replace("_", " ").split()
    body = r"\s+".join(re.escape(tok) for tok in phrase)
    return re.compile(rf"(?<![^\W_]){body}(?![^\W_])", re.IGNORECASE | re.UNICODE)


def mentions(text: str, key: str) -> bool:
    """Whole-phrase, case-insensitive, token-delimited occurrence of key."""
    return bool(key.replace("_", " ").split()) and _pattern(key).search(text) is not None


def first_mentioned(abstract: str, keys: list[str]) -> str | None:
    """Earliest start, then longer match, then smaller key."""
    best = None
    for key in keys:
        if not key.replace("_", " ").split():
            continue
        m = _pattern(key).search(abstract)
        if m is not None:
            cand = (m.start(), -(m.end() - m.start()), key)
            best = cand if best is None or cand < best else best
    return None if best is None else best[2]


def _unit_rows(M: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(M, axis=1)
    return M / np.where(norms == 0.0, 1.0, norms)[:, None]


def ops_values(objects: np.ndarray, page: np.ndarray) -> np.ndarray:
    """Mean cosine of each object row to the page rows; 0 when undefined.

    page holds only usable (embedded, non-zero) page-entity vectors, one
    row per occurrence in document order. Zero object rows give 0.
    """
    if page.shape[0] == 0 or objects.shape[0] == 0:
        return np.zeros(objects.shape[0])
    usable = np.any(objects != 0.0, axis=1)
    values = (_unit_rows(objects) @ _unit_rows(page).T).mean(axis=1)
    return np.where(usable, values, 0.0)


def rank_objects(universe: dict, candidates: dict, page: np.ndarray) -> dict:
    """Exact 1-based ops rank of each candidate among the universe.

    Universe objects take their position in the (-ops, key) order; an
    object outside the universe takes the position it would occupy.
    Used by the generator to plant truth scores.
    """
    return rank_bounds(universe, candidates, page, tol=0.0)[0]


def rank_bounds(universe: dict, candidates: dict, page: np.ndarray,
                tol: float = FEATURE_TOL):
    """Lowest and highest rank each candidate may have, plus its ops.

    Rounding differs in the last bits between this kernel and the
    package's, so universe objects whose ops is within tol of the
    candidate's (but not exactly equal) may sort either way. Exact ties
    (the 0.0 of undefined ops) break on the key, as specified.
    """
    ukeys = list(universe)
    uvals = ops_values(np.array([universe[k] for k in ukeys]), page)
    ckeys = list(candidates)
    cvals = ops_values(np.array([candidates[k] for k in ckeys]), page) if ckeys else []
    lo, hi, ops = {}, {}, {}
    key_arr = np.array(ukeys, dtype=object)
    for key, value in zip(ckeys, cvals):
        others = key_arr != key
        diff = uvals - value
        ahead = int(np.sum(others & (diff > tol)))
        tied = int(np.sum(others & (diff == 0.0) & (key_arr < key)))
        fuzzy = int(np.sum(others & (np.abs(diff) <= tol) & (diff != 0.0)))
        lo[key] = 1 + ahead + tied
        hi[key] = lo[key] + fuzzy
        ops[key] = float(value)
    return lo, hi, ops


def read_embeddings(path, wanted: set[str]) -> dict:
    """Vectors for the wanted keys; other lines are skipped unparsed."""
    vectors = {}
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            key, _, rest = line.partition(" ")
            key = normalize_key(key)
            if key in wanted:
                vectors[key] = np.array(rest.split(), dtype=float)
    return vectors


def read_corpus(path) -> dict:
    records = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                records[normalize_key(rec["person"])] = rec
    return records


def read_universe(path) -> list[str]:
    keys = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            s = line.strip()
            if s and not s.startswith("#"):
                keys.append(normalize_key(s))
    return sorted(keys)


def read_triples(path) -> list[tuple[str, str, int | None]]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                f = line.rstrip("\n").split("\t")
                rows.append((f[0], f[1], int(f[2]) if len(f) > 2 and f[2] else None))
    return rows


class World:
    """A generated world read back from its files."""

    def __init__(self, root, triples_file: str):
        self.triples = read_triples(root / triples_file)
        self.universe = read_universe(root / "universe.txt")
        self.records = read_corpus(root / "corpus.jsonl")
        wanted = set(self.universe)
        for ent, obj, _ in self.triples:
            wanted.update((normalize_key(ent), normalize_key(obj)))
        for rec in self.records.values():
            wanted.update(normalize_key(e) for e in rec["entities"])
        self.vectors = read_embeddings(root / "embeddings.txt", wanted)

    def vector(self, key):
        v = self.vectors.get(key)
        return None if v is None or not np.any(v) else v

    def features(self):
        """Reference rows: features, rank bounds and missing flags."""
        dim = next(iter(self.vectors.values())).shape[0]
        universe = {k: self.vectors.get(k, np.zeros(dim)) for k in self.universe}
        by_entity: dict[str, list[int]] = {}
        for i, (ent, _, _) in enumerate(self.triples):
            by_entity.setdefault(normalize_key(ent), []).append(i)
        rows = [None] * len(self.triples)
        for ekey, idx in by_entity.items():
            rec = self.records.get(ekey)
            page = [self.vector(normalize_key(e)) for e in (rec["entities"] if rec else ())]
            page = np.array([v for v in page if v is not None]).reshape(-1, dim)
            okeys = [normalize_key(self.triples[i][1]) for i in idx]
            cands = {k: self.vectors.get(k, np.zeros(dim)) for k in okeys}
            lo, hi, ops = rank_bounds(universe, cands, page)
            ev = self.vector(ekey)
            for i, okey in zip(idx, okeys):
                ov = self.vector(okey)
                flags = set()
                if ev is None:
                    flags.add("entity_embedding")
                if ov is None:
                    flags.add("object_embedding")
                if rec is None:
                    flags.add("page_record")
                if rec is None or ov is None or page.shape[0] == 0:
                    flags.add("ops_terms")
                sim = 0.0 if ev is None or ov is None else float(
                    ev @ ov / (np.linalg.norm(ev) * np.linalg.norm(ov)))
                mention = float(rec is not None and mentions(rec["page"], okey))
                rows[i] = {"sim": sim, "ops": ops[okey], "rank": (lo[okey], hi[okey]),
                           "mention": mention, "flags": sorted(flags),
                           "oou": okey not in universe}
        return rows


def feature_row_ok(ref: dict, x, flags) -> bool:
    sim, ops, rank, mention = (float(v) for v in x)
    return (abs(sim - ref["sim"]) <= FEATURE_TOL
            and abs(ops - ref["ops"]) <= FEATURE_TOL
            and ref["rank"][0] <= rank <= ref["rank"][1] and rank == int(rank)
            and mention == ref["mention"]
            and sorted(flags) == ref["flags"])


def _logistic(t):
    t = np.asarray(t, dtype=float)
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def standardize(X, means, stds):
    stds = np.asarray(stds, dtype=float)
    return (np.asarray(X, dtype=float) - np.asarray(means)) / np.where(stds == 0.0, 1.0, stds)


def ordinal_argmax(X_std, w, theta) -> np.ndarray:
    """Most probable class under the proportional-odds model, lower on ties."""
    cum = _logistic(np.asarray(theta)[None, :] - (X_std @ np.asarray(w))[:, None])
    n = cum.shape[0]
    probs = np.diff(np.hstack([np.zeros((n, 1)), cum, np.ones((n, 1))]), axis=1)
    return np.argmax(probs, axis=1)


def ordinal_gradient(X_std, y, w, theta, reg_lambda) -> np.ndarray:
    """Gradient of the L2-penalized NLL with respect to (w, theta)."""
    w, theta, y = np.asarray(w), np.asarray(theta), np.asarray(y, dtype=int)
    eta = X_std @ w
    ext = np.concatenate(([-np.inf], theta, [np.inf]))
    F_hi, F_lo = _logistic(ext[y + 1] - eta), _logistic(ext[y] - eta)
    f_hi, f_lo = F_hi * (1 - F_hi), F_lo * (1 - F_lo)
    P = F_hi - F_lo
    grad_w = X_std.T @ ((f_hi - f_lo) / P) + reg_lambda * w
    grad_theta = np.zeros(NUM_CLASSES - 1)
    closed_hi, closed_lo = y < NUM_CLASSES - 1, y > 0
    np.add.at(grad_theta, y[closed_hi], -(f_hi / P)[closed_hi])
    np.add.at(grad_theta, y[closed_lo] - 1, (f_lo / P)[closed_lo])
    return np.concatenate([grad_w, grad_theta])


def multinomial_argmax(X_std, W, b) -> np.ndarray:
    """Most probable class under the softmax model, lower on ties."""
    return np.argmax(X_std @ np.asarray(W).T + np.asarray(b), axis=1)


def multinomial_gradient(X_std, y, W, b, reg_lambda) -> np.ndarray:
    """Gradient of the softmax NLL plus reg_lambda/2 ||W||^2 w.r.t. (W, b)."""
    W, y = np.asarray(W), np.asarray(y, dtype=int)
    logits = X_std @ W.T + np.asarray(b)
    P = np.exp(logits - logits.max(axis=1, keepdims=True))
    P /= P.sum(axis=1, keepdims=True)
    P[np.arange(len(y)), y] -= 1.0
    return np.concatenate([(P.T @ X_std + reg_lambda * W).ravel(), P.sum(axis=0)])


def _avg_ranks(x: np.ndarray) -> np.ndarray:
    less = (x[None, :] < x[:, None]).sum(axis=1)
    equal = (x[None, :] == x[:, None]).sum(axis=1)
    return 1 + less + (equal - 1) / 2


def tau_b(pred, truth) -> float:
    """Kendall tau-b with the package's documented end-of-scale rules."""
    x, y = np.asarray(pred, dtype=float), np.asarray(truth, dtype=float)
    rx, ry = _avg_ranks(x), _avg_ranks(y)
    if np.array_equal(rx, ry):
        return 1.0
    if np.array_equal(rx, x.size + 1 - ry):
        return -1.0
    if np.all(x == x[0]) or np.all(y == y[0]):
        return 0.0
    iu = np.triu_indices(x.size, 1)
    sx = np.sign(x[:, None] - x[None, :])[iu]
    sy = np.sign(y[:, None] - y[None, :])[iu]
    return float(np.sum(sx * sy) / math.sqrt(np.sum(sx != 0) * np.sum(sy != 0)))


def metrics(entities, predicted, truth, delta: int = 2) -> dict:
    """acc_d2, asd and per-entity mean Kendall tau-b (singletons count 1)."""
    predicted, truth = np.asarray(predicted), np.asarray(truth)
    diff = np.abs(predicted - truth)
    groups: dict[str, list[int]] = {}
    for i, e in enumerate(entities):
        groups.setdefault(e, []).append(i)
    taus = [1.0 if len(ix) == 1 else tau_b(predicted[ix], truth[ix]) for ix in groups.values()]
    return {"acc_d2": float(np.mean(diff <= delta)), "asd": float(np.mean(diff)),
            "kendall_tau": sum(taus) / len(taus)}


def fold_entities(entity_order: list[str], k: int, seed: int) -> list[list[str]]:
    order = list(entity_order)
    random.Random(seed).shuffle(order)
    return [order[i::k] for i in range(k)]


def first_mention_scores(records: dict, entity_keys, object_keys) -> list[int]:
    """7 for each entity's earliest-mentioned candidate, 0 otherwise."""
    cands: dict[str, list[str]] = {}
    for e, o in zip(entity_keys, object_keys):
        cands.setdefault(e, []).append(o)
    firsts = {e: (first_mentioned(records[e]["abstract"], c) if e in records else None)
              for e, c in cands.items()}
    return [7 if firsts[e] == o else 0 for e, o in zip(entity_keys, object_keys)]
