"""Scoring metrics and entity-grouped cross-validation.

Three metrics compare predicted and truth scores: accuracy within a
tolerance delta, mean absolute score difference, and Kendall's tau of
the per-entity rankings averaged over entities. Cross-validation splits
by entity so every triple of one person lands in the same fold.
"""

from __future__ import annotations

import json
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import EmptyInputError, TooFewEntitiesError
from .features import Triple

TAU_B = "b"
TAU_A = "a"
SINGLETON_ONE = "one"
SINGLETON_SKIP = "skip"


@dataclass(frozen=True)
class ScoredPair:
    """A triple with its predicted score next to the truth score."""

    triple: Triple
    predicted: int
    truth: int

    def __post_init__(self):
        for label, value in (("predicted", self.predicted), ("truth", self.truth)):
            if not 0 <= value <= 7:
                raise ValueError(f"{label} score must be in [0, 7], got {value}")


def pairs_from_predictions(triples: Sequence[Triple],
                           predicted: Sequence[int]) -> list[ScoredPair]:
    """Zip triples carrying truth scores with a parallel prediction list."""
    if len(triples) != len(predicted):
        raise ValueError("triples and predictions must have equal length")
    pairs = []
    for triple, pred in zip(triples, predicted):
        if triple.truth is None:
            raise ValueError(f"triple {triple.entity}/{triple.object} has no truth score")
        pairs.append(ScoredPair(triple, int(pred), triple.truth))
    return pairs


def accuracy_at_delta(pairs: Sequence[ScoredPair], delta: int = 2) -> float:
    """Fraction of pairs with |predicted - truth| <= delta."""
    if not pairs:
        raise EmptyInputError("no scored pairs to evaluate")
    hits = sum(1 for p in pairs if abs(p.predicted - p.truth) <= delta)
    return hits / len(pairs)


def average_score_difference(pairs: Sequence[ScoredPair]) -> float:
    """Mean absolute difference between predicted and truth scores."""
    if not pairs:
        raise EmptyInputError("no scored pairs to evaluate")
    return sum(abs(p.predicted - p.truth) for p in pairs) / len(pairs)


def kendall_tau(predicted: Sequence[float], truth: Sequence[float],
                variant: str = TAU_B) -> float:
    """Rank correlation of two equal-length score lists.

    Both variants read the pair signs (v_i > v_j) - (v_i < v_j), i < j,
    which count tied infinities as ties. Equal sign vectors (identical
    rankings) give exactly 1.0, and under tau-b exactly mirrored ones
    give exactly -1.0 (a tied mirror is genuinely above -1 under tau-a).
    Otherwise a list without an untied pair gives 0.0. Tau-a divides the
    concordant-discordant surplus by the pair count; tau-b by the root
    of each list's untied-pair count. A nan raises ValueError.
    """
    if variant not in (TAU_B, TAU_A):
        raise ValueError(f"tau variant must be {TAU_B!r} or {TAU_A!r}, got {variant!r}")
    xs = np.asarray(predicted, dtype=float)
    ys = np.asarray(truth, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("predicted and truth must be equal-length 1-d sequences")
    if xs.size == 0:
        raise EmptyInputError("no scores to correlate")
    for label, values in (("predicted", xs), ("truth", ys)):
        if np.isnan(values).any():
            raise ValueError(f"{label} scores contain nan")
    i, j = np.triu_indices(xs.size, 1)
    sx, sy = ((v[i] > v[j]).astype(np.int64) - (v[i] < v[j]) for v in (xs, ys))
    if np.array_equal(sx, sy):
        return 1.0
    if variant == TAU_B and np.array_equal(sx, -sy):
        return -1.0
    nx, ny = np.count_nonzero(sx), np.count_nonzero(sy)
    if nx == 0 or ny == 0:
        return 0.0
    surplus = int(sx @ sy)
    if variant == TAU_A:
        return surplus / (xs.size * (xs.size - 1) / 2)
    return float(min(1.0, max(-1.0, surplus / np.sqrt(nx) / np.sqrt(ny))))


def kendall_tau_per_entity(pairs: Sequence[ScoredPair], variant: str = TAU_B,
                           singleton_policy: str = SINGLETON_ONE) -> float:
    """Mean rank correlation over per-entity groups.

    Pairs group by (entity, relation). A group of one triple is trivially
    perfectly ordered and contributes 1.0 under the default policy; the
    "skip" policy drops such groups from the mean instead (0.0 if nothing
    remains).
    """
    if not pairs:
        raise EmptyInputError("no scored pairs to evaluate")
    if singleton_policy not in (SINGLETON_ONE, SINGLETON_SKIP):
        raise ValueError(f"unknown singleton policy {singleton_policy!r}")
    groups: dict[tuple[str, str], list[ScoredPair]] = {}
    for pair in pairs:
        key = (pair.triple.entity_key, str(pair.triple.relation))
        groups.setdefault(key, []).append(pair)

    taus = []
    for members in groups.values():
        if len(members) == 1:
            if singleton_policy == SINGLETON_ONE:
                taus.append(1.0)
            continue
        taus.append(kendall_tau(
            [m.predicted for m in members], [m.truth for m in members], variant
        ))
    if not taus:
        return 0.0
    return sum(taus) / len(taus)


@dataclass(frozen=True)
class EvalReport:
    """The three metrics plus the counts they were computed over."""

    n_triples: int
    n_entities: int
    delta: int
    accuracy: float
    avg_score_diff: float
    kendall_tau: float

    def to_dict(self) -> dict:
        return {
            "n_triples": self.n_triples,
            "n_entities": self.n_entities,
            "delta": self.delta,
            "accuracy": self.accuracy,
            "avg_score_diff": self.avg_score_diff,
            "kendall_tau": self.kendall_tau,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EvalReport":
        return cls(
            n_triples=int(data["n_triples"]),
            n_entities=int(data["n_entities"]),
            delta=int(data["delta"]),
            accuracy=float(data["accuracy"]),
            avg_score_diff=float(data["avg_score_diff"]),
            kendall_tau=float(data["kendall_tau"]),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def evaluate(pairs: Sequence[ScoredPair], delta: int = 2, tau_variant: str = TAU_B,
             singleton_policy: str = SINGLETON_ONE) -> EvalReport:
    """All three metrics over one set of scored pairs."""
    if not pairs:
        raise EmptyInputError("no scored pairs to evaluate")
    entities = {(p.triple.entity_key, str(p.triple.relation)) for p in pairs}
    return EvalReport(
        n_triples=len(pairs),
        n_entities=len(entities),
        delta=delta,
        accuracy=accuracy_at_delta(pairs, delta),
        avg_score_diff=average_score_difference(pairs),
        kendall_tau=kendall_tau_per_entity(pairs, tau_variant, singleton_policy),
    )


def format_metric(value: float) -> str:
    """Two-decimal rendering used by every report table."""
    return format(value, ".2f")


def format_comparison_table(rows: Sequence[tuple[str, EvalReport]]) -> str:
    """Aligned text table: one row per labeled report."""
    if not rows:
        raise EmptyInputError("no reports to format")
    delta = rows[0][1].delta
    header = ["model", f"accuracy(delta={delta})", "avg_score_diff", "kendall_tau"]
    body = [
        [label, format_metric(r.accuracy), format_metric(r.avg_score_diff),
         format_metric(r.kendall_tau)]
        for label, r in rows
    ]
    widths = [max(len(line[i]) for line in [header] + body) for i in range(len(header))]
    lines = []
    for line in [header] + body:
        cells = [line[0].ljust(widths[0])]
        cells += [line[i].rjust(widths[i]) for i in range(1, len(header))]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)


def mean_report(reports: Sequence[EvalReport]) -> EvalReport:
    """Unweighted mean of each metric; counts are summed."""
    if not reports:
        raise EmptyInputError("no reports to average")
    k = len(reports)
    return EvalReport(
        n_triples=sum(r.n_triples for r in reports),
        n_entities=sum(r.n_entities for r in reports),
        delta=reports[0].delta,
        accuracy=sum(r.accuracy for r in reports) / k,
        avg_score_diff=sum(r.avg_score_diff for r in reports) / k,
        kendall_tau=sum(r.kendall_tau for r in reports) / k,
    )


def entity_fold_assignments(entities: Sequence[str], k: int,
                            seed: int) -> list[list[str]]:
    """Deterministic k-way entity partition; fold sizes differ by at most 1.

    Entities shuffle under the seed, then deal round-robin into folds.
    """
    if k < 2:
        raise ValueError(f"fold count must be at least 2, got {k}")
    if k > len(entities):
        raise TooFewEntitiesError(
            f"cannot build {k} folds from {len(entities)} entities"
        )
    order = list(entities)
    random.Random(seed).shuffle(order)
    return [order[i::k] for i in range(k)]


# A Trainer consumes (train_triples, X_train, y_train) and returns a
# predictor over (test_triples, X_test).
Trainer = Callable[
    [list[Triple], np.ndarray, np.ndarray],
    Callable[[list[Triple], np.ndarray], list[int]],
]


@dataclass(frozen=True)
class CVResult:
    """Per-fold reports plus their unweighted mean."""

    fold_reports: tuple[EvalReport, ...]
    mean: EvalReport

    def to_dict(self) -> dict:
        return {
            "folds": [r.to_dict() for r in self.fold_reports],
            "mean": self.mean.to_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def cross_validate(triples: Sequence[Triple], X, trainer: Trainer, *,
                   folds: int = 5, seed: int = 0, delta: int = 2,
                   tau_variant: str = TAU_B,
                   singleton_policy: str = SINGLETON_ONE,
                   max_workers: int = 1) -> CVResult:
    """Entity-grouped k-fold cross-validation of one trainer.

    Fold assignment depends only on (entity order, folds, seed), so
    different trainers evaluated on the same triples share the exact
    same splits. Folds may run concurrently; reports come back in fold
    order either way.
    """
    triples = list(triples)
    X = np.asarray(X, dtype=float)
    if X.shape[0] != len(triples):
        raise ValueError("feature matrix rows must match triple count")
    y = []
    for t in triples:
        if t.truth is None:
            raise ValueError(f"triple {t.entity}/{t.object} has no truth score")
        y.append(t.truth)
    y = np.asarray(y, dtype=int)

    keys = [t.entity_key for t in triples]
    assignment = entity_fold_assignments(list(dict.fromkeys(keys)), folds, seed)
    fold_of = {e: f for f, members in enumerate(assignment) for e in members}
    row_fold = np.array([fold_of[k] for k in keys])

    def run_fold(fold: int) -> EvalReport:
        test = row_fold == fold
        train_triples = [t for t, held_out in zip(triples, test) if not held_out]
        test_triples = [t for t, held_out in zip(triples, test) if held_out]
        predict_fn = trainer(train_triples, X[~test], y[~test])
        predictions = predict_fn(test_triples, X[test])
        pairs = pairs_from_predictions(test_triples, predictions)
        return evaluate(pairs, delta, tau_variant, singleton_policy)

    if max_workers > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            reports = list(pool.map(run_fold, range(folds)))
    else:
        reports = [run_fold(fold) for fold in range(folds)]
    return CVResult(fold_reports=tuple(reports), mean=mean_report(reports))
