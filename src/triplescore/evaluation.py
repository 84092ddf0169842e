"""Scoring metrics and entity-grouped cross-validation.

Three metrics compare predicted and truth scores: accuracy within a
tolerance delta, mean absolute score difference, and Kendall's tau of
the per-entity rankings averaged over entities. Cross-validation splits
by entity so every triple of one person lands in the same fold.
"""

from __future__ import annotations

import json
import random
import warnings
from dataclasses import asdict, dataclass
from itertools import compress
from typing import Callable, Sequence

import numpy as np

from .errors import EmptyInputError, InputFormatError, TooFewEntitiesError
from .features import Relation, Triple

TAU_B = "b"
TAU_A = "a"
SINGLETON_ONE = "one"
SINGLETON_SKIP = "skip"


def _group_taus(xs: np.ndarray, ys: np.ndarray, group: np.ndarray, n_groups: int,
                variant: str) -> np.ndarray:
    """Kendall's tau of xs against ys inside each group, by `kendall_tau`'s rules.

    Rows sort stably by group id, the i < j pairs inside every group are
    laid out at once, and each per-group count is one bincount over the
    pairs' group ids. A group of one row has no pair and gives 1.0.
    """
    order = np.argsort(group, kind="stable")
    xs, ys, group = xs[order], ys[order], group[order]
    sizes = np.bincount(group, minlength=n_groups)
    # row r pairs with the rows after it up to the last row of its group
    after = (np.cumsum(sizes) - 1)[group] - np.arange(group.size)
    i = np.repeat(np.arange(group.size), after)
    j = i + 1 + np.arange(i.size) - np.repeat(np.cumsum(after) - after, after)
    pair_group = group[i]
    sx, sy = ((v[i] > v[j]).astype(np.int64) - (v[i] < v[j]) for v in (xs, ys))

    def per_group(mask: np.ndarray) -> np.ndarray:
        return np.bincount(pair_group[mask], minlength=n_groups)

    nx, ny = per_group(sx != 0), per_group(sy != 0)
    surplus = per_group(sx * sy > 0) - per_group(sx * sy < 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        if variant == TAU_A:
            taus = surplus / (sizes * (sizes - 1) / 2)
        else:
            taus = np.clip(surplus / np.sqrt(nx) / np.sqrt(ny), -1.0, 1.0)
    taus[(nx == 0) | (ny == 0)] = 0.0
    if variant == TAU_B:
        taus[per_group(sx != -sy) == 0] = -1.0
    taus[per_group(sx != sy) == 0] = 1.0
    return taus


def _check_variant(variant: str) -> None:
    if variant not in (TAU_B, TAU_A):
        raise ValueError(f"tau variant must be {TAU_B!r} or {TAU_A!r}, got {variant!r}")


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
    _check_variant(variant)
    xs = np.asarray(predicted, dtype=float)
    ys = np.asarray(truth, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("predicted and truth must be equal-length 1-d sequences")
    if xs.size == 0:
        raise EmptyInputError("no scores to correlate")
    for label, values in (("predicted", xs), ("truth", ys)):
        if np.isnan(values).any():
            raise ValueError(f"{label} scores contain nan")
    return float(_group_taus(xs, ys, np.zeros(xs.size, dtype=np.intp), 1, variant)[0])


def truth_labels(triples: Sequence[Triple]) -> np.ndarray:
    """Ground-truth scores as an int array; every triple must carry one."""
    labels = [t.truth for t in triples]
    if None in labels:
        t = triples[labels.index(None)]
        raise InputFormatError(
            f"triple {t.entity}/{t.object} has no truth score; "
            "training and evaluation need three-column rows"
        )
    return np.asarray(labels, dtype=int)


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
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def evaluate(triples: Sequence[Triple], predicted: Sequence[int], delta: int = 2,
             tau_variant: str = TAU_B,
             singleton_policy: str = SINGLETON_ONE) -> EvalReport:
    """All three metrics of predicted scores against the triples' truth scores.

    Accuracy is the share of rows with |predicted - truth| <= delta; the
    score difference is the mean |predicted - truth|. Predictions must be
    whole numbers in 0..7; integral floats such as 3.0 are accepted. Rows
    group by (entity, relation), and tau is the mean of the per-group taus
    in order of first appearance. A group of one triple is trivially
    perfectly ordered and contributes 1.0 under the default policy; the
    "skip" policy drops such groups from the mean instead (0.0 if nothing
    remains).
    """
    if len(triples) != len(predicted):
        raise ValueError("triples and predictions must have equal length")
    if not triples:
        raise EmptyInputError("no scored triples to evaluate")
    _check_variant(tau_variant)
    if singleton_policy not in (SINGLETON_ONE, SINGLETON_SKIP):
        raise ValueError(f"unknown singleton policy {singleton_policy!r}")
    truth = truth_labels(triples)
    scores = np.asarray(predicted, dtype=float)
    # nan fails every comparison, and the infinities fail the range
    invalid = scores[~((scores >= 0) & (scores <= 7) & (scores == np.floor(scores)))]
    if invalid.size:
        raise ValueError(
            f"predicted score must be a whole number in [0, 7], got {invalid[0]:g}"
        )
    scores = scores.astype(np.int64)
    ids: dict[tuple[str, Relation], int] = {}
    group = np.array([ids.setdefault((t.entity_key, t.relation), len(ids))
                      for t in triples])
    diff = np.abs(scores - truth)
    taus = _group_taus(scores, truth, group, len(ids), tau_variant)
    if singleton_policy == SINGLETON_SKIP:
        taus = taus[np.bincount(group) > 1]
    taus = taus.tolist()
    return EvalReport(
        n_triples=len(triples),
        n_entities=len(ids),
        delta=delta,
        accuracy=int(np.count_nonzero(diff <= delta)) / len(triples),
        avg_score_diff=int(diff.sum()) / len(triples),
        kendall_tau=sum(taus) / len(taus) if taus else 0.0,
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


@dataclass(frozen=True)
class FoldSplit:
    """One fold of a FoldPlan: the rows it holds out, and the triples on each side."""

    test: np.ndarray
    train_triples: list[Triple]
    test_triples: list[Triple]


class FoldPlan:
    """Entity-grouped folds of one triple list, made once for every model of a run.

    Holds the fold assignment, the truth labels and each fold's split. The
    assignment depends only on (entity order, folds, seed), so trainers
    cross-validated over one plan see exactly the same splits.
    """

    def __init__(self, triples: Sequence[Triple], folds: int, seed: int):
        rows = list(triples)
        self.labels = truth_labels(rows)
        keys = [t.entity_key for t in rows]
        self.assignment = entity_fold_assignments(list(dict.fromkeys(keys)), folds, seed)
        fold_of = {e: f for f, members in enumerate(self.assignment) for e in members}
        row_fold = np.array([fold_of[k] for k in keys])
        self.splits = tuple(
            FoldSplit(test, list(compress(rows, ~test)), list(compress(rows, test)))
            for test in (row_fold == fold for fold in range(folds))
        )


def cross_validate(plan: FoldPlan, X, trainer: Trainer, *, delta: int = 2,
                   tau_variant: str = TAU_B,
                   singleton_policy: str = SINGLETON_ONE) -> CVResult:
    """Entity-grouped k-fold cross-validation of one trainer over the plan's folds.

    X holds one feature row per triple of the plan. The folds run in order
    in the calling thread, so a trainer that keeps state between calls (as
    `pipeline.make_trainer`'s warm start does) sees fold k - 1 before fold
    k. A warning raised while fold k of K trains or
    predicts is issued again after the fold, as "fold k of K: <message>",
    from the place it was first raised.
    """
    X = np.asarray(X, dtype=float)
    if X.shape[0] != plan.labels.size:
        raise ValueError("feature matrix rows must match triple count")
    y = plan.labels
    reports = []
    for k, split in enumerate(plan.splits, start=1):
        with warnings.catch_warnings(record=True) as caught:
            predict_fn = trainer(split.train_triples, X[~split.test], y[~split.test])
            predicted = predict_fn(split.test_triples, X[split.test])
        for w in caught:
            warnings.warn_explicit(f"fold {k} of {len(plan.splits)}: {w.message}",
                                   w.category, w.filename, w.lineno, source=w.source)
        reports.append(evaluate(split.test_triples, predicted, delta, tau_variant,
                                singleton_policy))
    return CVResult(fold_reports=tuple(reports), mean=mean_report(reports))
