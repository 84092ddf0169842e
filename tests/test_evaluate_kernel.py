"""`evaluate` over one grouped Kendall-tau kernel against the per-entity loop.

The oracle below is the evaluation code as it stood before the grouped
kernel, kept verbatim apart from names: every row became a validated
`ScoredPair`, accuracy and score difference walked the pairs, and the
per-entity tau grouped the pairs in a dict and called the single-list
`kendall_tau` once per group. `evaluate(triples, predicted)` must return
the same report, field by field, with `==` and the same types.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from triplescore.errors import EmptyInputError
from triplescore.evaluation import (
    SINGLETON_ONE,
    SINGLETON_SKIP,
    TAU_A,
    TAU_B,
    EvalReport,
    evaluate,
)
from triplescore.features import Relation, Triple


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


def oracle_kendall_tau(predicted: Sequence[float], truth: Sequence[float],
                       variant: str = TAU_B) -> float:
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
        taus.append(oracle_kendall_tau(
            [m.predicted for m in members], [m.truth for m in members], variant
        ))
    if not taus:
        return 0.0
    return sum(taus) / len(taus)


def oracle_evaluate(pairs: Sequence[ScoredPair], delta: int = 2, tau_variant: str = TAU_B,
                    singleton_policy: str = SINGLETON_ONE) -> EvalReport:
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


# "Ada" and "ada" share an entity key, so they land in one group
ENTITIES = ("Ada", "ada", "Ben", "cyd", "Dee", "eli", "Fay", "gus", "Hal", "ivy")
SCORE_SETS = (tuple(range(8)), (3, 4), (0, 7), (5,))


@st.composite
def scored_rows(draw):
    """Triples with truth scores plus a parallel list of predicted scores."""
    n = draw(st.integers(1, 40))
    entities = ENTITIES[:draw(st.integers(1, 10))]
    relations = draw(st.sampled_from([(Relation.PROFESSION,),
                                      (Relation.PROFESSION, Relation.NATIONALITY)]))
    scores = st.sampled_from(draw(st.sampled_from(SCORE_SETS)))  # small sets: heavy ties
    triples = [
        Triple(draw(st.sampled_from(entities)), draw(st.sampled_from(relations)),
               f"o{k}", draw(scores))
        for k in range(n)
    ]
    shape = draw(st.sampled_from(["free", "same", "mirror"]))
    if shape == "free":
        predicted = [draw(scores) for _ in range(n)]
    elif shape == "same":
        predicted = [t.truth for t in triples]
    else:
        predicted = [7 - t.truth for t in triples]
    return triples, predicted


class TestAgainstOracle:
    @given(scored_rows(), st.integers(0, 7), st.sampled_from([TAU_A, TAU_B]),
           st.sampled_from([SINGLETON_ONE, SINGLETON_SKIP]))
    @example(([Triple("a", Relation.PROFESSION, "x", 5)], [2]), 2, TAU_B, SINGLETON_SKIP)
    @example(([Triple("a", Relation.PROFESSION, "x", 0), Triple("a", Relation.PROFESSION, "y", 1),
               Triple("a", Relation.PROFESSION, "z", 1)], [1, 0, 0]), 2, TAU_B, SINGLETON_ONE)
    @settings(max_examples=400, deadline=None)
    def test_report_equals_the_per_entity_loop(self, rows, delta, variant, policy):
        triples, predicted = rows
        got = evaluate(triples, predicted, delta, variant, policy)
        expected = oracle_evaluate(pairs_from_predictions(triples, predicted),
                                   delta, variant, policy)
        assert got == expected
        for name in ("accuracy", "avg_score_diff", "kendall_tau"):
            assert type(getattr(got, name)) is float, name
        assert type(got.n_entities) is int
        assert got.n_entities == expected.n_entities
