"""Metrics, report formatting, and entity-grouped cross-validation."""

import itertools
import json
import threading

import numpy as np
import pytest
from scipy.stats import rankdata

from triplescore import evaluation
from triplescore.errors import EmptyInputError, InputFormatError, TooFewEntitiesError
from triplescore.evaluation import (
    SINGLETON_ONE,
    SINGLETON_SKIP,
    TAU_A,
    TAU_B,
    CVResult,
    EvalReport,
    FoldPlan,
    cross_validate,
    entity_fold_assignments,
    evaluate,
    format_comparison_table,
    format_metric,
    kendall_tau,
    mean_report,
)
from triplescore.features import Relation, Triple


def row(entity, obj, predicted, truth, relation=Relation.PROFESSION):
    """One scored triple and the score predicted for it."""
    return Triple(entity, relation, obj, truth), predicted


def metrics(rows, **kwargs):
    triples, predicted = zip(*rows)
    return evaluate(list(triples), list(predicted), **kwargs)


def brute_force_tau(xs, ys, variant):
    """O(n^2) definition: sum of sign products over all index pairs."""
    n = len(xs)
    surplus = tx = ty = 0
    for i, j in itertools.combinations(range(n), 2):
        sx = (xs[i] > xs[j]) - (xs[i] < xs[j])
        sy = (ys[i] > ys[j]) - (ys[i] < ys[j])
        surplus += sx * sy
        tx += sx != 0
        ty += sy != 0
    if variant == TAU_A:
        return surplus / (n * (n - 1) / 2)
    return surplus / np.sqrt(tx * ty)


class TestAccuracyAndDifference:
    def test_hand_fixture(self):
        rows = [row("a", "x", 7, 5), row("a", "y", 0, 3)]
        assert metrics(rows, delta=2).accuracy == 0.5
        assert metrics(rows).avg_score_diff == 2.5

    def test_identical_scores(self):
        rows = [row("a", "x", 4, 4), row("a", "y", 1, 1)]
        assert metrics(rows, delta=2).accuracy == 1.0
        assert metrics(rows).avg_score_diff == 0.0

    def test_single_worst_case(self):
        rows = [row("a", "x", 0, 7)]
        assert metrics(rows, delta=2).accuracy == 0.0
        assert metrics(rows).avg_score_diff == 7.0

    def test_delta_seven_accepts_everything(self):
        rows = [row("a", "x", 0, 7), row("a", "y", 7, 0)]
        assert metrics(rows, delta=7).accuracy == 1.0

    def test_delta_zero_means_exact_match(self):
        rows = [row("a", "x", 3, 3), row("a", "y", 3, 4)]
        assert metrics(rows, delta=0).accuracy == 0.5

    def test_monotone_in_delta(self):
        rng = np.random.default_rng(3)
        rows = [
            row("e", f"o{i}", int(rng.integers(0, 8)), int(rng.integers(0, 8)))
            for i in range(40)
        ]
        accs = [metrics(rows, delta=d).accuracy for d in range(8)]
        assert accs == sorted(accs)
        assert accs[7] == 1.0

    def test_difference_is_symmetric(self):
        a = [row("e", "x", 6, 1), row("e", "y", 2, 5)]
        b = [row("e", "x", 1, 6), row("e", "y", 5, 2)]
        assert metrics(a).avg_score_diff == metrics(b).avg_score_diff

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            evaluate([], [], delta=2)
        with pytest.raises(EmptyInputError):
            evaluate([], [])


class TestScoredPair:
    """The checks evaluate makes on triples and their parallel predictions."""

    def test_range_validation(self):
        t = Triple("a", Relation.PROFESSION, "x", 3)
        with pytest.raises(ValueError, match="predicted score"):
            evaluate([t], [8])
        with pytest.raises(ValueError, match="predicted score"):
            evaluate([t], [-1])
        with pytest.raises(ValueError):
            evaluate([Triple("a", Relation.PROFESSION, "x", -1)], [3])

    def test_non_integer_prediction_rejected(self):
        triples = [Triple("a", Relation.PROFESSION, "x", 3),
                   Triple("a", Relation.PROFESSION, "y", 5)]
        for bad, named in (([2.5, 5.9], "2.5"), ([3, float("nan")], "nan"),
                           ([float("inf"), 5], "inf")):
            with pytest.raises(ValueError, match=rf"whole number in \[0, 7\], got {named}$"):
                evaluate(triples, bad)
        assert evaluate(triples, [3.0, 5.0]) == evaluate(triples, [3, 5])

    @pytest.mark.parametrize("bad, named", [(3.5, "3.5"), (-1, "-1"), (8, "8"),
                                            (7.000001, "7"), (float("nan"), "nan"),
                                            (float("inf"), "inf"), (float("-inf"), "-inf")])
    def test_out_of_range_or_fractional_prediction_named(self, bad, named):
        triples = [Triple("a", Relation.PROFESSION, "x", 3),
                   Triple("a", Relation.PROFESSION, "y", 5)]
        with pytest.raises(ValueError, match=rf"^predicted score must be a whole number "
                                             rf"in \[0, 7\], got {named}$"):
            evaluate(triples, [3, bad])

    def test_integral_floats_at_both_ends_accepted(self):
        triples = [Triple("a", Relation.PROFESSION, "x", 0),
                   Triple("a", Relation.PROFESSION, "y", 7)]
        assert evaluate(triples, [-0.0, 7.0]) == evaluate(triples, [0, 7])

    def test_pairs_from_predictions(self):
        triples = [Triple("a", Relation.PROFESSION, "x", 5),
                   Triple("a", Relation.PROFESSION, "y", 1)]
        # rows pair by position: |4 - 5| and |2 - 1|
        report = evaluate(triples, [4, 2], delta=0)
        assert (report.accuracy, report.avg_score_diff) == (0.0, 1.0)
        assert evaluate(triples, [5, 1], delta=0).accuracy == 1.0

    def test_length_mismatch(self):
        triples = [Triple("a", Relation.PROFESSION, "x", 5)]
        with pytest.raises(ValueError):
            evaluate(triples, [1, 2])

    def test_truth_required(self):
        triples = [Triple("a", Relation.PROFESSION, "x")]
        with pytest.raises(InputFormatError, match="no truth score"):
            evaluate(triples, [1])


class TestKendallTau:
    def test_identical_with_ties_is_exactly_one(self):
        assert kendall_tau([3, 3, 1, 7], [3, 3, 1, 7]) == 1.0

    def test_identical_ranks_different_values(self):
        assert kendall_tau([1, 2, 2, 5], [10, 20, 20, 50]) == 1.0

    def test_reversed_is_minus_one(self):
        assert kendall_tau([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0
        # length where scipy's division order would land at -0.999...
        assert kendall_tau([1, 2, 3, 4, 5], [5, 4, 3, 2, 1]) == -1.0

    def test_mirrored_ranks_with_ties(self):
        # tau-b: ties mirror exactly, so perfect discordance -> exactly -1
        assert kendall_tau([0, 1, 1], [1, 0, 0]) == -1.0
        # tau-a counts the tied pair against the surplus: -2 of 3 pairs
        assert kendall_tau([0, 1, 1], [1, 0, 0], variant=TAU_A) == pytest.approx(-2 / 3)

    def test_constant_list_is_zero(self):
        assert kendall_tau([2, 2, 2], [1, 2, 3]) == 0.0
        assert kendall_tau([1, 2, 3], [5, 5, 5]) == 0.0

    def test_one_swap_tau_b(self):
        assert kendall_tau([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(2 / 3, abs=1e-12)

    def test_tau_a_with_ties(self):
        # pairs: (0,1) tied in x, (0,2) and (1,2) concordant -> 2/3
        assert kendall_tau([1, 1, 2], [1, 2, 3], variant=TAU_A) == pytest.approx(2 / 3, abs=1e-12)

    def test_variants_agree_without_ties(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            xs = rng.permutation(9).tolist()
            ys = rng.permutation(9).tolist()
            if np.array_equal(xs, ys):
                continue
            b = kendall_tau(xs, ys, variant=TAU_B)
            a = kendall_tau(xs, ys, variant=TAU_A)
            assert a == pytest.approx(b, abs=1e-12)

    @pytest.mark.parametrize("variant", [TAU_A, TAU_B])
    def test_matches_pair_counting_definition(self, variant):
        rng = np.random.default_rng(7)
        # the same codes again as -inf, 0, 1, inf: tied infinities must tie
        levels = np.array([-np.inf, 0.0, 1.0, np.inf])
        for _ in range(100):
            n = int(rng.integers(2, 12))
            x_codes = rng.integers(0, 4, size=n)  # heavy ties on purpose
            y_codes = rng.integers(0, 4, size=n)
            for xs, ys in ((x_codes.tolist(), y_codes.tolist()),
                           (levels[x_codes].tolist(), levels[y_codes].tolist())):
                got = kendall_tau(xs, ys, variant)
                if np.array_equal(rankdata(xs), rankdata(ys)):
                    assert got == 1.0
                elif len(set(xs)) == 1 or len(set(ys)) == 1:
                    assert got == 0.0
                else:
                    assert got == pytest.approx(brute_force_tau(xs, ys, variant), abs=1e-12)

    @pytest.mark.parametrize("variant", [TAU_A, TAU_B])
    def test_nan_rejected_naming_the_argument(self, variant):
        with pytest.raises(ValueError, match="predicted"):
            kendall_tau([1.0, float("nan"), 2.0], [1, 2, 3], variant)
        with pytest.raises(ValueError, match="truth"):
            kendall_tau([1, 2, 3], [float("nan")] * 3, variant)

    def test_errors(self):
        with pytest.raises(EmptyInputError):
            kendall_tau([], [])
        with pytest.raises(ValueError):
            kendall_tau([1, 2], [1, 2, 3])
        with pytest.raises(ValueError):
            kendall_tau([1, 2], [2, 1], variant="c")


class TestKendallTauPerEntity:
    def test_mean_over_entities(self):
        rows = [
            row("a", "x", 1, 1), row("a", "y", 2, 2), row("a", "z", 3, 3),
            row("b", "x", 3, 1), row("b", "y", 2, 2), row("b", "z", 1, 3),
        ]
        # entity a perfectly ordered (+1), entity b reversed (-1)
        assert metrics(rows).kendall_tau == 0.0

    def test_singleton_counts_as_one_by_default(self):
        rows = [row("a", "x", 0, 7), row("b", "x", 1, 1), row("b", "y", 2, 2)]
        assert metrics(rows, singleton_policy=SINGLETON_ONE).kendall_tau == 1.0

    def test_singleton_skip_drops_group(self):
        rows = [
            row("a", "x", 0, 7),
            row("b", "x", 3, 1), row("b", "y", 2, 2), row("b", "z", 1, 3),
        ]
        assert metrics(rows, singleton_policy=SINGLETON_SKIP).kendall_tau == -1.0

    def test_all_singletons_skipped_gives_zero(self):
        rows = [row("a", "x", 0, 7), row("b", "x", 5, 5)]
        assert metrics(rows, singleton_policy=SINGLETON_SKIP).kendall_tau == 0.0

    def test_groups_split_by_relation(self):
        rows = [
            row("a", "x", 1, 1), row("a", "y", 2, 2),
            row("a", "fr", 3, 1, relation=Relation.NATIONALITY),
            row("a", "de", 1, 3, relation=Relation.NATIONALITY),
        ]
        # profession group +1, nationality group -1
        assert metrics(rows).kendall_tau == 0.0

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            metrics([row("a", "x", 1, 1)], singleton_policy="zero")

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            evaluate([], [])


class TestEvaluateAndReports:
    def test_counts_and_metrics(self):
        rows = [
            row("a", "x", 7, 5), row("a", "y", 0, 3),
            row("b", "x", 4, 4),
        ]
        report = metrics(rows, delta=2)
        assert report.n_triples == 3
        assert report.n_entities == 2
        assert report.delta == 2
        assert report.accuracy == pytest.approx(2 / 3)
        assert report.avg_score_diff == pytest.approx(5 / 3)

    def test_report_round_trip(self):
        report = metrics([row("a", "x", 7, 5), row("a", "y", 0, 3)])
        assert json.loads(report.to_json()) == report.to_dict()
        assert '"accuracy"' in report.to_json()

    def test_mean_report(self):
        a = EvalReport(10, 4, 2, 0.71, 1.80, 0.60)
        b = EvalReport(12, 5, 2, 0.75, 1.71, 0.80)
        m = mean_report([a, b])
        assert m.n_triples == 22
        assert m.n_entities == 9
        assert m.accuracy == pytest.approx(0.73)
        assert m.avg_score_diff == pytest.approx(1.755)
        assert m.kendall_tau == pytest.approx(0.70)

    def test_mean_report_empty(self):
        with pytest.raises(EmptyInputError):
            mean_report([])

    def test_format_metric_two_decimals(self):
        assert format_metric((0.71 + 0.75) / 2) == "0.73"
        assert format_metric((1.80 + 1.71) / 2) == "1.75"
        assert format_metric(0.5) == "0.50"
        assert format_metric(1.0) == "1.00"

    def test_comparison_table(self):
        a = EvalReport(10, 4, 2, 0.6142, 2.14, 0.51)
        b = EvalReport(10, 4, 2, 0.6938, 1.72, 0.73)
        table = format_comparison_table([("first", a), ("ordinal", b)])
        lines = table.splitlines()
        assert lines[0].split() == ["model", "accuracy(delta=2)", "avg_score_diff", "kendall_tau"]
        assert lines[1].startswith("first")
        assert "0.61" in lines[1] and "2.14" in lines[1]
        assert "0.69" in lines[2] and "0.73" in lines[2]
        # columns align: all rows equal length before rstrip trims row ends
        assert len(set(line.index("0.") for line in lines[1:])) == 1

    def test_comparison_table_empty(self):
        with pytest.raises(EmptyInputError):
            format_comparison_table([])


class TestFoldAssignments:
    ENTITIES = [f"e{i}" for i in range(11)]

    def test_deterministic(self):
        a = entity_fold_assignments(self.ENTITIES, 3, seed=42)
        b = entity_fold_assignments(self.ENTITIES, 3, seed=42)
        assert a == b

    def test_seed_changes_assignment(self):
        a = entity_fold_assignments(self.ENTITIES, 3, seed=0)
        b = entity_fold_assignments(self.ENTITIES, 3, seed=1)
        assert a != b

    def test_exact_partition(self):
        folds = entity_fold_assignments(self.ENTITIES, 4, seed=7)
        flat = [e for fold in folds for e in fold]
        assert sorted(flat) == sorted(self.ENTITIES)
        assert len(flat) == len(set(flat))

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 11])
    def test_sizes_balanced(self, k):
        folds = entity_fold_assignments(self.ENTITIES, k, seed=3)
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == len(self.ENTITIES)

    def test_leave_one_entity_out(self):
        folds = entity_fold_assignments(self.ENTITIES, len(self.ENTITIES), seed=5)
        assert all(len(f) == 1 for f in folds)

    def test_too_few_entities(self):
        with pytest.raises(TooFewEntitiesError):
            entity_fold_assignments(["a", "b"], 3, seed=0)

    def test_fold_count_floor(self):
        with pytest.raises(ValueError):
            entity_fold_assignments(self.ENTITIES, 1, seed=0)


def toy_triples(n_entities=6, per_entity=3):
    triples = []
    for i in range(n_entities):
        for j in range(per_entity):
            triples.append(Triple(f"e{i}", Relation.PROFESSION, f"o{j}", (i + j) % 8))
    return triples


def oracle_trainer(train_triples, X_train, y_train):
    return lambda test_triples, X_test: [t.truth for t in test_triples]


class TestCrossValidate:
    def test_oracle_trainer_is_perfect(self):
        triples = toy_triples()
        X = np.zeros((len(triples), 2))
        result = cross_validate(FoldPlan(triples, 3, 1), X, oracle_trainer)
        assert len(result.fold_reports) == 3
        for report in result.fold_reports:
            assert report.accuracy == 1.0
            assert report.avg_score_diff == 0.0
            assert report.kendall_tau == 1.0
        assert result.mean.accuracy == 1.0
        assert result.mean.n_triples == len(triples)

    def test_repeatable(self):
        triples = toy_triples()
        X = np.arange(len(triples) * 2, dtype=float).reshape(-1, 2)
        a = cross_validate(FoldPlan(triples, 3, 9), X, oracle_trainer)
        b = cross_validate(FoldPlan(triples, 3, 9), X, oracle_trainer)
        assert a.to_dict() == b.to_dict()

    def test_folds_partition_entities(self):
        triples = toy_triples()
        X = np.zeros((len(triples), 1))
        seen_test: list[set] = []
        seen_train: list[set] = []

        def capturing(train_triples, X_train, y_train):
            seen_train.append({t.entity_key for t in train_triples})

            def predict(test_triples, X_test):
                seen_test.append({t.entity_key for t in test_triples})
                assert X_test.shape[0] == len(test_triples)
                return [0] * len(test_triples)

            return predict

        cross_validate(FoldPlan(triples, 3, 2), X, capturing)
        all_entities = {t.entity_key for t in triples}
        assert set().union(*seen_test) == all_entities
        assert sum(len(s) for s in seen_test) == len(all_entities)
        for train, test in zip(seen_train, seen_test):
            assert train & test == set()
            assert train | test == all_entities

    def test_trainer_receives_matching_rows(self):
        triples = toy_triples(4, 2)
        X = np.arange(len(triples), dtype=float).reshape(-1, 1)

        def checking(train_triples, X_train, y_train):
            assert X_train.shape[0] == len(train_triples) == y_train.shape[0]
            assert all(y == t.truth for y, t in zip(y_train, train_triples))
            return lambda test_triples, X_test: [0] * len(test_triples)

        cross_validate(FoldPlan(triples, 2, 0), X, checking)

    def test_worker_count_does_not_change_result(self):
        triples = toy_triples()
        X = np.zeros((len(triples), 1))
        a = cross_validate(FoldPlan(triples, 3, 4), X, oracle_trainer, max_workers=1)
        b = cross_validate(FoldPlan(triples, 3, 4), X, oracle_trainer, max_workers=3)
        assert a.to_dict() == b.to_dict()

    def test_nonpositive_workers_rejected(self):
        triples = toy_triples()
        with pytest.raises(ValueError):
            cross_validate(FoldPlan(triples, 3, 0), np.zeros((len(triples), 1)), oracle_trainer,
                           max_workers=0)

    def test_matrix_length_checked(self):
        triples = toy_triples()
        with pytest.raises(ValueError):
            cross_validate(FoldPlan(triples, 2, 0), np.zeros((3, 2)), oracle_trainer)

    def test_truth_required(self):
        triples = [Triple("a", Relation.PROFESSION, "x"),
                   Triple("b", Relation.PROFESSION, "y", 3)]
        with pytest.raises(InputFormatError, match="no truth score"):
            cross_validate(FoldPlan(triples, 2, 0), np.zeros((2, 1)), oracle_trainer)

    def test_result_serializes(self):
        triples = toy_triples(4, 2)
        X = np.zeros((len(triples), 1))
        result = cross_validate(FoldPlan(triples, 2, 0), X, oracle_trainer)
        data = result.to_dict()
        assert len(data["folds"]) == 2
        assert data["mean"]["accuracy"] == 1.0
        assert isinstance(result, CVResult)

    def test_one_worker_runs_the_folds_in_the_calling_thread(self):
        triples = toy_triples()
        threads = set()

        def recording(train_triples, X_train, y_train):
            threads.add(threading.get_ident())
            return oracle_trainer(train_triples, X_train, y_train)

        cross_validate(FoldPlan(triples, 3, 4), np.zeros((len(triples), 1)), recording)
        assert threads == {threading.get_ident()}

    def test_more_workers_run_the_folds_on_a_pool(self, monkeypatch):
        plan = FoldPlan(toy_triples(), 3, 4)
        monkeypatch.setattr(evaluation, "_POOL_MIN_TRAIN_ROWS", min_train_rows(plan))
        threads, pooled = fold_threads(plan, max_workers=2)
        assert len(threads) == 3 and threading.get_ident() not in threads
        assert pooled.to_dict() == fold_threads(plan, max_workers=1)[1].to_dict()

    def test_small_folds_run_in_the_calling_thread_at_any_worker_count(self):
        plan = FoldPlan(toy_triples(), 3, 4)
        assert min_train_rows(plan) < evaluation._POOL_MIN_TRAIN_ROWS
        threads, inline = fold_threads(plan, max_workers=2)
        assert threads == [threading.get_ident()] * 3
        assert inline.to_dict() == fold_threads(plan, max_workers=1)[1].to_dict()

    @pytest.mark.parametrize("above, pool", [(0, True), (1, False)])
    def test_the_pool_starts_exactly_at_the_constant(self, monkeypatch, above, pool):
        plan = FoldPlan(toy_triples(7, 3), 3, 4)  # folds train on 12 to 15 rows
        monkeypatch.setattr(evaluation, "_POOL_MIN_TRAIN_ROWS", min_train_rows(plan) + above)
        threads, result = fold_threads(plan, max_workers=3)
        if pool:
            assert len(threads) == 3 and threading.get_ident() not in threads
        else:
            assert threads == [threading.get_ident()] * 3
        assert result.to_dict() == fold_threads(plan, max_workers=1)[1].to_dict()


def min_train_rows(plan):
    """The training rows of the plan's smallest training side."""
    return min(len(split.train_triples) for split in plan.splits)


def fold_threads(plan, max_workers):
    """The thread that fitted each fold of the plan, and the CV result."""
    threads = []

    def recording(train_triples, X_train, y_train):
        threads.append(threading.get_ident())
        return sum_trainer(train_triples, X_train, y_train)

    X = np.arange(plan.labels.size, dtype=float).reshape(-1, 1)
    result = cross_validate(plan, X, recording, max_workers=max_workers)
    return threads, result


def sum_trainer(train_triples, X_train, y_train):
    """Predictions that depend on the training labels and on each test row."""
    shift = int(y_train.sum())
    return lambda test_triples, X_test: [(shift + int(x)) % 8 for x in X_test[:, 0]]


class TestFoldPlan:
    def test_splits_follow_the_fold_assignment(self):
        triples = toy_triples(7, 3)
        plan = FoldPlan(triples, 3, seed=2)
        keys = list(dict.fromkeys(t.entity_key for t in triples))
        assert plan.assignment == entity_fold_assignments(keys, 3, 2)
        assert plan.labels.tolist() == [t.truth for t in triples]
        assert len(plan.splits) == 3
        for members, split in zip(plan.assignment, plan.splits):
            held = [t.entity_key in members for t in triples]
            assert split.test.tolist() == held
            assert split.test_triples == [t for t, h in zip(triples, held) if h]
            assert split.train_triples == [t for t, h in zip(triples, held) if not h]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_reports_equal_with_and_without_a_plan(self, workers):
        triples = toy_triples(7, 3)
        X = np.arange(len(triples) * 2, dtype=float).reshape(-1, 2)
        plan = FoldPlan(triples, 3, seed=4)
        made = cross_validate(FoldPlan(triples, 3, 4), X, sum_trainer, max_workers=workers)
        given = cross_validate(plan, X, sum_trainer, max_workers=workers)
        assert made.to_dict() == given.to_dict()
        # the plan is read, never changed, so it serves a second trainer too
        again = cross_validate(plan, X, sum_trainer, max_workers=workers)
        assert again.to_dict() == made.to_dict()
        other = cross_validate(plan, X, oracle_trainer, max_workers=workers)
        assert other.to_dict() == cross_validate(FoldPlan(triples, 3, 4), X,
                                                 oracle_trainer).to_dict()
