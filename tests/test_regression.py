import numpy as np
import pytest

from mpcg.dataset import (
    DEFAULT_GRID,
    CostEntry,
    EpsilonGrid,
    SampleRecord,
    build_sample,
    plan_specs,
    read_sample,
)
from mpcg.errors import (
    EmptyTrainingSetError,
    MissingCostEntryError,
    SampleTooSmallError,
)
from mpcg.features import FeatureVector
from mpcg.regression import (
    KnnModel,
    evaluate,
    fit_knn,
    knn_predict,
    load_model,
    save_model,
    save_report,
    split,
)


def feat(n=10, m=20, ell=3, spr=0.5, lam=4.0):
    return FeatureVector(n, m, ell, spr, lam)


def make_record(mid, gid, chi, grid_costs):
    costs = [
        CostEntry(DEFAULT_GRID[i], i + 1, 1, float(c))
        for i, c in enumerate(grid_costs)
    ]
    costs.append(CostEntry(None, 0, int(max(grid_costs)), float(max(grid_costs))))
    return SampleRecord(matrix_id=mid, group_id=gid, spec=None, features=chi, costs=costs)


def sloped_costs(best_class):
    return [10.0 + abs(i + 1 - best_class) for i in range(7)]


class TestScaling:
    """The bounds and scaled points ``fit_knn`` keeps, and the query
    scaling of ``knn_predict``."""

    def test_single_record_is_all_degenerate(self):
        model = fit_knn([make_record("m0", "m0", feat(), sloped_costs(3))], k=1)
        np.testing.assert_array_equal(model.mins, model.maxs)
        np.testing.assert_array_equal(model.points, [[0.5] * 5])
        assert knn_predict(model, feat(n=99, lam=-1.0)) == 3

    def test_three_values_map_affinely(self):
        records = [
            make_record(f"m{i}", f"m{i}", np.full(5, v), sloped_costs(i + 1))
            for i, v in enumerate((2.0, 4.0, 6.0))
        ]
        model = fit_knn(records, k=1)
        np.testing.assert_array_equal(model.mins, [2.0] * 5)
        np.testing.assert_array_equal(model.maxs, [6.0] * 5)
        np.testing.assert_array_equal(model.points, [[0.0] * 5, [0.5] * 5, [1.0] * 5])

    def test_out_of_range_query_clamps(self):
        # Features 0 and 1 span [0, 1], the others are constant.  Unclamped,
        # (3, 0) would be nearest the first point and (-5, 1) the second.
        rows = [(1.0, 1.0), (0.0, 0.0), (0.6, 0.0)]
        records = [
            make_record(f"m{i}", f"m{i}", np.array([*row, 0.0, 0.0, 0.0]), sloped_costs(i + 1))
            for i, row in enumerate(rows)
        ]
        model = fit_knn(records, k=1)
        assert knn_predict(model, np.array([3.0, 0.0, 0.0, 0.0, 0.0])) == 3  # at (1, 0)
        assert knn_predict(model, np.array([-5.0, 1.0, 7.0, 7.0, 7.0])) == 1  # at (0, 1), a tie

    def test_empty_training_set(self):
        with pytest.raises(EmptyTrainingSetError):
            fit_knn([], k=1)


class TestSplit:
    def _groups(self, n_groups, size):
        records = []
        for g in range(n_groups):
            for v in range(size):
                records.append(
                    make_record(f"g{g}m{v}", f"g{g}", feat(n=10 + g), sloped_costs(3))
                )
        return records

    def test_ten_equal_groups_yield_one_test_group(self):
        records = self._groups(10, 4)
        train, test = split(records, 0.1, seed=1)
        assert len(test) == 4
        assert len({r.group_id for r in test}) == 1
        assert len(train) == 36

    def test_groups_never_straddle(self):
        records = self._groups(7, 5)
        train, test = split(records, 0.3, seed=2)
        assert {r.group_id for r in train}.isdisjoint({r.group_id for r in test})

    def test_same_seed_same_split(self):
        records = self._groups(8, 3)
        a = split(records, 0.2, seed=9)
        b = split(records, 0.2, seed=9)
        assert [r.matrix_id for r in a[1]] == [r.matrix_id for r in b[1]]

    def test_record_level_fraction_exact(self):
        records = [
            make_record(f"m{i}", f"m{i}", feat(n=i), sloped_costs(2))
            for i in range(10_000)
        ]
        train, test = split(records, 0.1, seed=0, group_aware=False)
        assert len(test) == 1_000 and len(train) == 9_000

    def test_too_small(self):
        records = self._groups(1, 2)
        with pytest.raises(SampleTooSmallError):
            split(records, 0.9, seed=0)  # train side would be empty
        with pytest.raises(SampleTooSmallError):
            split([], 0.5, seed=0)
        with pytest.raises(SampleTooSmallError, match="test side would be empty"):
            split(records, 0.1, seed=0)  # round(0.1 * 2) = 0 records

    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            split(self._groups(2, 2), 1.5, seed=0)


class TestKnnPredict:
    def _model(self, feats, labels, k):
        records = [
            make_record(f"m{i}", f"m{i}", f, sloped_costs(lab))
            for i, (f, lab) in enumerate(zip(feats, labels))
        ]
        return fit_knn(records, k=k)

    def test_exact_training_point_k1(self):
        feats = [feat(n=10), feat(n=20), feat(n=30)]
        model = self._model(feats, [2, 5, 7], k=1)
        assert knn_predict(model, feats[1]) == 5

    def test_majority_vote(self):
        feats = [feat(n=10), feat(n=11), feat(n=30)]
        model = self._model(feats, [2, 2, 5], k=3)
        assert knn_predict(model, feat(n=12)) == 2

    def test_vote_tie_prefers_larger_eps1(self):
        feats = [feat(n=10), feat(n=30)]
        model = self._model(feats, [5, 2], k=2)
        assert knn_predict(model, feat(n=20)) == 2

    def test_distance_ties_resolved_by_training_order(self):
        # two training points coincide; the earlier one wins the k=1 vote
        feats = [feat(n=10), feat(n=10), feat(n=30)]
        model = self._model(feats, [4, 6, 1], k=1)
        assert knn_predict(model, feat(n=10)) == 4

    def test_affine_rescaling_invariance(self):
        rng = np.random.default_rng(0)
        raw = rng.uniform(1.0, 9.0, size=(40, 5))
        labels = (rng.integers(1, 8, size=40)).tolist()
        queries = rng.uniform(0.0, 10.0, size=(15, 5))
        scale = rng.uniform(0.5, 20.0, 5)
        shift = rng.uniform(-3.0, 3.0, 5)

        def build(mat):
            recs = [
                make_record(f"m{i}", f"m{i}", row, sloped_costs(lab))
                for i, (row, lab) in enumerate(zip(mat, labels))
            ]
            return fit_knn(recs, k=5)

        base = build(raw)
        rescaled = build(raw * scale + shift)
        for q in queries:
            assert knn_predict(base, q) == knn_predict(rescaled, q * scale + shift)

    def test_k_validated(self):
        with pytest.raises(ValueError):
            self._model([feat()], [1], k=2)

    def test_fit_needs_a_valid_record(self):
        rec = make_record("m0", "m0", feat(), sloped_costs(1))
        rec.valid = False
        with pytest.raises(EmptyTrainingSetError, match="no valid labeled records"):
            fit_knn([rec], k=1)

    def test_fit_needs_one_grid(self):
        a = make_record("m0", "m0", feat(), sloped_costs(1))
        b = make_record("m1", "m1", feat(n=20), sloped_costs(2))
        b.costs = b.costs[1:]  # swept without the first grid value
        with pytest.raises(ValueError, match="swept on different grids"):
            fit_knn([a, b], k=1)


class TestEvaluate:
    def test_perfect_classifier_matches_optimal(self):
        feats = [feat(n=10 * (i + 1), lam=3.0 + i) for i in range(12)]
        labels = [1 + (i % 7) for i in range(12)]
        records = [
            make_record(f"m{i}", f"m{i}", f, sloped_costs(lab))
            for i, (f, lab) in enumerate(zip(feats, labels))
        ]
        model = fit_knn(records, k=1)
        report = evaluate(model, records)
        assert report.n_knn == report.n_opt
        assert report.diff_knn_opt == 0.0
        assert np.trace(report.confusion) == 12

    def test_worst_class_predictor_hits_worst_total(self):
        # costs rise monotonically toward class 7, so class 7 is the worst;
        # a single training point forces every prediction to class 7
        records = [
            make_record(f"m{i}", f"m{i}", feat(n=10 + i), sloped_costs(1))
            for i in range(8)
        ]
        anchor = make_record("anchor", "anchor", feat(n=5), sloped_costs(7))
        model = fit_knn([anchor], k=1)
        report = evaluate(model, records)
        assert report.n_knn == report.n_wrst
        assert report.diff_wrst_knn == 0.0

    def test_ordering_invariant_per_row_and_total(self):
        rng = np.random.default_rng(4)
        records = []
        for i in range(30):
            costs = rng.uniform(5.0, 50.0, 7).round(1).tolist()
            records.append(make_record(f"m{i}", f"m{i}", feat(n=i + 3, lam=float(i)), costs))
        model = fit_knn(records[:20], k=3)
        report = evaluate(model, records[20:])
        for row in report.rows:
            assert row.i_opt <= row.i_knn <= row.i_wrst
        assert report.n_opt <= report.n_knn <= report.n_wrst

    def test_deterministic(self):
        records = [
            make_record(f"m{i}", f"m{i}", feat(n=10 + 3 * i), sloped_costs(1 + i % 7))
            for i in range(20)
        ]
        model = fit_knn(records[:15], k=3)
        r1 = evaluate(model, records[15:])
        r2 = evaluate(model, records[15:])
        assert r1.to_dict() == r2.to_dict()

    def test_missing_cost_entry(self):
        rec = make_record("m0", "m0", feat(), sloped_costs(1))
        model = fit_knn([rec], k=1)
        model.grid_values = tuple(v / 3 for v in model.grid_values)
        with pytest.raises(MissingCostEntryError):
            evaluate(model, [rec])

    def test_needs_a_valid_record(self):
        rec = make_record("m0", "m0", feat(), sloped_costs(1))
        model = fit_knn([rec], k=1)
        rec.valid = False
        with pytest.raises(SampleTooSmallError, match="no valid records to evaluate"):
            evaluate(model, [rec])

    def test_k1_self_consistency_on_real_sample(self, tmp_path):
        specs = plan_specs(total=18, n_range=(30, 90), variants=5, seed=6)
        out = tmp_path / "s.jsonl"
        build_sample(specs, EpsilonGrid(), out)
        records = read_sample(out)
        model = fit_knn(records, k=1)
        report = evaluate(model, records)
        assert report.n_knn == report.n_opt


class TestModelIO:
    def test_roundtrip(self, tmp_path):
        records = [
            make_record(f"m{i}", f"m{i}", feat(n=10 + i, spr=0.1 * i), sloped_costs(1 + i % 7))
            for i in range(9)
        ]
        model = fit_knn(records[:6], k=2, test_ids=("m6", "m7", "m8"))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.k == model.k
        assert loaded.grid_values == model.grid_values
        assert loaded.train_ids == model.train_ids
        assert loaded.test_ids == ("m6", "m7", "m8")
        np.testing.assert_array_equal(loaded.points, model.points)
        np.testing.assert_array_equal(loaded.labels, model.labels)
        q = feat(n=14)
        assert knn_predict(loaded, q) == knn_predict(model, q)

    def test_non_finite_model_is_not_written(self, tmp_path):
        # load_model refuses NaN, so save_model must not write it
        records = [make_record(f"m{i}", f"m{i}", feat(n=i), sloped_costs(1)) for i in range(3)]
        model = fit_knn(records, k=1)
        model.mins[3] = np.nan
        path = tmp_path / "model.json"
        with pytest.raises(ValueError, match="Out of range float values"):
            save_model(model, path)
        assert not path.exists()

    def test_report_serialization(self, tmp_path):
        records = [
            make_record(f"m{i}", f"m{i}", feat(n=10 + i), sloped_costs(1 + i % 3))
            for i in range(6)
        ]
        model = fit_knn(records, k=1)
        report = evaluate(model, records)
        path = tmp_path / "report.json"
        save_report(report, path)
        assert path.read_text().startswith("{")
        table = report.format_table()
        assert "N_Opt / N_Wrst" in table and "confusion" in table
