import json

import numpy as np
import pytest

from drskit.errors import EmptyTrainingSet, InputError, InsufficientContents, SchemaMismatch
from drskit.forest import RegressionForest, RegressionTree, TreeParams
from drskit.protocol import CvConfig, cross_validate, greedy_feature_selection
from drskit.vqm import (
    FeatureSchema,
    GopRecord,
    feature_importance,
    load_model,
    model_from_dict,
    model_to_dict,
    predict,
    predict_batch,
    save_model,
    train,
)

RES = (1280, 720)


def make_records(n_contents, per_content, label_fn, rng, n_noise=3):
    """Synthetic records: features = (signal, noise...), label from label_fn."""
    schema = FeatureSchema(("signal",) + tuple(f"noise{i}" for i in range(n_noise)))
    records = []
    for c in range(n_contents):
        for g in range(per_content):
            signal = rng.uniform(0, 1)
            noise = rng.uniform(0, 1, n_noise)
            feats = (signal, *noise)
            records.append(
                GopRecord(f"content{c}", g, 1000.0 * (g + 1), RES, feats, label_jod=label_fn(signal, noise))
            )
    return records, schema


class TestForest:
    def test_memorizes_with_single_unbounded_tree(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, (40, 3))
        y = rng.uniform(0, 10, 40)
        forest = RegressionForest(
            params=TreeParams(n_trees=1, max_depth=None, min_leaf=1, feature_subsample="all", bootstrap=False), seed=1
        )
        forest.fit(X, y)
        assert np.allclose(forest.predict(X), y, atol=1e-12)

    def test_training_beats_constant_predictor(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 1, (120, 4))
        y = 3.0 * X[:, 0] + rng.normal(0, 0.1, 120)
        forest = RegressionForest(params=TreeParams(n_trees=20), seed=2).fit(X, y)
        rmse = np.sqrt(np.mean((forest.predict(X) - y) ** 2))
        const_rmse = np.sqrt(np.mean((y - y.mean()) ** 2))
        assert rmse <= const_rmse

    def test_bit_reproducible(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 1, (60, 5))
        y = rng.uniform(0, 10, 60)
        a = RegressionForest(params=TreeParams(n_trees=12), seed=9).fit(X, y)
        b = RegressionForest(params=TreeParams(n_trees=12), seed=9).fit(X, y)
        q = rng.uniform(0, 1, (30, 5))
        assert np.array_equal(a.predict(q), b.predict(q))

    def test_each_tree_matches_a_lone_tree_from_its_spawned_seed(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(0, 1, (80, 4))
        y = rng.uniform(0, 10, 80)
        params = TreeParams(n_trees=8)
        forest = RegressionForest(params=params, seed=5).fit(X, y)
        q = rng.uniform(0, 1, (25, 4))
        seeds = np.random.SeedSequence(5).spawn(8)
        assert len(forest.trees) == len(seeds)
        for tree, seq in zip(forest.trees, seeds):
            tree_rng = np.random.default_rng(seq)
            idx = tree_rng.integers(0, 80, size=80)
            alone = RegressionTree().fit(X[idx], y[idx], tree_rng, params)
            assert tree.to_dict() == alone.to_dict()
            assert tree.gains.tobytes() == alone.gains.tobytes()
            assert tree.predict(q).tobytes() == alone.predict(q).tobytes()

    @pytest.mark.parametrize(
        "bad",
        [
            dict(n_trees=0),
            dict(max_depth=-1),
            dict(min_leaf=0),
            dict(feature_subsample=float("nan")),
            dict(feature_subsample=float("-inf")),
            dict(feature_subsample=0),
            dict(feature_subsample=-3),
            dict(feature_subsample=0.0),
            dict(feature_subsample=-0.5),
            dict(feature_subsample="half"),
        ],
    )
    def test_bad_params_are_input_errors(self, bad):
        with pytest.raises(InputError):
            TreeParams(**bad)

    def test_boundary_params_are_accepted(self):
        for ok in (
            dict(n_trees=1, max_depth=0, min_leaf=1),
            dict(max_depth=None, feature_subsample=1.0),
            dict(feature_subsample=1),
            dict(feature_subsample="all"),
            dict(feature_subsample=None),
        ):
            TreeParams(**ok)

    def test_tree_from_a_document_checks_its_nodes(self):
        # A split node that is its own child would make predict loop forever.
        doc = {"feature": [0], "threshold": [0.0], "left": [0], "right": [0], "value": [1.0]}
        with pytest.raises(ValueError, match="a child node outside its range"):
            RegressionTree.from_dict(doc, n_features=1)
        with pytest.raises(ValueError, match="'value' array and its 'feature' array differ in length"):
            RegressionTree.from_dict({**doc, "feature": [-1], "value": []}, n_features=1)
        leaf = RegressionTree.from_dict({**doc, "feature": [-1]}, n_features=1)
        assert leaf.predict(np.zeros((2, 1))).tolist() == [1.0, 1.0]

    def test_no_feature_columns_is_an_input_error(self):
        y = np.arange(10.0)
        with pytest.raises(EmptyTrainingSet, match="feature matrix has no columns"):
            RegressionForest(params=TreeParams(n_trees=2)).fit(np.zeros((10, 0)), y)
        with pytest.raises(EmptyTrainingSet, match="feature matrix has no columns"):
            RegressionTree().fit(np.zeros((10, 0)), y, np.random.default_rng(0), TreeParams())

    def test_importances_zero_for_unused_feature(self):
        rng = np.random.default_rng(6)
        X = np.column_stack([rng.uniform(0, 1, 100), np.full(100, 7.0)])
        y = 2.0 * X[:, 0]
        forest = RegressionForest(params=TreeParams(n_trees=10, feature_subsample="all"), seed=7).fit(X, y)
        imp = forest.feature_importances()
        assert imp[1] == 0.0
        assert imp.sum() == pytest.approx(1.0, abs=1e-9)


class TestTrainPredict:
    def test_constant_labels(self):
        rng = np.random.default_rng(10)
        records, schema = make_records(3, 8, lambda s, n: 5.0, rng)
        model = train(records, schema, TreeParams(n_trees=10), seed=0)
        for r in records:
            assert predict(model, r.features) == pytest.approx(5.0, abs=1e-9)

    def test_affine_label_handled_by_base_alone(self):
        rng = np.random.default_rng(11)
        records, schema = make_records(3, 10, lambda s, n: 2.0 + 3.0 * s, rng)
        model = train(records, schema, TreeParams(n_trees=10), seed=0, base_features=("signal",))
        X = np.array([r.features for r in records])
        y = np.array([r.label_jod for r in records])
        base_rmse = np.sqrt(np.mean((model.base_predict(X) - y) ** 2))
        assert base_rmse <= 1e-6
        # With a perfect base, the residual trees contribute (almost) nothing.
        assert np.max(np.abs(model.forest.predict(X))) <= 1e-6

    def test_memorization_through_model(self):
        rng = np.random.default_rng(12)
        records, schema = make_records(2, 12, lambda s, n: 10.0 * s, rng)
        hp = TreeParams(n_trees=1, max_depth=None, min_leaf=1, feature_subsample="all", bootstrap=False)
        model = train(records, schema, hp, seed=0)
        for r in records:
            assert predict(model, r.features) == pytest.approx(r.label_jod, abs=1e-9)

    def test_clamp(self):
        rng = np.random.default_rng(13)
        records, schema = make_records(2, 8, lambda s, n: 11.2, rng)
        model = train(records, schema, TreeParams(n_trees=5), seed=0)
        assert predict(model, records[0].features) == 10.0
        low = train([r for r in records][:8], schema, TreeParams(n_trees=5), seed=0)
        assert 0.0 <= predict(low, records[0].features) <= 10.0

    def test_prediction_is_base_plus_tree_mean(self):
        rng = np.random.default_rng(14)
        records, schema = make_records(3, 10, lambda s, n: 3.0 + 4.0 * s + n[0], rng)
        model = train(records, schema, TreeParams(n_trees=7), seed=3)
        X = np.array([r.features for r in records])
        per_tree = np.stack([t.predict(X) for t in model.forest.trees])
        manual = model.base_predict(X) + per_tree.mean(axis=0)
        assert np.allclose(np.clip(manual, 0, 10), predict_batch(model, X), atol=1e-12)

    def test_empty_training_set(self):
        schema = FeatureSchema(("a", "b"))
        rec = GopRecord("c", 0, 1000.0, RES, (1.0, 2.0), label_jod=None)
        with pytest.raises(EmptyTrainingSet):
            train([rec], schema)

    def test_schema_mismatch(self):
        schema = FeatureSchema(("a", "b"))
        rec = GopRecord("c", 0, 1000.0, RES, (1.0, 2.0, 3.0), label_jod=1.0)
        with pytest.raises(SchemaMismatch):
            train([rec], schema)
        good = GopRecord("c", 0, 1000.0, RES, (1.0, 2.0), label_jod=1.0)
        model = train([good, GopRecord("c", 1, 2000.0, RES, (2.0, 1.0), label_jod=2.0)], schema)
        with pytest.raises(SchemaMismatch):
            predict(model, (1.0, 2.0, 3.0))

    def test_train_reproducible(self):
        rng = np.random.default_rng(15)
        records, schema = make_records(3, 10, lambda s, n: 5 * s + n[1], rng)
        m1 = train(records, schema, TreeParams(n_trees=9), seed=4)
        m2 = train(records, schema, TreeParams(n_trees=9), seed=4)
        assert model_to_dict(m1) == model_to_dict(m2)


class TestImportance:
    def test_planted_signal_dominates(self):
        rng = np.random.default_rng(20)
        records, schema = make_records(4, 20, lambda s, n: 8.0 * s, rng)
        hp = TreeParams(n_trees=30, feature_subsample="all")
        model = train(records, schema, hp, seed=0, base_features=())
        imp = feature_importance(model)
        assert imp["signal"] >= 0.9

    def test_importances_sum_to_one(self):
        rng = np.random.default_rng(21)
        records, schema = make_records(4, 15, lambda s, n: 3 * s + n[0], rng)
        model = train(records, schema, TreeParams(n_trees=20), seed=1)
        assert sum(feature_importance(model).values()) == pytest.approx(1.0, abs=1e-9)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(30)
        records, schema = make_records(3, 10, lambda s, n: 4 * s + 2, rng)
        model = train(records, schema, TreeParams(n_trees=6), seed=8)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        X = rng.uniform(0, 1, (20, len(schema)))
        assert np.array_equal(predict_batch(model, X), predict_batch(loaded, X))
        assert model_to_dict(loaded) == model_to_dict(model)

    def test_forest_dict_keeps_n_trees_beside_params(self):
        rng = np.random.default_rng(34)
        records, schema = make_records(2, 8, lambda s, n: s, rng)
        doc = model_to_dict(train(records, schema, TreeParams(n_trees=2, min_leaf=3), seed=0))["forest"]
        assert doc["n_trees"] == 2 and len(doc["trees"]) == 2
        assert doc["params"] == {"max_depth": 12, "min_leaf": 3, "feature_subsample": "sqrt", "bootstrap": True}
        assert RegressionForest.from_dict(doc).params == TreeParams(n_trees=2, min_leaf=3)
        doc["params"]["min_leaf"] = 0
        with pytest.raises(InputError):
            RegressionForest.from_dict(doc)

    def test_version_check(self):
        rng = np.random.default_rng(31)
        records, schema = make_records(2, 8, lambda s, n: s, rng)
        doc = model_to_dict(train(records, schema, TreeParams(n_trees=2), seed=0))
        doc["format_version"] = 99
        with pytest.raises(SchemaMismatch):
            model_from_dict(doc)

    def test_truncated_file_is_input_error(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format_version": 1,', encoding="utf-8")
        with pytest.raises(InputError, match="not valid JSON") as err:
            load_model(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda doc: doc.pop("forest"),
            lambda doc: doc["base"].pop("intercept"),
            lambda doc: doc.__setitem__("schema", ["names"]),
            lambda doc: doc.__setitem__("seed", "seven"),
            lambda doc: doc["base"].__setitem__("coefs", {"a": 1}),
            lambda doc: doc["forest"]["trees"][0]["left"].__setitem__(0, 10**6),
            lambda doc: doc["forest"]["trees"][0]["right"].__setitem__(0, 0),
            lambda doc: doc["forest"]["trees"][0]["feature"].__setitem__(0, 99),
            lambda doc: doc["forest"]["trees"][0]["value"].pop(),
        ],
        ids=[
            "no-forest",
            "no-intercept",
            "schema-list",
            "seed-text",
            "coefs-object",
            "child-past-tree",
            "child-loops-back",
            "feature-past-schema",
            "short-node-array",
        ],
    )
    def test_bad_field_is_input_error(self, tmp_path, damage):
        rng = np.random.default_rng(33)
        records, schema = make_records(2, 8, lambda s, n: s, rng)
        doc = model_to_dict(train(records, schema, TreeParams(n_trees=2), seed=0))
        damage(doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(InputError, match="missing or malformed field") as err:
            load_model(path)
        assert str(path) in str(err.value)

    def test_json_stable(self, tmp_path):
        rng = np.random.default_rng(32)
        records, schema = make_records(2, 8, lambda s, n: 2 * s, rng)
        model = train(records, schema, TreeParams(n_trees=3), seed=1)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, p1)
        save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()
        json.loads(p1.read_text())  # valid JSON


class TestCrossValidate:
    def test_leave_one_content_out(self):
        rng = np.random.default_rng(40)
        records, schema = make_records(5, 8, lambda s, n: 9 * s, rng)
        cv = CvConfig(folds=5, runs=1, seed=0)
        result = cross_validate(records, schema, cv, TreeParams(n_trees=5))
        # 5 contents over 5 folds: every content scored exactly once.
        assert sorted(r.content_id for r in result.rows) == sorted(f"content{i}" for i in range(5))

    def test_runs_one_aggregate_is_plain_mean(self):
        rng = np.random.default_rng(41)
        records, schema = make_records(4, 10, lambda s, n: 7 * s + 0.5 * n[0], rng)
        cv = CvConfig(folds=2, runs=1, seed=3)
        result = cross_validate(records, schema, cv, TreeParams(n_trees=5))
        rmses = [v["rmse"] for v in result.per_content.values()]
        assert result.aggregate["rmse"] == pytest.approx(np.mean(rmses))
        by_content = {r.content_id: r.rmse for r in result.rows}
        for c, v in result.per_content.items():
            assert v["rmse"] == pytest.approx(by_content[c])

    def test_oracle_features_give_perfect_srocc(self):
        rng = np.random.default_rng(42)
        # Label equals the signal feature: any reasonable model ranks
        # held-out GOPs perfectly.
        records, schema = make_records(4, 12, lambda s, n: 10.0 * s, rng, n_noise=1)
        cv = CvConfig(folds=4, runs=2, seed=1)
        result = cross_validate(records, schema, cv, TreeParams(n_trees=20), base_features=("signal",))
        assert result.aggregate["srocc"] == pytest.approx(1.0)
        for row in result.rows:
            assert row.srocc == pytest.approx(1.0)

    def test_insufficient_contents(self):
        rng = np.random.default_rng(43)
        records, schema = make_records(3, 5, lambda s, n: s, rng)
        with pytest.raises(InsufficientContents):
            cross_validate(records, schema, CvConfig(folds=5, runs=1, seed=0))

    def test_bit_reproducible(self):
        rng = np.random.default_rng(44)
        records, schema = make_records(5, 6, lambda s, n: 4 * s + n[0], rng)
        cv = CvConfig(folds=3, runs=3, seed=7)
        a = cross_validate(records, schema, cv, TreeParams(n_trees=4))
        b = cross_validate(records, schema, cv, TreeParams(n_trees=4))
        assert a.rows == b.rows
        assert a.aggregate == b.aggregate


class TestGfs:
    def test_planted_signal_selected_first(self):
        rng = np.random.default_rng(50)
        records, schema = make_records(6, 10, lambda s, n: 10.0 * s, rng)
        cv = CvConfig(folds=3, runs=1, seed=0)
        result = greedy_feature_selection(records, schema, cv, hyperparams=TreeParams(n_trees=10), base_features=())
        assert result.selected[0] == "signal"

    def test_duplicate_candidates_select_one(self):
        rng = np.random.default_rng(51)
        schema = FeatureSchema(("copy_a", "copy_b"))
        records = []
        for c in range(4):
            for g in range(10):
                v = rng.uniform(0, 1)
                records.append(GopRecord(f"content{c}", g, 1000.0, RES, (v, v), label_jod=10 * v))
        cv = CvConfig(folds=2, runs=1, seed=0)
        result = greedy_feature_selection(
            records, schema, cv, objective="srocc", hyperparams=TreeParams(n_trees=5), base_features=()
        )
        assert len(result.selected) == 1

    def test_infinite_epsilon_selects_nothing(self):
        rng = np.random.default_rng(52)
        records, schema = make_records(4, 8, lambda s, n: 5 * s, rng)
        cv = CvConfig(folds=2, runs=1, seed=0)
        result = greedy_feature_selection(
            records, schema, cv, epsilon=float("inf"), hyperparams=TreeParams(n_trees=5)
        )
        assert result.selected == ()

    def test_score_trajectory_monotone(self):
        rng = np.random.default_rng(53)
        records, schema = make_records(5, 10, lambda s, n: 6 * s + 2 * n[0], rng)
        cv = CvConfig(folds=3, runs=1, seed=2)
        result = greedy_feature_selection(records, schema, cv, hyperparams=TreeParams(n_trees=8), base_features=())
        sroccs = [s.score for s in result.steps]
        assert all(b > a for a, b in zip(sroccs, sroccs[1:]))

    def test_insufficient_contents(self):
        rng = np.random.default_rng(54)
        records, schema = make_records(2, 5, lambda s, n: s, rng)
        with pytest.raises(InsufficientContents):
            greedy_feature_selection(records, schema, CvConfig(folds=5, runs=1, seed=0))
