"""Differential tests of the forest against its earlier per-feature code.

``OracleTree`` keeps the split search that ran one stable argsort per
node and feature, and ``oracle_fit``/``oracle_predict`` keep the forest's
tree loop and its per-tree prediction sum.  The vectorised forest must
grow the same trees (same JSON, same gains) and predict the same bits.
"""

import dataclasses
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from drskit.forest import _DRAW_BLOCK, RegressionForest, RegressionTree, TreeParams, _Growth, fit_forests

_LEAF = -1


class OracleTree:
    def fit(self, X, y, rng, params):
        n, d = X.shape
        mtry = params.mtry(d)
        feature, threshold, left, right, value = [], [], [], [], []
        gains = np.zeros(d)

        stack = [(np.arange(n), 0, -1, False)]
        while stack:
            idx, depth, parent, is_right = stack.pop()
            node_id = len(feature)
            if parent >= 0:
                (right if is_right else left)[parent] = node_id

            y_node = y[idx]
            mean = float(y_node.mean())
            split = None
            if (params.max_depth is None or depth < params.max_depth) and idx.size >= 2 * params.min_leaf:
                split = self._best_split(X, y_node, idx, rng, mtry, params.min_leaf)

            if split is None:
                feature.append(_LEAF)
                threshold.append(0.0)
                left.append(_LEAF)
                right.append(_LEAF)
                value.append(mean)
                continue

            f, thr, gain, left_idx, right_idx = split
            gains[f] += gain
            feature.append(f)
            threshold.append(thr)
            left.append(_LEAF)
            right.append(_LEAF)
            value.append(mean)
            stack.append((right_idx, depth + 1, node_id, True))
            stack.append((left_idx, depth + 1, node_id, False))

        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=float)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.value = np.asarray(value, dtype=float)
        self.gains = gains
        return self

    @staticmethod
    def _best_split(X, y_node, idx, rng, mtry, min_leaf):
        n = idx.size
        total1 = y_node.sum()
        total2 = float(y_node @ y_node)
        parent_sse = total2 - total1 * total1 / n
        if parent_sse <= 0.0:
            return None

        d = X.shape[1]
        feats = rng.choice(d, size=mtry, replace=False) if mtry < d else np.arange(d)

        best = None
        for f in feats:
            v = X[idx, f]
            order = np.argsort(v, kind="stable")
            sv = v[order]
            sy = y_node[order]
            pos = np.arange(min_leaf - 1, n - min_leaf)
            pos = pos[sv[pos] < sv[pos + 1]]
            if pos.size == 0:
                continue
            c1 = np.cumsum(sy)
            c2 = np.cumsum(sy * sy)
            nl = pos + 1.0
            nr = n - nl
            sse_l = c2[pos] - c1[pos] ** 2 / nl
            sse_r = (total2 - c2[pos]) - (total1 - c1[pos]) ** 2 / nr
            cost = sse_l + sse_r
            k = int(np.argmin(cost))
            if best is None or cost[k] < best[0]:
                thr = 0.5 * (sv[pos[k]] + sv[pos[k] + 1])
                best = (float(cost[k]), int(f), thr, order, pos[k])

        if best is None:
            return None
        cost, f, thr, order, cut = best
        gain = parent_sse - cost
        if gain <= 0.0:
            return None
        sorted_idx = idx[order]
        return f, thr, gain, np.sort(sorted_idx[: cut + 1]), np.sort(sorted_idx[cut + 1 :])

    def predict(self, X):
        node = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            feats = self.feature[node]
            active = feats != _LEAF
            if not active.any():
                break
            rows = np.flatnonzero(active)
            f = feats[rows]
            go_left = X[rows, f] <= self.threshold[node[rows]]
            node[rows] = np.where(go_left, self.left[node[rows]], self.right[node[rows]])
        return self.value[node]

    def to_dict(self):
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": self.value.tolist(),
        }


def oracle_fit(X, y, n_trees, params, seed):
    n = X.shape[0]
    trees = []
    for seq in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(seq)
        idx = rng.integers(0, n, size=n) if params.bootstrap else np.arange(n)
        trees.append(OracleTree().fit(X[idx], y[idx], rng, params))
    return trees


def oracle_predict(trees, X):
    out = np.zeros(X.shape[0])
    for t in trees:
        out += t.predict(X)
    return out / len(trees)


@st.composite
def forest_cases(draw):
    min_leaf = draw(st.integers(1, 6))
    d = draw(st.integers(1, 14))
    n = draw(st.integers(2 * min_leaf - 1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    levels = draw(st.sampled_from([None, 1, 2, 3, 5]))  # None: continuous
    X = rng.normal(size=(n, d)) if levels is None else rng.integers(0, levels, (n, d)).astype(float)
    if draw(st.booleans()):  # duplicate rows
        X = X[rng.integers(0, max(1, n // 3), n)]
    if d > 1 and draw(st.booleans()):  # duplicate column
        X[:, rng.integers(0, d)] = X[:, rng.integers(0, d)]
    if draw(st.booleans()):  # NaN column, partly or wholly
        X[rng.random(n) < draw(st.sampled_from([0.3, 1.0])), rng.integers(0, d)] = np.nan

    y_kind = draw(st.sampled_from(["normal", "integer", "constant"]))
    if y_kind == "normal":
        y = rng.normal(2.0, 3.0, n)
    elif y_kind == "integer":
        y = rng.integers(0, 4, n).astype(float)
    else:
        y = np.full(n, draw(st.sampled_from([0.0, -0.0, 3.5])))

    subsample = draw(
        st.one_of(
            st.sampled_from(["sqrt", "all"]),
            st.integers(1, d + 2),
            st.floats(0.05, 1.0),
        )
    )
    params = TreeParams(
        max_depth=draw(st.sampled_from([None, 0, 3])),
        min_leaf=min_leaf,
        feature_subsample=subsample,
        bootstrap=draw(st.booleans()),
    )
    Q = np.concatenate([X, rng.normal(size=(7, d)), np.full((1, d), np.nan)])
    # Nine trees or more: summing one row's leaf values pairwise (as a
    # reduction along the tree axis may) would change the last bits.
    params = dataclasses.replace(params, n_trees=draw(st.integers(1, 12)))
    return X, y, params, draw(st.integers(0, 2**32 - 1)), Q


@settings(max_examples=250, deadline=None)
@given(forest_cases())
def test_forest_matches_per_feature_oracle(case):
    X, y, params, seed, Q = case
    forest = RegressionForest(params=params, seed=seed).fit(X, y)
    oracle = oracle_fit(X, y, params.n_trees, params, seed)

    # json.dumps tells -0.0 from 0.0, which == on dicts does not.
    assert json.dumps(forest.to_dict()["trees"]) == json.dumps([t.to_dict() for t in oracle])
    for tree, old in zip(forest.trees, oracle):
        assert tree.gains.tobytes() == old.gains.tobytes()
    expected = oracle_predict(oracle, Q).tobytes()
    assert forest.predict(Q).tobytes() == expected
    assert RegressionForest.from_dict(forest.to_dict()).predict(Q).tobytes() == expected
    for i in (0, -2, -1):  # one row at a time, as vqm.predict calls it
        assert forest.predict(Q[[i]]).tobytes() == oracle_predict(oracle, Q[[i]]).tobytes()


@st.composite
def forest_batches(draw):
    """One shared matrix (NaN, inf, -0.0 and 0.0, repeated rows) and 1-5
    forests on distinct rows and columns of it, in any order, each with
    its own labels, seed and parameters."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_rows, d = draw(st.integers(1, 120)), draw(st.integers(1, 8))
    X = rng.integers(-2, 3, (n_rows, d)).astype(float) if draw(st.booleans()) else rng.normal(size=(n_rows, d))
    X[rng.random((n_rows, d)) < 0.1] = -0.0
    if draw(st.booleans()):
        X[rng.random((n_rows, d)) < 0.15] = np.nan
    if draw(st.booleans()):
        X[rng.random((n_rows, d)) < 0.05] = np.inf
    if draw(st.booleans()):
        X = X[rng.integers(0, max(1, n_rows // 2), n_rows)]
    jobs = []
    for _ in range(draw(st.integers(1, 5))):
        rows = rng.permutation(n_rows)[: draw(st.integers(1, n_rows))]
        cols = rng.permutation(d)[: draw(st.integers(1, d))]
        y = rng.integers(0, 4, rows.size).astype(float) if draw(st.booleans()) else rng.normal(size=rows.size)
        params = TreeParams(
            n_trees=draw(st.integers(1, 6)),
            max_depth=draw(st.sampled_from([None, 0, 2, 6])),
            min_leaf=draw(st.integers(1, 5)),
            feature_subsample=draw(st.one_of(st.sampled_from(["sqrt", "all"]), st.integers(1, 4), st.floats(0.1, 1.0))),
            bootstrap=draw(st.booleans()),
        )
        jobs.append((RegressionForest(params=params, seed=draw(st.integers(0, 2**32 - 1))), rows, cols, y))
    return X, jobs


@settings(max_examples=150, deadline=None)
@given(forest_batches())
def test_forests_fitted_together_match_each_fitted_alone(case):
    X, jobs = case
    fit_forests(X, jobs)
    Q = np.concatenate([X, np.full((1, X.shape[1]), np.nan)])
    for forest, rows, cols, y in jobs:
        alone = RegressionForest(params=forest.params, seed=forest.seed).fit(X[np.ix_(rows, cols)], y)
        oracle = oracle_fit(X[np.ix_(rows, cols)], y, forest.params.n_trees, forest.params, forest.seed)
        assert json.dumps(forest.to_dict()) == json.dumps(alone.to_dict())
        assert json.dumps(forest.to_dict()["trees"]) == json.dumps([t.to_dict() for t in oracle])
        for tree, other in zip(forest.trees, alone.trees):
            assert tree.gains.tobytes() == other.gains.tobytes()
        assert forest.predict(Q[:, cols]).tobytes() == alone.predict(Q[:, cols]).tobytes()


def test_no_forests_is_a_no_op():
    fit_forests(np.zeros((3, 2)), [])
    fit_forests(np.zeros((0, 0)), [])


def test_one_feature_draw_without_a_size_is_the_size_one_draw():
    # A single-feature draw, choice(d) without a size, reads the stream
    # as choice(d, size=1) does: one bounded integer in [0, d - 1].
    for d in range(2, 40):
        for seed in range(5):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(50):
                assert a.choice(d, replace=False) == b.choice(d, size=1, replace=False)[0]
            assert a.bit_generator.state == b.bit_generator.state


def block_drawer(d, m, seed, block=_DRAW_BLOCK):
    """A tree grower over d features that draws m of them per node."""
    params = TreeParams(feature_subsample=m)
    assert params.mtry(d) == m
    rng = np.random.default_rng(seed)
    return _Growth(RegressionTree(), np.arange(2), np.zeros(2), np.arange(d), rng, params, block)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 64).flatmap(lambda d: st.tuples(st.just(d), st.integers(1, d - 1))), st.integers(0, 2**32 - 1))
def test_block_draws_are_successive_choice_draws(dm, seed):
    d, m = dm
    grower, rng = block_drawer(d, m, seed), np.random.default_rng(seed)
    # Past two blocks, so that a block is drawn after another.
    for _ in range(2 * _DRAW_BLOCK + 3):
        assert grower.draw() == rng.choice(d, size=m, replace=False).tolist()


def test_block_draws_in_the_tail_shuffle_regime():
    # choice shuffles the tail of arange(d) when d > 10 000 and m > d // 50.
    for d, m in [(20_000, 1_000), (12_000, 300), (20_000, 19_999), (10_001, 201), (10_001, 200), (10_000, 201)]:
        grower, rng = block_drawer(d, m, d + m, block=2), np.random.default_rng(d + m)
        for _ in range(3):
            assert grower.draw() == rng.choice(d, size=m, replace=False).tolist()


@settings(max_examples=100, deadline=None)
@given(forest_cases())
def test_tree_leaves_the_callers_generator_where_the_oracle_does(case):
    X, y, params, seed, _ = case
    mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    tree = RegressionTree().fit(X, y, mine, params)
    oracle = OracleTree().fit(X, y, theirs, params)
    assert json.dumps(tree.to_dict()) == json.dumps(oracle.to_dict())
    assert mine.bit_generator.state == theirs.bit_generator.state
