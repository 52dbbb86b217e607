"""Seeded regression trees and forests.

Plain CART regression: axis-aligned splits chosen by variance reduction,
bootstrap resampling per tree, and a fresh feature subsample at every
split.  All randomness flows from one integer seed through spawned
per-tree generators, so training is reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyTrainingSet, InvalidHyperparameter, SchemaMismatch

__all__ = ["TreeParams", "RegressionTree", "RegressionForest"]

_LEAF = -1


@dataclass(frozen=True)
class TreeParams:
    n_trees: int = 100
    max_depth: int | None = 12
    min_leaf: int = 4
    feature_subsample: str | int | float | None = "sqrt"
    bootstrap: bool = True

    def __post_init__(self):
        if self.n_trees < 1:
            raise InvalidHyperparameter(f"n_trees must be >= 1, got {self.n_trees}")
        if self.max_depth is not None and self.max_depth < 0:
            raise InvalidHyperparameter(f"max_depth must be >= 0 or None, got {self.max_depth}")
        if self.min_leaf < 1:
            raise InvalidHyperparameter(f"min_leaf must be >= 1, got {self.min_leaf}")
        if isinstance(self.feature_subsample, float) and not np.isfinite(self.feature_subsample):
            raise InvalidHyperparameter(f"feature_subsample must be finite, got {self.feature_subsample}")

    def mtry(self, n_features: int) -> int:
        fs = self.feature_subsample
        if fs is None or fs == "all":
            return n_features
        if fs == "sqrt":
            return max(1, int(round(np.sqrt(n_features))))
        if isinstance(fs, float):
            return max(1, min(n_features, int(round(fs * n_features))))
        return max(1, min(n_features, int(fs)))


class RegressionTree:
    """One CART regression tree stored as flat node arrays."""

    def __init__(self):
        self.feature: np.ndarray | None = None
        self.threshold: np.ndarray | None = None
        self.left: np.ndarray | None = None
        self.right: np.ndarray | None = None
        self.value: np.ndarray | None = None
        # Raw variance-reduction gain accumulated per feature.
        self.gains: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray, rng: np.random.Generator, params: TreeParams) -> "RegressionTree":
        n, d = X.shape
        mtry = params.mtry(d)
        feature, threshold, left, right, value = [], [], [], [], []
        gains = np.zeros(d)

        # Depth-first, children pushed right-then-left so the left child
        # is processed next; node ids are assigned in visit order.
        stack = [(np.arange(n), 0, -1, False)]
        while stack:
            idx, depth, parent, is_right = stack.pop()
            node_id = len(feature)
            if parent >= 0:
                (right if is_right else left)[parent] = node_id

            y_node = y[idx]
            total1 = y_node.sum()
            mean = float(total1 / idx.size)  # the same bits as y_node.mean()
            split = None
            if (params.max_depth is None or depth < params.max_depth) and idx.size >= 2 * params.min_leaf:
                split = self._best_split(X, y_node, total1, idx, rng, mtry, params.min_leaf)

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
    def _best_split(X, y_node, total1, idx, rng, mtry, min_leaf):
        """Lowest-cost cut over the node's feature draw, searched for all
        drawn features at once (one column each).  Ties go to the first
        cut within a feature, then to the first feature drawn."""
        n = idx.size
        total2 = float(y_node @ y_node)
        parent_sse = total2 - total1 * total1 / n
        if parent_sse <= 0.0:
            return None

        d = X.shape[1]
        feats = rng.choice(d, size=mtry, replace=False) if mtry < d else np.arange(d)
        cols = np.arange(feats.size)

        V = X[idx[:, None], feats]
        order = V.argsort(axis=0, kind="stable")
        sv = V[order, cols]
        sy = y_node[order]
        # Cut p puts sorted rows 0..p on the left; both children keep at
        # least min_leaf samples.  A cut is valid only between distinct
        # values, so NaN (sorted last) never bounds a valid cut.
        lo, hi = min_leaf - 1, n - min_leaf
        c1 = sy[:hi].cumsum(axis=0)[lo:]
        c2 = (sy[:hi] * sy[:hi]).cumsum(axis=0)[lo:]
        nl = np.arange(lo + 1.0, hi + 1.0)[:, None]
        nr = n - nl
        cost = (c2 - c1**2 / nl) + ((total2 - c2) - (total1 - c1) ** 2 / nr)
        cost[~(sv[lo:hi] < sv[lo + 1 : hi + 1])] = np.inf

        ks = cost.argmin(axis=0)
        best = cost[ks, cols]
        j = int(best.argmin())
        if best[j] == np.inf:
            return None
        gain = parent_sse - float(best[j])
        if gain <= 0.0:
            return None
        cut = lo + int(ks[j])
        thr = 0.5 * (sv[cut, j] + sv[cut + 1, j])
        # Rows sorted at or before the cut go left.  Masking keeps idx
        # order, and every index list starts as arange(n), so the
        # children's index lists stay ascending.
        go_left = V[:, j] <= sv[cut, j]
        return int(feats[j]), thr, gain, idx[go_left], idx[~go_left]

    def predict(self, X: np.ndarray) -> np.ndarray:
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

    def to_dict(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": self.value.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict, n_features: int) -> "RegressionTree":
        t = cls()
        t.feature = np.asarray(d["feature"], dtype=np.int64)
        t.threshold = np.asarray(d["threshold"], dtype=float)
        t.left = np.asarray(d["left"], dtype=np.int64)
        t.right = np.asarray(d["right"], dtype=np.int64)
        t.value = np.asarray(d["value"], dtype=float)
        t.gains = np.zeros(n_features)
        return t


@dataclass
class RegressionForest:
    params: TreeParams = field(default_factory=TreeParams)
    seed: int = 0
    trees: list[RegressionTree] = field(default_factory=list)
    n_features: int = 0
    # All trees' nodes in one set of arrays (see _concat_trees); set by
    # fit and from_dict.
    _nodes: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RegressionForest":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise SchemaMismatch(f"X/y shapes do not align: {X.shape} vs {y.shape}")
        if X.shape[0] == 0:
            raise EmptyTrainingSet("no training samples")
        self.n_features = X.shape[1]
        n = X.shape[0]

        self.trees = []
        for seq in np.random.SeedSequence(self.seed).spawn(self.params.n_trees):
            rng = np.random.default_rng(seq)
            idx = rng.integers(0, n, size=n) if self.params.bootstrap else np.arange(n)
            self.trees.append(RegressionTree().fit(X[idx], y[idx], rng, self.params))
        self._concat_trees()
        return self

    def _concat_trees(self) -> None:
        if not self.trees:
            self._nodes = None
            return
        sizes = [t.feature.size for t in self.trees]
        roots = np.cumsum([0] + sizes[:-1])

        def concat(name):
            parts = [getattr(t, name) for t in self.trees]
            if [a.size for a in parts] != sizes:
                raise ValueError(f"a tree's {name!r} array and its 'feature' array differ in length")
            return np.concatenate(parts)

        feature = concat("feature")
        is_leaf = feature == _LEAF
        own = np.arange(feature.size)
        shift = np.repeat(roots, sizes)
        left = concat("left") + shift
        right = concat("right") + shift
        # Node ids are assigned depth-first, so a split node's children
        # come after it and inside its own tree; a tree read from a file
        # that breaks this would walk into another tree, or forever.
        end = np.repeat(roots + sizes, sizes)
        bad_feature = (feature < 0) | (feature >= self.n_features)
        bad_child = (left <= own) | (left >= end) | (right <= own) | (right >= end)
        if np.any((bad_feature | bad_child) & ~is_leaf):
            raise ValueError("a split node names a feature or a child node outside its range")
        # Global node ids; a leaf's two children are the leaf itself, so a
        # step from a leaf stays there whatever the comparison says.
        children = np.stack([np.where(is_leaf, own, left), np.where(is_leaf, own, right)], axis=1)
        self._nodes = (
            is_leaf,
            np.where(is_leaf, 0, feature),
            concat("threshold"),
            children.ravel(),
            concat("value"),
            roots,
        )

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not self.trees:
            raise EmptyTrainingSet("forest has not been fitted")
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise SchemaMismatch(f"expected {self.n_features} features, got {X.shape}")
        is_leaf, feature, threshold, children, value, roots = self._nodes
        n_rows, d = X.shape
        # One walk for every (tree, row) pair, one step per depth level.
        # Child 2*node is the left one, 2*node + 1 the right one, taken
        # when x <= threshold fails (so also for NaN).
        node = np.repeat(roots, n_rows)
        row_start = np.tile(np.arange(n_rows) * d, roots.size)
        x = X.ravel()
        while not is_leaf[node].all():
            go_right = ~(x[row_start + feature[node]] <= threshold[node])
            node = children[2 * node + go_right]
        # Sum tree by tree, in tree order, as a loop over trees would.
        out = np.zeros(n_rows)
        for leaf_values in value[node].reshape(roots.size, n_rows):
            out += leaf_values
        return out / len(self.trees)

    def feature_importances(self) -> np.ndarray:
        """Variance-reduction gains summed over all splits, normalized to
        sum to 1 (all zeros if no tree ever split)."""
        total = np.zeros(self.n_features)
        for t in self.trees:
            total += t.gains
        s = total.sum()
        return total / s if s > 0 else total

    def to_dict(self) -> dict:
        return {
            "n_trees": self.params.n_trees,
            "seed": self.seed,
            "n_features": self.n_features,
            "params": {
                "max_depth": self.params.max_depth,
                "min_leaf": self.params.min_leaf,
                "feature_subsample": self.params.feature_subsample,
                "bootstrap": self.params.bootstrap,
            },
            "trees": [t.to_dict() for t in self.trees],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RegressionForest":
        params = TreeParams(
            n_trees=d["n_trees"],
            max_depth=d["params"]["max_depth"],
            min_leaf=d["params"]["min_leaf"],
            feature_subsample=d["params"]["feature_subsample"],
            bootstrap=d["params"]["bootstrap"],
        )
        forest = cls(params=params, seed=d["seed"])
        forest.n_features = d["n_features"]
        forest.trees = [RegressionTree.from_dict(t, forest.n_features) for t in d["trees"]]
        forest._concat_trees()
        return forest
