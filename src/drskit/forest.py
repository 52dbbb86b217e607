"""Seeded regression trees and forests.

Plain CART regression: axis-aligned splits chosen by variance reduction,
bootstrap resampling per tree, and a fresh feature subsample at every
split.  All randomness flows from one integer seed through spawned
per-tree generators, so training is reproducible bit for bit.

Trees are grown in lockstep (``fit_forests``): each round, every
unfinished tree draws the features of its next node in its own
depth-first order, and the nodes of all trees, of any number of forests,
are searched together in batches of similar size.  Each tree comes out
exactly as a node-by-node search would grow it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyTrainingSet, InvalidHyperparameter, SchemaMismatch

__all__ = ["TreeParams", "RegressionTree", "RegressionForest", "fit_forests"]

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
        """Grow the tree on every row of X (the tree's own sample)."""
        X = np.asarray(X, dtype=float)
        n, d = X.shape
        # One node's draws at a time leave rng where rng.choice leaves it.
        _grow(X, [_Growth(self, np.arange(n), np.asarray(y, dtype=float), np.arange(d), rng, params, 1)])
        return self

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

    def __post_init__(self):
        if self.seed < 0:
            raise InvalidHyperparameter(f"seed must be >= 0, got {self.seed}")

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RegressionForest":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise SchemaMismatch(f"X/y shapes do not align: {X.shape} vs {y.shape}")
        if X.shape[0] == 0:
            raise EmptyTrainingSet("no training samples")
        fit_forests(X, [(self, np.arange(X.shape[0]), np.arange(X.shape[1]), y)])
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


def fit_forests(X: np.ndarray, jobs) -> None:
    """Fit several forests on parts of one matrix, growing their trees
    together.

    Each job is ``(forest, rows, cols, y)``: distinct rows and columns of
    X, and the labels of those rows.  The forest comes out as
    ``forest.fit(X[np.ix_(rows, cols)], y)`` would fit it, bit for bit,
    but its trees index X through their bootstrap samples instead of
    copying it.  Trees are grown in lockstep, at most ``_LOCKSTEP_ROWS``
    sample rows at a time (see ``_grow``).
    """
    growths, n_rows = [], 0
    for forest, rows, cols, y in jobs:
        params = forest.params
        n = rows.size
        # Labels by row of X; a bootstrap sample repeats rows, not labels.
        labels = np.zeros(X.shape[0])
        labels[rows] = y
        forest.n_features = cols.size
        forest.trees = []
        for seq in np.random.SeedSequence(forest.seed).spawn(params.n_trees):
            rng = np.random.default_rng(seq)
            sample = rows[rng.integers(0, n, size=n)] if params.bootstrap else rows
            tree = RegressionTree()
            forest.trees.append(tree)
            growths.append(_Growth(tree, sample, labels, cols, rng, params, _DRAW_BLOCK))
            n_rows += n
            if n_rows >= _LOCKSTEP_ROWS:
                _grow(X, growths)
                growths, n_rows = [], 0
    _grow(X, growths)
    for forest, *_ in jobs:
        forest._concat_trees()


# Sample rows (summed over trees) grown in lockstep at once: bounds the
# samples and index lists that unfinished trees hold.
_LOCKSTEP_ROWS = 1 << 20
# Padded (node, drawn feature, row) elements of one batched split search.
_BATCH_ELEMENTS = 1 << 16
# Searched nodes whose feature draws one generator call makes, for the
# trees of fit_forests: their generators are dropped after the tree, so
# drawing past a tree's last node cannot be seen.
_DRAW_BLOCK = 32

_add_reduce = np.add.reduce


class _Growth:
    """A tree being grown: its sample (as rows of the shared matrix), the
    labels by row, its columns of the matrix, its generator and the
    depth-first stack of nodes still to visit.  Its feature draws come
    from its generator ``block`` searched nodes at a time (see ``draw``)."""

    __slots__ = (
        "tree", "labels", "cols", "col_offset", "rng", "d", "mtry", "all_features", "max_depth", "min_leaf",
        "stack", "feature", "threshold", "left", "right", "value", "gains", "draw_span", "draw_bounds", "draws",
        "drawn",
    )

    def __init__(self, tree, sample, labels, cols, rng, params, block):
        if cols.size == 0:
            raise EmptyTrainingSet("the feature matrix has no columns: a tree needs at least one feature")
        self.tree = tree
        self.labels = labels
        self.cols = cols
        self.col_offset = 0
        self.rng = rng
        self.d = cols.size
        self.mtry = params.mtry(self.d)
        self.all_features = np.arange(self.d)
        self.max_depth = np.inf if params.max_depth is None else params.max_depth
        self.min_leaf = params.min_leaf
        self.stack = [(sample, 0, -1, False)]
        self.feature, self.threshold, self.left, self.right, self.value = [], [], [], [], []
        # Python floats add with the bits of a float64 array, and faster.
        self.gains = [0.0] * self.d
        if self.mtry < self.d:
            bounds = _choice_bounds(self.d, self.mtry)
            self.draw_span = len(bounds)
            self.draw_bounds = np.tile(np.add(bounds, 1), block)
        self.draws, self.drawn = [], 0

    def draw(self) -> list:
        """The features ``rng.choice(d, size=mtry, replace=False)`` draws
        next: the generator's bounded integers for ``block`` nodes come
        from one ``integers`` call, which draws them from the stream in
        the same order, and each node's are replayed here."""
        start = self.drawn
        if start == len(self.draws):
            self.draws = self.rng.integers(0, self.draw_bounds).tolist()
            start = 0
        self.drawn = end = start + self.draw_span
        return _choice_replay(self.d, self.mtry, self.draws[start:end])

    def next_search(self):
        """Visit nodes in depth-first preorder, left child first, up to the
        next one worth a split search, and return that search: (growth,
        node id, depth, rows, labels, label sum, label sum of squares,
        parent SSE, drawn features).  None when the tree is finished."""
        stack, labels, value = self.stack, self.labels, self.value
        while stack:
            rows, depth, parent, is_right = stack.pop()
            node_id = len(value)
            if parent >= 0:
                (self.right if is_right else self.left)[parent] = node_id
            n = rows.size
            y_node = labels[rows]
            total1 = float(_add_reduce(y_node))
            value.append(total1 / n)  # the same bits as y_node.mean()
            self.feature.append(_LEAF)
            self.threshold.append(0.0)
            self.left.append(_LEAF)
            self.right.append(_LEAF)
            if depth < self.max_depth and n >= 2 * self.min_leaf:
                total2 = float(y_node @ y_node)
                parent_sse = total2 - total1 * total1 / n
                if parent_sse > 0.0:
                    # The generator draws once per searched node, in preorder.
                    feats = self.draw() if self.mtry < self.d else self.all_features
                    return (self, node_id, depth, rows, y_node, total1, total2, parent_sse, feats)
        t = self.tree
        t.feature = np.asarray(self.feature, dtype=np.int64)
        t.threshold = np.asarray(self.threshold, dtype=float)
        t.left = np.asarray(self.left, dtype=np.int64)
        t.right = np.asarray(self.right, dtype=np.int64)
        t.value = np.asarray(self.value, dtype=float)
        t.gains = np.asarray(self.gains, dtype=float)
        return None


def _choice_bounds(d: int, m: int) -> list:
    """The inclusive upper bounds of the integers, in draw order, from which
    ``Generator.choice(d, size=m, replace=False)`` (0 < m < d) builds its
    sample: for d > 10 000 and m > d // 50 a tail shuffle of ``arange(d)``,
    else Floyd's sampler and then a shuffle of the m picks."""
    if d > 10_000 and m > d // 50:
        return list(range(d - 1, max(d - m, 1) - 1, -1))
    return [*range(d - m, d), *range(m - 1, 0, -1)]


def _choice_replay(d: int, m: int, draws: list) -> list:
    """The sample ``Generator.choice(d, size=m, replace=False)`` builds from
    the bounded integers ``draws`` (see ``_choice_bounds``)."""
    if m == 1:  # Floyd's sampler keeps its one draw, and nothing is shuffled
        return draws
    if d > 10_000 and m > d // 50:
        pool = list(range(d))
        for i, k in zip(range(d - 1, 0, -1), draws):
            pool[i], pool[k] = pool[k], pool[i]
        return pool[d - m :]
    picks, seen = [], set()
    for j, v in zip(range(d - m, d), draws):
        if v in seen:
            v = j
        seen.add(v)
        picks.append(v)
    for i, k in zip(range(m - 1, 0, -1), draws[m:]):
        picks[i], picks[k] = picks[k], picks[i]
    return picks


def _grow(X: np.ndarray, growths: list) -> None:
    """Grow independent trees in lockstep: each unfinished tree waits at
    its next node worth a search, and nodes of similar size are searched
    together, in batches."""
    if not growths:
        return
    offsets = np.cumsum([0] + [g.d for g in growths])
    for g, offset in zip(growths, offsets.tolist()):
        g.col_offset = offset
    shared = _Shared(X, np.concatenate([g.cols for g in growths]), max(g.stack[0][0].size for g in growths))
    advanced = growths
    while advanced:
        # Each tree's next search, by (drawn features, min_leaf, size
        # class); a batch pads its nodes to at most twice their size.
        pending: dict[tuple, list] = {}
        for g in advanced:
            s = g.next_search()
            if s is not None:
                pending.setdefault((g.mtry, g.min_leaf, s[3].size.bit_length()), []).append(s)
        advanced = []
        for (mtry, _, size_class), batch in pending.items():
            step = max(1, _BATCH_ELEMENTS // (mtry << size_class))
            for start in range(0, len(batch), step):
                _search(shared, batch[start : start + step])
            advanced += [s[0] for s in batch]


class _Shared:
    """What every batched search reads: the matrix, the matrix columns of
    every tree (``colmap``, at each tree's ``col_offset``), and each
    value's rank within its column (``_dense_ranks``), column-major, with
    one extra row for padding that ranks like NaN."""

    def __init__(self, X: np.ndarray, colmap: np.ndarray, widest: int):
        self.X = np.ascontiguousarray(X, dtype=float)
        self.colmap = colmap
        n = X.shape[0]
        self.last = n  # the rank of NaN and of the padding row, whose index is n
        # Sort keys are (rank << shift) | position, shift the bits of a
        # position in the widest node.
        fits = (n + 1) << max(1, (widest - 1).bit_length()) < 2**31
        self.dtype = np.int32 if fits else np.int64
        ranks = np.full((X.shape[1], n + 1), n, dtype=self.dtype)
        ranks[:, :n] = _dense_ranks(self.X).T
        self.ranks = ranks.ravel()
        self.has_nan = bool(np.isnan(self.X).any())


def _dense_ranks(X: np.ndarray) -> np.ndarray:
    """Each value's rank among the distinct values of its column, so that
    ranks order rows as their values do (-0.0 and 0.0 share one); NaN
    ranks last, as X.shape[0]."""
    order = X.argsort(axis=0)
    sx = np.take_along_axis(X, order, axis=0)
    rise = np.zeros(X.shape, dtype=np.int64)
    rise[1:] = sx[1:] != sx[:-1]
    ranks = np.empty(X.shape, dtype=np.int64)
    np.put_along_axis(ranks, order, rise.cumsum(axis=0), axis=0)
    ranks[np.isnan(X)] = X.shape[0]
    return ranks


def _search(shared: _Shared, batch: list) -> None:
    """Split the batch's nodes (all with the same number of drawn features
    and the same min_leaf) by their lowest-cost cuts, searched at once.

    Each (node, feature) row is padded to the widest node and sorted by
    the key (rank of the value, position in the node), which orders the
    node's rows as a stable sort of its values would: NaN and then the
    padding go last, so the sequential prefix sums and the costs of the
    node's cuts have the bits of an unpadded search.  The first minimum
    over (feature, cut) in row-major order is the first minimum within
    each feature, then the first feature drawn.
    """
    b = len(batch)
    min_leaf = batch[0][0].min_leaf
    sizes = np.array([s[3].size for s in batch])
    width = int(sizes.max())
    real = np.arange(width) < sizes[:, None]
    last = shared.last
    rows = np.full((b, width), last, dtype=np.intp)
    rows[real] = np.concatenate([s[3] for s in batch])
    y = np.zeros((b, width))
    y[real] = np.concatenate([s[4] for s in batch])
    offsets = np.array([s[0].col_offset for s in batch])
    cols = shared.colmap[offsets[:, None] + np.array([s[8] for s in batch])]

    shift = max(1, (width - 1).bit_length())
    key = shared.ranks.take(cols[:, :, None] * (last + 1) + rows[:, None, :])
    key <<= shift
    key |= np.arange(width, dtype=key.dtype)
    key.sort(axis=-1)
    mask = (1 << shift) - 1

    # Cut p puts sorted rows 0..p on the left, and both children keep at
    # least min_leaf rows: p runs from lo to below hi, for each node.
    lo, hi = min_leaf - 1, width - min_leaf
    position = np.bitwise_and(key[..., :hi], mask, dtype=np.intp)
    position += (np.arange(b) * width)[:, None, None]
    sy = y.ravel().take(position)
    c1 = sy.cumsum(axis=-1)[..., lo:]
    c2 = np.multiply(sy, sy, out=sy).cumsum(axis=-1)[..., lo:]
    # The cost keeps the operation order
    # (c2 - c1**2 / nl) + ((total2 - c2) - (total1 - c1)**2 / nr).
    nl = np.arange(lo + 1.0, hi + 1.0)
    # nr < 1 only past a node's own last cut; the clamp keeps those
    # discarded costs finite.
    nr = np.maximum(sizes[:, None, None] - nl, 1.0)
    total1 = np.array([s[5] for s in batch])[:, None, None]
    total2 = np.array([s[6] for s in batch])[:, None, None]
    right = np.subtract(total1, c1)
    np.square(right, out=right)
    right /= nr
    cost = np.square(c1)
    cost /= nl
    np.subtract(c2, cost, out=cost)
    c2 = np.subtract(total2, c2)
    c2 -= right
    cost += c2
    # A cut is valid only between distinct values, never next to NaN, and
    # within the node's own window.
    sorted_rank = key >> shift
    above = sorted_rank[..., lo + 1 : hi + 1]
    invalid = sorted_rank[..., lo:hi] >= above
    if shared.has_nan:
        invalid |= above == last
    invalid |= np.arange(lo, hi) >= (sizes - min_leaf)[:, None, None]
    np.copyto(cost, np.inf, where=invalid)

    flat = cost.reshape(b, -1)
    k = flat.argmin(axis=1)
    node = np.arange(b)
    best = flat[node, k]
    j, p = np.divmod(k, hi - lo)
    p += lo
    order = key[node, j] & mask
    cut_rows = rows[node[:, None], order[node[:, None], p[:, None] + [0, 1]]]
    X = shared.X
    cut_values = X[cut_rows, cols[node, j][:, None]]
    threshold = 0.5 * (cut_values[:, 0] + cut_values[:, 1])
    # Rows sorted at or before the cut go left.  Masking keeps each node's
    # row order, and that order fixes the order of the children's sums.
    go_left = np.zeros((b, width), dtype=bool)
    go_left[node[:, None], order] = np.arange(width) <= p[:, None]
    left_rows = rows[go_left]
    right_rows = rows[real & ~go_left]
    left_end = np.cumsum(go_left.sum(axis=1)).tolist()
    right_end = (np.cumsum(sizes) - left_end).tolist()

    for i, (s, best_cost, f, thr) in enumerate(zip(batch, best.tolist(), j.tolist(), threshold.tolist())):
        if best_cost == np.inf:
            continue
        g, node_id, depth, _, _, _, _, parent_sse, feats = s
        gain = parent_sse - best_cost
        if gain <= 0.0:
            continue
        f = int(feats[f])
        g.gains[f] += gain
        g.feature[node_id] = f
        g.threshold[node_id] = thr
        g.stack.append((right_rows[right_end[i - 1] if i else 0 : right_end[i]], depth + 1, node_id, True))
        g.stack.append((left_rows[left_end[i - 1] if i else 0 : left_end[i]], depth + 1, node_id, False))
