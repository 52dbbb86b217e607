"""Content-split repeated cross-validation and greedy feature selection.

Videos derived from the same source content always land in the same
fold, so a model is never evaluated on content it saw in training; the
guard is asserted on every fold.  Aggregation takes the per-content
median over runs first, then the mean across contents.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corr import _row_medians, spearman
from .errors import InsufficientContents, InvalidHyperparameter, InvariantError, SchemaMismatch
from .forest import TreeParams, fit_forests
from .vqm import DEFAULT_BASE_FEATURES, FeatureSchema, GopRecord, _fit_base, _labeled_matrix

__all__ = [
    "CvConfig",
    "CvRow",
    "CvResult",
    "GfsStep",
    "GfsResult",
    "cross_validate",
    "greedy_feature_selection",
]


@dataclass(frozen=True)
class CvConfig:
    folds: int = 5
    runs: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.folds < 2:
            raise InvalidHyperparameter(f"folds must be >= 2, got {self.folds}")
        if self.runs < 1:
            raise InvalidHyperparameter(f"runs must be >= 1, got {self.runs}")
        if self.seed < 0:
            raise InvalidHyperparameter(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class CvRow:
    run: int
    fold: int
    content_id: str
    n_records: int
    srocc: float  # NaN when undefined for this content/run
    rmse: float


@dataclass(frozen=True)
class CvResult:
    rows: tuple[CvRow, ...]
    per_content: dict[str, dict[str, float]]
    aggregate: dict[str, float]

    def metric(self, name: str) -> float:
        return self.aggregate[name]


def _content_srocc(labels: np.ndarray, preds: np.ndarray) -> float:
    if labels.size < 3:
        return float("nan")
    return spearman(labels, preds)  # NaN for constant labels or predictions


def cross_validate(
    records: list[GopRecord],
    schema: FeatureSchema,
    cv: CvConfig,
    hyperparams: TreeParams | None = None,
    base_features: tuple[str, ...] = DEFAULT_BASE_FEATURES,
) -> CvResult:
    """Repeated k-fold CV with content-based splits.

    Per run, contents are shuffled with a run-derived seed and split into
    ``folds`` groups; a model is trained on the remaining groups and
    scored on the held-out one.  Returns every (run, fold, content) row
    plus the median-then-mean aggregate for SROCC and RMSE.
    """
    X, y, content_ids = _labeled_matrix(records, schema)
    candidate = (np.arange(len(schema)), schema)
    return _cross_validate(X, y, content_ids, [candidate], cv, hyperparams, base_features)[0]


def _cross_validate(X, y, content_ids, candidates, cv, hyperparams, base_features) -> list[CvResult]:
    """``cross_validate`` on the rows ``_labeled_matrix`` gathered, once for
    each candidate ``(cols, schema)``: the model sees only those columns of
    X, named by that schema.  Each run fits every candidate's fold forests
    together, and no more, so memory stays bounded by one run."""
    contents = sorted(set(content_ids))
    if len(contents) < cv.folds:
        raise InsufficientContents(f"{len(contents)} contents cannot fill {cv.folds} folds")
    position = {c: k for k, c in enumerate(contents)}
    codes = np.array([position[c] for c in content_ids], dtype=np.intp)
    # Training rows go by sorted content, then file order: the forest's
    # bootstrap draws rows by position, so this order fixes the model.
    grouped = np.argsort(codes, kind="stable")
    rows_of = [np.flatnonzero(codes == k) for k in range(len(contents))]

    rows: list[list[CvRow]] = [[] for _ in candidates]
    # Every content is held out once per run: each candidate's metrics by
    # (content, run).
    srocc = np.empty((len(candidates), len(contents), cv.runs))
    rmse = np.empty_like(srocc)
    for run in range(cv.runs):
        rng = np.random.default_rng(np.random.SeedSequence((cv.seed, run)))
        perm = rng.permutation(len(contents))
        jobs, tests = [], []
        for fold_i, group in enumerate(np.array_split(perm, cv.folds)):
            train_rows = grouped[~np.isin(codes[grouped], group)]
            if np.isin(group, codes[train_rows]).any():
                raise InvariantError("content leaked between train and test folds")
            if train_rows.size == 0:
                continue
            train_seed = int(np.random.SeedSequence((cv.seed, run, fold_i)).generate_state(1)[0])
            for c, (cols, schema) in enumerate(candidates):
                model, residual = _fit_base(
                    X[np.ix_(train_rows, cols)], y[train_rows], schema, hyperparams, train_seed, base_features
                )
                jobs.append((model.forest, train_rows, cols, residual))
                tests.append((c, fold_i, np.sort(group), model))
        fit_forests(X, jobs)
        for c, fold_i, held, model in tests:
            # A tree walks each row on its own, so one forest pass serves the
            # whole fold.  The base's matrix product stays per content: its
            # BLAS bits depend on a row's place in the block.
            X_fold = X[np.ix_(np.concatenate([rows_of[k] for k in held]), candidates[c][0])]
            forest_preds = model.forest.predict(X_fold)
            end = 0
            for k in held.tolist():
                test = rows_of[k]
                start, end = end, end + test.size
                labels = y[test]
                preds = model.scores(X_fold[start:end], forest_preds[start:end])
                rho, err = _content_srocc(labels, preds), float(np.sqrt(np.mean((preds - labels) ** 2)))
                srocc[c, k, run], rmse[c, k, run] = rho, err
                rows[c].append(CvRow(run, fold_i, contents[k], test.size, rho, err))
    return [_summarize(tuple(r), contents, *medians) for r, *medians in zip(rows, srocc, rmse)]


def _summarize(rows: tuple[CvRow, ...], contents: list[str], srocc: np.ndarray, rmse: np.ndarray) -> CvResult:
    """Per-content medians over runs (the rows of the contents-by-runs
    ``srocc`` and ``rmse``), then their mean across contents."""
    med_srocc = _row_nanmedians(srocc)
    med_rmse = _row_medians(rmse)
    per_content = {c: {"srocc": s, "rmse": r} for c, s, r in zip(contents, med_srocc.tolist(), med_rmse.tolist())}
    srocc_meds = med_srocc[~np.isnan(med_srocc)]
    aggregate = {
        "srocc": float(np.mean(srocc_meds)) if srocc_meds.size else float("nan"),
        "rmse": float(np.mean(med_rmse)),
    }
    return CvResult(rows, per_content, aggregate)


def _row_nanmedians(M: np.ndarray) -> np.ndarray:
    """``np.nanmedian`` of each row of M, bit for bit, and NaN for a row of
    NaNs only."""
    med = _row_medians(M)
    nan = np.isnan(M)
    for i in np.flatnonzero(nan.any(axis=1)).tolist():
        gaps = np.flatnonzero(nan[i])
        if gaps.size == M.shape[1]:
            continue
        # np.nanmedian moves the row's last values into its NaNs' places
        # and takes the median of what is left, in that order.
        row = M[i].copy()
        tail = row[-gaps.size :][~nan[i, -gaps.size :]]
        row[gaps[: tail.size]] = tail
        med[i] = _row_medians(row[None, : -gaps.size])[0]
    return med


@dataclass(frozen=True)
class GfsStep:
    feature: str
    score: float
    candidate_scores: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class GfsResult:
    selected: tuple[str, ...]
    steps: tuple[GfsStep, ...]
    objective: str


def greedy_feature_selection(
    records: list[GopRecord],
    candidate_schema: FeatureSchema,
    cv: CvConfig,
    objective: str = "srocc",
    epsilon: float = 1e-4,
    max_features: int | None = None,
    hyperparams: TreeParams | None = None,
    base_features: tuple[str, ...] = DEFAULT_BASE_FEATURES,
) -> GfsResult:
    """Forward selection over the candidate features.

    Each step cross-validates every remaining candidate appended to the
    current set and keeps the best one; selection stops when the best
    improvement is not greater than ``epsilon`` or ``max_features`` is
    reached.  ``objective`` is ``srocc`` (maximized) or ``rmse``
    (minimized).
    """
    if objective not in ("srocc", "rmse"):
        raise SchemaMismatch(f"unknown objective {objective!r}")
    if len(candidate_schema) < 2:
        raise InsufficientContents(f"need >= 2 candidate features, got {len(candidate_schema)}")
    if max_features is not None and max_features < 0:
        raise InvalidHyperparameter(f"max_features must be >= 0, got {max_features}")
    if np.isnan(epsilon):
        raise InvalidHyperparameter("epsilon must not be NaN")
    X, y, content_ids = _labeled_matrix(records, candidate_schema)
    n_contents = len(set(content_ids))
    if n_contents < cv.folds:
        raise InsufficientContents(f"{n_contents} contents cannot fill {cv.folds} folds")

    sign = 1.0 if objective == "srocc" else -1.0

    def scores(name_sets: list[tuple[str, ...]]) -> list[float]:
        candidates = [
            (np.array([candidate_schema.index(n) for n in names]), candidate_schema.subset(names)) for names in name_sets
        ]
        results = _cross_validate(X, y, content_ids, candidates, cv, hyperparams, base_features)
        vals = [result.aggregate[objective] for result in results]
        return [float("-inf") if np.isnan(val) else sign * val for val in vals]

    selected: list[str] = []
    steps: list[GfsStep] = []
    best_score = float("-inf")
    cap = max_features if max_features is not None else len(candidate_schema)
    while len(selected) < cap:
        remaining = [n for n in candidate_schema.names if n not in selected]
        if not remaining:
            break
        cand_scores = dict(zip(remaining, scores([tuple(selected) + (c,) for c in remaining])))
        best_cand = max(remaining, key=lambda c: cand_scores[c])  # ties -> earliest in schema order
        improvement = cand_scores[best_cand] - best_score
        if not improvement > epsilon:
            break
        selected.append(best_cand)
        best_score = cand_scores[best_cand]
        steps.append(GfsStep(best_cand, sign * best_score, {c: sign * v for c, v in cand_scores.items()}))
    return GfsResult(tuple(selected), tuple(steps), objective)
