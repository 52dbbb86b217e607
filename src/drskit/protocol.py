"""Content-split repeated cross-validation and greedy feature selection.

Videos derived from the same source content always land in the same
fold, so a model is never evaluated on content it saw in training; the
guard is asserted on every fold.  Aggregation takes the per-content
median over runs first, then the mean across contents.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .corr import spearman
from .errors import InsufficientContents, InvariantError, SchemaMismatch
from .vqm import (
    DEFAULT_BASE_FEATURES,
    FeatureSchema,
    GopRecord,
    Hyperparams,
    predict_batch,
    train,
)

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
            raise InsufficientContents(f"folds must be >= 2, got {self.folds}")
        if self.runs < 1:
            raise InsufficientContents(f"runs must be >= 1, got {self.runs}")


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
    hyperparams: Hyperparams | None = None,
    base_features: tuple[str, ...] = DEFAULT_BASE_FEATURES,
) -> CvResult:
    """Repeated k-fold CV with content-based splits.

    Per run, contents are shuffled with a run-derived seed and split into
    ``folds`` groups; a model is trained on the remaining groups and
    scored on the held-out one.  Returns every (run, fold, content) row
    plus the median-then-mean aggregate for SROCC and RMSE.
    """
    labeled = [r for r in records if r.label_jod is not None]
    contents = sorted({r.content_id for r in labeled})
    if len(contents) < cv.folds:
        raise InsufficientContents(f"{len(contents)} contents cannot fill {cv.folds} folds")

    by_content: dict[str, list[GopRecord]] = {c: [] for c in contents}
    for r in labeled:
        by_content[r.content_id].append(r)

    rows: list[CvRow] = []
    for run in range(cv.runs):
        rng = np.random.default_rng(np.random.SeedSequence((cv.seed, run)))
        perm = rng.permutation(len(contents))
        fold_groups = np.array_split(perm, cv.folds)
        for fold_i, group in enumerate(fold_groups):
            test_contents = {contents[i] for i in group}
            train_contents = set(contents) - test_contents
            if train_contents & test_contents:
                raise InvariantError("content leaked between train and test folds")
            train_recs = [r for c in sorted(train_contents) for r in by_content[c]]
            if not train_recs:
                continue
            train_seed = int(np.random.SeedSequence((cv.seed, run, fold_i)).generate_state(1)[0])
            model = train(train_recs, schema, hyperparams, seed=train_seed, base_features=base_features)
            for c in sorted(test_contents):
                recs = by_content[c]
                if set(r.content_id for r in recs) & train_contents:
                    raise InvariantError("content leaked between train and test folds")
                X = np.array([r.features for r in recs], dtype=float)
                labels = np.array([r.label_jod for r in recs], dtype=float)
                preds = predict_batch(model, X)
                rmse = float(np.sqrt(np.mean((preds - labels) ** 2)))
                rows.append(CvRow(run, fold_i, c, len(recs), _content_srocc(labels, preds), rmse))

    per_content: dict[str, dict[str, float]] = {}
    for c in contents:
        c_rows = [r for r in rows if r.content_id == c]
        if not c_rows:
            continue
        sroccs = np.array([r.srocc for r in c_rows])
        rmses = np.array([r.rmse for r in c_rows])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            med_srocc = float(np.nanmedian(sroccs)) if not np.all(np.isnan(sroccs)) else float("nan")
        per_content[c] = {"srocc": med_srocc, "rmse": float(np.median(rmses))}

    srocc_meds = [v["srocc"] for v in per_content.values() if not np.isnan(v["srocc"])]
    aggregate = {
        "srocc": float(np.mean(srocc_meds)) if srocc_meds else float("nan"),
        "rmse": float(np.mean([v["rmse"] for v in per_content.values()])),
    }
    return CvResult(tuple(rows), per_content, aggregate)


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

    @property
    def trajectory(self) -> list[float]:
        return [s.score for s in self.steps]


def greedy_feature_selection(
    records: list[GopRecord],
    candidate_schema: FeatureSchema,
    cv: CvConfig,
    objective: str = "srocc",
    epsilon: float = 1e-4,
    max_features: int | None = None,
    hyperparams: Hyperparams | None = None,
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
    contents = {r.content_id for r in records if r.label_jod is not None}
    if len(contents) < cv.folds:
        raise InsufficientContents(f"{len(contents)} contents cannot fill {cv.folds} folds")

    sign = 1.0 if objective == "srocc" else -1.0

    def score_for(names: tuple[str, ...]) -> float:
        sub = candidate_schema.subset(names)
        sub_records = [r.subset_features(candidate_schema, sub) for r in records]
        result = cross_validate(sub_records, sub, cv, hyperparams, base_features=base_features)
        val = result.aggregate[objective]
        return float("-inf") if np.isnan(val) else sign * val

    selected: list[str] = []
    steps: list[GfsStep] = []
    best_score = float("-inf")
    cap = max_features if max_features is not None else len(candidate_schema)
    while len(selected) < cap:
        remaining = [n for n in candidate_schema.names if n not in selected]
        if not remaining:
            break
        cand_scores = {c: score_for(tuple(selected) + (c,)) for c in remaining}
        best_cand = max(remaining, key=lambda c: cand_scores[c])  # ties -> earliest in schema order
        improvement = cand_scores[best_cand] - best_score
        if not improvement > epsilon:
            break
        selected.append(best_cand)
        best_score = cand_scores[best_cand]
        steps.append(GfsStep(best_cand, sign * best_score, {c: sign * v for c, v in cand_scores.items()}))
    return GfsResult(tuple(selected), tuple(steps), objective)
