"""Differential test of content-split CV and greedy feature selection.

The oracle below is the record-based implementation the matrix code in
``drskit.protocol`` replaced: every fold gathers ``GopRecord`` lists
(training contents in sorted order, each in file order) and trains on
them through the public ``vqm.train``; every GFS candidate set is scored
on records rebuilt with ``GopRecord.subset_features``.  Both must give
the same rows, medians, aggregates and selections, bit for bit.
"""

import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drskit.corr import _row_medians, spearman
from drskit.errors import InsufficientContents, InvariantError, SchemaMismatch
from drskit.protocol import (
    CvConfig,
    CvResult,
    CvRow,
    GfsResult,
    GfsStep,
    _row_nanmedians,
    cross_validate,
    greedy_feature_selection,
)
from drskit.forest import TreeParams
from drskit.vqm import DEFAULT_BASE_FEATURES, FeatureSchema, GopRecord, predict_batch, train


def oracle_content_srocc(labels, preds):
    if labels.size < 3:
        return float("nan")
    return spearman(labels, preds)


def oracle_cross_validate(records, schema, cv, hyperparams=None, base_features=DEFAULT_BASE_FEATURES):
    labeled = [r for r in records if r.label_jod is not None]
    contents = sorted({r.content_id for r in labeled})
    if len(contents) < cv.folds:
        raise InsufficientContents(f"{len(contents)} contents cannot fill {cv.folds} folds")

    by_content = {c: [] for c in contents}
    for r in labeled:
        by_content[r.content_id].append(r)

    rows = []
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
                X = np.array([r.features for r in recs], dtype=float)
                labels = np.array([r.label_jod for r in recs], dtype=float)
                preds = predict_batch(model, X)
                rmse = float(np.sqrt(np.mean((preds - labels) ** 2)))
                rows.append(CvRow(run, fold_i, c, len(recs), oracle_content_srocc(labels, preds), rmse))

    per_content = {}
    for c in contents:
        c_rows = [r for r in rows if r.content_id == c]
        if not c_rows:
            continue
        sroccs = np.array([r.srocc for r in c_rows])
        rmses = np.array([r.rmse for r in c_rows])
        med_srocc = float(np.nanmedian(sroccs)) if not np.all(np.isnan(sroccs)) else float("nan")
        per_content[c] = {"srocc": med_srocc, "rmse": float(np.median(rmses))}

    srocc_meds = [v["srocc"] for v in per_content.values() if not np.isnan(v["srocc"])]
    aggregate = {
        "srocc": float(np.mean(srocc_meds)) if srocc_meds else float("nan"),
        "rmse": float(np.mean([v["rmse"] for v in per_content.values()])),
    }
    return CvResult(tuple(rows), per_content, aggregate)


def oracle_greedy_feature_selection(
    records,
    candidate_schema,
    cv,
    objective="srocc",
    epsilon=1e-4,
    max_features=None,
    hyperparams=None,
    base_features=DEFAULT_BASE_FEATURES,
):
    sign = 1.0 if objective == "srocc" else -1.0

    def score_for(names):
        sub = candidate_schema.subset(names)
        sub_records = [r.subset_features(candidate_schema, sub) for r in records]
        result = oracle_cross_validate(sub_records, sub, cv, hyperparams, base_features=base_features)
        val = result.aggregate[objective]
        return float("-inf") if np.isnan(val) else sign * val

    selected, steps = [], []
    best_score = float("-inf")
    cap = max_features if max_features is not None else len(candidate_schema)
    while len(selected) < cap:
        remaining = [n for n in candidate_schema.names if n not in selected]
        if not remaining:
            break
        cand_scores = {c: score_for(tuple(selected) + (c,)) for c in remaining}
        best_cand = max(remaining, key=lambda c: cand_scores[c])
        improvement = cand_scores[best_cand] - best_score
        if not improvement > epsilon:
            break
        selected.append(best_cand)
        best_score = cand_scores[best_cand]
        steps.append(GfsStep(best_cand, sign * best_score, {c: sign * v for c, v in cand_scores.items()}))
    return GfsResult(tuple(selected), tuple(steps), objective)


def bits(value):
    """A comparable form that tells every float bit pattern apart (-0.0,
    NaN) and keeps dict key order."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, dict):
        return [(k, bits(v)) for k, v in value.items()]
    if dataclasses.is_dataclass(value):
        return (type(value).__name__, [bits(getattr(value, f.name)) for f in dataclasses.fields(value)])
    if isinstance(value, (tuple, list)):
        return [bits(v) for v in value]
    return value


SCHEMA = FeatureSchema(("signal", "qp_mean", "noise0", "noise1"))


def seeded_records(seed, n_contents=6, unlabeled=0.2, const_content=False):
    """Records of ``n_contents`` contents, 2-9 GOPs each, interleaved in
    file order, with a share of unlabeled rows; optionally one content
    whose labels are all equal (its SROCC is NaN)."""
    rng = np.random.default_rng(seed)
    rows = []
    for c in range(n_contents):
        for g in range(int(rng.integers(2, 10))):
            signal = rng.uniform(0, 1)
            qp = rng.uniform(20, 40)
            noise = rng.uniform(0, 1, 2)
            label = 7.0 * signal - 0.1 * qp + 4.0 + rng.normal(0, 0.3)
            if const_content and c == 0:
                label = 5.0
            if rng.uniform() < unlabeled:
                label = None
            rows.append((f"c{c:02d}", g, (signal, qp, *noise), label))
    order = rng.permutation(len(rows))
    return [GopRecord(rows[i][0], rows[i][1], 1000.0, (1280, 720), rows[i][2], rows[i][3]) for i in order]


HYPERPARAMS = [
    TreeParams(n_trees=3),
    TreeParams(n_trees=2, max_depth=None, min_leaf=1, feature_subsample="all", bootstrap=False),
    TreeParams(n_trees=4, max_depth=3, min_leaf=2, feature_subsample=0.5),
]
BASE_FEATURES = [DEFAULT_BASE_FEATURES, ("noise1", "signal"), ()]


@pytest.mark.parametrize("seed", range(6))
def test_cross_validate_matches_record_oracle(seed):
    records = seeded_records(seed, const_content=seed % 2 == 1)
    cv = CvConfig(folds=2 + seed % 3, runs=1 + seed % 3, seed=seed)
    hp = HYPERPARAMS[seed % 3]
    base = BASE_FEATURES[seed % 3]
    got = cross_validate(records, SCHEMA, cv, hp, base_features=base)
    want = oracle_cross_validate(records, SCHEMA, cv, hp, base_features=base)
    assert got.rows  # the comparison is not vacuous
    assert bits(got.rows) == bits(want.rows)
    assert bits(got.per_content) == bits(want.per_content)
    assert bits(got.aggregate) == bits(want.aggregate)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("objective", ["srocc", "rmse"])
def test_greedy_feature_selection_matches_record_oracle(seed, objective):
    records = seeded_records(100 + seed, n_contents=5)
    cv = CvConfig(folds=2 + seed % 2, runs=1 + seed % 2, seed=seed)
    hp = HYPERPARAMS[seed % 3]
    base = BASE_FEATURES[(seed + 1) % 3]
    kwargs = dict(objective=objective, epsilon=-1.0 if seed == 3 else 1e-4, hyperparams=hp, base_features=base)
    got = greedy_feature_selection(records, SCHEMA, cv, **kwargs)
    want = oracle_greedy_feature_selection(records, SCHEMA, cv, **kwargs)
    assert got.steps
    assert bits(got) == bits(want)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("objective", ["srocc", "rmse"])
def test_multi_step_selection_over_runs_matches_record_oracle(seed, objective):
    # Each step cross-validates every remaining candidate over several
    # runs, and a later step's candidates carry the features chosen before.
    records = seeded_records(200 + seed, n_contents=6, const_content=seed == 1)
    cv = CvConfig(folds=2 + seed % 2, runs=2 + seed % 2, seed=seed)
    hp = HYPERPARAMS[seed]
    base = BASE_FEATURES[seed]
    kwargs = dict(objective=objective, epsilon=-1.0, max_features=3, hyperparams=hp, base_features=base)
    got = greedy_feature_selection(records, SCHEMA, cv, **kwargs)
    want = oracle_greedy_feature_selection(records, SCHEMA, cv, **kwargs)
    assert len(got.steps) == 3
    assert bits(got) == bits(want)


def test_unlabeled_rows_with_the_wrong_length_are_ignored():
    records = seeded_records(3)
    records.append(GopRecord("c99", 0, 1000.0, (1280, 720), (1.0, 2.0), None))
    cv = CvConfig(folds=3, runs=1, seed=0)
    got = cross_validate(records, SCHEMA, cv, TreeParams(n_trees=2))
    want = oracle_cross_validate(records, SCHEMA, cv, TreeParams(n_trees=2))
    assert bits(got) == bits(want)
    with pytest.raises(SchemaMismatch):
        cross_validate(records[:-1] + [dataclasses.replace(records[-1], label_jod=1.0)], SCHEMA, cv)


# Ties of -0.0 and 0.0, NaN, infinities and a few repeated values.
MEDIAN_VALUES = st.one_of(
    st.sampled_from([np.nan, 0.0, -0.0, np.inf, -np.inf, 1.0, -1.0, 0.5]),
    st.floats(allow_nan=False, width=64),
)


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 6), st.integers(1, 9), st.data())
def test_row_medians_are_numpys_bit_for_bit(n_rows, width, data):
    M = np.array(data.draw(st.lists(MEDIAN_VALUES, min_size=n_rows * width, max_size=n_rows * width))).reshape(
        n_rows, width
    )
    if data.draw(st.booleans()):
        M[data.draw(st.integers(0, n_rows - 1))] = np.nan  # an all-NaN row
    want = [np.median(row) for row in M]
    want_nan = [np.nanmedian(row) if not np.isnan(row).all() else np.nan for row in M]
    assert _row_medians(M).tobytes() == np.array(want).tobytes()
    assert _row_nanmedians(M).tobytes() == np.array(want_nan).tobytes()
