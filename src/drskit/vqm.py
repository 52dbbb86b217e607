"""Bitstream-feature quality model: affine base + residual forest.

A designated subset of features feeds an affine base model fitted by
least squares; a regression forest learns the residual over the full
feature vector.  Predictions are ``base(x) + mean_tree(x)`` clamped to
the 0-10 quality scale.  Models serialize to versioned JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyTrainingSet, SchemaMismatch
from .forest import RegressionForest, TreeParams
from .io import _json_fields, _load_json, write_json

__all__ = [
    "FeatureSchema",
    "GopRecord",
    "Hyperparams",
    "ForestModel",
    "DEFAULT_BASE_FEATURES",
    "SCORE_RANGE",
    "train",
    "predict",
    "predict_batch",
    "feature_importance",
    "model_to_dict",
    "model_from_dict",
    "save_model",
    "load_model",
]

MODEL_FORMAT_VERSION = 1
SCORE_RANGE = (0.0, 10.0)

# Base-model columns used when present in the schema.  The CSV ingestion
# layer derives log_bitrate_kbps and log_pixels from the identity
# columns; qp_mean comes from the bitstream feature extractor.
DEFAULT_BASE_FEATURES = ("log_bitrate_kbps", "log_pixels", "qp_mean")


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered, unique feature names; order is fixed for a model's life."""

    names: tuple[str, ...]
    units: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        units = tuple(self.units) if self.units else ("",) * len(self.names)
        object.__setattr__(self, "units", units)
        if len(set(self.names)) != len(self.names):
            raise SchemaMismatch("feature names must be unique")
        if len(self.units) != len(self.names):
            raise SchemaMismatch("units must align with names")

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise SchemaMismatch(f"feature {name!r} not in schema") from None

    def subset(self, names) -> "FeatureSchema":
        names = tuple(names)
        idx = [self.index(n) for n in names]
        return FeatureSchema(names, tuple(self.units[i] for i in idx))


@dataclass(frozen=True)
class GopRecord:
    """One GOP of one representation, with its feature vector and an
    optional subjective label."""

    content_id: str
    gop_index: int
    bitrate_kbps: float
    resolution: tuple[int, int]
    features: tuple[float, ...]
    label_jod: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(float(v) for v in self.features))
        if not all(math.isfinite(v) for v in self.features):
            raise SchemaMismatch(f"non-finite feature in record {self.content_id}/{self.gop_index}")
        if self.label_jod is not None and not math.isfinite(self.label_jod):
            raise SchemaMismatch(f"non-finite label in record {self.content_id}/{self.gop_index}")

    def subset_features(self, schema: FeatureSchema, sub: FeatureSchema) -> "GopRecord":
        idx = [schema.index(n) for n in sub.names]
        return GopRecord(
            self.content_id,
            self.gop_index,
            self.bitrate_kbps,
            self.resolution,
            tuple(self.features[i] for i in idx),
            self.label_jod,
        )


# The residual forest's parameters, under the name the model API has
# always used.
Hyperparams = TreeParams


@dataclass(frozen=True, eq=False)
class ForestModel:
    schema: FeatureSchema
    base_feature_names: tuple[str, ...]
    base_intercept: float
    base_coefs: np.ndarray  # aligned with base_feature_names
    forest: RegressionForest
    seed: int
    clamp: tuple[float, float] = SCORE_RANGE

    def base_predict(self, X: np.ndarray) -> np.ndarray:
        if not self.base_feature_names:
            return np.full(X.shape[0], self.base_intercept)
        idx = [self.schema.index(n) for n in self.base_feature_names]
        return self.base_intercept + X[:, idx] @ self.base_coefs

    def scores(self, X: np.ndarray, forest_preds: np.ndarray) -> np.ndarray:
        """The quality of the rows of X, given the forest's predictions for
        them: the base plus the forest, clamped to the score range."""
        lo, hi = self.clamp
        return np.clip(self.base_predict(X) + forest_preds, lo, hi)


def _labeled_matrix(records: list[GopRecord], schema: FeatureSchema) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """The labeled records, in file order, as a C-ordered feature matrix,
    their labels and their content ids; unlabeled records are skipped."""
    labeled = [r for r in records if r.label_jod is not None]
    X = np.empty((len(labeled), len(schema)))
    for i, r in enumerate(labeled):
        if len(r.features) != len(schema):
            raise SchemaMismatch(
                f"record {r.content_id}/{r.gop_index} has {len(r.features)} features, schema has {len(schema)}"
            )
        X[i] = r.features
    y = np.array([r.label_jod for r in labeled], dtype=float)
    return X, y, tuple(r.content_id for r in labeled)


def train(
    records: list[GopRecord],
    schema: FeatureSchema,
    hyperparams: TreeParams | None = None,
    seed: int = 0,
    base_features: tuple[str, ...] = DEFAULT_BASE_FEATURES,
) -> ForestModel:
    """Fit the affine base by least squares on the labeled records, then
    fit the residual forest over the full feature vector.

    ``base_features`` is filtered to the names actually present in the
    schema; with none present, the base degenerates to the label mean.
    """
    X, y, _ = _labeled_matrix(records, schema)
    return _train_matrix(X, y, schema, hyperparams, seed, base_features)


def _train_matrix(X, y, schema, hyperparams, seed, base_features) -> ForestModel:
    """``train`` on the rows ``_labeled_matrix`` gathered."""
    model, residual = _fit_base(X, y, schema, hyperparams, seed, base_features)
    model.forest.fit(X, residual)
    return model


def _fit_base(X, y, schema, hyperparams, seed, base_features) -> tuple[ForestModel, np.ndarray]:
    """The model of ``_train_matrix`` with its affine base fitted and its
    forest not yet fitted, and the residual that forest is to learn; a
    caller may fit many such forests together (``forest.fit_forests``)."""
    if y.size == 0:
        raise EmptyTrainingSet("no labeled records to train on")
    base_names = tuple(n for n in base_features if n in schema.names)
    if base_names:
        idx = [schema.index(n) for n in base_names]
        A = np.column_stack([np.ones(y.size), X[:, idx]])
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        intercept = float(coef[0])
        coefs = coef[1:]
    else:
        intercept = float(y.mean())
        coefs = np.zeros(0)

    model = ForestModel(
        schema=schema,
        base_feature_names=base_names,
        base_intercept=intercept,
        base_coefs=coefs,
        forest=RegressionForest(params=hyperparams or TreeParams(), seed=seed),
        seed=seed,
    )
    return model, y - model.base_predict(X)


def predict(model: ForestModel, features) -> float:
    """Quality prediction for one feature vector, clamped to [0, 10]."""
    x = np.asarray(features, dtype=float)
    if x.ndim != 1 or x.size != len(model.schema):
        raise SchemaMismatch(f"expected {len(model.schema)} features, got shape {x.shape}")
    return float(predict_batch(model, x[None, :])[0])


def predict_batch(model: ForestModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != len(model.schema):
        raise SchemaMismatch(f"expected (n, {len(model.schema)}) feature matrix, got {X.shape}")
    return model.scores(X, model.forest.predict(X))


def feature_importance(model: ForestModel) -> dict[str, float]:
    """Normalized variance-reduction importance of the residual forest."""
    imp = model.forest.feature_importances()
    return {name: float(v) for name, v in zip(model.schema.names, imp)}


def model_to_dict(model: ForestModel) -> dict:
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "schema": {"names": list(model.schema.names), "units": list(model.schema.units)},
        "base": {
            "feature_names": list(model.base_feature_names),
            "intercept": model.base_intercept,
            "coefs": model.base_coefs.tolist(),
        },
        "clamp": list(model.clamp),
        "seed": model.seed,
        "forest": model.forest.to_dict(),
    }


def model_from_dict(d: dict) -> ForestModel:
    if d.get("format_version") != MODEL_FORMAT_VERSION:
        raise SchemaMismatch(f"unsupported model format version: {d.get('format_version')!r}")
    schema = FeatureSchema(tuple(d["schema"]["names"]), tuple(d["schema"]["units"]))
    return ForestModel(
        schema=schema,
        base_feature_names=tuple(d["base"]["feature_names"]),
        base_intercept=float(d["base"]["intercept"]),
        base_coefs=np.asarray(d["base"]["coefs"], dtype=float),
        forest=RegressionForest.from_dict(d["forest"]),
        seed=int(d["seed"]),
        clamp=tuple(d["clamp"]),
    )


def save_model(model: ForestModel, path) -> None:
    write_json(path, model_to_dict(model))


def load_model(path) -> ForestModel:
    """Read a model JSON; a syntax error or a missing or mistyped field
    is an InputError that names the file."""
    return _load_json(path, _json_fields(model_from_dict))
