"""drskit: rate-quality modelling, cross-over benchmarking, bitstream
quality models, ladder optimization and resolution-switching simulation.

Submodules and the names below are imported on first access (PEP 562),
so ``import drskit`` and each CLI command load only the modules they
use.  ``cli``, ``io``, ``errors`` and ``avc`` load no numpy, so start-up
and ``extract-features`` run on the standard library; every other module
needs numpy alone, and scipy is only the tests' oracle.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_SUBMODULES = ("avc", "drs", "errors", "forest", "io", "ladder", "protocol", "rcql", "rdmodel", "vqm")

# public names, by defining submodule
_NAMES_BY_SUBMODULE = {
    "curves": ("PchipCurve", "RDCurve", "RDPoint", "ScoredPoint", "fit_pchip"),
    "drs": ("BdResult", "DrsTrace", "bd_rate", "filter_manifest", "gain_distribution", "simulate"),
    "ladder": (
        "LadderProblem",
        "LadderSolution",
        "QualityLog",
        "best_resolution_probability",
        "cumulative_probability",
        "optimize_ladder_exhaustive",
        "optimize_ladder_greedy",
        "weights_from_bandwidth",
    ),
    "protocol": ("CvConfig", "cross_validate", "greedy_feature_selection"),
    "rcql": (
        "RcqlReport",
        "build_report",
        "correlations",
        "delta_bitrate",
        "ranking_accuracy",
        "rcql_avg",
        "rcql_s",
    ),
    "rdmodel": ("CrossOverResult", "LogisticParams", "eval_logistic", "find_crossover", "fit_logistic"),
    "vqm": ("FeatureSchema", "ForestModel", "GopRecord", "Hyperparams", "feature_importance", "predict", "train"),
}
_EXPORTS = {name: module for module, names in _NAMES_BY_SUBMODULE.items() for name in names}

__all__ = [*_SUBMODULES, *_EXPORTS]


def __getattr__(name: str):
    if name in _SUBMODULES:
        value = _import_module(f".{name}", __name__)
    elif name in _EXPORTS:
        value = getattr(_import_module(f".{_EXPORTS[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
