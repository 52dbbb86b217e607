"""Differential oracle for the logistic fit.

``rdmodel.fit_logistic`` starts from a variable-projection grid and
polishes at most a few grid points with a damped Newton method on the
projection (``rdmodel.least_squares``, numpy only).  The fit it replaced
polished 16 starts taken from data quantiles with scipy's bounded TRF
least squares, with an early stop for numerically exact fits; that loop,
residuals and Jacobian included, lives on here as the oracle.  The new
fit must reach a residual at least as low, up to rounding:

* on every benchmark curve (``perfbench/gen.py``, seeds 0-20, both score
  columns) to 1e-12 relative, the bound ``perfbench/check.py`` holds the
  benchmark's fits to, and
* on 1 002 seeded noisy logistics (5-11 samples, three noise levels,
  the planted inflection also outside the fit's box) to 1e-9 relative.

The oracle's 16 TRF runs cost over ten times the new fit, so its rss for
every curve is checked in as ``tests/data/fit_oracle_rss.json``, next to each
curve's quality sum, which pins the corpus.  The new fit runs live on every
curve; the oracle runs live on every ``SPOT_CHECK``-th noisy curve and on
the ``SPOT_SEEDS`` benchmark seeds, and must reproduce the table there.
Regenerate the table from the repository root with
``python3 tests/test_fit_oracle.py``.

A last test counts the polishes per fit through ``rdmodel``'s
module-level ``least_squares`` binding, the way ``perfbench/tracer.py``
does.
"""

import csv
import functools
import importlib.util
import itertools
import json
import random
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import least_squares
from scipy.special import expit

from drskit import rcql, rdmodel
from drskit.rdmodel import RDCurve, fit_logistic

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TABLE = Path(__file__).resolve().parent / "data" / "fit_oracle_rss.json"
RES = (1280, 720)
BENCH_SEEDS = range(21)
NOISE_LEVELS = (0.05, 0.2, 0.5)
NOISY_PER_LEVEL = 334
# The oracle re-fits every SPOT_CHECK-th noisy curve and every curve of
# SPOT_SEEDS live, and must reproduce the table there.
SPOT_CHECK = 25
SPOT_SEEDS = (0, 10, 20)


def logistic_residuals(p, x, y):
    b2, delta, b3, b4 = p
    return b2 + delta * expit((x - b3) / b4) - y


def logistic_jacobian(p, x, y):
    _b2, delta, b3, b4 = p
    s = expit((x - b3) / b4)
    core = delta * s * (1.0 - s)
    jac = np.empty((x.size, 4))
    jac[:, 0] = 1.0
    jac[:, 1] = s
    jac[:, 2] = -core / b4
    jac[:, 3] = -core * (x - b3) / (b4 * b4)
    return jac


def oracle_fit(curve: RDCurve) -> tuple[np.ndarray, float]:
    """The 16-start fit: (beta2, delta, beta3, beta4) and its rss."""
    x, y = curve.bitrates, curve.qualities
    r_min = curve.r_min
    b3_lo, b3_hi = r_min / 2.0, r_min
    span = float(y.max() - y.min())
    xspan = float(x[-1] - x[0])
    lower = np.array([-np.inf, 0.0, b3_lo, 1e-9])
    upper = np.array([np.inf, np.inf, b3_hi, np.inf])
    b2_starts = (float(y.min()), float(np.quantile(y, 0.25)))
    delta_starts = (span, span / 2.0)
    b3_starts = (b3_lo + 0.25 * (b3_hi - b3_lo), b3_lo + 0.75 * (b3_hi - b3_lo))
    b4_starts = (max(xspan / 4.0, 1.0), max(r_min / 4.0, 1.0))
    exact_rss = 1e-16 * max(1.0, float(np.sum(y * y)))
    best, best_rss = None, np.inf
    for p0 in itertools.product(b2_starts, delta_starts, b3_starts, b4_starts):
        p0 = np.clip(np.asarray(p0, dtype=float), lower, upper)
        sol = least_squares(
            logistic_residuals,
            p0,
            jac=logistic_jacobian,
            bounds=(lower, upper),
            args=(x, y),
            method="trf",
            xtol=1e-12,
            ftol=1e-12,
            gtol=1e-12,
            max_nfev=400,
        )
        rss = float(np.sum(sol.fun * sol.fun))
        if rss < best_rss:
            best_rss, best = rss, sol.x
        if best_rss <= exact_rss:
            break
    return best, best_rss


@functools.cache
def load_gen():
    # gen.py imports its sibling ``spec`` module by plain name.
    had_spec = "spec" in sys.modules
    sys.path.insert(0, str(PERFBENCH))
    module_spec = importlib.util.spec_from_file_location("perfbench_gen", PERFBENCH / "gen.py")
    gen = importlib.util.module_from_spec(module_spec)
    try:
        module_spec.loader.exec_module(gen)
    finally:
        sys.path.remove(str(PERFBENCH))
        if not had_spec:
            sys.modules.pop("spec", None)
    return gen


def benchmark_curves(seed: int) -> dict[str, RDCurve]:
    """Every (content, resolution, score column) curve of one benchmark seed."""
    samples = defaultdict(list)
    with tempfile.TemporaryDirectory() as tmp:
        load_gen().gen_crossover(random.Random(f"drskit-bench/crossover/{seed}"), Path(tmp))
        with open(Path(tmp) / "scored_points.csv", "r", encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                for column in ("subjective_jod", "objective_score"):
                    key = f"{row['content_id']}/{row['resolution']}/{column}"
                    samples[key].append((float(row["bitrate_kbps"]), float(row[column])))
    return {key: RDCurve.from_samples(RES, pts) for key, pts in sorted(samples.items())}


def noisy_logistics(n: int, sigma: float, seed: int):
    """Seeded noisy logistics with 5-11 samples, geometric or uniform
    bitrates over 4-40x r_min, and a planted inflection anywhere in
    [0.3, 1.2] r_min, so also outside the fit's box."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        n_points = int(rng.integers(5, 12))
        r_min = rng.uniform(200.0, 2500.0)
        ratio = rng.uniform(4.0, 40.0)
        spacing = np.geomspace if rng.random() < 0.5 else np.linspace
        xs = spacing(r_min, r_min * ratio, n_points)
        b2 = rng.uniform(0.5, 4.0)
        delta = rng.uniform(1.0, 8.0)
        b3 = rng.uniform(r_min * 0.3, r_min * 1.2)
        b4 = r_min * rng.uniform(0.2, 3.0)
        ys = b2 + delta * expit((xs - b3) / b4) + rng.normal(0.0, sigma, n_points)
        yield RDCurve.from_samples(RES, list(zip(xs.tolist(), ys.tolist())))


def noisy_corpus(level: int):
    return noisy_logistics(NOISY_PER_LEVEL, NOISE_LEVELS[level], seed=7 + level)


def quality_sum(curve: RDCurve) -> float:
    return float(np.sum(curve.qualities))


@functools.cache
def oracle_table() -> dict:
    return json.loads(TABLE.read_text(encoding="utf-8"))


def worse_than_oracle(curves, table, rel: float, live) -> list[str]:
    """Curves whose new fit is worse than the tabled oracle rss by more
    than ``rel``; curves for which ``live(key)`` holds are re-fitted by
    the oracle, which must reproduce the table."""
    assert [key for key, _ in curves] == list(table), "corpus changed: regenerate the oracle table"
    misses = []
    for key, curve in curves:
        want_sum, want = table[key]
        assert quality_sum(curve) == pytest.approx(want_sum, rel=1e-12), f"{key}: corpus changed"
        if live(key):
            assert oracle_fit(curve)[1] == pytest.approx(want, rel=1e-9), f"{key}: oracle table is stale"
        got = fit_logistic(curve)
        if not got.rss <= want * (1.0 + rel):
            misses.append(f"{key}: rss {got.rss!r} vs oracle {want!r} ({got.rss / want - 1.0:.3g} relative)")
    return misses


@pytest.mark.parametrize("seed", BENCH_SEEDS)
def test_benchmark_curves_no_worse_than_16_starts(seed):
    curves = list(benchmark_curves(seed).items())
    assert len(curves) == 16
    table = oracle_table()["benchmark"][str(seed)]
    assert worse_than_oracle(curves, table, 1e-12, live=lambda key: seed in SPOT_SEEDS) == []


@pytest.mark.parametrize("level", range(len(NOISE_LEVELS)))
def test_noisy_logistics_no_worse_than_16_starts(level):
    curves = [(str(i), curve) for i, curve in enumerate(noisy_corpus(level))]
    table = {str(i): entry for i, entry in enumerate(oracle_table()["noisy"][level])}
    assert worse_than_oracle(curves, table, 1e-9, live=lambda key: int(key) % SPOT_CHECK == 0) == []


def test_polishes_per_fit(monkeypatch):
    real = rdmodel.least_squares
    nfev = []

    def counting(*args, **kwargs):
        result = real(*args, **kwargs)
        nfev.append(result.nfev)
        return result

    # The tracer rebinds the same module attribute.
    monkeypatch.setattr(rdmodel, "least_squares", counting)
    curves = list(benchmark_curves(7).values())
    curves += list(noisy_logistics(60, NOISE_LEVELS[2], seed=11))
    per_fit = []
    for curve in curves:
        before = len(nfev)
        fit_logistic(curve)
        per_fit.append(len(nfev) - before)
    # The grid's best point and the best points of the two beta3 bounds.
    assert 2 <= min(per_fit) and max(per_fit) <= 3
    assert 1 <= min(nfev) and max(nfev) <= 400
    # The tracer wraps rcql's quad by name, through its scipy.integrate binding.
    assert callable(rcql.integrate.quad)


def write_oracle_table():
    """Fit the whole corpus with the 16-start oracle into ``TABLE``."""

    def entry(curve):
        return [quality_sum(curve), oracle_fit(curve)[1]]

    table = {
        "benchmark": {
            str(seed): {key: entry(curve) for key, curve in benchmark_curves(seed).items()} for seed in BENCH_SEEDS
        },
        "noisy": [[entry(curve) for curve in noisy_corpus(level)] for level in range(len(NOISE_LEVELS))],
    }
    TABLE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write_oracle_table()
