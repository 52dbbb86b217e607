"""Rate-quality curve models and resolution cross-over search.

Per-resolution (bitrate, quality) samples live in :class:`RDCurve`.  Two
continuous models are fitted on top of them:

* a four-parameter logistic with the inflection bitrate constrained to
  ``[r_min/2, r_min]``, which keeps the fit monotone and saturating even
  on noisy subjective labels (:func:`fit_logistic`), and
* a shape-preserving monotone cubic interpolant (:func:`fit_pchip`),
  which interpolates the samples exactly and is the standard substrate
  for Bjontegaard-style integrals.

The samples and the interpolant live in :mod:`drskit.curves`, which
needs numpy only.

:func:`find_crossover` locates the bitrate where one fitted curve
overtakes another; everything downstream (cross-over benchmarking,
ladder decisions) is built on that primitive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import RDCurve
from .errors import InvalidRange, NonFinite, NotEvaluable, TooFewPoints

__all__ = [
    "LogisticParams",
    "CrossOverResult",
    "STATUS_FOUND",
    "STATUS_NONE",
    "STATUS_MULTIPLE",
    "MIN_FIT_POINTS",
    "BISECT_TOL_KBPS",
    "fit_logistic",
    "eval_logistic",
    "find_crossover",
]

STATUS_FOUND = "found"
STATUS_NONE = "none"
STATUS_MULTIPLE = "multiple_resolved"

# Smallest admissible slope scale; keeps the logistic evaluable.
_BETA4_FLOOR = 1e-9

# Width to which find_crossover narrows a bracketed root.
BISECT_TOL_KBPS = 1e-6

# Fewest samples a logistic fit takes: one per parameter.
MIN_FIT_POINTS = 4

# Start grid of fit_logistic: beta3 points over the box, and beta4 as
# multiples of the bitrate span, from a step between neighbouring samples
# (1e-4) to the near-linear limit (1e6).
_GRID_B3 = 9
_GRID_B4_SPANS = np.geomspace(1e-4, 1e6, 96)
# Grid points polished per fit.
_MAX_STARTS = 3
# Most rss evaluations one polish makes.
_MAX_NFEV = 400
# A polish stops once its local model predicts a gain below this share of
# the rss, which is the rounding level of the rss itself.
_GAIN_TOL = 1e-15


@dataclass(frozen=True)
class LogisticParams:
    """Four-parameter logistic fit.

    ``beta1`` is the high-bitrate asymptote, ``beta2`` the low-bitrate
    asymptote, ``beta3`` the inflection bitrate (constrained at fit time
    to ``[r_min/2, r_min]`` of the fitted curve) and ``beta4 > 0`` the
    slope scale.  ``rss`` is the achieved residual sum of squares.
    """

    beta1: float
    beta2: float
    beta3: float
    beta4: float
    rss: float

    def __post_init__(self):
        if not self.beta4 > 0:
            raise NonFinite(f"beta4 must be > 0, got {self.beta4!r}")
        if self.beta1 < self.beta2:
            raise NonFinite("beta1 must be >= beta2 (non-decreasing fit)")

    def evaluate(self, bitrate_kbps):
        return eval_logistic(self, bitrate_kbps)

    __call__ = evaluate


def _expit(t):
    """The logistic ``1 / (1 + exp(-t))``, as ``scipy.special.expit``
    computes it: exactly 0 and 1 where ``exp`` overflows and underflows."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-t))


def eval_logistic(params: LogisticParams, bitrate_kbps):
    """Evaluate the logistic at one bitrate or an array of bitrates."""
    x = np.asarray(bitrate_kbps, dtype=float)
    y = params.beta2 + (params.beta1 - params.beta2) * _expit((x - params.beta3) / abs(params.beta4))
    return float(y) if np.isscalar(bitrate_kbps) or x.ndim == 0 else y


def _projected_grid(x, y, b3, b4):
    """Variable projection of the fit onto a (beta3, beta4) grid.

    For fixed (beta3, beta4) the model is linear in (beta2, delta), so the
    best pair has a closed form: the 2-column least squares on centred
    data, with ``delta`` clamped at 0.  Returns the rss of that pair at
    every grid point, of shape ``(b3.size, b4.size)``.  The logistic is
    taken as ``(1 + tanh(t/2)) / 2``, whose centred values keep their
    precision for the near-linear shapes of large beta4; the rss is then
    evaluated in the model's own form, so that a pair which only rounds to
    a good fit there (a huge ``delta``) is ranked by what the polish will
    see.
    """
    t = (x - b3[:, None, None]) / b4[:, None]
    h = np.tanh(0.5 * t)
    hc = h - h.mean(axis=-1, keepdims=True)
    yc = y - y.mean()
    num = hc @ yc
    den = np.einsum("ijk,ijk->ij", hc, hc)
    delta = 2.0 * np.divide(np.maximum(num, 0.0), den, out=np.zeros_like(den), where=den > 0)
    b2 = y.mean() - 0.5 * delta * (1.0 + h.mean(axis=-1))
    r = b2[..., None] + delta[..., None] * _expit(t) - y
    return np.einsum("ijk,ijk->ij", r, r)


def _grid_minima(rss: np.ndarray) -> np.ndarray:
    """Flat indices of the grid's local minima (no higher than any of the
    8 neighbours and lower than one of them), by rss, stable."""
    n3, n4 = rss.shape
    hi = np.pad(rss, 1, constant_values=np.inf)
    lo = np.pad(rss, 1, constant_values=-np.inf)
    shifts = [(i, j) for i in range(3) for j in range(3) if (i, j) != (1, 1)]
    nb_min = np.min([hi[i : i + n3, j : j + n4] for i, j in shifts], axis=0)
    nb_max = np.max([lo[i : i + n3, j : j + n4] for i, j in shifts], axis=0)
    idx = np.flatnonzero((rss <= nb_min) & (rss < nb_max))
    return idx[np.argsort(rss.ravel()[idx], kind="stable")]


def _grid_starts(rss: np.ndarray) -> list[int]:
    """Flat indices of the grid points to polish, at most
    ``_MAX_STARTS`` and all distinct: the grid's best point, the best
    points of the two beta3 bounds, then the other local minima.

    The bound rows are polished whatever their grid rss: a fit's flat
    valleys end on a beta3 bound, and a narrow valley in beta4 can put a
    basin's best grid point well above the basin's minimum.
    """
    n3, n4 = rss.shape
    order = [int(np.argmin(rss)), int(np.argmin(rss[0])), (n3 - 1) * n4 + int(np.argmin(rss[-1]))]
    starts = []
    for f in [*order, *_grid_minima(rss).tolist()]:
        if f not in starts:
            starts.append(f)
    return starts[:_MAX_STARTS]


@dataclass(frozen=True)
class Polish:
    """One polished start: ``x`` is ``(beta2, delta, beta3, beta4)``,
    ``rss`` its residual sum of squares in the model's own form and
    ``nfev`` the number of rss evaluations the polish made."""

    x: tuple[float, float, float, float]
    rss: float
    nfev: int


def least_squares(x, y, b3, b4, box) -> Polish:
    """Polish the logistic fit from the start ``(b3, b4)``.

    A damped Newton method on the variable projection (Golub & Pereyra
    1973): at every ``(beta3, log beta4)`` the pair (beta2, delta >= 0) is
    solved in closed form, as in :func:`_projected_grid`, and the rss of
    that projection is minimised over the two nonlinear variables alone,
    with its exact gradient and Hessian (the Schur complement of the full
    Hessian, a 2x2 matrix).  ``box`` is ``((beta3_lo, beta3_hi),
    (beta4_lo, beta4_hi))``: a variable on a bound whose gradient points
    out of the box is held there, and steps are clipped to it.  The
    damping follows Nielsen (1999), shifted where the Hessian is not
    positive definite.

    A step is taken when it lowers the rss in the model's own form
    ``beta2 + delta * expit(t)``, the one the fit reports; in a
    near-linear valley (a huge beta4 and delta) that form rounds worse
    than the projection, and the polish ends where it stops improving.
    The polish stops when its local model predicts a gain below
    ``_GAIN_TOL`` of the rss, or after ``_MAX_NFEV`` evaluations.
    """
    (b3_lo, b3_hi), (b4_lo, b4_hi) = box
    w = b3_hi - b3_lo  # th is (beta3 in units of the box width, log beta4)
    lo = np.array([b3_lo / w, math.log(b4_lo)])
    hi = np.array([b3_hi / w, math.log(b4_hi)])
    ym = y.mean()
    yc = y - ym

    def project(th):
        """(beta2, delta, beta3, beta4) at ``th``, its model-form rss, half
        its centred rss, and the terms of the centred residual
        ``a * hc - yc``."""
        b3, b4 = th[0] * w, math.exp(th[1])
        t = (x - b3) / b4
        h = np.tanh(0.5 * t)
        hc = h - h.mean()
        den = hc @ hc
        a = max(hc @ yc, 0.0) / den if den > 0 else 0.0  # delta / 2
        b2 = ym - a * (1.0 + h.mean())
        rm = b2 + 2.0 * a * _expit(t) - y
        r = a * hc - yc
        return (b2, 2.0 * a, b3, b4), float(rm @ rm), 0.5 * (r @ r), (t, h, hc, a, r)

    def newton(b4, t, h, hc, a, r):
        """Gradient and Hessian of half the centred rss in ``th``."""
        e = w / b4  # dt/dth = (-e, -t)
        h1 = 0.5 * (1.0 - h * h)  # dh/dt
        m = h1 - h * h1 * t
        dh = np.stack([-e * h1, -t * h1])
        d2h = np.stack([-e * e * h * h1, e * m, t * m])  # th0 th0, th0 th1, th1 th1
        dh -= dh.mean(axis=1, keepdims=True)
        d2h -= d2h.mean(axis=1, keepdims=True)
        dr = dh @ r
        c = dr + a * (dh @ hc)
        k = d2h @ r
        hess = a * a * (dh @ dh.T) + a * np.array([[k[0], k[1]], [k[1], k[2]]]) - np.outer(c, c) / (hc @ hc)
        return a * dr, hess

    def gain(g, hess, step):
        """Fall of half the rss that the local model predicts for ``step``."""
        return -(g @ step + 0.5 * step @ hess @ step)

    th = np.clip([b3 / w, math.log(b4)], lo, hi)
    fit, rss, half, terms = project(th)
    nfev = 1
    lam, nu = 0.0, 2.0
    while fit[1] > 0:  # with delta = 0 the rss is flat in (beta3, beta4)
        g, hess = newton(fit[3], *terms)
        free = ~(((th <= lo) & (g > 0)) | ((th >= hi) & (g < 0)))
        g, hess = g[free], hess[np.ix_(free, free)]
        ev, vec = np.linalg.eigh(hess)
        q = vec.T @ g
        unit = np.abs(ev).max(initial=0.0) or 1.0
        shift = max(0.0, 1e-10 * unit - ev.min(initial=np.inf))
        while True:
            step = -vec @ (q / (ev + shift + lam))
            if not gain(g, hess, step) > _GAIN_TOL * half or nfev >= _MAX_NFEV:
                return Polish(fit, rss, nfev)
            trial = th.copy()
            trial[free] += step
            trial = np.clip(trial, lo, hi)
            trial_fit, trial_rss, trial_half, trial_terms = project(trial)
            nfev += 1
            if trial_rss < rss:
                taken = gain(g, hess, (trial - th)[free])
                rho = (half - trial_half) / taken if taken > 0 else 0.0
                lam *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
                nu = 2.0
                th, fit, rss, half, terms = trial, trial_fit, trial_rss, trial_half, trial_terms
                break
            lam = max(lam * nu, 1e-3 * unit)
            nu *= 2.0
    return Polish(fit, rss, nfev)


def fit_logistic(curve: RDCurve) -> LogisticParams:
    """Least-squares logistic fit with the inflection constrained to
    ``[r_min/2, r_min]``.

    The model is reparameterized as ``(beta2, delta, beta3, beta4)`` with
    ``delta = beta1 - beta2 >= 0``, which enforces a non-decreasing curve
    by construction.  The start comes from variable projection (Golub &
    Pereyra 1973): on a fixed grid of beta3 (linear over the box) and
    beta4 (geometric over the bitrate span, out to the near-linear limit)
    the pair (beta2, delta) is solved in closed form.  At most
    ``_MAX_STARTS`` grid points (see :func:`_grid_starts`) are polished
    by :func:`least_squares` inside the grid's box.  The lowest residual
    wins, ties going to the earlier polish, so the fit is deterministic.
    Polishing stops as soon as a fit is numerically exact, which
    noiseless curves reach in one polish.  The qualities are scaled by a
    power of two first, an exact operation, so that the squares in the
    polish stay clear of overflow however large the qualities are.
    """
    if len(curve.points) < MIN_FIT_POINTS:
        raise TooFewPoints(f"logistic fit needs >= {MIN_FIT_POINTS} points, got {len(curve.points)}")
    x = curve.bitrates
    y = curve.qualities
    with np.errstate(over="ignore"):
        exact_rss = 1e-16 * max(1.0, float(np.sum(y * y)))
    if not math.isfinite(exact_rss):
        raise NonFinite("qualities are too large: their sum of squares overflows float64")
    scale = math.ldexp(1.0, -math.frexp(float(np.max(np.abs(y))))[1])
    y = y * scale
    exact_rss *= scale * scale

    r_min = curve.r_min
    with np.errstate(over="ignore"):
        b4_grid = _GRID_B4_SPANS * float(x[-1] - x[0])
    if not (r_min / 2.0 > 0 and b4_grid[0] > 0 and math.isfinite(b4_grid[-1])):
        raise NonFinite(
            f"bitrates {x[0]!r}..{x[-1]!r} kbps are out of range: r_min/2 or the beta4 box "
            "(1e-4 to 1e6 bitrate spans) is not finite and positive"
        )
    b3_grid = np.linspace(r_min / 2.0, r_min, _GRID_B3)
    box = ((r_min / 2.0, r_min), (_BETA4_FLOOR, float(b4_grid[-1])))
    with np.errstate(all="ignore"):
        best = None
        for f in _grid_starts(_projected_grid(x, y, b3_grid, b4_grid)):
            i, j = divmod(f, b4_grid.size)
            sol = least_squares(x, y, b3_grid[i], b4_grid[j], box)
            if best is None or sol.rss < best.rss:
                best = sol
            if best.rss <= exact_rss:
                break

    b2, delta, b3, b4 = (float(v) for v in best.x)
    return LogisticParams(
        beta1=(b2 + delta) / scale, beta2=b2 / scale, beta3=b3, beta4=b4, rss=best.rss / scale / scale
    )


@dataclass(frozen=True)
class CrossOverResult:
    """Outcome of a cross-over search between a lower and a higher
    resolution curve on a bitrate range.

    ``status`` is ``found`` for exactly one sign change of the quality
    difference, ``multiple_resolved`` when several crossings exist (the
    lowest-bitrate one is reported), ``none`` otherwise.  Coincident
    curves count as no cross-over.
    """

    bitrate_kbps: float | None
    lower_curve: str
    higher_curve: str
    status: str
    range_lo: float
    range_hi: float
    n_crossings: int = 0

    @property
    def has_bitrate(self) -> bool:
        return self.bitrate_kbps is not None


def sign_flips(signs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Brackets of sign changes in a sampled ``np.sign`` array.

    Zeros are skipped: each nonzero sample is paired with the next
    nonzero one, and a pair of opposite signs is a bracket.  NaN never
    brackets.  Returns the index arrays of the brackets' two ends, in
    grid order.
    """
    signs = np.ravel(signs)  # a 0-d difference of two constant curves
    nz = np.flatnonzero(signs)  # NaN counts as nonzero
    s = signs[nz]
    flip = np.flatnonzero(s[:-1] * s[1:] < 0)
    return nz[flip], nz[flip + 1]


def find_crossover(
    low,
    high,
    search_range: tuple[float, float],
    low_label: str = "low",
    high_label: str = "high",
    scan_samples: int = 32768,
) -> CrossOverResult:
    """Locate where ``high``'s quality overtakes ``low``'s.

    Both arguments are curves: anything called with bitrates, such as
    fitted parameter sets, interpolants or plain functions.  The
    difference is scanned on a uniform grid to bracket sign changes, then
    each bracket is narrowed by bisection to a width of
    ``BISECT_TOL_KBPS``.  Touching without crossing, or an
    identically-zero difference, yields status ``none``.
    """
    lo, hi = float(search_range[0]), float(search_range[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi or lo <= 0:
        raise InvalidRange(f"invalid search range [{search_range[0]}, {search_range[1]}]")

    for curve in (low, high):
        if not callable(curve):
            raise NotEvaluable(f"object of type {type(curve).__name__} is not evaluable as a curve")

    grid = np.linspace(lo, hi, scan_samples)
    diff = np.asarray(high(grid), dtype=float) - np.asarray(low(grid), dtype=float)
    a_idx, b_idx = sign_flips(np.sign(diff))
    if a_idx.size == 0:
        return CrossOverResult(None, low_label, high_label, STATUS_NONE, lo, hi, 0)

    def g(x):
        return float(high(x)) - float(low(x))

    a, b = grid[a_idx[0]], grid[b_idx[0]]
    ga = g(a)
    while b - a > BISECT_TOL_KBPS:
        mid = 0.5 * (a + b)
        gm = g(mid)
        if gm == 0.0:
            a = b = mid
            break
        if (ga > 0) == (gm > 0):
            a, ga = mid, gm
        else:
            b = mid
    root = float(0.5 * (a + b))

    n_brackets = int(a_idx.size)
    status = STATUS_FOUND if n_brackets == 1 else STATUS_MULTIPLE
    return CrossOverResult(root, low_label, high_label, status, lo, hi, n_brackets)
