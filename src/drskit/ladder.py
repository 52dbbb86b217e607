"""GOP-level resolution statistics and augmented-ladder selection.

``QualityLog`` holds per-GOP quality scores for every (bitrate rung,
resolution) candidate.  ``best_resolution_probability`` counts how often
each resolution wins a rung; the optimizers pick a bounded set of
representations maximizing bandwidth-weighted quality, either exactly
(per-rung subset tables and a DP over the budget, for at most 20
candidates per rung) or via seeded greedy marginal gains, which is
near-optimal because the per-rung max objective is monotone submodular.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyInput,
    IncompleteLog,
    InfeasibleK,
    InputError,
    TooManyCandidates,
)
from .io import _res_key

__all__ = [
    "QualityLog",
    "ProbabilityTable",
    "LadderProblem",
    "LadderSolution",
    "GainStep",
    "best_resolution_probability",
    "cumulative_probability",
    "optimize_ladder_exhaustive",
    "optimize_ladder_greedy",
    "weights_from_bandwidth",
]

Resolution = tuple[int, int]

_EXHAUSTIVE_CANDIDATE_LIMIT = 20


def _int_array(values) -> np.ndarray:
    """``values`` as an integer array; Python ints too large for int64
    are kept, in an object array."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return values
    ints = list(map(int, values))
    try:
        return np.array(ints, dtype=np.int64)
    except OverflowError:
        return np.array(ints, dtype=object)


class _FirstSeen(dict):
    """Codes of keys, numbered in the order the keys are first looked up."""

    def __missing__(self, key):
        self[key] = code = len(self)
        return code


def _unique_codes(values: np.ndarray):
    """The distinct values of an array in sorted order, and each entry's
    index among them.  Unlike ``return_inverse``, this keeps no argsort of
    the array; asking for counts makes ``np.unique`` sort a copy, which is
    about twice as fast as its hash table on columns with few values."""
    distinct, _ = np.unique(values, return_counts=True)
    return distinct, np.searchsorted(distinct, values)


def _pair_codes(first: np.ndarray, second: np.ndarray, n_second: int):
    """The distinct (first, second) pairs of two code arrays in sorted
    order, as two arrays, and each entry's index among them."""
    keys, codes = _unique_codes(first * n_second + second)
    return *np.divmod(keys, n_second), codes


@dataclass(frozen=True, eq=False)
class QualityLog:
    """Dense (GOP, rung, resolution) score array.

    ``gop_ids`` are (content_id, gop_index) pairs in canonical order;
    resolutions are sorted ascending by pixel count.  Missing scores are
    NaN and rejected by any operation that needs them.
    """

    rungs: tuple[float, ...]
    resolutions: tuple[Resolution, ...]
    gop_ids: tuple[tuple[str, int], ...]
    scores: np.ndarray  # (n_gops, n_rungs, n_resolutions)

    @classmethod
    def from_records(cls, records) -> "QualityLog":
        """Build from (content_id, gop_index, bitrate_kbps, resolution,
        score) tuples."""
        records = list(records)
        if not records:
            raise EmptyInput("quality log has no records")
        content, gop, bitrate, res, score = zip(*records)
        names = _FirstSeen()  # content id -> its code
        codes = list(map(names.__getitem__, map(str, content)))
        return cls.from_columns(list(names), codes, gop, bitrate, [r[0] for r in res], [r[1] for r in res], score)

    @classmethod
    def from_columns(cls, content_names, content_codes, gop_indices, bitrates, widths, heights, scores) -> "QualityLog":
        """Build from one sequence per field, record ``i`` being entry
        ``i`` of each; its content id is ``content_names[content_codes[i]]``,
        the names being distinct strings in any order.  A (GOP, rung,
        resolution) given twice is an InputError naming the first record
        that repeats an earlier one."""
        if len(scores) == 0:
            raise EmptyInput("quality log has no records")
        # Each record's GOP and resolution become integer codes, numbered
        # in sorted order: a (content, GOP) or (width, height) pair is
        # coded from the ranks of its two parts.  Each record-length array
        # is dropped once it is used, so few exist at once.
        name_order = sorted(range(len(content_names)), key=content_names.__getitem__)
        gops = _int_array(gop_indices)
        gop_values, gop_rank = _unique_codes(gops)
        content_of = np.argsort(name_order)[np.asarray(content_codes)]
        gop_content, gop_at, gop_of = _pair_codes(content_of, gop_rank, len(gop_values))
        del content_of, gop_rank
        contents = [content_names[k] for k in name_order]
        gop_ids = tuple(zip([contents[c] for c in gop_content.tolist()], gop_values[gop_at].tolist()))
        widths, heights = _int_array(widths), _int_array(heights)
        width_values, width_of = _unique_codes(widths)
        height_values, height_of = _unique_codes(heights)
        pair_width, pair_height, pair_of = _pair_codes(width_of, height_of, len(height_values))
        del width_of, height_of
        pairs = list(zip(width_values[pair_width].tolist(), height_values[pair_height].tolist()))
        res_order = sorted(range(len(pairs)), key=lambda k: _res_key(pairs[k]))
        resolutions = tuple(pairs[k] for k in res_order)
        bitrates = np.asarray(bitrates, dtype=float)
        rung_values, rung_of = _unique_codes(bitrates)
        flat = (gop_of * len(rung_values) + rung_of) * len(resolutions) + np.argsort(res_order)[pair_of]
        del gop_of, rung_of, pair_of
        if np.bincount(flat).max() > 1:
            order = np.argsort(flat, kind="stable")
            i = int(order[1:][flat[order[1:]] == flat[order[:-1]]].min())
            content = content_names[content_codes[i]]
            record = (content, int(gops[i]), float(bitrates[i]), (int(widths[i]), int(heights[i])))
            raise InputError(f"duplicate quality record for {record}")
        cube = np.full(len(gop_ids) * len(rung_values) * len(resolutions), np.nan)
        cube[flat] = np.asarray(scores, dtype=float)
        cube = cube.reshape(len(gop_ids), len(rung_values), len(resolutions))
        cube.flags.writeable = False
        return cls(tuple(rung_values.tolist()), resolutions, gop_ids, cube)

    @property
    def n_gops(self) -> int:
        return len(self.gop_ids)

    def rung_index(self, bitrate: float) -> int:
        try:
            return self.rungs.index(float(bitrate))
        except ValueError:
            raise InputError(f"bitrate {bitrate} is not a rung of this log") from None

    def res_index(self, res: Resolution) -> int:
        try:
            return self.resolutions.index((int(res[0]), int(res[1])))
        except ValueError:
            raise InputError(f"resolution {res} is not in this log") from None


@dataclass(frozen=True, eq=False)
class ProbabilityTable:
    rungs: tuple[float, ...]
    resolutions: tuple[Resolution, ...]
    probabilities: np.ndarray  # (n_rungs, n_resolutions)


def best_resolution_probability(log: QualityLog) -> ProbabilityTable:
    """Share of GOPs at which each resolution has the best score, per
    rung; exact ties go to the lower resolution and are counted once."""
    if np.isnan(log.scores).any():
        raise IncompleteLog("quality log has missing scores")
    # argmax returns the first maximum; resolutions are ascending, so
    # ties land on the lower one.
    winners = np.argmax(log.scores, axis=2)
    probs = (winners[:, :, None] == np.arange(len(log.resolutions))).sum(axis=0) / log.n_gops
    probs.flags.writeable = False
    return ProbabilityTable(log.rungs, log.resolutions, probs)


def cumulative_probability(table: ProbabilityTable) -> ProbabilityTable:
    """Running sum over resolutions in ascending pixel order."""
    cum = np.cumsum(table.probabilities, axis=1)
    cum.flags.writeable = False
    return ProbabilityTable(table.rungs, table.resolutions, cum)


@dataclass(frozen=True)
class LadderProblem:
    """Representation-selection instance: pick at most ``k_max``
    (rung, resolution) pairs, at least one per rung, maximizing the
    bandwidth-weighted sum of per-GOP best scores."""

    log: QualityLog
    weights: dict[float, float]
    k_max: int
    candidates: tuple[tuple[float, Resolution], ...]

    @classmethod
    def build(
        cls,
        log: QualityLog,
        k_max: int,
        weights: dict[float, float] | None = None,
        candidates=None,
    ) -> "LadderProblem":
        if k_max < 0:
            raise InputError(f"k_max must be >= 0, got {k_max}")
        if candidates is None:
            cands = [(b, res) for b in log.rungs for res in log.resolutions]
        else:
            cands = [(float(b), (int(r[0]), int(r[1]))) for b, r in candidates]
        cands = sorted(set(cands), key=lambda c: (c[0], _res_key(c[1])))
        rungs = sorted({c[0] for c in cands})
        for rung in log.rungs:
            if rung not in rungs:
                raise InputError(f"rung {rung} of the log has no candidate representation")
        if weights is None:
            weights = {b: 1.0 / len(log.rungs) for b in log.rungs}
        for b in log.rungs:
            if b not in weights:
                raise InputError(f"no weight given for rung {b}")
            if weights[b] < 0 or not math.isfinite(weights[b]):
                raise InputError(f"weight for rung {b} must be finite and >= 0")
        for b, res in cands:
            col = log.scores[:, log.rung_index(b), log.res_index(res)]
            if np.isnan(col).any():
                raise IncompleteLog(f"candidate ({b}, {res}) has missing scores")
        return cls(log, dict(weights), int(k_max), tuple(cands))

    def candidate_column(self, cand: tuple[float, Resolution]) -> np.ndarray:
        b, res = cand
        return self.log.scores[:, self.log.rung_index(b), self.log.res_index(res)]


@dataclass(frozen=True)
class GainStep:
    bitrate_kbps: float
    resolution: Resolution
    gain: float
    objective: float


@dataclass(frozen=True)
class LadderSolution:
    selected: tuple[tuple[float, Resolution], ...]
    objective: float
    trace: tuple[GainStep, ...] = ()

    def rung_map(self) -> dict[float, list[Resolution]]:
        out: dict[float, list[Resolution]] = {}
        for b, res in self.selected:
            out.setdefault(b, []).append(res)
        return out


def optimize_ladder_exhaustive(problem: LadderProblem) -> LadderSolution:
    """Exact maximizer for any ladder with at most 20 candidates per rung.

    Each rung's subsets are scored on their own and a DP over the size,
    adding the terms in rung order from 0.0, finds the optimum.  The pick
    is the first optimum of an enumeration by ascending size, then
    lexicographic candidate index, even where only rounding makes a tie."""
    cands, rungs, k = problem.candidates, problem.log.rungs, problem.k_max
    if k < len(rungs):
        raise InfeasibleK(f"k_max = {k} cannot cover {len(rungs)} rungs")
    members = [[i for i, c in enumerate(cands) if c[0] == b] for b in rungs]
    for b, idx in zip(rungs, members):
        if len(idx) > _EXHAUSTIVE_CANDIDATE_LIMIT:
            raise TooManyCandidates(f"rung {b} has {len(idx)} candidates, more than {_EXHAUSTIVE_CANDIDATE_LIMIT}")
    cols = np.stack([problem.candidate_column(c) for c in cands])

    def scored(b, idx, top):
        """Each subset's term, by size up to top, in combinations order;
        NaN (0 * inf) as -inf.  A depth-first walk visits the subsets of
        each size in that order, and extends its parent's per-GOP max by
        one column."""
        own = cols[idx]
        values: dict[int, list[np.ndarray]] = {s: [] for s in range(1, top + 1)}

        def walk(parent_max, first, size):
            children = own[first:] if parent_max is None else np.maximum(parent_max, own[first:])
            values[size].append(problem.weights[b] * children.sum(axis=1))
            if size < top:
                for i, child in enumerate(children[:-1], first + 1):
                    walk(child, i, size + 1)

        walk(None, 0, 1)
        return {s: np.fmax(np.concatenate(v), -np.inf) for s, v in values.items()}

    spare = k - len(rungs) + 1  # the most candidates one rung can take
    terms = [scored(b, idx, min(len(idx), spare)) for b, idx in zip(rungs, members)]
    tops = [{s: t.max() for s, t in by_size.items()} for by_size in terms]

    def reach(best: dict[int, float], r: int) -> dict[int, float]:
        for top in tops[r:]:
            nxt: dict[int, float] = {}
            for (used, obj), (s, t) in itertools.product(best.items(), top.items()):
                if used + s <= k and obj + t > nxt.get(used + s, -np.inf):
                    nxt[used + s] = obj + t
            best = nxt
        return best

    final = reach({0: 0.0}, 0)
    if not final:
        raise InfeasibleK("no feasible selection covers every rung")
    best_obj = max(final.values())
    size = min(n for n, obj in final.items() if obj == best_obj)

    # Per rung, the first subset from which the later rungs can still reach
    # the optimum.  Float addition is monotone, so per size those are the
    # subsets whose term clears a bar.  Across sizes, a subset ranks after
    # its own extensions (the padding): in the enumeration, the next index
    # of the shorter one is a later rung's.
    selected, obj = [], 0.0
    for r, by_size in enumerate(terms):
        picks = []
        for s, t in by_size.items():
            used, levels = len(selected) + s, np.unique(t)
            i = bisect.bisect_left(levels, True, key=lambda x: reach({used: obj + x}, r + 1).get(size) == best_obj)
            if i < len(levels):
                j = int(np.argmax(t >= levels[i]))
                combo = next(itertools.islice(itertools.combinations(members[r], s), j, None))
                picks.append((combo + (len(cands),), t[j]))
        combo, term = min(picks)
        selected += combo[:-1]
        obj = obj + term
    return LadderSolution(tuple(cands[i] for i in selected), best_obj)


def optimize_ladder_greedy(problem: LadderProblem) -> LadderSolution:
    """Seed each rung with its single best representation, then add the
    candidate with the largest marginal gain until the budget is spent
    or no candidate helps.  The objective never decreases along the
    trace."""
    rungs = problem.log.rungs
    if problem.k_max < len(rungs):
        raise InfeasibleK(f"k_max = {problem.k_max} cannot cover {len(rungs)} rungs")

    by_rung: dict[float, list[tuple[float, Resolution]]] = {}
    for cand in problem.candidates:
        by_rung.setdefault(cand[0], []).append(cand)

    selected: list[tuple[float, Resolution]] = []
    trace: list[GainStep] = []
    current: dict[float, np.ndarray] = {}
    objective = 0.0
    for b in rungs:
        best_cand = None
        best_term = -np.inf
        for cand in by_rung[b]:  # candidates are pre-sorted, ties keep the lower resolution
            term = problem.weights[b] * float(problem.candidate_column(cand).sum())
            if term > best_term:
                best_term = term
                best_cand = cand
        selected.append(best_cand)
        current[b] = problem.candidate_column(best_cand).copy()
        objective += best_term
        trace.append(GainStep(best_cand[0], best_cand[1], best_term, objective))

    while len(selected) < problem.k_max:
        best_cand = None
        best_gain = 0.0
        for cand in problem.candidates:
            if cand in selected:
                continue
            b = cand[0]
            gain = problem.weights[b] * float(
                np.maximum(current[b], problem.candidate_column(cand)).sum() - current[b].sum()
            )
            if gain > best_gain:
                best_gain = gain
                best_cand = cand
        if best_cand is None:
            break
        b = best_cand[0]
        current[b] = np.maximum(current[b], problem.candidate_column(best_cand))
        selected.append(best_cand)
        objective += best_gain
        trace.append(GainStep(best_cand[0], best_cand[1], best_gain, objective))

    selected_sorted = tuple(sorted(selected, key=lambda c: (c[0], _res_key(c[1]))))
    return LadderSolution(selected_sorted, objective, tuple(trace))


def weights_from_bandwidth(samples, rungs) -> dict[float, float]:
    """Histogram session bandwidths onto rungs: each sample goes to the
    highest rung not above it (below the lowest rung maps to the lowest);
    weights are the assigned fractions and sum to 1."""
    samples = np.asarray(list(samples), dtype=float)
    if samples.size == 0:
        raise EmptyInput("no bandwidth samples")
    rungs = sorted(float(b) for b in rungs)
    if not rungs:
        raise EmptyInput("no rungs")
    idx = np.clip(np.searchsorted(rungs, samples, side="right") - 1, 0, len(rungs) - 1)
    counts = np.bincount(idx, minlength=len(rungs))
    return {b: float(counts[i] / samples.size) for i, b in enumerate(rungs)}
