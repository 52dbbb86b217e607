import csv
import itertools
import math
import struct

import numpy as np
import pytest

from drskit import io
from drskit.errors import EmptyInput, IncompleteLog, InfeasibleK, InputError, TooManyCandidates
from drskit.ladder import (
    LadderProblem,
    LadderSolution,
    QualityLog,
    best_resolution_probability,
    cumulative_probability,
    optimize_ladder_exhaustive,
    optimize_ladder_greedy,
    weights_from_bandwidth,
)

R540 = (960, 540)
R720 = (1280, 720)
R1080 = (1920, 1080)


def ladder_objective(problem: LadderProblem, selected) -> float:
    """The oracle objective: the sum over rungs of the weight times the
    per-GOP best score among the selected representations of that rung."""
    by_rung: dict[float, list[np.ndarray]] = {}
    for cand in selected:
        by_rung.setdefault(cand[0], []).append(problem.candidate_column(cand))
    total = 0.0
    for b in problem.log.rungs:
        cols = by_rung.get(b)
        if not cols:
            raise InputError(f"selection leaves rung {b} empty")
        total += problem.weights[b] * float(np.maximum.reduce(cols).sum())
    return total


def log_from_array(scores, rungs, resolutions, content="c"):
    records = []
    for i in range(scores.shape[0]):
        for j, b in enumerate(rungs):
            for k, res in enumerate(resolutions):
                if not np.isnan(scores[i, j, k]):
                    records.append((content, i, b, res, scores[i, j, k]))
    return QualityLog.from_records(records)


def random_log(rng, n_gops=20, rungs=(1000.0, 2000.0, 4000.0), resolutions=(R540, R720, R1080)):
    scores = rng.uniform(0, 10, (n_gops, len(rungs), len(resolutions)))
    return log_from_array(scores, rungs, resolutions)


class TestQualityLog:
    def test_orders_rungs_and_resolutions(self):
        log = random_log(np.random.default_rng(0))
        assert log.rungs == (1000.0, 2000.0, 4000.0)
        assert log.resolutions == (R540, R720, R1080)

    def test_duplicate_record_rejected(self):
        records = [("c", 0, 1000.0, R540, 5.0), ("c", 0, 1000.0, R540, 6.0)]
        with pytest.raises(InputError):
            QualityLog.from_records(records)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            QualityLog.from_records([])

    @pytest.mark.parametrize("entry", ["numpy", "csv", "from_records"])
    def test_duplicate_record_message(self, tmp_path, monkeypatch, entry):
        """Every way in names the first record that repeats an earlier
        one, with its content id, though ids are coded in first-seen order
        ("d" before "c") and ranked in sorted order."""
        records = [("d", 0, 1000.0, R540, 5.0), ("c", 0, 1000.0, R540, 4.0), ("d", 0, 1000.0, R540, 3.0)]
        path = tmp_path / "log.csv"
        if entry == "numpy":
            io.write_quality_log(path, records)
            monkeypatch.setattr(io, "_read_table", pytest.fail)  # the csv reader must not run
        elif entry == "csv":
            with open(path, "w", encoding="utf-8", newline="") as fh:  # quotes send it to the csv reader
                rows = [[c, g, b, w, h, v] for c, g, b, (w, h), v in records]
                csv.writer(fh, quoting=csv.QUOTE_ALL).writerows([io.QUALITY_LOG_COLUMNS, *rows])
        with pytest.raises(InputError) as err:
            QualityLog.from_records(records) if entry == "from_records" else io.load_quality_log(path)
        assert str(err.value) == "duplicate quality record for ('d', 0, 1000.0, (960, 540))"


class TestBestResolutionProbability:
    def test_strict_winner(self):
        scores = np.zeros((5, 1, 3))
        scores[:, 0, 1] = 9.0  # 720p always wins rung 0
        table = best_resolution_probability(log_from_array(scores, (1000.0,), (R540, R720, R1080)))
        assert table.probabilities[0].tolist() == [0.0, 1.0, 0.0]

    def test_denominator_is_gop_count(self):
        # 1800 one-second GOPs, as for a 30-minute sequence.
        rng = np.random.default_rng(1)
        scores = rng.uniform(0, 10, (1800, 1, 3))
        table = best_resolution_probability(log_from_array(scores, (1000.0,), (R540, R720, R1080)))
        counts = table.probabilities[0] * 1800
        assert np.allclose(counts, np.round(counts))
        assert table.probabilities[0].sum() == pytest.approx(1.0, abs=1e-9)

    def test_tie_goes_to_lower_resolution(self):
        scores = np.full((4, 1, 2), 5.0)
        table = best_resolution_probability(log_from_array(scores, (1000.0,), (R720, R1080)))
        assert table.probabilities[0].tolist() == [1.0, 0.0]

    def test_rows_sum_to_one(self):
        table = best_resolution_probability(random_log(np.random.default_rng(2)))
        assert np.allclose(table.probabilities.sum(axis=1), 1.0, atol=1e-9)

    def test_incomplete_log_rejected(self):
        scores = np.full((3, 1, 2), 5.0)
        scores[1, 0, 1] = np.nan
        with pytest.raises(IncompleteLog):
            best_resolution_probability(log_from_array(scores, (1000.0,), (R720, R1080)))

    def test_argmax_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(3)
        log = random_log(rng)
        table = best_resolution_probability(log)
        transformed = log_from_array(np.exp(log.scores * 0.7) + 3.0, log.rungs, log.resolutions)
        table2 = best_resolution_probability(transformed)
        assert np.array_equal(table.probabilities, table2.probabilities)


class TestCumulativeProbability:
    def test_running_sum(self):
        scores = np.zeros((10, 1, 3))
        # 540 wins 2, 720 wins 5, 1080 wins 3
        scores[:2, 0, 0] = 1.0
        scores[2:7, 0, 1] = 1.0
        scores[7:, 0, 2] = 1.0
        table = best_resolution_probability(log_from_array(scores, (1000.0,), (R540, R720, R1080)))
        cum = cumulative_probability(table)
        assert cum.probabilities[0] == pytest.approx([0.2, 0.7, 1.0])

    def test_single_resolution(self):
        scores = np.full((4, 2, 1), 5.0)
        table = best_resolution_probability(log_from_array(scores, (1000.0, 2000.0), (R720,)))
        cum = cumulative_probability(table)
        assert np.allclose(cum.probabilities, 1.0)

    def test_nondecreasing(self):
        table = best_resolution_probability(random_log(np.random.default_rng(4)))
        cum = cumulative_probability(table)
        assert np.all(np.diff(cum.probabilities, axis=1) >= -1e-12)
        assert np.allclose(cum.probabilities[:, -1], 1.0, atol=1e-9)


def brute_force_best(problem):
    """Enumerate every feasible selection independently of the optimizer."""
    rungs = problem.log.rungs
    best = None
    for size in range(len(rungs), problem.k_max + 1):
        for combo in itertools.combinations(problem.candidates, size):
            if {c[0] for c in combo} != set(rungs):
                continue
            obj = ladder_objective(problem, combo)
            if best is None or obj > best[0]:
                best = (obj, combo)
    return best


class TestExhaustive:
    def test_unconstrained_takes_all(self):
        rng = np.random.default_rng(5)
        log = random_log(rng, n_gops=10)
        problem = LadderProblem.build(log, k_max=9)
        sol = optimize_ladder_exhaustive(problem)
        assert set(sol.selected) == set(problem.candidates)
        assert sol.objective == pytest.approx(ladder_objective(problem, problem.candidates))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            log = random_log(rng, n_gops=4, rungs=(1000.0, 2000.0), resolutions=(R540, R720, R1080))
            problem = LadderProblem.build(log, k_max=3)
            sol = optimize_ladder_exhaustive(problem)
            obj, _combo = brute_force_best(problem)
            assert sol.objective == pytest.approx(obj)

    def test_single_gop_hand_instance(self):
        scores = np.array([[[1.0, 5.0], [2.0, 9.0]]])  # 1 gop, 2 rungs, 2 res
        log = log_from_array(scores, (1000.0, 2000.0), (R540, R720))
        problem = LadderProblem.build(log, k_max=3, weights={1000.0: 1.0, 2000.0: 1.0})
        sol = optimize_ladder_exhaustive(problem)
        # per rung the 720p entry dominates; adding anything else changes nothing.
        assert (1000.0, R720) in sol.selected
        assert (2000.0, R720) in sol.selected
        assert sol.objective == pytest.approx(5.0 + 9.0)

    def test_zero_weight_rung_irrelevant(self):
        rng = np.random.default_rng(7)
        log = random_log(rng, n_gops=6, rungs=(1000.0, 2000.0), resolutions=(R540, R720))
        problem = LadderProblem.build(log, k_max=4, weights={1000.0: 0.0, 2000.0: 1.0})
        sol = optimize_ladder_exhaustive(problem)
        keep_2000 = [c for c in sol.selected if c[0] == 2000.0]
        alt = ladder_objective(problem, keep_2000 + [(1000.0, R540)])
        assert sol.objective == pytest.approx(alt)

    def test_infeasible_k(self):
        log = random_log(np.random.default_rng(8))
        with pytest.raises(InfeasibleK):
            optimize_ladder_exhaustive(LadderProblem.build(log, k_max=2))

    def test_candidate_guard(self):
        # 24 candidates over 8 rungs solve; a rung with 21 candidates does not.
        rng = np.random.default_rng(9)
        rungs = tuple(1000.0 * (i + 1) for i in range(8))
        log = random_log(rng, n_gops=3, rungs=rungs, resolutions=(R540, R720, R1080))
        problem = LadderProblem.build(log, k_max=9)
        sol = optimize_ladder_exhaustive(problem)
        assert len(sol.selected) <= 9
        assert {c[0] for c in sol.selected} == set(rungs)
        assert sol.objective == ladder_objective(problem, sol.selected)
        assert sol.objective >= optimize_ladder_greedy(problem).objective

        wide = tuple((64 * (i + 1), 36 * (i + 1)) for i in range(21))
        log = random_log(rng, n_gops=3, rungs=(1000.0,), resolutions=wide)
        with pytest.raises(TooManyCandidates):
            optimize_ladder_exhaustive(LadderProblem.build(log, k_max=2))
        sol = optimize_ladder_exhaustive(LadderProblem.build(log, k_max=2, candidates=[(1000.0, r) for r in wide[1:]]))
        assert len(sol.selected) <= 2


def enumeration_oracle(problem):
    """Exact solver by enumeration of every feasible selection: ascending
    size, then lexicographic candidate index, keeping the first strict
    optimum.  The per-rung terms are summed in rung order, so ties
    resolve bit for bit as they must in ``optimize_ladder_exhaustive``."""
    cands = problem.candidates
    rungs = problem.log.rungs
    if problem.k_max < len(rungs):
        raise InfeasibleK(f"k_max = {problem.k_max} cannot cover {len(rungs)} rungs")

    cols = np.stack([problem.candidate_column(c) for c in cands], axis=1)
    cand_rungs = [c[0] for c in cands]
    weights = np.array([problem.weights[b] for b in rungs])
    rung_of = {b: i for i, b in enumerate(rungs)}

    best_obj = -np.inf
    best_sel = None
    max_k = min(problem.k_max, len(cands))
    for size in range(len(rungs), max_k + 1):
        for combo in itertools.combinations(range(len(cands)), size):
            covered = {cand_rungs[i] for i in combo}
            if len(covered) != len(rungs):
                continue
            obj = 0.0
            for b in rungs:
                members = [i for i in combo if cand_rungs[i] == b]
                obj += weights[rung_of[b]] * float(np.max(cols[:, members], axis=1).sum())
            if obj > best_obj:
                best_obj = obj
                best_sel = combo
    if best_sel is None:
        raise InfeasibleK("no feasible selection covers every rung")
    return LadderSolution(tuple(cands[i] for i in best_sel), best_obj)


# 1440x900 has fewer pixels than 1280x1024 but the larger width, so
# (bitrate, (w, h)) order and candidate order disagree on the pair.
RESOLUTION_POOL = (
    (384, 216), (512, 288), (640, 360), (768, 432), (960, 540), (1024, 576), (1152, 648), (1280, 720),
    (1440, 900), (1280, 1024), (1600, 900), (1680, 1050), (1600, 1200), (1920, 1080), (2048, 1080),
    (2048, 1152), (2560, 1440), (3200, 1800), (3840, 2160), (4096, 2160),
)


def random_instance(rng, max_candidates=20):
    """A random problem of at most ``max_candidates`` candidates, with
    uneven rungs and, in most draws, planted exact or rounding ties."""
    n_rungs = int(rng.integers(1, 5))
    rungs = tuple(500.0 * (i + 1) for i in sorted(rng.choice(20, n_rungs, replace=False)))
    n_gops = int(rng.integers(1, 5))
    shape = (n_gops, n_rungs, len(RESOLUTION_POOL))
    kind = rng.integers(4)
    if kind == 0:  # integers: many exact ties
        scores = rng.integers(0, 4, shape).astype(float)
    elif kind == 1:  # sums that differ in the last bits only
        base = rng.uniform(1.0, 2.0, (n_gops, n_rungs, 1))
        scores = base + rng.integers(0, 3, shape) * np.spacing(base)
    elif kind == 2:
        scores = np.round(rng.uniform(0, 10, shape), 1)
    else:
        scores = rng.uniform(0, 10, shape)
    log = log_from_array(scores, rungs, RESOLUTION_POOL)

    sizes = rng.multinomial(int(rng.integers(n_rungs, max_candidates + 1)) - n_rungs, [1 / n_rungs] * n_rungs) + 1
    candidates = []
    for b, m in zip(rungs, np.minimum(sizes, len(RESOLUTION_POOL))):
        candidates += [(b, RESOLUTION_POOL[i]) for i in rng.choice(len(RESOLUTION_POOL), m, replace=False)]
    weights = {b: float(rng.choice([0.0, 0.1, 1 / 3, 1e3, rng.uniform(0, 1)])) for b in rungs}

    # k spans R..n+1, capped where the oracle would enumerate too much.
    n = len(candidates)
    k_hi = n_rungs
    while k_hi <= n and sum(math.comb(n, s) for s in range(n_rungs, k_hi + 2)) <= 2000:
        k_hi += 1
    k = int(rng.integers(n_rungs, k_hi + 1))
    return LadderProblem.build(log, k_max=k, weights=weights, candidates=candidates)


class TestExhaustiveAgainstEnumeration:
    def test_random_instances_bit_identical(self):
        rng = np.random.default_rng(2026)
        for trial in range(500):
            problem = random_instance(rng)
            got = optimize_ladder_exhaustive(problem)
            want = enumeration_oracle(problem)
            assert got.selected == want.selected, trial
            assert struct.pack("<d", got.objective) == struct.pack("<d", want.objective), trial

    def test_overflowing_terms(self):
        # Column sums of +-inf, and 0 * inf = NaN on zero-weight rungs: a
        # selection whose objective is NaN or -inf is never kept, and when
        # every one is, both solvers find the problem infeasible.
        rng = np.random.default_rng(11)
        outcomes = set()
        for trial in range(200):
            n_rungs, n_res = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            scores = rng.choice([-1e308, 1e308, 1.0, 2.0, -3.0], size=(2, n_rungs, n_res))
            log = log_from_array(scores, tuple(1000.0 * (i + 1) for i in range(n_rungs)), RESOLUTION_POOL[:n_res])
            weights = {b: float(rng.choice([0.0, 0.5, 1.0])) for b in log.rungs}
            problem = LadderProblem.build(log, k_max=int(rng.integers(n_rungs, n_rungs * n_res + 2)), weights=weights)
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    want = enumeration_oracle(problem)
                except InfeasibleK:
                    with pytest.raises(InfeasibleK):
                        optimize_ladder_exhaustive(problem)
                    outcomes.add("infeasible")
                    continue
                got = optimize_ladder_exhaustive(problem)
            assert got.selected == want.selected, trial
            assert struct.pack("<d", got.objective) == struct.pack("<d", want.objective), trial
            outcomes.add(want.objective if np.isinf(want.objective) else "finite")
        assert outcomes >= {"infeasible", "finite", np.inf}

    def test_tie_that_only_rounding_makes(self):
        # Rung 1000's 720p term beats 540p's by one ulp, which adding rung
        # 2000's term rounds away: both selections score 1001.0, and the
        # enumeration keeps the first, 540p.
        records = [
            ("c", 0, 1000.0, R540, 1.0),
            ("c", 0, 1000.0, R720, 1.0 + 2.0**-52),
            ("c", 0, 2000.0, R540, 1000.0),
            ("c", 0, 2000.0, R720, 0.0),
        ]
        problem = LadderProblem.build(QualityLog.from_records(records), k_max=2, weights={1000.0: 1.0, 2000.0: 1.0})
        sol = optimize_ladder_exhaustive(problem)
        assert sol == enumeration_oracle(problem)
        assert sol.selected == ((1000.0, R540), (2000.0, R540))

    def test_width_order_differs_from_candidate_order(self):
        # 1440x900 precedes 1280x1024 as a candidate (fewer pixels); with
        # equal scores the tie goes to it, not to the smaller width.
        r900, r1024 = (1440, 900), (1280, 1024)
        scores = np.full((2, 1, 3), 2.0)
        scores[:, 0, 0] = 1.0
        problem = LadderProblem.build(log_from_array(scores, (1000.0,), (R720, r900, r1024)), k_max=2)
        sol = optimize_ladder_exhaustive(problem)
        assert sol == enumeration_oracle(problem)
        assert sol.selected == ((1000.0, r900),)


class TestGreedy:
    def test_all_identical_scores_stop_after_seeding(self):
        scores = np.full((5, 2, 3), 4.0)
        log = log_from_array(scores, (1000.0, 2000.0), (R540, R720, R1080))
        problem = LadderProblem.build(log, k_max=6)
        sol = optimize_ladder_greedy(problem)
        assert len(sol.selected) == 2  # one per rung, no positive marginal gains
        assert all(c[1] == R540 for c in sol.selected)  # ties to the lower resolution

    def test_k_equals_rungs_gives_per_rung_argmax(self):
        rng = np.random.default_rng(10)
        log = random_log(rng, n_gops=12)
        problem = LadderProblem.build(log, k_max=len(log.rungs))
        sol = optimize_ladder_greedy(problem)
        assert len(sol.selected) == len(log.rungs)
        for b, res in sol.selected:
            j = log.rung_index(b)
            sums = log.scores[:, j, :].sum(axis=0)
            assert log.scores[:, j, log.res_index(res)].sum() == pytest.approx(sums.max())

    def test_trace_monotone(self):
        rng = np.random.default_rng(11)
        log = random_log(rng, n_gops=15)
        problem = LadderProblem.build(log, k_max=7)
        sol = optimize_ladder_greedy(problem)
        objectives = [s.objective for s in sol.trace]
        assert all(b >= a - 1e-12 for a, b in zip(objectives, objectives[1:]))

    def test_greedy_vs_exhaustive_bound(self):
        rng = np.random.default_rng(12)
        hits = 0
        for _ in range(30):
            log = random_log(rng, n_gops=6, rungs=(1000.0, 2000.0), resolutions=(R540, R720, R1080))
            problem = LadderProblem.build(log, k_max=int(rng.integers(2, 5)))
            greedy = optimize_ladder_greedy(problem)
            exact = optimize_ladder_exhaustive(problem)
            assert greedy.objective >= (1 - 1 / np.e) * exact.objective - 1e-9
            if abs(greedy.objective - exact.objective) <= 1e-9:
                hits += 1
        assert hits >= 20  # greedy is usually exactly optimal on small instances

    def test_infeasible_k(self):
        log = random_log(np.random.default_rng(13))
        with pytest.raises(InfeasibleK):
            optimize_ladder_greedy(LadderProblem.build(log, k_max=1))


class TestWeightsFromBandwidth:
    def test_all_above_top_rung(self):
        w = weights_from_bandwidth([9000.0, 12000.0], [1000.0, 2000.0, 4000.0])
        assert w == {1000.0: 0.0, 2000.0: 0.0, 4000.0: 1.0}

    def test_uniform_over_boundaries(self):
        w = weights_from_bandwidth([1200.0, 1700.0, 2500.0], [1000.0, 1500.0, 2000.0])
        assert w[1000.0] == pytest.approx(1 / 3)
        assert w[1500.0] == pytest.approx(1 / 3)
        assert w[2000.0] == pytest.approx(1 / 3)

    def test_below_lowest_maps_to_lowest(self):
        w = weights_from_bandwidth([100.0], [1000.0, 2000.0])
        assert w == {1000.0: 1.0, 2000.0: 0.0}

    def test_sum_to_one(self):
        rng = np.random.default_rng(14)
        w = weights_from_bandwidth(rng.uniform(200, 20000, 500), [1000.0, 3000.0, 8000.0])
        assert sum(w.values()) == pytest.approx(1.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            weights_from_bandwidth([], [1000.0])
