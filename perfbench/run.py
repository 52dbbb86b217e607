"""Seeded end-to-end and per-layer benchmark of the drskit CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload {switching,modelling}
        --seed N --seconds S --trace {0,1} [--record-reference]

The workload's inputs are generated from ``--seed`` by ``gen.py`` in a
separate process, before any timing.  The program under test is the
uninstalled tree in ``src/``, run as ``python -m drskit.cli`` with
``PYTHONPATH=src``, one child process per command, one at a time.

``--trace 0`` repeats the workload's command sequence for about
``--seconds`` seconds (at least once), with ``drskit --version``
(``setup_s``) runs between the repetitions and the fixed job of
``reference_job.py`` before every command, and reports the end-to-end
metrics named in ``BENCHMARK.json``: the median set-up time, the
workload's wall time over the reference jobs' (``wall_per_ref``, see
``end_to_end``) and the largest max-RSS of a drskit child, from
``os.wait4``.  ``--trace 1`` runs the sequence once as child processes,
then once more in-process under ``tracer.py``, and reports the per-layer
metrics: the plain pass's wall seconds (``wall_s``) and per-command wall
times, per-function calls, self time and counts, the error rate and the
tracing overhead.

Either way, ``check.py`` then checks every output (see its docstring).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (commands run), ``failed`` (failed commands
plus failed checks) and ``metrics``.  Progress and details go to
standard error.  ``--record-reference`` runs the sequence once and
stores this seed's reference values in ``reference.json``.

Exit codes: 0 when a result was printed, 1 when a child outlived the
run's time limit, 2 when the program or the benchmark's own files are
missing or cannot start.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
PY = sys.executable
MIN_PASSES = 1
MAX_PASSES = 20
# Hard limit on one benchmark run, kept below the 180 s a run may take.
RUN_LIMIT_S = 170.0


class Unavailable(Exception):
    """The program or the benchmark cannot run at all: exit 2, no result."""


class Runner:
    """Starts one child at a time and reaps it with ``os.wait4``."""

    def __init__(self, root: Path, log: Path, deadline: float):
        self.root = root
        self.log = log
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")

    def run(self, argv: list[str]) -> tuple[int, float, float]:
        """(exit code, wall seconds, max RSS in MB) of one child."""

        def expire(_signum, _frame):
            raise TimeoutError(f"{argv[:4]} still running at the run's time limit")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(max(1, int(self.deadline - time.monotonic())))
        try:
            with open(self.log, "ab") as out:
                start = time.perf_counter()
                proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=self.env, cwd=self.root)
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                except BaseException:
                    proc.kill()
                    proc.wait()
                    raise
                wall = time.perf_counter() - start
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def drskit(self, argv: list[str]) -> tuple[int, float, float]:
        return self.run([PY, "-m", "drskit.cli", *argv])

    def tail(self, n: int = 20) -> str:
        lines = self.log.read_text(encoding="utf-8", errors="replace").splitlines()
        return "\n".join(lines[-n:])


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def run_pass(runner: Runner, workload: str, inputs: Path, out: Path, stats: dict, refs=None) -> list[tuple[str, float]]:
    """One pass over the workload's commands; returns (command name, wall
    seconds) of each command, in order.  With a ``refs`` list, runs the
    reference job before each command and appends its wall there."""
    times = []
    for name, argv in spec.commands(workload, str(inputs), str(out)):
        if refs is not None:
            refs.append(reference_sample(runner))
        code, wall, rss = runner.drskit(argv)
        stats["attempted"] += 1
        stats["peak_rss_mb"] = max(stats["peak_rss_mb"], rss)
        times.append((name, wall))
        if code != 0:
            stats["failed"] += 1
            log(f"FAILED: drskit {name} exited {code}\n{runner.tail()}")
    return times


def by_command(times: list[tuple[str, float]]) -> dict[str, float]:
    """Wall seconds per command name; commands that repeat are summed."""
    out: dict[str, float] = defaultdict(float)
    for name, wall in times:
        out[name] += wall
    return dict(out)


def run_checks(runner: Runner, workload: str, seed: int, inputs: Path, passes: list[Path], record: bool) -> list[str]:
    argv = [PY, str(HERE / "check.py"), workload, str(seed), str(inputs), *map(str, passes)]
    code, _, _ = runner.run(argv + (["--record"] if record else []))
    lines = runner.tail(1)
    try:
        result = json.loads(lines)
    except ValueError:
        return [f"check.py exited {code} without a result"]
    for note in result["notes"]:
        log(f"check: {note}")
    log(f"check: {result['checks']} output checks, {len(result['failures'])} failed")
    for failure in result["failures"]:
        log(f"FAILED CHECK: {failure}")
    return result["failures"]


def reference_sample(runner: Runner) -> float:
    code, wall, _ = runner.run([PY, str(HERE / "reference_job.py")])
    if code != 0:
        raise Unavailable(f"the reference job exited {code}\n{runner.tail()}")
    return wall


def setup_sample(runner: Runner) -> float:
    code, wall, _ = runner.drskit(["--version"])
    if code != 0:
        raise Unavailable(f"drskit --version exited {code}\n{runner.tail()}")
    return wall


def end_to_end(runner, args, inputs, work, stats) -> tuple[dict, list[Path]]:
    """Repeats the workload's passes for about ``--seconds`` seconds (at
    least one), with two ``drskit --version`` at the start and one before
    each pass, and the reference job before every command.

    ``setup_s`` is the median of the ``--version`` walls.
    ``wall_per_ref`` is the summed wall of the passes' commands divided
    by the summed wall of the reference jobs between them: the workload's
    time in units of a fixed job timed at the same moments.  On a shared
    host other tenants change the speed of every process by tens of
    percent, for seconds to minutes at a time; the ratio cancels most of
    that, the seconds alone do not.  Each command's median seconds are
    logged, and the traced run reports them as per-layer metrics."""
    start = time.perf_counter()
    setup = [setup_sample(runner) for _ in range(2)]
    refs: list[float] = []
    passes: list[list[tuple[str, float]]] = []
    dirs: list[Path] = []
    while len(passes) < MAX_PASSES:
        pass_start = time.perf_counter()
        setup.append(setup_sample(runner))
        dirs.append(work / f"pass{len(passes)}")
        failed = stats["failed"]
        passes.append(run_pass(runner, args.workload, inputs, dirs[-1], stats, refs))
        if stats["failed"] > failed:
            break
        # Start another pass only if it is expected to end in time.
        now = time.perf_counter()
        if len(passes) >= MIN_PASSES and now - start + (now - pass_start) > args.seconds:
            break
    walls = [[p[i][1] for p in passes] for i in range(len(passes[0]))]
    for (name, _), samples in zip(passes[0], walls):
        log(f"{name}_s: median {statistics.median(samples):.4f} of {[round(w, 4) for w in samples]}")
    log(f"reference job: median {statistics.median(refs):.4f} of {[round(w, 4) for w in refs]}")
    log(f"setup_s samples {[round(w, 4) for w in setup]}; pass totals {[round(sum(w for _, w in p), 4) for p in passes]}")
    values = {
        "setup_s": statistics.median(setup),
        "wall_per_ref": sum(map(sum, walls)) / sum(refs),
        "peak_rss_mb": stats["peak_rss_mb"],
    }
    return values, dirs


def _self_times(spans: list) -> dict[int, float]:
    child = defaultdict(float)
    for _name, start, end, parent, _extra in spans:
        if parent >= 0:
            child[parent] += end - start
    return {i: (s[2] - s[1]) - child[i] for i, s in enumerate(spans)}


def layer_metrics(doc: dict, command_walls: dict[str, float], stats: dict) -> dict[str, float]:
    """Every per-layer value the traced pass yields, by metric name."""
    spans = doc["spans"]
    self_s = _self_times(spans)
    out: dict[str, float] = defaultdict(float)
    curves_per_command = defaultdict(set)
    for i, (name, _start, _end, parent, extra) in enumerate(spans):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += self_s[i]
        for key, value in (extra or {}).items():
            if key == "curve":
                root = i
                while spans[root][3] >= 0:
                    root = spans[root][3]
                curves_per_command[root].add(value)
            else:
                out[f"{name}.{key}"] += value
    fits = out["rdmodel.fit_logistic.calls"]
    distinct = sum(len(v) for v in curves_per_command.values())
    out["rdmodel.fit_logistic.distinct_ratio"] = distinct / fits if fits else 0.0
    out["rdmodel.least_squares.starts_per_fit"] = out["rdmodel.least_squares.calls"] / fits if fits else 0.0
    out["trace.overhead_ratio"] = doc["traced_s"] / doc["plain_s"]
    for name, wall in command_walls.items():
        out[f"{name}_s"] = wall
    out["wall_s"] = sum(command_walls.values())
    out["error_rate"] = stats["failed"] / stats["attempted"]
    return out


def traced(runner, args, inputs, work, stats) -> tuple[dict, list[Path]]:
    plain = work / "pass0"
    walls = by_command(run_pass(runner, args.workload, inputs, plain, stats))
    spans_path = work / "spans.json"
    argv = [PY, str(HERE / "tracer.py"), args.workload, str(inputs), str(work / "inproc"), str(work / "traced"), str(spans_path)]
    code, _, _ = runner.run(argv)
    if code != 0 or not spans_path.is_file():
        stats["failed"] += 1
        log(f"FAILED: tracer exited {code}\n{runner.tail()}")
        return {}, [plain]
    doc = json.loads(spans_path.read_text(encoding="utf-8"))
    stats["attempted"] += len(doc["exit_codes"])
    stats["failed"] += sum(1 for c in doc["exit_codes"] if c != 0)
    log(f"traced run: {len(doc['spans'])} spans; in-process passes {doc['plain_s']:.4f} s plain, {doc['traced_s']:.4f} s traced")
    return {"doc": doc, "walls": walls}, [plain, work / "inproc", work / "traced"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()

    root = Path.cwd()
    try:
        bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
        if not (root / "src" / "drskit" / "cli.py").is_file():
            raise Unavailable("src/drskit/cli.py not found: run from the repository root")
    except (OSError, ValueError, Unavailable) as exc:
        log(f"error: {exc}")
        return 2
    work = root / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, bench, root, work)
    except Unavailable as exc:
        log(f"error: {exc}")
        return 2
    except TimeoutError as exc:
        log(f"error: {exc}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def measure(args, bench: dict, root: Path, work: Path) -> int:
    runner = Runner(root, work / "children.log", time.monotonic() + RUN_LIMIT_S)
    inputs = work / "inputs"
    code, wall, _ = runner.run([PY, str(HERE / "gen.py"), args.workload, str(args.seed), str(inputs)])
    if code != 0:
        raise Unavailable(f"input generator exited {code}\n{runner.tail()}")
    manifest = json.loads((inputs / "manifest.json").read_text(encoding="utf-8"))
    log(f"inputs for {args.workload} seed {args.seed} generated in {wall:.2f} s:")
    for name, digest in manifest["sha256"].items():
        log(f"  sha256 {digest}  {name}")
    # Warm-up: compiles drskit's bytecode and fills the file cache.
    setup_sample(runner)

    stats = {"attempted": 0, "failed": 0, "peak_rss_mb": 0.0}
    if args.record_reference:
        run_pass(runner, args.workload, inputs, work / "pass0", stats)
        values, dirs = {}, [work / "pass0"]
    elif args.trace:
        values, dirs = traced(runner, args, inputs, work, stats)
    else:
        values, dirs = end_to_end(runner, args, inputs, work, stats)
    stats["failed"] += len(run_checks(runner, args.workload, args.seed, inputs, dirs, args.record_reference))
    log(f"error_rate {stats['failed'] / stats['attempted']:.4f} = {stats['failed']} failures / {stats['attempted']} commands")

    if args.record_reference:
        print(json.dumps({"recorded": stats["failed"] == 0, "failed": stats["failed"]}))
        return 0
    if args.trace and values:
        values = layer_metrics(values["doc"], values["walls"], stats)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] in values:
            value = values[m["name"]]
            metrics[m["name"]] = {"value": int(value) if m["unit"] == "count" else value, "unit": m["unit"]}
        elif args.trace and values:
            # A function this workload never calls.
            metrics[m["name"]] = {"value": 0 if m["unit"] == "count" else 0.0, "unit": m["unit"]}
    if len(metrics) != len(wanted):
        stats["failed"] += 1
        log("FAILED: some metrics could not be measured")
    result = {
        "correct": stats["failed"] == 0,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
