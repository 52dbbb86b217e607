"""In-process traced pass over one workload.

Usage: python3 perfbench/tracer.py WORKLOAD INPUTS_DIR PLAIN_OUT TRACED_OUT SPANS_JSON

Needs drskit importable (``PYTHONPATH=src``).  Imports ``drskit.cli``,
runs the workload's commands once through ``drskit.cli.main(argv)``
without tracing (into PLAIN_OUT), then wraps the public functions of
each drskit module at every binding in every ``drskit.*`` namespace and
runs them again (into TRACED_OUT).  Each wrapped call records a span
(name, start, end, parent, extra counts) in memory; the spans and both
passes' times are written to SPANS_JSON when the run ends.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import sys
import time
import types

import spec

# (span name, defining module, attribute path) of every traced function.
TARGETS = [
    ("cli.main", "drskit.cli", "main"),
    *[
        (f"cli.{name}", "drskit.cli", name)
        for name in (
            "cmd_extract_features",
            "cmd_fit",
            "cmd_crossover",
            "cmd_bench_rcql",
            "cmd_select_ladder",
            "cmd_simulate",
            "cmd_report",
            "cmd_train",
            "cmd_cv",
            "cmd_gfs",
        )
    ],
    ("io.load_quality_log", "drskit.io", "load_quality_log"),
    ("io.load_scored_points", "drskit.io", "load_scored_points"),
    ("io.load_feature_log", "drskit.io", "load_feature_log"),
    ("io.trace_to_dict", "drskit.io", "trace_to_dict"),
    ("io.write_json", "drskit.io", "write_json"),
    ("io.write_trace_csv", "drskit.io", "write_trace_csv"),
    ("io.write_feature_log", "drskit.io", "write_feature_log"),
    ("ladder.QualityLog.from_records", "drskit.ladder", "QualityLog.from_records"),
    ("ladder.LadderProblem.build", "drskit.ladder", "LadderProblem.build"),
    ("ladder.LadderProblem.candidate_column", "drskit.ladder", "LadderProblem.candidate_column"),
    ("ladder.optimize_ladder_greedy", "drskit.ladder", "optimize_ladder_greedy"),
    ("drs.simulate", "drskit.drs", "simulate"),
    ("drs.bd_rate", "drskit.drs", "bd_rate"),
    ("drs.gain_distribution", "drskit.drs", "gain_distribution"),
    ("rdmodel.fit_logistic", "drskit.rdmodel", "fit_logistic"),
    ("rdmodel.least_squares", "drskit.rdmodel", "least_squares"),
    ("rdmodel.find_crossover", "drskit.rdmodel", "find_crossover"),
    ("rcql.rcql_s", "drskit.rcql", "rcql_s"),
    ("rcql.build_report", "drskit.rcql", "build_report"),
    ("avc.scan_annexb", "drskit.avc.nal", "scan_annexb"),
    ("avc.parse_stream", "drskit.avc.features", "parse_stream"),
    ("avc.aggregate_gop_features", "drskit.avc.features", "aggregate_gop_features"),
    ("forest.RegressionTree.fit", "drskit.forest", "RegressionTree.fit"),
    ("forest.RegressionForest.fit", "drskit.forest", "RegressionForest.fit"),
    ("forest.RegressionForest.predict", "drskit.forest", "RegressionForest.predict"),
    ("vqm.train", "drskit.vqm", "train"),
    ("vqm.GopRecord.subset_features", "drskit.vqm", "GopRecord.subset_features"),
    ("protocol.cross_validate", "drskit.protocol", "cross_validate"),
    ("protocol.greedy_feature_selection", "drskit.protocol", "greedy_feature_selection"),
]


def _curve_key(args, kwargs) -> str:
    curve = args[0] if args else kwargs["curve"]
    return hashlib.sha256(curve.bitrates.tobytes() + curve.qualities.tobytes()).hexdigest()[:16]


def _quality_rows(result) -> int:
    import numpy as np

    return int(np.count_nonzero(~np.isnan(result.scores)))


# Counts taken from a call's arguments or result, after its span ends.
EXTRA = {
    "io.load_quality_log": lambda a, k, r: {"rows": _quality_rows(r)},
    "io.write_json": lambda a, k, r: {"bytes": os.path.getsize(a[0])},
    "rdmodel.fit_logistic": lambda a, k, r: {"curve": _curve_key(a, k)},
    "rdmodel.least_squares": lambda a, k, r: {"nfev": int(r.nfev)},
    "avc.scan_annexb": lambda a, k, r: {"bytes": len(a[0])},
    "avc.parse_stream": lambda a, k, r: {"slices": len(r)},
    "avc.aggregate_gop_features": lambda a, k, r: {"gops": len(r)},
}


class Tracer:
    """Span recorder: one list of [name, start, end, parent, extra]."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, extra = self.spans, self.stack, EXTRA.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = [name, start, end, parent, None]
            if extra is not None:
                spans[sid][4] = extra(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced


def _rebind(old, new) -> int:
    """Replace ``old`` by ``new`` in every drskit namespace; returns the
    number of bindings replaced."""
    n = 0
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "drskit" or modname.startswith("drskit.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)
                n += 1
    return n


def install(tracer: Tracer) -> None:
    for name, modname, path in TARGETS:
        mod = importlib.import_module(modname)
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(tracer.wrap(name, raw.__func__)))
            else:
                setattr(cls, meth, tracer.wrap(name, raw))
            continue
        fn = getattr(mod, path)
        if _rebind(fn, tracer.wrap(name, fn)) == 0:
            raise RuntimeError(f"no binding of {modname}.{path} found")
    # rcql integrates through the scipy.integrate module object; give it a
    # copy whose quad is traced, so only rcql's calls are counted.
    rcql = importlib.import_module("drskit.rcql")
    proxy = types.ModuleType(rcql.integrate.__name__)
    proxy.__dict__.update(vars(rcql.integrate))
    proxy.quad = tracer.wrap("rcql.quad", rcql.integrate.quad)
    rcql.integrate = proxy


def run_pass(cli, workload: str, inputs: str, out: str) -> tuple[float, list[int]]:
    """Run every command of one pass; returns (seconds, exit codes)."""
    codes = []
    total = 0.0
    for _name, argv in spec.commands(workload, inputs, out):
        start = time.perf_counter()
        codes.append(cli.main(argv))
        total += time.perf_counter() - start
    return total, codes


def main(argv: list[str]) -> int:
    if len(argv) != 5:
        sys.exit(__doc__)
    workload, inputs, plain_out, traced_out, spans_path = argv
    import drskit.cli

    plain_s, plain_codes = run_pass(drskit.cli, workload, inputs, plain_out)
    tracer = Tracer()
    install(tracer)
    traced_s, traced_codes = run_pass(drskit.cli, workload, inputs, traced_out)
    doc = {
        "plain_s": plain_s,
        "traced_s": traced_s,
        "exit_codes": plain_codes + traced_codes,
        "spans": tracer.spans,
    }
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
