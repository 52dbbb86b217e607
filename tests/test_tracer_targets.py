"""The traced benchmark run wraps drskit functions by module and
attribute path (``perfbench/tracer.py``, ``TARGETS``).  A refactor that
moves or renames one of them breaks that run, so check here that every
target still resolves the way the tracer looks it up."""

import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_tracer(monkeypatch):
    # tracer.py imports its sibling ``spec`` module by plain name.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    had_spec = "spec" in sys.modules
    module_spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(module_spec)
    try:
        module_spec.loader.exec_module(tracer)
    finally:
        if not had_spec:
            sys.modules.pop("spec", None)
    return tracer


def test_every_target_resolves(monkeypatch):
    targets = load_tracer(monkeypatch).TARGETS
    assert targets
    for name, modname, path in targets:
        mod = importlib.import_module(modname)
        if "." in path:
            cls_name, meth = path.split(".")
            # The tracer replaces the method in the class's own namespace.
            raw = vars(getattr(mod, cls_name)).get(meth)
            assert raw is not None, f"{name}: {modname}.{path} is not defined on the class"
            assert callable(getattr(raw, "__func__", raw)), name
        else:
            assert callable(getattr(mod, path, None)), f"{name}: {modname}.{path} does not resolve"


def test_rcql_integrate_module_is_bound():
    # The tracer counts quadrature calls through rcql's module-level
    # ``integrate`` binding.
    rcql = importlib.import_module("drskit.rcql")
    assert callable(rcql.integrate.quad)

