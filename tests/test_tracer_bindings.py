"""Every function the benchmark tracer wraps still exists under its name.

perfbench/tracing.py binds cel functions by (module, attribute path); a
renamed or moved function would otherwise surface only in a traced
benchmark run. The tracer module is loaded from its file and not changed.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYERS


BINDINGS = [(module, path) for targets in _layers().values()
            for module, path in targets]


@pytest.mark.parametrize("module, path", BINDINGS,
                         ids=[f"{m}:{p}" for m, p in BINDINGS])
def test_traced_binding_resolves(module, path):
    mod = importlib.import_module(module)
    if "." in path:
        cls_name, method = path.split(".")
        assert method in vars(getattr(mod, cls_name))
    else:
        assert callable(getattr(mod, path))
