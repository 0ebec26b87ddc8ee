"""Every bilap name the benchmark wraps or imports exists in the package.

perfbench/tracer.py wraps bilap functions by name, so a rename would
otherwise show up only in a traced benchmark run, as a layer that reads
zero calls. The tracer imports only the standard library at module level,
so it is loaded here from its file path. perfbench/child.py imports bilap
names for its passes and its accuracy probe, where a rename would show up
only as a failed benchmark run; its imports are read with ast, without
running it.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"
CHILD = PERFBENCH / "child.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.WRAPPED


def test_every_wrapped_name_resolves():
    wrapped = _wrapped()
    assert "PacSplit.kernel_ac" in wrapped["propagator"][1]
    for layer, (module_name, names) in wrapped.items():
        module = importlib.import_module(module_name)
        for name in names:
            owner = module
            for part in name.split("."):
                assert hasattr(owner, part), f"layer {layer}: {module_name}.{name} is gone"
                owner = getattr(owner, part)
            assert callable(owner), f"layer {layer}: {module_name}.{name} is not callable"


def _child_imports():
    """(module, name) of each bilap import in child.py, name None for a plain import."""
    found = []
    for node in ast.walk(ast.parse(CHILD.read_text())):
        if isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names if alias.name.split(".")[0] == "bilap"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "bilap":
            found += [(node.module, alias.name) for alias in node.names]
    return found


def test_every_child_import_resolves():
    found = _child_imports()
    assert ("bilap.cli", None) in found and ("bilap.propagator", "free_kernel_fft") in found
    for module_name, name in found:
        module = importlib.import_module(module_name)
        if name is not None:
            assert hasattr(module, name), f"perfbench/child.py imports {module_name}.{name}, which is gone"
