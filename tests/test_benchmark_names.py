"""Every function the benchmark's tracer wraps exists in the package.

perfbench/tracer.py wraps bilap functions by name, so a rename would
otherwise show up only in a traced benchmark run, as a layer that reads
zero calls. The tracer imports only the standard library at module level,
so it is loaded here from its file path.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
