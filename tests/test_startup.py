"""Start-up cost: importing the package and running its commands load no scipy.

Each CLI command runs in its own process, so whatever `import bilap.cli`
loads is paid on every run. Every command runs on numpy alone; scipy is a
test-only reference. The FFT route's helper thread is a plain
threading.Thread, so no executor module is loaded either.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# small configs, one per command that must run without scipy
_SCIPY_FREE_RUNS = [
    ("resolvent-check", {"points": 1, "mu_values": [0.7], "potentials": [None]}),
    ("perturbed-decay", {"t_min": 1.0, "t_max": 2.0, "per_decade": 32, "observe_radius": 2}),
    ("free-decay", {"t_min": 1e2, "t_max": 1e3, "per_decade": 8}),
    ("strichartz", {"T_values": [10.0, 20.0]}),
    ("knapp", {}),
    ("stationary-phase", {}),
    ("eig-scan", {}),
    ("stone-vs-spectral",
     {"potentials": [None, {"delta": 0.5}], "times": [1.0], "observe_radius": 2}),
]

# Runs each (command, config) pair of argv[1] in turn and prints, after the
# import and after each command, its exit code and the scipy modules loaded.
_PROBE = """
import json, sys
from pathlib import Path
import bilap.cli as cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

out = Path(sys.argv[2])
steps = [["import", None, scipy_modules()]]
for i, (command, cfg) in enumerate(json.loads(sys.argv[1])):
    path = out / f"{i}.json"
    path.write_text(json.dumps(cfg))
    code = cli.main([command, "--config", str(path), "--out", str(out / str(i))])
    steps.append([command, code, scipy_modules()])
print(json.dumps(steps))
"""


def _probe(runs, tmp_path):
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(runs), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_and_commands_load_no_scipy(tmp_path):
    steps = _probe(_SCIPY_FREE_RUNS, tmp_path)
    assert [s[0] for s in steps] == ["import"] + [c for c, _ in _SCIPY_FREE_RUNS]
    for name, code, loaded in steps:
        assert code in (None, 0, 1), name
        assert loaded == [], f"{name} loaded {loaded[:5]}"


def test_no_source_file_imports_scipy():
    sources = sorted((SRC / "bilap").rglob("*.py"))
    assert sources
    for path in sources:
        text = path.read_text()
        assert "import scipy" not in text and "from scipy" not in text, path.name


def test_import_loads_no_executor():
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    probe = ("import sys, bilap.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('concurrent')))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"
