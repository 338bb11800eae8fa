"""Dependency census: the runtime is the standard library.

Every process that imports ``repro`` — each live replica, the load
generator, every simulator run and figure worker — holds only what the
standard library and the package load.  numpy stays a development tool
(the reference of ``tests/sim/test_metrics.py``), never a runtime import.
"""

import ast
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_PROBE = """
import sys
import repro
import repro.bench.runner
import repro.transport.cluster
import repro.transport.live
from repro.sim.metrics import summarize_values
summarize_values([0.003, 0.001, 0.002])
print(sorted(name for name in sys.modules if name.split(".")[0] == "numpy"))
"""


def test_a_fresh_runtime_interpreter_loads_no_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert result.stdout.strip() == "[]"


def test_src_imports_only_the_standard_library_and_repro():
    allowed = set(sys.stdlib_module_names) | {"repro"}
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in allowed:
                    found.setdefault(top, str(path.relative_to(ROOT)))
    assert found == {}
