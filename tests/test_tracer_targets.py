"""The benchmark's tracer wraps public functions by name; each must still exist.

``install`` patches corefkit's modules, so it runs in a child process and the
test process keeps the unwrapped functions.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing
print(json.dumps(tracing.install().missing))
"""


def test_every_traced_function_exists():
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "bench"), str(ROOT / "src")],
        capture_output=True, text=True, check=True,
    )
    assert json.loads(out.stdout) == []
