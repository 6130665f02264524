"""The traced benchmark wraps obslat functions and methods by name.

``perfbench/tracer.py`` looks each one up when it installs its spans, so a
rename in ``src/`` breaks every traced benchmark run.  ``instrument``
patches modules process-wide, hence the subprocess.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_finds_every_traced_name():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    code = "from tracer import Tracer, instrument; instrument(Tracer())"
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
