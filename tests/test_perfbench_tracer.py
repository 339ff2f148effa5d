"""The benchmark's tracer still finds every entry point it wraps.

``perfbench/child.py --trace`` patches methods and module functions of
the package by name.  A rename or deletion of any of them breaks the
traced benchmark run, so this test installs the tracer the same way: in
a fresh interpreter with ``PYTHONPATH=src``, ``child.py`` loaded by
path, ``install()`` called.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_INSTALL = """
import importlib.util
import sys

spec = importlib.util.spec_from_file_location("perfbench_child", sys.argv[1])
child = importlib.util.module_from_spec(spec)
spec.loader.exec_module(child)
import repro.cli  # what child.py imports before it installs

child.install()
print("installed")
"""


def test_tracer_installs():
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _INSTALL, str(ROOT / "perfbench" / "child.py")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["installed"]
