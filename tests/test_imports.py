"""The package runs on the standard library alone."""

import os
import subprocess
import sys
from pathlib import Path

import chcprecond

SRC = str(Path(chcprecond.__file__).resolve().parents[1])


def test_import_loads_only_standard_library_modules():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import chcprecond\n"
        "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "print(' '.join(sorted(new - set(sys.stdlib_module_names) - {'chcprecond'})))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split() == []


def test_import_does_not_load_logging():
    # warnings belong to the run that hit them, not to a process-wide logger
    code = "import sys, chcprecond\nprint('logging' in sys.modules)\n"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
