"""The package runs on the standard library alone, and imports little of it."""

import os
import subprocess
import sys
from pathlib import Path

import chcprecond

SRC = str(Path(chcprecond.__file__).resolve().parents[1])


def _fresh_output(code: str) -> str:
    """What `code` prints in a fresh interpreter that imports from the checkout."""
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout


def test_import_loads_only_standard_library_modules():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import chcprecond\n"
        "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "print(' '.join(sorted(new - set(sys.stdlib_module_names) - {'chcprecond'})))\n"
    )
    assert _fresh_output(code).split() == []


def test_import_does_not_load_logging():
    # warnings belong to the run that hit them, not to a process-wide logger
    code = "import sys, chcprecond\nprint('logging' in sys.modules)\n"
    assert _fresh_output(code).strip() == "False"


def test_import_loads_neither_dataclasses_nor_inspect():
    # the records are named tuples and slotted classes: decorating them as
    # dataclasses took about half of a cold start, `inspect` included
    code = (
        "import sys, chcprecond\n"
        "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
    )
    assert _fresh_output(code).split() == []


def test_import_loads_neither_fractions_nor_decimal_nor_numbers():
    # the simplex tableau is all-integer, so nothing needs `fractions`, or
    # the `decimal` and `numbers` it imports
    code = (
        "import sys, chcprecond\n"
        "print(' '.join(m for m in ('fractions', 'decimal', 'numbers') if m in sys.modules))\n"
    )
    assert _fresh_output(code).split() == []
