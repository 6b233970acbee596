"""Importing the CLI pulls in no heavy standard-library machinery.

Every CLI call is a fresh interpreter, so the package's import is part of
each call's time.  ``dataclasses`` alone imports ``inspect``, ``ast``,
``dis`` and ``tokenize``; the package defines its records without it.
"""

import os
import pathlib
import subprocess
import sys

import diadeform

SRC = pathlib.Path(diadeform.__file__).parent.parent
PROBE = """\
import sys
before = set(sys.modules)
import diadeform.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_cli_import_adds_neither_dataclasses_nor_inspect():
    # modules a site hook preloads are in `before`, so they do not count
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    added = set(proc.stdout.split())
    assert "diadeform.cli" in added
    assert not added & {"dataclasses", "inspect"}, sorted(added)
