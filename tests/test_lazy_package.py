"""Importing one layer must not import the layers above it.

``repro/__init__.py`` imports its subpackages on first attribute access
(PEP 562), so a program that only needs the dataflow engine does not
pay for the serving gateway, the cloud and SQL layers, chaos, or
streaming.  ``repro.dataflow`` does the same for its process-pool
backend, so a process without a pool loads neither ``mp`` nor
``multiprocessing``.  Checked in a fresh interpreter, since this test
process has long since imported everything.
"""

import os
import subprocess
import sys

import repro

UPPER = ["repro.serve", "repro.cloud", "repro.sql", "repro.chaos",
         "repro.streaming"]
POOL = ["repro.dataflow.mp", "multiprocessing"]


def _fresh(code: str) -> str:
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_dataflow_import_leaves_upper_layers_unloaded():
    out = _fresh(f"import sys, repro.dataflow\n"
                 f"print(sorted(m for m in {UPPER!r} if m in sys.modules))")
    assert out.strip() == "[]"


def test_subpackage_attribute_imports_on_first_use():
    out = _fresh("import sys, repro\n"
                 "print('repro.sql' in sys.modules, repro.sql.__name__,\n"
                 "      'repro.sql' in sys.modules)")
    assert out.split() == ["False", "repro.sql", "True"]


def test_dataflow_import_leaves_the_pool_unloaded():
    out = _fresh(f"import sys, repro.dataflow\n"
                 f"print(sorted(m for m in {POOL!r} if m in sys.modules))\n"
                 f"print(repro.dataflow.ProcessPoolBackend.__module__,\n"
                 f"      sorted(m for m in {POOL!r} if m in sys.modules))")
    assert out.split("\n")[:2] == [
        "[]", "repro.dataflow.mp ['multiprocessing', 'repro.dataflow.mp']"]
