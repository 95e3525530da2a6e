"""The package's public names: each module's ``__all__``, declared once."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import petripoly
from petripoly import codec, errors, factor, net, polynomial, search


def test_package_exports_each_modules_all():
    names = ["__version__"] + [name for module in (errors, polynomial, net, codec, search, factor)
                               for name in module.__all__]
    assert petripoly.__all__ == names
    assert len(set(names)) == len(names)
    for name in names:
        getattr(petripoly, name)
    namespace = {}
    exec("from petripoly import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)


def _first_statements(code):
    """What ``code`` prints as the first statements of a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(petripoly.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


def test_fresh_interpreter_sees_the_same_names():
    names = petripoly.__all__
    assert len(names) == 33
    assert _first_statements("import petripoly; print(petripoly.__all__)") == names
    star = _first_statements("exec('from petripoly import *', ns := {}); print(sorted(ns))")
    assert star == sorted({"__builtins__", *names})
    assert set(names) <= set(_first_statements("import petripoly; print(dir(petripoly))"))
    assert _first_statements("from petripoly import codec; print(repr(codec.__name__))") == "petripoly.codec"
    for name in ("no_such_name", "_private", "__wrapped__"):
        assert _first_statements(
            f"import petripoly\ntry: petripoly.{name}\nexcept AttributeError as e: print(repr(str(e)))"
        ) == f"module 'petripoly' has no attribute '{name}'"
