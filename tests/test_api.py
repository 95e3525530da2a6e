"""The package's public names: each module's ``__all__``, declared once; and
every source file, which must compile and import without a warning."""

import ast
import warnings
from pathlib import Path

import petripoly
from petripoly import codec, compose, errors, factor, net, polynomial, search

from helpers import child_interpreter


def test_package_exports_each_modules_all():
    names = ["__version__"] + [name for module in (errors, polynomial, net, compose, codec, search, factor)
                               for name in module.__all__]
    assert petripoly.__all__ == names
    assert len(set(names)) == len(names)
    for name in names:
        getattr(petripoly, name)
    namespace = {}
    exec("from petripoly import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)


def _first_statements(code):
    """What ``code`` prints as the first statements of a fresh interpreter,
    where any warning, at import or after, is an error."""
    proc = child_interpreter("-W", "error", "-c", code)
    assert proc.returncode == 0, proc.stderr.decode()
    return ast.literal_eval(proc.stdout.decode())


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


def test_reading_a_net_loads_only_errors_and_net():
    assert _first_statements(
        "import sys\nfrom petripoly.net import read_net\n"
        "print(sorted(m for m in sys.modules if m.startswith('petripoly.')))"
    ) == ["petripoly.errors", "petripoly.net"]


def test_every_source_file_compiles_with_warnings_as_errors():
    """Each file also parses with the grammar of Python 3.10, the oldest
    that ``requires-python`` admits, whatever the interpreter running it."""
    for directory in ("src", "tests", "perfbench"):
        files = sorted((Path(__file__).parent.parent / directory).rglob("*.py"))
        assert files, directory
        for path in files:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                compile(path.read_bytes(), str(path), "exec")
                ast.parse(path.read_bytes(), str(path), feature_version=(3, 10))
