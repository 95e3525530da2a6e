"""The package's public names: each module's ``__all__``, declared once;
every source file, which must compile and import without a warning; and
README, whose declared limits are the code's and whose citations exist."""

import ast
import re
import sys
import warnings
from math import prod
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


ROOT = Path(__file__).parent.parent


def test_readme_limits_are_the_code_and_its_citations_exist():
    """Each row of README's ``## Limits`` table names one limit, and the
    first expression in backticks of its value cell (``·`` multiplies,
    ``^`` raises, blanks group digits), and the number after ``=`` where
    there is one, equal the constant the code enforces, in the functions
    the row names.  Every file, ``BENCH_*.json`` and ``test_*`` function
    that README names exists."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("\n## Limits\n", 1)[1].split("\n\n| ", 1)[1].split("\n\n", 1)[0]
    limits = {
        "search work": search._WORK,
        "rho steps": factor._RHO_STEPS,
        "Miller–Rabin": factor._MR_EXACT_BELOW,
        "decoded events": codec._EVENTS,
        "int-string limit": sys.int_info.default_max_str_digits,
        "used condition's label": (10 ** sys.int_info.default_max_str_digits).bit_length(),
    }
    found = {}
    for row in table.splitlines()[2:]:
        limit, value, where, code = row.strip("|").split(" | ")
        (name,) = [name for name in limits if name in limit]
        expression = re.search(r"`([^`]*)`", value)[1].replace(" ", "")
        found[name] = prod(int(base) ** int(power or 1)
                           for base, _, power in (term.partition("^") for term in expression.split("·")))
        if "=" in value:
            assert int(value.split("=")[1].replace(" ", "")) == found[name], row
        for function in re.findall(r"`([\w.]+)`", where):
            module, _, attr = function.rpartition(".")
            assert callable(getattr(getattr(petripoly, module) if module else petripoly, attr)), row
        assert code.strip() in ("2, 3", "3"), row
    assert found == limits

    for path in re.findall(r"`([\w.-]+/[\w/.-]+)`", readme):
        assert (ROOT / path).is_file(), path
    for name in re.findall(r"BENCH_\d+\.json", readme):
        assert (ROOT / name).is_file(), name
    defined = {match for path in [*ROOT.glob("tests/*.py"), *ROOT.glob("perfbench/*.py")]
               for match in re.findall(r"^def (test_\w+)", path.read_text(encoding="utf-8"), re.M)}
    named = re.findall(r"(?<![\w/])test_\w+(?!\w|\.py)", readme)
    assert named and set(named) <= defined, set(named) - defined
