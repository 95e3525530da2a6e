"""The package's public names: each module's ``__all__``, declared once."""

import petripoly
from petripoly import codec, errors, factor, net, polynomial


def test_package_exports_each_modules_all():
    names = ["__version__"] + [name for module in (errors, polynomial, net, codec, factor)
                               for name in module.__all__]
    assert petripoly.__all__ == names
    assert len(set(names)) == len(names)
    for name in names:
        getattr(petripoly, name)
    namespace = {}
    exec("from petripoly import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)
