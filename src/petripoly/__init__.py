"""Petri nets as polynomials over N[x,y].

A finite net with labeled conditions encodes to a polynomial with
natural-number coefficients; the synchronization product of nets
multiplies polynomials, attaching adds them, and factoring the
polynomial into primes decomposes the net into prime components.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULES = ("errors", "polynomial", "net", "compose", "codec", "search", "factor")


def _load():  # binds each module's __all__ here, so later lookups are plain hits
    names = ["__version__"]
    for module in [import_module(f"{__name__}.{m}") for m in _MODULES]:
        names += module.__all__
        globals().update((name, getattr(module, name)) for name in module.__all__)
    globals()["__all__"] = names
    return globals()


def __getattr__(name):  # PEP 562: `import petripoly` alone loads no submodule
    if name in (*_MODULES, "cli"):  # `from petripoly import cli` loads only what cli needs
        return import_module(f"{__name__}.{name}")
    if (name == "__all__" or not name.startswith("_")) and name in _load():
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return list(_load())
