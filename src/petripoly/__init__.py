"""Petri nets as polynomials over N[x,y].

A finite net with labeled conditions encodes to a polynomial with
natural-number coefficients; the synchronization product of nets
multiplies polynomials, attaching adds them, and factoring the
polynomial into primes decomposes the net into prime components.
"""

__version__ = "0.1.0"

# each `from .x import *` also binds the submodule x, whose __all__ it follows
from .errors import *
from .polynomial import *
from .net import *
from .codec import *
from .factor import *

__all__ = ["__version__", *errors.__all__, *polynomial.__all__, *net.__all__,
           *codec.__all__, *factor.__all__]
