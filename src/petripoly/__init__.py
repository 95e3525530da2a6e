"""Petri nets as polynomials over N[x,y].

A finite net with labeled conditions encodes to a polynomial with
natural-number coefficients; the synchronization product of nets
multiplies polynomials, attaching adds them, and factoring the
polynomial into primes decomposes the net into prime components.
"""

__version__ = "0.1.0"

from .errors import NetStructureError, ParseError, PetripolyError, PreconditionError
from .polynomial import (
    ONE,
    ZERO,
    Polynomial,
    compare,
    disjoint_support,
    nat_of_bits,
    parse_poly,
    print_poly,
    tau_nat,
    tau_poly,
)
from .net import (
    Event,
    PetriNet,
    are_isomorphic,
    attach,
    check_labeling,
    isolated_conditions,
    product,
    read_net,
    to_dot,
    validate,
    write_net,
)
from .codec import canonical_poly, decode, encode, roundtrip_check
from .factor import decompose, decompose_net, is_prime_net, split_once

__all__ = [
    "__version__",
    "PetripolyError", "ParseError", "NetStructureError", "PreconditionError",
    "Polynomial", "ZERO", "ONE",
    "tau_nat", "nat_of_bits", "tau_poly", "disjoint_support",
    "compare", "parse_poly", "print_poly",
    "Event", "PetriNet", "validate", "check_labeling", "isolated_conditions",
    "product", "attach", "are_isomorphic", "to_dot",
    "write_net", "read_net",
    "encode", "decode", "canonical_poly", "roundtrip_check",
    "split_once", "decompose", "decompose_net", "is_prime_net",
]
