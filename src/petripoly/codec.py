"""Translating between nets and polynomials.

``encode`` turns a labeled net into a polynomial: each event becomes a
monomial x^i y^j with i (resp. j) the sum of 2^label over its pre
(resp. post) conditions, and the implicit idle event contributes the
constant 1.  ``decode`` inverts that reading: bit positions of the
exponents become conditions, monomials become events, and one unit of
the constant term is set aside as the idle event.

Conditions occurring in no event leave no trace in the polynomial, so
the round trip is only faithful up to isolated conditions.
"""

from collections import Counter

from .errors import PreconditionError
from .net import (
    Event,
    Labeling,
    PetriNet,
    _Table,
    check_labeling,
    isolated_conditions,
)
from .polynomial import Polynomial, _past_int_limit

__all__ = ["encode", "decode", "roundtrip_check"]


def encode(net: PetriNet, labeling: Labeling) -> Polynomial:
    """Polynomial of a labeled net: 1 + sum over events of x^i(e) y^j(e).

    A condition's 2^label is made on its first use, so an unused
    condition's label is never expanded, however large it is; each
    distinct pre- or post-set is summed once."""
    check_labeling(net, labeling)

    def bit(b):
        try:
            return 1 << labeling[b]
        except (OverflowError, MemoryError):  # a shift count CPython cannot represent or allocate
            raise PreconditionError(f"label of condition {b!r} is too large to encode") from None

    bits = _Table(bit).__getitem__
    weight = _Table(lambda side: sum(map(bits, side))).__getitem__
    terms = Counter(zip(map(weight, [e.pre for e in net.events]),
                        map(weight, [e.post for e in net.events])))
    terms[(0, 0)] += 1
    return Polynomial._trusted(dict(terms))


def decode(poly: Polynomial):
    """Net of a polynomial with positive constant term; returns (net, labeling).

    Conditions are the bit positions of the support, id "c<t>" labeled t.
    A monomial x^i y^j with coefficient a yields a events (a - 1 for the
    constant monomial, whose remaining unit is the implicit idle event)
    with pre and post the bit positions of i and j, named "e<k>_(<i>,<j>)".
    An exponent too long for the int-string limit cannot be named, and
    raises :class:`PreconditionError`.
    """
    if poly.constant_term < 1:
        raise PreconditionError(
            "decoding needs a positive constant term (there is no idle event)"
        )
    labeling = {f"c{t}": t for t in poly.support()}
    condition_of = {1 << t: b for b, t in labeling.items()}

    def conditions(n):
        """The conditions at the 1-bits of the exponent n."""
        names = []
        while n:
            low = n & -n
            names.append(condition_of[low])
            n ^= low
        return frozenset(names)

    side = _Table(conditions)  # one set per distinct exponent, shared by its events
    try:
        # the constant term (grade 0) gives one event fewer: its last unit is the idle event
        events = [Event(f"e{k}{tail}", side[i], side[j])
                  for grade, i, coeff in poly.sort_key()
                  for j in (grade - i,) for tail in (f"_({i},{j})",)
                  for k in range(1, coeff + (grade > 0))]
    except ValueError:  # str() of an exponent past the int-string limit
        raise _past_int_limit() from None
    return PetriNet(labeling, events), labeling


def roundtrip_check(net: PetriNet, labeling: Labeling) -> bool:
    """Does decode(encode(net, l)) reproduce the net up to isomorphism?

    Isolated conditions are ignored: encoding cannot see them, so they
    are removed from the reference before comparing.
    """
    from .search import are_isomorphic

    decoded, _ = decode(encode(net, labeling))
    reference = PetriNet(net.conditions - isolated_conditions(net), net.events)
    return are_isomorphic(reference, decoded) is not None
