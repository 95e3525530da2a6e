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

from itertools import permutations

from .errors import PreconditionError
from .net import (
    Event,
    Labeling,
    PetriNet,
    are_isomorphic,
    check_labeling,
    isolated_conditions,
)
from .polynomial import Polynomial, nat_of_bits, tau_nat, tau_poly

__all__ = ["encode", "decode", "canonical_poly", "roundtrip_check"]


def encode(net: PetriNet, labeling: Labeling) -> Polynomial:
    """Polynomial of a labeled net: 1 + sum over events of x^i(e) y^j(e)."""
    check_labeling(net, labeling)
    terms = {(0, 0): 1}
    for event in net.events:
        i = nat_of_bits(labeling[b] for b in event.pre)
        j = nat_of_bits(labeling[b] for b in event.post)
        terms[(i, j)] = terms.get((i, j), 0) + 1
    return Polynomial(terms)


def decode(poly: Polynomial):
    """Net of a polynomial with positive constant term; returns (net, labeling).

    Conditions are the bit positions of the support, id "c<t>" labeled t.
    A monomial x^i y^j with coefficient a yields a events (a - 1 for the
    constant monomial, whose remaining unit is the implicit idle event)
    with pre and post the bit positions of i and j.
    """
    if poly.constant_term < 1:
        raise PreconditionError(
            "decoding needs a positive constant term (there is no idle event)"
        )
    labeling = {f"c{t}": t for t in tau_poly(poly)}
    condition_of = {t: b for b, t in labeling.items()}
    events = []
    for grade, i, coeff in poly.sort_key():
        j = grade - i
        count = coeff - 1 if (i, j) == (0, 0) else coeff
        pre = frozenset(condition_of[t] for t in tau_nat(i))
        post = frozenset(condition_of[t] for t in tau_nat(j))
        events.extend(
            Event(f"e{k}_({i},{j})", pre, post) for k in range(1, count + 1)
        )
    return PetriNet(labeling, events), labeling


def canonical_poly(net: PetriNet) -> Polynomial:
    """Labeling-independent polynomial of a net.

    The minimum, in the total term order, of encode(net, l) over all
    labelings onto {0, ..., |conditions|-1}.  Isomorphic nets without
    isolated conditions get equal canonical polynomials.  Exhaustive
    over |conditions|! labelings — meant for small nets.
    """
    conditions = sorted(net.conditions)
    candidates = (
        encode(net, dict(zip(conditions, perm)))
        for perm in permutations(range(len(conditions)))
    )
    return min(candidates, key=Polynomial.sort_key)


def roundtrip_check(net: PetriNet, labeling: Labeling) -> bool:
    """Does decode(encode(net, l)) reproduce the net up to isomorphism?

    Isolated conditions are ignored: encoding cannot see them, so they
    are removed from the reference before comparing.
    """
    decoded, _ = decode(encode(net, labeling))
    reference = PetriNet(net.conditions - isolated_conditions(net), net.events)
    return are_isomorphic(reference, decoded) is not None
