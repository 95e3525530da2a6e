"""Prime factorization of polynomials (and nets) by support splitting.

Write F|_M for the terms of F whose exponents use only bits of the mask
M.  A nonzero polynomial F with coprime coefficients and constant term
c >= 1 splits as P * Q with disjoint binary supports exactly when
c*F == F|_B * F|_R for some bipartition (B, R) of its support.
split_once grows B from the lowest support bit.  While B falls short of
the support of the prime factor G that holds it, with H the cofactor of
G, c*F - F|_B * F|_R equals H(0) * H * E, where E is nonzero, lives on
G's bits and has no monomial inside B.  The product is carry-free, so
nothing cancels, and the differing monomials with the fewest bits are
those of E: each lies within G's bits and adds at least one bit to B.  Constant factors
escape that picture (their support is empty), so integer prime content
is pulled out separately.  Recursion over the two parts yields prime
factors; at the net level this realizes the decomposition of a net into
prime components of the synchronization product.
"""

from math import gcd, isqrt
from typing import Optional

from .codec import decode, encode
from .errors import PreconditionError
from .net import PetriNet
from .polynomial import ONE, Polynomial, nat_of_bits

__all__ = [
    "split_once",
    "decompose",
    "decompose_net",
    "is_prime_net",
]


def _smallest_prime_factor(n):
    for d in range(2, isqrt(n) + 1):
        if n % d == 0:
            return d
    return n


def _restrict(poly, mask):
    """F|_mask: the terms of ``poly`` whose exponents use only bits of ``mask``."""
    return Polynomial({(i, j): a for (i, j), a in poly.terms.items() if not (i | j) & ~mask})


def split_once(poly: Polynomial) -> Optional[tuple]:
    """One nontrivial factorization step, or None when ``poly`` is prime.

    First pulls out the smallest prime dividing all coefficients.  Then,
    with c the constant term, grows a block B from the lowest support
    bit until c*F == F|_B * F|_R, R being the rest of the support: each
    failed check ORs into B the bits of the differing monomials with the
    fewest bits, so there are at most as many checks as support bits.
    Any returned pair multiplies back exactly, has disjoint supports,
    and has positive constant terms on both sides.
    """
    if not poly or poly.constant_term < 1:
        raise PreconditionError("need a nonzero polynomial with positive constant term")
    content = gcd(*poly.terms.values())
    if content > 1:
        p = _smallest_prime_factor(content)
        quotient = Polynomial({key: a // p for key, a in poly.terms.items()})
        if quotient != ONE:  # dividing a prime constant by itself leaves the unit
            return Polynomial.constant(p), quotient
    c = poly.constant_term
    scaled = poly * Polynomial.constant(c)
    full = nat_of_bits(poly.support())
    block = full & -full
    while block != full:
        inside, outside = _restrict(poly, block), _restrict(poly, full & ~block)
        product = inside * outside
        if product == scaled:
            # poly is primitive here, so c == gcd(inside) * gcd(outside)
            # and both divisions are exact
            g = gcd(*inside.terms.values())
            return (Polynomial({key: a // g for key, a in inside.terms.items()}),
                    Polynomial({key: a * g // c for key, a in outside.terms.items()}))
        differing = [i | j for (i, j), _ in scaled.terms.items() ^ product.terms.items()]
        fewest = min(m.bit_count() for m in differing)
        for m in differing:
            if m.bit_count() == fewest:
                block |= m
    return None


def decompose(poly: Polynomial) -> list[Polynomial]:
    """Prime factors of ``poly``, sorted by the term order.

    The factors multiply back to ``poly`` exactly; each resists
    split_once.  decompose(1) is [1] by convention (the unit has no
    prime factors, but an empty product would be unhelpful output).
    """
    pending, primes = [poly], []
    while pending:
        candidate = pending.pop()
        split = split_once(candidate)
        if split is None:
            primes.append(candidate)
        else:
            pending.extend(split)
    primes.sort(key=Polynomial.sort_key)
    return primes


def decompose_net(net: PetriNet) -> list[PetriNet]:
    """Prime component nets of ``net``: encode, factor, decode each part.

    The product of the results is isomorphic to ``net`` up to isolated
    conditions (which the polynomial never sees).
    """
    labeling = {b: t for t, b in enumerate(sorted(net.conditions))}
    return [decode(factor)[0] for factor in decompose(encode(net, labeling))]


def is_prime_net(net: PetriNet) -> bool:
    """Is the net a prime (undecomposable, non-unit) component?

    Nets without events encode to the unit polynomial and do not count,
    mirroring the convention that 1 is not a prime.
    """
    return bool(net.events) and len(decompose_net(net)) == 1
