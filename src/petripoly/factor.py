"""Prime factorization of polynomials (and nets) by support splitting.

Write F|_M for the terms of F whose exponents use only bits of the mask
M.  A nonzero polynomial F with coprime coefficients and constant term
c >= 1 splits as P * Q with disjoint binary supports exactly when
c*F == F|_B * F|_R for some bipartition (B, R) of its support.  The
product is carry-free: each of its monomials comes from exactly one pair
of terms, recovered by masking with B and R.  So c*F == F|_B * F|_R
exactly when |F| == |F|_B| * |F|_R| and every term (i, j, a) of F has
c*a == F|_B(i&B, j&B) * F|_R(i&R, j&R), a test of one pass over F.
split_once grows B from the lowest support bit.  While B falls short of
the support of the prime factor G that holds it, with H the cofactor of
G, c*F - F|_B * F|_R equals H(0) * H * E, where E is nonzero, lives on
G's bits and has no monomial inside B.  Nothing cancels, and the
differing monomials with the fewest bits are those of E: each lies
within G's bits and adds at least one bit to B.  Bit counts add across
disjoint supports, so the product's monomials of k bits come from pairs
of fewer bits, and the product is built one bit count at a time, only up
to the first count at which it and c*F differ.  Constant factors
escape that picture (their support is empty), so integer prime content
is pulled out separately.  So the block stops at exactly G's support,
and splitting G off until the rest is prime yields the prime factors; at
the net level this realizes the decomposition of a net into prime
components of the synchronization product.
"""

from itertools import count, islice
from math import gcd, inf
from time import perf_counter

from .errors import PreconditionError, _counters
from .polynomial import ONE, Polynomial, nat_of_bits

__all__ = [
    "split_once",
    "decompose",
    "decompose_net",
    "is_prime_net",
]


# Miller-Rabin over these bases decides primality exactly below the bound
# (Sorenson & Webster, Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981
# Pollard-Brent rho steps per content, about 2 s; 12-digit smallest primes took up to 3.9 M.
_RHO_STEPS = 1 << 22


def _is_prime(n):
    """Primality of an n > 41 with no prime factor up to 41, by Miller-Rabin.

    At or above _MR_EXACT_BELOW a number that passes every base is only a
    probable prime, which raises PreconditionError instead of being trusted.
    """
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_EXACT_BELOW:
        raise PreconditionError(
            f"the content has a {n.bit_length()}-bit factor that cannot be proven prime"
        )
    return True


def _rho_factor(n, budget):
    """A factor 1 < d < n of the composite n by Pollard-Brent rho, and the budget left."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if budget < 2 * r:
                raise PreconditionError("content factor beyond the rho budget")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            budget -= r + min(k, r)
            r *= 2
        if g == n:  # the batch overshot: retrace it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if 1 < g < n:
            return g, budget


def _prime_factors(n):
    """The prime factors of n > 1 with multiplicity, in no particular order."""
    factors = []
    for p in _MR_BASES:
        while n % p == 0:
            factors.append(p)
            n //= p
    pending, budget = [n] if n > 1 else [], _RHO_STEPS
    while pending:
        m = pending.pop()
        if _is_prime(m):
            factors.append(m)
        else:
            d, budget = _rho_factor(m, budget)
            pending += [d, m // d]
    if (tally := _counters.get()) is not None:
        tally["rho_steps"] += _RHO_STEPS - budget
    return factors


def _check_splittable(poly):
    if not poly or poly.constant_term < 1:
        raise PreconditionError("need a nonzero polynomial with positive constant term")


def split_once(poly: Polynomial) -> tuple | None:
    """One nontrivial factorization step, or None when ``poly`` is prime.

    First pulls out the smallest prime dividing all coefficients.  Then,
    with c the constant term, grows a block B from the lowest support
    bit until c*F == F|_B * F|_R, R being the rest of the support.  Each
    check is one pass over F's terms by rising bit count, which tests
    every term against its two halves and stops after the first count
    with a mismatch; products of the halves that F lacks are enumerated
    only up to that count.  A failed check ORs into B the bits of the
    differing monomials with the fewest bits, so there are at most as
    many checks as support bits.  Any returned pair multiplies back
    exactly, has disjoint supports, and has positive constant terms on
    both sides.  Its first part is prime: the smallest prime of the
    content, else the prime factor that holds the lowest support bit.
    """
    _check_splittable(poly)
    content = gcd(*poly.terms.values())
    if content > 1:
        p = min(_prime_factors(content))
        quotient = Polynomial._trusted({key: a // p for key, a in poly.terms.items()})
        if quotient != ONE:  # dividing a prime constant by itself leaves the unit
            return Polynomial.constant(p), quotient
    c, terms = poly.constant_term, poly.terms
    ranked = sorted(((i | j).bit_count(), i, j, a) for (i, j), a in terms.items())
    full, tally = nat_of_bits(poly.support()), _counters.get()
    block = full & -full
    while block != full:
        if tally is not None:
            tally["block_checks"] += 1
        rest = full & ~block
        # F|_B and F|_R by rising bit count, the constant first; a term on
        # both sides has its two halves at lower counts, so they are in place
        inside, outside, fewest, grow = {}, {(0, 0): c}, inf, 0
        for k, i, j, a in ranked:
            if k > fewest:
                break
            if not (i | j) & rest:
                inside[i, j] = a
            elif not (i | j) & block:
                outside[i, j] = a
            elif c * a != inside.get((i & block, j & block), 0) * outside.get((i & rest, j & rest), 0):
                fewest = k
                grow |= i | j
        if not grow and len(terms) == len(inside) * len(outside):
            # poly is primitive here, so c == gcd(inside) * gcd(outside)
            # and both divisions are exact
            g = gcd(*inside.values())
            return (Polynomial._trusted({key: a // g for key, a in inside.items()}),
                    Polynomial._trusted({key: a * g // c for key, a in outside.items()}))
        # products of non-constant halves that F lacks, at no more bits than
        # the mismatch found; each half adds at least one bit
        for ip, jp in islice(inside, 1, None):
            kp = (ip | jp).bit_count()
            if kp >= fewest:
                break
            for iq, jq in islice(outside, 1, None):
                k = kp + (iq | jq).bit_count()
                if k > fewest:
                    break
                if (ip + iq, jp + jq) not in terms:
                    if k < fewest:
                        fewest, grow = k, 0
                    grow |= ip | jp | iq | jq
        block |= grow
    return None


def decompose(poly: Polynomial) -> list[Polynomial]:
    """Prime factors of ``poly``, sorted by the term order.

    The factors multiply back to ``poly`` exactly; each resists
    split_once.  decompose(1) is [1] by convention (the unit has no
    prime factors, but an empty product would be unhelpful output).
    The integer content is factored once, up front; the primitive part
    that remains stays primitive through every split (Gauss's lemma),
    so split_once never meets a content again.  Each split's first part
    is prime, so only the rest is split again, until it is prime itself.
    """
    _check_splittable(poly)
    tally, start = _counters.get(), perf_counter()
    try:
        content = gcd(*poly.terms.values())
        primes = [Polynomial.constant(p) for p in _prime_factors(content)] if content > 1 else []
        rest = Polynomial._trusted({key: a // content for key, a in poly.terms.items()})
        if rest != ONE or not primes:
            while (split := split_once(rest)) is not None:
                prime, rest = split
                primes.append(prime)
            primes.append(rest)
    finally:
        if tally is not None:
            tally.update({"seconds.decompose": perf_counter() - start,
                          "inputs.terms": len(poly.terms)})
    primes.sort(key=Polynomial.sort_key)
    return primes


def decompose_net(net: "PetriNet") -> list["PetriNet"]:
    """Prime component nets of ``net``: encode, factor, decode each part.

    The product of the results is isomorphic to ``net`` up to isolated
    conditions (which the polynomial never sees).
    """
    from .codec import decode, encode  # here, so decompose alone never loads net.py
    labeling = {b: t for t, b in enumerate(sorted(net.conditions))}
    return [decode(factor)[0] for factor in decompose(encode(net, labeling))]


def is_prime_net(net: "PetriNet") -> bool:
    """Is the net a prime (undecomposable, non-unit) component?

    Nets without events encode to the unit polynomial and do not count,
    mirroring the convention that 1 is not a prime.
    """
    return bool(net.events) and len(decompose_net(net)) == 1
