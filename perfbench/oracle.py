"""Reference arithmetic for checking petripoly's outputs.

Polynomials here are plain dicts ``{(i, j): coefficient}`` and nets are
lists of ``(pre, post)`` pairs of condition ids.  Nothing in this module
imports petripoly, so a check built on it never uses the code under test
as its own oracle.
"""

from itertools import permutations


def encode(events, labeling):
    """1 + the sum over events of x^i y^j, i and j summing 2^label over pre and post."""
    terms = {(0, 0): 1}
    for pre, post in events:
        key = (sum(1 << labeling[b] for b in pre), sum(1 << labeling[b] for b in post))
        terms[key] = terms.get(key, 0) + 1
    return terms


def add(p, q):
    out = dict(p)
    for key, a in q.items():
        out[key] = out.get(key, 0) + a
    return out


def mul(p, q):
    out = {}
    for (i1, j1), a1 in p.items():
        for (i2, j2), a2 in q.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + a1 * a2
    return out


def support(p):
    """Bit positions set in any exponent."""
    mask = 0
    for i, j in p:
        mask |= i | j
    return {t for t in range(mask.bit_length()) if mask >> t & 1}


def order_key(p):
    """The library's documented total order: terms in descending graded-lex
    order as (i + j, i, coefficient) triples, compared as tuples."""
    return tuple(sorted(((i + j, i, a) for (i, j), a in p.items()), reverse=True))


def text(p):
    """The documented canonical print form, e.g. ``3*x^2*y + x + 1``."""
    parts = []
    for grade, i, a in order_key(p):
        j = grade - i
        factors = [v if e == 1 else f"{v}^{e}" for v, e in (("x", i), ("y", j)) if e]
        if a != 1 or not factors:
            factors.insert(0, str(a))
        parts.append("*".join(factors))
    return " + ".join(parts) if parts else "0"


def is_prime(p):
    """No split into two non-unit factors with disjoint supports.

    Exhaustive over the bipartitions of the support.  With constant term
    1, a split P * Q over the sides (S, T) forces P to be p restricted to
    monomials inside S and Q likewise inside T, so each bipartition needs
    one product to decide it.
    """
    if p.get((0, 0)) != 1:
        raise ValueError("is_prime expects constant term 1")
    bits = sorted(support(p))
    if not bits:
        return False
    lowest, rest = bits[0], bits[1:]
    full = sum(1 << t for t in bits)
    for choice in range(1 << len(rest)):
        left = (1 << lowest) | sum(1 << t for k, t in enumerate(rest) if choice >> k & 1)
        right = full & ~left
        if not right:
            continue
        if mul(_inside(p, left), _inside(p, right)) == p:
            return False
    return True


def _inside(p, mask):
    """The terms of p whose exponents use only bits of ``mask``."""
    return {k: a for k, a in p.items() if not (k[0] | k[1]) & ~mask}


def canonical(events, conditions):
    """Minimum of ``encode`` over all labelings onto 0..n-1, by brute force."""
    conditions = sorted(conditions)
    return min(
        (encode(events, dict(zip(conditions, perm)))
         for perm in permutations(range(len(conditions)))),
        key=order_key,
    )


def is_witness(net1, net2, beta, eta):
    """Do the condition map ``beta`` and event map ``eta`` carry net1 onto net2?

    Nets are ``(conditions, {event id: (pre, post)})`` pairs.
    """
    (conds1, events1), (conds2, events2) = net1, net2
    if set(beta) != set(conds1) or sorted(beta.values()) != sorted(conds2):
        return False
    if set(eta) != set(events1) or sorted(eta.values()) != sorted(events2):
        return False
    for e, (pre, post) in events1.items():
        pre2, post2 = events2[eta[e]]
        if {beta[b] for b in pre} != set(pre2) or {beta[b] for b in post} != set(post2):
            return False
    return True
