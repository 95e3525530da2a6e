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

from bisect import bisect_left
from collections import Counter

from .errors import PreconditionError
from .net import (
    Event,
    Labeling,
    PetriNet,
    _depth_first,
    _Table,
    _twin_classes,
    are_isomorphic,
    check_labeling,
    isolated_conditions,
)
from .polynomial import Polynomial

__all__ = ["encode", "decode", "canonical_poly", "roundtrip_check"]


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
    with pre and post the bit positions of i and j.
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

    terms = poly.sort_key()
    # one condition set per distinct exponent, shared by every event that uses it
    side = {n: conditions(n) for n in {n for grade, i, _ in terms for n in (i, grade - i)}}
    # the constant term (grade 0) gives one event fewer: its last unit is the idle event
    events = [Event(f"e{k}_({i},{grade - i})", side[i], side[grade - i])
              for grade, i, coeff in terms for k in range(1, coeff + (grade > 0))]
    return PetriNet(labeling, events), labeling


def canonical_poly(net: PetriNet) -> Polynomial:
    """Labeling-independent polynomial of a net.

    The minimum, in the total term order, of encode(net, l) over all
    labelings onto {0, ..., |conditions|-1}.  Isomorphic nets without
    isolated conditions get equal canonical polynomials.

    Found by depth-first branch and bound.  Events with equal (pre, post)
    make one term under every labeling, so the search tracks each term's
    exponents over the labeled conditions.  The free labels [lo, hi] go
    out from either end: a term's u unlabeled conditions take distinct
    labels in [lo, hi], so they add at least (2^u - 1) * 2^lo to i + j
    (u counted over pre | post) and at least (2^u_pre - 1) * 2^lo to i
    (u_pre counted over pre).  The descending list of these partial terms
    is a lower bound on the sort key of every completion, and a branch
    whose bound is not below the best key found so far is cut.  A node
    gives hi to one condition, unless a best key exists, two or more of
    these children are below it and fewer of those that give lo (bounded
    from lo + 1 up) are; so the first descent labels from the top, and a
    cycle gets its small labels next to its large ones early.  Twins (see
    ``net._twin_classes``) are interchangeable, so one of each class is tried.
    """
    groups, twins = _twin_classes(net)
    groups[frozenset(), frozenset()].append(None)  # the implicit idle event; no twin sits in it
    effects, left = list(twins), [len(members) for members in twins.values()]
    # per term: labeled part of i + j and of i, unlabeled in pre | post and in pre
    parts = [(0, 0, len(pre | post), len(pre)) for pre, post in groups]
    entries = [((1 << u) - 1, (1 << u_pre) - 1, len(ids))
               for (_, _, u, u_pre), ids in zip(parts, groups.values())]
    best = None

    def children(label, lo, parts, entries, stop=0):
        """Per twin class with a free member, sorted: (bound, class, parts,
        entries) after that member takes label and the rest take labels from
        lo; None as soon as stop (if not 0) of the bounds are below the best key."""
        bit, unit, out = 1 << label, 1 << lo, []
        for k, count in enumerate(left):
            if count:
                parts_k, entries_k = parts[:], entries[:]
                for g, p, q in effects[k]:
                    grade, i, u, u_pre = parts[g]
                    grade, i, u, u_pre = grade + (p + q) * bit, i + p * bit, u - 1, u_pre - p
                    parts_k[g] = grade, i, u, u_pre
                    entries_k[g] = (grade + (unit << u) - unit, i + (unit << u_pre) - unit,
                                    entries[g][2])
                key_k = sorted(entries_k, reverse=True)
                out.append((key_k, k, parts_k, entries_k))
                if stop and key_k < best:
                    stop -= 1
                    if not stop:
                        return None
        out.sort()  # by bound, then class: the classes differ, so parts are never compared
        return out

    def search(lo, hi, parts, entries, key):
        nonlocal best
        if lo > hi:
            best = key
            return
        branch, lo_k, hi_k = children(hi, lo, parts, entries), lo, hi - 1
        # (best,) sorts after every child whose bound is below best, before every other
        below = 0 if best is None else bisect_left(branch, (best,))
        if below >= 2:
            unit = 2 << lo
            shifted = [(grade + (unit << u) - unit, i + (unit << u_pre) - unit, c)
                       for (grade, i, u, u_pre), (_, _, c) in zip(parts, entries)]
            low = children(lo, lo + 1, parts, shifted, below)
            if low is not None:
                branch, lo_k, hi_k = low, lo + 1, hi
        for key_k, k, parts_k, entries_k in branch:
            if best is not None and key_k >= best:
                break
            left[k] -= 1
            yield search(lo_k, hi_k, parts_k, entries_k, key_k)
            left[k] += 1

    _depth_first(search(0, len(net.conditions) - 1, parts, entries, sorted(entries, reverse=True)))
    # at a leaf every u is 0, so each entry is its term, and distinct groups get distinct (i, j)
    return Polynomial._trusted({(i, grade - i): coeff for grade, i, coeff in best})


def roundtrip_check(net: PetriNet, labeling: Labeling) -> bool:
    """Does decode(encode(net, l)) reproduce the net up to isomorphism?

    Isolated conditions are ignored: encoding cannot see them, so they
    are removed from the reference before comparing.
    """
    decoded, _ = decode(encode(net, labeling))
    reference = PetriNet(net.conditions - isolated_conditions(net), net.events)
    return are_isomorphic(reference, decoded) is not None
