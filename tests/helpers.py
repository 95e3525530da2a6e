"""Shared generators, independent oracles, a search-node counter, a
child interpreter and the int-limit skip marker.

The oracles deliberately use different algorithms than the library so
that agreement actually means something: isomorphism by exhaustive
search over all condition bijections, the canonical polynomial as the
least encoding over all labelings, the product net by a nested loop over
event pairs, the attached net by one condition map per side,
decomposability by a sweep over every support bipartition that looks for
a complete rank-1 grid of coefficients, one factorization step by
multiplying out the whole product at every block check, polynomial text
by one regular expression per whole term rather than by splitting on
separators, a net's JSON text as the document of dicts and lists
that ``json.loads`` must give back, the encoding by one sum per event
over its own conditions, and Winskel's morphisms by trying every partial
map of conditions.
"""

import os
import re
import subprocess
import sys
from collections import Counter, defaultdict
from itertools import combinations, permutations, product as tuples
from math import gcd
from pathlib import Path

import pytest

import petripoly
from petripoly import (
    ONE,
    Event,
    PetriNet,
    Polynomial,
    are_isomorphic,
    encode,
    nat_of_bits,
    product,
    search,
)


# --------------------------------------------------------------- oracles

def iso_oracle(n1, n2):
    """Isomorphic? — decided by trying every condition bijection."""
    if len(n1.conditions) != len(n2.conditions) or len(n1.events) != len(n2.events):
        return False
    conds1 = sorted(n1.conditions)
    target = Counter((e.pre, e.post) for e in n2.events)
    for perm in permutations(sorted(n2.conditions)):
        beta = dict(zip(conds1, perm))
        image = Counter(
            (frozenset(beta[b] for b in e.pre), frozenset(beta[b] for b in e.post))
            for e in n1.events
        )
        if image == target:
            return True
    return False


def canonical_oracle(net):
    """canonical_poly by brute force: the least encoding over all n! labelings."""
    conditions = sorted(net.conditions)
    return min(
        (encode(net, dict(zip(conditions, perm)))
         for perm in permutations(range(len(conditions)))),
        key=Polynomial.sort_key,
    )


_ORACLE_POWER = r"\s*[xy](?:\s*\^\s*[0-9]+)?\s*"
_ORACLE_POWERS = rf"{_ORACLE_POWER}(?:\*{_ORACLE_POWER})*"
_ORACLE_TERM = re.compile(
    rf"(?:\s*([0-9]+)\s*(?:\*({_ORACLE_POWERS}))?|({_ORACLE_POWERS}))(\+|\Z)"
)


def parse_oracle(text):
    """Terms of polynomial text as a dict, or None outside the grammar.

    Matches one whole term (coefficient, then '*'-joined powers, then '+'
    or end of text) at a time from the start, and reads the powers of a
    term with findall.
    """
    terms = {}
    pos = 0
    while True:
        m = _ORACLE_TERM.match(text, pos)
        if m is None:
            return None
        coeff, after_coeff, alone, sep = m.groups()
        i = j = 0
        powers = after_coeff or alone or ""
        for var, exponent in re.findall(r"([xy])(?:\s*\^\s*([0-9]+))?", powers):
            if var == "x":
                i += int(exponent or 1)
            else:
                j += int(exponent or 1)
        a = int(coeff) if coeff else 1
        if a:
            terms[(i, j)] = terms.get((i, j), 0) + a
        if not sep:
            return terms
        pos = m.end()


def product_oracle(n1, n2):
    """product by the nested loop over (e1, e2) with None for idling, the
    tagged sets rebuilt for every pair, and later duplicate ids renamed
    with '#2', '#3', ... suffixes."""
    conditions = [f"L:{b}" for b in n1.conditions] + [f"R:{b}" for b in n2.conditions]
    events, used = [], set()
    for e1 in list(n1.events) + [None]:
        for e2 in [None] + list(n2.events):
            if e1 is None and e2 is None:
                continue
            candidate = f"({e1.id if e1 else '*'},{e2.id if e2 else '*'})"
            name, k = candidate, 2
            while name in used:
                name, k = f"{candidate}#{k}", k + 1
            used.add(name)
            pre = {f"L:{b}" for b in e1.pre} if e1 else set()
            post = {f"L:{b}" for b in e1.post} if e1 else set()
            if e2:
                pre |= {f"R:{b}" for b in e2.pre}
                post |= {f"R:{b}" for b in e2.post}
            events.append(Event(name, pre, post))
    return PetriNet(conditions, events)


def winskel_morphisms(n0, n1):
    """Every Winskel morphism (eta, beta) from n0 to n1, for nets without
    markings: eta maps each event id of n0 to an event id of n1, or to None
    for the idle event, and beta, the partial map beta^op, maps some
    conditions of n1 to conditions of n0, such that beta.pre(e) =
    pre(eta(e)) and beta.post(e) = post(eta(e)), where beta.A is the set of
    n1's conditions that beta maps into A and the idle event has empty sets.
    Enumerates beta first; each event's images then follow independently."""
    targets = sorted(n1.conditions)
    by_sets = defaultdict(list)
    for f in n1.events:
        by_sets[f.pre, f.post].append(f.id)
    idle = (frozenset(), frozenset())
    found = []
    for sources in tuples([None, *sorted(n0.conditions)], repeat=len(targets)):
        beta = {b1: b0 for b1, b0 in zip(targets, sources) if b0 is not None}
        choices = []
        for e in n0.events:
            sets = tuple(frozenset(b1 for b1, b0 in beta.items() if b0 in side)
                         for side in (e.pre, e.post))
            choices.append(by_sets.get(sets, []) + [None] * (sets == idle))
        found += [(dict(zip([e.id for e in n0.events], eta)), beta) for eta in tuples(*choices)]
    return found


def encode_oracle(net, labeling):
    """encode by a sum of 2^label over each event's own pre- and post-set,
    with no table shared between events: a term's dict of (i, j) -> count."""
    terms = Counter((sum(1 << labeling[b] for b in e.pre), sum(1 << labeling[b] for b in e.post))
                    for e in net.events)
    terms[(0, 0)] += 1
    return dict(terms)


def attach_oracle(n1, l1, n2, l2):
    """attach by two maps, the first net's condition of each label and each
    second-net condition's id in the result, with a second labeling build;
    fresh condition ids and all event ids are made unique by '#2', '#3',
    ... suffixes against the ids before them."""
    def suffixed(names):
        out, used = [], set()
        for candidate in names:
            name, k = candidate, 2
            while name in used:
                name, k = f"{candidate}#{k}", k + 1
            used.add(name)
            out.append(name)
        return out

    left_by_label = {label: b for b, label in l1.items()}
    right_map = {b: left_by_label[l2[b]] for b in n2.conditions if l2[b] in left_by_label}
    fresh = [b for b in sorted(n2.conditions) if b not in right_map]
    right_map.update(zip(fresh, suffixed(sorted(n1.conditions) + fresh)[len(n1.conditions):]))
    event_ids = iter(suffixed([e.id for e in n1.events] + [e.id for e in n2.events] + ["star"]))
    events = [Event(next(event_ids), e.pre, e.post) for e in n1.events]
    events += [Event(next(event_ids), {right_map[b] for b in e.pre},
                     {right_map[b] for b in e.post}) for e in n2.events]
    events.append(Event(next(event_ids)))
    labeling = dict(l1)
    labeling.update({right_map[b]: label for b, label in l2.items()})
    return PetriNet(set(n1.conditions) | set(right_map.values()), events), labeling


def net_document(net, labeling=None):
    """write_net's document as plain dicts and lists, for comparing with
    json.loads of its text: conditions sorted by id, with labels when a
    labeling is given, and events in net order with sorted pre and post."""
    conditions = []
    for b in sorted(net.conditions):
        entry = {"id": b}
        if labeling is not None:
            entry["label"] = labeling[b]
        conditions.append(entry)
    events = [
        {"id": e.id, "pre": sorted(e.pre), "post": sorted(e.post)} for e in net.events
    ]
    return {"conditions": conditions, "events": events}


def factor_oracle(n):
    """Prime factors of n > 1 in ascending order, by trial division."""
    factors, d = [], 2
    while d * d <= n:
        while n % d == 0:
            factors.append(d)
            n //= d
        d += 1
    return factors + [n] if n > 1 else factors


def naive_divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def rank1_oracle(cells):
    """Positive row/col weights for a {(r, c): value} grid, or None.

    Enumerates the first row weight over divisors of the first row's gcd.
    """
    nrows = 1 + max(r for r, _ in cells)
    ncols = 1 + max(c for _, c in cells)
    if len(cells) != nrows * ncols or any(v < 1 for v in cells.values()):
        return None
    row0 = [cells[(0, c)] for c in range(ncols)]
    for b0 in naive_divisors(gcd(*row0)):
        cvec = [v // b0 for v in row0]
        if any(cells[(r, 0)] % cvec[0] for r in range(nrows)):
            continue
        bvec = [cells[(r, 0)] // cvec[0] for r in range(nrows)]
        if all(bvec[r] * cvec[c] == cells[(r, c)]
               for r in range(nrows) for c in range(ncols)):
            return bvec, cvec
    return None


def splits_oracle(poly):
    """Does the polynomial factor nontrivially?  Exhaustive re-derivation."""
    coeffs = list(poly.terms.values())
    content = gcd(*coeffs)
    if content > 1:
        if len(poly.terms) > 1:
            return True
        return any(content % d == 0 for d in range(2, content))  # composite constant
    support = sorted(poly.support())
    for size in range(1, len(support)):
        for sub in combinations(support[1:], size - 1):
            s1 = {support[0], *sub}
            m1 = nat_of_bits(s1)
            m2 = nat_of_bits(set(support) - s1)
            left = sorted({(i & m1, j & m1) for (i, j) in poly.terms})
            right = sorted({(i & m2, j & m2) for (i, j) in poly.terms})
            cells = {
                (left.index((i & m1, j & m1)), right.index((i & m2, j & m2))): a
                for (i, j), a in poly.terms.items()
            }
            if len(cells) == len(left) * len(right) and rank1_oracle(cells):
                return True
    return False


def split_once_oracle(poly):
    """split_once by building the whole product F|B * F|R at every check
    and comparing it with c*F term by term; the block grows by the same
    rule.  Content primes come from trial division."""
    content = gcd(*poly.terms.values())
    if content > 1:
        p = factor_oracle(content)[0]
        quotient = Polynomial({key: a // p for key, a in poly.terms.items()})
        if quotient != ONE:
            return Polynomial.constant(p), quotient
    c = poly.constant_term
    scaled = poly * Polynomial.constant(c)
    full = nat_of_bits(poly.support())
    block = full & -full
    while block != full:
        inside, outside = (Polynomial({(i, j): a for (i, j), a in poly.terms.items()
                                       if not (i | j) & ~mask})
                           for mask in (block, full & ~block))
        product = inside * outside
        if product == scaled:
            g = gcd(*inside.terms.values())
            return (Polynomial({key: a // g for key, a in inside.terms.items()}),
                    Polynomial({key: a * g // c for key, a in outside.terms.items()}))
        differing = [i | j for (i, j), _ in scaled.terms.items() ^ product.terms.items()]
        fewest = min(m.bit_count() for m in differing)
        for m in differing:
            if m.bit_count() == fewest:
                block |= m
    return None


def is_valid_witness(n1, n2, beta, eta):
    """Check that (beta, eta) really is an isomorphism between the nets."""
    if sorted(beta) != sorted(n1.conditions) or sorted(beta.values()) != sorted(n2.conditions):
        return False
    events2 = {e.id: e for e in n2.events}
    if sorted(eta) != sorted(e.id for e in n1.events) or sorted(eta.values()) != sorted(events2):
        return False
    for e1 in n1.events:
        e2 = events2[eta[e1.id]]
        if {beta[b] for b in e1.pre} != set(e2.pre):
            return False
        if {beta[b] for b in e1.post} != set(e2.post):
            return False
    return True


def match_up_to_iso(nets1, nets2):
    """Multiset equality of two net lists modulo isomorphism."""
    if len(nets1) != len(nets2):
        return False
    remaining = list(nets2)
    for a in nets1:
        for k, b in enumerate(remaining):
            if are_isomorphic(a, b) is not None:
                del remaining[k]
                break
        else:
            return False
    return True


# ------------------------------------------------------------ generators

def random_net(rng, max_conditions=5, max_events=6, keep_isolated=False):
    """A random net; unless asked otherwise, unused conditions are dropped."""
    conditions = [f"b{k}" for k in range(rng.randint(0, max_conditions))]
    events = []
    for k in range(rng.randint(0, max_events)):
        pre = [b for b in conditions if rng.random() < 0.4]
        post = [b for b in conditions if rng.random() < 0.4]
        events.append(Event(f"e{k}", pre, post))
    if keep_isolated:
        return PetriNet(conditions, events)
    used = set()
    for event in events:
        used |= event.pre | event.post
    return PetriNet(used, events)


def folded_product(rng, k):
    """The product of k random nets on at most 2 conditions and 4 events,
    folded from the left, so that many events share their sets."""
    net = random_net(rng, max_conditions=2, max_events=4, keep_isolated=True)
    for _ in range(k - 1):
        net = product(net, random_net(rng, max_conditions=2, max_events=4, keep_isolated=True))
    return net


def sparse_net(rng, n, m):
    """n >= 1 conditions, all used, and m >= 1 events with 1-2 pre and 1-2
    post conditions; a condition no event drew joins a random event's post-set."""
    conditions = [f"b{k}" for k in range(n)]
    sides = [tuple(rng.sample(conditions, rng.randint(1, min(2, n))) for _ in range(2))
             for _ in range(m)]
    used = {b for pre, post in sides for b in pre + post}
    for b in conditions:
        if b not in used:
            rng.choice(sides)[1].append(b)
    return PetriNet(conditions, [Event(f"e{k}", pre, post) for k, (pre, post) in enumerate(sides)])


def twin_block_net(rng, max_conditions=7, max_events=6):
    """A random net on 1-4 blocks of 1-3 conditions, at most max_conditions
    in all.  Each event takes a block whole or not at all into its pre-set
    and into its post-set, so a block's conditions are twins."""
    blocks, n = [], 0
    for size in [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]:
        if n + size <= max_conditions:
            blocks.append([f"t{k}" for k in range(n, n + size)])
            n += size
    events = []
    for k in range(rng.randint(0, max_events)):
        pre = [b for block in blocks if rng.random() < 0.35 for b in block]
        post = [b for block in blocks if rng.random() < 0.35 for b in block]
        events.append(Event(f"e{k}", pre, post))
    return PetriNet([b for block in blocks for b in block], events)


def random_labeling(rng, net, offset=0):
    """A random injective labeling with values from a smallish pool."""
    ids = sorted(net.conditions)
    pool = range(offset, offset + 2 * len(ids) + 1)
    return dict(zip(ids, rng.sample(pool, len(ids))))


def disjoint_labelings(rng, n1, n2):
    l1 = random_labeling(rng, n1)
    l2 = random_labeling(rng, n2, offset=max(l1.values(), default=-1) + 1)
    return l1, l2


def product_labeling(l1, l2):
    """Labeling of a product net from labelings of the two sides."""
    combined = {f"L:{b}": t for b, t in l1.items()}
    combined.update({f"R:{b}": t for b, t in l2.items()})
    return combined


def random_poly_terms(rng, max_support=6, max_terms=5, max_coeff=9):
    """Terms of a random polynomial with positive constant term and
    support inside {0, ..., max_support-1}."""
    mask = nat_of_bits(rng.sample(range(max_support), rng.randint(0, max_support)))
    terms = {(0, 0): rng.randint(1, max_coeff)}
    for _ in range(rng.randint(0, max_terms)):
        i = mask & rng.getrandbits(max_support)
        j = mask & rng.getrandbits(max_support)
        terms[(i, j)] = rng.randint(1, max_coeff)
    return terms


def random_product(rng, max_support=8):
    """A product of 2-3 random polynomials on disjoint random sets of bit
    positions inside {0, ..., max_support-1}, so that it usually splits."""
    bits = rng.sample(range(max_support), max_support)
    cuts = sorted(rng.sample(range(1, max_support), rng.randint(1, 2)))
    out = ONE
    for lo, hi in zip([0, *cuts], [*cuts, max_support]):
        mask = nat_of_bits(bits[lo:hi])
        terms = random_poly_terms(rng, max_support)
        out = out * Polynomial(((i & mask, j & mask), a) for (i, j), a in terms.items())
    return out


def cycle_net(n, prefix):
    """Conditions <prefix>0 .. <prefix>n-1, each event moving one to the next."""
    ids = [f"{prefix}{k}" for k in range(n)]
    return PetriNet(ids, [Event(f"{prefix}e{k}", {ids[k]}, {ids[(k + 1) % n]})
                          for k in range(n)])


def map_net(images, prefix="b"):
    """The net of a map k -> images[k]: one event per condition, moving it to
    its image, so each component is one cycle with trees hanging into it."""
    ids = [f"{prefix}{k}" for k in range(len(images))]
    return PetriNet(ids, [Event(f"{prefix}e{k}", {ids[k]}, {ids[t]})
                          for k, t in enumerate(images)])


def union(*nets):
    """Disjoint union of nets with distinct condition and event ids."""
    return PetriNet(
        frozenset().union(*(net.conditions for net in nets)),
        [event for net in nets for event in net.events],
    )


def relabeled_copy(rng, net):
    """An isomorphic copy: conditions permuted at random, events shuffled."""
    ids = sorted(net.conditions)
    shuffled = rng.sample(ids, len(ids))
    copy = rename_conditions(net, dict(zip(ids, shuffled)))
    return PetriNet(copy.conditions, rng.sample(copy.events, len(copy.events)))


def rename_conditions(net, mapping):
    """Apply a condition-id bijection to a net."""
    return PetriNet(
        [mapping[b] for b in net.conditions],
        [Event(e.id, {mapping[b] for b in e.pre}, {mapping[b] for b in e.post})
         for e in net.events],
    )


# ------------------------------------------------------------ search nodes

def search_nodes(fn, *args):
    """``fn(*args)`` and the steps it pushed onto the stack of
    ``search._depth_first``, the root not counted, as a Counter by the
    name of the step's generator: ``search`` for ``canonical_poly``'s
    labeling steps, ``extend`` for the class matcher's.  For the call,
    ``_depth_first`` is patched to run each step through a wrapper that
    counts its child steps and wraps them in turn."""
    pushed = Counter()

    def counted(step):
        for child in step:
            if child is not True:
                pushed[child.__name__] += 1
                child = counted(child)
            yield child

    depth_first = search._depth_first
    search._depth_first = lambda root: depth_first(counted(root))
    try:
        return fn(*args), pushed
    finally:
        search._depth_first = depth_first


# ------------------------------------------------------- int-string limit

INT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0 where the interpreter has none
needs_int_limit = pytest.mark.skipif(INT_LIMIT == 0, reason="the interpreter has no int-string limit")


# ---------------------------------------------------- child interpreters

# -B so that no bytecode lands in src/, -S so that no site hook (some
# import typing) loads modules the package did not ask for.
SRC = str(Path(petripoly.__file__).parent.parent)


def child_interpreter(*args, stdout=subprocess.PIPE, stderr=subprocess.PIPE):
    """``python -B -S *args`` in a fresh process that imports the package from SRC."""
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, "-B", "-S", *args],
                          stdout=stdout, stderr=stderr, env=env, timeout=60)
