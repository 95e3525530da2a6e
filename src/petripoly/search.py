"""The two exact searches behind "up to isomorphism".

``are_isomorphic`` decides whether two nets are isomorphic and
``canonical_poly`` finds a net's least encoding.  Both read a net as its
events grouped by (pre, post) pair plus its twin classes, both run their
backtracking on one generator-stack driver, and both call one class
matcher: ``are_isomorphic`` to map one net onto another, ``canonical_poly``
to find automorphisms among its root children.  One work budget caps each
call.
"""

from collections import Counter, defaultdict
from heapq import heappop, heappush
from operator import eq, itemgetter

from .errors import PreconditionError
from .net import PetriNet, _Table

__all__ = ["are_isomorphic", "canonical_poly"]
_Polynomial = None  # petripoly.polynomial.Polynomial, bound by canonical_poly
# Work per call of either search: the entries that canonical_poly's children
# copy and the images of (pre, post) pairs that _match builds.  sparse/12/1,
# the costliest net of the tests, takes 2.5 million and sparse/20/0 14.4
# million; a 1500-cycle, whose first descent keeps about 16 B per unit,
# stops at about 380 MiB.
_WORK = 3 << 23
_OVER = f"search work exceeds its budget of {_WORK} entries and images"
_first = itemgetter(0)
_IDLE = frozenset(), frozenset()  # the (pre, post) pair of the idle event


def _twin_classes(net):
    """Event ids grouped by (pre, post) pair, in event order, and the twin
    classes: conditions in the same pre-sets and post-sets, such as isolated
    ones, as two lists in step: their keys, of (group index, in pre, in post)
    entries, and their members, listed by id.  Permuting a class is an
    automorphism; an isomorphism maps classes onto classes."""
    groups = defaultdict(list)
    for event in net.events:
        groups[(event.pre, event.post)].append(event.id)
    entries = {b: [] for b in net.conditions}
    for g, (pre, post) in enumerate(groups):
        for b in pre | post:
            entries[b].append((g, b in pre, b in post))
    classes = defaultdict(list)
    for b in sorted(net.conditions):
        classes[tuple(entries[b])].append(b)
    return groups, list(classes), list(classes.values())


def _depth_first(root):
    """Run a depth-first search whose steps are generators, on an explicit
    stack instead of the interpreter's.  A step yields each child step in
    turn, or True at a solution; code after a yield runs once that child's
    subtree is done.  True as soon as a step yields True, else False."""
    stack = [root]
    while stack:
        step = next(stack[-1], None)
        if step is None:  # the top step is done
            stack.pop()
        elif step is True:
            return True
        else:
            stack.append(step)
    return False


def _side(groups, keys, members):
    """What the class matcher reads of a net: its ``_twin_classes``, each
    class's signature (its size and the sorted (|pre|, |post|, events, in
    pre, in post) of its groups), and the classes in each group."""
    shapes = [(len(pre), len(post), len(ids)) for (pre, post), ids in groups.items()]
    sigs = [(len(m), tuple(sorted(shapes[g] + (p, q) for g, p, q in key)))
            for key, m in zip(keys, members)]
    in_group = defaultdict(list)
    for c, key in enumerate(keys):
        for g, _, _ in key:
            in_group[g].append(c)
    return groups, keys, members, sigs, in_group


def _connected(side, count, first=()):
    """Class indices in connected order, each with the step of an ordered
    class it shares a group with (None where a component starts), and the
    sorted sizes of the components (conditions linked through shared (pre,
    post) groups; the isolated ones form one).  A component starts from the
    class in first, else from its rarest class by count, then first member
    id; each next class comes from a frontier heap in that order."""
    _, keys, members, sigs, in_group = side[:5]
    rank = sorted(range(len(keys)), key=lambda c: (count[sigs[c]], members[c][0]))
    at = {c: r for r, c in enumerate(rank)}
    order, sizes, reached, pending = [], [], {}, dict(in_group)  # pending: groups not yet walked
    for start in (*first, *rank):
        if start in reached:
            continue
        reached[start], frontier, size = None, [at[start]], 0
        while frontier:
            c = rank[heappop(frontier)]
            size, k = size + len(members[c]), len(order)
            for g, _, _ in keys[c]:
                for d in pending.pop(g, ()):
                    if d not in reached:
                        reached[d] = k
                        heappush(frontier, at[d])
            order.append((c, reached[c]))
        sizes.append(size)
    return order, sorted(sizes)


def _match(side1, side2, count, work, pin=None):
    """An isomorphism from one net onto another as a witness (beta, eta), or None.

    The class matcher behind both searches.  side1 and side2 are the nets'
    ``_side``s, whose signatures both count to ``count``; with the same side
    twice, it looks for an automorphism.  When every class of the first net
    has a signature of its own, the class map is forced and is checked as it
    stands.  Otherwise the component sizes must agree, and backtracking maps
    the first net's classes in connected order, each onto an unused class of
    equal signature, one that shares a group with its ordered neighbour's
    image unless it starts a component, members paired in id order.  With pin (c, d), the first
    component starts from c, which goes onto d alone.  Each distinct (pre,
    post) pair of the first net is checked once its conditions are mapped,
    by the number of events its image carries in the second; the images
    built count in work[0], and past _WORK raise PreconditionError.  Events
    pair up in group order.
    """
    groups1, keys1, members1, sig1 = side1[:4]
    groups2, keys2, members2, sig2, in_group2 = side2
    beta, images = {}, {}  # images: pair of the first net -> its image at its last check
    if pin is None and len(count) == len(sig1):  # forced: the root checks every pair
        image = dict(zip(sig2, members2))
        for m, sig in zip(members1, sig1):
            beta.update(zip(m, image[sig]))
        order, due = [], {-1: list(groups1)}
    else:
        order, sizes = _connected(side1, count, pin[:1] if pin else ())
        if side2 is not side1 and sizes != _connected(side2, count)[1]:
            return None
        step = {b: k for k, (c, _) in enumerate(order) for b in members1[c]}
        due = defaultdict(list)  # k -> pairs whose last condition is in order[k]
        for pair in groups1:
            due[max((step[b] for b in pair[0] | pair[1]), default=-1)].append(pair)
    alike = defaultdict(list)  # signature -> the second net's classes
    for d, sig in enumerate(sig2):
        alike[sig].append(d)
    # the second net's classes that share a group with one of its classes, any signature
    near = _Table(lambda d: sorted({e for g, _, _ in keys2[d] for e in in_group2[g]}))
    used, chosen, get = set(), [None] * len(order), beta.__getitem__  # of the second net's classes

    def extend(k):
        work[0] += len(due[k - 1])
        if work[0] > _WORK:
            raise PreconditionError(_OVER)
        for p in due[k - 1]:
            images[p] = found = frozenset(map(get, p[0])), frozenset(map(get, p[1]))
            if len(groups2.get(found, ())) != len(groups1[p]):
                return
        if k == len(order):
            yield True  # the driver stops here and never resumes this step
        c, parent = order[k]
        for d in alike[sig1[c]] if parent is None else near[chosen[parent]]:
            if d not in used and sig2[d] == sig1[c]:
                beta.update(zip(members1[c], members2[d]))  # deeper steps reassign before use
                used.add(d)
                chosen[k] = d
                yield extend(k + 1)
                used.discard(d)

    if pin:  # the pairs without conditions are checked with those of the pinned class
        due[0] += due.pop(-1, [])
        beta.update(zip(members1[pin[0]], members2[pin[1]]))
        used.add(pin[1])
        chosen[0] = pin[1]
    if not _depth_first(extend(1 if pin else 0)):
        return None
    eta = {e: f for pair, ids in groups1.items() for e, f in zip(ids, groups2[images[pair]])}
    return beta, eta


def are_isomorphic(n1: PetriNet, n2: PetriNet) -> tuple[dict, dict] | None:
    """Search for an isomorphism; return witness maps or ``None``.

    A witness is a pair (beta, eta): a condition bijection and an event
    bijection with beta(pre(e)) = pre(eta(e)) and likewise for post.  The
    nets' twin classes must agree in signature, and then ``_match`` maps
    one net's classes onto the other's.
    """
    if len(n1.conditions) != len(n2.conditions) or len(n1.events) != len(n2.events):
        return None
    a, b = _side(*_twin_classes(n1)), _side(*_twin_classes(n2))
    count = Counter(a[3])
    if count != Counter(b[3]):
        return None
    return _match(a, b, count, [0])


def _orbits(branch, classes, work):
    """The root children of ``canonical_poly``, less each one whose class
    lies in the orbit of a class kept before it.  An automorphism that maps
    class e onto class k maps the labelings that give the top label to e
    one to one onto those that give it to k, with equal encodings, so k's
    subtree holds nothing better than e's.  Automorphic children have equal
    bounds, so k is tested only against the classes kept at its bound, by
    ``_match`` pinned to the pair, and each automorphism found joins orbits
    in a union-find of classes.  branch: (bound, class, entries) by bound;
    classes: the net's ``_twin_classes``."""
    bounds = list(map(_first, branch))
    if not any(map(eq, bounds, bounds[1:])):
        return branch
    side = _side(*classes)
    members, sigs = side[2:4]
    count, orbit = Counter(sigs), list(range(len(sigs)))
    twin_of = {b: c for c, m in enumerate(members) for b in m}

    def find(c):
        while orbit[c] != c:
            c = orbit[c]
        return c

    def joined(e, k):
        found = sigs[e] == sigs[k] and _match(side, side, count, work, (e, k))
        for b, image in found[0].items() if found else ():
            orbit[find(twin_of[b])] = find(twin_of[image])
        return bool(found)

    kept, level = [], None
    for child in branch:
        bound, k, _ = child
        if bound != level:
            same, level = [], bound  # the classes kept at this bound
        elif any(find(e) == find(k) for e in same) or any(joined(e, k) for e in same):
            continue
        same.append(k)
        kept.append(child)
    return kept


def canonical_poly(net: PetriNet) -> "Polynomial":
    """Labeling-independent polynomial of a net.

    The minimum, in the total term order, of encode(net, l) over all
    labelings onto {0, ..., |conditions|-1}.  Isomorphic nets without
    isolated conditions get equal canonical polynomials.

    Found by depth-first branch and bound.  Events with equal (pre, post)
    make one term under every labeling.  The free labels [lo, hi] go out
    from either end, so a term's u unlabeled conditions, u_pre of them in
    pre, add at least (2^u - 1) * 2^lo to i + j and (2^u_pre - 1) * 2^lo to
    i.  With its labeled part, that bounds the term by (grade, i, coeff),
    packed as the int grade << 2w | i << w | coeff (i, coeff < 2^w) and
    moved by one delta from u and u_pre as a condition is labeled; ``free``
    and ``free_pre`` keep these per term, changed in place.  A child is kept
    only while its descending list of bounds is below the best key, if any; a
    later leaf may still cut it.  A node gives hi to one condition, unless a
    best key exists, two or more children are kept, and fewer of those that
    give lo (bounded from lo + 1 up) would be; so the first descent labels from
    the top.  Only one member of each twin class (``_twin_classes``) is tried,
    and at the root only one class of each orbit of the automorphisms that
    ``_orbits`` finds.  The entries copied count toward the work budget, and
    past it raise PreconditionError.
    """
    global _Polynomial
    if _Polynomial is None:  # bound on the first call: iso never loads polynomial.py
        from .polynomial import Polynomial as _Polynomial
    groups, effects, twins = _twin_classes(net)
    idle = groups[_IDLE]  # made if missing; the implicit idle event joins it
    left = [len(members) for members in twins]
    free, free_pre = [len(pre | post) for pre, post in groups], [len(pre) for pre, _ in groups]
    w = max(len(net.conditions), len(net.events).bit_length()) + 1  # i, coeff < 2^w
    entries = [((1 << u) - 1 << 2 * w) + ((1 << u_pre) - 1 << w) + len(ids) + (ids is idle)
               for u, u_pre, ids in zip(free, free_pre, groups.values())]
    best, top, work, size, classes = None, len(net.conditions) - 1, [0], len(entries), len(left)

    def children(label, lo, entries, most=0):
        """Per class with a free member, sorted: (bound, class, entries) once it takes label and
        the rest take labels from lo, kept only while no best key exists or the bound is below
        it; None as soon as most (if not 0) are kept."""
        work[0] += size * (classes - left.count(0))  # the copies below, before they exist
        if work[0] > _WORK:
            raise PreconditionError(_OVER)
        bit, unit, out = 1 << label, 1 << lo, []
        for k, count in enumerate(left):
            if count:
                entries_k = entries[:]
                for g, p, q in effects[k]:  # u falls by 1 and u_pre by p
                    entries_k[g] += (((p + q) * bit - (unit << free[g] - 1) << w)
                                     + (p and bit - (unit << free_pre[g] - 1)) << w)
                key_k = sorted(entries_k, reverse=True)
                if best is None or key_k < best:
                    out.append((key_k, k, entries_k))
                    if len(out) == most:
                        return None
        out.sort()  # by bound, then class: the classes differ, so entries are never compared
        return out

    def search(lo, hi, entries, key):
        nonlocal best
        if lo > hi:
            best = key
            return
        branch, lo_k, hi_k = children(hi, lo, entries), lo, hi - 1
        if best is not None and len(branch) > 1:  # labels from lo + 1 double each term's minima
            shifted = [e + (((1 << u) - 1 << 2 * w) + ((1 << u_pre) - 1 << w) << lo)
                       for e, u, u_pre in zip(entries, free, free_pre)]
            if (low := children(lo, lo + 1, shifted, len(branch))) is not None:
                branch, lo_k, hi_k = low, lo + 1, hi
        elif hi - lo == top:  # the root
            branch = _orbits(branch, (groups, effects, twins), work)
        for key_k, k, entries_k in branch:
            if best is not None and key_k >= best:
                break
            left[k] -= 1  # a member of class k leaves the unlabeled, and rejoins them after
            for g, p, _ in effects[k]:
                free[g] -= 1
                free_pre[g] -= p
            yield search(lo_k, hi_k, entries_k, key_k)
            left[k] += 1
            for g, p, _ in effects[k]:
                free[g] += 1
                free_pre[g] += p

    _depth_first(search(0, len(net.conditions) - 1, entries, sorted(entries, reverse=True)))
    mask = (1 << w) - 1  # at a leaf every u is 0: each entry is its term; groups differ in (i, j)
    terms = ((e >> 2 * w, e >> w & mask, e & mask) for e in best)
    return _Polynomial._trusted({(i, grade - i): coeff for grade, i, coeff in terms})
