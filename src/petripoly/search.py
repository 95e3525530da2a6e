"""The two exact searches behind "up to isomorphism".

``are_isomorphic`` decides whether two nets are isomorphic and
``canonical_poly`` finds a net's least encoding.  Both read a net as its
events grouped by (pre, post) pair plus its twin classes, and both run
their backtracking on one generator-stack driver.
"""

from collections import Counter, defaultdict
from heapq import heappop, heappush

from .net import PetriNet, _Table

__all__ = ["are_isomorphic", "canonical_poly"]
_Polynomial = None  # petripoly.polynomial.Polynomial, bound by canonical_poly


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


def are_isomorphic(n1: PetriNet, n2: PetriNet) -> tuple[dict, dict] | None:
    """Search for an isomorphism; return witness maps or ``None``.

    A witness is a pair (beta, eta): a condition bijection and an event
    bijection with beta(pre(e)) = pre(eta(e)) and likewise for post.  The
    nets' twin classes must agree in signature (size and the sorted (|pre|,
    |post|, events, in pre, in post) of its groups), and then their connected
    components in size (conditions linked through shared (pre, post) groups;
    the isolated ones form one).  Backtracking maps ``n1``'s classes
    in connected order, each next one sharing a group with one mapped before,
    from a frontier heap by rarest signature, then first member id, each
    component from its rarest class; a class goes onto an unused class of
    equal signature, one that shares a group with its ordered neighbour's
    image unless it starts a component, members paired in id order.  Each
    distinct (pre, post) pair of ``n1`` is checked once its conditions are
    mapped, by the number of events its image carries in ``n2``.  Events pair
    up in group order.
    """
    if len(n1.conditions) != len(n2.conditions) or len(n1.events) != len(n2.events):
        return None
    (groups1, keys1, members1), (groups2, keys2, members2) = _twin_classes(n1), _twin_classes(n2)

    def signatures(groups, keys, members):
        shapes = [(len(pre), len(post), len(ids)) for (pre, post), ids in groups.items()]
        return [(len(m), tuple(sorted(shapes[g] + (p, q) for g, p, q in key)))
                for key, m in zip(keys, members)]

    sig1, sig2 = signatures(groups1, keys1, members1), signatures(groups2, keys2, members2)
    count = Counter(sig1)
    if count != Counter(sig2):
        return None

    def connected(keys, members, sigs):
        """Class indices in connected order, each with the step of an ordered
        class it shares a group with (None where a component starts); the
        classes in each group; the sorted sizes of the components."""
        in_group = defaultdict(list)
        for c, key in enumerate(keys):
            for g, _, _ in key:
                in_group[g].append(c)
        rank = sorted(range(len(keys)), key=lambda c: (count[sigs[c]], members[c][0]))
        at = {c: r for r, c in enumerate(rank)}
        order, sizes, reached, pending = [], [], {}, dict(in_group)  # pending: groups not yet walked
        for start in rank:
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
        return order, sorted(sizes), in_group

    order, sizes1, _ = connected(keys1, members1, sig1)
    _, sizes2, in_group2 = connected(keys2, members2, sig2)
    if sizes1 != sizes2:
        return None
    alike = defaultdict(list)  # signature -> n2's classes
    for d, sig in enumerate(sig2):
        alike[sig].append(d)
    # image d -> n2's classes that share a group with d, any signature
    near = _Table(lambda d: sorted({e for g, _, _ in keys2[d] for e in in_group2[g]}))
    step = {b: k for k, (c, _) in enumerate(order) for b in members1[c]}
    due = defaultdict(list)  # k -> pairs of n1 whose last condition is in order[k]
    for pair in groups1:
        due[max((step[b] for b in pair[0] | pair[1]), default=-1)].append(pair)
    beta, used, chosen = {}, set(), [None] * len(order)  # used, chosen: n2's mapped classes
    images, get = {}, beta.__getitem__  # images: pair of n1 -> its image at its last check

    def extend(k):
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

    if not _depth_first(extend(0)):
        return None
    eta = {e: f for pair, ids in groups1.items() for e, f in zip(ids, groups2[images[pair]])}
    return beta, eta


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
    the top.  Only one member of each twin class (``_twin_classes``) is tried.
    """
    global _Polynomial
    if _Polynomial is None:  # bound on the first call: iso never loads polynomial.py
        from .polynomial import Polynomial as _Polynomial
    groups, effects, twins = _twin_classes(net)
    groups[frozenset(), frozenset()].append(None)  # the implicit idle event; no twin sits in it
    left = [len(members) for members in twins]
    free, free_pre = [len(pre | post) for pre, post in groups], [len(pre) for pre, _ in groups]
    w = max(len(net.conditions), len(net.events).bit_length()) + 1  # i, coeff < 2^w
    entries = [((1 << u) - 1 << 2 * w) + ((1 << u_pre) - 1 << w) + len(ids)
               for u, u_pre, ids in zip(free, free_pre, groups.values())]
    best = None

    def children(label, lo, entries, most=0):
        """Per class with a free member, sorted: (bound, class, entries) once it takes label and
        the rest take labels from lo, kept only while no best key exists or the bound is below
        it; None as soon as most (if not 0) are kept."""
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

    def take(k, step):  # a member of class k leaves (-1) or rejoins (1) the unlabeled
        left[k] += step
        for g, p, _ in effects[k]:
            free[g] += step
            free_pre[g] += p and step

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
        for key_k, k, entries_k in branch:
            if best is not None and key_k >= best:
                break
            take(k, -1)
            yield search(lo_k, hi_k, entries_k, key_k)
            take(k, 1)

    _depth_first(search(0, len(net.conditions) - 1, entries, sorted(entries, reverse=True)))
    mask = (1 << w) - 1  # at a leaf every u is 0: each entry is its term; groups differ in (i, j)
    terms = ((e >> 2 * w, e >> w & mask, e & mask) for e in best)
    return _Polynomial._trusted({(i, grade - i): coeff for grade, i, coeff in terms})
