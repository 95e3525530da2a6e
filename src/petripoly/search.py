"""The two exact searches behind "up to isomorphism".

``are_isomorphic`` decides whether two nets are isomorphic and
``canonical_poly`` finds a net's least encoding.  Both read a net once,
through ``_side``: its events grouped by (pre, post) pair and its twin
classes; ``_signed`` adds the classes' signatures where the matcher needs
them.  Both run their backtracking on one generator-stack driver, and
both call one class matcher, which maps each class of a signature of its
own at once and searches the rest: ``are_isomorphic`` to map one net onto
another, ``canonical_poly`` to find automorphisms among its root
children, each test individualizing two classes.  One work budget,
charged by ``_spend``, caps each call.  Under a collector
(``errors._counters``), each call adds its work, its driver's pushes and
its wall time.
"""

from collections import Counter, defaultdict
from heapq import heappop, heappush
from time import perf_counter

from .errors import PreconditionError, _counters
from .net import PetriNet, _Table

__all__ = ["are_isomorphic", "canonical_poly"]
# Work per call of either search: the entries that canonical_poly's children
# copy and the images of (pre, post) pairs that _match builds.  C24 takes 1.1
# million, sparse/12/1 2.3 million, sparse/20/0 13.5 million and C32, the
# costliest net of the tests, 15.0 million; a 1500-cycle, whose greedy dive
# keeps about 16 B per unit, stops at about 420 MiB.
_WORK = 3 << 23


def _spend(work, units):
    """Charge units to a call's work count work[0]; past _WORK raise PreconditionError."""
    work[0] += units
    if work[0] > _WORK:
        raise PreconditionError(f"search work exceeds its budget of {_WORK} entries and images")


def _side(net):
    """The one reading of a net that both searches take: its event ids
    grouped by (pre, post) pair, in event order; and its twin classes
    (conditions in the same pre-sets and post-sets, such as isolated ones)
    as two lists in step, their keys, of (group index, in pre, in post)
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


def _signed(*sides):
    """Each ``_side`` with two lists added: its classes' signatures, and the
    classes in each group.  A signature is a class's size and the sorted
    (|pre|, |post|, events, in pre, in post) of its groups, held as a small
    int from one table for all the sides, so that equal ones are equal
    ints."""
    table, out = {}, []
    for groups, keys, members in sides:
        shapes = [(len(pre), len(post), len(ids)) for (pre, post), ids in groups.items()]
        sigs = [table.setdefault((len(m), tuple(sorted(shapes[g] + (p, q) for g, p, q in key))),
                                 len(table)) for key, m in zip(keys, members)]
        in_group = defaultdict(list)
        for c, key in enumerate(keys):
            for g, _, _ in key:
                in_group[g].append(c)
        out.append((groups, keys, members, sigs, in_group))
    return out


def _depth_first(root):
    """Run a depth-first search whose steps are generators, on an explicit
    stack instead of the interpreter's.  A step yields each child step in
    turn, or True at a solution; code after a yield runs once that child's
    subtree is done.  True as soon as a step yields True, else False.
    Under a collector, each push counts as pushes.<the step's name>."""
    stack, tally = [root], _counters.get()
    push = stack.append
    if tally is not None:
        def push(step):
            tally["pushes." + step.__name__] += 1
            stack.append(step)
    while stack:
        step = next(stack[-1], None)
        if step is None:  # the top step is done
            stack.pop()
        elif step is True:
            return True
        else:
            push(step)
    return False


def _connected(side, alike):
    """The search steps, each class of a shared signature in connected order
    with the class it was reached from, of any signature (None where a
    component starts), and the sorted sizes of the components (conditions
    linked through shared (pre, post) groups; the isolated ones form one),
    exact as every class is walked.  A component starts from its rarest
    class by its signature's classes in ``alike``, then first member id;
    each next class comes from a frontier heap in that order."""
    _, keys, members, sigs, in_group = side
    rank = sorted(range(len(keys)), key=lambda c: (len(alike[sigs[c]]), members[c][0]))
    at = {c: r for r, c in enumerate(rank)}
    order, sizes, reached, pending = [], [], {}, dict(in_group)  # pending: groups not yet walked
    for start in rank:
        if start in reached:
            continue
        reached[start], frontier, size = None, [at[start]], 0
        while frontier:
            c = rank[heappop(frontier)]
            size += len(members[c])
            for g, _, _ in keys[c]:
                for d in pending.pop(g, ()):
                    if d not in reached:
                        reached[d] = c
                        heappush(frontier, at[d])
            if len(alike[sigs[c]]) > 1:
                order.append((c, reached[c]))
        sizes.append(size)
    return order, sorted(sizes)


def _match(side1, side2, work):
    """An isomorphism from one net onto another as (image, beta, images), or
    None: image maps classes, by index, beta conditions, and images each
    (pre, post) pair of the first net to the event ids of its image's.

    The class matcher behind both searches.  side1 and side2 are the nets'
    ``_signed`` sides, with equal multisets of signatures; on two sides of
    one net, it looks for an automorphism.  Each class of a signature of its
    own goes onto its one image at the start.  The others, if any, need
    equal component sizes, and backtracking maps them in ``_connected``
    order onto unused classes of equal signature around the image of the
    class each was reached from, if any.  Members pair in id order.  The one
    cut: a (pre, post) pair is checked by its image's event count once its
    conditions are mapped, and the image found is kept.  The images built
    are charged to work through ``_spend``."""
    groups1, keys1, members1, sig1 = side1[:4]
    groups2, keys2, members2, sig2, in_group2 = side2
    alike = defaultdict(list)  # signature -> the second net's classes
    for d, sig in enumerate(sig2):
        alike[sig].append(d)
    order, last = [], {}  # last[g]: the last step that touches group g, if any
    if len(alike) < len(sig2):  # a signature is shared
        order, sizes = _connected(side1, alike)
        if keys2 is not keys1 and sizes != _connected(side2, alike)[1]:
            return None
        last = {g: k for k, (c, _) in enumerate(order) for g, _, _ in keys1[c]}
    due = [[] for _ in range(len(order) + 1)]  # due[k]: the pairs checked as step k starts
    for g, pair in enumerate(groups1):
        due[last.get(g, -1) + 1].append(pair)
    image = [alike[sig][0] if len(alike[sig]) == 1 else None for sig in sig1]  # class -> its image
    beta = {b: e for m, d in zip(members1, image) if d is not None for b, e in zip(m, members2[d])}
    # the second net's classes that share a group with one of its classes, any signature
    near = _Table(lambda d: sorted({e for g, _, _ in keys2[d] for e in in_group2[g]}))
    used, get, images = set(), beta.__getitem__, {}

    def extend(k):
        _spend(work, len(due[k]))
        for p in due[k]:
            found = frozenset(map(get, p[0])), frozenset(map(get, p[1]))
            images[p] = ids = groups2.get(found, ())
            if len(ids) != len(groups1[p]):
                return
        if k == len(order):
            yield True  # the driver stops here and never resumes this step
        c, parent = order[k]
        for d in alike[sig1[c]] if parent is None else near[image[parent]]:
            if d not in used and sig2[d] == sig1[c]:
                beta.update(zip(members1[c], members2[d]))  # deeper steps reassign before use
                used.add(d)
                image[c] = d
                yield extend(k + 1)
                used.discard(d)

    return (image, beta, images) if _depth_first(extend(0)) else None


def are_isomorphic(n1: PetriNet, n2: PetriNet) -> tuple[dict, dict] | None:
    """Search for an isomorphism; return witness maps or ``None``.

    A witness is a pair (beta, eta): a condition bijection and an event
    bijection with beta(pre(e)) = pre(eta(e)) and likewise for post.  The
    nets' twin classes must agree in signature, and then ``_match`` maps
    one net's classes onto the other's; eta pairs the events of each pair
    with those of its image, in event order.
    """
    tally, start, work = _counters.get(), perf_counter(), [0]
    try:
        if len(n1.conditions) != len(n2.conditions) or len(n1.events) != len(n2.events):
            return None
        a, b = _signed(_side(n1), _side(n2))
        found = _match(a, b, work) if Counter(a[3]) == Counter(b[3]) else None
    finally:
        if tally is not None:
            tally.update({"seconds.are_isomorphic": perf_counter() - start,
                          "work.are_isomorphic": work[0],
                          "inputs.conditions": len(n1.conditions) + len(n2.conditions),
                          "inputs.events": len(n1.events) + len(n2.events)})
    if found is None:
        return None
    _, beta, images = found
    return beta, {e: f for pair, ids in a[0].items() for e, f in zip(ids, images[pair])}


def _orbits(branch, side, work):
    """The root children of ``canonical_poly``, less each one whose class
    lies in the orbit of a class kept before it.  An automorphism that maps
    class e onto class k maps the labelings that give the root's label to e
    one to one onto those that give it to k, with equal encodings, so k's
    subtree holds nothing better than e's.  Automorphic children have equal
    bounds, so k is tested only against the classes kept at its bound, by
    ``_match`` on two sides of the net where e and k, each on its own side,
    have a signature of their own; the net's signatures are built at the
    first such test.  The class map of each automorphism found joins each
    class with its image in a union-find.  Only the root is pruned: deeper,
    with the labeled classes individualized too, every test refuted on
    cycles, whose labeled prefix leaves no automorphism (C24: 25 443 matcher
    steps, not 24).  branch: (bound, class, entries) by bound; side: the
    net's ``_side``."""
    orbit, signed = list(range(len(side[2]))), None

    def find(c):
        while orbit[c] != c:
            c = orbit[c]
        return c

    def joined(e, k):
        nonlocal signed
        if signed is None:
            (signed,) = _signed(side)
        sigs = signed[3]
        if sigs[e] != sigs[k]:
            return False
        # e and k get -1, which is no signature of the table's
        own = [[-1 if d == c else sig for d, sig in enumerate(sigs)] for c in (e, k)]
        found = _match(*((*signed[:3], sig, signed[4]) for sig in own), work)
        for c, d in enumerate(found[0]) if found else ():
            orbit[find(c)] = find(d)
        return found is not None

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

    Found by depth-first branch and bound on the net's ``_side``.  Events
    with equal (pre, post) make one term under every labeling.  The idle
    event is the constant 1 under every labeling, so it stays out of the
    search and is added to the best key's terms after it.  The free labels
    [lo, hi] go out from either end, so a term's u unlabeled conditions,
    u_pre of them in pre, add at least (2^u - 1) * 2^lo to i + j and
    (2^u_pre - 1) * 2^lo to i.  With its labeled part, that bounds the term
    by (grade, i, coeff), packed as the int grade << 2w | i << w | coeff
    (i, coeff < 2^w) and moved by one delta from u and u_pre as a condition
    is labeled; ``free`` and ``free_pre`` keep these per term, changed in
    place.  A greedy dive first gives hi to the least child at each level,
    and its leaf is the first best key; the search then starts again from
    the root.  A child is kept only while its descending list of bounds is
    below the best key; a later leaf may still cut it.  A node gives hi to
    one condition, unless it is not the root, two or more children are
    kept and fewer of those that give lo (bounded from lo + 1 up) would
    be.  On the dive's path, the hi children are the dive's own, kept
    below the best key, not built again.  Only one member of each twin
    class is tried, and at the root only one class of each orbit of the
    automorphisms that ``_orbits`` finds by individualizing pairs of
    classes.  The entries copied are charged to the work budget through
    ``_spend``.
    """
    tally, start, work = _counters.get(), perf_counter(), [0]
    groups, keys, members = side = _side(net)
    left = list(map(len, members))
    free, free_pre = [len(pre | post) for pre, post in groups], [len(pre) for pre, _ in groups]
    w = max(len(net.conditions), len(net.events).bit_length()) + 1  # i, coeff < 2^w
    entries = [((1 << u) - 1 << 2 * w) + ((1 << u_pre) - 1 << w) + len(ids)
               for u, u_pre, ids in zip(free, free_pre, groups.values())]
    best, top, size, classes = None, len(net.conditions) - 1, len(entries), len(left)

    def children(label, lo, entries, most=0):
        """Per class with a free member, sorted: (bound, class, entries) once it takes label and
        the rest take labels from lo, kept only while no best key exists or the bound is below
        it; None as soon as most (if not 0) are kept."""
        _spend(work, size * (classes - left.count(0)))  # the copies below, before they exist
        bit, unit, out = 1 << label, 1 << lo, []
        for k, count in enumerate(left):
            if count:
                entries_k = entries[:]
                for g, p, q in keys[k]:  # u falls by 1 and u_pre by p
                    entries_k[g] += (((p + q) * bit - (unit << free[g] - 1) << w)
                                     + (p and bit - (unit << free_pre[g] - 1)) << w)
                key_k = sorted(entries_k, reverse=True)
                if best is None or key_k < best:
                    out.append((key_k, k, entries_k))
                    if len(out) == most:
                        return None
        out.sort()  # by bound, then class: the classes differ, so entries are never compared
        return out

    def move(k, step):
        """A member of class k leaves the unlabeled (step 1) or rejoins them (step -1)."""
        left[k] -= step
        for g, p, _ in keys[k]:
            free[g] -= step
            free_pre[g] -= p * step

    def search(lo, hi, entries, key, on_dive):
        nonlocal best
        if lo > hi:
            best = key
            return
        if on_dive:
            branch = [child for child in dive[top - hi] if child[0] < best]
        else:
            branch = children(hi, lo, entries)
        lo_k, hi_k = lo, hi - 1
        if hi - lo == top:  # the root
            branch = _orbits(branch, side, work)
        elif len(branch) > 1:  # labels from lo + 1 double each term's minima
            shifted = [e + (((1 << u) - 1 << 2 * w) + ((1 << u_pre) - 1 << w) << lo)
                       for e, u, u_pre in zip(entries, free, free_pre)]
            if (low := children(lo, lo + 1, shifted, len(branch))) is not None:
                branch, lo_k, hi_k, on_dive = low, lo + 1, hi, False
        for child in branch:
            key_k, k, entries_k = child
            if key_k >= best:
                break
            move(k, 1)
            yield search(lo_k, hi_k, entries_k, key_k, on_dive and child is dive[top - hi][0])
            move(k, -1)

    dive, key, node = [], sorted(entries, reverse=True), entries  # dive: the children per level
    try:
        for label in range(top, -1, -1):  # the dive: no best key yet, so every child is kept
            dive.append(children(label, 0, node))
            key, k, node = dive[-1][0]
            move(k, 1)
        for level in dive:
            move(level[0][1], -1)
        best = key
        _depth_first(search(0, top, entries, best, True))
    finally:
        if tally is not None:
            tally.update({"seconds.canonical_poly": perf_counter() - start,
                          "work.canonical_poly": work[0], "dive.levels": len(dive),
                          "inputs.conditions": len(net.conditions),
                          "inputs.events": len(net.events)})
    from .polynomial import Polynomial  # here, so that iso never loads polynomial.py
    mask = (1 << w) - 1  # at a leaf every u is 0: each entry is its term; groups differ in (i, j)
    terms = {(i, grade - i): coeff for grade, i, coeff in
             ((e >> 2 * w, e >> w & mask, e & mask) for e in best)}
    terms[0, 0] = terms.get((0, 0), 0) + 1  # the idle event, added after the search
    return Polynomial._trusted(terms)
