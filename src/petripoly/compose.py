"""The two constructions on nets that the encoding turns into arithmetic.

:func:`product` is polynomial ``*``: when l1 and l2 use disjoint labels,
the product net, labeled by l1 on its "L:" conditions and l2 on its "R:"
ones, encodes to encode(N1, l1) * encode(N2, l2).  :func:`attach` is
polynomial ``+``: the net and labeling it returns encode to
encode(N1, l1) + encode(N2, l2).
"""

from .net import Event, Labeling, PetriNet, _Table, check_labeling

__all__ = ["product", "attach"]


def _unique_ids(candidates):
    """Deterministically rename later duplicates with '#2', '#3', ... suffixes."""
    used = set()
    out = []
    for cand in candidates:
        name, k = cand, 2
        while name in used:
            name = f"{cand}#{k}"
            k += 1
        used.add(name)
        out.append(name)
    return out


def product(n1: PetriNet, n2: PetriNet) -> PetriNet:
    """Synchronization product of two nets.

    Conditions are the tagged disjoint union ("L:"/"R:" prefixes).
    Events are all pairs (e1, e2) with either side allowed to idle ("*"),
    except the fully idle pair, which remains the implicit idle event
    of the result; so |events| = |E1|*|E2| + |E1| + |E2|.  Each distinct
    pre-set and post-set of an input is tagged once, and each pair of
    them is joined once, in one table per side that the events share.
    """
    def numbered(events, names):
        """Per event (id, pre number, post number), and the distinct pre-sets
        and post-sets, each tagged once through ``names``, in number order."""
        pres, posts = {}, {}
        rows = [(e.id, pres.setdefault(e.pre, len(pres)), posts.setdefault(e.post, len(posts)))
                for e in events]
        tag = names.__getitem__
        return rows, [frozenset(map(tag, s)) for s in pres], [frozenset(map(tag, s)) for s in posts]

    def joined(a, right):
        """The unions of the left set a with each right set; an empty a adds nothing."""
        return [a | b for b in right] if a else right

    names1, names2 = {b: f"L:{b}" for b in n1.conditions}, {b: f"R:{b}" for b in n2.conditions}
    idle = Event("*")
    left, pre1, post1 = numbered(n1.events + (idle,), names1)
    right, pre2, post2 = numbered((idle,) + n2.events, names2)
    rights = [right] * len(n1.events) + [right[1:]]  # idle with idle stays the implicit idle event
    ids = iter(_unique_ids([f"({a},{b})" for (a, _, _), others in zip(left, rights)
                            for b, _, _ in others]))
    # a row of unions per distinct left set, made just before its first events: made all
    # at once, the rows cost the cyclic gc more than they saved where no set repeats
    pre, post = _Table(lambda i: joined(pre1[i], pre2)), _Table(lambda j: joined(post1[j], post2))
    return PetriNet([*names1.values(), *names2.values()],
                    [Event(next(ids), pre_row[p], post_row[q])
                     for (_, i, j), others in zip(left, rights)
                     for pre_row, post_row in [(pre[i], post[j])] for _, p, q in others])


def attach(n1: PetriNet, l1: Labeling, n2: PetriNet, l2: Labeling):
    """Glue two labeled nets along equally-labeled conditions.

    Conditions are the disjoint union quotiented by equal labels (a
    merged class keeps the first net's id); events are those of both
    nets plus one fresh event with empty pre and post.  The first net's
    events are kept as they are; the second's move onto the merged
    conditions and take a '#k' suffix where their id is taken.  Returns
    the resulting net together with its inherited labeling.
    """
    check_labeling(n1, l1)
    check_labeling(n2, l2)
    # label -> condition id in the result: the first net's ids, then fresh
    # ids for the second net's unseen labels, renamed apart from the first's
    by_label = {label: b for b, label in l1.items()}
    fresh = [b for b in sorted(n2.conditions) if l2[b] not in by_label]
    by_label.update(zip(map(l2.__getitem__, fresh),
                        _unique_ids(sorted(n1.conditions) + fresh)[len(n1.conditions):]))

    # the first net's ids are distinct, so only the second's and star's are renamed
    event_ids = _unique_ids([e.id for e in n1.events] + [e.id for e in n2.events] + ["star"])
    events = list(n1.events)
    for name, event in zip(event_ids[len(n1.events):], n2.events):
        events.append(Event(name, frozenset(by_label[l2[b]] for b in event.pre),
                            frozenset(by_label[l2[b]] for b in event.post)))
    events.append(Event(event_ids[-1]))
    return PetriNet(by_label.values(), events), {b: label for label, b in by_label.items()}
