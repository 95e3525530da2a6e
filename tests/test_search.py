import random
from collections import Counter

import pytest

from petripoly import (Event, PetriNet, PreconditionError, are_isomorphic, canonical_poly, encode,
                       product, search)

from helpers import (canonical_oracle, check_scope, cycle_net, is_valid_witness, relabeled_copy,
                     search_nodes, sparse_net, twin_block_net, union)


def test_both_searches_visit_a_fixed_number_of_nodes():
    """Steps pushed onto ``search._depth_first``'s stack, the root not
    counted, split into ``canonical_poly``'s labeling steps and the class
    matcher's, so that a change to either search's order, candidates or
    cuts shows even where its results stay the same.  C6, C7, C8 and C16
    push 15, 27, 37 and 606 labeling steps, and their automorphism tests
    n - 1 matcher steps after one that fails; 2xC6 pushes 154 and 23.  On
    a relabeled copy ``are_isomorphic`` pushes one step per class whose
    signature is shared: each such class past a component's first takes
    its candidates from the classes around its parent's image, not from
    every class of its signature, and a class of a signature of its own
    goes onto its image without a step.  So the relabeled C80 pushes 80,
    the sparse 8-condition net, with one signature shared by two classes,
    pushes 2, and ``sparse/12/1``, where every class has a signature of
    its own, pushes none.  Where the component sizes refute a pair, it
    pushes none either."""
    for net, pushed in [(cycle_net(6, "c"), (15, 6)), (cycle_net(7, "c"), (27, 7)),
                        (cycle_net(8, "c"), (37, 8)), (cycle_net(16, "c"), (606, 16)),
                        (union(cycle_net(6, "a"), cycle_net(6, "b")), (154, 23))]:
        counts = search_nodes(canonical_poly, net)[1]
        assert (counts["search"], counts["extend"]) == pushed
    sparse = sparse_net(random.Random("sparse/12/1"), 12, 12)
    assert search_nodes(canonical_poly, sparse)[1] == {"search": 26280}
    # b0 ~ b5 and b2 ~ b6 share signatures; each of the two automorphism
    # tests fails after one matcher step, when a pair check refutes it.
    # The pair check is the matcher's one cut: while a class of a signature
    # of its own was also checked against its parent's image, that check
    # refuted both tests before any step (17 + 0)
    tied = PetriNet([f"b{k}" for k in range(7)], [
        Event("e0", {"b3"}, {"b1"}), Event("e1", {"b4", "b6"}, {"b0", "b3"}),
        Event("e2", {"b1", "b2"}, {"b4", "b5"})])
    assert search_nodes(canonical_poly, tied)[1] == {"search": 17, "extend": 2}
    c80 = cycle_net(80, "c")
    rng = random.Random(15)
    partly = sparse_net(rng, 8, 8)
    for n1, n2, found, nodes in [(c80, relabeled_copy(random.Random(80), c80), True, 80),
                                 (c80, union(cycle_net(40, "a"), cycle_net(40, "b")), False, 0),
                                 (partly, relabeled_copy(rng, partly), True, 2),
                                 (sparse, relabeled_copy(random.Random(1), sparse), True, 0)]:
        witness, pushed = search_nodes(are_isomorphic, n1, n2)
        assert (witness is not None, pushed["extend"], pushed.total()) == (found, nodes, nodes)


def test_search_work_budget_is_per_call(monkeypatch):
    """Past ``search._WORK`` both searches raise PreconditionError naming
    the budget in force: the matcher of ``are_isomorphic`` on a relabeled
    C80, whose pairs alone outnumber a budget of 60 images, and the
    labeling steps of ``canonical_poly`` on C16.  The count starts afresh
    with each call, so a small call still fits under the same budget, and
    the large ones succeed under the real one."""
    c80, c16 = cycle_net(80, "c"), cycle_net(16, "c")
    copy = relabeled_copy(random.Random(80), c80)
    limit = search._WORK
    monkeypatch.setattr(search, "_WORK", 60)
    for fn, *args in [(are_isomorphic, c80, copy), (canonical_poly, c16)]:
        with pytest.raises(PreconditionError, match="budget of 60 entries"):
            fn(*args)
    small = cycle_net(3, "c")
    assert are_isomorphic(small, relabeled_copy(random.Random(3), small)) is not None
    monkeypatch.setattr(search, "_WORK", limit)
    assert is_valid_witness(c80, copy, *are_isomorphic(c80, copy))
    assert canonical_poly(c16) == canonical_poly(relabeled_copy(random.Random(16), c16))


# ------------------------------------------------ automorphic root children

def two_condition_component(rng, prefix):
    """A net on two conditions, both used, with 2-3 distinct events."""
    a, b = f"{prefix}0", f"{prefix}1"
    sides = [(), (a,), (b,), (a, b)]
    while True:
        pairs = rng.sample([(pre, post) for pre in sides for post in sides][1:], rng.randint(2, 3))
        net = PetriNet([a, b], [Event(f"{prefix}e{k}", pre, post) for k, (pre, post) in enumerate(pairs)])
        if all(any(c in e.pre | e.post for e in net.events) for c in (a, b)):
            return net


def symmetric_nets():
    """Nets with automorphisms between twin classes: unions of 2-3 equal
    cycles, products of copies of one two-condition component, and random
    nets on blocks of twins; and unions of two cycles one condition apart,
    whose root children have equal bounds without being automorphic."""
    nets = [union(*(cycle_net(n, p) for p in "abc"[:k])) for k in (2, 3) for n in (1, 2, 3, 4)]
    nets += [union(cycle_net(n, "a"), cycle_net(m, "b")) for n, m in [(5, 5), (2, 3), (3, 4), (4, 5)]]
    rng = random.Random("symmetric")
    for k in (2, 3, 4):
        for _ in range(4):
            component = two_condition_component(rng, "p")
            net = component
            for _ in range(k - 1):
                net = product(net, component)
            nets.append(net)
    nets += [twin_block_net(rng) for _ in range(30)]
    return nets


def root_tests(net):
    """``canonical_poly(net)``, the root children that ``search._orbits``
    was given and kept, and the result of each automorphism test it ran."""
    tests, sizes = [], []
    match, orbits = search._match, search._orbits

    def recorded_match(a, b, count, work):
        found = match(a, b, count, work)
        tests.append(found)
        return found

    def recorded_orbits(branch, side, work):
        kept = orbits(branch, side, work)
        sizes.append((len(branch), len(kept)))
        return kept

    search._match, search._orbits = recorded_match, recorded_orbits
    try:
        return canonical_poly(net), sizes, tests
    finally:
        search._match, search._orbits = match, orbits


def test_pruned_root_children_keep_the_least_encoding():
    """Skipping the root children in the orbit of a kept one is exact: each
    net gets the brute-force minimum up to 7 conditions, and beyond that the
    same polynomial for relabeled copies, no greater than the identity
    encoding.  Every map an automorphism test returns maps the net onto
    itself.  Among the nets, the pruning skips a root child, and at least
    one test on equal bounds finds no automorphism."""
    rng = random.Random(2027)
    skipped = refuted = 0
    for net in symmetric_nets():
        canon, sizes, tests = root_tests(net)
        if len(net.conditions) <= 7:
            assert canon == canonical_oracle(net)
        else:
            assert canon <= encode(net, {b: t for t, b in enumerate(sorted(net.conditions))})
            for _ in range(3):
                assert canonical_poly(relabeled_copy(rng, net)) == canon
        for found in tests:
            assert found is None or is_valid_witness(net, net, *found)
        skipped += sum(given - kept for given, kept in sizes)
        refuted += sum(found is None for found in tests)
    assert skipped > 0 and refuted > 0


def individualized(side, c):
    """A ``search._side`` in which class c has the signature (sig,) of its
    own, as ``search._orbits`` gives it."""
    sigs = list(side[3])
    sigs[c] = (sigs[c],)
    return (*side[:3], sigs, side[4])


def test_automorphism_test_maps_an_individualized_class_onto_its_image():
    """``search._match`` on two sides of one net, class c individualized
    on the first and class d on the second, returns a map that sends c
    onto d, or None; it finds one for every pair of classes of C6, and
    none from a cycle's class onto a class of a different component
    size."""
    for net, pairs in [(cycle_net(6, "c"), [(0, d) for d in range(6)]),
                       (union(cycle_net(3, "a"), cycle_net(4, "b")), [(0, 6)])]:
        side = search._side(net)
        members = side[2]
        for c, d in pairs:
            first, second = individualized(side, c), individualized(side, d)
            found = search._match(first, second, Counter(first[3]), [0])
            if len(net.conditions) == 6:
                assert is_valid_witness(net, net, *found)
                assert {found[0][b] for b in members[c]} == set(members[d])
            else:
                assert found is None


@pytest.mark.parametrize("n, m", [(1, 6), (2, 4), (3, 2)])
def test_every_small_net_in_the_bounded_scope(n, m):
    """``helpers.check_scope`` on every net of n conditions, all used, and
    1 to m events: 83, 1 961 and 354 classes up to isomorphism.  The row
    n = 3, m = 3 (43 371 nets, 7 810 classes) runs in ``slow_scope.py``."""
    check_scope(n, m)
