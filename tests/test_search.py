import random
from collections import Counter

from petripoly import Event, PetriNet, are_isomorphic, canonical_poly, encode, product, search

from helpers import (canonical_oracle, cycle_net, is_valid_witness, relabeled_copy, search_nodes,
                     sparse_net, twin_block_net, union)


def test_both_searches_visit_a_fixed_number_of_nodes():
    """Steps pushed onto ``search._depth_first``'s stack, the root not
    counted, so that a change to either search's order, candidates or cuts
    shows even where its results stay the same.  ``canonical_poly``'s count
    holds the pushes of its automorphism tests: C6, C7, C8 and C16 push 15,
    27, 37 and 606 search steps and one test of n - 1 matcher steps after
    a first step that fails; 2xC6 pushes 154 and 23.  On a relabeled copy
    ``are_isomorphic`` pushes one step per twin class: each class past a
    component's first takes its candidates from the classes around its
    neighbour's image, not from every class of its signature.  Where the
    component sizes refute a pair, it pushes none, and where every class
    has a signature of its own, as in ``sparse/12/1``, the map is forced
    and it pushes none either."""
    for n, nodes in [(6, 21), (7, 34), (8, 45), (16, 622)]:
        assert search_nodes(canonical_poly, cycle_net(n, "c"))[1] == nodes
    assert search_nodes(canonical_poly, union(cycle_net(6, "a"), cycle_net(6, "b")))[1] == 177
    sparse = sparse_net(random.Random("sparse/12/1"), 12, 12)
    assert search_nodes(canonical_poly, sparse)[1] == 26280
    c80 = cycle_net(80, "c")
    for n1, n2, found, nodes in [(c80, relabeled_copy(random.Random(80), c80), True, 80),
                                 (c80, union(cycle_net(40, "a"), cycle_net(40, "b")), False, 0),
                                 (sparse, relabeled_copy(random.Random(1), sparse), True, 0)]:
        witness, pushed = search_nodes(are_isomorphic, n1, n2)
        assert (witness is not None, pushed) == (found, nodes)


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
    was given and kept, and each automorphism test it ran, as (pin, result)."""
    tests, sizes = [], []
    match, orbits = search._match, search._orbits

    def recorded_match(a, b, count, work, pin=None):
        found = match(a, b, count, work, pin)
        tests.append((pin, found))
        return found

    def recorded_orbits(branch, classes, work):
        kept = orbits(branch, classes, work)
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
        for _, found in tests:
            assert found is None or is_valid_witness(net, net, *found)
        skipped += sum(given - kept for given, kept in sizes)
        refuted += sum(found is None for _, found in tests)
    assert skipped > 0 and refuted > 0


def test_automorphism_test_maps_a_class_onto_its_pinned_image():
    """``search._match`` with a pin (c, d) on one net's side returns a map
    that sends class c onto class d, or None; it finds one for every pair
    of classes of C6, and none from a cycle's class onto a class of a
    different component size."""
    for net, pairs in [(cycle_net(6, "c"), [(0, d) for d in range(6)]),
                       (union(cycle_net(3, "a"), cycle_net(4, "b")), [(0, 6)])]:
        side = search._side(*search._twin_classes(net))
        members = side[2]
        for c, d in pairs:
            found = search._match(side, side, Counter(side[3]), [0], (c, d))
            if len(net.conditions) == 6:
                assert is_valid_witness(net, net, *found)
                assert {found[0][b] for b in members[c]} == set(members[d])
            else:
                assert found is None
