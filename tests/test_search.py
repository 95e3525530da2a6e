import random
from collections import defaultdict

import pytest

from petripoly import (Event, PetriNet, PreconditionError, are_isomorphic, canonical_poly, encode,
                       product, search)

from helpers import (ROOK, SHRIKHANDE, canonical_oracle, check_scope, collected, cubic_net, cycle_net,
                     is_valid_witness, relabeled_copy, sparse_net, split_oracle, twin_block_net, union,
                     vertex_profiles)


def test_both_searches_visit_a_fixed_number_of_nodes():
    """Steps pushed onto ``search._depth_first``'s stack, the root not
    counted, as the collector's ``pushes.search`` (``canonical_poly``'s
    labeling steps) and ``pushes.extend`` (the class matcher's), so that a
    change to either search's order, candidates or cuts shows even where
    its results stay the same.  ``canonical_poly`` first dives greedily,
    one level per condition and no push, and then searches from the root
    below the dive's key: C6, C7, C8 and C16 push 6, 7, 8 and 231 labeling
    steps, and their automorphism tests n - 1 matcher steps after one that
    fails; 2xC6 pushes 41 and 23.  On a relabeled copy ``are_isomorphic``
    pushes one step per class whose signature is shared: each such class
    past a component's first takes its candidates from the classes around
    its parent's image, not from every class of its signature, and a class
    of a signature of its own goes onto its image without a step.  So the
    relabeled C80 pushes 80, the sparse 8-condition net, with one signature
    shared by two classes, pushes 2, and ``sparse/12/1``, where every class
    has a signature of its own, pushes none.  Where the component sizes
    refute a pair, it pushes none either.  On the graph nets of regular
    graphs every condition has one signature, so only the pair check
    cuts, and the pushes are the counts a refining matcher has to beat:
    the rook's graph and the Shrikhande graph, both strongly regular
    (16, 6, 2, 2), and two cubic graphs on 20 vertices are told apart by
    their vertex profiles, not by the search under test."""
    sparse = sparse_net(random.Random("sparse/12/1"), 12, 12)
    # b0 ~ b5 and b2 ~ b6 share signatures, but below the dive's key only
    # b0 and b5 tie at the root; their automorphism test fails after one
    # matcher step, when a pair check refutes it.  Before the dive, both
    # pairs tied and each test failed so (17 + 2)
    tied = PetriNet([f"b{k}" for k in range(7)], [
        Event("e0", {"b3"}, {"b1"}), Event("e1", {"b4", "b6"}, {"b0", "b3"}),
        Event("e2", {"b1", "b2"}, {"b4", "b5"})])
    for net, pushed in [(cycle_net(6, "c"), (6, 6)), (cycle_net(7, "c"), (7, 7)),
                        (cycle_net(8, "c"), (8, 8)), (cycle_net(16, "c"), (231, 16)),
                        (union(cycle_net(6, "a"), cycle_net(6, "b")), (41, 23)),
                        (sparse, (26277, 0)), (tied, (8, 1))]:
        tally = collected(canonical_poly, net)[1]
        assert (tally["pushes.search"], tally["pushes.extend"]) == pushed
        assert tally["dive.levels"] == len(net.conditions)
    c80 = cycle_net(80, "c")
    rng = random.Random(15)
    partly = sparse_net(rng, 8, 8)
    cubic, other = (cubic_net(random.Random(f"cubic/20/{k}"), 20) for k in (1, 2))
    assert vertex_profiles(ROOK) != vertex_profiles(SHRIKHANDE)
    assert vertex_profiles(cubic) != vertex_profiles(other)
    for n1, n2, found, nodes in [(c80, relabeled_copy(random.Random(80), c80), True, 80),
                                 (c80, union(cycle_net(40, "a"), cycle_net(40, "b")), False, 0),
                                 (partly, relabeled_copy(rng, partly), True, 2),
                                 (sparse, relabeled_copy(random.Random(1), sparse), True, 0),
                                 (ROOK, SHRIKHANDE, False, 38512),
                                 (ROOK, relabeled_copy(random.Random("rook"), ROOK), True, 32),
                                 (cubic, relabeled_copy(random.Random("cubic"), cubic), True, 1563),
                                 (cubic, other, False, 1436)]:
        witness, tally = collected(are_isomorphic, n1, n2)
        assert (witness is not None, tally["pushes.search"], tally["pushes.extend"]) == (found, 0, nodes)
        assert witness is None or is_valid_witness(n1, n2, *witness)


def cube_net(doubled):
    """A net on the 3-cube Q3: conditions q0 ... q7, and per edge (p, p ^ 2^d)
    from an even-parity vertex p one (pre, post) group ({q_p}, {q_(p ^ 2^d)})
    with one event, or two on the edges of the perfect matching doubled."""
    events = []
    for p in (0, 3, 5, 6):
        for q in (p ^ 1, p ^ 2, p ^ 4):
            events += [Event(f"e{p}{q}{k}", {f"q{p}"}, {f"q{q}"}) for k in range(1 + ((p, q) in doubled))]
    return PetriNet([f"q{v}" for v in range(8)], events)


def test_class_matcher_checks_each_pair_by_its_images_event_count():
    """Two nets on Q3 that agree in every signature and in their component
    sizes: every condition lies in three groups, one of them of two events.
    They are not isomorphic, since the one-event edges form two 4-cycles in
    the first and one 8-cycle in the second, and only the matcher's one cut,
    a pair whose image has another number of events, refutes each map; it
    does so after 48 pushes.  A matcher that asked only for some image
    would return a map that is no witness.  Doubling another coordinate's
    edges gives a net isomorphic to the first."""
    first = cube_net({(0, 1), (3, 2), (5, 4), (6, 7)})
    witness, tally = collected(are_isomorphic, first, cube_net({(0, 2), (3, 7), (5, 1), (6, 4)}))
    assert (witness, tally["pushes.search"], tally["pushes.extend"]) == (None, 0, 48)
    other = cube_net({(0, 2), (3, 1), (5, 7), (6, 4)})
    witness = are_isomorphic(first, other)
    assert witness is not None and is_valid_witness(first, other, *witness)


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


def test_canonical_poly_of_a_product_is_its_least_split():
    """On products of two components with 8 to 10 conditions in all,
    beyond ``canonical_oracle``'s n! labelings, ``canonical_poly`` is the
    least product of the factors' least encodings over the splits of the
    labels, as ``helpers.split_oracle`` finds it: a product of a net with
    itself, of cycles, of sparse nets, and of a net with two components."""
    rng = random.Random("split")
    sparse5 = sparse_net(rng, 5, 5)
    for n1, n2 in [(cycle_net(4, "a"), cycle_net(4, "b")), (sparse5, sparse5),
                   (cycle_net(3, "a"), sparse_net(rng, 5, 6)), (sparse_net(rng, 4, 4), sparse_net(rng, 5, 4)),
                   (union(cycle_net(2, "a"), cycle_net(2, "b")), sparse_net(rng, 4, 3)),
                   (sparse_net(rng, 2, 2), sparse_net(rng, 6, 5))]:
        net = product(n1, n2)
        assert 8 <= len(net.conditions) <= 10
        assert canonical_poly(net) == split_oracle(n1, n2)


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
    was given and kept, and the condition map of each automorphism test it
    ran, or None where the test found none."""
    tests, sizes = [], []
    match, orbits = search._match, search._orbits

    def recorded_match(a, b, work):
        found = match(a, b, work)
        tests.append(found and found[1])
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


def witness_of(net, beta):
    """(beta, eta) for a condition map beta of net onto itself: eta pairs
    each (pre, post) pair's events, in event order, with those of the
    pair's image under beta, and leaves them out where it has none."""
    groups = defaultdict(list)
    for event in net.events:
        groups[event.pre, event.post].append(event.id)
    images = {pair: groups.get((frozenset(map(beta.get, pair[0])), frozenset(map(beta.get, pair[1]))), ())
              for pair in groups}
    return beta, {e: f for pair, ids in groups.items() for e, f in zip(ids, images[pair])}


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
        for beta in tests:
            assert beta is None or is_valid_witness(net, net, *witness_of(net, beta))
        skipped += sum(given - kept for given, kept in sizes)
        refuted += sum(beta is None for beta in tests)
    assert skipped > 0 and refuted > 0


def individualized(side, c):
    """A ``search._signed`` side in which class c has the signature -1 of
    its own, as ``search._orbits`` gives it."""
    sigs = list(side[3])
    sigs[c] = -1
    return (*side[:3], sigs, side[4])


def test_automorphism_test_maps_an_individualized_class_onto_its_image():
    """``search._match`` on two signed sides of one net, class c
    individualized on the first and class d on the second, returns a class
    map and a condition map that send c onto d, with the image of every
    (pre, post) pair, or None; it finds one for every pair of classes of
    C6, and none from a cycle's class onto a class of a different
    component size."""
    for net, pairs in [(cycle_net(6, "c"), [(0, d) for d in range(6)]),
                       (union(cycle_net(3, "a"), cycle_net(4, "b")), [(0, 6)])]:
        (side,) = search._signed(search._side(net))
        members = side[2]
        for c, d in pairs:
            first, second = individualized(side, c), individualized(side, d)
            found = search._match(first, second, [0])
            if len(net.conditions) == 6:
                image, beta, images = found
                assert image[c] == d
                assert is_valid_witness(net, net, *witness_of(net, beta))
                groups = side[0]
                assert images == {(pre, post): groups[frozenset(map(beta.get, pre)),
                                                      frozenset(map(beta.get, post))]
                                  for pre, post in groups}
                assert {beta[b] for b in members[c]} == set(members[d])
            else:
                assert found is None


def test_canonical_poly_signs_the_classes_only_at_a_tie_of_root_bounds(monkeypatch):
    """``canonical_poly`` builds the classes' signatures for ``_orbits``
    only once two root children below the dive's key tie in bound: never on
    a net whose root children all differ in bound, once on C6, whose six
    tie."""
    calls = []
    signed = search._signed
    monkeypatch.setattr(search, "_signed", lambda *sides: calls.append(len(sides)) or signed(*sides))
    chain = PetriNet(["a", "b", "c"], [Event("e0", {"a"}, {"b"}), Event("e1", {"b"}, {"c"})])
    assert canonical_poly(chain) == canonical_oracle(chain)
    assert calls == []
    assert canonical_poly(cycle_net(6, "c")) == canonical_oracle(cycle_net(6, "c"))
    assert calls == [1]


@pytest.mark.parametrize("n, m", [(1, 6), (2, 4), (3, 2)])
def test_every_small_net_in_the_bounded_scope(n, m):
    """``helpers.check_scope`` on every net of n conditions, all used, and
    1 to m events: 83, 1 961 and 354 classes up to isomorphism.  The row
    n = 3, m = 3 (43 371 nets, 7 810 classes) runs in ``slow_scope.py``."""
    check_scope(n, m)
