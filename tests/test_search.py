import random

from petripoly import are_isomorphic, canonical_poly

from helpers import cycle_net, relabeled_copy, search_nodes, sparse_net, union


def test_both_searches_visit_a_fixed_number_of_nodes():
    """Steps pushed onto ``search._depth_first``'s stack, the root not
    counted, so that a change to either search's order, candidates or cuts
    shows even where its results stay the same.  On a relabeled copy
    ``are_isomorphic`` pushes one step per twin class: each class past a
    component's first takes its candidates from the classes around its
    neighbour's image, not from every class of its signature.  Where the
    component sizes refute a pair, it pushes none."""
    for n, nodes in [(6, 35), (7, 57), (8, 79), (16, 816)]:
        assert search_nodes(canonical_poly, cycle_net(n, "c"))[1] == nodes
    sparse = sparse_net(random.Random("sparse/12/1"), 12, 12)
    assert search_nodes(canonical_poly, sparse)[1] == 26280
    c80 = cycle_net(80, "c")
    for n1, n2, nodes in [(c80, relabeled_copy(random.Random(80), c80), 80),
                          (c80, union(cycle_net(40, "a"), cycle_net(40, "b")), 0),
                          (sparse, relabeled_copy(random.Random(1), sparse), 12)]:
        witness, pushed = search_nodes(are_isomorphic, n1, n2)
        assert (witness is not None, pushed) == (nodes > 0, nodes)
