import random
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from petripoly import (
    ONE,
    Event,
    PetriNet,
    PreconditionError,
    are_isomorphic,
    canonical_poly,
    decode,
    decompose,
    encode,
    isolated_conditions,
    parse_poly,
    print_poly,
    roundtrip_check,
    validate,
)

from helpers import (
    canonical_oracle,
    cycle_net,
    encode_oracle,
    folded_product,
    is_valid_witness,
    random_labeling,
    random_net,
    random_poly_terms,
    relabeled_copy,
    rename_conditions,
    search_nodes,
    sparse_net,
    union,
)
from petripoly import Polynomial


def compact(net):
    return {b: t for t, b in enumerate(sorted(net.conditions))}


# ----------------------------------------------------------------- encode

def test_encode_parallel_join(parallel_join_net):
    labels = {f"b{k}": k for k in range(5)}
    assert encode(parallel_join_net, labels) == parse_poly(
        "2*x*y^4 + 3*x^2*y^8 + x^12*y^16 + 1"
    )


def test_encode_relay(relay_net):
    assert encode(relay_net, {"b0": 0, "b1": 1}) == parse_poly("x + x*y^2 + y^2 + 1")


def test_encode_empty_net():
    assert encode(PetriNet(), {}) == ONE


def test_encode_counts_idle_signature_events():
    net = PetriNet([], [Event("e1"), Event("e2")])
    assert encode(net, {}) == parse_poly("3")


def test_encode_never_expands_an_isolated_condition_label():
    net = PetriNet(["b", "far"], [Event("e", {"b"}, set())])
    tracemalloc.start()
    try:
        poly = encode(net, {"b": 0, "far": 80_000_000})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert poly == parse_poly("x + 1")
    assert peak < 1 << 20  # 2^(8*10^7) alone would take 10 MiB


def test_encode_matches_oracle():
    """Folded products, whose events share their sets; decoded nets; and
    random nets whose isolated conditions carry labels of 10^30, which
    encode must never expand (2^(10^30) cannot be made)."""
    rng = random.Random(43)
    cases = []
    for k in [2, 3, 4, 5] * 10:
        net = folded_product(rng, k)
        cases.append((net, random_labeling(rng, net)))
    for _ in range(60):
        cases.append(decode(Polynomial(random_poly_terms(rng, max_support=8, max_terms=8))))
    huge = 0
    for _ in range(60):
        net = random_net(rng, max_conditions=6, max_events=4, keep_isolated=True)
        labeling = random_labeling(rng, net)
        for k, b in enumerate(sorted(isolated_conditions(net))):
            labeling[b] = 10**30 + k
            huge += 1
        cases.append((net, labeling))
    assert huge > 20
    for net, labeling in cases:
        assert encode(net, labeling).terms == encode_oracle(net, labeling)


def test_encode_rejects_bad_labeling(relay_net):
    with pytest.raises(PreconditionError):
        encode(relay_net, {"b0": 0})
    with pytest.raises(PreconditionError):
        encode(relay_net, {"b0": 1, "b1": 1})
    with pytest.raises(PreconditionError, match="label of condition 'b1' is too large to encode"):
        encode(relay_net, {"b0": 0, "b1": 10**30})  # 2^label would overflow the shift


def test_readme_library_block():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("\n```", 1)[0]
    scope = {}
    exec(block, scope)
    assert "# x*y^2 + 1\n" in block and str(scope["poly"]) == "x*y^2 + 1"
    assert "# [x*y^2 + 1]" in block and list(map(str, decompose(scope["poly"]))) == ["x*y^2 + 1"]
    assert "isomorphic to `net`" in block and are_isomorphic(scope["back"], scope["net"])


# ----------------------------------------------------------------- decode

def test_decode_golden():
    net, labels = decode(parse_poly("x^3*y^3 + 2*x^2 + y + 2"))
    assert labels == {"c0": 0, "c1": 1}
    assert net.conditions == {"c0", "c1"}
    signatures = Counter(
        (frozenset(labels[b] for b in e.pre), frozenset(labels[b] for b in e.post))
        for e in net.events
    )
    assert signatures == Counter(
        {
            (frozenset({0, 1}), frozenset({0, 1})): 1,
            (frozenset({1}), frozenset()): 2,
            (frozenset(), frozenset({0})): 1,
            (frozenset(), frozenset()): 1,
        }
    )
    assert [e.id for e in net.events] == [
        "e1_(3,3)", "e1_(2,0)", "e2_(2,0)", "e1_(0,1)", "e1_(0,0)",
    ]


def test_decode_unit_is_empty_net():
    net, labels = decode(ONE)
    assert net == PetriNet()
    assert labels == {}


def test_decode_single_consumer():
    net, labels = decode(parse_poly("x + 1"))
    assert labels == {"c0": 0}
    assert len(net.events) == 1
    assert net.events[0].pre == {"c0"} and net.events[0].post == frozenset()


def test_decode_requires_idle_event():
    for text in ("0", "x", "x^2 + y"):
        with pytest.raises(PreconditionError):
            decode(parse_poly(text))


def test_decode_output_is_structurally_sound():
    rng = random.Random(43)
    for _ in range(50):
        poly = Polynomial(random_poly_terms(rng))
        net, labels = decode(poly)
        validate(net)  # must not raise
        assert encode(net, labels) == poly


# ---------------------------------------------------------- canonical form

def test_canonical_poly_empty_net():
    assert canonical_poly(PetriNet()) == ONE


def test_canonical_poly_relay(relay_net):
    # the two labelings give x+xy^2+y^2+1 and x^2+x^2y+y+1; the first is smaller
    assert canonical_poly(relay_net) == parse_poly("x + x*y^2 + y^2 + 1")


def test_canonical_poly_ignores_labeling_and_names():
    rng = random.Random(59)
    for _ in range(25):
        net = random_net(rng, max_conditions=4, max_events=4)
        ids = sorted(net.conditions)
        shuffled = ids[:]
        rng.shuffle(shuffled)
        renamed = rename_conditions(net, dict(zip(ids, shuffled)))
        assert canonical_poly(net) == canonical_poly(renamed)


def test_canonical_poly_is_minimal(relay_net):
    from itertools import permutations

    conds = sorted(relay_net.conditions)
    all_encodings = [
        encode(relay_net, dict(zip(conds, perm)))
        for perm in permutations(range(len(conds)))
    ]
    best = canonical_poly(relay_net)
    assert all(best.sort_key() <= p.sort_key() for p in all_encodings)
    assert best in all_encodings


def oracle_corpus():
    """Seeded nets of at most 6 conditions, every kind the search treats
    specially: isolated conditions, parallel events, empty pre- or
    post-sets, unions of cycles; plus the 7-cycle."""
    rng = random.Random(71)
    nets = [cycle_net(7, "c")]
    for k in range(600):
        net = random_net(rng, max_conditions=6, max_events=7, keep_isolated=k % 2 == 0)
        if k % 4 == 1:  # repeat some events
            repeats = [Event(f"r{j}", e.pre, e.post)
                       for j, e in enumerate(rng.choices(net.events, k=2 if net.events else 0))]
            net = PetriNet(net.conditions, net.events + tuple(repeats))
        nets.append(net)
    for sizes in [(1,), (2,), (6,), (1, 1), (1, 5), (2, 4), (3, 3), (1, 2, 3), (2, 2, 2)]:
        nets.append(union(*(cycle_net(n, f"c{k}_") for k, n in enumerate(sizes))))
    return nets


def test_canonical_poly_matches_oracle():
    nets = oracle_corpus()
    assert len(nets) >= 300
    assert any(isolated_conditions(net) for net in nets)
    assert any(len({(e.pre, e.post) for e in net.events}) < len(net.events) for net in nets)
    assert any(not e.pre and e.post for net in nets for e in net.events)
    assert any(e.pre and not e.post for net in nets for e in net.events)
    for net in nets:
        assert canonical_poly(net) == canonical_oracle(net)


def test_canonical_poly_at_the_packed_fields_limits():
    """canonical_poly packs each term's (grade, i, coeff) into one int, with
    a field of w bits for i and for coeff.  Nets of 0-4 conditions whose
    events repeat up to 300 times, so that a coefficient needs more bits
    than the condition count; events with empty pre and post, which join
    the idle term (255 of them make its coefficient 256); full pre and post
    sets, which make the largest i."""
    rng = random.Random(1900)
    for n in range(5):
        conditions = [f"b{k}" for k in range(n)]
        nets = [PetriNet(conditions, [Event(f"e{r}", (), ()) for r in range(255)]),
                PetriNet(conditions, [Event(f"e{r}", conditions, conditions) for r in range(300)])]
        for _ in range(12):
            events = []
            for k in range(rng.randint(1, 3)):
                pre, post = (rng.choice([(), conditions, rng.sample(conditions, rng.randint(0, n))])
                             for _ in range(2))
                events += [Event(f"e{k}_{r}", pre, post)
                           for r in range(rng.choice([1, 2, 255, 256, 300]))]
            nets.append(PetriNet(conditions, events))
        for net in nets:
            assert canonical_poly(net) == canonical_oracle(net)


def test_canonical_poly_beyond_the_sweep():
    """Nets of 9 to 25 conditions, where the n! sweep is out of reach.  Each
    net's pushes onto the search driver's stack are bounded beside its time."""
    rng = random.Random(73)
    nets = [union(cycle_net(5, "c"), PetriNet([f"i{k}" for k in range(20)]))]
    while len(nets) < 4:
        net = random_net(rng, max_conditions=10, max_events=10)
        if len(net.conditions) >= 9:
            nets.append(net)
    # the benchmark's sparse shape, 1-2 pre and 1-2 post conditions per event
    sparse = [sparse_net(random.Random(f"sparse/12/{k}"), 12, 12) for k in range(3)]
    for net, most in zip(nets + sparse, [47, 42, 5957, 154, 124, 26280, 173]):
        start = time.perf_counter()
        canon, pushed = search_nodes(canonical_poly, net)
        assert time.perf_counter() - start < 60
        assert pushed.total() <= most
        if net is sparse[1]:  # the slowest known 12-condition net: 26 281 search nodes
            assert print_poly(canon) == (
                "x^2048*y^3 + x^4*y^1040 + x^1024*y^17 + x^16*y^1024 + x^1028*y^10"
                " + x^8*y^1024 + x^1024*y^2 + x^2*y^1024 + x^512*y^48 + x^520*y^4"
                " + x^66*y^416 + x^2*y^128 + 1")
        used = net.conditions - isolated_conditions(net)
        assert canon.support() == frozenset(range(len(used)))
        assert canon <= encode(net, {b: t for t, b in enumerate(sorted(net.conditions))})
        decoded, _ = decode(canon)
        assert are_isomorphic(decoded, PetriNet(used, net.events)) is not None
        for _ in range(3):
            assert canonical_poly(relabeled_copy(rng, net)) == canon


def cycle_closed_form(n):
    """C_n's canonical polynomial: walked against its arrows from the
    condition labeled 0, the labels read 0, n-1, 1, n-2, 2, ..."""
    walk = [k // 2 if k % 2 == 0 else n - 1 - k // 2 for k in range(n)]
    return Polynomial([((0, 0), 1)] + [((1 << walk[(k + 1) % n], 1 << walk[k]), 1)
                                       for k in range(n)])


def test_canonical_poly_of_cycles_has_closed_form():
    for n in range(1, 9):
        assert cycle_closed_form(n) == canonical_oracle(cycle_net(n, "c"))
    # beyond the n! sweep
    for n in range(9, 17):
        assert canonical_poly(cycle_net(n, "c")) == cycle_closed_form(n)
    copy = relabeled_copy(random.Random(16), cycle_net(16, "c"))
    assert canonical_poly(copy) == cycle_closed_form(16)


def test_canonical_poly_of_deep_pre_blocks():
    """Three events whose pre-sets are disjoint 400-condition blocks: three
    twin classes, whose 1200 conditions the search labels one per step,
    deeper than the interpreter's recursion limit.  The first block takes
    the top label and the bottom 399, the second the next label down and the
    next 399 up, the third the 400 in between."""
    blocks = [[f"b{k}_{j}" for j in range(400)] for k in range(3)]
    net = PetriNet([b for block in blocks for b in block],
                   [Event(f"e{k}", block, ()) for k, block in enumerate(blocks)])
    closed = Polynomial({(0, 0): 1, (2**1199 + 2**399 - 1, 0): 1,
                         (2**1198 + 2**798 - 2**399, 0): 1, (2**1198 - 2**798, 0): 1})
    assert canonical_poly(net) == closed
    assert canonical_poly(relabeled_copy(random.Random(1200), net)) == closed


def test_decoded_canonical_cycle_is_isomorphic_to_the_cycle():
    """The net decoded from C16's canonical polynomial, passed first.  Both
    nets name their conditions c0 ... c15, and a search that mapped them in
    string order (c0, c1, c10, ...) took 8 s to find the witness.  The
    pushes are bounded beside the time."""
    cycle = cycle_net(16, "c")
    decoded, _ = decode(canonical_poly(cycle))
    start = time.perf_counter()
    witness, pushed = search_nodes(are_isomorphic, decoded, cycle)
    assert time.perf_counter() - start < 1
    assert witness is not None and is_valid_witness(decoded, cycle, *witness)
    assert pushed.total() <= 17  # one per condition and one more


# -------------------------------------------------------------- round trip

def test_roundtrip_parallel_join(parallel_join_net):
    assert roundtrip_check(parallel_join_net, {f"b{k}": k for k in range(5)})


def test_roundtrip_empty_net():
    assert roundtrip_check(PetriNet(), {})


def test_roundtrip_ignores_isolated_conditions():
    net = PetriNet(["a", "ghost"], [Event("e", {"a"}, {"a"})])
    assert roundtrip_check(net, {"a": 0, "ghost": 1})


def test_roundtrip_random_nets():
    rng = random.Random(61)
    for _ in range(60):
        net = random_net(rng)
        assert roundtrip_check(net, random_labeling(rng, net))


def test_relabeling_permutes_bits():
    """Two labelings of one net encode to polynomials of equal shape:
    same coefficient multiset, supports of equal size."""
    rng = random.Random(67)
    for _ in range(30):
        net = random_net(rng, max_conditions=4, max_events=4)
        p1 = encode(net, random_labeling(rng, net))
        p2 = encode(net, random_labeling(rng, net))
        assert sorted(p1.terms.values()) == sorted(p2.terms.values())
        assert len(p1.support()) == len(p2.support())
