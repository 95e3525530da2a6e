import copy
import json
import pickle
import random
import time
from collections import Counter, defaultdict
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petripoly import (
    Event,
    NetStructureError,
    ParseError,
    PetriNet,
    PreconditionError,
    are_isomorphic,
    attach,
    check_labeling,
    isolated_conditions,
    product,
    read_net,
    to_dot,
    validate,
    write_net,
)
from petripoly import net as net_module

from helpers import (
    attach_oracle,
    collected,
    cycle_net,
    disjoint_labelings,
    folded_product,
    is_valid_witness,
    iso_oracle,
    map_net,
    net_document,
    product_oracle,
    random_labeling,
    random_net,
    relabeled_copy,
    rename_conditions,
    twin_block_net,
    union,
    winskel_morphisms,
)


# ------------------------------------------------------------------ Event

def test_event_keeps_frozensets_and_coerces_other_iterables():
    pre, post = frozenset({"a", "b"}), frozenset({"c"})
    event = Event("e", pre, post)
    assert event.pre is pre and event.post is post
    coerced = Event("e", ["b", "a", "a"], {"c"})
    assert type(coerced.pre) is frozenset and type(coerced.post) is frozenset
    assert coerced == event and event == coerced
    assert hash(coerced) == hash(event)
    assert repr(event) == f"Event(id='e', pre={pre!r}, post={post!r})"
    assert Event("e") == Event("e", frozenset(), frozenset())
    with pytest.raises(FrozenInstanceError):
        event.pre = frozenset()
    moved = Event(event.id, event.pre, {"d"})
    assert moved == Event("e", pre, frozenset({"d"})) and moved.pre is pre


def document(conditions, events):
    """The net document of conditions and (id, pre, post) events, which
    need not make a well-formed net."""
    return json.dumps({"conditions": [{"id": b} for b in sorted(set(conditions))],
                       "events": [{"id": e, "pre": sorted(pre), "post": sorted(post)}
                                  for e, pre, post in events]})


_SHARED = frozenset({"zz", "a"})  # one dangling side object, shared by several events


@pytest.mark.parametrize("events, message", [
    ([("e", {"zz"}, set())], "event 'e' references unknown condition 'zz'"),
    ([("e", {"a"}, set()), ("e", set(), {"a"})], "duplicate event id 'e'"),
    # the first unknown condition in sorted order, of the first event that has one
    ([("e", {"zz", "a"}, {"yy"}), ("f", {"xx"}, set())],
     "event 'e' references unknown condition 'yy'"),
    # both faults: the duplicate is reported
    ([("e", {"zz"}, set()), ("f", set(), set()), ("f", set(), set())], "duplicate event id 'f'"),
    # a shared dangling side: the first event in event order that uses it, as pre or post
    ([("e", {"a"}, set()), ("f", _SHARED, set()), ("g", _SHARED, _SHARED)],
     "event 'f' references unknown condition 'zz'"),
    ([("e", {"a"}, {"a"}), ("f", {"a"}, _SHARED), ("g", _SHARED, set())],
     "event 'f' references unknown condition 'zz'"),
    ([("e", {"a"}, set()), ("f", {"xx"}, set()), ("g", _SHARED, set()), ("h", set(), _SHARED)],
     "event 'f' references unknown condition 'xx'"),
    # a duplicate after a shared dangling side: the duplicate is reported
    ([("e", _SHARED, set()), ("f", set(), _SHARED), ("g", set(), set()), ("g", {"a"}, set())],
     "duplicate event id 'g'"),
], ids=["dangling", "duplicate", "first-dangling", "both", "shared-pre", "shared-post",
        "shared-later", "shared-then-duplicate"])
def test_net_rejects_malformed_structure(events, message):
    """The constructor's message is read_net's for the same document."""
    for build in (lambda: PetriNet(["a"], [Event(*e) for e in events]),
                  lambda: read_net(document(["a"], events))):
        with pytest.raises(NetStructureError) as caught:
            build()
        assert str(caught.value) == message


@pytest.mark.parametrize("conditions, events, message", [
    ([1, "a"], [], "condition id must be a string"),
    ([["a"]], [], "condition id must be a string"),  # unhashable
    (["a", ("a",)], [(7, {"a"}, set())], "condition id must be a string"),
    (["a"], [("e", {"a"}, set()), (7, set(), {"a"})], "event id must be a string"),
    (["a"], [(["e"], {"a"}, set())], "event id must be a string"),  # unhashable
    # an id read_net rejects while it parses goes before a duplicate, as there
    (["a"], [("e", set(), set()), ("e", set(), set()), (None, set(), set())],
     "event id must be a string"),
], ids=["condition", "condition-unhashable", "condition-first", "event", "event-unhashable",
        "event-before-duplicate"])
def test_net_rejects_ids_that_are_not_strings(conditions, events, message):
    """The constructor's message is read_net's for the same document."""
    doc = json.dumps({"conditions": [{"id": b} for b in conditions],
                      "events": [{"id": e, "pre": sorted(pre), "post": sorted(post)}
                                 for e, pre, post in events]})
    for build in (lambda: PetriNet(conditions, [Event(*e) for e in events]),
                  lambda: read_net(doc)):
        with pytest.raises(NetStructureError) as caught:
            build()
        assert str(caught.value) == message


def test_net_checks_condition_ids_before_reading_events():
    """A bad condition id is named whatever the events are, even when
    they are no iterable; with good condition ids that stays a TypeError."""
    with pytest.raises(NetStructureError, match="^condition id must be a string$"):
        PetriNet(["a", 1], 5)
    with pytest.raises(TypeError):
        PetriNet(["a"], 5)


@pytest.mark.parametrize("pre, post, side", [([["a"]], [], "pre"), (["a"], [["b"]], "post")],
                         ids=["pre", "post"])
def test_event_rejects_unhashable_condition_ids(pre, post, side):
    """An unhashable entry of either side is no string: the constructor
    raises read_net's message for the same document, not a bare
    TypeError."""
    doc = json.dumps({"conditions": [{"id": "a"}, {"id": "b"}],
                      "events": [{"id": "e", "pre": pre, "post": post}]})
    for build in (lambda: Event("e", pre, post), lambda: read_net(doc)):
        with pytest.raises(NetStructureError) as caught:
            build()
        assert str(caught.value) == f"event 'e': {side} entries must be strings"


def test_net_names_a_dangling_reference_that_is_not_a_string():
    """A side that mixes strings and other ids names its first dangling
    string; one without strings names its first id by str, never comparing
    ids of different types.  read_net rejects such a side while it parses."""
    for pre, unknown in [({1, "b", "zz"}, "'b'"), ({2.5, 10, (1,)}, "(1,)"), ({1}, "1")]:
        with pytest.raises(NetStructureError) as caught:
            PetriNet(["a"], [Event("e", {"a"}), Event("f", pre, {"a"})])
        assert str(caught.value) == f"event 'f' references unknown condition {unknown}"


_IDS = st.sampled_from(["a", "b", "c"])  # few ids, so that references dangle and ids repeat


@settings(max_examples=300)
@given(st.lists(_IDS, max_size=3),
       st.lists(st.tuples(_IDS, st.frozensets(_IDS), st.frozensets(_IDS)), max_size=4),
       st.randoms(use_true_random=False))
def test_built_nets_are_well_formed(conditions, events, rng):
    """A net either fails to build with read_net's message for the same
    document, or writes, reads back, validates and matches a relabeled copy."""
    try:
        net = PetriNet(conditions, [Event(*event) for event in events])
    except NetStructureError as exc:
        with pytest.raises(NetStructureError) as caught:
            read_net(document(conditions, events))
        assert str(caught.value) == str(exc)
        return
    assert read_net(write_net(net)) == (net, None)
    validate(net)
    copy = relabeled_copy(rng, net)
    assert is_valid_witness(net, copy, *are_isomorphic(net, copy))


def test_net_keeps_frozenset_and_tuple_and_coerces_other_iterables():
    conditions, events = frozenset({"a", "b"}), (Event("e", {"a"}, {"b"}),)
    net = PetriNet(conditions, events)
    assert net.conditions is conditions and net.events is events
    coerced = PetriNet(["b", "a", "a"], list(events))
    assert type(coerced.conditions) is frozenset and type(coerced.events) is tuple
    assert coerced == net and net == coerced
    assert hash(coerced) == hash(net)
    assert repr(net) == f"PetriNet(conditions={conditions!r}, events={events!r})"
    assert PetriNet() == PetriNet(frozenset(), ())
    with pytest.raises(FrozenInstanceError):
        net.events = ()
    moved = PetriNet(net.conditions, [])
    assert moved == PetriNet(conditions) and moved.conditions is conditions


def test_event_and_net_keep_the_dataclass_protocol():
    """What the two classes keep of a frozen dataclass besides repr, == and
    hash, and what those three must keep of it."""
    event = Event("e", {"a"}, {"b"})
    net = PetriNet({"a", "b"}, [event])
    match net:
        case PetriNet(conditions, (Event(e, pre, post),)):
            assert (conditions, e, pre, post) == ({"a", "b"}, "e", {"a"}, {"b"})
        case _:
            pytest.fail("no match by __match_args__")
    for obj, name in ((event, "pre"), (net, "events")):
        with pytest.raises(FrozenInstanceError):
            delattr(obj, name)
    assert (Event("e") == ("e", frozenset(), frozenset())) is False
    assert (PetriNet() == (frozenset(), ())) is False

    class Tagged(Event):
        pass

    class Sub(PetriNet):
        pass

    assert repr(Tagged("e")) == f"{Tagged.__qualname__}(id='e', pre=frozenset(), post=frozenset())"
    assert repr(Sub()).startswith(f"{Sub.__qualname__}(conditions=")
    assert Tagged("e") != Event("e") and Sub() != PetriNet()


class EventSubclass(Event):
    """At module level, where pickle can find it."""


@pytest.mark.parametrize("obj", [
    Event("e", {"a"}, {"b"}),
    PetriNet({"a", "b"}, [Event("e", {"a"}, {"b"}), Event("f")]),
    EventSubclass("t", {"a"}),
], ids=["event", "net", "subclass"])
def test_copy_and_pickle_rebuild_an_equal_object_of_the_same_type(obj):
    """Each copy is rebuilt through the constructor, so the frozen
    __setattr__ never runs."""
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is type(obj) and twin == obj and hash(twin) == hash(obj)


@pytest.mark.parametrize("cls", [Event, PetriNet])
def test_repr_eq_and_hash_are_written_in_net_py(cls):
    """No generated source: the three methods are the ones net.py spells out."""
    for name in ("__repr__", "__eq__", "__hash__"):
        assert getattr(cls, name).__code__.co_filename == net_module.__file__, name


# --------------------------------------------------------------- validate

def test_validate_clean_net(coupled_cycles_net):
    assert validate(coupled_cycles_net) == []


def test_validate_isolated_condition_warning():
    net = PetriNet(["c", "a"], [Event("e", {"a"}, {"a"})])
    assert validate(net) == ["isolated condition c"]
    assert isolated_conditions(net) == {"c"}


def test_validate_empty_pre_warning():
    net = PetriNet(["a"], [Event("e", set(), {"a"})])
    assert validate(net) == ["event e has empty pre"]


def test_check_labeling_errors(relay_net):
    with pytest.raises(PreconditionError):
        check_labeling(relay_net, {"b0": 0})  # wrong domain
    with pytest.raises(PreconditionError):
        check_labeling(relay_net, {"b0": 0, "b1": 0})  # not injective
    with pytest.raises(PreconditionError):
        check_labeling(relay_net, {"b0": 0, "b1": -1})
    check_labeling(relay_net, {"b0": 5, "b1": 0})


# ---------------------------------------------------------------- product

def test_product_of_small_pair(self_loop_net, produce_consume_net,
                               synchronized_reference_net):
    result = product(self_loop_net, produce_consume_net)
    assert [e.id for e in result.events] == [
        "(a,*)", "(a,b)", "(a,c)", "(*,b)", "(*,c)",
    ]
    assert result.conditions == {"L:p0", "R:q1"}
    by_id = {e.id: e for e in result.events}
    assert by_id["(a,b)"].pre == {"L:p0"}
    assert by_id["(a,b)"].post == {"L:p0", "R:q1"}
    assert by_id["(a,c)"].pre == {"L:p0", "R:q1"}
    assert are_isomorphic(result, synchronized_reference_net) is not None


def test_product_with_empty_net_is_unit(relay_net):
    empty = PetriNet()
    assert are_isomorphic(product(relay_net, empty), relay_net) is not None
    assert are_isomorphic(product(empty, relay_net), relay_net) is not None


def test_product_counts():
    rng = random.Random(7)
    for _ in range(25):
        n1 = random_net(rng, max_conditions=3, max_events=3, keep_isolated=True)
        n2 = random_net(rng, max_conditions=3, max_events=3, keep_isolated=True)
        result = product(n1, n2)
        assert len(result.conditions) == len(n1.conditions) + len(n2.conditions)
        e1, e2 = len(n1.events), len(n2.events)
        assert len(result.events) == e1 * e2 + e1 + e2
        assert validate(result) is not None  # no hard errors raised


def test_product_commutes_and_associates_up_to_iso():
    rng = random.Random(11)
    for _ in range(10):
        n1 = random_net(rng, max_conditions=2, max_events=2)
        n2 = random_net(rng, max_conditions=2, max_events=2)
        n3 = random_net(rng, max_conditions=2, max_events=2)
        assert are_isomorphic(product(n1, n2), product(n2, n1)) is not None
        assert are_isomorphic(
            product(product(n1, n2), n3), product(n1, product(n2, n3))
        ) is not None


def test_product_event_id_collisions_are_renamed():
    # an event literally named "(a,*)" collides with the pairing of event a
    n1 = PetriNet(["p"], [Event("a", {"p"}, set()), Event("(a,*)", {"p"}, set())])
    n2 = PetriNet([], [])
    ids = [e.id for e in product(n1, n2).events]
    assert len(ids) == len(set(ids))


def test_product_matches_oracle():
    rng = random.Random(29)
    names = ["a", "b", "*", "(a,*)", "(*,a)", "(a,b)", "(a,*)#2", "a#2"]

    def net():
        conditions = [f"b{k}" for k in range(rng.randint(0, 3))]  # same ids on both sides
        return PetriNet(conditions, [
            Event(name, rng.sample(conditions, rng.randint(0, len(conditions))),
                  rng.sample(conditions, rng.randint(0, len(conditions))))
            for name in rng.sample(names, rng.randint(0, 4))
        ])

    pairs = [(net(), net()) for _ in range(400)]
    nets = [n for pair in pairs for n in pair]
    events = [e for n in nets for e in n.events]
    assert any(not n.events and not n.conditions for n in nets)
    assert {"*", "(a,*)"} <= {e.id for e in events}
    assert any(not e.pre for e in events) and any(not e.post for e in events)
    renamed = 0
    for n1, n2 in pairs:
        got, want = product(n1, n2), product_oracle(n1, n2)
        assert got.conditions == want.conditions
        assert [(e.id, e.pre, e.post) for e in got.events] == [
            (e.id, e.pre, e.post) for e in want.events
        ]
        renamed += any(e.id.endswith("#2") for e in got.events)  # pair names end in ")"
    assert renamed


def test_product_shares_one_set_per_distinct_side():
    rng = random.Random(41)
    shared = 0
    for k in [2, 3, 4, 5] * 6:
        p = folded_product(rng, k)
        for side in "pre", "post":
            sets = [getattr(e, side) for e in p.events]
            assert len({id(s) for s in sets}) == len(set(sets))
            shared += len(set(sets)) < len(sets)
    assert shared > 30  # most products repeat their sets


def test_product_is_the_categorical_product_for_winskel_morphisms():
    # the paper's theorem: composing with the two projections is a bijection from
    # Hom(n0, n1 x n2) onto Hom(n0, n1) x Hom(n0, n2); the projections are read off
    # product's pair order and its L:/R: tags
    def key(morphism):
        eta, beta = morphism
        return tuple(eta.items()), tuple(sorted(beta.items()))

    def compose(morphism, side, tag):  # the projection onto one side, after the morphism
        eta, beta = morphism
        return ({e: side.get(f) for e, f in eta.items()},
                {b[2:]: b0 for b, b0 in beta.items() if b.startswith(tag)})

    rng = random.Random(47)
    into_products = 0
    for _ in range(150):
        n0, n1, n2 = (random_net(rng, max_conditions=3, max_events=3) for _ in range(3))
        p = product(n1, n2)
        pairs = [(e1, e2) for e1 in [*n1.events, None] for e2 in [None, *n2.events]
                 if e1 is not None or e2 is not None]
        assert len(pairs) == len(p.events)
        left = {f.id: e1.id for f, (e1, _) in zip(p.events, pairs) if e1 is not None}
        right = {f.id: e2.id for f, (_, e2) in zip(p.events, pairs) if e2 is not None}
        homs = winskel_morphisms(n0, p)
        images = {(key(compose(h, left, "L:")), key(compose(h, right, "R:"))) for h in homs}
        assert len(images) == len(homs)
        assert images == {(key(h1), key(h2)) for h1 in winskel_morphisms(n0, n1)
                          for h2 in winskel_morphisms(n0, n2)}
        into_products += len(homs)
    assert into_products > 1000


# ----------------------------------------------------------------- attach

def test_attach_merges_equal_labels(labeled_chain, labeled_fork):
    (n1, l1), (n2, l2) = labeled_chain, labeled_fork
    glued, labels = attach(n1, l1, n2, l2)
    assert glued.conditions == {"b11", "b12", "b22", "b23"}  # b21 merged into b12
    assert labels == {"b11": 1, "b12": 2, "b22": 3, "b23": 4}
    assert [e.id for e in glued.events] == ["a", "b", "star"]
    by_id = {e.id: e for e in glued.events}
    assert by_id["b"].pre == {"b12"}
    assert by_id["b"].post == {"b22", "b23"}
    assert by_id["star"].pre == frozenset() and by_id["star"].post == frozenset()
    assert validate(glued) == ["event star has empty pre"]  # warning only, no hard error


def test_attach_disjoint_labels_is_disjoint_union():
    rng = random.Random(23)
    for _ in range(20):
        n1 = random_net(rng, max_conditions=3, max_events=3, keep_isolated=True)
        n2 = random_net(rng, max_conditions=3, max_events=3, keep_isolated=True)
        l1, l2 = disjoint_labelings(rng, n1, n2)
        glued, labels = attach(n1, l1, n2, l2)
        assert len(glued.conditions) == len(n1.conditions) + len(n2.conditions)
        assert len(glued.events) == len(n1.events) + len(n2.events) + 1
        check_labeling(glued, labels)


def test_attach_condition_count_law():
    rng = random.Random(29)
    for _ in range(20):
        n1 = random_net(rng, max_conditions=4, max_events=3, keep_isolated=True)
        n2 = random_net(rng, max_conditions=4, max_events=3, keep_isolated=True)
        l1 = random_labeling(rng, n1)
        l2 = random_labeling(rng, n2)
        glued, _ = attach(n1, l1, n2, l2)
        shared = set(l1.values()) & set(l2.values())
        assert len(glued.conditions) == (
            len(n1.conditions) + len(n2.conditions) - len(shared)
        )
        assert len(glued.events) == len(n1.events) + len(n2.events) + 1


def test_attach_renames_clashing_ids():
    n1 = PetriNet(["b"], [Event("e", {"b"}, set())])
    n2 = PetriNet(["b"], [Event("e", set(), {"b"})])
    glued, labels = attach(n1, {"b": 0}, n2, {"b": 1})  # labels differ: no merge
    assert len(glued.conditions) == 2
    ids = [e.id for e in glued.events]
    assert len(ids) == len(set(ids)) == 3


def test_attach_matches_oracle():
    rng = random.Random(31)
    ids = ["a", "b", "a#2", "star"]  # condition and event ids alike, clashing across sides

    def labeled_net():
        conditions = rng.sample(ids, rng.randint(0, 3))
        return PetriNet(conditions, [
            Event(name, rng.sample(conditions, rng.randint(0, len(conditions))),
                  rng.sample(conditions, rng.randint(0, len(conditions))))
            for name in rng.sample(ids, rng.randint(0, 3))
        ]), dict(zip(conditions, rng.sample(range(4), len(conditions))))

    pairs = [(labeled_net(), labeled_net()) for _ in range(400)]
    assert any(set(l1.values()) & set(l2.values()) for (_, l1), (_, l2) in pairs)
    assert any(b in n1.conditions and l2[b] not in l1.values()  # a fresh id that clashes
               for (n1, l1), (n2, l2) in pairs for b in n2.conditions)
    assert any(e.id == "star" for (n1, _), (n2, _) in pairs for e in n1.events + n2.events)
    renamed_conditions = renamed_events = 0
    for (n1, l1), (n2, l2) in pairs:
        got, got_labels = attach(n1, l1, n2, l2)
        want, want_labels = attach_oracle(n1, l1, n2, l2)
        assert got.conditions == want.conditions
        assert [(e.id, e.pre, e.post) for e in got.events] == [
            (e.id, e.pre, e.post) for e in want.events
        ]
        assert got_labels == want_labels
        given = n1.conditions | n2.conditions | {e.id for e in n1.events + n2.events}
        renamed_conditions += any(b.endswith("#2") for b in got.conditions - given)
        renamed_events += any(e.id.endswith("#2") and e.id not in given for e in got.events)
    assert renamed_conditions and renamed_events


def test_attach_requires_valid_labelings(labeled_chain):
    n1, l1 = labeled_chain
    with pytest.raises(PreconditionError):
        attach(n1, {"b11": 1}, n1, l1)


# ------------------------------------------------------------ isomorphism

def test_identity_isomorphism(parallel_join_net):
    beta, eta = are_isomorphic(parallel_join_net, parallel_join_net)
    assert beta == {b: b for b in parallel_join_net.conditions}
    assert eta == {e.id: e.id for e in parallel_join_net.events}


def test_two_condition_isomorphism():
    n1 = PetriNet(["a", "b"], [Event("e", {"a"}, {"b"})])
    n2 = PetriNet(["p", "q"], [Event("f", {"p"}, {"q"})])
    beta, eta = are_isomorphic(n1, n2)
    assert beta == {"a": "p", "b": "q"}
    assert eta == {"e": "f"}


def test_not_isomorphic_on_count_mismatch(relay_net, self_loop_net):
    assert are_isomorphic(relay_net, self_loop_net) is None
    assert are_isomorphic(relay_net, PetriNet(["b0", "b1"], [])) is None


def test_duplicate_signature_events_match():
    n1 = PetriNet(["a"], [Event("e1", {"a"}, set()), Event("e2", {"a"}, set())])
    n2 = PetriNet(["z"], [Event("f1", {"z"}, set()), Event("f2", {"z"}, set())])
    witness = are_isomorphic(n1, n2)
    assert witness is not None
    assert is_valid_witness(n1, n2, *witness)


def test_isomorphism_agrees_with_brute_force():
    """Search result and witness validity, against the all-bijections oracle."""
    pairs = []
    rng = random.Random(101)
    for _ in range(120):
        n1 = random_net(rng, max_conditions=4, max_events=4, keep_isolated=True)
        if rng.random() < 0.6:
            ids = sorted(n1.conditions)
            shuffled = ids[:]
            rng.shuffle(shuffled)
            n2 = rename_conditions(n1, dict(zip(ids, shuffled)))
        else:
            n2 = random_net(rng, max_conditions=4, max_events=4, keep_isolated=True)
        pairs.append((n1, n2))
    # larger nets; the renamed copies also shuffle their event order
    rng = random.Random(103)
    for _ in range(200):
        n1 = random_net(rng, max_conditions=6, max_events=7, keep_isolated=True)
        if rng.random() < 0.6:
            pairs.append((n1, relabeled_copy(rng, n1)))
        else:
            pairs.append((n1, random_net(rng, max_conditions=6, max_events=7, keep_isolated=True)))
    # maps of 5 conditions against relabeled copies with two images swapped:
    # every in-degree stays, so the quick refutations often pass a wrong pair
    rng = random.Random(109)
    for _ in range(300):
        images = [rng.randrange(5) for _ in range(5)]
        x, y = rng.sample(range(5), 2)
        swapped = images[:]
        swapped[x], swapped[y] = images[y], images[x]
        pairs.append((map_net(images), relabeled_copy(rng, map_net(swapped))))
    searched = 0  # wrong pairs that only the search can refute
    for n1, n2 in pairs:
        witness = are_isomorphic(n1, n2)
        assert (witness is not None) == iso_oracle(n1, n2)
        if witness is not None:
            assert is_valid_witness(n1, n2, *witness)
        searched += (witness is None and len(n1.events) == len(n2.events)
                     and twin_signatures(n1) == twin_signatures(n2)
                     and component_sizes(n1) == component_sizes(n2))
    assert searched >= 20


@pytest.mark.parametrize("n", [6, 8, 10, 12, 40, 300, 1500])
def test_cycle_against_two_half_cycles(n):
    """Every condition has the same signature, so the component sizes refute
    the pair, and on the copy each next condition has at most two candidates:
    the unused neighbours of its mapped neighbour's image.  The search takes
    one step per condition, so at n = 1500 it runs deeper than the
    interpreter's recursion limit.  The pushes are bounded beside the time,
    so that more work fails however fast the host is."""
    start = time.perf_counter()
    cycle = cycle_net(n, "c")
    halves = [cycle_net(n // 2, prefix) for prefix in "ab"]
    witness, tally = collected(are_isomorphic, cycle, union(*halves))
    assert (witness, tally["pushes.search"] + tally["pushes.extend"]) == (None, 0)
    copy = relabeled_copy(random.Random(n), cycle)
    witness, tally = collected(are_isomorphic, cycle, copy)
    assert is_valid_witness(cycle, copy, *witness)
    assert time.perf_counter() - start < 2
    assert tally["pushes.search"] + tally["pushes.extend"] <= n + 1


def filled_and_drained(ids):
    """Twins that one event fills and another drains."""
    return PetriNet(ids, [Event("fill", set(), ids), Event("drain", ids, set())])


@pytest.mark.parametrize("k", [8, 9, 40])
@pytest.mark.parametrize("n, twins", [(10, PetriNet), (8, filled_and_drained)],
                         ids=["isolated", "filled"])
def test_twin_classes_are_mapped_whole(n, twins, k):
    """Cn plus k twins against 2xC(n/2) plus k twins.  The twins sort
    first, so a search that tried every order of their class would take
    k! branches before the cycles refute the pair.  The copy takes at most
    one push per class and one more, bounded beside the time."""
    start = time.perf_counter()
    net = union(cycle_net(n, "c"), twins([f"b{j}" for j in range(k)]))
    halves = union(cycle_net(n // 2, "p"), cycle_net(n // 2, "q"),
                   twins([f"t{j}" for j in range(k)]))
    witness, tally = collected(are_isomorphic, net, halves)
    assert (witness, tally["pushes.search"] + tally["pushes.extend"]) == (None, 0)
    copy = relabeled_copy(random.Random(k), net)
    witness, tally = collected(are_isomorphic, net, copy)
    assert is_valid_witness(net, copy, *witness)
    assert time.perf_counter() - start < 2
    assert tally["pushes.search"] + tally["pushes.extend"] <= n + 2


def test_twin_classes_must_match_in_size():
    """Both nets have a class in the pre-set only, one in both sets, one in
    the post-set only and an isolated one, with the sizes 1, 2, 1, 2 and
    2, 1, 2, 1."""
    ids = [f"b{k}" for k in range(6)]
    n1 = PetriNet(ids, [Event("e", {"b1", "b4", "b5"}, {"b0", "b4", "b5"})])
    n2 = PetriNet(ids, [Event("e", {"b2", "b3", "b5"}, {"b0", "b4", "b5"})])
    assert are_isomorphic(n1, n2) is None
    assert not iso_oracle(n1, n2)


def twin_signatures(net):
    """Each twin class's size and sorted (|pre|, |post|, events, in pre,
    in post) over the (pre, post) groups it sits in, counted."""
    groups = Counter((e.pre, e.post) for e in net.events)
    classes = defaultdict(list)
    for b in net.conditions:
        entries = frozenset((g, b in g[0], b in g[1]) for g in groups if b in g[0] | g[1])
        classes[entries].append(b)
    return Counter((len(members), tuple(sorted((len(pre), len(post), groups[pre, post], p, q)
                                               for (pre, post), p, q in key)))
                   for key, members in classes.items())


def component_sizes(net):
    """Sorted sizes of the parts into which the events' pre- and post-sets
    join the conditions; an isolated condition is a part of its own."""
    part = {b: {b} for b in net.conditions}
    for event in net.events:
        joined = set().union(*(part[b] for b in event.pre | event.post))
        for b in joined:
            part[b] = joined
    return sorted(len(p) for p in {id(p): p for p in part.values()}.values())


def doubled(net):
    """Two disjoint copies of a net; the second one's ids are primed."""
    return union(net, PetriNet([f"{b}'" for b in net.conditions],
                               [Event(f"{e.id}'", {f"{b}'" for b in e.pre},
                                      {f"{b}'" for b in e.post}) for e in net.events]))


def test_isomorphism_of_twin_blocks_agrees_with_brute_force():
    """Nets of at most 7 conditions whose events take blocks of conditions
    whole.  Half of them are two copies of a smaller one, so that two
    twin classes share a size and signature, and the search must choose
    which to map onto, then pair their members by id."""
    rng = random.Random(139)
    ambiguous = 0
    for _ in range(200):
        n1 = doubled(twin_block_net(rng, 3, 3)) if rng.random() < 0.5 else twin_block_net(rng)
        *events, last = n1.events or [Event("e")]  # near miss: the last event turned around
        near = PetriNet(n1.conditions, [*events, Event(last.id, last.post, last.pre)])
        n2 = relabeled_copy(rng, n1 if rng.random() < 0.6 else near)
        witness = are_isomorphic(n1, n2)
        assert (witness is not None) == iso_oracle(n1, n2)
        if witness is not None:
            assert is_valid_witness(n1, n2, *witness)
            ambiguous += any(size >= 2 and count >= 2
                             for (size, _), count in twin_signatures(n1).items())
    assert ambiguous >= 10


def test_large_relabeled_net_is_isomorphic():
    rng = random.Random(107)
    ids = [f"b{k}" for k in range(40)]
    net = PetriNet(ids, [Event(f"e{k}", rng.sample(ids, rng.randint(1, 3)),
                               rng.sample(ids, rng.randint(0, 3))) for k in range(3000)])
    copy = relabeled_copy(rng, net)
    assert is_valid_witness(net, copy, *are_isomorphic(net, copy))


def test_isomorphism_is_symmetric():
    rng = random.Random(131)
    for _ in range(40):
        n1 = random_net(rng, max_conditions=4, max_events=4)
        n2 = random_net(rng, max_conditions=4, max_events=4)
        assert (are_isomorphic(n1, n2) is None) == (are_isomorphic(n2, n1) is None)


def test_same_degrees_different_wiring():
    # two events sharing both conditions vs. two events on separate loops
    n1 = PetriNet(["a", "b"], [Event("e1", {"a"}, {"b"}), Event("e2", {"b"}, {"a"})])
    n2 = PetriNet(["p", "q"], [Event("f1", {"p"}, {"p"}), Event("f2", {"q"}, {"q"})])
    assert are_isomorphic(n1, n2) is None
    assert not iso_oracle(n1, n2)


# ------------------------------------------------------------------- DOT

def test_to_dot_single_event():
    net = PetriNet(["b"], [Event("e", {"b"}, set())])
    assert to_dot(net) == "\n".join(
        [
            "digraph net {",
            '  "b" [shape=circle];',
            '  "e" [shape=box];',
            '  "b" -> "e";',
            "}",
        ]
    )


def test_to_dot_empty_net():
    assert to_dot(PetriNet()) == "digraph net {\n}"


def test_to_dot_counts(coupled_cycles_net):
    text = to_dot(coupled_cycles_net)
    assert text.count("[shape=") == 10
    assert text.count("->") == 16


# ----------------------------------------------------------- serialization

def test_read_net_document(relay_net):
    doc = {
        "conditions": [{"id": "b0"}, {"id": "b1"}],
        "events": [
            {"id": "a", "pre": ["b0"], "post": []},
            {"id": "b", "pre": ["b0"], "post": ["b1"]},
            {"id": "c", "pre": [], "post": ["b1"]},
        ],
    }
    net, labels = read_net(json.dumps(doc))
    assert labels is None
    assert len(net.conditions) == 2 and len(net.events) == 3
    assert net == relay_net


def test_write_read_roundtrip():
    rng = random.Random(17)
    for _ in range(30):
        net = random_net(rng, keep_isolated=True)
        labels = random_labeling(rng, net) if rng.random() < 0.5 else None
        again, labels_again = read_net(write_net(net, labels))
        assert again == net
        # a labeling of a net with no conditions reads back as None
        assert labels_again == (labels or None)


def test_net_document_shape(relay_net):
    doc = net_document(relay_net, {"b0": 0, "b1": 1})
    assert doc["conditions"] == [{"id": "b0", "label": 0}, {"id": "b1", "label": 1}]
    assert doc["events"][0] == {"id": "a", "pre": ["b0"], "post": []}


def test_write_net_matches_readme_layout(relay_net):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Net JSON format", 1)[1]
    layout = section.split("```json\n", 1)[1].split("\n```", 1)[0]
    assert write_net(relay_net, {"b0": 0, "b1": 1}) == layout


def test_write_net_layout_of_empty_parts():
    assert write_net(PetriNet()) == '{\n  "conditions": [],\n  "events": []\n}'
    assert write_net(PetriNet(["b"], [Event("e")])) == "\n".join([
        "{",
        '  "conditions": [',
        '    {"id": "b"}',
        "  ],",
        '  "events": [',
        '    {"id": "e", "pre": [], "post": []}',
        "  ]",
        "}",
    ])


# quotes, backslashes, control characters, non-ASCII, astral-plane and lone surrogates
_AWKWARD = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "€", "\U0001F600", "\ud800", "/", "a"]


def test_write_net_round_trips_awkward_ids():
    rng = random.Random(23)
    for _ in range(60):
        plain = random_net(rng, max_conditions=6, max_events=8, keep_isolated=True)
        awkward = {b: "".join(rng.choices(_AWKWARD, k=rng.randint(0, 4))) + b
                   for b in plain.conditions}
        renamed = rename_conditions(plain, awkward)
        net = PetriNet(renamed.conditions, [
            Event("".join(rng.choices(_AWKWARD, k=rng.randint(0, 4))) + e.id, e.pre, e.post)
            for e in renamed.events
        ])
        labels = random_labeling(rng, net) if rng.random() < 0.5 else None
        text = write_net(net, labels)
        assert text.isascii()
        assert json.loads(text) == net_document(net, labels)
        assert read_net(text) == (net, labels or None)


_BAD_DOCUMENTS = [
    ('{"conditions": [{"id": "b0"}, {"id": "b0"}], "events": []}',
     "duplicate condition id 'b0'"),
    ('{"conditions": [{"id": "b0", "label": 0}, {"id": "b1"}], "events": []}',
     "either all conditions carry labels or none do"),
    ('{"conditions": [{"id": "b0", "label": 0}, {"id": "b1", "label": 0}], "events": []}',
     "condition labels must be distinct"),
    ('{"conditions": [], "events": [{"id": "e", "pre": ["zz"], "post": []}]}',
     "event 'e' references unknown condition 'zz'"),
    ('{"conditions": [], "events": [{"id": "e", "pre": [], "post": []}, {"id": "e", "pre": [], "post": []}]}',
     "duplicate event id 'e'"),
    ('{"conditions": [{"id": "b", "label": -1}], "events": []}',
     "label of 'b' must be a nonnegative integer"),
    ('{"conditions": []}',
     "net document is missing 'events'"),
    ("[]",
     "net document must be a JSON object"),
    ('{"conditions": {}, "events": []}',
     "'conditions' must be an array"),
    ('{"conditions": ["b0"], "events": []}',
     "each condition must be an object"),
    ('{"conditions": [{"id": 0}], "events": []}',
     "condition id must be a string"),
    ('{"conditions": [{"id": "b", "label": true}], "events": []}',
     "label of 'b' must be a nonnegative integer"),
    ('{"conditions": [], "events": [["e"]]}',
     "each event must be an object"),
    ('{"conditions": [], "events": [{"id": 7, "pre": [], "post": []}]}',
     "event id must be a string"),
    ('{"conditions": [{"id": "b0"}], "events": [{"id": "e", "pre": "b0", "post": []}]}',
     "event 'e' needs a 'pre' array"),
    ('{"conditions": [], "events": [{"id": "e", "pre": []}]}',
     "event 'e' needs a 'post' array"),
    ('{"conditions": [{"id": "b0"}], "events": [{"id": "e", "pre": ["b0"], "post": ["b0", 3]}]}',
     "event 'e': post entries must be strings"),
    # each path of the side check: a non-string entry, an unhashable entry, a dangling id
    ('{"conditions": [{"id": "b0"}], "events": [{"id": "e", "pre": ["b0", true], "post": []}]}',
     "event 'e': pre entries must be strings"),
    ('{"conditions": [{"id": "b0"}], "events": [{"id": "e", "pre": ["b0"], "post": [["b0"]]}]}',
     "event 'e': post entries must be strings"),
    ('{"conditions": [{"id": "b0"}], "events": [{"id": "e", "pre": [{"id": "b0"}, "b0"], "post": []}]}',
     "event 'e': pre entries must be strings"),
    ('{"conditions": [{"id": "b0"}], "events": [{"id": "e", "pre": ["b0"], "post": ["b0", "b1"]}]}',
     "event 'e' references unknown condition 'b1'"),
    # two or more faults: the first one found is reported
    ('{"conditions": [{"id": "b0"}], "events": [{"id": "e", "pre": ["zz", "b0"], "post": ["yy"]},'
     ' {"id": "f", "pre": ["xx"], "post": []}]}',
     "event 'e' references unknown condition 'yy'"),
    ('{"conditions": [], "events": [{"id": "e", "pre": ["zz"], "post": []}, {"id": "f", "pre": [], "post": []},'
     ' {"id": "f", "pre": [], "post": []}]}',
     "duplicate event id 'f'"),
    ('{"conditions": [], "events": [{"id": "e", "pre": ["zz"], "post": []}, {"id": "f", "pre": [null], "post": []}]}',
     "event 'f': pre entries must be strings"),
    ('{"conditions": [{"id": "b", "label": 0}, {"id": "b", "label": 0}], "events": [5]}',
     "duplicate condition id 'b'"),
]


@pytest.mark.parametrize("doc, message", _BAD_DOCUMENTS, ids=[doc for doc, _ in _BAD_DOCUMENTS])
def test_read_net_rejects_bad_documents(doc, message):
    with pytest.raises(NetStructureError) as caught:
        read_net(doc)
    assert str(caught.value) == message


def test_read_net_leaves_the_warnings_to_validate(monkeypatch):
    text = write_net(PetriNet(["b", "z"], [Event("e", [], ["b"])]))
    with monkeypatch.context() as patched:
        patched.setattr("petripoly.net.isolated_conditions", _raise)
        net, _ = read_net(text)
    assert validate(net) == ["isolated condition z", "event e has empty pre"]


def _raise(*args):
    raise AssertionError("read_net computed a warning")


def test_read_net_rejects_bad_json():
    for text in ("{not json", "[" * 100_000):
        with pytest.raises(ParseError):
            read_net(text)
