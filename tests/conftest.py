"""Small reference nets used across the suite."""

import sys

# Bytecode that the suite wrote under src/ would be read by a later perfbench
# run in the same tree and turn the compile times it measures into load times.
sys.dont_write_bytecode = True

import pytest

from petripoly import Event, PetriNet


@pytest.fixture
def coupled_cycles_net():
    """Six conditions, four two-in/two-out events; nothing isolated."""
    return PetriNet(
        ["b0", "b1", "b2", "b3", "b4", "b5"],
        [
            Event("e1", {"b0", "b3"}, {"b1", "b2"}),
            Event("e2", {"b1", "b2"}, {"b3", "b0"}),
            Event("e3", {"b5", "b3"}, {"b2", "b4"}),
            Event("e4", {"b4", "b2"}, {"b3", "b5"}),
        ],
    )


@pytest.fixture
def parallel_join_net():
    """Two source conditions feeding duplicate events into a join.

    With labels b_k -> k this encodes to 2xy^4 + 3x^2y^8 + x^12y^16 + 1.
    """
    return PetriNet(
        [f"b{k}" for k in range(5)],
        [
            Event("e1", {"b0"}, {"b2"}),
            Event("e2", {"b0"}, {"b2"}),
            Event("e3", {"b1"}, {"b3"}),
            Event("e4", {"b1"}, {"b3"}),
            Event("e5", {"b1"}, {"b3"}),
            Event("e6", {"b2", "b3"}, {"b4"}),
        ],
    )


@pytest.fixture
def relay_net():
    """Two conditions: b0 is consumed (a), relayed to b1 (b), and b1 produced (c).

    Encodes to x + xy^2 + y^2 + 1 = (x+1)(y^2+1) under b0 -> 0, b1 -> 1.
    """
    return PetriNet(
        ["b0", "b1"],
        [
            Event("a", {"b0"}, set()),
            Event("b", {"b0"}, {"b1"}),
            Event("c", set(), {"b1"}),
        ],
    )


@pytest.fixture
def self_loop_net():
    """One condition, one event that consumes and reproduces it."""
    return PetriNet(["p0"], [Event("a", {"p0"}, {"p0"})])


@pytest.fixture
def produce_consume_net():
    """One condition with a producer and a consumer event."""
    return PetriNet(["q1"], [Event("b", set(), {"q1"}), Event("c", {"q1"}, set())])


@pytest.fixture
def synchronized_reference_net():
    """Hand-built product of self_loop_net and produce_consume_net: five events."""
    return PetriNet(
        ["u", "v"],
        [
            Event("(a,*)", {"u"}, {"u"}),
            Event("(a,b)", {"u"}, {"u", "v"}),
            Event("(a,c)", {"u", "v"}, {"u"}),
            Event("(*,b)", set(), {"v"}),
            Event("(*,c)", {"v"}, set()),
        ],
    )


@pytest.fixture
def labeled_chain():
    """One event moving along a two-condition chain; labels 1 and 2."""
    net = PetriNet(["b11", "b12"], [Event("a", {"b11"}, {"b12"})])
    return net, {"b11": 1, "b12": 2}


@pytest.fixture
def labeled_fork():
    """One event consuming one condition and producing two; labels 2, 3, 4."""
    net = PetriNet(
        ["b21", "b22", "b23"], [Event("b", {"b21"}, {"b22", "b23"})]
    )
    return net, {"b21": 2, "b22": 3, "b23": 4}
