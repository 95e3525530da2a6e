import ast
import contextlib
import io
import json
import os
import random
import sys
import time
from pathlib import Path

import pytest

from petripoly import (Event, PetriNet, Polynomial, decode, decompose_net, encode, parse_poly,
                       print_poly, read_net, write_net)
from petripoly import cli
from petripoly import search as search_module
from petripoly.cli import run

from helpers import (INT_LIMIT, child_interpreter, collected, cycle_net, is_valid_witness,
                     needs_int_limit, relabeled_copy, union)

VERBS = ("encode", "decode", "mul", "add", "product", "attach", "decompose", "iso", "canon", "dot", "validate")

RELAY_DOC = json.dumps(
    {
        "conditions": [{"id": "b0"}, {"id": "b1"}],
        "events": [
            {"id": "a", "pre": ["b0"], "post": []},
            {"id": "b", "pre": ["b0"], "post": ["b1"]},
            {"id": "c", "pre": [], "post": ["b1"]},
        ],
    }
)

LABELED_CHAIN_DOC = json.dumps(
    {
        "conditions": [{"id": "b11", "label": 1}, {"id": "b12", "label": 2}],
        "events": [{"id": "a", "pre": ["b11"], "post": ["b12"]}],
    }
)

LABELED_FORK_DOC = json.dumps(
    {
        "conditions": [
            {"id": "b21", "label": 2},
            {"id": "b22", "label": 3},
            {"id": "b23", "label": 4},
        ],
        "events": [{"id": "b", "pre": ["b21"], "post": ["b22", "b23"]}],
    }
)


@pytest.fixture
def relay_file(tmp_path):
    path = tmp_path / "relay.json"
    path.write_text(RELAY_DOC, encoding="utf-8")
    return str(path)


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(LABELED_CHAIN_DOC, encoding="utf-8")
    return str(path)


@pytest.fixture
def fork_file(tmp_path):
    path = tmp_path / "fork.json"
    path.write_text(LABELED_FORK_DOC, encoding="utf-8")
    return str(path)


def test_decompose_golden(capsys):
    assert run(["decompose", "-p", "x+x*y^2+y^2+1"]) == 0
    out = capsys.readouterr()
    assert out.out == "x + 1\ny^2 + 1\n"
    assert out.err == ""


def test_encode_without_labels_notes_on_stderr(relay_file, capsys):
    assert run(["encode", relay_file]) == 0
    out = capsys.readouterr()
    assert out.out == "x*y^2 + y^2 + x + 1\n"
    assert "no labels" in out.err


def test_encode_uses_embedded_labels(chain_file, capsys):
    assert run(["encode", chain_file]) == 0
    out = capsys.readouterr()
    assert out.out == "x^2*y^4 + 1\n"
    assert out.err == ""


def test_encode_warns_about_isolated_conditions(tmp_path, capsys):
    doc = {
        "conditions": [{"id": "a", "label": 0}, {"id": "ghost", "label": 1}],
        "events": [{"id": "e", "pre": ["a"], "post": []}],
    }
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["encode", str(path)]) == 0
    out = capsys.readouterr()
    assert "ghost" in out.err


def test_decode_constant_two(capsys):
    assert run(["decode", "-p", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["conditions"] == []
    assert doc["events"] == [{"id": "e1_(0,0)", "pre": [], "post": []}]


def test_decode_without_constant_term_exits_3(capsys):
    for text in ("x", "x*y + y"):
        assert run(["decode", "-p", text]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error:")


def test_parse_error_exits_2(capsys):
    assert run(["decode", "-p", "x +"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "error:" in out.err


@pytest.mark.parametrize(
    "argv, content",
    [
        (["mul", "-p", "x^²", "-p", "1"], None),
        (["mul", "-p", "x^", "-p", "1"], None),
        (["decode"], b"x+\xff"),
        (["validate"], b"\xff\xfe{"),
        (["validate"], b"[" * 100_000),
        pytest.param(
            ["encode"],
            b'{"conditions": [{"id": "a", "label": ' + b"1" * (INT_LIMIT + 100) + b'}], "events": []}',
            marks=needs_int_limit,
        ),
    ],
    ids=["superscript-digit", "empty-exponent", "non-utf8-poly", "non-utf8-net", "deep-json", "long-json-int"],
)
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, argv, content):
    if content is not None:
        path = tmp_path / "input"
        path.write_bytes(content)
        argv = [*argv, str(path)]
    assert run(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error:") and out.err.count("\n") == 1
    assert "Traceback" not in out.err


@needs_int_limit
@pytest.mark.parametrize(
    "argv, content",
    [
        (["mul", *["-p", "1" + "0" * (INT_LIMIT // 2 + 200)] * 2], None),
        (["encode"], json.dumps({
            "conditions": [{"id": "a", "label": 4 * INT_LIMIT}],
            "events": [{"id": "e", "pre": ["a"], "post": []}],
        })),
        (["decode", "-p", f"x^{'9' * INT_LIMIT}*x^{'9' * INT_LIMIT} + 1"], None),
    ],
    ids=["long-product", "long-exponent", "long-event-id"],
)
def test_result_past_int_limit_exits_3(tmp_path, capsys, argv, content):
    if content is not None:
        path = tmp_path / "net.json"
        path.write_text(content, encoding="utf-8")
        argv = [*argv, str(path)]
    assert run(argv) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error:") and out.err.count("\n") == 1
    assert "Traceback" not in out.err


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "-p", "100000000000000000000000000319"],  # 30-digit prime
        # (10^19 + 51) * (2 * 10^19 + 11): rho would need about 10^9.5 steps
        ["decompose", "-p", "200000000000000001130000000000000000561"],
        ["decode", "-p", "10000000*x + 1"],  # 10^7 events asked for in 14 characters
    ],
    ids=["unprovable-prime-content", "rho-budget-content", "decoded-events"],
)
def test_beyond_reach_exits_3_with_one_line(capsys, argv):
    assert run(argv) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error:") and out.err.count("\n") == 1
    assert "Traceback" not in out.err


@contextlib.contextmanager
def int_limit(digits):
    """The interpreter's int-string limit set to digits (0: none) inside
    the block; on an interpreter without the limit, nothing changes."""
    if INT_LIMIT == 0:
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("label", [
    10**30,  # 1 << 10**30 overflows
    2**63,  # 1 << 2**63 is refused by the allocator at once: MemoryError
])
@pytest.mark.parametrize("verb", ["encode", "decompose"])
def test_label_too_large_to_encode_exits_3_with_one_line(tmp_path, capsys, verb, label):
    """With no int-string limit the CLI's label check is off, and encode's
    own guard refuses a shift it cannot make."""
    path = tmp_path / "net.json"
    net = PetriNet(["a", "b"], [Event("e", ["a"], ["b"])])
    path.write_text(write_net(net, {"a": 0, "b": label}), encoding="utf-8")
    with int_limit(0):
        assert run([verb, str(path)]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: label of condition 'b' is too large to encode\n"


@needs_int_limit
@pytest.mark.parametrize("verb", ["encode", "decompose"])
def test_label_that_can_never_print_is_refused_before_encoding(tmp_path, capsys, monkeypatch, verb):
    """2^label has more digits than the int-string limit lets print from
    label (10^limit).bit_length() up, 14 285 under the default limit of
    4 300 digits, so the CLI refuses a used condition so labeled with that
    limit's one line before it encodes: label 10^10 would build 1.25 GB.
    Label 14 284 still encodes and prints, and an isolated condition's
    label is never expanded, so none is refused."""
    from petripoly import codec

    def write(labels):
        path = tmp_path / "net.json"
        conditions = ["a", "b", *(["z"] if "z" in labels else [])]
        path.write_text(write_net(PetriNet(conditions, [Event("e", ["a"], ["b"])]), labels),
                        encoding="utf-8")
        return str(path)

    def no_encoding(*args):
        raise AssertionError("the net was encoded")

    with int_limit(sys.int_info.default_max_str_digits):
        monkeypatch.setattr(codec, "encode", no_encoding)
        for label in (10**10, 14285):
            assert run([verb, write({"a": 0, "b": label})]) == 3
            assert capsys.readouterr() == ("", "error: result holds a number longer than the "
                                               "int-string limit of 4300 digits\n")
        monkeypatch.undo()
        labels = {"a": 0, "b": 14284, "z": 10**10}
        assert run([verb, write(labels)]) == 0
        out, err = capsys.readouterr()
    (line,) = out.splitlines()
    assert line == print_poly(Polynomial({(1, 1 << 14284): 1, (0, 0): 1}))
    assert err == "warning: isolated conditions are invisible to the encoding: z\n"


def test_mul_and_add(capsys):
    assert run(["mul", "-p", "x+1", "-p", "y^2+1"]) == 0
    assert capsys.readouterr().out == "x*y^2 + y^2 + x + 1\n"
    assert run(["mul", "-p", "x+1", "-p", "y+1"]) == 0
    assert capsys.readouterr().out == "x*y + x + y + 1\n"
    assert run(["add", "-p", "x^2*y^4+1", "-p", "x^4*y^24+1"]) == 0
    assert capsys.readouterr().out == "x^4*y^24 + x^2*y^4 + 2\n"


def test_poly_inputs_from_files(tmp_path, capsys):
    f1 = tmp_path / "p.txt"
    f1.write_text("x+1\n", encoding="utf-8")
    f2 = tmp_path / "q.txt"
    f2.write_text("y^2+1\n", encoding="utf-8")
    assert run(["mul", str(f1), str(f2)]) == 0
    assert capsys.readouterr().out == "x*y^2 + y^2 + x + 1\n"


def test_mul_wrong_arity_exits_2(capsys):
    assert run(["mul", "-p", "x+1"]) == 2
    assert capsys.readouterr().out == ""


def test_product_verb(chain_file, fork_file, capsys):
    assert run(["product", chain_file, fork_file]) == 0
    net, labels = read_net(capsys.readouterr().out)
    assert labels is None
    assert len(net.conditions) == 5
    assert len(net.events) == 1 * 1 + 1 + 1


def test_product_law_through_the_cli(tmp_path, capsys):
    """encode(a x b) = encode(a) * encode(b) on disjoint labels, and decompose
    gives the two encodings back; the product carries no labels, so encode
    assigns 0-3 by sorted id, which is how a's 0, 1 and b's 2, 3 sort."""
    a, b, ab = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "ab.json"
    a.write_text(json.dumps({
        "conditions": [{"id": "a0", "label": 0}, {"id": "a1", "label": 1}],
        "events": [{"id": "e", "pre": ["a0"], "post": ["a1"]}, {"id": "f", "pre": ["a1"], "post": []}],
    }), encoding="utf-8")
    b.write_text(json.dumps({
        "conditions": [{"id": "b0", "label": 2}, {"id": "b1", "label": 3}],
        "events": [{"id": "g", "pre": ["b0", "b1"], "post": ["b1"]}, {"id": "h", "pre": ["b1"], "post": ["b0"]},
                   {"id": "k", "pre": [], "post": ["b0"]}],
    }), encoding="utf-8")

    def stdout_of(*argv):
        assert run(list(argv)) == 0
        return capsys.readouterr().out

    ab.write_text(stdout_of("product", str(a), str(b)), encoding="utf-8")
    encodings = [stdout_of("encode", str(path)) for path in (a, b)]
    assert encodings == ["x*y^2 + x^2 + 1\n", "x^12*y^8 + x^8*y^4 + y^4 + 1\n"]
    encoded = stdout_of("encode", str(ab))
    assert encoded == stdout_of("mul", "-p", encodings[0], "-p", encodings[1])
    assert stdout_of("decompose", "-p", encoded) == "".join(encodings)


def test_attach_verb(chain_file, fork_file, capsys):
    assert run(["attach", chain_file, fork_file]) == 0
    net, labels = read_net(capsys.readouterr().out)
    assert sorted(labels.values()) == [1, 2, 3, 4]
    assert len(net.events) == 3


def test_attach_requires_labels(relay_file, chain_file, capsys):
    assert run(["attach", relay_file, chain_file]) == 3
    out = capsys.readouterr()
    assert out.out == "" and "labels" in out.err


def test_decompose_net_input(relay_file, capsys):
    assert run(["decompose", relay_file]) == 0
    out = capsys.readouterr()
    assert out.out == "x + 1\ny^2 + 1\n"


def test_decompose_nets_flag(capsys):
    assert run(["decompose", "--nets", "-p", "x+x*y^2+y^2+1"]) == 0
    out = capsys.readouterr().out
    lines, _, rest = out.partition("[")
    assert lines == "x + 1\ny^2 + 1\n"
    decoded = [decode(parse_poly(factor)) for factor in ("x + 1", "y^2 + 1")]
    assert "[" + rest == "[" + ", ".join(write_net(*pair) for pair in decoded) + "]\n"
    docs = json.loads("[" + rest)
    assert docs[0]["conditions"] == [{"id": "c0", "label": 0}]
    assert [read_net(json.dumps(doc)) for doc in docs] == decoded


def test_decompose_requires_one_input(relay_file, capsys):
    assert run(["decompose"]) == 2
    capsys.readouterr()
    assert run(["decompose", "-p", "1", relay_file]) == 2


def test_decompose_wide_prime_chain(capsys):
    """A 256-bit prime chain, one event per adjacent pair of labels:
    x^(2^t) * y^(2^(t+1)), t = 0..254.  It is its own only factor."""
    chain = print_poly(Polynomial({(1 << t, 2 << t): 1 for t in range(255)} | {(0, 0): 1}))
    start = time.perf_counter()
    code, tally = collected(run, ["decompose", "-p", chain])
    assert time.perf_counter() - start < 60
    assert code == 0 and tally["block_checks"] <= 256  # at most one per support bit
    assert capsys.readouterr() == (chain + "\n", "")


def test_iso_identity(relay_file, capsys):
    assert run(["iso", relay_file, relay_file]) == 0
    witness = json.loads(capsys.readouterr().out)
    assert witness["conditions"] == {"b0": "b0", "b1": "b1"}
    assert witness["events"] == {"a": "a", "b": "b", "c": "c"}


def test_iso_deeper_than_the_recursion_limit(tmp_path, capsys):
    """The search takes one step per condition of a 1500-cycle, on its own
    stack, so the interpreter's recursion limit does not cap the net size."""
    cycle = cycle_net(1500, "c")
    copy = relabeled_copy(random.Random(1500), cycle)
    paths = [tmp_path / "cycle.json", tmp_path / "copy.json"]
    for path, net in zip(paths, (cycle, copy)):
        path.write_text(write_net(net), encoding="utf-8")
    assert run(["iso", *map(str, paths)]) == 0
    out = capsys.readouterr()
    witness = json.loads(out.out)
    assert out.err == ""
    assert is_valid_witness(cycle, copy, witness["conditions"], witness["events"])


def test_iso_false_is_silent_exit_1(relay_file, chain_file, capsys):
    assert run(["iso", relay_file, chain_file]) == 1
    out = capsys.readouterr()
    assert out.out == ""


def test_canon_verb(relay_file, capsys):
    assert run(["canon", relay_file]) == 0
    assert capsys.readouterr().out == "x*y^2 + y^2 + x + 1\n"


@pytest.mark.parametrize("k", [20, 1500])
def test_canon_with_many_isolated_conditions(tmp_path, capsys, k):
    """The isolated conditions are one twin class, labeled one per search
    step, so at k = 1500 the search runs deeper than the recursion limit.
    The pushes, k + 17 labeling steps and no matcher step, are bounded
    beside the time."""
    path = tmp_path / "net.json"
    net = union(cycle_net(5, "c"), PetriNet([f"i{j}" for j in range(k)]))
    path.write_text(write_net(net), encoding="utf-8")
    start = time.perf_counter()
    code, tally = collected(run, ["canon", str(path)])
    assert code == 0
    assert time.perf_counter() - start < 60
    assert tally["pushes.search"] + tally["pushes.extend"] <= k + 26
    assert capsys.readouterr().out == "x^2*y^16 + x^16*y + x^4*y^8 + x^8*y^2 + x*y^4 + 1\n"


# bytes of address space for a child: about 20 times the 12 MiB that a bare
# CPython 3.11 interpreter maps
MEMORY_CAP = 256 << 20


def test_out_of_memory_exits_3_with_one_line(tmp_path):
    """canon of a 1500-cycle asks for more memory than the cap allows; the
    MemoryError ends in one diagnostic and exit 3, not a traceback."""
    path = tmp_path / "cycle.json"
    path.write_text(write_net(cycle_net(1500, "c")), encoding="utf-8")
    code = ("import resource; "
            f"resource.setrlimit(resource.RLIMIT_AS, ({MEMORY_CAP}, {MEMORY_CAP})); "
            "from petripoly.cli import main; main()")
    proc = child_interpreter("-c", code, "canon", str(path))
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, b"", b"error: out of memory\n")


def test_stats_adds_one_json_object_on_stderr(relay_file, capsys, monkeypatch):
    """``--stats`` before the verb leaves stdout and the exit code as they
    are and adds one JSON object on stderr: the verb's wall times in
    seconds, the work counters and the input sizes.  A verb that fails
    still reports what it counted, before its one-line diagnostic."""
    nets = "seconds.verb", "inputs.conditions", "inputs.events"
    for argv, keys in [(["mul", "-p", "x", "-p", "y"], ["seconds.verb"]),
                       (["canon", relay_file], [*nets, "seconds.canonical_poly", "work.canonical_poly",
                                                "dive.levels"]),
                       (["iso", relay_file, relay_file], [*nets, "seconds.are_isomorphic",
                                                          "work.are_isomorphic"]),
                       (["decompose", "-p", "12*x*y^2 + 12*x + 12*y^2 + 12"],
                        ["seconds.verb", "seconds.decompose", "inputs.terms", "block_checks", "rho_steps"])]:
        code = run(argv)
        out, err = capsys.readouterr()
        assert run(["--stats", *argv]) == code == 0
        out_stats, err_stats = capsys.readouterr()
        stats = json.loads(err_stats.removeprefix(err))
        assert (out_stats, err_stats.count("\n")) == (out, err.count("\n") + 1)
        assert sorted(stats) == sorted(keys) and all(value >= 0 for value in stats.values())
    assert stats["inputs.terms"] == 4 and stats["block_checks"] == 1
    monkeypatch.setattr(search_module, "_WORK", 5)
    assert run(["--stats", "canon", relay_file]) == 3
    err = capsys.readouterr().err.splitlines()
    assert json.loads(err[0])["work.canonical_poly"] > 5
    assert err[1:] == ["error: search work exceeds its budget of 5 entries and images"]


def test_stats_of_iso_on_nets_of_different_sizes(relay_file, fork_file, capsys):
    """Nets of 2 and 3 conditions are not isomorphic, and ``are_isomorphic``
    says so without a search, yet reports its call: no work, and the inputs
    of both nets summed."""
    assert run(["--stats", "iso", relay_file, fork_file]) == 1
    out, err = capsys.readouterr()
    stats = json.loads(err)
    assert out == "" and stats.pop("seconds.verb") >= 0 and stats.pop("seconds.are_isomorphic") >= 0
    assert stats == {"work.are_isomorphic": 0, "inputs.conditions": 5, "inputs.events": 4}


def test_readme_stats_example(tmp_path, capsys):
    """README's ``--stats`` example runs ``canon`` on the net of its "Net
    JSON format" section: the polynomial it shows is what the CLI prints,
    and its JSON object has the keys and, wall times aside, the counts
    that the CLI writes."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    net = readme.split("### Net JSON format", 1)[1].split("```json\n", 1)[1].split("\n```", 1)[0]
    command = "$ petripoly --stats canon net.json\n"
    shown, printed = readme.split(command, 1)[1].split("\n```", 1)[0].split("\n")
    path = tmp_path / "net.json"
    path.write_text(net, encoding="utf-8")
    assert run(["--stats", "canon", str(path)]) == 0
    out, err = capsys.readouterr()
    assert out == printed + "\n"
    counts, expected = json.loads(err), json.loads(shown)
    assert sorted(counts) == sorted(expected)
    for stats in (counts, expected):
        for key in [key for key in stats if key.startswith("seconds.")]:
            del stats[key]
    assert counts == expected == {"dive.levels": 2, "inputs.conditions": 2, "inputs.events": 3,
                                  "work.canonical_poly": 9}


def test_canon_beyond_the_work_budget_exits_3_with_one_line(tmp_path):
    """canon of a 1500-cycle copies about 2.25 million entries per search
    node; its greedy dive keeps them all, so the search work budget stops
    it within 30 s at a peak RSS under 512 MiB (about 5 s and 380 MiB on a
    2-vCPU VM), before the 1 GiB address-space cap that guards the test."""
    path = tmp_path / "cycle.json"
    path.write_text(write_net(cycle_net(1500, "c")), encoding="utf-8")
    code = ("import resource, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
            "from petripoly.cli import run; code = run(sys.argv[1:]); "
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss); sys.exit(code)")
    start = time.perf_counter()
    proc = child_interpreter("-c", code, "canon", str(path))
    assert time.perf_counter() - start < 30
    assert (proc.returncode, proc.stderr) == (3, b"error: search work exceeds its budget of "
                                                 b"25165824 entries and images\n")
    assert int(proc.stdout) < 512 << 10  # KiB


def test_dot_verb(relay_file, capsys):
    assert run(["dot", relay_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph net {")
    assert '"b0" [shape=circle];' in out
    assert '"a" [shape=box];' in out


def test_validate_verb(tmp_path, capsys):
    doc = {
        "conditions": [{"id": "a"}, {"id": "c"}],
        "events": [{"id": "e", "pre": ["a"], "post": ["a"]}],
    }
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["validate", str(path)]) == 0
    assert capsys.readouterr().out == "isolated condition c\n"


def test_validate_without_warnings_prints_nothing(chain_file, capsys):
    assert run(["validate", chain_file]) == 0
    assert capsys.readouterr() == ("", "")


def test_validate_structural_error_exits_2(tmp_path, capsys):
    path = tmp_path / "net.json"
    path.write_text('{"conditions": [], "events": [{"id": "e", "pre": ["zz"], "post": []}]}',
                    encoding="utf-8")
    assert run(["validate", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "zz" in out.err


def test_missing_file_exits_2(capsys):
    assert run(["encode", "/nonexistent/net.json"]) == 2
    assert capsys.readouterr().out == ""


def test_unknown_verb_exits_2(capsys):
    assert run(["frobnicate"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: argument VERB: invalid choice: 'frobnicate' (choose from ")
    for verb in VERBS:
        assert f"'{verb}'" in err


def test_version(capsys):
    assert run(["--version"]) == 0
    assert capsys.readouterr() == ("petripoly 0.1.0\n", "")
    assert run(["-h"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: petripoly ") and err == ""
    listed = [line.split()[0] for line in out.splitlines() if line.startswith("    ") and line[4] != " "]
    assert listed == list(VERBS)


class _BrokenPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [["mul", "-p", "x+1", "-p", "y+1"], ["decompose", "--nets", "-p", "x+1"]])
def test_broken_stdout_exits_2_with_one_line(monkeypatch, capsys, argv):
    monkeypatch.setattr(sys, "stdout", _BrokenPipe())
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"
    monkeypatch.setattr(sys, "stderr", _BrokenPipe())  # the diagnostic cannot be written either
    assert run(argv) == 2


def test_unwritable_note_is_dropped(monkeypatch, capsys, relay_file):
    monkeypatch.setattr(sys, "stderr", _BrokenPipe())
    assert run(["encode", relay_file]) == 0
    assert capsys.readouterr().out == "x*y^2 + y^2 + x + 1\n"


def test_encode_decode_pipeline_reproduces_text(capsys):
    for text in ("x + 1", "x^4*y^24 + x^2*y^4 + 2", "3", "x^12*y^16 + 3*x^2*y^8 + 2*x*y^4 + 1"):
        assert run(["decode", "-p", text]) == 0
        doc = capsys.readouterr().out
        net, labels = read_net(doc)
        assert print_poly(encode(net, labels or {})) == text


def test_determinism(relay_file, capsys):
    run(["decompose", relay_file])
    first = capsys.readouterr().out
    run(["decompose", relay_file])
    assert capsys.readouterr().out == first


def test_roundtrip_through_files(tmp_path, capsys):
    assert run(["decode", "-p", "x^3*y^3 + 2*x^2 + y + 2"]) == 0
    doc = capsys.readouterr().out
    path = tmp_path / "decoded.json"
    path.write_text(doc, encoding="utf-8")
    assert run(["encode", str(path)]) == 0
    assert capsys.readouterr().out == "x^3*y^3 + 2*x^2 + y + 2\n"


FRESH_RUN = """
import io, sys
from contextlib import redirect_stderr, redirect_stdout
from petripoly.cli import run
out, err = io.StringIO(), io.StringIO()
with redirect_stdout(out), redirect_stderr(err):
    code = run(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m.startswith("petripoly."))
print(repr((code, out.getvalue(), err.getvalue(), loaded, "typing" in sys.modules)))
"""

# case -> (argv from the relay, chain and fork files, modules it loads besides cli and errors)
VERB_MODULES = {
    "mul": (lambda r, c, f: ["mul", "-p", "x+1", "-p", "y+1"], {"polynomial"}),
    "add": (lambda r, c, f: ["add", "-p", "x+1", "-p", "y^2"], {"polynomial"}),
    "product": (lambda r, c, f: ["product", r, c], {"compose", "net"}),
    "attach": (lambda r, c, f: ["attach", c, f], {"compose", "net"}),
    "iso": (lambda r, c, f: ["iso", r, r], {"net", "search"}),
    "dot": (lambda r, c, f: ["dot", r], {"net"}),
    "validate": (lambda r, c, f: ["validate", r], {"net"}),
    "encode": (lambda r, c, f: ["encode", r], {"codec", "net", "polynomial"}),
    "decode": (lambda r, c, f: ["decode", "-p", "x*y^2 + y^2 + x + 1"], {"codec", "net", "polynomial"}),
    "canon": (lambda r, c, f: ["canon", r], {"net", "polynomial", "search"}),
    "decompose -p": (lambda r, c, f: ["decompose", "-p", "x + x*y^2 + y^2 + 1"], {"factor", "polynomial"}),
    "decompose net.json": (lambda r, c, f: ["decompose", r], {"codec", "factor", "net", "polynomial"}),
    "decompose --nets": (lambda r, c, f: ["decompose", "--nets", r], {"codec", "factor", "net", "polynomial"}),
}

# verb -> arguments that the verb refuses with exit 2, before it opens any file
USAGE_ERRORS = {
    "encode": [],
    "decode": ["-p"],
    "mul": ["-p", "x", "--frob"],
    "add": ["-p", "x+1"],
    "product": ["left.json"],
    "attach": [],
    "decompose": ["-p", "1", "net.json"],
    "iso": ["a.json", "b.json", "c.json"],
    "canon": [],
    "dot": ["a.json", "b.json"],
    "validate": ["--nets", "net.json"],
}


def _run_with_every_verbs_parser(argv, capsys):
    full = cli.build_parser()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "build_parser", lambda verbs: full)
        return run(argv), *capsys.readouterr()


@pytest.mark.parametrize("verb", VERBS)
def test_each_verb_has_help(verb, capsys):
    """run builds only the verb's own parser; its help and its usage errors
    are byte for byte those of the parser with every verb."""
    assert run([verb, "-h"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith(f"usage: petripoly {verb} ") and err == ""
    assert _run_with_every_verbs_parser([verb, "-h"], capsys) == (0, out, err)
    argv = [verb, *USAGE_ERRORS[verb]]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert _run_with_every_verbs_parser(argv, capsys) == (2, out, err)


def test_import_petripoly_loads_no_submodule_and_cli_only_errors():
    show = "print(sorted(m for m in sys.modules if 'petripoly' in m));"
    proc = child_interpreter("-c", f"import sys, petripoly; {show} from petripoly import cli; {show}")
    assert proc.stdout.decode().splitlines() == [
        "['petripoly']", "['petripoly', 'petripoly.cli', 'petripoly.errors']"], proc.stderr


@pytest.mark.parametrize("case", sorted(VERB_MODULES))
def test_each_verb_loads_only_the_modules_it_calls(case, relay_file, chain_file, fork_file, capsys):
    arguments, modules = VERB_MODULES[case]
    argv = arguments(relay_file, chain_file, fork_file)
    proc = child_interpreter("-c", FRESH_RUN, *argv)
    assert proc.returncode == 0, proc.stderr
    code, out, err, loaded, typing_loaded = ast.literal_eval(proc.stdout.decode())
    assert loaded == sorted(f"petripoly.{m}" for m in {"cli", "errors", *modules})
    assert not typing_loaded
    assert (code, out, err) == (run(argv), *capsys.readouterr())  # same as with every module loaded


def test_decompose_net_after_importing_factor_alone():
    """factor.py loads codec and net only when decompose_net runs, so a fresh
    interpreter that imports factor alone still decomposes the relay net."""
    code = f"""
import sys
import petripoly.factor as factor
loaded = sorted(m for m in sys.modules if m.startswith("petripoly."))
from petripoly.net import read_net, write_net
net, _ = read_net({RELAY_DOC!r})
parts = factor.decompose_net(net)
print(repr((loaded, [write_net(p) for p in parts], factor.is_prime_net(net), [factor.is_prime_net(p) for p in parts])))
"""
    proc = child_interpreter("-c", code)
    assert proc.returncode == 0, proc.stderr
    loaded, parts, prime, parts_prime = ast.literal_eval(proc.stdout.decode())
    assert loaded == ["petripoly.errors", "petripoly.factor", "petripoly.polynomial"]
    assert parts == [write_net(part) for part in decompose_net(read_net(RELAY_DOC)[0])]
    assert len(parts) == 2 and not prime and parts_prime == [True, True]


def test_encode_and_every_module_load_neither_dataclasses_nor_inspect(relay_file):
    """The net classes are written without dataclasses, whose import
    pulls in inspect, ast, dis and tokenize."""
    code = """
import sys
from petripoly.cli import run
code = run(sys.argv[1:])
import petripoly.compose, petripoly.codec, petripoly.search, petripoly.factor
print(repr((code, sorted({"dataclasses", "inspect"} & set(sys.modules)))))
"""
    proc = child_interpreter("-c", code, "encode", relay_file)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().splitlines()[-1] == "(0, [])"


@pytest.mark.parametrize("argv", [
    ["mul", "-p", "x+1", "-p", "y+1"], ["mul", "-p", "x^", "-p", "1"], [],
    ["decompose", "-p", "x + x*y^2 + y^2 + 1"], ["frobnicate"],
])
def test_module_entry_point_prints_what_run_prints(argv, capsys):
    """Under -m, run reads its verb from sys.argv."""
    proc = child_interpreter("-m", "petripoly.cli", *argv)
    code = run(argv)
    out, err = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())


def test_output_into_a_closed_pipe_exits_2(tmp_path):
    """About 470 KB of decode output, more than a pipe buffer holds, into a
    pipe whose read end is closed; the diagnostic on stderr, sent into the
    same pipe, cannot be written either."""
    path = tmp_path / "big.txt"
    path.write_text("+".join(f"x^{1 << t}" for t in range(1500)) + "+1\n", encoding="utf-8")
    read, write = os.pipe()
    os.close(read)
    try:
        proc = child_interpreter("-m", "petripoly.cli", "decode", str(path), stdout=write, stderr=write)
    finally:
        os.close(write)
    assert proc.returncode == 2
