"""The four perfbench workloads.

A workload makes item ``i`` of a run from its own ``random.Random``
seeded with the run's seed and ``i`` (``make``), runs it inside the
timed span (``run``) and checks the output afterwards (``check``).
``check`` raises :class:`CheckFailed` naming what disagreed; the
expected values come from :mod:`oracle` or from how the input was
built, never from the function under test.  Every call into petripoly
that ``run`` makes sits in a span named ``<module>.<function>``.
"""

import importlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import reduce
from math import prod
from pathlib import Path

import oracle


class CheckFailed(Exception):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def fresh_import(name):
    """Import ``name`` after dropping every loaded petripoly module, as a new
    process would."""
    for loaded in [m for m in sys.modules if m == "petripoly" or m.startswith("petripoly.")]:
        del sys.modules[loaded]
    return importlib.import_module(name)


def item_rng(seed, i):
    return random.Random(f"{seed}:{i}")


def terms(poly):
    return dict(poly.terms)


# A plain net is (conditions, {event id: (pre, post)}); petripoly nets are
# built from it with ``to_net`` so that checks read the input, not the
# program's copy of it.

def to_net(lib, conditions, events):
    return lib.PetriNet(conditions, [lib.Event(e, pre, post) for e, (pre, post) in events.items()])


def cycle(n, prefix):
    conditions = [f"{prefix}{k}" for k in range(n)]
    events = {f"{prefix}e{k}": ((conditions[k],), (conditions[(k + 1) % n],)) for k in range(n)}
    return conditions, events


def random_net(rng, n, m, prefix):
    """n conditions, all used, and m events with 1-2 pre and 1-2 post conditions."""
    conditions = [f"{prefix}{k}" for k in range(n)]
    sides = [[rng.sample(conditions, rng.randint(1, 2)), rng.sample(conditions, rng.randint(1, 2))]
             for _ in range(m)]
    used = {b for pre, post in sides for b in pre + post}
    for b in conditions:
        if b not in used:
            rng.choice(sides)[1].append(b)
    return conditions, {f"{prefix}e{k}": (tuple(pre), tuple(post)) for k, (pre, post) in enumerate(sides)}


def relabel(rng, net):
    """An isomorphic copy with fresh random ids and shuffled event order."""
    conditions, events = net
    names = rng.sample(range(10**6), len(conditions) + len(events))
    rename = {b: f"v{names[k]}" for k, b in enumerate(conditions)}
    copy = [(f"t{names[len(conditions) + k]}",
             (tuple(rename[b] for b in pre), tuple(rename[b] for b in post)))
            for k, (pre, post) in enumerate(events.values())]
    rng.shuffle(copy)
    new_conditions = list(rename.values())
    rng.shuffle(new_conditions)
    return new_conditions, dict(copy)


def large_net(rng, n, m):
    """n conditions with random ids and labels 0..n-1; m events with 1-3 pre
    and 0-3 post conditions.  Returns (conditions, events, labeling)."""
    conditions = [f"b{k}" for k in rng.sample(range(10**4), n)]
    labeling = dict(zip(conditions, rng.sample(range(n), n)))
    events = {f"t{k}": (tuple(rng.sample(conditions, rng.randint(1, 3))),
                        tuple(rng.sample(conditions, rng.randint(0, 3))))
              for k in range(m)}
    return conditions, events, labeling


def document(conditions, events, labeling=None):
    """The net JSON document format, written by the benchmark itself."""
    return {
        "conditions": [{"id": b, **({"label": labeling[b]} if labeling else {})} for b in conditions],
        "events": [{"id": e, "pre": sorted(pre), "post": sorted(post)}
                   for e, (pre, post) in events.items()],
    }


def encode_document(doc, labeling=None):
    """Reference encoding of a net document, with its own labels unless given."""
    if labeling is None:
        labeling = {c["id"]: c["label"] for c in doc["conditions"]}
    return oracle.encode(((e["pre"], e["post"]) for e in doc["events"]), labeling)


def prime_component(rng, prefix, labels, m):
    """A net with two conditions, m events, support exactly ``labels`` and
    content 1, proved prime by :func:`oracle.is_prime`."""
    a, b = f"{prefix}a", f"{prefix}b"
    labeling = {a: labels[0], b: labels[1]}
    subsets = [(), (a,), (b,), (a, b)]
    while True:
        sides = [(rng.choice(subsets), rng.choice(subsets)) for _ in range(m)]
        if any(not pre and not post for pre, post in sides):
            continue
        poly = oracle.encode(sides, labeling)
        if oracle.support(poly) == set(labels) and oracle.is_prime(poly):
            events = {f"{prefix}e{k}": side for k, side in enumerate(sides)}
            return (a, b), events, labeling, poly


class Workload:
    """Items are independent; ``cycle`` is the period of any fixed schedule."""

    module = "petripoly"
    cycle = 1

    def __init__(self, lib, seed, tracer, scratch):
        self.lib = lib
        self.seed = seed
        self.span = tracer.span
        self.scratch = scratch

    def probe(self):
        """Extra traced measurements after the timed loop of a traced run."""


class Convert(Workload):
    """write_net -> read_net -> encode -> print_poly -> parse_poly -> support
    -> decode -> write_net on one large seeded net per item."""

    name = "convert"
    sizes = ("conditions 32-48 and events 1000-3000, both spread evenly over the items; "
             "each event has 1-3 pre and 0-3 post conditions")

    def make(self, i):
        rng = item_rng(self.seed, i)
        # Sizes follow low-discrepancy sequences over their ranges, so every
        # seed and every prefix of a run sees the same spread of sizes; the
        # seed picks ids, labels and pre/post sets.
        n = 32 + int(17 * ((i + 1) * 0.4142135623730951 % 1))
        m = 1000 + int(2001 * ((i + 1) * 0.6180339887498949 % 1))
        conditions, events, labeling = large_net(rng, n, m)
        return events, to_net(self.lib, conditions, events), labeling

    def run(self, x):
        _, net, labeling = x
        lib, span = self.lib, self.span
        with span("net.write_net"):
            text = lib.write_net(net, labeling)
        with span("net.read_net"):
            read, read_labeling = lib.read_net(text)
        with span("codec.encode") as s:
            poly = lib.encode(read, read_labeling)
        s.set(events_in=len(read.events))
        with span("polynomial.print_poly"):
            poly_text = lib.print_poly(poly)
        with span("polynomial.parse_poly"):
            parsed = lib.parse_poly(poly_text)
        with span("polynomial.support"):
            bits = parsed.support()
        with span("codec.decode"):
            decoded, decoded_labeling = lib.decode(parsed)
        with span("net.write_net"):
            out = lib.write_net(decoded, decoded_labeling)
        return poly, poly_text, parsed, bits, decoded, decoded_labeling, out

    def check(self, x, out):
        events, _, labeling = x
        poly, poly_text, parsed, bits, decoded, decoded_labeling, text = out
        expected = oracle.encode(events.values(), labeling)
        require(terms(poly) == expected, "encode(read_net(write_net(net))) differs from the reference encoding")
        require(poly_text == oracle.text(expected), "print_poly differs from the documented print form")
        require(terms(parsed) == expected, "parse_poly(print_poly(p)) != p")
        require(set(bits) == oracle.support(expected), "support() differs from the reference support")
        require(len(decoded.events) == sum(expected.values()) - 1 == len(events),
                "decoded event count != coefficient sum - 1")
        with self.span("codec.encode"):
            again = self.lib.encode(decoded, decoded_labeling)
        require(terms(again) == expected, "re-encoding the decoded net does not give p")
        require(encode_document(json.loads(text)) == expected, "written decoded net does not encode to p")


class ComposeFactor(Workload):
    """Fold prime components with product, attach one more, encode, multiply
    the component polynomials and factor the product's encoding."""

    name = "compose-factor"
    cycle = 15
    sizes = ("2-6 prime components per item (item i takes 2 + i % 5), each with 2 conditions, "
             "its own pair of labels and 2-4 events (component c of item i: 2 + (i + c) % 3); "
             "1 more component attached on 2 used labels; label layouts repeat every 15 items")

    def make(self, i):
        rng = item_rng(self.seed, i)
        # The label layout, which decides how far the factorizer's sweep
        # goes, repeats with the schedule; the seed picks the events.
        layout = item_rng("layout", i % self.cycle)
        k = 2 + i % 5
        labels = layout.sample(range(2 * k), 2 * k)
        components = [prime_component(rng, f"p{c}", labels[2 * c:2 * c + 2], 2 + (i + c) % 3)
                      for c in range(k)]
        extra = prime_component(rng, "q", layout.sample(range(2 * k), 2), 2 + i % 3)
        lib = self.lib
        nets = [(to_net(lib, conds, events), labeling) for conds, events, labeling, _ in components + [extra]]
        return components, extra, nets

    def run(self, x):
        _, _, nets = x
        lib, span = self.lib, self.span
        (net, labeling), *others, (extra, extra_labeling) = nets
        for other, other_labeling in others:
            with span("net.product") as s:
                net = lib.product(net, other)
            s.set(events_out=len(net.events))
            labeling = {**{f"L:{b}": t for b, t in labeling.items()},
                        **{f"R:{b}": t for b, t in other_labeling.items()}}
        with span("net.attach"):
            glued, glued_labeling = lib.attach(net, labeling, extra, extra_labeling)
        polys = []
        for n, l in [(net, labeling), (glued, glued_labeling)] + nets:
            with span("codec.encode") as s:
                polys.append(lib.encode(n, l))
            s.set(events_in=len(n.events))
        poly, glued_poly, *component_polys, extra_poly = polys
        multiplied = component_polys[0]
        for q in component_polys[1:]:
            with span("polynomial.mul") as s:
                multiplied = multiplied * q
            s.set(terms_out=len(multiplied.terms))
        with span("polynomial.add"):
            summed = poly + extra_poly
        with span("factor.decompose") as s:
            factors = lib.decompose(poly)
        s.set(factors_out=len(factors))
        return net, poly, glued_poly, multiplied, summed, factors

    def check(self, x, out):
        components, extra, _ = x
        net, poly, glued_poly, multiplied, summed, factors = out
        expected = reduce(oracle.mul, (c[3] for c in components))
        require(len(net.events) == prod(len(c[1]) + 1 for c in components) - 1,
                "product has the wrong number of events")
        require(terms(poly) == expected, "encode(product) != product of the component encodings")
        require(terms(multiplied) == expected, "Polynomial * differs from the reference product")
        glued_expected = oracle.add(expected, extra[3])
        require(terms(glued_poly) == glued_expected, "encode(attach) != sum of the encodings")
        require(terms(summed) == glued_expected, "Polynomial + differs from the reference sum")
        factor_terms = [terms(f) for f in factors]
        require(reduce(oracle.mul, factor_terms) == expected, "factors do not multiply back")
        canon = lambda p: sorted(p.items())
        require(sorted(map(canon, factor_terms)) == sorted(canon(c[3]) for c in components),
                "factors differ from the component polynomials")


# Search schedule: (kind, conditions or support bits, variant), one item
# each, repeated.  Runs measure whole schedules, and the counts put the
# median in the middle of the 6-condition canonical_poly items and the
# 90th percentile in the middle of the 13-bit decompose items, so neither
# quantile sits on a jump between kinds of item.
_D = {n: ("decompose", n, "chain") for n in (10, 11, 12, 13)}
_K6c, _K6s, _K7c, _K7s, _K8c = (("canonical", n, v) for n, v in
                                ((6, "cycle"), (6, "seeded"), (7, "cycle"), (7, "seeded"), (8, "cycle")))
_I6p, _I8p, _I6n, _I8n = (("iso", n, v) for n, v in
                          ((6, "positive"), (8, "positive"), (6, "negative"), (8, "negative")))
SCHEDULE = (
    _K6c, _D[13], _I6p, _K6s, _K7c, _I8p, _K6c, _D[10], _I6n, _K6s, _K8c,
    _I6p, _K6c, _D[11], _I8p, _K6s, _I8n, _I6n, _K6c, _D[13], _I6p, _K6s,
    _K7s, _I8p, _K6c, _D[12], _I6n, _K6s, _K6c, _D[13], _K6s,
)


class Search(Workload):
    """decompose of prime chains, canonical_poly of cycles and seeded nets,
    are_isomorphic of Cn against 2 x C(n/2) and of seeded nets against
    relabeled copies."""

    name = "search"
    cycle = len(SCHEDULE)
    sizes = ("decompose: prime chains at 10-13 support bits; canonical_poly: cycles and seeded "
             "nets at 6-8 conditions; are_isomorphic: Cn vs 2 x C(n/2) and relabeled copies, n = 6, 8")

    def __init__(self, lib, seed, tracer, scratch):
        super().__init__(lib, seed, tracer, scratch)
        rng = item_rng(seed, "bases")
        self.bases = {("cycle", n, 0): cycle(n, "c") for n in (6, 7, 8)}
        self.bases.update({("seeded", n, k): random_net(rng, n, n, "s") for n in (6, 7) for k in (0, 1)})
        self.canonical_seen = {}

    def make(self, i):
        rng = item_rng(self.seed, i)
        kind, n, variant = slot = SCHEDULE[i % len(SCHEDULE)]
        lib = self.lib
        if kind == "decompose":
            labels = rng.sample(range(n), n)
            poly = oracle.encode([((labels[k],), (labels[k + 1],)) for k in range(n - 1)],
                                 {t: t for t in labels})
            return slot, poly, lib.Polynomial(poly)
        if kind == "canonical":
            base = (variant, n, rng.randrange(2) if variant == "seeded" else 0)
            net = relabel(rng, self.bases[base])
            return slot, (base, net), to_net(lib, *net)
        if variant == "negative":
            # Fixed ids: the ids set the order of the exhaustive search, and
            # so its length, which would otherwise vary with the seed.
            halves = [cycle(n // 2, p) for p in "ab"]
            nets = cycle(n, "c"), (halves[0][0] + halves[1][0], {**halves[0][1], **halves[1][1]})
        else:
            net = random_net(rng, n, n + 2, "r")
            nets = net, relabel(rng, net)
        return slot, nets, tuple(to_net(lib, *net) for net in nets)

    def run(self, x):
        (kind, n, variant), _, arg = x
        lib, span = self.lib, self.span
        if kind == "decompose":
            with span("factor.decompose", series=f"bits{n}") as s:
                factors = lib.decompose(arg)
            s.set(factors_out=len(factors))
            return factors
        if kind == "canonical":
            with span("codec.canonical_poly", series=f"n{n}"):
                return lib.canonical_poly(arg)
        series = {"series": f"n{n}"} if variant == "negative" else {}
        with span("net.are_isomorphic", **series) as s:
            witness = lib.are_isomorphic(*arg)
        s.set(found=witness is not None)
        return witness

    def check(self, x, out):
        (kind, n, variant), spec, _ = x
        if kind == "decompose":
            require([terms(f) for f in out] == [spec], "a prime chain was split")
        elif kind == "canonical":
            base, (conditions, events) = spec
            got = terms(out)
            identity = oracle.encode(events.values(), {b: t for t, b in enumerate(sorted(conditions))})
            require(sum(got.values()) - 1 == len(events), "canonical polynomial has the wrong event count")
            require(oracle.support(got) == set(range(n)), "canonical polynomial is not onto 0..n-1")
            require(oracle.order_key(got) <= oracle.order_key(identity),
                    "canonical polynomial is above the identity-labeling encoding")
            require(self.canonical_seen.setdefault(base, got) == got,
                    f"canonical polynomial differs across relabelings of {base}")
        elif variant == "negative":
            require(out is None, f"C{n} reported isomorphic to 2 x C{n // 2}")
        else:
            require(out is not None and oracle.is_witness(*spec, *out),
                    "relabeled copy: no witness, or the witness does not map the events")


class Cli(Workload):
    """Every verb of the petripoly command, one call of ``petripoly.cli.run``
    per item after a fresh import of the package, as a new process would do.

    Child processes spread too much from run to run on a shared machine to
    gate on, so they are measured only by ``probe`` in the traced run.
    Fifteen cases run on small files.  Three more encode, decode and draw a
    net of 1500 events; they are the slowest sixth of the items, so the
    90th percentile falls inside them rather than in the noise of the
    small cases."""

    name = "cli"
    module = "petripoly.cli"
    sizes = ("15 cases on nets of 3-5 conditions and 3-6 events and polynomials of up to "
             "about 40 terms; 3 cases on a net of 40 conditions and 1500 events")
    probe_repeats = 9

    def __init__(self, lib, seed, tracer, scratch):
        super().__init__(lib, seed, tracer, scratch)
        self.env = {k: v for k, v in os.environ.items() if k != "PPN_MAX_SUPPORT"}
        self.env["PYTHONPATH"] = str(Path(lib.__file__).parent.parent)
        self.cases = self._cases(item_rng(seed, "files"))
        self.cycle = len(self.cases)

    def _write(self, name, content):
        path = self.scratch / name
        path.write_text(content if isinstance(content, str) else json.dumps(content, indent=2))
        return str(path)

    def _cases(self, rng):
        a = random_net(rng, 3, rng.randint(3, 4), "a")
        b = random_net(rng, 3, rng.randint(3, 4), "b")
        c = random_net(rng, 3, rng.randint(3, 4), "c")
        la = dict(zip(a[0], rng.sample(range(3), 3)))
        lb = dict(zip(b[0], rng.sample(range(3, 6), 3)))
        lc = dict(zip(c[0], rng.sample(range(1, 5), 3)))
        pa, pb, pc = oracle.encode(a[1].values(), la), oracle.encode(b[1].values(), lb), oracle.encode(c[1].values(), lc)
        a_file = self._write("a.json", document(*a, la))
        unlabeled = self._write("a-unlabeled.json", document(*a))
        b_file = self._write("b.json", document(*b, lb))
        c_file = self._write("c.json", document(*c, lc))
        copy = relabel(rng, a)
        copy_file = self._write("a-copy.json", document(*copy))
        canon_net = random_net(rng, 4, rng.randint(4, 5), "k")
        canon_file = self._write("k.json", document(*canon_net))
        f_conditions, f_events = random_net(rng, 3, 3, "f")
        f_events["fe-empty"] = ((), (f_conditions[0],))
        validate_file = self._write("f.json", document(f_conditions + ["f-isolated"], f_events))
        c4_file = self._write("c4.json", document(*cycle(4, "c")))
        halves = [cycle(2, p) for p in "xy"]
        c2_file = self._write("c2c2.json", document(halves[0][0] + halves[1][0], {**halves[0][1], **halves[1][1]}))
        primes = [prime_component(rng, f"p{k}", (2 * k, 2 * k + 1), 2 + k)[3] for k in range(3)]
        composite = reduce(oracle.mul, primes)
        product_labels = {**{f"L:{x}": t for x, t in la.items()}, **{f"R:{x}": t for x, t in lb.items()}}
        text = oracle.text
        big_conditions, big_events, big_labeling = large_net(rng, 40, 1500)
        big = oracle.encode(big_events.values(), big_labeling)
        big_file = self._write("big.json", document(big_conditions, big_events, big_labeling))
        big_poly_file = self._write("big.txt", text(big))

        def exact(expected):
            return lambda out: require(out == expected + "\n", f"stdout {out!r} != {expected!r}")

        def empty(out):
            require(out == "", f"stdout {out!r} is not empty")

        def net_document(check):
            return lambda out: check(json.loads(out))

        def witness(doc):
            require(oracle.is_witness(a, copy, doc["conditions"], doc["events"]), "iso witness does not map the events")

        def dot_lines(conditions, events):
            lines = ["digraph net {"] + [f'  "{x}" [shape=circle];' for x in sorted(conditions)]
            ordered = sorted(events.items())
            lines += [f'  "{e}" [shape=box];' for e, _ in ordered]
            for e, (pre, post) in ordered:
                lines += [f'  "{x}" -> "{e}";' for x in sorted(pre)]
                lines += [f'  "{e}" -> "{x}";' for x in sorted(post)]
            return "\n".join(lines + ["}"])

        sum_check = lambda doc: require(encode_document(doc) == oracle.add(pa, pc), "attach output does not encode to the sum")
        product_check = lambda doc: require(
            len(doc["events"]) == (len(a[1]) + 1) * (len(b[1]) + 1) - 1
            and encode_document(doc, product_labels) == oracle.mul(pa, pb),
            "product output does not encode to the product")
        decode_check = lambda doc: require(encode_document(doc) == oracle.mul(pa, pb), "decode output does not encode back")
        big_decode_check = lambda doc: require(encode_document(doc) == big, "decode output does not encode back")
        warnings = ["isolated condition f-isolated", "event fe-empty has empty pre"]
        return [
            ("encode", "encode", [a_file], 0, exact(text(pa))),
            ("encode", "encode", [unlabeled], 0,
             exact(text(oracle.encode(a[1].values(), {x: t for t, x in enumerate(sorted(a[0]))})))),
            ("decode", "decode", ["-p", text(oracle.mul(pa, pb))], 0, net_document(decode_check)),
            ("mul", "mul", ["-p", text(pa), "-p", text(pb)], 0, exact(text(oracle.mul(pa, pb)))),
            ("add", "add", ["-p", text(pa), "-p", text(pc)], 0, exact(text(oracle.add(pa, pc)))),
            ("product", "product", [a_file, b_file], 0, net_document(product_check)),
            ("attach", "attach", [a_file, c_file], 0, net_document(sum_check)),
            ("decompose", "decompose", ["-p", text(composite)], 0,
             exact("\n".join(text(p) for p in sorted(primes, key=oracle.order_key)))),
            ("iso", "iso", [a_file, copy_file], 0, net_document(witness)),
            ("canon", "canon", [canon_file], 0,
             exact(text(oracle.canonical(canon_net[1].values(), canon_net[0])))),
            ("dot", "dot", [a_file], 0, exact(dot_lines(*a))),
            ("validate", "validate", [validate_file], 0, exact("\n".join(warnings))),
            ("iso-not-isomorphic", "iso", [c4_file, c2_file], 1, empty),
            ("mul-bad-poly", "mul", ["-p", "x^", "-p", "1"], 2, empty),
            ("decode-no-idle", "decode", ["-p", "x*y + y"], 3, empty),
            ("encode-large", "encode", [big_file], 0, exact(text(big))),
            ("decode-large", "decode", [big_poly_file], 0, net_document(big_decode_check)),
            ("dot-large", "dot", [big_file], 0, exact(dot_lines(big_conditions, big_events))),
        ]

    def make(self, i):
        return self.cases[i % len(self.cases)]

    def run(self, case):
        label, verb, argv, _, _ = case
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            with self.span("cli.reimport"):
                cli = fresh_import("petripoly.cli")
            with self.span(f"cli.run.{label}"):
                code = cli.run([verb, *argv])
        return code, out.getvalue()

    def check(self, case, result):
        label, _, _, expected_code, check = case
        code, stdout = result
        require(code == expected_code, f"petripoly {label} exited {code}, expected {expected_code}")
        check(stdout)

    def probe(self):
        """Child processes, checked like the items: cli.child.spawn (bare
        interpreter), cli.child.import (import petripoly.cli) and
        cli.child.process (each case as ``python -m petripoly.cli``)."""
        for _ in range(self.probe_repeats):
            for name, code in (("cli.child.spawn", "pass"), ("cli.child.import", "import petripoly.cli")):
                with self.span(name):
                    subprocess.run([sys.executable, "-c", code], env=self.env, check=True,
                                   capture_output=True, timeout=60)
        for _ in range(2):
            for case in self.cases:
                _, verb, argv, _, _ = case
                with self.span("cli.child.process"):
                    proc = subprocess.run([sys.executable, "-m", "petripoly.cli", verb, *argv],
                                          capture_output=True, text=True, env=self.env, timeout=60)
                self.check(case, (proc.returncode, proc.stdout))


WORKLOADS = {w.name: w for w in (Convert, ComposeFactor, Search, Cli)}
