"""Command-line interface.

One verb per invocation.  :func:`run` builds only the parser of the verb
it runs; when the first argument after any ``--stats`` names no verb
(``-h``, ``--version``, an unknown verb) it builds them all.  A verb's
handler imports what it calls and returns its lines for stdout, or None
for "not isomorphic"; :func:`run` prints them, or a one-line diagnostic
on stderr, and makes the exit code: 0 success (and isomorphic), 1 not
isomorphic, 2 usage or input-format errors, 3 precondition violations
and running out of memory.  A note, warning or diagnostic that stderr
cannot take is dropped; the result and the exit code stand.
"""

import argparse
import sys

from . import __version__
from .errors import ParseError, PreconditionError, _counters


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exceptions, so run() can
    keep the one-line-diagnostic / exit-code contract."""

    def error(self, message):
        raise _UsageError(message)


def _note(line):
    try:
        print(line, file=sys.stderr)
    except OSError:  # stderr is closed or full: stdout and the exit code still tell
        pass


def _read_net_file(path):
    from .net import read_net
    with open(path, encoding="utf-8") as fh:
        return read_net(fh.read())


def _read_labeled_net(path):
    """The net and its labels, for encoding: labels 0, 1, ... by sorted id
    when the file has none, and a note and a warning on stderr for what the
    encoding cannot show.  A used condition's label whose 2^label has more
    digits than the int-string limit lets print is refused here, before
    encoding builds that number; isolated conditions are never expanded."""
    from .net import isolated_conditions
    n, labels = _read_net_file(path)
    if labels is None:
        _note("note: input carries no labels; assigning 0,1,... by sorted condition id")
        labels = {b: t for t, b in enumerate(sorted(n.conditions))}
    dropped = sorted(isolated_conditions(n))
    if dropped:
        _note("warning: isolated conditions are invisible to the encoding: " + ", ".join(dropped))
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit:
        unprintable = (10 ** limit).bit_length()  # the least label with 2^label >= 10^limit
        if any(labels[b] >= unprintable for b in n.conditions.difference(dropped)):
            from .polynomial import _past_int_limit
            raise _past_int_limit()
    return n, labels


def _poly_inputs(args, want):
    from .polynomial import parse_poly
    texts = list(args.poly or [])
    for path in args.files or []:
        with open(path, encoding="utf-8") as fh:
            texts.append(fh.read())
    if len(texts) != want:
        raise _UsageError(f"expected {want} polynomial input(s), got {len(texts)}")
    return [parse_poly(text) for text in texts]


def _cmd_encode(args):
    from .codec import encode
    from .polynomial import print_poly
    return [print_poly(encode(*_read_labeled_net(args.net)))]


def _cmd_decode(args):
    from .codec import decode
    from .net import write_net
    (poly,) = _poly_inputs(args, 1)
    n, labels = decode(poly)
    return [write_net(n, labels)]


def _cmd_mul_or_add(args):
    from .polynomial import print_poly
    p, q = _poly_inputs(args, 2)
    return [print_poly(p * q if args.verb == "mul" else p + q)]


def _two_nets(args):
    return [_read_net_file(path)[0] for path in (args.left, args.right)]


def _cmd_product(args):
    from .compose import product
    from .net import write_net
    return [write_net(product(*_two_nets(args)))]


def _cmd_attach(args):
    from .compose import attach
    from .net import write_net
    n1, l1 = _read_net_file(args.left)
    n2, l2 = _read_net_file(args.right)
    if l1 is None or l2 is None:
        raise PreconditionError("attach requires labels in both input nets")
    n, labels = attach(n1, l1, n2, l2)
    return [write_net(n, labels)]


def _cmd_decompose(args):
    from .factor import decompose
    from .polynomial import parse_poly, print_poly
    if (args.poly is None) == (args.net is None):
        raise _UsageError("give exactly one input: -p POLY or a net JSON file")
    if args.poly is not None:
        poly = parse_poly(args.poly)
    else:
        from .codec import encode
        poly = encode(*_read_labeled_net(args.net))
    factors = decompose(poly)
    lines = [print_poly(factor) for factor in factors]
    if args.nets:
        from .codec import decode
        from .net import write_net
        lines.append("[" + ", ".join(write_net(*decode(factor)) for factor in factors) + "]")
    return lines


def _cmd_iso(args):
    import json
    from .search import are_isomorphic
    witness = are_isomorphic(*_two_nets(args))
    if witness is None:
        return None
    beta, eta = witness
    return [json.dumps({"conditions": beta, "events": eta}, indent=2, sort_keys=True)]


def _cmd_canon(args):
    from .polynomial import print_poly
    from .search import canonical_poly
    n, _ = _read_net_file(args.net)
    return [print_poly(canonical_poly(n))]


def _cmd_dot(args):
    from .net import to_dot
    n, _ = _read_net_file(args.net)
    return [to_dot(n)]


def _cmd_validate(args):
    from .net import validate
    n, _ = _read_net_file(args.net)
    return validate(n)


def _arg(*flags, **options):
    return flags, options


_NET = [_arg("net", help="net JSON file")]
_TWO_NETS = [_arg(side, help="net JSON file") for side in ("left", "right")]
_POLYS = [
    _arg("-p", "--poly", action="append", metavar="POLY",
         help="inline polynomial, e.g. \"x + x*y^2 + y^2 + 1\""),
    _arg("files", nargs="*", metavar="FILE", help="file(s) holding polynomial text"),
]

# verb -> (help, handler, add_argument calls)
_VERBS = {
    "encode": ("net JSON -> polynomial text", _cmd_encode, _NET),
    "decode": ("polynomial -> net JSON (with labels)", _cmd_decode, _POLYS),
    "mul": ("multiply two polynomials", _cmd_mul_or_add, _POLYS),
    "add": ("add two polynomials", _cmd_mul_or_add, _POLYS),
    "product": ("synchronization product of two nets", _cmd_product, _TWO_NETS),
    "attach": ("glue two labeled nets along equal labels", _cmd_attach,
               [_arg(side, help="net JSON file (labels required)") for side in ("left", "right")]),
    "decompose": ("prime factors, one per line", _cmd_decompose,
                  [_arg("-p", "--poly", metavar="POLY", help="inline polynomial"),
                   _arg("net", nargs="?", help="net JSON file"),
                   _arg("--nets", action="store_true",
                        help="also print the factor nets as a JSON array")]),
    "iso": ("exit 0 with a witness if isomorphic, else exit 1", _cmd_iso, _TWO_NETS),
    "canon": ("labeling-independent canonical polynomial", _cmd_canon, _NET),
    "dot": ("Graphviz DOT rendering of a net", _cmd_dot, _NET),
    "validate": ("structural check; warnings on stdout", _cmd_validate, _NET),
}

_DESCRIPTIONS = {"decompose": "Factor a polynomial, or a net via its encoding, into primes."}


def build_parser(verbs=_VERBS):
    parser = _Parser(
        prog="petripoly",
        description="Petri nets as polynomials over N[x,y]: "
                    "encode, decode, combine, and factor into primes.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--stats", action="store_true",
                        help="also print wall times, work counters and input sizes "
                             "as JSON on stderr")
    sub = parser.add_subparsers(dest="verb", metavar="VERB", required=True)
    for verb, (summary, handler, arguments) in verbs.items():
        p = sub.add_parser(verb, help=summary, description=_DESCRIPTIONS.get(verb))
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(handler=handler)
    return parser


def _collect(handler, args):
    """handler(args) with ``errors._counters`` set to a fresh Counter; then
    its counts, and the verb's wall time as seconds.verb, go to stderr as
    one JSON object, also when the handler raises.  Its imports are made
    here, so that a run without ``--stats`` loads none of them."""
    import json
    from collections import Counter
    from time import perf_counter
    tally, start = Counter(), perf_counter()
    token = _counters.set(tally)
    try:
        return handler(args)
    finally:
        _counters.reset(token)
        tally["seconds.verb"] = perf_counter() - start
        _note(json.dumps(tally, sort_keys=True))


def run(argv=None) -> int:
    """Parse arguments, run the verb, print its lines; return the exit code."""
    if argv is None:
        argv = sys.argv[1:]
    verb = next((arg for arg in argv if arg != "--stats"), None)
    parser = build_parser({verb: _VERBS[verb]} if verb in _VERBS else _VERBS)
    try:
        args = parser.parse_args(argv)
        lines = _collect(args.handler, args) if args.stats else args.handler(args)
        if lines is None:
            return 1
        for line in lines:
            print(line)
        return 0
    except (_UsageError, ParseError, OSError, UnicodeDecodeError) as exc:
        message, code = exc, 2
    except PreconditionError as exc:
        message, code = exc, 3
    except MemoryError:  # the frames that held the memory are gone once this clause ends
        message, code = "out of memory", 3
    except SystemExit as exc:  # argparse --help/--version
        return int(exc.code or 0)
    _note(f"error: {message}")
    return code


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
