"""Command-line interface.

One verb per invocation; deterministic output on stdout, diagnostics on
stderr.  Exit codes: 0 success (and isomorphic), 1 not isomorphic,
2 usage or input-format errors, 3 precondition violations (including
nets too large for the recursive searches).  Each verb imports what it calls.
"""

import argparse
import sys

from . import __version__
from .errors import ParseError, PreconditionError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exceptions, so run() can
    keep the one-line-diagnostic / exit-code contract."""

    def error(self, message):
        raise _UsageError(message)


def _read_net_file(path):
    from .net import read_net
    with open(path, encoding="utf-8") as fh:
        return read_net(fh.read())


def _read_labeled_net(path):
    """The net and its labels, for encoding: labels 0, 1, ... by sorted id
    when the file has none, and a note and a warning on stderr for what the
    encoding cannot show."""
    from .net import isolated_conditions
    n, labels = _read_net_file(path)
    if labels is None:
        print(
            "note: input carries no labels; assigning 0,1,... by sorted condition id",
            file=sys.stderr,
        )
        labels = {b: t for t, b in enumerate(sorted(n.conditions))}
    dropped = sorted(isolated_conditions(n))
    if dropped:
        print(
            "warning: isolated conditions are invisible to the encoding: "
            + ", ".join(dropped),
            file=sys.stderr,
        )
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
    print(print_poly(encode(*_read_labeled_net(args.net))))
    return 0


def _cmd_decode(args):
    from .codec import decode
    from .net import write_net
    (poly,) = _poly_inputs(args, 1)
    n, labels = decode(poly)
    print(write_net(n, labels))
    return 0


def _cmd_mul(args):
    from .polynomial import print_poly
    p, q = _poly_inputs(args, 2)
    print(print_poly(p * q))
    return 0


def _cmd_add(args):
    from .polynomial import print_poly
    p, q = _poly_inputs(args, 2)
    print(print_poly(p + q))
    return 0


def _cmd_product(args):
    from .net import product, write_net
    n1, _ = _read_net_file(args.left)
    n2, _ = _read_net_file(args.right)
    print(write_net(product(n1, n2)))
    return 0


def _cmd_attach(args):
    from .net import attach, write_net
    n1, l1 = _read_net_file(args.left)
    n2, l2 = _read_net_file(args.right)
    if l1 is None or l2 is None:
        raise PreconditionError("attach requires labels in both input nets")
    n, labels = attach(n1, l1, n2, l2)
    print(write_net(n, labels))
    return 0


def _cmd_decompose(args):
    from .codec import decode, encode
    from .factor import decompose
    from .net import write_net
    from .polynomial import parse_poly, print_poly
    if (args.poly is None) == (args.net is None):
        raise _UsageError("give exactly one input: -p POLY or a net JSON file")
    if args.poly is not None:
        poly = parse_poly(args.poly)
    else:
        poly = encode(*_read_labeled_net(args.net))
    factors = decompose(poly)
    for factor in factors:
        print(print_poly(factor))
    if args.nets:
        print("[" + ", ".join(write_net(*decode(factor)) for factor in factors) + "]")
    return 0


def _cmd_iso(args):
    import json
    from .net import are_isomorphic
    n1, _ = _read_net_file(args.left)
    n2, _ = _read_net_file(args.right)
    witness = are_isomorphic(n1, n2)
    if witness is None:
        return 1
    beta, eta = witness
    print(json.dumps({"conditions": beta, "events": eta}, indent=2, sort_keys=True))
    return 0


def _cmd_canon(args):
    from .codec import canonical_poly
    from .polynomial import print_poly
    n, _ = _read_net_file(args.net)
    print(print_poly(canonical_poly(n)))
    return 0


def _cmd_dot(args):
    from .net import to_dot
    n, _ = _read_net_file(args.net)
    print(to_dot(n))
    return 0


def _cmd_validate(args):
    from .net import validate
    n, _ = _read_net_file(args.net)
    for warning in validate(n):
        print(warning)
    return 0


def _add_poly_arguments(parser):
    parser.add_argument(
        "-p", "--poly", action="append", metavar="POLY",
        help="inline polynomial, e.g. \"x + x*y^2 + y^2 + 1\"",
    )
    parser.add_argument(
        "files", nargs="*", metavar="FILE", help="file(s) holding polynomial text",
    )


def build_parser():
    parser = _Parser(
        prog="petripoly",
        description="Petri nets as polynomials over N[x,y]: "
                    "encode, decode, combine, and factor into primes.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="verb", metavar="VERB", required=True)

    p = sub.add_parser("encode", help="net JSON -> polynomial text")
    p.add_argument("net", help="net JSON file")
    p.set_defaults(handler=_cmd_encode)

    p = sub.add_parser("decode", help="polynomial -> net JSON (with labels)")
    _add_poly_arguments(p)
    p.set_defaults(handler=_cmd_decode)

    p = sub.add_parser("mul", help="multiply two polynomials")
    _add_poly_arguments(p)
    p.set_defaults(handler=_cmd_mul)

    p = sub.add_parser("add", help="add two polynomials")
    _add_poly_arguments(p)
    p.set_defaults(handler=_cmd_add)

    p = sub.add_parser("product", help="synchronization product of two nets")
    p.add_argument("left", help="net JSON file")
    p.add_argument("right", help="net JSON file")
    p.set_defaults(handler=_cmd_product)

    p = sub.add_parser("attach", help="glue two labeled nets along equal labels")
    p.add_argument("left", help="net JSON file (labels required)")
    p.add_argument("right", help="net JSON file (labels required)")
    p.set_defaults(handler=_cmd_attach)

    p = sub.add_parser(
        "decompose",
        help="prime factors, one per line",
        description="Factor a polynomial, or a net via its encoding, into primes.",
    )
    p.add_argument("-p", "--poly", metavar="POLY", help="inline polynomial")
    p.add_argument("net", nargs="?", help="net JSON file")
    p.add_argument("--nets", action="store_true",
                   help="also print the factor nets as a JSON array")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("iso", help="exit 0 with a witness if isomorphic, else exit 1")
    p.add_argument("left", help="net JSON file")
    p.add_argument("right", help="net JSON file")
    p.set_defaults(handler=_cmd_iso)

    p = sub.add_parser("canon", help="labeling-independent canonical polynomial")
    p.add_argument("net", help="net JSON file")
    p.set_defaults(handler=_cmd_canon)

    p = sub.add_parser("dot", help="Graphviz DOT rendering of a net")
    p.add_argument("net", help="net JSON file")
    p.set_defaults(handler=_cmd_dot)

    p = sub.add_parser("validate", help="structural check; warnings on stdout")
    p.add_argument("net", help="net JSON file")
    p.set_defaults(handler=_cmd_validate)

    return parser


def run(argv=None) -> int:
    """Parse arguments, dispatch, and map errors to exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except (_UsageError, ParseError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RecursionError:  # the searches recurse once per condition
        print("error: net too large for the search", file=sys.stderr)
        return 3
    except SystemExit as exc:  # argparse --help/--version
        return int(exc.code or 0)


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
