"""Exact sparse arithmetic in the commutative semiring N[x,y].

A polynomial is a finite mapping from exponent pairs ``(i, j)`` to
positive integer coefficients; the zero polynomial is the empty mapping.
Everything is an arbitrary-size Python int, so there is no overflow to
guard against, and negative values are rejected at construction.

The binary support of a number is the set of positions of its 1-bits;
the support of a polynomial is the union over all its exponents.  Two
polynomials with disjoint supports multiply without binary carries,
which is what the factorization machinery in :mod:`petripoly.factor`
exploits.
"""

import re
import sys
from collections.abc import Iterable, Mapping
from functools import total_ordering
from types import MappingProxyType

from .errors import ParseError, PreconditionError

__all__ = [
    "Polynomial",
    "ZERO",
    "ONE",
    "tau_nat",
    "nat_of_bits",
    "disjoint_support",
    "parse_poly",
    "print_poly",
]


def _check_nat(value, what):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an int, got {value!r}")
    if value < 0:
        raise ValueError(f"{what} must be nonnegative, got {value}")


def tau_nat(k: int) -> frozenset[int]:
    """Positions of the 1-bits in the binary expansion of ``k``."""
    _check_nat(k, "argument")
    return frozenset(t for t, digit in enumerate(reversed(bin(k))) if digit == "1")


def nat_of_bits(bits: Iterable[int]) -> int:
    """Inverse of :func:`tau_nat`: the sum of ``2**t`` over the given positions."""
    total = 0
    for t in bits:
        _check_nat(t, "bit position")
        total += 1 << t
    return total


@total_ordering
class Polynomial:
    """Immutable sparse polynomial with natural-number coefficients.

    ``+`` and ``*`` are the semiring operations.  The comparison
    operators implement the total order of :meth:`sort_key`, and ``str()``
    yields the canonical text form of :func:`print_poly`.
    The constructor checks every term; results built from valid terms
    (``+``, ``*``, parsing, ``encode``, factors) skip it via :meth:`_trusted`.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | Iterable = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        stored: dict[tuple[int, int], int] = {}
        for (i, j), coeff in items:
            _check_nat(i, "x-exponent")
            _check_nat(j, "y-exponent")
            _check_nat(coeff, "coefficient")
            if coeff:
                stored[(i, j)] = stored.get((i, j), 0) + coeff
        self._terms = stored

    @classmethod
    def _trusted(cls, terms: dict) -> "Polynomial":
        """Wrap ``terms``, which must map pairs of nonnegative ints to positive ints."""
        poly = object.__new__(cls)
        poly._terms = terms
        return poly

    @classmethod
    def constant(cls, value: int) -> "Polynomial":
        return cls({(0, 0): value})

    @property
    def terms(self) -> Mapping[tuple[int, int], int]:
        """Read-only view of the (exponent pair -> coefficient) mapping."""
        return MappingProxyType(self._terms)

    @property
    def constant_term(self) -> int:
        return self._terms.get((0, 0), 0)

    def support(self) -> frozenset[int]:
        """Union of the binary supports of all exponents."""
        mask = 0
        for i, j in self._terms:
            mask |= i | j
        return tau_nat(mask)

    def sort_key(self) -> tuple:
        """Key of the total order on polynomials.

        Terms are listed in descending graded-lexicographic order of
        their monomials, each as a ``(i + j, i, coefficient)`` triple.
        Keys compare as plain tuples: term by term, by grade, then
        x-exponent, then coefficient, and a strict prefix is smaller.
        """
        return tuple(sorted(((i + j, i, a) for (i, j), a in self._terms.items()), reverse=True))

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        merged = dict(self._terms)
        for key, coeff in other._terms.items():
            merged[key] = merged.get(key, 0) + coeff
        return Polynomial._trusted(merged)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), a1 in self._terms.items():
            for (i2, j2), a2 in other._terms.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + a1 * a2
        return Polynomial._trusted(out)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    def __lt__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def __str__(self):
        return print_poly(self)

    def __repr__(self):
        return f"parse_poly({print_poly(self)!r})"


ZERO = Polynomial()
ONE = Polynomial.constant(1)


def disjoint_support(p: Polynomial, q: Polynomial) -> bool:
    """True when no bit position occurs in exponents of both polynomials."""
    return not (p.support() & q.support())


def _past_int_limit():
    """The error for a result with a number too long to write out."""
    return PreconditionError(
        "result holds a number longer than the int-string limit "
        f"of {sys.get_int_max_str_digits()} digits"
    )


def print_poly(p: Polynomial) -> str:
    """Canonical text form; inverse of :func:`parse_poly`.

    Raises :class:`PreconditionError` when a coefficient or exponent has
    more digits than the interpreter's int-string limit lets it print.
    """
    if not p:
        return "0"
    parts = []
    try:
        for grade, i, a in p.sort_key():
            j = grade - i
            parts.append(f"{a}" if not grade else
                         f"{'' if a == 1 else f'{a}*'}"
                         f"{'' if not i else 'x' if i == 1 else f'x^{i}'}{'*' if i and j else ''}"
                         f"{'' if not j else 'y' if j == 1 else f'y^{j}'}")
    except ValueError:  # str() of an int past the limit
        raise _past_int_limit() from None
    return " + ".join(parts)


_NUMBER = re.compile(r"\s*([0-9]+)\s*")
_POWER = re.compile(r"\s*([xy])(?:\s*\^\s*([0-9]+))?\s*")
# one term in print order: a coefficient, then x, then y, each at most once
_TERM = re.compile(r"\s*(?=[0-9xy])(?:([0-9]+)\s*(?:\*\s*(?=[xy])|\Z))?"
                   r"(?:(x)(?:\s*\^\s*([0-9]+))?\s*(?:\*\s*(?=y)|\Z))?"
                   r"(?:(y)(?:\s*\^\s*([0-9]+))?\s*)?")


def _nat(match, group, position):
    digits = match[group]
    try:
        return int(digits)
    except ValueError:  # longer than the interpreter's int-string limit
        at = position + match.start(group)
        raise ParseError(
            f"number at position {at} is too long ({len(digits)} digits)", position=at
        ) from None


def _walk(term, position):
    """(coefficient, (i, j)) of one term starting at ``position``, read factor
    by factor; raises :class:`ParseError` at its first malformed factor."""
    coeff, i, j = 1, 0, 0
    for k, factor in enumerate(term.split("*")):
        number = k == 0 and _NUMBER.fullmatch(factor)
        if number:
            coeff = _nat(number, 1, position)
        elif power := _POWER.fullmatch(factor):
            exponent = _nat(power, 2, position) if power[2] else 1
            if power[1] == "x":
                i += exponent
            else:
                j += exponent
        else:
            stripped = factor.strip()
            at = position + len(factor) - len(factor.lstrip())
            found = f"malformed factor {stripped!r}" if stripped else "empty factor"
            raise ParseError(f"{found} at position {at}", position=at)
        position += len(factor) + 1
    return coeff, (i, j)


def parse_poly(text: str) -> Polynomial:
    """Parse the ASCII polynomial syntax, e.g. ``"x^3*y^3 + 2*x^2 + y + 2"``.

    Grammar: terms joined by ``+``; a term is factors joined by ``*``; a
    factor is a number (a term's first factor only) or ``x``/``y`` with
    an optional ``^`` exponent; blanks are allowed around every symbol.
    Repeated variables within a term multiply.  Raises
    :class:`ParseError` at the first malformed factor, with the position
    of its first non-blank character (for an empty factor, of the
    separator or end of text after it).

    Each term is read by one match of the form :func:`print_poly` writes:
    a coefficient, then ``x``, then ``y``, each at most once.  Any other
    term, such as ``y*x`` or ``x*x``, malformed text, or a number past
    the int-string limit, is read factor by factor, which is also what
    names and places every error.
    """
    terms: dict[tuple[int, int], int] = {}
    position = 0
    match = _TERM.fullmatch
    for term in text.split("+"):
        try:
            c, x, i, y, j = match(term).groups()
            coeff, key = int(c or 1), (int(i or 1) if x else 0, int(j or 1) if y else 0)
        except (AttributeError, ValueError):  # no match (None), or a number past the limit
            coeff, key = _walk(term, position)
        position += len(term) + 1
        if coeff:
            terms[key] = terms.get(key, 0) + coeff
    return Polynomial._trusted(terms)
