import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petripoly import (
    ONE,
    ZERO,
    ParseError,
    Polynomial,
    PreconditionError,
    decompose,
    disjoint_support,
    encode,
    nat_of_bits,
    parse_poly,
    print_poly,
    split_once,
    tau_nat,
)

from helpers import INT_LIMIT, needs_int_limit, parse_oracle, random_labeling, random_net

exponents = st.integers(min_value=0, max_value=2**32 - 1)
coefficients = st.integers(min_value=0, max_value=2**16 - 1)
polys = st.dictionaries(
    st.tuples(exponents, exponents), coefficients, max_size=6
).map(Polynomial)

# disjoint-support pairs: one side lives in bits 0..3, the other in 4..7
low_exponents = st.integers(min_value=0, max_value=15)
low_polys = st.dictionaries(
    st.tuples(low_exponents, low_exponents),
    st.integers(min_value=1, max_value=9),
    min_size=1,
    max_size=5,
).map(Polynomial)
high_polys = st.dictionaries(
    st.tuples(low_exponents.map(lambda v: v << 4), low_exponents.map(lambda v: v << 4)),
    st.integers(min_value=1, max_value=9),
    min_size=1,
    max_size=5,
).map(Polynomial)


# ------------------------------------------------------------ bit support

def test_tau_nat_zero():
    assert tau_nat(0) == frozenset()


def test_tau_nat_24():
    assert tau_nat(24) == {3, 4}


def test_tau_nat_12():
    assert tau_nat(12) == {2, 3}
    assert sum(2**t for t in tau_nat(12)) == 12


def test_tau_nat_rejects_negatives():
    with pytest.raises(ValueError):
        tau_nat(-1)


def test_nat_of_bits_examples():
    assert nat_of_bits(set()) == 0
    assert nat_of_bits({3, 4}) == 24
    assert nat_of_bits({0}) == 1


@given(st.integers(min_value=0, max_value=10**6))
def test_bits_roundtrip(k):
    assert nat_of_bits(tau_nat(k)) == k


def test_support_examples():
    assert parse_poly("x^3*y^3 + 2*x^2 + y + 2").support() == {0, 1}
    assert ONE.support() == frozenset()
    assert parse_poly("x+1").support() == {0}
    assert parse_poly("y^2+1").support() == {1}


# ------------------------------------------------------------- arithmetic

def test_add_merges_terms():
    assert parse_poly("x*y^4+1") + parse_poly("x^4*y^24+1") == parse_poly(
        "x^4*y^24 + x*y^4 + 2"
    )
    assert parse_poly("x") + parse_poly("x") == parse_poly("2*x")


def test_add_identity():
    p = parse_poly("3*x^2 + y")
    assert p + ZERO == p


def test_mul_examples():
    assert parse_poly("x+1") * parse_poly("y^2+1") == parse_poly("x + x*y^2 + y^2 + 1")
    assert parse_poly("x+1") * ONE == parse_poly("x+1")


def test_mul_carries_when_supports_overlap():
    # x * x adds exponents as plain integers: bit 0 carries into bit 1
    assert parse_poly("x+1") * parse_poly("x+1") == parse_poly("x^2 + 2*x + 1")


def test_constructor_rejects_negative_coefficients():
    for terms in ({(1, 0): -1}, {(-1, 0): 1}, {(0, -1): 1}, {(1, 0): True}, {(True, 0): 1},
                  {(1.0, 0): 1}, {(0, 2.0): 1}, {(1, 0): 1.0}, [((1, 0), -1)]):
        with pytest.raises(ValueError):
            Polynomial(terms)
    for value in (-1, True, 1.0):
        with pytest.raises(ValueError):
            Polynomial.constant(value)


def test_zero_coefficients_are_dropped():
    assert Polynomial({(1, 0): 0}) == ZERO
    assert not ZERO
    assert ONE.terms == {(0, 0): 1}


@given(polys, polys)
def test_add_commutes(p, q):
    assert p + q == q + p


@given(polys, polys)
def test_mul_commutes(p, q):
    assert p * q == q * p


@given(polys, polys, polys)
@settings(max_examples=60)
def test_add_mul_associate(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)


@given(polys, polys, polys)
@settings(max_examples=60)
def test_mul_distributes(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(polys)
def test_identities(p):
    assert p + ZERO == p
    assert p * ONE == p
    assert p * ZERO == ZERO


@given(low_polys, high_polys)
def test_disjoint_product_is_carry_free(p, q):
    assert disjoint_support(p, q)
    product = p * q
    assert product.support() == p.support() | q.support()
    assert len(product.terms) == len(p.terms) * len(q.terms)


def assert_natural_terms(result):
    """The invariant of every Polynomial: keys are pairs of non-bool,
    nonnegative ints and coefficients are positive ints, which the
    public constructor accepts unchanged."""
    for key, coeff in result.terms.items():
        assert type(key) is tuple and len(key) == 2
        assert all(type(e) is int and e >= 0 for e in key)
        assert type(coeff) is int and coeff > 0
    assert Polynomial(dict(result.terms)) == result


@given(polys, polys, low_polys, high_polys, st.integers(min_value=0, max_value=2**32))
@settings(max_examples=60)
def test_library_results_hold_natural_terms(p, q, low, high, seed):
    results = [p + q, p * q, parse_poly(print_poly(p))]
    product = (low + ONE) * (high + ONE)
    results += split_once(product) or ()
    results += split_once(product * Polynomial.constant(6))
    results += decompose(product * Polynomial.constant(6))
    rng = random.Random(seed)
    net = random_net(rng, max_conditions=6, max_events=8, keep_isolated=True)
    results.append(encode(net, random_labeling(rng, net)))
    for result in results:
        assert_natural_terms(result)


def test_disjoint_support_examples():
    assert disjoint_support(parse_poly("x+1"), parse_poly("y^2+1"))
    assert disjoint_support(parse_poly("x^5*y^3+2"), ONE)
    assert not disjoint_support(parse_poly("x+1"), parse_poly("x+1"))


# -------------------------------------------------------- parse and print

def test_parse_poly_golden():
    assert parse_poly("x^3*y^3 + 2*x^2 + y + 2").terms == {
        (3, 3): 1,
        (2, 0): 2,
        (0, 1): 1,
        (0, 0): 2,
    }


def test_parse_poly_simple():
    assert parse_poly("1") == ONE
    assert parse_poly("y^2+1").terms == {(0, 2): 1, (0, 0): 1}
    assert parse_poly("0") == ZERO


def test_repeated_variables_multiply():
    assert parse_poly("x*x") == parse_poly("x^2")
    assert parse_poly("x^2*x*y") == parse_poly("x^3*y")


def test_parse_ignores_whitespace():
    assert parse_poly(" 2*x ^ 2\n+ 1 ") == parse_poly("2*x^2+1")


@pytest.mark.parametrize(
    "bad",
    ["", "x^", "2x", "x*2", "x+", "+x", "x**y", "x^-1", "z", "(x+1)",
     "x^²", "x^٣", "x^2y^8", "x y"],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_poly(bad)


@needs_int_limit
def test_parse_rejects_number_beyond_int_limit():
    with pytest.raises(ParseError):
        parse_poly("x^" + "1" * (INT_LIMIT + 1))


@given(st.text(alphabet="xy0123^*+ \n²٣$", max_size=40))
@settings(max_examples=500)
def test_parse_matches_oracle(text):
    expected = parse_oracle(text)
    try:
        parsed = parse_poly(text)
    except ParseError as exc:
        assert expected is None
        assert 0 <= exc.position <= len(text)
    else:
        assert parsed.terms == expected


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_poly("x + $")
    assert err.value.position == 4


def test_print_poly_golden():
    p = Polynomial({(1, 4): 2, (2, 8): 3, (12, 16): 1, (0, 0): 1})
    assert print_poly(p) == "x^12*y^16 + 3*x^2*y^8 + 2*x*y^4 + 1"


def test_print_poly_edges():
    assert print_poly(ZERO) == "0"
    assert print_poly(Polynomial({(0, 0): 2})) == "2"
    assert print_poly(parse_poly("x*y")) == "x*y"


@needs_int_limit
def test_print_rejects_number_beyond_int_limit():
    with pytest.raises(PreconditionError):
        print_poly(Polynomial.constant(10 ** INT_LIMIT))


@given(polys)
def test_parse_print_roundtrip(p):
    assert parse_poly(print_poly(p)) == p


@given(polys)
def test_repr_evaluates_back(p):
    assert repr(p) == f"parse_poly({str(p)!r})"
    assert eval(repr(p), {"parse_poly": parse_poly}) == p


def test_other_types_are_not_polynomials():
    """Each operator returns NotImplemented for a non-polynomial, so Python
    raises TypeError, and == falls back to identity."""
    p = parse_poly("x*y + 1")
    for operate in (lambda: p + 1, lambda: p * "x", lambda: p < 1):
        with pytest.raises(TypeError):
            operate()
    assert (p == "x") is False


# ------------------------------------------------------------------ order

def test_compare_reflexive():
    p = parse_poly("x^2 + y + 3")
    assert p <= p and p >= p and not p < p and not p > p


def test_compare_x_beats_y():
    assert parse_poly("x") > parse_poly("y")


def test_compare_by_coefficient():
    assert parse_poly("x^2+1") < parse_poly("x^2+2")


def test_compare_prefix_is_smaller():
    assert parse_poly("x^2 + x") > parse_poly("x^2")


@given(polys, polys)
def test_compare_antisymmetric(p, q):
    a, b = p.sort_key(), q.sort_key()
    assert (p < q, p > q) == (q > p, q < p)
    assert (p < q) + (p == q) + (p > q) == 1
    if a == b:
        assert p == q
    assert (p < q, p <= q, p > q, p >= q) == (a < b, a <= b, a > b, a >= b)


@given(polys, polys, polys)
@settings(max_examples=60)
def test_compare_transitive(p, q, r):
    ordered = sorted([p, q, r], key=Polynomial.sort_key)
    assert ordered[0] <= ordered[1]
    assert ordered[1] <= ordered[2]
    assert ordered[0] <= ordered[2]
