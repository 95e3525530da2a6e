import random
import time
from math import gcd, prod

import pytest

import petripoly.factor as factor_module
from petripoly import (
    ONE,
    are_isomorphic,
    Event,
    PetriNet,
    Polynomial,
    PreconditionError,
    decode,
    decompose,
    decompose_net,
    disjoint_support,
    encode,
    is_prime_net,
    parse_poly,
    product,
    split_once,
)

from helpers import (
    collected,
    factor_oracle,
    folded_product,
    match_up_to_iso,
    rename_conditions,
    random_net,
    random_labeling,
    random_poly_terms,
    random_product,
    split_once_oracle,
    splits_oracle,
)


# -------------------------------------------------------------- split_once

def test_split_relay_polynomial():
    p1, p2 = split_once(parse_poly("x + x*y^2 + y^2 + 1"))
    assert {p1, p2} == {parse_poly("x+1"), parse_poly("y^2+1")}


def test_split_prime_binomial():
    assert split_once(parse_poly("x+1")) is None


def test_split_parallel_join_polynomial_is_prime():
    poly = parse_poly("2*x*y^4 + 3*x^2*y^8 + x^12*y^16 + 1")
    assert split_once(poly) is None
    assert not splits_oracle(poly)


def test_split_pulls_out_content():
    p1, p2 = split_once(parse_poly("2*x + 2"))
    assert p1 == parse_poly("2")
    assert p2 == parse_poly("x + 1")


def test_split_constants():
    assert split_once(parse_poly("4")) == (parse_poly("2"), parse_poly("2"))
    assert split_once(parse_poly("2")) is None  # prime constant
    assert split_once(ONE) is None  # the unit
    assert split_once(parse_poly("6")) == (parse_poly("2"), parse_poly("3"))


def test_split_rejects_bad_inputs():
    with pytest.raises(PreconditionError):
        split_once(Polynomial())
    with pytest.raises(PreconditionError):
        split_once(parse_poly("x"))


def test_split_verdict_matches_oracle():
    rng = random.Random(5)
    polys = [Polynomial(random_poly_terms(rng, max_support=4)) for _ in range(150)]
    polys += [random_product(rng) for _ in range(60)]
    for poly in polys:
        assert (split_once(poly) is not None) == splits_oracle(poly)


def test_split_matches_full_product_oracle():
    rng = random.Random(14)
    polys = [Polynomial(random_poly_terms(rng, max_support=support))
             for support in range(2, 7) for _ in range(300)]
    polys += [random_product(rng) for _ in range(600)]
    composite = 0
    for poly in polys:
        split = split_once(poly)
        assert split == split_once_oracle(poly)
        composite += split is not None
    assert composite > 900


def test_split_equal_term_counts_but_a_coefficient_differs():
    # at B = {bit 0}: |F| = |1 + x| * |1 + y^2|, but x*y^2 has coefficient 2, not 1
    assert split_once(parse_poly("1 + x + y^2 + 2*x*y^2")) is None


def test_split_scales_the_halves_by_the_constant():
    assert split_once(parse_poly("2 + x") * parse_poly("3 + y^2")) == (
        parse_poly("2 + x"), parse_poly("3 + y^2"))


def test_split_soundness_random():
    rng = random.Random(9)
    found = 0
    for _ in range(300):
        poly = Polynomial(random_poly_terms(rng, max_support=4))
        split = split_once(poly)
        if split is None:
            continue
        found += 1
        p1, p2 = split
        assert p1 * p2 == poly
        assert disjoint_support(p1, p2)
        assert p1.constant_term >= 1 and p2.constant_term >= 1
    assert found > 20  # the generator must actually exercise the success path


# --------------------------------------------------------------- decompose

def test_decompose_relay_polynomial():
    assert decompose(parse_poly("x + x*y^2 + y^2 + 1")) == [
        parse_poly("x+1"),
        parse_poly("y^2+1"),
    ]


def test_decompose_unit():
    assert decompose(ONE) == [ONE]


def test_decompose_constant():
    assert decompose(parse_poly("4")) == [parse_poly("2"), parse_poly("2")]
    assert decompose(parse_poly("12")) == [parse_poly("2"), parse_poly("2"), parse_poly("3")]


def test_decompose_constant_matches_trial_division():
    rng = random.Random(17)
    numbers = [*range(2, 400), *(rng.randrange(2, 10**10) for _ in range(40)),
               1_000_003**2, 43 * 47 * 1_000_003, 2**40 * 99_991]
    for n in numbers:
        expected = [Polynomial.constant(p) for p in factor_oracle(n)]
        assert decompose(Polynomial.constant(n)) == expected


def test_decompose_factors_the_content_once(monkeypatch):
    calls = []

    def counting(n):
        calls.append(n)
        return prime_factors(n)

    prime_factors = factor_module._prime_factors
    monkeypatch.setattr(factor_module, "_prime_factors", counting)
    assert decompose(Polynomial.constant(2**40 * 99_991)) == (
        [Polynomial.constant(2)] * 40 + [Polynomial.constant(99_991)])
    assert calls == [2**40 * 99_991]
    calls.clear()
    assert decompose(parse_poly("12*x*y^2 + 12*x + 12*y^2 + 12")) == [
        parse_poly("2"), parse_poly("2"), parse_poly("3"), parse_poly("x + 1"), parse_poly("y^2 + 1"),
    ]
    assert calls == [12]


def test_decompose_splits_each_prime_off_once(monkeypatch):
    calls = []

    def counting(poly):
        calls.append(poly)
        return split(poly)

    split = factor_module.split_once
    monkeypatch.setattr(factor_module, "split_once", counting)
    primes = [parse_poly(text) for text in
              ("x + 1", "y^2 + 1", "x^4*y^8 + x^4 + 1", "2*x^16*y^16 + 1", "x^32 + 3*y^32 + 2")]
    for k in range(1, len(primes) + 1):
        calls.clear()
        assert decompose(prod(primes[:k], start=ONE)) == sorted(primes[:k])
        assert len(calls) == k  # one split per prime but the last, and one to find it prime


def test_decompose_large_prime_content():
    prime = 10**18 + 3
    assert decompose(Polynomial.constant(prime)) == [Polynomial.constant(prime)]
    p, q = 1_000_000_007, 9_999_999_967
    assert decompose(parse_poly(f"{p * q}*x + {p * q}")) == [
        Polynomial.constant(p), Polynomial.constant(q), parse_poly("x + 1"),
    ]


def test_decompose_rejects_bad_inputs():
    with pytest.raises(PreconditionError):
        decompose(parse_poly("x + y"))


def test_decompose_factors_are_prime_and_multiply_back():
    rng = random.Random(13)
    for _ in range(80):
        poly = Polynomial(random_poly_terms(rng, max_support=5))
        factors = decompose(poly)
        out = ONE
        for factor in factors:
            out = out * factor
            if factor != ONE:
                assert split_once(factor) is None
        assert out == poly
        for a in range(len(factors)):
            for b in range(a + 1, len(factors)):
                assert disjoint_support(factors[a], factors[b])


def test_decompose_product_of_many_primes():
    rng = random.Random(23)
    primes = []
    while len(primes) < 10:  # the k-th prime has support {2k, 2k+1}
        poly = Polynomial(random_poly_terms(rng, max_support=2, max_terms=2, max_coeff=3))
        if poly.support() == {0, 1} and gcd(*poly.terms.values()) == 1 and not splits_oracle(poly):
            k = 2 * len(primes)
            primes.append(Polynomial({(i << k, j << k): a for (i, j), a in poly.terms.items()}))
    whole = ONE
    for prime in primes:
        whole = whole * prime
    assert decompose(whole) == sorted(primes)


def test_decompose_256_bit_prime_chain_in_under_a_second():
    # one event per adjacent pair of labels: x^(2^t) * y^(2^(t+1)), t = 0..254
    chain = Polynomial({(1 << t, 2 << t): 1 for t in range(255)} | {(0, 0): 1})
    start = time.perf_counter()
    factors, tally = collected(decompose, chain)
    assert time.perf_counter() - start < 1.0
    assert factors == [chain]
    assert tally["block_checks"] <= 256  # at most one per support bit


def test_decompose_sorted_by_term_order():
    factors = decompose(parse_poly("x + x*y^2 + y^2 + 1") * parse_poly("x^4 + 1"))
    keys = [f.sort_key() for f in factors]
    assert keys == sorted(keys)


# ------------------------------------------------------------ net level

def test_decompose_relay_net(relay_net):
    parts = decompose_net(relay_net)
    assert len(parts) == 2
    consumer, _ = decode(parse_poly("x + 1"))
    producer, _ = decode(parse_poly("y^2 + 1"))
    assert match_up_to_iso(parts, [consumer, producer])
    assert are_isomorphic(product(parts[0], parts[1]), relay_net) is not None


def test_decompose_empty_net():
    parts = decompose_net(PetriNet())
    assert parts == [PetriNet()]


def test_decompose_product_recovers_parts():
    rng = random.Random(19)
    for _ in range(25):
        n1 = random_net(rng, max_conditions=3, max_events=3)
        n2 = random_net(rng, max_conditions=3, max_events=3)
        combined = decompose_net(n1) + decompose_net(n2)
        # drop unit factors (empty nets) from event-less inputs: the product
        # of the two nets merges those into a single encoding
        combined = [n for n in combined if n.events] or [PetriNet()]
        parts = decompose_net(product(n1, n2))
        parts = [n for n in parts if n.events] or [PetriNet()]
        assert match_up_to_iso(parts, combined)


def test_is_prime_net(relay_net):
    assert not is_prime_net(relay_net)
    assert is_prime_net(decode(parse_poly("x+1"))[0])
    assert not is_prime_net(PetriNet())
    assert not is_prime_net(PetriNet(["lonely"], []))  # encodes to the unit
    assert is_prime_net(PetriNet([], [Event("e")]))  # encodes to 2


def test_prime_net_verdict_is_labeling_free():
    rng = random.Random(37)
    for _ in range(30):
        net = random_net(rng, max_conditions=3, max_events=3)
        ids = sorted(net.conditions)
        shuffled = ids[:]
        rng.shuffle(shuffled)
        renamed = rename_conditions(net, dict(zip(ids, shuffled)))
        assert is_prime_net(net) == is_prime_net(renamed)


def test_factor_nets_do_not_depend_on_the_labeling():
    rng = random.Random(43)
    several = 0
    for k in range(300):
        net = random_net(rng, 5, 6) if k % 2 else folded_product(rng, rng.randint(2, 4))
        factors = [[decode(f)[0] for f in decompose(encode(net, random_labeling(rng, net)))]
                   for _ in range(2)]
        assert match_up_to_iso(*factors)
        several += len(factors[0]) > 1
    assert several >= 100
