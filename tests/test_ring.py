"""Bivariate polynomials, factored rational functions, specialization."""

import random
import time
from fractions import Fraction

import pytest

from monozeta.ring import BinomialFactor, BiPoly, BiRationalFunction, UniRational

P = BiPoly.term(0, 1)
T = BiPoly.term(1, 0)
TP = BiPoly.term(1, 1)
ONE = BiPoly.one()


def random_poly(rng, max_deg=3, max_terms=5, max_coeff=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        key = (rng.randint(0, max_deg), rng.randint(0, max_deg))
        c = rng.randint(-max_coeff, max_coeff)
        if c:
            terms[key] = c
    return BiPoly(terms)


def random_rf(rng, min_a=0):
    num = random_poly(rng)
    den = [
        (rng.randint(min_a, 3), rng.randint(1, 3))
        for _ in range(rng.randint(0, 3))
    ]
    den = [f for f in den if f != (0, 0)]
    return BiRationalFunction(num, den)


def test_poly_basic_arithmetic():
    assert ONE * ONE == ONE
    assert (ONE - P) * (ONE + P) == ONE - P * P
    assert (ONE - TP) + TP == ONE
    assert BiPoly.binomial(1, 1) == ONE - TP
    assert (ONE - P) - (ONE - P) == BiPoly.zero()


def test_poly_constructor_canonicalizes():
    a = BiPoly({(1, 1): 2, (0, 0): 1})
    b = BiPoly([((0, 0), 1), ((1, 1), 1), ((1, 1), 1)])
    assert a == b
    assert BiPoly({(2, 0): 0}) == BiPoly.zero()
    with pytest.raises(ValueError):
        BiPoly({(-1, 0): 1})


def test_poly_pow_and_degrees():
    f = (ONE - P) ** 3
    assert f == ONE - 3 * P + 3 * P * P - P * P * P
    assert f.p_degree() == 3 and f.t_degree() == 0
    assert BiPoly.zero().p_degree() == -1


def test_poly_division_roundtrip():
    rng = random.Random(200)
    for _ in range(50):
        f = random_poly(rng)
        g = random_poly(rng)
        if g.is_zero():
            continue
        assert (f * g).div_exact(g) == f
    assert T.div_exact(ONE + T) is None
    assert (ONE - P).div_exact(ONE - TP) is None


def test_poly_truncation():
    rng = random.Random(201)
    for _ in range(30):
        f = random_poly(rng)
        g = random_poly(rng)
        b = rng.randint(0, 4)
        assert f.mul_truncated(g, b) == (f * g).truncate_p(b)
    assert (ONE + P + P**2).truncate_p(1) == ONE + P


def test_poly_subs_t_one():
    f = BiPoly({(0, 1): 1, (2, 1): 1, (1, 0): -1})
    assert f.subs_t_one() == BiPoly({(0, 1): 2, (0, 0): -1})


def test_poly_subs_inverse_prime():
    f = ONE - P + TP
    assert f.subs_inverse_prime(2) == [Fraction(1, 2), Fraction(1, 2)]


def test_poly_repr():
    assert repr(BiPoly.binomial(1, 1)) == "1 - T*P"
    assert repr(BiPoly.zero()) == "0"
    assert repr(BiPoly({(0, 2): -1, (0, 0): 1})) == "1 - P^2"


def test_poly_json_roundtrip():
    rng = random.Random(202)
    for _ in range(20):
        f = random_poly(rng)
        assert BiPoly.from_json(f.to_json()) == f


def test_binomial_factor_validation():
    with pytest.raises(ValueError):
        BiRationalFunction(ONE, [(0, 0)])
    with pytest.raises(ValueError):
        BiRationalFunction(ONE, [(-1, 2)])
    with pytest.raises(ValueError):
        BinomialFactor(0, 2).ratio()
    assert BinomialFactor(2, 3).ratio() == Fraction(3, 2)


def test_rf_add_identity_and_geometric():
    geo = BiRationalFunction(ONE, [(1, 1)])
    assert geo + BiRationalFunction.zero() == geo
    assert BiRationalFunction(TP, [(1, 1)]) + BiRationalFunction.one() == geo


def test_rf_add_cross_multiplies_over_least_common_multiset():
    a = BiRationalFunction(ONE, [(1, 1)])
    b = BiRationalFunction(ONE, [(1, 2)])
    s = a + b
    assert s.numerator == BiPoly({(0, 0): 2, (1, 1): -1, (1, 2): -1})
    assert s.denominator == (BinomialFactor(1, 1), BinomialFactor(1, 2))
    # shared factors are not duplicated
    c = BiRationalFunction(ONE, [(1, 1), (1, 2)])
    assert (a + c).denominator == (BinomialFactor(1, 1), BinomialFactor(1, 2))


def test_rf_add_associative_commutative():
    rng = random.Random(203)
    for _ in range(30):
        f, g, h = (random_rf(rng) for _ in range(3))
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)


def test_rf_reduce_cancels_exact_factors():
    rf = BiRationalFunction((ONE - TP) * (ONE - P), [(1, 1)])
    red = rf.reduced()
    assert red.numerator == ONE - P and red.denominator == ()

    rf = BiRationalFunction(ONE - P * P, [(1, 2)])
    assert rf.reduced() == rf

    rf = BiRationalFunction(ONE - T**2 * P**2, [(1, 1)])
    red = rf.reduced()
    assert red.numerator == ONE + TP and red.denominator == ()


def test_rf_reduce_exchanges_scaled_factors():
    # (1 + TP)/(1 - T^2 P^2) is the same function as 1/(1 - TP)
    rf = BiRationalFunction(ONE + TP, [(2, 2)])
    red = rf.reduced()
    assert red.numerator == ONE and red.denominator == (BinomialFactor(1, 1),)
    # g = 6 has the proper divisors 1, 2, 3: with x = TP,
    # (1 + x^2 + x^4)/(1 - x^6) is 1/(1 - x^2)
    rf = BiRationalFunction(ONE + TP**2 + TP**4, [(6, 6)])
    red = rf.reduced()
    assert red.numerator == ONE and red.denominator == (BinomialFactor(2, 2),)


def test_rf_reduce_preserves_series():
    rng = random.Random(204)
    for _ in range(40):
        rf = random_rf(rng)
        assert rf.reduced().series(6) == rf.series(6)


def test_series_known_expansions():
    rf = BiRationalFunction(ONE - P, [(1, 1)])
    want = BiPoly(
        {(0, 0): 1, (0, 1): -1, (1, 1): 1, (1, 2): -1, (2, 2): 1, (2, 3): -1, (3, 3): 1}
    )
    assert rf.series(3) == want
    assert BiRationalFunction.one().series(5) == ONE
    assert BiRationalFunction(ONE, [(0, 1)]).series(2) == ONE + P + P**2


def test_series_rejects_pure_t_factor():
    rf = BiRationalFunction(ONE, [(1, 0)])
    with pytest.raises(ValueError):
        rf.series(3)


def test_specialize_known_values():
    rf = BiRationalFunction(ONE - P * P, [(1, 2)])
    spec = rf.specialize(2)
    assert spec.num == (Fraction(3, 4),)
    assert spec.den == (Fraction(1), Fraction(-1, 4))

    rf = BiRationalFunction(ONE - P, [(1, 1)])
    spec = rf.specialize(2)
    assert spec.num == (Fraction(1, 2),)
    assert spec.den == (Fraction(1), Fraction(-1, 2))

    assert BiRationalFunction.one().specialize(3) == UniRational(
        (Fraction(1),), (Fraction(1),)
    )


def test_specialize_rejects_composites():
    rf = BiRationalFunction.one()
    for bad in (0, 1, 4, 6, 9, 561, 41041):  # the last two are Carmichael numbers
        with pytest.raises(ValueError):
            rf.specialize(bad)


def test_specialize_at_large_primes():
    rf = BiRationalFunction(ONE - P, [(1, 1)])
    p = 10000000000000000051  # 20 digits: trial division would take minutes
    start = time.perf_counter()
    spec = rf.specialize(p)
    assert time.perf_counter() - start < 1.0
    assert spec.den == (Fraction(1), Fraction(-1, p))
    # the prime 10^25 + 13 lies above the bound where Miller-Rabin on the
    # first 13 prime bases is proven exact
    with pytest.raises(ValueError, match="cannot certify"):
        rf.specialize(10**25 + 13)


def test_specialize_commutes_with_series():
    # with every factor's T-exponent positive, low T-coefficients of the
    # P-truncated series are exact, so the two routes must agree there
    rng = random.Random(205)
    bound = 8
    for _ in range(30):
        rf = random_rf(rng, min_a=1)
        spec = rf.specialize(3)
        max_b = max((f.b for f in rf.denominator), default=0)
        if max_b == 0:
            t_max = rf.numerator.t_degree()
        else:
            t_max = (bound - rf.numerator.p_degree()) // max_b
        if t_max < 0:
            continue
        per_t = list(rf.series(bound).subs_inverse_prime(3))
        per_t += [Fraction(0)] * (t_max + 1 - len(per_t))
        assert per_t[: t_max + 1] == spec.series_coeffs(t_max + 1)


def test_unirational_reduction():
    # (1 - T^2)/(1 - T) = 1 + T
    r = UniRational.reduced_from(
        [Fraction(1), Fraction(0), Fraction(-1)], [Fraction(1), Fraction(-1)]
    )
    assert r.num == (Fraction(1), Fraction(1))
    assert r.den == (Fraction(1),)
    assert r.value_at(5) == 6


def test_unirational_series():
    r = UniRational((Fraction(1, 2),), (Fraction(1), Fraction(-1, 2)))
    assert r.series_coeffs(3) == [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]


def test_rf_json_roundtrip():
    rng = random.Random(206)
    for _ in range(20):
        rf = random_rf(rng)
        back = BiRationalFunction.from_json(rf.to_json())
        assert back == rf
