"""Bivariate polynomials, factored rational functions, specialization."""

import random
import time
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest

from oracles import (div_exact_general, gf_series_brute, reduced_by_trial, series_by_geometric,
                     truncate_p, value_at)
from test_acceptance import corpus
from monozeta import ring
from monozeta.conegf import Grading, lattice_gf, sum_half_open_cells
from monozeta.fan import cone_from_rays
from monozeta.polyhedra import MonomialIdeal
from monozeta.ring import BinomialFactor, BiPoly, BiRationalFunction, UniRational, packed_sum
from monozeta.zeta import igusa_zeta, latex_zeta

P = BiPoly.term(0, 1)
T = BiPoly.term(1, 0)
TP = BiPoly.term(1, 1)
ONE = BiPoly.one()
SHIFT = 40


def keyed(terms):
    """The terms {(t, p): c} as the keys t + (p << SHIFT) that `packed_sum` reads."""
    return {t + (p << SHIFT): c for (t, p), c in terms.items()}


def summed(fractions, times=()):
    """`packed_sum` of the fractions (terms, factors), the terms keyed."""
    return packed_sum([(keyed(terms), SHIFT, factors) for terms, factors in fractions], times)


def pairwise(fractions):
    """The pairwise `BiRationalFunction.__add__` sum of the fractions (terms, factors)."""
    ref = BiRationalFunction.zero()
    for terms, factors in fractions:
        ref = ref + BiRationalFunction(BiPoly(terms), factors)
    return ref


def declared_bound(fractions, muls=0):
    """The l1 bound of a sum of the fractions (terms, factors), then
    multiplied by muls binomials, as `packed_sum` reads it off its cells:
    sum of l1(terms) 2^|D - factors|, D the least common multiset of the
    factors, times 2^muls."""
    den = Counter()
    for _, factors in fractions:
        den |= Counter(factors)
    return sum(sum(map(abs, terms.values())) << den.total() - len(factors)
               for terms, factors in fractions) << muls


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


def test_poly_defers_foreign_operands():
    rf = BiRationalFunction(ONE, [(1, 1)])
    assert ONE * rf == rf and (ONE - P) * rf == rf * (ONE - P)
    for op in ("__add__", "__sub__", "__mul__"):
        assert getattr(ONE, op)(rf) is NotImplemented
        assert getattr(ONE, op)("x") is NotImplemented
    for bad in (lambda: ONE + 1, lambda: ONE - 1, lambda: 1 + ONE, lambda: ONE * "x"):
        with pytest.raises(TypeError):
            bad()


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
        assert div_exact_general(f * g, g) == f
    # the one-pass product with 1 - T^a P^b, T-free and P-free ones too, on
    # sums that telescope: (1 + x + ... + x^(k-1))(1 - x) cancels all but 1 - x^k
    for _ in range(60):
        a, b = rng.choice(((0, rng.randint(1, 3)), (rng.randint(1, 3), 0),
                           (rng.randint(1, 3), rng.randint(1, 3))))
        k = rng.randint(1, 4)
        geo = BiPoly({(a * j, b * j): 1 for j in range(k)})
        assert geo._mul_binomial(a, b) == BiPoly.binomial(a * k, b * k)
        f = random_poly(rng)
        for h in (f, f * geo, f * geo * 3 - geo):
            assert h._mul_binomial(a, b) == h * BiPoly.binomial(a, b)
            assert h._mul_binomial(a, b).div_exact(BiPoly.binomial(a, b)) == h
    assert div_exact_general(T, ONE + T) is None
    assert (ONE - P).div_exact(ONE - TP) is None


def test_binomial_division_matches_the_heap_route():
    # the heap route, `oracles.div_exact_general`, divides by T^a P^b - 1:
    # the quotient by 1 - T^a P^b must be its negative, or both None
    def check(n, a, b):
        f = BiPoly.binomial(a, b)
        q, heap = n.div_exact(f), div_exact_general(n, -f)
        assert (q is None) == (heap is None), (n, a, b)
        assert q is None or (q == -heap and q._mul_binomial(a, b) == n), (n, a, b)
        return q is not None

    rng = random.Random(212)
    exact = 0
    for i in range(1500):
        a, b = rng.choice(((0, rng.randint(1, 3)), (rng.randint(1, 3), 0),
                           (rng.randint(1, 4), rng.randint(1, 4))))
        n = random_poly(rng, max_deg=6, max_terms=8)
        if i % 3:  # planted, then perturbed by one monomial every other time
            n = n._mul_binomial(a, b)
            if i % 3 == 2:
                n = n + BiPoly.term(rng.randint(0, 8), rng.randint(0, 8), rng.choice((-1, 1)))
        exact += check(n, a, b)
    assert 500 <= exact <= 600
    # rows 10^18 apart: neither route walks the gap
    g = 10**18
    start = time.perf_counter()
    for a, b in ((0, 1), (1, 0), (2, 3)):
        h = BiPoly({(0, 0): 2, (1, 2): -1, (g, 1): 3, (4, g): 1, (g, g + 5): -2})
        n = h._mul_binomial(a, b)
        assert check(n, a, b) and check(n + 3 * ONE, a, b) is False
        # sweep only: the heap route would walk the gap down from the top
        for bad in (n + BiPoly.term(g + 9, g + 9), ONE + BiPoly.term(g * b, g * a)):
            assert bad.div_exact(BiPoly.binomial(a, b)) is None
    assert time.perf_counter() - start < 0.1


def packed(poly):
    """The polynomial as `packed_sum` hands it to `reduced()`: packed rows
    at the width its l1 norm fixes, decoded on first read."""
    num = summed([(poly._terms, [])]).numerator
    assert num._packed is not None
    return num


def test_packed_division_matches_the_row_route():
    # the row route `_div_binomial` is the reference: a packed numerator's
    # quotient is packed, equal to it, or None with it; the two routes share
    # one recurrence, so both must also agree with the heap route
    def check(n, a, b):
        want = n._div_binomial(a, b)
        got = packed(n).div_exact(BiPoly.binomial(a, b))
        assert (got is None) == (want is None), (n, a, b)
        assert want == div_exact_general(n, BiPoly.binomial(a, b)), (n, a, b)
        if got is not None:
            assert got._packed is not None, (n, a, b)
            assert got == want, (n, a, b)
        return got

    rng = random.Random(2801)
    exact = 0
    for i in range(1200):
        a, b = rng.randint(0, 3), rng.randint(1, 3)
        q = random_poly(rng, max_deg=7, max_terms=10, max_coeff=2**40)
        n = q._mul_binomial(a, b)  # several chains once b > 1
        if i % 2:
            n = n + BiPoly.term(rng.randint(0, 9), rng.randint(0, 9), rng.choice((-1, 1)))
        exact += check(n, a, b) is not None
    assert 600 <= exact <= 700
    # the running quotient row is 0 midway along a chain, and restarts
    for a, b in ((0, 1), (2, 1), (1, 3)):
        q = ONE + BiPoly.term(5, 3 * b, -4) + BiPoly.term(1, 4 * b)
        n = q._mul_binomial(a, b)
        assert check(n, a, b) == q
        assert check(n + BiPoly.term(7, 5 * b), a, b) is None
    # a quotient divided again stays packed while its bound allows
    n = (ONE - TP * 3)._mul_binomial(0, 1)._mul_binomial(0, 1)._mul_binomial(2, 1)
    q = packed(n)
    for a, b in ((0, 1), (2, 1), (0, 1)):
        q = q.div_exact(BiPoly.binomial(a, b))
        assert q._packed is not None
    assert q == ONE - TP * 3
    assert q.div_exact(ONE - P) is None


def test_packed_division_remeasures_where_its_bound_runs_out(monkeypatch):
    # N = c (1 - P^2) = c (1 + P)(1 - P) with l1 bound 2c in 64-bit slots:
    # the quotient's chain has 2 rows, so its bound is 4c; below 2^63 the
    # quotient keeps it, and at c = 2^61 it reaches 2^63, so the quotient's
    # true l1, 2c, is read off its slots and it stays packed under that.
    # c (1 - P^3) has a 3-row chain and a quotient c (1 + P + P^2) whose
    # true l1 3c reaches 2^63 too once c >= 2^63 / 3, as c = 3 * 2^60 does
    # (2c is still below 2^63), so that one comes back decoded, divided on
    # the packed rows all the same: the row route is never called, and the
    # numerator keeps its packed rows
    rows_route = []
    divide = BiPoly._div_binomial
    def counting(self, a, b):
        rows_route.append((a, b))
        return divide(self, a, b)
    monkeypatch.setattr(BiPoly, "_div_binomial", counting)
    c = 2**61
    for c, quotient_packed in ((c - 1, ({0: (0, c - 1), 1: (0, c - 1)}, 64, 4 * (c - 1))),
                               (c, ({0: (0, c), 1: (0, c)}, 64, 2 * c))):
        n = packed(BiPoly({(0, 0): c, (0, 2): -c}))
        assert n._packed[1:] == (64, 2 * c)
        q = n.div_exact(ONE - P)
        assert n._packed is not None
        assert q._packed == quotient_packed
        assert q == BiPoly({(0, 0): c, (0, 1): c})
    c = 3 * 2**60
    n = packed(BiPoly({(0, 0): c, (0, 3): -c}))
    assert n._packed[1:] == (64, 2 * c)
    q = n.div_exact(ONE - P)
    assert n._packed is not None
    assert q._packed is None and q == BiPoly({(0, 0): c, (0, 1): c, (0, 2): c})
    # the bound carries over: c (1 - P)(1 - P^2) has bound 4c and a 3-row
    # chain, so its quotient c (1 - P^2) has bound 12c < 2^63, and then a
    # 2-row chain: 24c reaches 2^63 at c = 2^59, and the second quotient
    # is re-measured and stays packed under its true l1 2c
    c = 2**59
    q = packed(BiPoly({(0, 0): c, (0, 1): -c, (0, 2): -c, (0, 3): c})).div_exact(ONE - P)
    assert q._packed[2] == 12 * c
    n, q = q, q.div_exact(ONE - P)
    assert n._packed is not None
    assert q._packed == ({0: (0, c), 1: (0, c)}, 64, 2 * c)
    assert q == BiPoly({(0, 0): c, (0, 1): c})
    assert rows_route == []


def test_packed_multiply_stays_packed_while_its_bound_allows():
    # times 1 - T^a P^b the l1 norm at most doubles: packed rows under bound
    # B stay packed under 2B while 2B < 2^63, else the product is built on
    # the decoded rows, so no packed polynomial carries a bound past its slot
    for c, a, b in ((2**61 - 1, 0, 1), (2**61 + 1, 0, 1), (2**61 - 1, 3, 2), (2**61, 3, 2)):
        n = BiPoly({(0, 0): c, (1, 1): c})
        m = packed(n)
        got = m._mul_binomial(a, b)
        if 4 * c < 2**63:  # 2B, B = 2c
            assert got._packed[1:] == (64, 4 * c) and m._packed is not None
        else:
            assert got._packed is None
        assert got == n._mul_binomial(a, b) == n * BiPoly.binomial(a, b)


def test_div_exact_divides_by_binomials_only():
    # reduced() divides by 1 - T^a P^b alone, so div_exact takes nothing
    # else; the general division is the test oracle `div_exact_general`
    n = (ONE + T) * (ONE - P)
    for bad in (ONE + T, P, ONE - 2 * P, -(ONE - P)):
        for m in (n, packed(n)):
            with pytest.raises(ValueError):
                m.div_exact(bad)
    with pytest.raises(ZeroDivisionError):
        n.div_exact(BiPoly.zero())
    assert n.div_exact(ONE - P) == ONE + T


def test_poly_truncation():
    rng = random.Random(201)
    for _ in range(30):
        f = random_poly(rng)
        g = random_poly(rng)
        b = rng.randint(0, 4)
        assert f.mul_truncated(g, b) == truncate_p(f * g, b)
    assert truncate_p(ONE + P + P**2, 1) == ONE + P


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
    # a negative first term prints a leading minus, in all three printers
    assert repr(BiPoly({(0, 0): -1, (2, 1): 1})) == "-1 + T^2*P"
    assert repr(UniRational((Fraction(-1), 0, Fraction(3)), (Fraction(1), Fraction(-1, 2)))) \
        == "(-1 + 3*T^2)/(1 - 1/2*T)"
    assert latex_zeta(BiRationalFunction(BiPoly({(0, 0): -1, (1, 1): 2}), [(1, 1)])) \
        == r"\frac{-1 + 2 p^{-s-1}}{\left(1 - p^{-s-1}\right)}"


def test_poly_json_roundtrip():
    rng = random.Random(202)
    for _ in range(20):
        f = random_poly(rng)
        assert BiPoly.from_json(f.to_json()) == f
    assert BiPoly.from_json([{"t": 1, "p": 0, "coeff": "-3"}]) == -T * 3


def test_non_int_exponents_and_coefficients_are_rejected():
    # each of these used to be truncated silently, e.g. to 2*T
    bad = [lambda: BiPoly({(1.7, 0): 2}), lambda: BiPoly({(1, 0): 2.9}),
           lambda: BiPoly({(1, "0"): 2}), lambda: BiPoly({(1, 0): "2"}),
           lambda: BiPoly.from_json([{"t": 1, "p": 0, "coeff": 2.9}]),
           lambda: BiPoly.from_json([{"t": 1.0, "p": 0, "coeff": "2"}]),
           lambda: BiRationalFunction(ONE, [(1.5, 1)]),
           lambda: BiRationalFunction.from_json({"numerator": [], "denominator": [["1", 1]]})]
    for make in bad:
        with pytest.raises(TypeError):
            make()
    with pytest.raises(ValueError):
        BiPoly.from_json([{"t": 1, "p": 0, "coeff": "2.9"}])


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


def random_factor(rng):
    # a = 0 and b = 0 both occur, never together
    return rng.choice([(0, rng.randint(1, 3)), (rng.randint(1, 3), 0),
                       (rng.randint(1, 3), rng.randint(1, 3))])


def run_ops(ops):
    """`packed_sum` and the pairwise `BiRationalFunction.__add__` reference,
    both fed the ops in order, each a fraction (terms, factors) or a
    binomial (a, b) to multiply by.  The fractions before a run of
    binomials are one `packed_sum`, the run its times, and that sum goes on
    as the first cell of the next."""
    ref, fractions, times = BiRationalFunction.zero(), [], []
    for op in ops:
        if isinstance(op[0], dict):
            if times:
                got = summed(fractions, times)
                fractions, times = [(got.numerator._terms, got.denominator)], []
            fractions.append(op)
            ref = ref + BiRationalFunction(BiPoly(op[0]), op[1])
        else:
            times.append(op)
            ref = BiRationalFunction(ref.numerator._mul_binomial(*op), ref.denominator)
    return summed(fractions, times), ref


def test_row_sum_matches_the_pairwise_route():
    rng = random.Random(1207)
    wide_sums = 0
    for _ in range(300):
        ops = []
        for _ in range(rng.randint(1, 8)):
            if rng.random() < 0.3:
                ops.append(random_factor(rng))
                continue
            # sparse rows that start away from T^0, signed coefficients, now
            # and then one near 2^62 so that the bound calls for a wider slot
            t0, big = rng.randint(0, 40), rng.random() < 0.1
            terms = {(t0 + rng.randint(0, 30), rng.randint(0, 5)):
                     rng.choice((-1, 1)) * rng.randint(1, 2**62 if big else 9)
                     for _ in range(rng.randint(1, 12))}
            ops.append((terms, [random_factor(rng) for _ in range(rng.randint(0, 4))]))
        got, ref = run_ops(ops)
        wide_sums += got.numerator._packed[1] > 64
        assert got == ref
        assert sorted(got.denominator) == sorted(ref.denominator)
    assert wide_sums > 10


def test_row_sum_row_values_read_its_packed_rows():
    # the values _row_values reads off the packed rows, at T0 = 2^W mod q, are
    # the rows evaluated there: a 64-bit sum of counts, and a sum in 128-bit
    # slots with negative coefficients, multiplied between the adds
    rng, q = random.Random(1208), ring._SCREEN_PRIME
    widths = set()
    for trial in range(100):
        ops, signed = [], trial % 2
        for _ in range(rng.randint(1, 8)):
            if signed and rng.random() < 0.3:
                ops.append(random_factor(rng))
                continue
            terms = {(rng.randint(0, 30), rng.randint(0, 5)):
                     rng.choice((-1, 1) if signed else (1,))
                     * rng.randint(1, rng.choice((9, 2**62 if signed else 9)))
                     for _ in range(rng.randint(1, 12))}
            ops.append((terms, [random_factor(rng) for _ in range(rng.randint(0, 4))]))
        got, _ = run_ops(ops)
        num = got.numerator
        width = num._packed[1]
        t0, values = num._row_values()
        assert t0 == pow(2, width, q)
        want = row_values(num._rows, t0)
        assert {p: v for p, v in values.items() if v} == {p: v for p, v in want.items() if v}
        widths.add((width, signed and min((c for _, c in num.terms()), default=0) < 0))
    assert {(64, False), (128, True)} <= widths


def test_key_packing_add_matches_the_pairwise_route():
    # keys t + (p << S) at shifts with more room than t needs, signed
    # coefficients or a cell's positive counts, and now and then a
    # coefficient near 2^126, for which the bound calls for 256-bit slots
    rng = random.Random(1901)
    widths = set()
    for _ in range(200):
        fractions = []
        for _ in range(rng.randint(1, 6)):
            big, signed = rng.random() < 0.1, rng.random() < 0.7
            terms = {(rng.randint(0, 60), rng.randint(0, 6)):
                     (rng.choice((-1, 1)) if signed else 1)
                     * (rng.randint(2**125, 2**126) if big else rng.randint(1, 9))
                     for _ in range(rng.randint(1, 15))}
            shift = max(t for t, _ in terms).bit_length() + rng.randint(1, 9)
            fractions.append((terms, shift, [random_factor(rng) for _ in range(rng.randint(0, 3))]))
        got = packed_sum([({t + (p << shift): c for (t, p), c in terms.items()}, shift, factors)
                          for terms, shift, factors in fractions])
        widths.add(got.numerator._packed[1])
        assert got.numerator._packed[2] == declared_bound([(t, f) for t, _, f in fractions])
        assert got == pairwise([(t, f) for t, _, f in fractions])
    assert 64 in widths and max(widths) >= 256


def test_row_sum_cancels_to_zero():
    terms = {(3, 0): 2, (5, 1): -7, (4, 4): 1}
    # the same fraction over a larger multiset, with the opposite sign
    neg = BiPoly(terms)._mul_binomial(0, 2)
    got = summed([(terms, [(1, 0), (2, 1)]),
                  ({k: -c for k, c in neg.terms()}, [(2, 1), (0, 2), (1, 0)])])
    assert got.numerator.is_zero()
    assert got.denominator == (BinomialFactor(0, 2), BinomialFactor(1, 0),
                               BinomialFactor(2, 1))
    assert packed_sum([]) == BiRationalFunction.zero()


def test_row_sum_width_is_fixed_from_its_bound():
    # (1 - T^3 P)^70 has coefficients up to C(70, 35) > 2^66: a 64-bit slot
    # would wrap, so the bound 4 * 2^70 must make the rows 128 bits wide
    cell = {(2, 1): 1, (0, 0): -3}
    ref = BiPoly(cell)
    for _ in range(70):
        ref = ref._mul_binomial(3, 1)
    assert max(abs(c) for _, c in ref.terms()) > 2**66
    got = summed([(cell, [(1, 1)])], [(3, 1)] * 70)
    assert got.numerator._packed[1:] == (128, 4 << 70)
    assert got == BiRationalFunction(ref, [(1, 1)])
    # W is the least of 64, 128, ... with the bound below 2^(W-1)
    for c, width in ((2**63 - 1, 64), (2**63, 128), (2**127 - 1, 128), (2**127, 256)):
        for sign in (1, -1):
            terms = {(0, 0): sign * (c - 1), (2, 3): sign}
            got = summed([(terms, [])])
            assert got.numerator._packed[1:] == (width, c)
            assert got == BiRationalFunction(BiPoly(terms))
    # that sum goes into another as one cell, beside a term lifted by its
    # factor: the bound 2^126 * 2 + l1 calls for 256-bit slots
    first = summed([(cell, [(1, 1)])], [(3, 1)] * 70)
    got = summed([(first.numerator._terms, first.denominator), ({(0, 0): 2**126}, [])])
    ref = ref + BiPoly.term(0, 0, 2**126)._mul_binomial(1, 1)
    assert got.numerator._packed[1] == 256
    assert got == BiRationalFunction(ref, [(1, 1)])


def test_row_sum_rejects_bad_input():
    for bad in ([(0, 0)], [(-1, 2)]):
        with pytest.raises(ValueError):
            summed([({(0, 0): 1}, bad)])
        with pytest.raises(ValueError):
            summed([({(0, 0): 1}, [(1, 1)])], bad)
    with pytest.raises(ValueError):
        summed([({(-1, 0): 1}, [])])
    with pytest.raises(ValueError):  # a negative T-degree above P-degree 0
        summed([({(3, 2): 1, (-1, 2): 1}, [])])
    # one bad fraction among good ones rejects the sum
    with pytest.raises(ValueError):
        summed([({(0, 0): 1}, [(1, 1)]), ({(-1, 0): 1}, [(2, 1)])])
    # the bound handed to reduced() is the one the cells reach, which fixes
    # the width: (2 - T P) / (1 - T P), of l1 bound 3, times 1 - P is 6; a
    # fraction 1 / (1 - T P^2) lifts it and adds 1, 7 T^5 / (1 - T P) adds 7,
    # and an empty cell adds nothing
    base = ({(0, 0): 2, (1, 1): -1}, [(1, 1)])
    for more, bound in (([], 6), ([({(0, 0): 1}, [(1, 2)])], 16), ([({(5, 0): 7}, [(1, 1)])], 20),
                        ([({}, [(1, 1)])], 6)):
        got = summed([base, *more], [(0, 1)])
        assert got.numerator._packed[2] == bound == declared_bound([base, *more], 1)
        assert got == BiRationalFunction(pairwise([base, *more]).numerator._mul_binomial(0, 1),
                                         pairwise([base, *more]).denominator)


def test_factor_tree_sum_matches_the_pairwise_route():
    # seeded sets of fractions in the shapes the factor tree meets: factors
    # repeated 2-3 times, a factor every cell holds, a single cell, cells
    # with no factors (D empty), negative coefficients, and coefficients
    # whose bound needs slots past 64 bits; the tree's sum equals the
    # pairwise one and reduces to the same function
    rng = random.Random(3201)
    pool = [(1, 1), (0, 1), (2, 1), (1, 2), (3, 2), (2, 3)]
    seen = set()
    for trial in range(360):
        shape = trial % 6
        common = rng.choice(pool)
        fractions = []
        for _ in range(1 if shape == 2 else rng.randint(2, 10)):
            factors = [] if shape == 3 else [rng.choice(pool) for _ in range(rng.randint(0, 3))]
            if shape == 0:
                factors += [rng.choice(pool)] * rng.randint(2, 3)
            if shape == 1:
                factors.append(common)
            sign = (-1, 1) if shape in (4, 5) else (1,)
            top = 2**70 if shape == 5 else 9
            terms = {(rng.randint(0, 20), rng.randint(0, 4)): rng.choice(sign) * rng.randint(1, top)
                     for _ in range(rng.randint(1, 8))}
            fractions.append((terms, factors))
        got, ref = summed(fractions), pairwise(fractions)
        width = got.numerator._packed[1]  # before == decodes the rows
        assert got == ref and got.denominator == ref.denominator
        assert got.reduced() == ref.reduced()
        dens = [Counter(factors) for _, factors in fractions]
        seen.update(name for name, holds in (
            ("repeated", any(k >= 2 for den in dens for k in den.values())),
            ("held by every cell", len(fractions) > 1 and any(all(f in den for den in dens)
                                                              for f in dens[0])),
            ("single cell", len(fractions) == 1),
            ("D empty", len(fractions) > 1 and not got.denominator),
            ("signed", any(c < 0 for terms, _ in fractions for c in terms.values())),
            ("past 64 bits", width > 64)) if holds)
    assert len(seen) == 6, seen


def assert_canonical(f):
    """The rows {p: {t: c}} hold no empty row and no zero coefficient, so
    `==` on the rows is equality of polynomials; the flat `_terms` view
    holds the same terms."""
    assert all(f._rows.values()), f._rows
    assert all(c for row in f._rows.values() for c in row.values()), f._rows
    assert all(t >= 0 and p >= 0 for p, row in f._rows.items() for t in row)
    assert f.terms() == tuple(sorted(f._terms.items()))
    return f


def assert_same(f, g):
    assert_canonical(f), assert_canonical(g)
    assert f == g and hash(f) == hash(g), (f, g)


def test_poly_rows_stay_canonical():
    # terms that cancel inside a row and whole rows that cancel, through
    # every operation that makes a polynomial
    rng = random.Random(1801)
    for _ in range(200):
        f, g = random_poly(rng, max_deg=5, max_terms=10), random_poly(rng, max_deg=5, max_terms=10)
        a, b = random_factor(rng)
        for h in (f, g, f + g, f - g, -f, f * g, 3 * f, f * 0, f - f, f + (-f),
                  truncate_p(f, rng.randint(-1, 5)), f.subs_t_one(), f._swapped()):
            assert_canonical(h)
        assert_same(f - f, BiPoly.zero())
        assert_same(f + g - g, f)
        assert_same(f * g, g * f)
        assert_same(f * g, f.mul_truncated(g, f.p_degree() + g.p_degree()))
        assert_same(BiPoly(f.terms()), f)
        assert_same(BiPoly.from_json(f.to_json()), f)
        assert_same(f._swapped()._swapped(), f)
        assert_same(BiPoly.binomial(a, b), ONE - BiPoly.term(a, b))
        fb = assert_canonical(f._mul_binomial(a, b))
        assert_same(fb, f * BiPoly.binomial(a, b))
        # the row sweep, the swapped sweep (b = 0) and the heap route
        assert_same(fb.div_exact(BiPoly.binomial(a, b)), f)
        if g:
            assert_same(div_exact_general(f * g, g), f)
        for q in (div_exact_general(fb, -BiPoly.binomial(a, b)), (fb + ONE).div_exact(ONE - P),
                  (fb + ONE).div_exact(ONE - T)):
            assert q is None or assert_canonical(q) is q
        rf = BiRationalFunction(f, [random_factor(rng) for _ in range(rng.randint(0, 3))])
        if all(fa.b for fa in rf.denominator):
            assert_same(rf.series(6), series_by_geometric(rf, 6))
    assert_same(BiPoly.binomial(0, 0), BiPoly.zero())
    for bad in ((-1, 2), (2, -1)):
        with pytest.raises(ValueError):
            BiPoly.binomial(*bad)
    with pytest.raises(TypeError):
        BiPoly.binomial(1.5, 1)
    for rf in (planted_rf(rng) for _ in range(200)):
        assert_same(rf.reduced().numerator, reduced_by_trial(rf).numerator)
    fractions, ref = [], BiRationalFunction.zero()
    for _ in range(30):
        terms = {(rng.randint(0, 9), rng.randint(0, 4)): rng.randint(-3, 3) for _ in range(6)}
        factors = [random_factor(rng) for _ in range(rng.randint(0, 2))]
        fractions.append((terms, factors))
        ref = ref + BiRationalFunction(BiPoly(terms), factors)
        fractions.append(({k: -c for k, c in terms.items()}, factors))  # a whole cell cancels
        ref = ref + BiRationalFunction(-BiPoly(terms), factors)
        assert_same(summed(fractions).numerator, ref.numerator)


def test_operations_leave_their_operands_unchanged():
    # a result may share row dicts with its operands: no operation may
    # change a row it did not build
    rng = random.Random(1802)
    for _ in range(200):
        f, g = random_poly(rng, max_deg=5, max_terms=10), random_poly(rng, max_deg=5, max_terms=10)
        a, b = random_factor(rng)
        fb = f._mul_binomial(a, b)
        before = [h.to_json() for h in (f, g, fb)]
        q = fb.div_exact(BiPoly.binomial(a, b))
        results = [f + g, f - g, f._mul_binomial(a, b), fb._mul_binomial(a, b), q,
                   q._mul_binomial(1, 1), truncate_p(f + g, 3), fb.div_exact(ONE - P)]
        for den in ([(1, 1)], [(0, 1), (2, 1)], [(a, b + 1)] * 2):
            # series sweeps its rows in place: on a quotient and a sum that
            # share rows with f, fb and g
            for h in (q, f + g, fb):
                results.append(BiRationalFunction(h, den).series(7))
        rf = BiRationalFunction(fb, [(a, b), (2 * a, 2 * b)])
        rf_before = rf.to_json()
        results.append(rf.reduced().numerator)
        assert rf.to_json() == rf_before
        assert [h.to_json() for h in (f, g, fb)] == before
        assert q == f
        # the next round of operations on the results leaves them as well
        snapshot = [h.to_json() for h in results if h is not None]
        for h in results:
            if h is not None:
                BiRationalFunction(h, [(1, 1)]).series(5)
                BiRationalFunction(h, [(1, 1), (0, 1)]).reduced()
                h._mul_binomial(0, 1).div_exact(ONE - P)
        assert [h.to_json() for h in results if h is not None] == snapshot
    # the sum writes only into the rows it packs: the cells' keys stay as
    # they were, and a later sum over the same cells, in 128-bit slots,
    # leaves a sum already read and one not yet decoded
    cells = [(keyed({(0, 0): 1, (3, 2): -2}), SHIFT, [(1, 1)]),
             (keyed({(0, 0): 5, (1, 2): 3}), SHIFT, [(1, 1)]),
             (keyed({(0, 0): 5, (1, 2): 2**70}), SHIFT, [(1, 2)])]
    keys_before = [dict(keys) for keys, _, _ in cells]
    got, unread = packed_sum(cells[:1]), packed_sum(cells[:1])
    json_before = got.to_json()
    later = packed_sum(cells, [(0, 1)])
    assert later.numerator._packed[1] == 128
    assert [keys for keys, _, _ in cells] == keys_before
    assert got.to_json() == json_before == unread.to_json()
    assert later != got


def packed_row(slots, width):
    """A packed row's int, sum of c_i 2^(width i), built without `_pack_keys`."""
    return sum(c << width * i for i, c in enumerate(slots))


def test_signed_slot_decode_at_its_edges():
    for width in (64, 128, 256):
        top = 2**(width - 1) - 1  # the largest coefficient a slot reads back
        cases = {  # P-degree: (offset, slots)
            0: (0, [top]),
            1: (5, [-top]),
            2: (0, [0, top, 0, 0, -top, 0]),  # zero slots inside and at both ends
            3: (2, [top, -top, top, -top]),
            4: (1, [-1, 0, 0, -top]),  # a negative top slot
            5: (3, [1, 0, -top]),
            6: (0, [0, 0, 0]),  # a row that cancels to 0 is dropped
            7: (9, [-top, 1]),
            8: (4, [top - 1, -(top - 1), 1, -1, top]),
            9: (1, [0] * 7 + [-top, 0, 1]),  # low zero slots, as a cancellation leaves
        }
        packed = {p: (t0, packed_row(slots, width)) for p, (t0, slots) in cases.items()}
        want = BiPoly({(t0 + i, p): c for p, (t0, slots) in cases.items()
                       for i, c in enumerate(slots)})
        assert 6 not in want._rows and want._rows[2] == {1: top, 4: -top}
        rows = ring._unpack(packed, width)
        assert rows == want._rows
        repacked = {p: (min(row), packed_row([row.get(t, 0) for t in range(min(row), max(row) + 1)],
                                            width)) for p, row in rows.items()}
        assert ring._unpack(repacked, width) == rows
        # the sum of one fraction per slot, pairwise and as `packed_sum`
        # hands a sum at this width to reduced(): the packed rows above
        den = [(1, 1), (0, 2)]
        cells = [({(t0 + i, p): c}, den) for p, (t0, slots) in cases.items()
                 for i, c in enumerate(slots)]
        ref = pairwise(cells)
        got = BiRationalFunction(BiPoly._of_packed(packed, width, 2**(width - 2)), den)
        assert got == ref and assert_canonical(got.numerator)
        # and summed by `packed_sum`, each slot a cell: their bound calls
        # for slots wider than width, and the decode still reads them back
        got = summed(cells)
        assert got.numerator._packed[1] > width and got == ref


def test_rf_reduce_cancels_exact_factors():
    rf = BiRationalFunction((ONE - TP) * (ONE - P), [(1, 1)])
    red = rf.reduced()
    assert red.numerator == ONE - P and red.denominator == ()

    rf = BiRationalFunction(ONE - P * P, [(1, 2)])
    assert rf.reduced() == rf

    rf = BiRationalFunction(ONE - T**2 * P**2, [(1, 1)])
    red = rf.reduced()
    assert red.numerator == ONE + TP and red.denominator == ()


def test_rf_reduce_exchanges_scaled_factors(monkeypatch):
    # each factor is divided first; the division fails, the chain sums find
    # the exchange, and the numerator times 1 - x^m is divided: 2 calls.
    # On packed numerators the same two exchanges stay on the packed rows
    calls, rows_route = [], []
    div_exact, div_binomial = BiPoly.div_exact, BiPoly._div_binomial
    def counting(self, divisor):
        calls.append(divisor)
        return div_exact(self, divisor)
    def rows_counting(self, a, b):
        rows_route.append((a, b))
        return div_binomial(self, a, b)
    monkeypatch.setattr(BiPoly, "div_exact", counting)
    monkeypatch.setattr(BiPoly, "_div_binomial", rows_counting)
    # (1 + TP)/(1 - T^2 P^2) is the same function as 1/(1 - TP); g = 6 has
    # the proper divisors 1, 2, 3: with x = TP, (1 + x^2 + x^4)/(1 - x^6)
    # is 1/(1 - x^2)
    for num, g, m in ((ONE + TP, 2, 1), (ONE + TP**2 + TP**4, 6, 2)):
        rows_route.clear()
        for n in (num, packed(num)):
            calls.clear()
            red = BiRationalFunction(n, [(g, g)]).reduced()
            assert red.numerator == ONE and red.denominator == (BinomialFactor(m, m),)
            assert calls == [BiPoly.binomial(g, g)] * 2
        assert rows_route == [(g, g)] * 2  # the unpacked numerator's only


def test_rf_reduce_preserves_series():
    rng = random.Random(204)
    for _ in range(40):
        rf = random_rf(rng)
        assert rf.reduced().series(6) == rf.series(6)
        assert rf.reduced().reduced() == rf.reduced()


@pytest.mark.xfail(strict=True, reason="reduced() is not canonical: 1 - T^2 P divides "
                   "the numerator of this zeta function, so multiplying through by "
                   "1 - T^12 P^6 lets the re-reduction absorb (4, 2) and (6, 3)")
def test_rf_reduce_is_canonical_under_a_common_factor():
    # x1 x2^4 x3 x4^5, x1^3 x3 x4, x1^4 x3^2, x1^5 x2^3 x3^3 x4^5: the zeta
    # function keeps (1, 1), (2, 2), (4, 2), (6, 3), (7, 3); times
    # (1 - T^12 P^6)/(1 - T^12 P^6) it reduces to (1, 1), (2, 2), (7, 3), (12, 6)
    ideal = MonomialIdeal(4, [(1, 4, 1, 5), (3, 0, 1, 1), (4, 0, 2, 0), (5, 3, 3, 5)])
    z = igusa_zeta(ideal).zeta
    rf = BiRationalFunction(z.numerator * BiPoly.binomial(12, 6), z.denominator + ((12, 6),))
    assert rf.reduced() == z


def test_rf_reduce_is_one_pass(monkeypatch):
    # (1 - T P^2)/((1 - T P)(1 - T P^2)): the screen rules out 1 - T P
    # without a division (its fold, 1 - T0^-1, is nonzero), so the one
    # division made is the one that succeeds
    calls = []
    div_exact = BiPoly.div_exact
    def counting(self, divisor):
        calls.append(divisor)
        return div_exact(self, divisor)
    monkeypatch.setattr(BiPoly, "div_exact", counting)
    rf = BiRationalFunction(ONE - T * P * P, [(1, 1), (1, 2)])
    assert rf.reduced() == BiRationalFunction(ONE, [(1, 1)])
    assert calls == [ONE - T * P * P]


def test_igusa_zeta_divides_packed_and_returns_rows(monkeypatch):
    # the assembled sum reaches reduced() packed, and its 1 - P divisions run
    # on the packed rows, the second on the first one's quotient; the
    # numerator igusa_zeta returns is decoded before it is returned
    divisions = {"_div_packed": [], "_div_binomial": []}
    for name, calls in divisions.items():
        def counting(self, a, b, calls=calls, divide=getattr(BiPoly, name)):
            calls.append((a, b))
            return divide(self, a, b)
        monkeypatch.setattr(BiPoly, name, counting)
    res = igusa_zeta(MonomialIdeal(3, [(2, 0, 0), (0, 2, 0), (0, 0, 2)]))
    assert divisions == {"_div_packed": [(0, 1), (0, 1)], "_div_binomial": []}
    num = res.zeta.numerator
    assert num._packed is None and num._dict == {0: {0: 1}, 3: {0: -1}}
    assert res.zeta == BiRationalFunction(ONE - P**3, [(2, 3)])
    # chain sums and exchanges leave the packed rows alone too.  The
    # acceptance corpus's ideal 40 divides out one (6, 3); its second
    # division fails, the chain sums exchange it for (2, 1), and the
    # numerator times 1 - T^2 P is divided.  The `deep` pool's ideal 1
    # divides out one (3, 3), and its chain sums find no exchange for the
    # other two.  Each sum is decoded once, after its last division
    decode = BiPoly._decode
    def decoding(self):
        if self._packed is not None:
            divisions["_div_packed"].append("decode")
        decode(self)
    monkeypatch.setattr(BiPoly, "_decode", decoding)
    for gens, f, counts in (
            ([(2, 1, 4), (2, 2, 2), (4, 0, 3), (4, 4, 3), (4, 5, 1)], (6, 3),
             {(6, 3): 0, (2, 1): 1}),
            ([(0, 0, 0, 0, 3), (1, 3, 0, 1, 3), (3, 1, 2, 1, 1), (3, 2, 0, 3, 0)], (3, 3),
             {(3, 3): 2})):
        divisions["_div_packed"].clear()
        res = igusa_zeta(MonomialIdeal(len(gens[0]), gens))
        packed_route = divisions["_div_packed"]
        assert packed_route[-4:] == [f] * 3 + ["decode"] and packed_route.count("decode") == 1
        assert divisions["_div_binomial"] == []
        den = Counter(res.zeta.denominator)
        assert {k: den[k] for k in counts} == counts
        assert res.zeta.numerator._packed is None


def test_rf_reduce_rejects_foreign_operands():
    rf = BiRationalFunction(ONE, [(1, 1)])
    for op in ("__add__", "__sub__", "__mul__"):
        for bad in (2.5, Fraction(3, 2), "x"):
            assert getattr(rf, op)(bad) is NotImplemented
    assert rf.__add__(ONE) is NotImplemented and rf.__sub__(ONE) is NotImplemented
    for bad in (lambda: rf + ONE, lambda: ONE + rf, lambda: rf - ONE, lambda: rf * 2.5,
                lambda: 2.5 * rf, lambda: rf * Fraction(3, 2), lambda: rf + 1):
        with pytest.raises(TypeError):
            bad()
    assert rf * 2 == 2 * rf == BiRationalFunction(2 * ONE, [(1, 1)])


DIRECTIONS = [(0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (2, 3), (3, 1)]
GCDS = (1, 2, 3, 4, 6, 12)


def planted_rf(rng, gcds=GCDS):
    """A rational function whose numerator carries planted factors 1 - x^g,
    cofactors (1 - x^g)/(1 - x^m) and smaller binomials 1 - x^k along the
    primitive directions x of its denominator, which share directions,
    repeat factors and include T-free and P-free ones."""
    dirs = rng.sample(DIRECTIONS, rng.randint(1, 2))
    den = []
    for _ in range(rng.randint(1, 4)):
        x, g = rng.choice(dirs), rng.choice(gcds)
        den += [(g * x[0], g * x[1])] * rng.choice((1, 1, 1, 2))
    num = random_poly(rng, max_deg=2, max_terms=4)
    for _ in range(rng.randint(1, 2)):
        a, b = rng.choice(den)
        g = gcd(a, b)
        k = rng.choice([d for d in range(1, g + 1) if g % d == 0])
        full, small = BiPoly.binomial(a, b), BiPoly.binomial(a // g * k, b // g * k)
        num = num * rng.choice((full, small, full.div_exact(small)))
    return BiRationalFunction(num, den)


def test_rf_reduce_matches_trial_division():
    rng = random.Random(207)
    exchanged = 0
    for _ in range(2000):
        rf = planted_rf(rng)
        want = reduced_by_trial(rf)
        assert rf.reduced() == want, rf
        exchanged += not set(want.denominator) <= set(rf.denominator)
    assert exchanged > 200


def unreduced_sums(monkeypatch, ideals):
    """The sum that `igusa_zeta` hands to `reduced()`, one per ideal."""
    sums = []
    reduced = BiRationalFunction.reduced
    def recording(self):
        sums.append(self)
        return reduced(self)
    monkeypatch.setattr(BiRationalFunction, "reduced", recording)
    for ideal in ideals:
        igusa_zeta(ideal)
    monkeypatch.setattr(BiRationalFunction, "reduced", reduced)
    return sums


def test_rf_reduce_matches_trial_division_on_corpus_sums(monkeypatch):
    sums = unreduced_sums(monkeypatch, corpus()[:10])
    assert len(sums) == 10
    for rf in sums:
        assert rf.reduced() == reduced_by_trial(rf)


def test_rf_reduce_matches_trial_division_off_the_screen():
    # 23 does not divide q - 1, so these factors go straight to the chain sums
    rng = random.Random(209)
    divided = exchanged = kept = 0
    for _ in range(200):
        rf = planted_rf(rng, gcds=(23, 46))
        want = reduced_by_trial(rf)
        assert rf.reduced() == want, rf
        divided += len(want.denominator) < len(rf.denominator)
        exchanged += not set(want.denominator) <= set(rf.denominator)
        kept += bool(set(want.denominator) & set(rf.denominator))
    assert divided > 20 and exchanged > 20 and kept > 20


def test_screen_prime_is_certified():
    q, s = ring._SCREEN_PRIME, ring._SCREEN_GENERATOR
    assert ring._is_prime(q) and (q - 1) % lcm(*range(1, 23)) == 0 and q < 2**30
    n, primes = q - 1, set()
    for d in range(2, 100):
        while n % d == 0:
            primes.add(d)
            n //= d
    assert n == 1  # q - 1 factors over the primes below 100
    assert all(pow(s, (q - 1) // ell, q) != 1 for ell in primes)
    assert (q - 1) % 23


def cyclotomic(x, g):
    """Phi_g(x) up to sign, x = T^a P^b: 1 - x^g over Phi_d(x), d | g, d < g."""
    out = BiPoly.binomial(g * x[0], g * x[1])
    for d in range(1, g):
        if g % d == 0:
            out = div_exact_general(out, cyclotomic(x, d))
    return out


def screen_vanishes(num, x, g):
    return not ring._folds_nonzero(num, [(x, g)])[0]


def fold_by_terms(num, t0, x, g):
    """The screen's fold of num, term by term: num at T = t0 modulo
    (q, P^b0 - c), c = z t0^-a0 with z of order g, as {p mod b0: c}."""
    q, (a0, b0) = ring._SCREEN_PRIME, x
    c = pow(ring._SCREEN_GENERATOR, (q - 1) // g, q) * pow(t0, -a0, q) % q
    fold = Counter()
    for (t, p), coeff in num.terms():
        fold[p % b0] += coeff * pow(t0, t, q) * pow(c, p // b0, q)
    return {r: v % q for r, v in fold.items() if v % q}


def test_screen_never_keeps_a_multiple_of_the_cyclotomic_factor():
    # soundness: a multiple of Phi_g(x), or of 1 - x^g, is never kept; and
    # strength: a plain random polynomial is kept in over 90 % of cases
    rng = random.Random(208)
    kept = tried = 0
    for x in DIRECTIONS:
        if not x[1]:
            continue
        for g in GCDS:
            phi, full = cyclotomic(x, g), BiPoly.binomial(g * x[0], g * x[1])
            for _ in range(5):
                m = random_poly(rng, max_deg=4, max_terms=8, max_coeff=50)
                assert screen_vanishes(m * phi, x, g)
                assert screen_vanishes(m * full, x, g)
                assert screen_vanishes(m * phi * BiPoly.binomial(x[0], x[1]), x, g)
                kept += not screen_vanishes(m, x, g)
                tried += 1
    assert tried == 180 and kept > 0.9 * tried
    # 1 - T P does not divide T^31 - 1; a screen base of order 31 would miss it
    assert not screen_vanishes(T**31 - ONE, (1, 1), 1)
    # 1 - T P^2 does not divide 1 - P, whose classes mod P^2 are 1 and -1: a
    # fold that added its classes together would miss it
    assert not screen_vanishes(ONE - P, (1, 2), 1)


def test_screen_abstains_where_it_has_no_root_of_unity(monkeypatch):
    # b0 = 0 (x = T) and g = 23, which does not divide q - 1, go straight to
    # the exact steps: no screen call names them
    calls = []
    folds_nonzero = ring._folds_nonzero
    def recording(poly, lines):
        calls.append(lines)
        return folds_nonzero(poly, lines)
    monkeypatch.setattr(ring, "_folds_nonzero", recording)
    rng = random.Random(214)
    for x in DIRECTIONS:
        for g in GCDS + (23,):
            calls.clear()
            rf = BiRationalFunction(random_poly(rng) * BiPoly.binomial(x[0], x[1]),
                                    [(g * x[0], g * x[1])])
            assert rf.reduced() == reduced_by_trial(rf)
            assert calls == ([[(x, g)]] if x[1] and g != 23 else [])


def test_screen_zero_falls_through_to_chain_sums(monkeypatch):
    # T - T0 is 0 at T = T0, so every fold of it is 0, but neither 1 - T P
    # nor 1 - T^2 P^2 divides it: both must reach the exact steps and stay,
    # each through a division that fails (1 - T^2 P^2's chain sums then
    # find no exchange).  Adding T^2 (1 - T P) + P (1 - T P) keeps the fold
    # for 1 - T P at 0, so 1 - T P is still divided; the fold for
    # 1 - T^2 P^2 is then nonzero, and the screen keeps it
    t0 = pow(2, 64, ring._SCREEN_PRIME)  # a polynomial built from terms
    num = T - t0 * ONE
    divided = []
    div_exact = BiPoly.div_exact
    def counting(self, divisor):
        divided.append(divisor)
        return div_exact(self, divisor)
    for num, tried in ((num, [ONE - TP, ONE - TP * TP]),
                       (num + (T * T + P) * (ONE - TP), [ONE - TP])):
        assert num._row_values()[0] == t0
        assert screen_vanishes(num, (1, 1), 1)
        rf = BiRationalFunction(num, [(1, 1), (2, 2)])
        monkeypatch.setattr(BiPoly, "div_exact", counting)
        divided.clear()
        got = rf.reduced()
        monkeypatch.undo()
        assert got == rf == reduced_by_trial(rf)
        assert divided == tried


def test_screen_one_pass_matches_one_point_evaluations():
    # the row values from the terms, in one pass, against each term
    # evaluated on its own; coefficients up to 2^200 and gaps up to 10^6
    # between T-degrees.  Then 17 or more factors screened in one call,
    # against the fold computed term by term
    rng, q = random.Random(210), ring._SCREEN_PRIME
    lines = [(x, g) for x in DIRECTIONS for g in GCDS if x[1]]
    widths = set()
    vanished = cleared = 0
    for trial in range(60):
        bound = rng.choice((3, 2**64, 2**200))
        num = BiPoly() if trial == 0 else BiPoly(
            {(rng.choice((0, 1, 7, 10**3, 10**6)) + rng.randint(0, 3), rng.randint(0, 4)):
             rng.randint(-bound, bound) for _ in range(rng.randint(1, 12))})
        for _ in range(rng.randint(0, 2)):
            x = rng.choice(DIRECTIONS)
            num = num * BiPoly.binomial(*(rng.choice(GCDS) * e for e in x))
        t0, values = num._row_values()
        assert t0 == pow(2, 64, q) and num._row_values() == (t0, values)
        assert values == row_values(num._rows, t0)
        chosen = rng.sample(lines, rng.randint(17, len(lines)))
        got = ring._folds_nonzero(num, chosen)
        assert got == [bool(fold_by_terms(num, t0, x, g)) for x, g in chosen]
        vanished += got.count(False)
        cleared += sum(got)
        if num:
            l1 = max(sum(abs(c) for (_, e), c in num.terms() if e == p)
                     for p in range(num.p_degree() + 1))
            widths.add(min(w for w in range(64, 512, 64)
                           if l1 * (q - 1) < 2**(w - 1)))
    assert vanished > 100 and cleared > 100
    assert {64, 128, 256} <= widths


def factor_lines(rf):
    """((a0, b0), g) for each denominator factor, as `reduced()` reads it."""
    return [((f.a // g, f.b // g), g) for f in rf.denominator for g in (gcd(f.a, f.b),)]


def test_rf_reduce_makes_at_most_one_screen_call(monkeypatch):
    # the screen is the one certificate: each reduced() makes at most one
    # screen call, on exactly the factors with b0 >= 1 and g | q - 1
    screens = []  # the lines of each screen call
    folds_nonzero = ring._folds_nonzero
    def counting(poly, lines):
        screens.append(lines)
        return folds_nonzero(poly, lines)
    monkeypatch.setattr(ring, "_folds_nonzero", counting)
    sums, passes = [], []  # each reduced() call's input and screen calls
    reduced = BiRationalFunction.reduced
    def recording(self):
        screens.clear()
        out = reduced(self)
        sums.append(self)
        passes.append(list(screens))
        return out
    monkeypatch.setattr(BiRationalFunction, "reduced", recording)
    for ideal in corpus()[:10]:
        igusa_zeta(ideal)
    rng = random.Random(215)
    for _ in range(100):
        planted_rf(rng, gcds=GCDS + (23,)).reduced()
    monkeypatch.undo()
    assert len(sums) == 110
    for rf, made in zip(sums, passes):
        left = [line for line in factor_lines(rf)
                if line[0][1] and (ring._SCREEN_PRIME - 1) % line[1] == 0]
        assert made == ([left] if left else [])
    assert any(not made for made in passes)  # some function needs no call at all
    for rf in sums:
        assert rf.reduced() == reduced_by_trial(rf)


def row_values(rows, t0):
    """{p: row p at T = t0, mod q} for the P-degree rows {p: {t: c}}."""
    q = ring._SCREEN_PRIME
    return {p: sum(c * pow(t0, t, q) for t, c in row.items()) % q for p, row in rows.items()}


def interior_row_sum():
    """A non-simplicial cone's interior cells, summed by `packed_sum`, with
    the cone and grading: the sum `interior_lattice_gf` returns."""
    square = cone_from_rays([(0, 0, 1, 1, 1), (1, 0, 1, 2, 1), (0, 1, 1, 1, 2), (1, 1, 1, 2, 2)], 5)
    grading = Grading((0, 1, 2, 3, 4), (1,) * 5)
    interior = sum_half_open_cells([(square, tuple(-sum(col) for col in zip(*square.rays)), grading)])
    return interior, square, grading


def test_summed_cells_reduce_as_trial_division_does(monkeypatch):
    # the sums igusa_zeta reduces on the `wide` and `deep` pools and 10
    # corpus ideals, and a non-simplicial cone's interior, each summed by
    # `packed_sum`: each reduces as trial division reduces it
    sums = unreduced_sums(monkeypatch, drawn_pool(2, 8, 3, 6, 20)
                          + drawn_pool(1, 3, 5, 4, 3) + corpus()[:10])
    assert len(sums) == 21
    # every plan's bound, (1 - P)^n included, fits 64-bit slots: the screen
    # point of each sum is 2^64 mod q
    assert {rf.numerator._row_values()[0] for rf in sums} == {pow(2, 64, ring._SCREEN_PRIME)}
    interior, square, grading = interior_row_sum()
    assert interior.series(16) == gf_series_brute(square, grading, 16, interior=True)
    for rf in sums + [interior]:
        assert rf.reduced() == reduced_by_trial(rf)


def drawn_pool(seed, size, n, gens, max_exp):
    """Ideals drawn by the rule of the benchmark's fixed-size pools."""
    rng = random.Random(seed)
    out = []
    for _ in range(size):
        draw = []
        while len(draw) < gens:
            g = tuple(rng.randint(0, max_exp) for _ in range(n))
            if any(g):
                draw.append(g)
        out.append(MonomialIdeal(n, draw))
    return out


def test_screen_only_keeps_what_trial_division_keeps(monkeypatch):
    # the unreduced sums of the acceptance corpus and of the benchmark's
    # `wide` (n = 3, 6 generators, exponents <= 20) and `deep` pools: every
    # factor the screen keeps, trial division keeps too, and every factor it
    # does not keep is divided once, plus once more for each exchange taken
    # (51, 4 and 13 divisions on these pools)
    pools = {"corpus": (corpus(), 51), "wide": (drawn_pool(2, 8, 3, 6, 20), 4),
             "deep": (drawn_pool(1, 3, 5, 4, 3), 13)}
    sums = {name: unreduced_sums(monkeypatch, ideals) for name, (ideals, _) in pools.items()}
    kept_total, unkept = 0, {}
    for name, pool in sums.items():
        unkept[name] = 0
        for rf in pool:
            lines = factor_lines(rf)
            screened = [k for k, (x, g) in enumerate(lines)
                        if x[1] and (ring._SCREEN_PRIME - 1) % g == 0]
            flags = ring._folds_nonzero(rf.numerator, [lines[k] for k in screened])
            kept = Counter(rf.denominator[k] for k, flag in zip(screened, flags) if flag)
            assert not kept - Counter(reduced_by_trial(rf).denominator), rf
            kept_total += kept.total()
            unkept[name] += len(rf.denominator) - kept.total()
    assert kept_total > 200
    # an exchange divides a product N (1 - x^m); the other products made
    # are divisors 1 - T^a P^b, which are never divided
    divided, products, exchanges = [], [], []
    div_exact, mul_binomial = BiPoly.div_exact, BiPoly._mul_binomial
    def counting(self, divisor):
        divided.append(divisor)
        if any(self is q for q in products):
            exchanges.append(divisor)
        return div_exact(self, divisor)
    def multiplying(self, a, b):
        products.append(mul_binomial(self, a, b))
        return products[-1]
    monkeypatch.setattr(BiPoly, "div_exact", counting)
    monkeypatch.setattr(BiPoly, "_mul_binomial", multiplying)
    for name, (_, calls) in pools.items():
        divided.clear()
        exchanges.clear()
        for rf in sums[name]:
            rf.reduced()
        assert len(divided) == unkept[name] + len(exchanges) == calls, name


def test_rf_reduce_is_fast_at_huge_degrees():
    g = 2 * 10**9
    cases = [
        (BiRationalFunction(ONE + 2 * BiPoly.term(3 * 10**6, 1), [(1, 1), (2, 3)]), None),
        # g = 2e9 does not divide the screen prime's q - 1: the chain sums decide
        (BiRationalFunction(ONE, [(g, g)]), None),
        # the exchange is read off the chain sums, not off the divisors of g
        (BiRationalFunction(ONE + TP**(g // 2), [(g, g)]),
         BiRationalFunction(ONE, [(g // 2, g // 2)])),
        # nor does 10^25: the screen abstains
        (BiRationalFunction(BiPoly.binomial(10**25, 10**25), [(10**25, 10**25)]),
         BiRationalFunction.one()),
    ]
    for g in (10**18, 10**24):  # too large to factor by trial division
        cases += [(BiRationalFunction(ONE, [(g, g)]), None),
                  (BiRationalFunction(ONE + TP**(g // 2), [(g, g)]),
                   BiRationalFunction(ONE, [(g // 2, g // 2)]))]
    for rf, want in cases:
        start = time.perf_counter()
        red = rf.reduced()
        assert time.perf_counter() - start < 1.0
        assert red == (want or rf)


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
    with pytest.raises(ValueError):
        BiRationalFunction(ONE + P, [(2, 1), (1, 0), (1, 3)]).series(0)
    assert rf.series(-1) == BiPoly.zero()
    assert BiRationalFunction(ONE + P, [(2, 1)]).series(-1) == BiPoly.zero()


def test_series_matches_geometric_reference():
    huge = 10**18 + 7
    planted = [
        BiRationalFunction(ONE + T * P, [(1, 13)]),  # b > bound
        BiRationalFunction(ONE - P, [(3, 12)]),  # b = bound
        BiRationalFunction(ONE + T, [(0, 1), (0, 2), (0, 2)]),  # a = 0, repeated
        BiRationalFunction(ONE - TP, [(huge, 1), (huge, 1), (10**19, 3)]),
        BiRationalFunction(BiPoly.zero(), [(1, 1), (2, 3)]),
        BiRationalFunction(P**15 + T**2 * P**11 - 3 * P**4 + 2 * ONE, [(1, 1), (0, 5)]),
        BiRationalFunction(P**20, []),  # every term above the bound
        BiRationalFunction(ONE, [(1, 1)] * 5 + [(2, 1)] * 3),
    ]
    rng = random.Random(721)
    randoms = []
    for _ in range(40):
        num = random_poly(rng, max_deg=rng.choice((3, 14)), max_terms=8)
        den = [(rng.choice((0, rng.randint(0, 4), huge)), rng.randint(1, 14))
               for _ in range(rng.randint(0, 5))]
        randoms.append(BiRationalFunction(num, den))
    for rf in planted + randoms:
        for bound in range(13):
            assert rf.series(bound) == series_by_geometric(rf, bound), (rf, bound)


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


def test_specialize_is_linear_in_the_t_degree():
    e = 50000  # quadratic trimming of zero coefficients takes seconds at this degree
    start = time.perf_counter()
    spec = BiRationalFunction(ONE, [(e, 1)]).specialize(3)
    assert time.perf_counter() - start < 1.0
    assert spec.num == (Fraction(1),)
    assert spec.den == (Fraction(1),) + (Fraction(0),) * (e - 1) + (Fraction(-1, 3),)


def test_specialize_skips_zero_coefficients():
    # the gcd stops at its first constant remainder, and no zero coefficient
    # is divided: a constant remainder used to long-divide the whole
    # denominator, seconds per 10^5 zero coefficients
    e = 10**6
    start = time.perf_counter()
    spec = BiRationalFunction(ONE, [(e, 1)]).specialize(3)
    assert time.perf_counter() - start < 1.0
    assert spec.num == (Fraction(1),)
    assert len(spec.den) == e + 1
    assert (spec.den[0], spec.den[-1]) == (Fraction(1), Fraction(-1, 3))
    assert not any(spec.den[1:-1])


def test_specialize_cancels_a_dense_common_factor():
    # numerator and denominator are the same binomial of T-degree 10^6: the
    # gcd cancels it, through dense lists padded with int zeros
    spec = BiRationalFunction(BiPoly.binomial(10**6, 1), [(10**6, 1)]).specialize(3)
    assert spec.num == (1,)
    assert spec.den == (1,)


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
    assert value_at(r, 5) == 6


def test_unirational_series():
    r = UniRational((Fraction(1, 2),), (Fraction(1), Fraction(-1, 2)))
    assert r.series_coeffs(3) == [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]


def test_rf_json_roundtrip():
    rng = random.Random(206)
    for _ in range(20):
        rf = random_rf(rng)
        back = BiRationalFunction.from_json(rf.to_json())
        assert back == rf
