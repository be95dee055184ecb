"""End-to-end zeta computation: closed forms, series oracle, pole bookkeeping."""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import orthant_points, residue_count
from test_acceptance import corpus
from monozeta.conegf import Grading, interior_lattice_gf
from monozeta.fan import normal_fan
from monozeta.polyhedra import MonomialIdeal, newton_polyhedron
from monozeta.ring import BiPoly, BiRationalFunction
from monozeta.zeta import (
    _MAX_TABLE_ENTRIES,
    divisor_data,
    igusa_zeta,
    latex_zeta,
    pole_report,
    principal_zeta,
    zeta_series,
)


def rf(num_terms, factors):
    return BiRationalFunction(BiPoly(num_terms), factors)


def random_ideal(rng, n, max_gens, max_exp):
    count = rng.randint(1, max_gens)
    gens = []
    while len(gens) < count:
        g = tuple(rng.randint(0, max_exp) for _ in range(n))
        if any(g):
            gens.append(g)
    return MonomialIdeal(n, gens)


CLOSED_FORMS = [
    # one variable, ord = a1
    (1, [(1,)], rf({(0, 0): 1, (0, 1): -1}, [(1, 1)])),
    (1, [(2,)], rf({(0, 0): 1, (0, 1): -1}, [(2, 1)])),
    # product of the variables: double pole at -1
    (2, [(1, 1)], rf({(0, 0): 1, (0, 1): -2, (0, 2): 1}, [(1, 1), (1, 1)])),
    # maximal ideal of the plane
    (2, [(1, 0), (0, 1)], rf({(0, 0): 1, (0, 2): -1}, [(1, 2)])),
    (
        2,
        [(1, 1), (2, 0)],
        rf({(0, 0): 1, (0, 1): -1, (1, 2): -1, (1, 3): 1}, [(1, 1), (2, 2)]),
    ),
    (2, [(2, 3)], rf({(0, 0): 1, (0, 1): -2, (0, 2): 1}, [(2, 1), (3, 1)])),
]


def test_frozen_closed_forms():
    for n, gens, expected in CLOSED_FORMS:
        result = igusa_zeta(MonomialIdeal(n, gens))
        assert result.zeta == expected, gens


def test_monomial_closed_form_matches_pipeline():
    rng = random.Random(700)
    for _ in range(20):
        n = rng.randint(1, 4)
        u = tuple(rng.randint(0, 4) for _ in range(n))
        if not any(u):
            continue
        via_fan = igusa_zeta(MonomialIdeal(n, [u])).zeta
        assert via_fan == principal_zeta(u).reduced(), u


def test_scale_ideal_digest_frozen():
    # 92 cells, 531,210 parallelepiped points, 39,921 numerator terms and 22
    # denominator factors: every layer at a scale the other tests do not reach
    ideal = MonomialIdeal(5, [(4, 3, 0, 4, 0), (1, 4, 0, 4, 4), (3, 0, 1, 0, 4),
                              (1, 2, 3, 1, 4), (0, 4, 2, 4, 1)])
    result = igusa_zeta(ideal)
    assert len(result.zeta.numerator.terms()) == 39921
    assert len(result.zeta.denominator) == 22
    text = json.dumps(result.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "67caa9440e24689c52fb831f080e2fecff52e8e39b3b5923e37fadce1db1949e")


def test_igusa_zeta_sums_off_the_pairwise_route(monkeypatch):
    # the cells go into one RowSum and (1 - P)^n is n row multiplies: no
    # pairwise sum of rational functions and no generic polynomial product
    calls = Counter()

    def counted(cls, name):
        real = getattr(cls, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(cls, name, wrapper)

    counted(BiRationalFunction, "__add__")
    counted(BiPoly, "__mul__")
    BiRationalFunction.one() + BiRationalFunction.one()
    BiPoly.one() * BiPoly.one()
    assert calls == {"__add__": 1, "__mul__": 1}  # the counters see calls
    calls.clear()
    for ideal in corpus()[:6]:
        igusa_zeta(ideal)
    assert calls == Counter()


def zeta_by_definition(ideal):
    """Reference oracle: (1 - P)^n times the sum over every fan cone of its
    interior generating function, graded by (the cone's vertex, all-ones)."""
    ones = (1,) * ideal.n
    total = BiRationalFunction.zero()
    for cone in normal_fan(newton_polyhedron(ideal)).cones:
        total = total + interior_lattice_gf(cone, Grading(cone.vertex, ones))
    return (total * BiPoly.binomial(0, 1) ** ideal.n).reduced()


def same_function(f, g):
    """Equality as rational functions: cross-multiplied numerators agree."""

    def cross(a, b):
        out = a.numerator
        for factor in b.denominator:
            out = out * factor.poly()
        return out

    return cross(f, g) == cross(g, f)


def test_pipeline_matches_definition_over_all_fan_cones():
    small = [ideal for ideal in corpus() if ideal.n <= 3][:20]
    for ideal in small:
        got = igusa_zeta(ideal).zeta
        assert same_function(got, zeta_by_definition(ideal)), ideal.generators
    assert not same_function(got, got * BiPoly.binomial(1, 1))


def test_specialization_matches_residue_counts():
    # N_k p^(-nk) is the measure of {x : ord I(x) >= k}, which is 1 minus the
    # T^j coefficients of Z(p, T) for j < k; counting residues checks the
    # zeta function without the (1 - P)^n sum of T^ord(a) P^|a| behind it
    rng = random.Random(311)
    for _ in range(8):
        ideal = random_ideal(rng, rng.randint(1, 3), 3, 4)
        zeta = igusa_zeta(ideal).zeta
        for p in (2, 3):
            spec = zeta.specialize(p)
            k_max = max(k for k in range(1, 20) if p ** (k * ideal.n) <= 5 * 10**4)
            mu = spec.series_coeffs(k_max)
            for k in range(1, k_max + 1):
                want = 1 - sum(mu[:k])
                assert Fraction(residue_count(ideal, p, k), p ** (k * ideal.n)) == want, (
                    ideal.generators, p, k)


def test_monomial_closed_form_validation():
    with pytest.raises(ValueError):
        principal_zeta((1, -1))
    with pytest.raises(ValueError, match="proper"):
        principal_zeta((0, 0))


def test_series_frozen_values():
    one_var = MonomialIdeal(1, [(1,)])
    expected = BiPoly(
        {
            (0, 0): 1,
            (0, 1): -1,
            (1, 1): 1,
            (1, 2): -1,
            (2, 2): 1,
            (2, 3): -1,
            (3, 3): 1,
        }
    )
    assert zeta_series(one_var, 3) == expected

    plane = MonomialIdeal(2, [(1, 0), (0, 1)])
    assert zeta_series(plane, 2) == BiPoly({(0, 0): 1, (0, 2): -1, (1, 2): 1})

    for n, gens, _ in CLOSED_FORMS:
        assert zeta_series(MonomialIdeal(n, gens), 0) == BiPoly.one()
    with pytest.raises(ValueError):
        zeta_series(plane, -1)


def test_zeta_series_matches_the_definition(monkeypatch):
    # (1 - P)^n * sum of T^ord(a) P^|a| over |a| <= bound, ord read off
    # vanishing_order point by point; n = 5 and 6 merge tables of up to five
    # variables.  A second pass with the table limit at 40 entries walks
    # some leading variables depth first, and every one but the last at
    # the larger bounds
    rng = random.Random(731)
    planted = [
        MonomialIdeal(1, [(3,)]),
        MonomialIdeal(3, [(2, 0, 1)]),  # one generator, zero entries
        MonomialIdeal(4, [(0, 0, 0, 2)]),
        MonomialIdeal(2, [(1, 0), (0, 2), (1, 0)]),  # a duplicate
        MonomialIdeal(3, [(1, 1, 0), (2, 1, 0), (1, 1, 3)]),  # dominated
        MonomialIdeal(4, [(0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 3, 0)]),
        MonomialIdeal(5, [(1, 2, 0, 3, 1), (0, 1, 2, 0, 2), (2, 0, 1, 1, 0)]),
        MonomialIdeal(5, [(0, 0, 0, 0, 1), (1, 0, 0, 0, 0)]),  # zero columns
        MonomialIdeal(6, [(1, 0, 2, 0, 1, 1), (0, 2, 1, 1, 0, 0), (3, 1, 0, 0, 2, 1),
                          (1, 1, 1, 1, 1, 1)]),
        MonomialIdeal(6, [(0, 0, 1, 0, 0, 0)]),
    ]
    ideals = planted + [random_ideal(rng, rng.randint(1, 4), 5, 3)
                        for _ in range(40 - len(planted))]
    wants = []
    for i, ideal in enumerate(ideals):
        bound = i % 10
        raw = BiPoly(Counter((ideal.vanishing_order(a), sum(a))
                             for a in orthant_points(ideal.n, bound)))
        wants.append(raw.mul_truncated(BiPoly.binomial(0, 1) ** ideal.n, bound))
    for limit in (_MAX_TABLE_ENTRIES, 40):
        monkeypatch.setattr("monozeta.zeta._MAX_TABLE_ENTRIES", limit)
        for i, (ideal, want) in enumerate(zip(ideals, wants)):
            assert zeta_series(ideal, i % 10) == want, (ideal.generators, i % 10, limit)


def test_zeta_series_at_scale():
    # 585,276 lattice points, near the 10^6 limit of `verify --bound`
    ideal = MonomialIdeal(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    start = time.perf_counter()
    direct = zeta_series(ideal, 150)
    assert time.perf_counter() - start < 2.0
    assert direct == igusa_zeta(ideal).zeta.series(150)


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
def test_zeta_series_memory_stays_bounded():
    # n = 10 at bound 12: 646,646 points and 20 generators.  Tables of all
    # nine variables after the first would hold 5.9 M orders and grow the
    # peak RSS by about 63 MB; the limit keeps them to six variables, a
    # growth of about 3 MB.  The child's peak is read as VmHWM, which starts
    # afresh at exec: ru_maxrss keeps the parent's peak across fork and
    # exec, so under pytest its growth reads ~20 MB low.  Growth, not the
    # absolute peak, is compared
    child = """
import random
from monozeta.polyhedra import MonomialIdeal
from monozeta.zeta import zeta_series

def peak_kib():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

rng = random.Random(5)
ideal = MonomialIdeal(10, [tuple(rng.randint(0, 9) for _ in range(10)) for _ in range(20)])
before = peak_kib()
zeta_series(ideal, 12)
print(peak_kib() - before)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 50 * 1024


def test_series_agrees_with_closed_form():
    rng = random.Random(701)
    bound = 7
    for _ in range(15):
        n = rng.randint(1, 3)
        ideal = random_ideal(rng, n, 4, 4)
        result = igusa_zeta(ideal)
        assert result.zeta.series(bound) == zeta_series(ideal, bound), ideal.generators


def test_series_normalizes_at_t_one():
    rng = random.Random(702)
    for _ in range(10):
        n = rng.randint(1, 3)
        ideal = random_ideal(rng, n, 4, 4)
        assert zeta_series(ideal, 6).subs_t_one() == BiPoly.one()


def test_divisor_data_frozen():
    plane = divisor_data(MonomialIdeal(2, [(1, 0), (0, 1)]))
    assert [(d.ray, d.k, d.a) for d in plane] == [
        ((0, 1), 0, 0),
        ((1, 0), 0, 0),
        ((1, 1), 1, 1),
    ]
    assert [d.contributes for d in plane] == [False, False, True]
    assert plane[2].candidate_real_part == Fraction(-2)
    assert plane[0].candidate_real_part is None

    (square,) = divisor_data(MonomialIdeal(1, [(2,)]))
    assert (square.k, square.a) == (0, 2)
    assert square.candidate_real_part == Fraction(-1, 2)

    three = divisor_data(MonomialIdeal(2, [(3, 0), (1, 1), (0, 3)]))
    contributing = [d for d in three if d.contributes]
    assert [(d.ray, d.k, d.a) for d in contributing] == [
        ((1, 2), 2, 3),
        ((2, 1), 2, 3),
    ]
    assert {d.candidate_real_part for d in contributing} == {Fraction(-1)}


def test_pole_report_frozen():
    assert pole_report(rf({(0, 0): 1, (0, 2): -1}, [(1, 2)]), 2) == (
        (Fraction(-2), 1),
    )
    assert pole_report(rf({(0, 0): 1}, []), 2) == ()
    assert pole_report(rf({(0, 0): 1}, [(1, 1), (2, 2)]), 2) == ((Fraction(-1), 2),)
    # a = 0 factors carry no pole in s
    assert pole_report(rf({(0, 0): 1}, [(0, 1), (0, 2)]), 2) == ()
    # order bound clamps at the dimension
    assert pole_report(rf({(0, 0): 1}, [(1, 1), (1, 1)]), 1) == ((Fraction(-1), 1),)


def test_poles_are_among_candidates():
    rng = random.Random(703)
    for _ in range(25):
        n = rng.randint(1, 3)
        ideal = random_ideal(rng, n, 5, 4)
        result = igusa_zeta(ideal)
        candidates = {rp for rp, _ in result.candidate_poles}
        assert {rp for rp, _ in result.poles} <= candidates, ideal.generators
        assert all(1 <= ob <= n for _, ob in result.poles)


def test_latex_rendering():
    plane = igusa_zeta(MonomialIdeal(2, [(1, 0), (0, 1)]))
    assert latex_zeta(plane.zeta) == (
        r"\frac{1 - p^{-2}}{\left(1 - p^{-s-2}\right)}"
    )
    curve = igusa_zeta(MonomialIdeal(2, [(2, 3)]))
    assert latex_zeta(curve.zeta) == (
        r"\frac{1 - 2 p^{-1} + p^{-2}}"
        r"{\left(1 - p^{-2s-1}\right)\left(1 - p^{-3s-1}\right)}"
    )
    assert latex_zeta(BiRationalFunction(BiPoly.one(), [])) == "1"


def test_result_json_shape():
    result = igusa_zeta(MonomialIdeal(2, [(1, 1), (2, 0)]))
    data = result.to_json()
    assert set(data) == {"n", "zeta", "divisors", "candidate_poles", "poles"}
    assert data["n"] == 2
    assert data["poles"] == [{"real_part": "-1", "order_bound": 2}]
    assert {d["ray"][0] for d in data["divisors"]} <= {0, 1, 2}
    assert all(
        set(c) == {"real_part", "rays"} for c in data["candidate_poles"]
    )


def _relabelled_json(ideal, perm):
    """to_json() of the ideal with variable i renamed perm[i], its rays
    mapped back to the original labels and re-sorted."""
    gens = [tuple(g[p] for p in perm) for g in ideal.generators]
    data = igusa_zeta(MonomialIdeal(ideal.n, gens)).to_json()

    def back(ray):
        out = [0] * len(ray)
        for i, x in enumerate(ray):
            out[perm[i]] = x
        return out

    for d in data["divisors"]:
        d["ray"] = back(d["ray"])
    data["divisors"].sort(key=lambda d: d["ray"])
    for c in data["candidate_poles"]:
        c["rays"] = sorted(back(r) for r in c["rays"])
    return data


def test_zeta_invariant_under_variable_permutation():
    # a relabelling changes which ray is lexicographically smallest, so the
    # triangulation pulls from other apexes and gets other cells
    rng = random.Random(612)
    for _ in range(40):
        ideal = random_ideal(rng, rng.randint(2, 4), 4, 4)
        want = _relabelled_json(ideal, list(range(ideal.n)))
        perm = list(range(ideal.n))
        rng.shuffle(perm)
        assert _relabelled_json(ideal, perm) == want


def test_zeta_invariant_under_redundant_generators():
    rng = random.Random(613)
    for _ in range(40):
        ideal = random_ideal(rng, rng.randint(2, 4), 4, 4)
        extra = list(rng.choice(ideal.generators))
        extra[rng.randrange(ideal.n)] += rng.randint(1, 2)
        bigger = MonomialIdeal(ideal.n, ideal.generators + (tuple(extra),))
        assert igusa_zeta(bigger).to_json() == igusa_zeta(ideal).to_json()
