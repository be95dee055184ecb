"""The Igusa zeta function of a monomial ideal, summed over the normal fan.

With T = p^-s and P = 1/p the local zeta function of a monomial ideal is
(1 - P)^n times the sum of T^{ord(a)} P^{|a|} over the lattice points a of
the orthant.  The half-open cells of the maximal fan cones, all decided
against one reference point (1, ..., 1), partition the orthant, and on each
cell ord pairs with its cone's vertex.  Each denominator factor 1 - T^a P^b
records, per fan ray v, the numerical data a = vanishing order along v and
b = coordinate sum of v.  Candidate pole real parts are the ratios -b/a; the
report groups the reduced denominator by that ratio.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import add

from .conegf import Grading, sum_half_open_cells
from .conegf import lattice_gf  # noqa: F401  re-exported: perfbench/tracer.py wraps it
from .fan import Fan, normal_fan
from .linalg import Vec
from .polyhedra import MonomialIdeal, newton_polyhedron
from .ring import BinomialFactor, BiPoly, BiRationalFunction, _signed_sum


@dataclass(frozen=True)
class DivisorData:
    """Numerical data of the exceptional divisor attached to one fan ray."""

    ray: Vec
    k: int  # multiplicity in the relative canonical divisor: coord sum - 1
    a: int  # vanishing order of the ideal along the ray

    @property
    def contributes(self) -> bool:
        return self.a > 0

    @property
    def candidate_real_part(self) -> Fraction | None:
        """-(k+1)/a, the only real part this divisor can contribute."""
        if self.a == 0:
            return None
        return Fraction(-(self.k + 1), self.a)

    def to_json(self):
        cand = self.candidate_real_part
        return {
            "ray": list(self.ray),
            "k": self.k,
            "a": self.a,
            "candidate_real_part": None if cand is None else str(cand),
        }


@dataclass(frozen=True)
class ZetaResult:
    """Reduced zeta function plus the pole bookkeeping derived from it."""

    n: int
    zeta: BiRationalFunction
    divisors: tuple[DivisorData, ...]
    candidate_poles: tuple[tuple[Fraction, tuple[Vec, ...]], ...]
    poles: tuple[tuple[Fraction, int], ...]  # (real part, order bound)

    def to_json(self):
        return {
            "n": self.n,
            "zeta": self.zeta.to_json(),
            "divisors": [d.to_json() for d in self.divisors],
            "candidate_poles": [
                {"real_part": str(rp), "rays": [list(r) for r in rays]}
                for rp, rays in self.candidate_poles
            ],
            "poles": [
                {"real_part": str(rp), "order_bound": ob} for rp, ob in self.poles
            ],
        }


def _divisors_of_fan(fan: Fan, ideal: MonomialIdeal):
    return tuple(
        DivisorData(r, sum(r) - 1, ideal.vanishing_order(r)) for r in fan.rays
    )


def _group_candidates(divisors):
    groups: dict[Fraction, list[Vec]] = {}
    for d in divisors:
        rp = d.candidate_real_part
        if rp is not None:
            groups.setdefault(rp, []).append(d.ray)
    return tuple(
        (rp, tuple(sorted(groups[rp]))) for rp in sorted(groups)
    )


def pole_report(zeta: BiRationalFunction, n: int):
    """Group denominator factors by pole real part -b/a.

    Factors with a = 0 contribute no pole in s.  The order bound is the
    multiplicity of the group, clamped at n since at most n exceptional
    divisors meet.
    """
    groups: dict[Fraction, int] = {}
    for f in zeta.denominator:
        if f.a > 0:
            rp = -f.ratio()
            groups[rp] = groups.get(rp, 0) + 1
    return tuple((rp, min(groups[rp], n)) for rp in sorted(groups))


def igusa_zeta(ideal: MonomialIdeal) -> ZetaResult:
    """Exact Igusa zeta function of the ideal, reduced, with pole data.

    Every maximal cone's half-open cells are planned, then summed with a
    factor tree at a slot width fixed from the sum's l1 bound, and the
    numerator is multiplied by 1 - P n times (`sum_half_open_cells`).  The
    numerator reaches `reduced()` still packed, each row's value at the
    screen point T0 taken from the packed row, and stays packed through
    it: every division, the 1 - P ones included, and every exchange's
    multiply run on the packed rows (no division here runs on dict rows),
    and the numerator returned still holds them: the printers and the
    verification battery read them off their slots (`BiPoly._row_terms`),
    and nothing here decodes them.  The (1 - P)^n that `reduced()`
    divides out again stays until the benchmark harness no longer needs
    `ring.div_exact_calls` above 0 (ROADMAP items 5, 15).
    """
    fan = normal_fan(newton_polyhedron(ideal))
    n = ideal.n
    ones = (1,) * n
    jobs = [(sigma, ones, Grading(sigma.vertex, ones)) for sigma in fan.maximal_cones()]
    zeta = sum_half_open_cells(jobs, [(0, 1)] * n).reduced()
    divisors = _divisors_of_fan(fan, ideal)
    return ZetaResult(
        n=n,
        zeta=zeta,
        divisors=divisors,
        candidate_poles=_group_candidates(divisors),
        poles=pole_report(zeta, n),
    )


def principal_zeta(exponent: Vec) -> BiRationalFunction:
    """Closed form for one monomial x^u: product over u_i > 0 of
    (1 - P) / (1 - T^{u_i} P)."""
    if any(u < 0 for u in exponent):
        raise ValueError("exponent vector must be nonnegative")
    if not any(exponent):
        raise ValueError("the unit monomial generates: ideal must be proper")
    num = BiPoly.one()
    den = []
    for u in exponent:
        if u > 0:
            num = num * BiPoly.binomial(0, 1)
            den.append(BinomialFactor(u, 1))
    return BiRationalFunction(num, den)


def divisor_data(ideal: MonomialIdeal) -> tuple[DivisorData, ...]:
    """Per-ray numerical data (k, a) of the fan of the ideal."""
    fan = normal_fan(newton_polyhedron(ideal))
    return _divisors_of_fan(fan, ideal)


# entries (points times generators) of the per-degree tables; past it the
# leading variables are walked depth first instead.  On the n = 10 ideal of
# 20 generators at bound 12 (646,646 points) the tables then cover six
# variables and the peak RSS grows by 2.7 MB in 0.7-0.9 s; at 3 * 10^6 they
# cover eight and it grows by 27 MB, and tables of all nine by 63 MB
# (2 vCPU, Python 3.11)
_MAX_TABLE_ENTRIES = 10**6


def zeta_series(ideal: MonomialIdeal, bound: int) -> BiPoly:
    """Direct truncation of the defining sum, independent of the fan route.

    (1 - P)^n times the sum of T^{ord(a)} P^{|a|} over lattice points a with
    |a| <= bound, truncated to P-degree <= bound, read off the generators
    alone.  ord(a) = min_g <g, a> is built one total degree at a time.  For
    the trailing variables a table holds, per degree s <= bound and per
    generator g, the orders <g, a> over the points a with |a| = s: the
    degree-s lane of a variable is its successor's lanes of degree s - x
    shifted by x g_i, for x = 0..s, so the whole simplex shares them.  The
    table covers the longest suffix of at most max(n - 1, 1) variables
    whose points times generators stay within `_MAX_TABLE_ENTRIES`; the
    leading variables are walked depth first on an explicit stack, each
    node holding |a| so far and its partial orders, one per generator.  A leaf
    at |a| = u merges with each degree s of the table: the lanes shifted by
    its partial orders, their elementwise minimum counted into P-degree row
    u + s.  (1 - P)^n is then n sweeps of `_mul_binomial(0, 1)`, each cut
    at the bound.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    n, gens = ideal.n, len(ideal.generators)
    cols = list(zip(*ideal.generators))
    k = max(1, n - 1)
    while k > 1 and gens * comb(bound + k, k) > _MAX_TABLE_ENTRIES:
        k -= 1
    table = [[[s * c] for c in cols[-1]] for s in range(bound + 1)]
    for col in reversed(cols[n - k:-1]):
        table = [[[v + x * c for x in range(s + 1) for v in table[s - x][g]]
                  for g, c in enumerate(col)] for s in range(bound + 1)]
    rows = [Counter() for _ in range(bound + 1)]
    stack = [(0, 0, (0,) * gens)]
    while stack:
        i, used, part = stack.pop()
        if i < n - k:
            col = cols[i]
            for v in range(used, bound + 1):
                stack.append((i + 1, v, part))
                part = tuple(map(add, part, col))
            continue
        for s in range(bound - used + 1):
            lanes = [[v + p for v in lane] if p else lane
                     for p, lane in zip(part, table[s])]
            rows[used + s].update(lanes[0] if gens == 1 else map(min, *lanes))
    series = BiPoly._raw({p: dict(row) for p, row in enumerate(rows)})
    for _ in range(n):
        series = series._mul_binomial(0, 1)
        series._rows.pop(bound + 1, None)
    return series


def latex_zeta(rf: BiRationalFunction) -> str:
    """Render in the classical variables: T^t P^j prints as p^{-ts-j}."""

    def power(t, j):
        if t == 0 and j == 0:
            return ""
        s_part = "" if t == 0 else ("-s" if t == 1 else f"-{t}s")
        j_part = "" if j == 0 else f"-{j}"
        return "p^{" + s_part + j_part + "}"

    num = _signed_sum(((c, power(t, j)) for (t, j), c in rf.numerator.terms()), " ")
    if not rf.denominator:
        return num
    den = "".join(
        r"\left(1 - " + power(f.a, f.b) + r"\right)" for f in rf.denominator
    )
    return r"\frac{" + num + "}{" + den + "}"
