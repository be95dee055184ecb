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
from itertools import repeat
from operator import add

from .conegf import Grading, sum_half_open_cells
from .conegf import lattice_gf  # noqa: F401  re-exported: perfbench/tracer.py wraps it
from .fan import Fan, normal_fan
from .linalg import Vec
from .polyhedra import MonomialIdeal, newton_polyhedron
from .ring import BinomialFactor, BiPoly, BiRationalFunction


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

    Every maximal cone's half-open cells are planned, then summed in one
    `RowSum` at a slot width fixed from the plan's bound, and the numerator
    is multiplied by 1 - P n times (`sum_half_open_cells`).  Its rows are
    decoded once into the P-degree rows `reduced()` reads, each row's value
    at the screen point T0 taken from the packed row.  The (1 - P)^n that
    `reduced()` divides out again stays until the benchmark harness no
    longer needs `ring.div_exact_calls` above 0 (ROADMAP items 5, 15).
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


def zeta_series(ideal: MonomialIdeal, bound: int) -> BiPoly:
    """Direct truncation of the defining sum, independent of the fan route.

    (1 - P)^n times the sum of T^{ord(a)} P^{|a|} over lattice points a with
    |a| <= bound, truncated to P-degree <= bound.  ord(a) = min_g <g, a> is
    carried, not recomputed: one depth-first walk of the orthant on an
    explicit stack (O(n * bound) entries), each node holding the next
    variable, |a| so far and the partial orders <g, a_0...a_{i-1}>, one per
    generator.  A step along variable i adds the generators' column i.  At
    the last variable the k = bound - |a| + 1 leaves are taken at once:
    generator g's orders along it run in a lane p, p + c, ..., c its last
    entry, and the leaves' orders are the lanes' elementwise minimum.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    n = ideal.n
    cols = list(zip(*ideal.generators))
    last = cols.pop()
    counts: Counter = Counter()
    stack = [(0, 0, (0,) * len(last))]
    while stack:
        i, used, part = stack.pop()
        if i < n - 1:
            col = cols[i]
            for v in range(used, bound + 1):
                stack.append((i + 1, v, part))
                part = tuple(map(add, part, col))
            continue
        k = bound - used + 1
        lanes = [range(p, p + c * k, c) if c else repeat(p, k)
                 for p, c in zip(part, last)]
        orders = lanes[0] if len(lanes) == 1 else map(min, *lanes)
        counts.update(zip(orders, range(used, bound + 1)))
    return BiPoly(counts).mul_truncated(BiPoly.binomial(0, 1) ** n, bound)


def latex_zeta(rf: BiRationalFunction) -> str:
    """Render in the classical variables: T^t P^j prints as p^{-ts-j}."""

    def power(t, j):
        if t == 0 and j == 0:
            return "1"
        s_part = "" if t == 0 else ("-s" if t == 1 else f"-{t}s")
        j_part = "" if j == 0 else f"-{j}"
        return "p^{" + s_part + j_part + "}"

    def poly(poly_):
        parts = []
        for (t, j), c in poly_.terms():
            body = power(t, j)
            if body == "1":
                body = str(abs(c))
            elif abs(c) != 1:
                body = f"{abs(c)} {body}"
            parts.append(("-" if c < 0 else "+", body))
        if not parts:
            return "0"
        sign, body = parts[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    num = poly(rf.numerator)
    if not rf.denominator:
        return num
    den = "".join(
        r"\left(1 - " + power(f.a, f.b) + r"\right)" for f in rf.denominator
    )
    return r"\frac{" + num + "}{" + den + "}"
