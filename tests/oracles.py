"""Independent exact oracles for the test suite.

Deliberately naive: feasibility by textbook two-phase simplex over
Fractions, lattice enumeration by bounding boxes, generating functions by
direct summation.  Slow but transparently correct.  Reference code that
the package no longer needs lives here too (`det`, `invert`).
"""

from fractions import Fraction
from itertools import product
from math import gcd, prod

from monozeta.linalg import det_int, dot, eliminate, solve
from monozeta.ring import BinomialFactor, BiPoly, BiRationalFunction


def det(rows) -> Fraction:
    return Fraction(det_int(rows))


def invert(rows):
    """Inverse of a nonsingular square matrix, as rows of Fractions."""
    n = len(rows)
    red, pivots, d, _ = eliminate(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)])
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [[Fraction(a, d) for a in row[n:]] for row in red]


def lp_feasible(A, b) -> bool:
    """Is {x >= 0 : A x = b} nonempty?  Two-phase simplex with Bland's rule."""
    m = len(A)
    n = len(A[0]) if m else 0
    rows = []
    for i in range(m):
        r = [Fraction(x) for x in A[i]]
        rhs = Fraction(b[i])
        if rhs < 0:
            r = [-x for x in r]
            rhs = -rhs
        art = [Fraction(0)] * m
        art[i] = Fraction(1)
        rows.append(r + art + [rhs])
    if m == 0:
        return True

    # minimize the artificial sum; z holds reduced costs, z[-1] = -w
    width = n + m + 1
    z = [Fraction(0)] * width
    for j in range(n):
        z[j] = -sum(r[j] for r in rows)
    z[-1] = -sum(r[-1] for r in rows)
    basis = list(range(n, n + m))

    while True:
        enter = next((j for j in range(n + m) if z[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i, r in enumerate(rows):
            if r[enter] > 0:
                ratio = r[-1] / r[enter]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave is None:
            break
        pv = rows[leave][enter]
        rows[leave] = [x / pv for x in rows[leave]]
        for i in range(m):
            if i != leave and rows[i][enter]:
                f = rows[i][enter]
                rows[i] = [a - f * c for a, c in zip(rows[i], rows[leave])]
        if z[enter]:
            f = z[enter]
            z = [a - f * c for a, c in zip(z, rows[leave])]
        basis[leave] = enter
    return z[-1] == 0


def in_cone(rays, point) -> bool:
    """point in cone(rays), decided by LP feasibility."""
    if not rays:
        return all(x == 0 for x in point)
    n = len(point)
    A = [[r[j] for r in rays] for j in range(n)]
    return lp_feasible(A, list(point))


def in_hull_plus_orthant(gens, point) -> bool:
    """point in conv(gens) + nonnegative orthant, by LP feasibility."""
    n = len(point)
    k = len(gens)
    A = []
    for j in range(n):
        A.append([g[j] for g in gens] + [1 if i == j else 0 for i in range(n)])
    A.append([1] * k + [0] * n)
    b = list(point) + [1]
    return lp_feasible(A, b)


def naive_parallelepiped(rays, open_walls=()):
    """Bounding-box scan for lattice points sum(lam_i rays_i) with
    lam_i in [0,1), or (0,1] on open walls."""
    n = len(rays[0])
    lo = [sum(min(r[j], 0) for r in rays) for j in range(n)]
    hi = [sum(max(r[j], 0) for r in rays) for j in range(n)]
    cols = [[r[j] for r in rays] for j in range(n)]

    def boxes(j):
        if j == n:
            yield ()
            return
        for v in range(lo[j], hi[j] + 1):
            for rest in boxes(j + 1):
                yield (v,) + rest

    out = []
    for pt in boxes(0):
        lam = solve(cols, pt)
        if lam is None:
            continue
        ok = True
        for i, l in enumerate(lam):
            if i in open_walls:
                ok = ok and 0 < l <= 1
            else:
                ok = ok and 0 <= l < 1
            if not ok:
                break
        if ok:
            out.append(pt)
    return sorted(out)


def orthant_points(n, total):
    """All a in N^n with coordinate sum <= total."""
    if n == 0:
        yield ()
        return
    for v in range(total + 1):
        for rest in orthant_points(n - 1, total - v):
            yield (v,) + rest


def gf_series_brute(cone, grading, bound, interior=False) -> BiPoly:
    """Direct truncated sum of T^{l1(a)} P^{l2(a)} over the cone's lattice
    points with l2(a) <= bound.  Requires the cone inside the orthant and
    l2 >= 1 componentwise, so the box |a| <= bound is exhaustive."""
    assert all(c >= 1 for c in grading.l2)
    inside = cone.contains_relint if interior else cone.contains
    terms = {}
    for a in orthant_points(cone.n, bound):
        if dot(grading.l2, a) > bound:
            continue
        if inside(a):
            k = (dot(grading.l1, a), dot(grading.l2, a))
            terms[k] = terms.get(k, 0) + 1
    return BiPoly(terms)


def series_by_geometric(rf, bound):
    """`BiRationalFunction.series` by multiplying the P-truncated numerator
    with the geometric series sum_k T^(a k) P^(b k), k <= bound / b, of
    each denominator factor, truncating every product at P-degree bound."""
    if bound < 0:
        return BiPoly.zero()
    acc = rf.numerator.truncate_p(bound)
    for f in rf.denominator:
        if f.b == 0:
            raise ValueError(f"factor {f} has no P part; cannot expand by P-degree")
        geom = BiPoly({(f.a * k, f.b * k): 1 for k in range(bound // f.b + 1)})
        acc = acc.mul_truncated(geom, bound)
    return acc


def reduced_by_trial(rf):
    """`BiRationalFunction.reduced()` by trial and error: at each factor
    1 - x^g, divide while the division is exact, else try the cofactor
    exchanges m = 1, 2, ... (proper divisors of g) by multiplying with
    1 - x^m and dividing, and retry the factor after an exchange."""
    num, den = rf.numerator, list(rf.denominator)
    i = 0
    while i < len(den):
        f = den[i]
        q = num.div_exact(f.poly())
        if q is not None:
            num = q
            del den[i]
            continue
        g = gcd(f.a, f.b)
        for m in (m for m in range(1, g) if g % m == 0):
            x_m = BinomialFactor(f.a // g * m, f.b // g * m)
            q = (num * x_m.poly()).div_exact(f.poly())
            if q is not None:
                num, den[i] = q, x_m
                break
        else:
            i += 1
    return BiRationalFunction(num, den)


def residue_count(ideal, p, k):
    """N_k = #{x in (Z/p^k)^n : every generator monomial is 0 mod p^k}, by
    enumerating the p^(kn) residues."""
    q = p**k
    return sum(all(prod(pow(xi, e, q) for xi, e in zip(x, gen)) % q == 0
                   for gen in ideal.generators)
               for x in product(range(q), repeat=ideal.n))
