"""Independent exact oracles for the test suite.

Deliberately naive: feasibility by textbook two-phase simplex over
Fractions, lattice enumeration by bounding boxes, generating functions by
direct summation.  Slow but transparently correct.  Reference code that
the package no longer needs lives here too (`det_int`, `det`, `invert`,
`cone_faces`, `value_at`, `truncate_p`, `div_exact_general`,
`min_pairing`, `parallelepiped_by_batches`, `vertices_by_rank`,
`pack_keys_by_rows`).
"""

import heapq
import struct
from bisect import bisect_left
from fractions import Fraction
from itertools import product
from math import gcd, prod
from operator import add, mul

from monozeta.conegf import _digits, _group_basis, _key_shift
from monozeta.fan import Cone, _face_raysets, cone_from_rays
from monozeta.linalg import dot, eliminate, rank, solve
from monozeta.ring import BinomialFactor, BiPoly, BiRationalFunction


def pack_keys_by_rows(keys, shift, width):
    """The packed rows {p: (t0, v)} of the keys {t + (p << shift): c}, one
    struct.pack per row: the reference for `ring._pack_keys`, which packs
    all of a cell's rows at once.  Each row's slots are written as words in
    two's complement (32-bit words at W = 32, 64-bit else, W/word to a
    slot) and read as one unsigned int X, lifted to X ^ L - L, L = 2^(W-1)
    in every slot, when some c is negative."""
    half, word = 1 << (shift - 1), min(width, 64)
    k, mask = width // word, (1 << word) - 1
    order = sorted(keys)
    signed = min(keys.values(), default=0) < 0
    packed = {}
    lo = 0
    while lo < len(order):
        first = order[lo]
        p = (first + half) >> shift
        t0 = first - (p << shift)
        if t0 < 0 or p < 0:
            raise ValueError("negative exponent in a packed term")
        hi = bisect_left(order, (p << shift) + half, lo)
        n = (order[hi - 1] - first + 1) * k
        words = [0] * n
        for key in order[lo:hi]:
            c, i = keys[key], (key - first) * k
            for j in range(i, i + k):
                words[j] = c & mask
                c >>= word
        v = int.from_bytes(struct.pack(f"<{n}{'I' if word == 32 else 'Q'}", *words), "little")
        if signed:
            lift = int.from_bytes((bytes(width // 8 - 1) + b"\x80") * (n // k), "little")
            v = (v ^ lift) - lift
        packed[p] = (t0, v)
        lo = hi
    return packed


def det_int(rows) -> int:
    _, pivots, d, sign = eliminate(rows)
    return sign * d if len(pivots) == len(rows) else 0


def min_pairing(poly, a) -> int:
    """min over the polyhedron of <u, a>; equals the ideal's vanishing order."""
    return min(dot(w, a) for w in poly.vertices)


def vertices_by_rank(ideal, facets):
    """The generators of the ideal that are vertices of its Newton
    polyhedron with these facets, sorted: those whose tight facet normals
    have rank n."""
    return tuple(sorted(g for g in ideal.generators
                        if rank([f.normal for f in facets if dot(g, f.normal) == f.offset])
                        == ideal.n))


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


def cone_faces(cone: Cone) -> list[tuple[Cone, int]]:
    """All faces of the cone, each with the sign (-1)^(dim cone - dim face).

    Includes the zero face and the cone itself; ordered by (dim, rays).
    """
    faces = [cone_from_rays(rayset, cone.n) for rayset in _face_raysets(cone)]
    faces.sort(key=lambda c: (c.dim, c.rays))
    return [(f, (-1) ** (cone.dim - f.dim)) for f in faces]


def value_at(r, t):
    """The value of the `UniRational` r at t."""
    n = sum(c * Fraction(t) ** i for i, c in enumerate(r.num))
    d = sum(c * Fraction(t) ** i for i, c in enumerate(r.den))
    return n / d


def truncate_p(poly, bound):
    """The `BiPoly` poly with every term of P-degree above bound dropped."""
    return BiPoly._raw({p: row for p, row in poly._rows.items() if p <= bound})


def div_exact_general(poly, divisor):
    """The `BiPoly` poly / divisor if the division is exact, else None, for
    any nonzero divisor: single-divisor multivariate division in graded-lex
    order.  Lead monomials come off a heap (stale entries are skipped), so
    the cost is near linear in the monomials touched; the remainder is
    discarded as soon as it is known to be nonzero."""
    if divisor.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if poly.is_zero():
        return BiPoly.zero()

    def key(m):
        # negated graded-lex so heapq's min-heap pops the largest
        return (-(m[0] + m[1]), -m[0], -m[1])

    dterms = divisor.terms()
    dlead, dc = max(dterms, key=lambda mc: (mc[0][0] + mc[0][1], *mc[0]))
    rest = [(m, c) for m, c in dterms if m != dlead]
    work = poly._terms
    heap = [(key(m), m) for m in work]
    heapq.heapify(heap)
    quot = {}
    while heap:
        _, m = heapq.heappop(heap)
        c = work.pop(m, 0)
        if not c:
            continue
        dt, dp = m[0] - dlead[0], m[1] - dlead[1]
        if dt < 0 or dp < 0 or c % dc != 0:
            return None
        q = c // dc
        quot[(dt, dp)] = q
        for (rt, rp), rc in rest:
            k = (dt + rt, dp + rp)
            s = work.get(k, 0) - q * rc
            if s:
                if k not in work:
                    heapq.heappush(heap, (key(k), k))
                work[k] = s
            else:
                work.pop(k, None)
    return BiPoly(quot) if not work else None


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


def parallelepiped_by_batches(cell, grading=None):
    """`conegf.parallelepiped_points` as it was before its level walk, the
    reference for it: the same residue system (`conegf._group_basis`), the
    level with the largest radix enumerated as a batch, one list
    comprehension per coordinate it moves, and the other levels by
    `itertools.product`.  Sorted points, or with a grading a flat list of
    packed weight keys, one per point, in no set order."""
    rays = cell.rays
    r = len(rays)
    d, rows = cell.group
    steps, radix = _group_basis(d, rows, r)
    if grading:
        weights = [grading.weight(v) for v in rays]
        shift = _key_shift(weights)
        keys = [a + (b << shift) for a, b in weights]
    else:
        # room for each coordinate, as weight_shift leaves room for t
        shift = max(sum(map(abs, col)) for col in zip(*rays)).bit_length() + 1
        keys = [sum(x << shift * k for k, x in enumerate(ray)) for ray in rays]
    # a point's key sum is sum_j y_j (R_j . K) modulo multiples of d K_i, so
    # every division below is exact iff each R_j . K is divisible by d
    if any(sum(map(mul, row, keys)) % d for row in steps):
        raise AssertionError("parallelepiped coefficient escaped the lattice")
    top = max(range(r), key=radix.__getitem__)
    n, moves = radix[top], steps[top]
    # an open wall's coordinate is (x - 1) mod d + 1: start one lower, and
    # add its key once for the whole batch
    start = [-int(i in cell.open_facets) for i in range(r)]
    lift = -sum(map(mul, start, keys))
    others = [j for j in range(r) if j != top]
    out = []
    for ys in product(*(range(radix[j]) for j in others)):
        coords = start
        for j, y in zip(others, ys):
            if y:
                coords = [c + y * s for c, s in zip(coords, steps[j])]
        fixed, batch = lift, None
        for c, s, key in zip(coords, moves, keys):
            if not s:  # a coordinate the batch level does not move
                fixed += c % d * key
                continue
            col = [x % d * key for x in range(c, c + n * s, s)]
            batch = col if batch is None else list(map(add, batch, col))
        if batch is None:  # a trivial group: one point
            out.append(fixed // d)
        else:
            out += [(v + fixed) // d for v in batch]
    if grading:
        return out
    return sorted(tuple(_digits(v, shift, len(rays[0]))) for v in out)


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
    acc = truncate_p(rf.numerator, bound)
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
