"""Exact arithmetic in Z[T, P] and for rational functions with binomial
denominators.

T and P are independent formal variables (in the zeta-function application
T stands for p^-s and P for 1/p).  A polynomial is stored as its P-degree
rows {p_deg: {t_deg: c}}: no empty row, no zero coefficient, so equal
polynomials have equal rows.  Row dicts may be shared between polynomials
and are never changed once a polynomial holds them.  A rational function
keeps its denominator as a multiset of factors 1 - T^a P^b and is never
expanded, so the factored shape survives every operation.  A sum of many
such fractions is accumulated in a `RowSum`, its numerator packed one int
per P-degree, built from packed keys and decoded once, straight into rows.
`reduced()` decides each denominator factor once: an edge certificate read
off the ends of the numerator's rows keeps most factors, one modular screen
pass keeps most of the rest, and exact division and chain sums decide the
others.  The screen of a sum from a `RowSum` that kept its summands reads
them, far fewer than the numerator's terms; any other function is screened
over its terms, as one summand.
"""

from __future__ import annotations

import heapq
import struct
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from functools import partial
from math import gcd, prod
from operator import index, mul
from typing import NamedTuple


class BiPoly:
    """Sparse polynomial in T and P with integer coefficients, stored as
    its P-degree rows."""

    __slots__ = ("_rows", "_hash")

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for (t, p), c in (terms.items() if isinstance(terms, dict) else terms):
                t, p, c = index(t), index(p), index(c)
                if t < 0 or p < 0:
                    raise ValueError("negative exponent in BiPoly term")
                if c:
                    key = (t, p)
                    c0 = clean.get(key, 0) + c
                    if c0:
                        clean[key] = c0
                    elif key in clean:
                        del clean[key]
        self._rows = _by_p_degree(clean)
        self._hash = None

    @classmethod
    def _raw(cls, rows: dict) -> "BiPoly":
        """Adopt rows {p: {t: c}} already known to be canonical: int
        exponents >= 0, no empty row, no zero coefficient.  The row dicts
        may be shared with other polynomials, so none is ever changed once
        adopted.  Internal fast path; no validation."""
        out = object.__new__(cls)
        out._rows = rows
        out._hash = None
        return out

    @property
    def _terms(self):
        """The flat view {(t, p): c}, built on each read and never stored."""
        return {(t, p): c for p, row in self._rows.items() for t, c in row.items()}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls._raw({0: {0: 1}})

    @classmethod
    def term(cls, t, p, coeff=1):
        return cls({(t, p): coeff})

    @classmethod
    def binomial(cls, a, b):
        """1 - T^a P^b."""
        a, b = index(a), index(b)
        if a < 0 or b < 0:
            raise ValueError("negative exponent in BiPoly term")
        return cls.one()._mul_binomial(a, b)

    def terms(self):
        return tuple(sorted(self._terms.items()))

    def is_zero(self):
        return not self._rows

    def p_degree(self):
        return max(self._rows, default=-1)

    def t_degree(self):
        return max(map(max, self._rows.values()), default=-1)

    def __bool__(self):
        return bool(self._rows)

    def __eq__(self, other):
        return isinstance(other, BiPoly) and self._rows == other._rows

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.terms())
        return self._hash

    def __neg__(self):
        return BiPoly._raw({p: {t: -c for t, c in row.items()}
                            for p, row in self._rows.items()})

    def __add__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        out = dict(self._rows)
        for p, row in other._rows.items():
            mine = out.get(p)
            if mine is None:
                out[p] = row
            elif (total := _row_sum(mine, row, 0, 1)):
                out[p] = total
            else:
                del out[p]
        return BiPoly._raw(out)

    def __sub__(self, other):
        return self + (-other) if isinstance(other, BiPoly) else NotImplemented

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return BiPoly._raw({})
            return BiPoly._raw({p: {t: c * other for t, c in row.items()}
                                for p, row in self._rows.items()})
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.mul_truncated(other, self.p_degree() + other.p_degree())

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = BiPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def subs_t_one(self):
        """Substitute T = 1, collapsing onto the P axis: each P-degree row
        summed."""
        return BiPoly._raw({p: {0: s} for p, row in self._rows.items()
                            if (s := sum(row.values()))})

    def mul_truncated(self, other, bound):
        """Product with every term of P-degree above bound left out."""
        out: dict[int, dict[int, int]] = {}
        for p1, row1 in self._rows.items():
            if p1 > bound:
                continue
            for p2, row2 in other._rows.items():
                if p1 + p2 > bound:
                    continue
                row = out.setdefault(p1 + p2, {})
                for t1, c1 in row1.items():
                    for t2, c2 in row2.items():
                        t = t1 + t2
                        s = row.get(t, 0) + c1 * c2
                        if s:
                            row[t] = s
                        else:
                            del row[t]
        return BiPoly._raw({p: row for p, row in out.items() if row})

    def _mul_binomial(self, a, b):
        """Product with 1 - T^a P^b: row e is row e less row e - b moved by
        T^a, and a row with nothing to subtract is shared."""
        rows = self._rows
        out = {}
        for e in rows.keys() | {p + b for p in rows}:
            src = rows.get(e - b)
            if src is None:
                out[e] = rows[e]
            elif (row := _row_sum(rows.get(e, {}), src, a, -1)):
                out[e] = row
        return BiPoly._raw(out)

    def _swapped(self):
        """The polynomial with T and P exchanged."""
        out: dict[int, dict[int, int]] = {}
        for p, row in self._rows.items():
            for t, c in row.items():
                out.setdefault(t, {})[p] = c
        return BiPoly._raw(out)

    def _div_binomial(self, a, b):
        """Exact quotient by 1 - T^a P^b, b > 0, or None.

        Q = N + T^a P^b Q, solved one row at a time on the P-degree rows:
        quotient row e is numerator row e plus quotient row e - b moved by
        T^a.  Rows b apart form a chain.  A row is kept as (offset,
        {T-degree - offset: c}), so a move changes the offset and an add
        starts from a C-level dict copy.  Between two numerator rows of a
        chain the quotient row only moves, so it is computed once per
        numerator row and written once per row it covers: a gap costs
        nothing unless the quotient fills it.  Exact iff the last quotient
        row of every chain is 0; a nonzero one would repeat past the top.
        A P-free factor 1 - T^a never comes here: `div_exact` divides the
        polynomial with T and P swapped by 1 - P^a and swaps the quotient
        back.
        """
        rows = self._rows
        runs = []  # (row, offset, quotient row, next numerator row of its chain)
        last = None  # the latest nonzero quotient row, as (row, offset, terms)
        for e in sorted(rows, key=lambda e: (e % b, e)):
            if last is None:
                off, q = 0, rows[e]
            elif (e - last[0]) % b:
                return None
            else:
                runs.append((*last, e))
                off = last[1] + (e - last[0]) // b * a
                q = _row_sum(last[2], rows[e], -off, 1)
            last = (e, off, q) if q else None
        if last is not None:
            return None
        out: dict[int, dict[int, int]] = {}
        for e0, off, q, end in runs:
            for e in range(e0, end, b):
                out[e] = dict(zip(map(off.__add__, q), q.values())) if off else q
                off += a
        return BiPoly._raw(out)

    def div_exact(self, divisor):
        """Quotient self/divisor if the division is exact, else None.

        Single-divisor multivariate division in graded-lex order.  Lead
        monomials come off a heap (stale entries are skipped), so the cost
        is near linear in the monomials touched; the remainder is discarded
        as soon as it is known to be nonzero.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return BiPoly.zero()
        dterms = divisor.terms()
        if len(dterms) == 2 and dterms[0] == ((0, 0), 1) and dterms[1][1] == -1:
            ea, eb = dterms[1][0]
            if eb:
                return self._div_binomial(ea, eb)
            q = self._swapped()._div_binomial(eb, ea)
            return None if q is None else q._swapped()

        def key(m):
            # negated graded-lex so heapq's min-heap pops the largest
            return (-(m[0] + m[1]), -m[0], -m[1])

        dlead, dc = max(dterms, key=lambda mc: (mc[0][0] + mc[0][1], *mc[0]))
        rest = [(m, c) for m, c in dterms if m != dlead]
        work = self._terms
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
        return BiPoly._raw(_by_p_degree(quot)) if not work else None

    def subs_inverse_prime(self, p):
        """Coefficients of the T-polynomial obtained by setting P = 1/p.

        Returns a list indexed by T-degree: a Fraction where a term lands,
        else the int 0, whose truth test is cheap for the dense callers.
        """
        deg = self.t_degree()
        out = [0] * (deg + 1)
        for j, row in self._rows.items():
            for t, c in row.items():
                out[t] += Fraction(c, p ** j)
        return out

    def __repr__(self):
        if not self._rows:
            return "0"
        chunks = []
        for (t, p), c in self.terms():
            mono = "*".join(
                ([] if t == 0 else [f"T^{t}" if t > 1 else "T"])
                + ([] if p == 0 else [f"P^{p}" if p > 1 else "P"])
            )
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            chunks.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(chunks)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def to_json(self):
        return [{"t": t, "p": p, "coeff": str(c)} for (t, p), c in self.terms()]

    @classmethod
    def from_json(cls, data):
        # coefficients are written as strings; a number must be an int
        return cls({(item["t"], item["p"]): int(c) if isinstance(c, str) else c
                    for item in data for c in (item["coeff"],)})


class BinomialFactor(NamedTuple):
    """The factor 1 - T^a P^b with a, b >= 0 and (a, b) != (0, 0)."""

    a: int
    b: int

    def poly(self):
        return BiPoly.binomial(self.a, self.b)

    def ratio(self):
        """b/a, the negated real part of the pole this factor contributes."""
        if self.a == 0:
            raise ValueError("a T-free factor has no pole in s")
        return Fraction(self.b, self.a)


def _as_factor(f):
    f = BinomialFactor(*map(index, f))
    if f.a < 0 or f.b < 0 or f == (0, 0):
        raise ValueError(f"invalid denominator factor {f}")
    return f


class BiRationalFunction:
    """numerator / product of binomial factors, the denominator kept factored.

    `_screen`, None unless `RowSum.reduced` set it on the sum it is about
    to reduce, evaluates the numerator at screen points from the sum's
    summands (`reduced()`); it is not part of the value, so `==` and `hash`
    do not read it, and no function the package returns carries one."""

    __slots__ = ("numerator", "denominator", "_screen")

    def __init__(self, numerator, denominator=()):
        if not isinstance(numerator, BiPoly):
            raise TypeError("numerator must be a BiPoly")
        self.numerator = numerator
        self.denominator = tuple(sorted(_as_factor(f) for f in denominator))
        self._screen = None

    @classmethod
    def zero(cls):
        return cls(BiPoly.zero())

    @classmethod
    def one(cls):
        return cls(BiPoly.one())

    def __eq__(self, other):
        return (isinstance(other, BiRationalFunction)
                and self.numerator == other.numerator
                and self.denominator == other.denominator)

    def __hash__(self):
        return hash((self.numerator, self.denominator))

    def __neg__(self):
        return BiRationalFunction(-self.numerator, self.denominator)

    def __add__(self, other):
        """Sum over the least common multiset of denominator factors.

        API only: the pipeline sums its cells in a `RowSum`, which keeps the
        same multiset and so reaches the same numerator."""
        if not isinstance(other, BiRationalFunction):
            return NotImplemented
        mine = Counter(self.denominator)
        theirs = Counter(other.denominator)
        common = mine | theirs
        num, rest = self.numerator, other.numerator
        for f in (common - mine).elements():
            num = num._mul_binomial(*f)
        for f in (common - theirs).elements():
            rest = rest._mul_binomial(*f)
        return BiRationalFunction(num + rest, common.elements())

    def __sub__(self, other):
        return self + (-other) if isinstance(other, BiRationalFunction) else NotImplemented

    def __mul__(self, other):
        if isinstance(other, (BiPoly, int)):
            return BiRationalFunction(self.numerator * other, self.denominator)
        if not isinstance(other, BiRationalFunction):
            return NotImplemented
        return BiRationalFunction(self.numerator * other.numerator,
                                  self.denominator + other.denominator)

    __rmul__ = __mul__

    def reduced(self):
        """Cancel denominator factors against the numerator, one decision
        per factor.

        Write the factor as 1 - x^g, x = T^a0 P^b0 primitive.  Every step
        below (dividing by 1 - x^g, or exchanging it for 1 - x^m, m a proper
        divisor of g) needs the cyclotomic factor Phi_g(x) to divide the
        numerator N.  Two tests that can prove it does not come first, both
        against the numerator as it came in: each step replaces N by a
        divisor of N, so a proof there still holds.  A proven factor stays
        with nothing more built; an unproven one goes on to the exact
        steps, so neither test can change an outcome.

        The edge certificate (`_edge_certified`): multiplying by a
        polynomial in x keeps phi = b0*t - a0*p, so Phi_g(x) divides the
        part of N on every line phi = const, the two extreme lines
        included (Ostrowski: Newt(f g) = Newt(f) + Newt(g)).  An extreme
        line with one term, or whose polynomial in x is nonzero mod q at
        a primitive g-th root of unity (the screen prime q below, when
        g | q - 1), proves the factor stays.  The extreme lines are read
        off the ends of N's P-degree rows, O(rows) per direction.

        The screen, for the factors left: N is evaluated modulo one fixed
        prime q with g | q - 1 for every g <= 22, at a point where x is a
        primitive g-th root of unity, a zero of Phi_g(x).  A nonzero value
        proves Phi_g(x) does not divide N.  A zero value decides nothing,
        and no other g is screened.  One call screens every factor left,
        and there is none when none is.  A sum that `RowSum.reduced` hands
        over is evaluated from its summands (`_summands_nonzero_at`): each
        cell's counted keys, times the factors of the sum's denominator that
        the cell lacks, times the `mul_binomial` factors after it, so the
        1 - P lane of (1 - P)^n is 0 with no key read.  Any other numerator
        is evaluated the same way as one summand, its terms (`_nonzero_at`).
        Both give N's residue mod q at every point, so the decisions do not
        depend on which summands are read.

        The chain sums: one pass sums N per chain (monomials differing by a
        power of x^g), keyed by the line b0*t - a0*p and t mod a (p mod b
        when a = 0).  All sums 0: the factor divides N (as in
        `_div_binomial`) and is divided out.  Else it becomes 1 - x^m for
        the least proper divisor m of g whose shift x^m keeps every sum: the
        sums of N*(1 - x^m) are the differences, so that is when
        S = (1 - x^g)/(1 - x^m) divides N.  Such a shift maps one live sum
        onto an equal live sum on the same line, so the candidates for m
        are read off the sums, not off the divisors of g.  Else it stays.
        For g = 1 there is no m, and the factor divides N iff every sum is
        0, so the exact division decides alone, with no sums built.
        One visit per factor is exact: each step replaces N by a divisor of
        N; factors along different x share no cyclotomic factor; and after
        the least exchange neither 1 - x^m nor a smaller exchange divides
        N/S, or 1 - x^g or a smaller S would divide N.
        Not canonical: equal functions can reduce to different shapes.
        """
        num, den = self.numerator, []
        lines = [((f.a // g, f.b // g), g)
                 for f in self.denominator for g in (gcd(f.a, f.b),)]
        stays = _edge_certified(num._rows, lines)
        left = [k for k, stay in enumerate(stays) if not stay]
        if left:
            screen = self._screen or partial(_nonzero_at, num._rows)
            screened = screen([_screen_point(*lines[k]) for k in left])
            for k, stay in zip(left, screened):
                stays[k] = stay
        for f, (x, g), stay in zip(self.denominator, lines, stays):
            if stay:
                den.append(f)
                continue
            if g == 1:
                q = num.div_exact(f.poly())
                if q is None:
                    den.append(f)
                else:
                    num = q
                continue
            i = 0 if f.a else 1  # chains are told apart by exponent i mod f[i]
            sums: dict[tuple[int, int], int] = {}
            for p, row in num._rows.items():
                line = -x[0] * p
                for t, c in row.items():
                    key = (x[1] * t + line, (t, p)[i] % f[i])
                    sums[key] = sums.get(key, 0) + c
            live = {k: s for k, s in sums.items() if s}
            if live:  # x^m adds m * x[i] to exponent i
                # a valid shift maps one live class onto a live class of its
                # line with the same sum, so m is one of those offsets
                (line0, r0), s0 = next(iter(live.items()))
                offsets = sorted((r - r0) // x[i] % g for (line, r), s in live.items()
                                 if line == line0 and s == s0)
                m = next((m for m in offsets if m and g % m == 0 and all(
                    live.get((line, (r + m * x[i]) % f[i])) == s
                    for (line, r), s in live.items())), None)
                if m is None:
                    den.append(f)
                    continue
                den.append(BinomialFactor(x[0] * m, x[1] * m))
                num = num._mul_binomial(*den[-1])
            num = num.div_exact(f.poly())
            if num is None:
                raise AssertionError(f"chain sums promised an exact division by {f}")
        return BiRationalFunction(num, den)

    def series(self, bound):
        """Power-series expansion truncated to total P-degree <= bound.

        Every denominator factor must carry a positive P-exponent, otherwise
        the truncation by P-degree would keep infinitely many terms.  The
        expansion Q of N / (1 - T^a P^b) solves Q = N + T^a P^b Q, the
        recurrence of `_div_binomial` without its exactness test: on a copy
        of the numerator's P-degree rows, for e = b, ..., bound in increasing
        order, row e - b moved by T^a is added into row e.  Each factor
        costs one sweep over the rows it produces.
        """
        if bound < 0:
            return BiPoly.zero()
        rows = {p: dict(row) for p, row in self.numerator._rows.items() if p <= bound}
        for f in self.denominator:
            if f.b == 0:
                raise ValueError(f"factor {f} has no P part; cannot expand by P-degree")
            a, b = f
            for e in range(b, bound + 1):
                src = rows.get(e - b)
                if not src:
                    continue
                row = rows.setdefault(e, {})
                for t, c in src.items():
                    t += a
                    s = row.get(t, 0) + c
                    if s:
                        row[t] = s
                    else:
                        del row[t]
        return BiPoly._raw({p: row for p, row in rows.items() if row})

    def specialize(self, p):
        """Substitute P = 1/p for a prime p, giving a rational function in T.

        The result is dense in T, so a T-degree above `_MAX_DENSE_T_DEGREE`
        is a ValueError, raised before anything is allocated."""
        if not _is_prime(p):
            raise ValueError(f"{p} is not a prime")
        degree = max(self.numerator.t_degree(), sum(f.a for f in self.denominator))
        if degree > _MAX_DENSE_T_DEGREE:
            raise ValueError(f"cannot specialize at T-degree {degree}: "
                             f"the limit is {_MAX_DENSE_T_DEGREE}")
        num = self.numerator.subs_inverse_prime(p)
        den = [Fraction(1)]
        for f in self.denominator:
            # times 1 - p^-b T^a: one pass over the nonzero coefficients
            c, out = Fraction(1, p ** f.b), den + [0] * f.a
            for i, d in enumerate(den):
                if d:
                    out[i + f.a] -= c * d
            den = out
        return UniRational.reduced_from(num, den)

    def __repr__(self):
        num = repr(self.numerator)
        if not self.denominator:
            return num
        def fp(f):
            return "(" + repr(f.poly()) + ")"
        return f"({num}) / ({'*'.join(fp(f) for f in self.denominator)})"

    def to_json(self):
        return {
            "numerator": self.numerator.to_json(),
            "denominator": [[f.a, f.b] for f in self.denominator],
        }

    @classmethod
    def from_json(cls, data):
        return cls(BiPoly.from_json(data["numerator"]),
                   [tuple(f) for f in data["denominator"]])


class RowSum:
    """A running sum of fractions N / prod(1 - T^a P^b), kept over the least
    common multiset of denominator factors as `BiRationalFunction.__add__`
    keeps it, the numerator packed one int per P-degree.

    Row p is (t0, v) with v = sum of c_t 2^(W (t - t0)): the row's
    T-polynomial over T^t0, evaluated at T = 2^W (Kronecker substitution).
    Adding aligns two offsets with one shift, and multiplying by
    1 - T^a P^b subtracts row p, its offset moved by a, from row p + b.
    These are ring operations, so v is exact whatever the coefficients; only
    reading them back needs each below 2^(W-1) in absolute value.  An l1
    bound on the numerator proves that: a fraction adds its own, and a
    binomial at most doubles it.  W starts at 64 bits and doubles (one
    decode, one repack) before the bound can reach 2^(W-1).  A fraction's
    numerator comes in as packed keys t + (p << S), a cell's counted weight
    keys, and goes into rows with no term built.

    The summands are kept as well, in order: each fraction's keys, shift
    and factors, and each `mul_binomial` factor.  `reduced()` screens the
    sum's denominator factors from them (`_summands_nonzero_at`), which
    reads each key at most once per screen point rather than every
    numerator term.  The keys are kept as given, not copied, so a caller
    must not change them; they live as long as the `RowSum`, and no
    function it returns holds them.
    """

    __slots__ = ("_rows", "_den", "_width", "_bound", "_summands")

    def __init__(self):
        self._rows: dict[int, tuple[int, int]] = {}
        self._den: Counter = Counter()
        self._width = 64
        self._bound = 0
        self._summands: list[tuple[dict, int, Counter] | BinomialFactor] = []

    def add(self, keys, shift, factors):
        """Add N / prod of 1 - T^a P^b over factors (a, b).  The terms
        c T^t P^p of N come packed, keys maps t + (p << shift) to c, with
        p >= 0 and 0 <= t < 2^(shift-1) (a cell's weight keys, counted), and
        go into packed rows with no term built (`_pack_keys`)."""
        factors = Counter(map(_as_factor, factors))
        grow, lift = factors - self._den, self._den - factors
        bound = ((self._bound << sum(grow.values()))
                 + (sum(map(abs, keys.values())) << sum(lift.values())))
        self._fit(bound)
        width = self._width
        rows = _pack_keys(keys, shift, width)  # may reject the keys: nothing changed yet
        for f in grow.elements():
            self._rows = _times_binomial(self._rows, f, width)
        for f in lift.elements():
            rows = _times_binomial(rows, f, width)
        _add_rows(self._rows, rows, 0, 0, 1, width)
        self._den += grow
        self._bound = bound
        self._summands.append((keys, shift, factors))

    def mul_binomial(self, a, b):
        """Multiply the numerator by 1 - T^a P^b; the denominator stays."""
        f = _as_factor((a, b))
        self._fit(2 * self._bound)
        self._rows = _times_binomial(self._rows, f, self._width)
        self._bound *= 2
        self._summands.append(f)

    def _fit(self, bound):
        """Widen W, if need be, so that bound < 2^(W-1)."""
        width = self._width
        while bound >> (width - 1):
            width *= 2
        if width != self._width:
            self._rows = _pack(_unpack(self._rows, self._width), width)
            self._width = width

    def rational(self):
        """The sum as a BiRationalFunction: each packed row decoded once,
        straight into the numerator's row."""
        return BiRationalFunction(BiPoly._raw(_unpack(self._rows, self._width)),
                                  self._den.elements())

    def reduced(self):
        """`rational().reduced()`, its screen read from the summands: the
        one place a function gets a `_screen`, set on the sum just before
        `BiRationalFunction.reduced` takes it, so what comes back has none."""
        out = self.rational()
        out._screen = partial(_summands_nonzero_at, tuple(self._summands), Counter(self._den))
        return out.reduced()


def _add_rows(target, rows, a, b, sign, width):
    """target += sign * T^a P^b * rows, in place, row by row."""
    for p, (t, v) in rows.items():
        t += a
        v = v if sign > 0 else -v
        old = target.get(p + b)
        if old is not None:
            t0, v0 = old
            if t0 <= t:
                t, v = t0, v0 + (v << width * (t - t0))
            else:
                v += v0 << width * (t0 - t)
        target[p + b] = (t, v)


def _times_binomial(rows, f, width):
    """rows * (1 - T^a P^b), as new rows."""
    out = dict(rows)
    _add_rows(out, rows, f.a, f.b, -1, width)
    return out


def _slot_lift(width, n):
    """2^(width-1) in each of n slots of width bits, little-endian bytes."""
    return (bytes(width // 8 - 1) + b"\x80") * n


def _row_sum(row, src, shift, sign):
    """A new row {t: c}: row plus sign * src moved by T^shift, sign = +-1,
    with no zero coefficient.  Neither argument is changed."""
    out = dict(row)
    for t, c in src.items():
        t += shift
        s = out.get(t, 0) + sign * c
        if s:
            out[t] = s
        else:
            del out[t]
    return out


def _by_p_degree(terms):
    """The rows {p: {t: c}} of the terms {(t, p): c}, one per P-degree, each
    in the order of the terms: the layout `BiPoly` stores.  Only input that
    arrives as terms is grouped here: the `BiPoly` constructor (so
    `from_json` too) and the general division's quotient.  A cell comes
    into `RowSum.add` as packed keys, never as terms."""
    rows: dict[int, dict[int, int]] = {}
    for (t, p), c in terms.items():
        row = rows.get(p)
        if row is None:
            rows[p] = {t: c}
        else:
            row[t] = c
    return rows


def _pack(rows, width):
    """The packed rows {p: (t0, v)} of the rows {p: {t: c}}, each
    |c| < 2^(width-1): keyed as `RowSum.add` takes a cell, and packed the
    same way."""
    shift = max(map(max, rows.values()), default=0).bit_length() + 2
    return _pack_keys({t + (p << shift): c for p, row in rows.items() for t, c in row.items()},
                      shift, width)


def _pack_keys(keys, shift, width):
    """The packed rows {p: (t0, v)} of the terms given as keys
    {t + (p << shift): c}, p >= 0, 0 <= t < 2^(shift-1), |c| < 2^(width-1).

    In key order a row is one run of keys, from p << shift up to below
    (p << shift) + 2^(shift-1), so sorting the keys groups them, and one
    bisection per row finds where its run ends.  Each c is written into a
    buffer of 64-bit words in two's complement, width/64 words to a slot,
    and the buffer is read as one unsigned int X, little-endian both ways.
    X is the row when no c is negative, as for a cell's point counts.  Else,
    with L = 2^(width-1) in every slot, X ^ L holds c + 2^(width-1) in each
    slot (flipping the top bit of a two's complement number adds
    2^(width-1) to it), so no slot borrows, and X ^ L - L is the row."""
    half, k = 1 << (shift - 1), width // 64
    order = sorted(keys)
    coeff = keys.__getitem__
    signed = min(keys.values(), default=0) < 0
    packed = {}
    lo, end = 0, len(order)
    while lo < end:
        first = order[lo]
        p = (first + half) >> shift  # the rounding shift: t may read as negative
        t0 = first - (p << shift)
        if t0 < 0 or p < 0:
            raise ValueError("negative exponent in a packed term")
        hi = bisect_left(order, (p << shift) + half, lo)
        n = (order[hi - 1] - first + 1) * k
        words = [0] * n
        if k == 1:
            for key in order[lo:hi]:
                words[key - first] = coeff(key) & _WORD
        else:
            for key in order[lo:hi]:
                c, i = coeff(key), (key - first) * k
                for j in range(i, i + k):
                    words[j] = c & _WORD
                    c >>= 64
        v = int.from_bytes(struct.pack(f"<{n}Q", *words), "little")
        if signed:
            lift = int.from_bytes(_slot_lift(width, n // k), "little")
            v = (v ^ lift) - lift
        packed[p] = (t0, v)
        lo = hi
    return packed


_WORD = (1 << 64) - 1


def _unpack(packed, width):
    """The rows {p: {t: c}} of the packed rows, each |c| < 2^(width-1), with
    no empty row and no zero coefficient: the layout `BiPoly` stores.
    With L = 2^(width-1) in every slot, v + L has every slot in
    [0, 2^width), so no slot borrows, and (v + L) ^ L holds each slot's c
    in two's complement: its bytes read as 64-bit words, width/64 to a
    slot, the top word of each signed, are the coefficients."""
    size, k = width // 8, width // 64
    out = {}
    for p, (t0, v) in packed.items():
        if not v:
            continue
        n = abs(v).bit_length() // width + 1
        lift = int.from_bytes(_slot_lift(width, n), "little")
        slots = struct.unpack("<" + f"{k - 1}Qq" * n if k > 1 else f"<{n}q",
                              ((v + lift) ^ lift).to_bytes(n * size, "little"))
        if k > 1:
            slots = [sum(w << 64 * j for j, w in enumerate(slots[i:i + k]))
                     for i in range(0, n * k, k)]
        out[p] = {t: c for t, c in enumerate(slots, t0) if c}
    return out


# specialization is dense in T, linear in time and memory: degree 10^6 took
# ~0.2 s and ~50 MB (2 vCPU, Python 3.11)
_MAX_DENSE_T_DEGREE = 10**7

# Miller-Rabin on these bases is exact below the bound (Sorenson & Webster 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(p):
    """Deterministic Miller-Rabin; ValueError at or above the proven bound."""
    if not isinstance(p, int) or p < 2:
        return False
    if p >= _MR_BOUND:
        raise ValueError(f"cannot certify {p} as prime: the limit is {_MR_BOUND - 1}")
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


# The screen prime q = 8 * lcm(1, ..., 22) + 1 and a generator of its units:
# g | q - 1 for every g <= 22, and q < 2^31.
_SCREEN_PRIME = 1862340481
_SCREEN_GENERATOR = 61


def _screen_point(x, g):
    """(q, T0, P0) with x = T0^a0 P0^b0 a primitive g-th root of unity mod q:
    T0 = z^u s^b0 and P0 = z^v s^-a0 with u*a0 + v*b0 = 1, z = s^((q-1)/g)
    of order exactly g and s the generator.  None unless g divides q - 1."""
    q, s = _SCREEN_PRIME, _SCREEN_GENERATOR
    if (q - 1) % g:
        return None
    z = pow(s, (q - 1) // g, q)
    a0, b0 = x
    u = pow(a0, -1, b0) if b0 else 1
    v = (1 - u * a0) // b0 if b0 else 0
    return (q, pow(z, u, q) * pow(s, b0, q) % q, pow(z, v, q) * pow(s, -a0, q) % q)


def _edge_certified(rows, lines):
    """For each (x, g), x = (a0, b0) primitive, does an extreme line of the
    polynomial with the P-degree rows {p: {t: c}} prove that Phi_g(x)
    does not divide it, x = T^a0 P^b0?

    Multiplying by a polynomial in x keeps each monomial on its line
    phi = b0*t - a0*p = const, so in a multiple of Phi_g(x) the part on
    every line is one too.  The part on a line is a monomial times h(x),
    h a polynomial in one variable, and Phi_g(x) divides it only if h has
    more than one term and, when g | q - 1 for the screen prime q, only if
    h(z) = 0 mod q at z of order g (Phi_g(z) = 0 mod q).  Only the two
    extreme lines, phi largest and smallest, are tested: for b0 > 0 a row
    holds at most one term of a line, so they are made of row ends, each
    row's least and greatest T-degree, read once per call; for b0 = 0
    (x = T) the lines are the rows, and they are the lowest and highest."""
    out = [False] * len(lines)
    if not rows:
        return out
    q, ends, edges = _SCREEN_PRIME, None, {}
    for k, (x, g) in enumerate(lines):
        if x not in edges:
            a0, b0 = x
            if not b0:  # a0 = 1
                edges[x] = [[(t - t0, c) for t, c in row.items()]
                            for row in (rows[min(rows)], rows[max(rows)])
                            for t0 in (min(row),)]
            else:
                if ends is None:
                    ends = [(p, min(row), max(row)) for p, row in rows.items()]
                edges[x] = []
                for side, best in ((2, max), (1, min)):
                    phi = [b0 * e[side] - a0 * e[0] for e in ends]
                    top = best(phi)
                    on = [e for e, v in zip(ends, phi) if v == top]
                    p0 = min(e[0] for e in on)
                    edges[x].append([((e[0] - p0) // b0, rows[e[0]][e[side]]) for e in on])
        z = None if (q - 1) % g else pow(_SCREEN_GENERATOR, (q - 1) // g, q)
        out[k] = any(len(h) == 1 or z is not None and sum(
            c * pow(z, e, q) for e, c in h) % q != 0 for h in edges[x])
    return out


def _powers(base, exponents, q):
    """base^e mod q for the increasing exponents e, each one step from the
    last: one multiply for a gap of 1, the most common, and the logarithm
    of any other gap."""
    out, w, prev = [], 1, 0
    for e in exponents:
        gap = e - prev
        w = w * (base if gap == 1 else pow(base, gap, q)) % q
        out.append(w)
        prev = e
    return out


def _nonzero_at(rows, points):
    """For each point (q, T0, P0), or None, is the polynomial with the
    P-degree rows {p: {t: c}} (a `BiPoly`'s `_rows`) nonzero at it modulo q?
    False for None.  The screen of a function with no summands kept: its
    terms are one summand with no factors, keyed t + (p << S) as
    `RowSum.add` takes a cell."""
    shift = max(map(max, rows.values()), default=0).bit_length()
    keys = {t + (p << shift): c for p, row in rows.items() for t, c in row.items()}
    return _summands_nonzero_at(((keys, shift, Counter()),), Counter(), points)


def _summands_nonzero_at(summands, den, points):
    """For each point (q, T0, P0), or None, is the numerator of a `RowSum`,
    given by its summands and denominator, nonzero at it modulo q?  False
    for None (`_summands_at`)."""
    values = _summands_at(summands, den, set(points) - {None})
    return [bool(values.get(point)) for point in points]


def _summands_at(summands, den, points):
    """{(q, T0, P0): N(T0, P0) mod q} over the points, N the numerator of a
    `RowSum` given by its summands, in order, and its denominator D: a cell
    (keys, S, F) adds K * prod(D - F), a factor multiplies what came
    before it.

    K is the polynomial with the terms c T^t P^p given as keys
    {t + (p << S): c}, and D - F, a multiset difference, the factors the
    cell was lifted by.  Evaluation mod q is a ring map, so N(T0, P0) mod q
    is the same expression in the factors' values at the point, each
    computed once.  Walking the summands backwards, a cell is weighed by
    the product of the factors after it, and once that product is 0, as
    under (1 - P)^n at P0 = 1, no earlier key is read.  At a screen point
    x is a root of unity of order g, so the factor screened, 1 - x^g, is 0
    there, and so is every cell that lacks a copy of it; no key of such a
    cell is read either.  The keys of the other cells are read once per
    point, against T0 and P0 raised only to the degrees present
    (`_powers`)."""
    decoded = {}  # cell index: (T-degrees, P-degrees, coefficients)
    factors_used = {*den, *(s for s in summands if isinstance(s, BinomialFactor))}

    def value(q, t0, p0):
        at = {f: (1 - pow(t0, f.a, q) * pow(p0, f.b, q)) % q for f in factors_used}
        after, lifted = 1, []
        for i in reversed(range(len(summands))):
            if isinstance(summand := summands[i], BinomialFactor):
                after = after * at[summand] % q
                if not after:
                    break
                continue
            keys, shift, factors = summand
            m = after * prod(pow(at[f], c - factors[f], q) for f, c in den.items()) % q
            if m:
                if i not in decoded:
                    mask = (1 << shift) - 1
                    decoded[i] = ([u & mask for u in keys], [u >> shift for u in keys],
                                  list(keys.values()))
                lifted.append((m, *decoded[i]))
        if not lifted:
            return 0
        t_degrees = sorted(set().union(*(ts for _, ts, _, _ in lifted)))
        p_degrees = sorted(set().union(*(ps for _, _, ps, _ in lifted)))
        t_at = dict(zip(t_degrees, _powers(t0, t_degrees, q))).__getitem__
        p_at = dict(zip(p_degrees, _powers(p0, p_degrees, q))).__getitem__
        return sum(m * sum(map(mul, cs, map(mul, map(t_at, ts), map(p_at, ps))))
                   for m, ts, ps, cs in lifted) % q

    return {point: value(*point) for point in points}


def _uni_trim(f):
    n = len(f)
    while n and not f[n - 1]:
        n -= 1
    return list(f[:n])


def _uni_divmod(f, g):
    f = _uni_trim(f)
    g = _uni_trim(g)
    if not g:
        raise ZeroDivisionError
    q = [0] * max(0, len(f) - len(g) + 1)
    r = list(f)
    terms = [(i, b) for i, b in enumerate(g) if b]
    for d in range(len(q) - 1, -1, -1):
        if r[d + len(g) - 1]:  # a zero leading coefficient takes no step
            q[d] = c = r[d + len(g) - 1] / g[-1]
            for i, b in terms:
                r[i + d] -= c * b
    return _uni_trim(q), _uni_trim(r)


def _uni_gcd(f, g):
    f, g = _uni_trim(f), _uni_trim(g)
    while g:
        if len(g) == 1:  # a nonzero constant divides everything
            return [Fraction(1)]
        f, g = g, _uni_divmod(f, g)[1]
    if f:
        lead = f[-1]
        f = [a / lead if a else a for a in f]
    return f


class UniRational:
    """Rational function in one variable T over Q, held in lowest terms."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = tuple(num)
        self.den = tuple(den)

    @classmethod
    def reduced_from(cls, num, den):
        num, den = _uni_trim(num), _uni_trim(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        g = _uni_gcd(num, den)
        if len(g) > 1:
            num = _uni_divmod(num, g)[0]
            den = _uni_divmod(den, g)[0]
        # normalize: constant term of the denominator is 1 when possible
        scale = den[0] if den[0] != 0 else den[-1]
        if scale != 1:
            num = [a / scale if a else a for a in num]
            den = [a / scale if a else a for a in den]
        return cls(num, den)

    def __eq__(self, other):
        return (isinstance(other, UniRational)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def series_coeffs(self, count):
        """First `count` Taylor coefficients at T = 0 (den[0] must be nonzero)."""
        if not self.den or self.den[0] == 0:
            raise ZeroDivisionError("no Taylor expansion at T = 0")
        out = []
        for t in range(count):
            s = self.num[t] if t < len(self.num) else Fraction(0)
            for i in range(1, min(t, len(self.den) - 1) + 1):
                s -= self.den[i] * out[t - i]
            out.append(s / self.den[0])
        return out

    @staticmethod
    def _poly_str(coeffs):
        if not coeffs:
            return "0"
        parts = []
        for i, c in enumerate(coeffs):
            if c == 0:
                continue
            if i == 0:
                body = str(c)
            else:
                var = "T" if i == 1 else f"T^{i}"
                body = var if c == 1 else (f"-{var}" if c == -1 else f"{c}*{var}")
            parts.append(body)
        text = parts[0]
        for part in parts[1:]:
            text += (" - " + part[1:]) if part.startswith("-") else (" + " + part)
        return text

    def __repr__(self):
        num = self._poly_str(self.num)
        if self.den == (Fraction(1),):
            return num
        return f"({num})/({self._poly_str(self.den)})"

    def to_json(self):
        return {"num": [str(c) for c in self.num], "den": [str(c) for c in self.den]}
