"""Exact arithmetic in Z[T, P] and for rational functions with binomial
denominators.

T and P are independent formal variables (in the zeta-function application
T stands for p^-s and P for 1/p).  A polynomial is stored as its P-degree
rows {p_deg: {t_deg: c}}: no empty row, no zero coefficient, so equal
polynomials have equal rows.  Row dicts may be shared between polynomials
and are never changed once a polynomial holds them.  A rational function
keeps its denominator as a multiset of factors 1 - T^a P^b and is never
expanded, so the factored shape survives every operation.  A sum of many
such fractions is made at once by `planned_sum`, over a factor tree on the
least common multiset of their factors, its numerator packed one int per
P-degree in slots of the least width its l1 bound allows (32 bits, or 64,
128, ...) and built from keys, each fraction's keys packed as they are
read.  The packed rows go on to `reduced()` as they are and stay packed
through it and past it: its divisions and the multiply of an exchange run
on them, and the numerator it returns still holds them.  Readers of the
terms go through one row reader (`BiPoly._row_terms`) that reads packed
rows off their slots; only arithmetic and `==` decode them into rows,
once.  The only division is
exact division by a binomial 1 - T^a P^b, one chain recurrence
(`_chain_quotient`) over packed or decoded rows; a packed quotient whose
l1 bound reaches the slot width has its true l1 read off its slots, and
is decoded only if that reaches it too.  `reduced()` has one rule for a
denominator factor: one modular screen, read off the numerator's row
values at a single point T0, keeps most factors, and every other is
divided out if it divides; only when it does not are chain sums built,
to find the exchange that takes its place.  A polynomial from
`planned_sum` comes with those values, one remainder per packed row; any
other computes them once from its terms.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from collections import Counter, defaultdict
from fractions import Fraction
from functools import lru_cache
from math import gcd
from itertools import chain
from operator import index, itemgetter, mul
from typing import NamedTuple


class BiPoly:
    """Sparse polynomial in T and P with integer coefficients, stored as
    its P-degree rows.

    A polynomial from `planned_sum` holds packed rows instead,
    `_packed` = ({p: (t0, v)}, W, B) in `planned_sum`'s layout, B an l1 bound
    below 2^(W-1).  Binomial division (`_div_packed`) and, while 2B is
    below 2^(W-1), the multiply by a binomial read them as they are, leave
    them and return packed rows.  `terms()` and the printers and `hash`
    that follow it, the degrees, `is_zero`, `subs_inverse_prime` and
    `series` read them off their slots through `_row_terms`, and leave
    them; the first read of `_rows`, by arithmetic or `==`, decodes them,
    once, and drops them."""

    __slots__ = ("_dict", "_packed")

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
        self._dict = _by_p_degree(clean)
        self._packed = None

    @classmethod
    def _raw(cls, rows: dict) -> "BiPoly":
        """Adopt rows {p: {t: c}} already known to be canonical: int
        exponents >= 0, no empty row, no zero coefficient.  The row dicts
        may be shared with other polynomials, so none is ever changed once
        adopted.  Internal fast path; no validation."""
        out = object.__new__(cls)
        out._dict = rows
        out._packed = None
        return out

    @classmethod
    def _of_packed(cls, rows, width, bound):
        """Adopt packed rows {p: (t0, v)} of slot width W whose coefficients
        have l1 norm at most bound < 2^(W-1), to be decoded on first read.
        The dict is owned from here on; the ints are never changed."""
        out = object.__new__(cls)
        out._dict = None
        out._packed = (rows, width, bound)
        return out

    def _decode(self):
        """Decode the packed rows: the one place they become rows."""
        rows, width, _ = self._packed
        self._dict, self._packed = _unpack(rows, width), None

    @property
    def _rows(self):
        """The rows {p: {t: c}}, decoded from the packed rows on first read."""
        if self._packed is not None:
            self._decode()
        return self._dict

    @property
    def _terms(self):
        """The flat view {(t, p): c}, built on each read and never stored."""
        return {(t, p): c for p, row in self._rows.items() for t, c in row.items()}

    def _row_terms(self, top=None):
        """(p, the row's (t, c) with c != 0) for each nonzero row, p
        increasing, up to p = top if given: the one reader of the terms that
        leaves the layout as it is.  Dict rows are read as they are; a
        packed row is read off its slots (`_slots`) only when its terms are
        iterated, so a reader that needs only the P-degrees reads no slot,
        and `_packed` stays set."""
        rows = self._dict if self._packed is None else self._packed[0]
        degrees = sorted(rows if top is None else (p for p in rows if p <= top))
        if self._packed is None:
            return ((p, rows[p].items()) for p in degrees)
        width = self._packed[1]
        return ((p, _slot_terms(*rows[p], width)) for p in degrees if rows[p][1])

    def _row_values(self):
        """(T0, {p: row p at T = T0, mod q}), q the screen prime.  Packed
        rows are read as they are, at T0 = 2^W mod q, W their slot width (32
        bits or more): row p is T^t0 times v(2^W), so its value is
        T0^t0 v mod q, and no row is decoded.  Else the terms are read at
        T0 = 2^64 mod q, against T0 raised only to the T-degrees present
        (`_powers`)."""
        q = _SCREEN_PRIME
        if self._packed is not None:
            rows, width, _ = self._packed
            t0 = pow(2, width, q)
            return t0, {p: pow(t0, t, q) * (v % q) % q for p, (t, v) in rows.items()}
        t0 = pow(2, 64, q)
        degrees = sorted(set().union(*self._rows.values()))
        at = dict(zip(degrees, _powers(t0, degrees, q))).__getitem__
        return t0, {p: sum(map(mul, row.values(), map(at, row))) % q
                    for p, row in self._rows.items()}

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
        """The terms ((t, p), c), sorted by (t, p): the rows' terms put in
        a bucket per T-degree, the rows read in increasing p, so each
        bucket is in increasing p and only the T-degrees are sorted."""
        by_t = defaultdict(list)
        for p, row in self._row_terms():
            for t, c in row:
                by_t[t].append(((t, p), c))
        return tuple(chain.from_iterable(map(by_t.__getitem__, sorted(by_t))))

    def is_zero(self):
        return next(self._row_terms(), None) is None

    def p_degree(self):
        return max((p for p, _ in self._row_terms()), default=-1)

    def t_degree(self):
        return max((max(t for t, _ in row) for _, row in self._row_terms()), default=-1)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        return isinstance(other, BiPoly) and self._rows == other._rows

    def __hash__(self):
        return hash(self.terms())

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
        """Product with 1 - T^a P^b.  Packed rows under an l1 bound B below
        2^(W-2) stay packed, under 2B (`_times_binomial`).  Else row e is row
        e less row e - b moved by T^a, and a row with nothing to subtract is
        shared."""
        if self._packed is not None:
            rows, width, bound = self._packed
            if not bound >> (width - 2):
                rows = _times_binomial(rows, BinomialFactor(a, b), width)
                return BiPoly._of_packed(rows, width, 2 * bound)
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
        """Exact quotient by 1 - T^a P^b, b > 0, or None, on the decoded
        rows: `_chain_quotient` with each row held as (offset,
        {T-degree - offset: c}), so a move changes the offset and an add
        starts from a C-level dict copy.  A quotient row that needs no add
        and no move is the numerator's row, shared.  A P-free factor 1 - T^a
        never comes here: `div_exact` divides the polynomial with T and P
        swapped by 1 - P^a and swaps the quotient back."""
        out = _chain_quotient({e: (0, row) for e, row in self._rows.items()}, a, b,
                              lambda off, q, n: (off, _row_sum(q, n[1], n[0] - off, 1)))
        if out is None:
            return None
        return BiPoly._raw({e: dict(zip(map(off.__add__, q), q.values())) if off else q
                            for e, (off, q) in out.items()})

    def _div_packed(self, a, b):
        """Exact quotient by 1 - T^a P^b, b > 0, or None, on the packed
        rows: `_chain_quotient` with each row held as (t0, v), so a move
        changes t0 and an add is one shift and one add of ints.

        Each quotient coefficient is a sum of distinct numerator
        coefficients, so at most the numerator's l1 bound B < 2^(W-1) in
        absolute value: every slot decodes, and v == 0 iff the row is 0.
        Each numerator coefficient feeds at most one coefficient per
        quotient row of its chain, so B times the most rows a chain of the
        quotient has bounds the quotient's l1 norm.  Below 2^(W-1) the
        quotient stays packed under that bound.  Else its true l1 norm is
        read off its slots (`_slots`), and it stays packed under that if it
        is below 2^(W-1); only if not is it returned decoded.  The
        numerator keeps its packed rows either way.
        """
        rows, width, bound = self._packed
        order = sorted(e for e, (_, v) in rows.items() if v)
        low, high = {e % b: e for e in reversed(order)}, {e % b: e for e in order}
        height = max(((high[r] - e) // b for r, e in low.items()), default=0)

        def add(t0, v0, n):
            t, v = n
            if t0 <= t:
                t, v = t0, v0 + (v << width * (t - t0))
            else:
                v += v0 << width * (t0 - t)
            return _trimmed(t, v, width) if v else (t, 0)

        out = _chain_quotient(rows, a, b, add)
        if out is None:
            return None
        if (bound := bound * height) >> (width - 1):
            bound = sum(sum(map(abs, _slots(v, width))) for _, v in out.values())
        if bound >> (width - 1):
            return BiPoly._raw(_unpack(out, width))
        return BiPoly._of_packed(out, width, bound)

    def div_exact(self, divisor):
        """Quotient self / (1 - T^a P^b) if the division is exact, else
        None: on the packed rows (`_div_packed`) while the polynomial has
        them, the quotient packed too unless its true l1 norm passes the
        slot width, else on its rows (`_div_binomial`), with T and P
        swapped when b = 0.  `reduced()` divides by nothing else; any other
        divisor is a ValueError.  `igusa_zeta`'s sums come from `planned_sum`
        with no b = 0 factor, so its divisions run on packed rows unless a
        quotient's true l1 norm passes the slot width."""
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        dterms = divisor.terms()
        if not (len(dterms) == 2 and dterms[0] == ((0, 0), 1) and dterms[1][1] == -1):
            raise ValueError(f"div_exact divides by 1 - T^a P^b only, not by {divisor!r}")
        ea, eb = dterms[1][0]
        if not eb:
            q = self._swapped()._div_binomial(eb, ea)
            return None if q is None else q._swapped()
        if self._packed is not None:
            return self._div_packed(ea, eb)
        return self._div_binomial(ea, eb)

    def subs_inverse_prime(self, p):
        """Coefficients of the T-polynomial obtained by setting P = 1/p.

        Returns a list indexed by T-degree: a Fraction where a term lands,
        else the int 0, whose truth test is cheap for the dense callers.
        """
        out = [0] * (self.t_degree() + 1)
        for j, row in self._row_terms():
            for t, c in row:
                out[t] += Fraction(c, p ** j)
        return out

    def __repr__(self):
        def power(x, e):
            return [] if e == 0 else [x if e == 1 else f"{x}^{e}"]

        return _signed_sum((c, "*".join(power("T", t) + power("P", p)))
                           for (t, p), c in self.terms())

    def to_json(self):
        return BiRationalFunction(self).to_json()["numerator"]

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
    """numerator / product of binomial factors, the denominator kept factored."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator, denominator=()):
        if not isinstance(numerator, BiPoly):
            raise TypeError("numerator must be a BiPoly")
        self.numerator = numerator
        self.denominator = tuple(sorted(_as_factor(f) for f in denominator))

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

        API only: the pipeline sums its cells with `planned_sum`, which
        keeps the same multiset and so reaches the same numerator."""
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
        """Cancel denominator factors against the numerator, one rule and
        one decision per factor.

        Write the factor as 1 - x^g, x = T^a0 P^b0 primitive.  Every step
        below (dividing by 1 - x^g, or exchanging it for 1 - x^m, m a proper
        divisor of g) needs the cyclotomic factor Phi_g(x) to divide the
        numerator N.  One screen that can prove it does not comes first,
        against the numerator as it came in: each step replaces N by a
        divisor of N, so a proof there still holds.  A proven factor stays
        with nothing more built; an unproven one goes on to the exact
        steps, so the screen cannot change an outcome.

        The screen (`_folds_nonzero`), for b0 >= 1 and g | q - 1, q the
        screen prime (g | q - 1 for every g <= 22): with N's P-degree rows
        evaluated at T = T0 mod q (`BiPoly._row_values`), set c = z T0^-a0,
        z of order g, and fold N(T0, P) modulo P^b0 - c.  In
        F_q[P]/(P^b0 - c) the image of x is T0^a0 c = z, a zero of Phi_g,
        so a nonzero fold proves Phi_g(x) does not divide N.  The fold is
        sum over p of N_p(T0) c^(p // b0) P^(p % b0), one class sum per
        residue of p mod b0: O(rows) per factor, and one call screens
        every factor that qualifies.  A zero fold decides nothing; nor is a
        factor with b0 = 0 or g not dividing q - 1 screened.

        The rule for a factor the screen does not keep: divide N by it
        (`div_exact`).  If that fails and g > 1, one pass sums N per chain
        (monomials differing by a power of x^g), keyed by the line
        b0*t - a0*p and t mod a (p mod b when a = 0); the division failed,
        so some sum is not 0 (as in `_chain_quotient`, 1 - x^g divides N
        iff every sum is).  The sums only find the exchange: 1 - x^m for
        the least proper divisor m of g whose shift x^m keeps every sum.
        The sums of N*(1 - x^m) are the differences, so that is when
        S = (1 - x^g)/(1 - x^m) divides N, and N*(1 - x^m) is divided by
        1 - x^g.  Such a shift maps one live sum onto an equal live sum on
        the same line, so the candidates for m are read off the sums, not
        off the divisors of g.  With no such m, or g = 1, the factor stays.
        One visit per factor is exact: each step replaces N by a divisor of
        N; factors along different x share no cyclotomic factor; and after
        the least exchange neither 1 - x^m nor a smaller exchange divides
        N/S, or 1 - x^g or a smaller S would divide N.

        A numerator still packed (`planned_sum`) stays packed to the end:
        the divisions and the exchange's multiply run on its packed rows,
        the chain sums read each packed row's (t, c) off its slots
        (`_row_terms`), with no row decoded, and it is returned packed.
        Only a quotient whose true l1 norm, or an exchange whose doubled
        bound, passes the slot width leaves the packed rows.
        Not canonical: equal functions can reduce to different shapes.
        """
        num, den = self.numerator, []
        lines = [((f.a // g, f.b // g), g)
                 for f in self.denominator for g in (gcd(f.a, f.b),)]
        stays = [False] * len(lines)
        screened = [k for k, ((_, b0), g) in enumerate(lines)
                    if b0 and (_SCREEN_PRIME - 1) % g == 0]
        if screened:
            for k, stay in zip(screened, _folds_nonzero(num, [lines[k] for k in screened])):
                stays[k] = stay
        for f, (x, g), stay in zip(self.denominator, lines, stays):
            q = None if stay else num.div_exact(f.poly())
            if q is None and not stay and g > 1:
                # not divided: the chain sums, read off the rows as they are,
                # find the least exchange m if there is one
                i = 0 if f.a else 1  # chains are told apart by exponent i mod f[i]
                sums: dict[tuple[int, int], int] = {}
                for p, row in num._row_terms():
                    line = -x[0] * p
                    for t, c in row:
                        key = (x[1] * t + line, (t, p)[i] % f[i])
                        sums[key] = sums.get(key, 0) + c
                # x^m adds m * x[i] to exponent i; a valid shift maps one
                # live class onto a live class of its line with the same
                # sum, so m is one of those offsets
                live = {k: s for k, s in sums.items() if s}
                (line0, r0), s0 = next(iter(live.items()))
                offsets = sorted((r - r0) // x[i] % g for (line, r), s in live.items()
                                 if line == line0 and s == s0)
                m = next((m for m in offsets if m and g % m == 0 and all(
                    live.get((line, (r + m * x[i]) % f[i])) == s
                    for (line, r), s in live.items())), None)
                if m is not None:
                    den.append(BinomialFactor(x[0] * m, x[1] * m))
                    q = num._mul_binomial(*den[-1]).div_exact(f.poly())
                    if q is None:
                        raise AssertionError(f"chain sums promised an exact division by {f}")
            if q is None:
                den.append(f)
            else:
                num = q
        return BiRationalFunction(num, den)

    def series(self, bound):
        """Power-series expansion truncated to total P-degree <= bound.

        Every denominator factor must carry a positive P-exponent, otherwise
        the truncation by P-degree would keep infinitely many terms.  The
        expansion Q of N / (1 - T^a P^b) solves Q = N + T^a P^b Q, the
        recurrence of `_chain_quotient` truncated at the bound instead of
        tested for exactness: on a copy of the numerator's P-degree rows,
        for e = b, ..., bound in increasing order, row e - b moved by T^a is
        added into row e.  Each factor costs one sweep over the rows it
        produces.
        """
        if bound < 0:
            return BiPoly.zero()
        rows = {p: dict(row) for p, row in self.numerator._row_terms(bound)}
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
        return self._json(self.numerator.terms())

    def _json(self, terms):
        """`to_json()` from the numerator's terms, already read (`terms()`)."""
        return {"numerator": [{"t": t, "p": p, "coeff": str(c)} for (t, p), c in terms],
                "denominator": [[f.a, f.b] for f in self.denominator]}

    @classmethod
    def from_json(cls, data):
        return cls(BiPoly.from_json(data["numerator"]),
                   [tuple(f) for f in data["denominator"]])


def packed_sum(cells, times=()):
    """The sum of the fractions N / prod(1 - T^a P^b) over the sequence of
    cells (keys, shift, factors), the numerator then multiplied by
    1 - T^a P^b for each (a, b) in times: `planned_sum`, each cell's l1
    norm read off its keys."""
    return planned_sum([(sum(map(abs, keys.values())), shift, factors)
                        for keys, shift, factors in cells],
                       [keys for keys, _, _ in cells], times)


def planned_sum(plan, keys, times=()):
    """The sum of the fractions N / prod(1 - T^a P^b) over the cells of the
    plan, each (l1, shift, factors), l1 the l1 norm of its N, over the least
    common multiset D of their factors as `BiRationalFunction.__add__`
    keeps it, the numerator then multiplied by 1 - T^a P^b for each (a, b)
    in times.  N's terms c T^t P^p come as keys {t + (p << shift): c},
    p >= 0 and 0 <= t < 2^(shift-1) (a cell's counted weight keys), one
    mapping per cell from the iterable keys, in plan order, packed with no
    term built (`_pack_keys`): row p is (t0, v), v its T-polynomial over
    T^t0 at T = 2^W, exact whatever the coefficients and read back if each
    is below 2^(W-1).  So W is the least of 32, 64, 128, ... with the l1
    bound B below 2^(W-1), B the sum over the cells of l1(N) 2^|D - factors|,
    doubled per factor in times, fixed from the plan before any keys are
    read: no slot is wider than B needs.  Each cell's keys are then packed
    before the next cell's are read, so a lazy iterable holds one cell's
    keys at a time.  `reduced()` gets the packed rows and B, and divides on
    them."""
    den = Counter()
    for _, _, factors in plan:
        den |= Counter(factors)
    order = sorted(den.elements())
    bound = sum(l1 << len(order) - len(factors) for l1, _, factors in plan) << len(times)
    width = 32 << (bound.bit_length() // 32).bit_length()
    # a cell holding m copies of f holds the first m of D's bits for f
    packed = [(_pack_keys(counted, shift, width),
               sum(((1 << k) - 1) << bisect_left(order, f) for f, k in Counter(factors).items()))
              for (_, shift, factors), counted in zip(plan, keys)]
    bits = {1 << i: f for i, f in enumerate(map(_as_factor, order))}
    rows = _tree_sum(packed, bits, width) if packed else {}
    for f in times:
        rows = _times_binomial(rows, _as_factor(f), width)
    return BiRationalFunction(BiPoly._of_packed(rows, width, bound), order)


def _tree_sum(cells, den, width):
    """The packed rows of the sum over the cells (rows, mask) of rows times
    1 - x_f for each bit f of den, {bit: factor}, that the mask lacks: a
    factor tree over the live bits, those not yet multiplied in.  Cells
    that agree on them are added, and the sum is lifted by the ones they
    lack.  Else the cells lacking F (the live bits none holds, else the one
    the fewest hold, counted in one pass over the masks) are summed over
    the other live bits and multiplied once by 1 - x_f for f in F, and the
    cells holding F are summed over the same bits and added.  The joins
    (F, held) run off a stack; the adds write into the cells' rows."""
    todo, done = [(cells, sum(den))], []
    while todo:
        node, live = todo.pop()
        if isinstance(node, int):  # the join at the bits node
            rows = done.pop(-1 - live)
            for f in _bits(node):
                rows = _times_binomial(rows, den[f], width)
            if live:
                _add_rows(rows, done.pop(), 0, 0, 1, width)
            done.append(rows)
            continue
        masks = Counter(mask & live for _, mask in node)
        if len(masks) == 1:
            rows = node[0][0]
            for more, _ in node[1:]:
                _add_rows(rows, more, 0, 0, 1, width)
            for f in _bits(live & ~node[0][1]):
                rows = _times_binomial(rows, den[f], width)
            done.append(rows)
            continue
        counts = Counter()
        for mask, k in masks.items():
            for f in _bits(mask):
                counts[f] += k
        # held by no cell, else by the fewest, never by all: two masks differ
        f = live & ~sum(counts) or min(_bits(live), key=counts.__getitem__)
        hold = [cell for cell in node if cell[1] & f]
        todo.append((f, bool(hold)))
        if hold:
            todo.append((hold, live ^ f))
        todo.append(([cell for cell in node if not cell[1] & f], live ^ f))
    return done.pop()


def _bits(mask):
    """The set bits of mask, each as a power of 2, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _add_rows(target, rows, a, b, sign, width):
    """target += sign * T^a P^b * rows, in place, row by row."""
    for p, (t, v) in rows.items():
        t += a
        if (old := target.get(p + b)) is None:
            target[p + b] = (t, v if sign > 0 else -v)
            continue
        t0, v0 = old
        if t0 <= t:
            v <<= width * (t - t0)
        else:
            t0, v0 = t, v0 << width * (t0 - t)
        target[p + b] = (t0, v0 + v if sign > 0 else v0 - v)


def _times_binomial(rows, f, width):
    """rows * (1 - T^a P^b), as new rows."""
    out = dict(rows)
    _add_rows(out, rows, f.a, f.b, -1, width)
    return out


def _chain_quotient(rows, a, b, add):
    """The exact quotient by 1 - T^a P^b, b > 0, of the rows
    {e: (offset, payload)}, as rows {e: (offset, payload)}, or None.

    Q = N + T^a P^b Q, solved one row at a time: quotient row e is
    numerator row e plus quotient row e - b moved by T^a, that is with its
    offset plus a.  add(offset, payload, row) is the sum of a quotient row
    and a numerator row in the caller's layout, its payload 0 or empty iff
    the sum is 0.  Rows b apart form a chain.  Between two numerator rows
    of a chain the quotient row only moves, so it is computed once per
    numerator row; the rows of a gap it covers are written only after the
    division is known to be exact, so a gap costs nothing unless the
    quotient fills it.  Exact iff the last quotient row of every chain is
    0; a nonzero one would repeat past the top."""
    out = {}
    gaps = []  # (row, offset, payload, next numerator row) where a row only moves
    last = None  # the latest nonzero quotient row, as (row, offset, payload)
    for e in sorted(rows, key=lambda e: (e % b, e)):
        if last is None:
            off, q = rows[e]
        elif (e - last[0]) % b:
            return None
        else:
            if e - last[0] > b:
                gaps.append((*last, e))
            off, q = add(last[1] + (e - last[0]) // b * a, last[2], rows[e])
        if q:
            out[e] = (off, q)
            last = (e, off, q)
        else:
            last = None
    if last is not None:
        return None
    for e0, off, q, end in gaps:
        for e in range(e0 + b, end, b):
            off += a
            out[e] = (off, q)
    return out


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


def _signed_sum(pieces, times="*"):
    """Print the pieces (c, m), each a coefficient c on the monomial text m
    ("" for 1), as "x + y - z": a term is |c| joined to m by times (c alone
    when m is "", m alone when |c| = 1), a negative first term takes a
    leading "-", and no pieces print "0"."""

    def term(c, m):
        if not m:
            return str(c)
        return m if c == 1 else f"{c}{times}{m}"

    text = "".join(f" {'-' if c < 0 else '+'} {term(abs(c), m)}" for c, m in pieces)
    if not text:
        return "0"
    return text[3:] if text[1] == "+" else "-" + text[3:]


def _by_p_degree(terms):
    """The rows {p: {t: c}} of the terms {(t, p): c}, one per P-degree, each
    in the order of the terms: the layout `BiPoly` stores.  Only input that
    arrives as terms is grouped here: the `BiPoly` constructor, so
    `from_json` too.  A cell comes into `planned_sum` as counted keys, never
    as terms."""
    rows: dict[int, dict[int, int]] = {}
    for (t, p), c in terms.items():
        row = rows.get(p)
        if row is None:
            rows[p] = {t: c}
        else:
            row[t] = c
    return rows


def _pack_keys(keys, shift, width):
    """The packed rows {p: (t0, v)} of the terms given as keys
    {t + (p << shift): c}, p >= 0, 0 <= t < 2^(shift-1), |c| < 2^(width-1).

    In key order a row is one run of keys, from p << shift up to below
    (p << shift) + 2^(shift-1), so sorting the keys groups them, and one
    bisection per row finds where its run ends.  Each c is written in two's
    complement into one word list for all the rows, its words 32 bits wide
    when W = 32 and 64 bits else, W/word to a slot; the list is packed into
    bytes once, and each row's run is read as one unsigned int X,
    little-endian both ways.  X is the row when no c is negative, as for a
    cell's point counts.  Else, with L = 2^(width-1) in every slot, X ^ L
    holds c + 2^(width-1) in each slot (flipping the top bit of a two's
    complement number adds 2^(width-1) to it), so no slot borrows, and
    X ^ L - L is the row."""
    half, word = 1 << (shift - 1), min(width, 64)
    k, mask, size = width // word, (1 << word) - 1, word // 8
    order = sorted(keys)
    words, runs = [], []  # runs: (p, t0, the row's bytes in the buffer)
    lo, end = 0, len(order)
    while lo < end:
        first = order[lo]
        p = (first + half) >> shift  # the rounding shift: t may read as negative
        if (t0 := first - (p << shift)) < 0 or p < 0:
            raise ValueError("negative exponent in a packed term")
        hi = bisect_left(order, (p << shift) + half, lo)
        base = (start := len(words)) - first * k  # key's first word is base + key * k
        words += [0] * ((order[hi - 1] - first + 1) * k)
        if k == 1:
            for key in order[lo:hi]:
                words[base + key] = keys[key] & mask
        else:
            for key in order[lo:hi]:
                i = base + key * k
                words[i:i + k] = (keys[key] >> s & mask for s in range(0, width, 64))
        runs.append((p, t0, start * size, len(words) * size))
        lo = hi
    buf = struct.pack(f"<{len(words)}{'I' if word == 32 else 'Q'}", *words)
    packed = {p: (t0, int.from_bytes(buf[a:b], "little")) for p, t0, a, b in runs}
    if min(keys.values(), default=0) < 0:
        for p, t0, a, b in runs:
            lift = _codec(width, (b - a) * 8 // width)[0]
            packed[p] = (t0, (packed[p][1] ^ lift) - lift)
    return packed


def _trimmed(t0, v, width):
    """The packed row (t0, v), v != 0, with its all-zero low slots shifted
    off: a cancellation leaves them, and every add or decode would carry
    them."""
    low = ((v & -v).bit_length() - 1) // width
    return t0 + low, v >> width * low


def _unpack(packed, width):
    """The rows {p: {t: c}} of the packed rows, each |c| < 2^(width-1), with
    no empty row and no zero coefficient: the layout `BiPoly` stores."""
    return {p: dict(_slot_terms(t0, v, width)) for p, (t0, v) in packed.items() if v}


def _slot_terms(t0, v, width):
    """The (t, c), c != 0, of the packed row (t0, v), v != 0, lowest t
    first, its slots read (`_slots`) on the first step, not before.  The
    row's all-zero low slots are shifted off first (`_trimmed`)."""
    t0, v = _trimmed(t0, v, width)
    yield from filter(itemgetter(1), enumerate(_slots(v, width), t0))


def _slots(v, width):
    """The coefficients in the slots of the packed row value v, lowest
    first, each |c| < 2^(width-1).  With L = 2^(width-1) in every slot,
    v + L has every slot in [0, 2^width), so no slot borrows, and
    (v + L) ^ L holds each slot's c in two's complement: its bytes, read a
    slot at a time as signed ints (`_codec`), are the coefficients."""
    n = abs(v).bit_length() // width + 1
    lift, unpack = _codec(width, n)
    return unpack(((v + lift) ^ lift).to_bytes(n * width // 8, "little"))


@lru_cache(maxsize=256)
def _codec(width, n):
    """(L, unpack) for n slots of this width: L = 2^(width-1) in every
    slot, and the reader of their little-endian bytes as n signed ints, one
    struct unpack of 32- or 64-bit words for W <= 64, else one signed
    int.from_bytes per slot."""
    lift = int.from_bytes((bytes(width // 8 - 1) + b"\x80") * n, "little")
    if width <= 64:
        return lift, struct.Struct(f"<{n}{'i' if width == 32 else 'q'}").unpack
    size = width // 8
    return lift, lambda data: [int.from_bytes(data[i:i + size], "little", signed=True)
                               for i in range(0, n * size, size)]


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


# The screen prime q = lcm(1, ..., 22) + 1 and a generator of its units:
# g | q - 1 for every g <= 22, and q < 2^30, so a packed row mod q takes
# CPython's one-digit remainder.
_SCREEN_PRIME = 232792561
_SCREEN_GENERATOR = 71


def _powers(base, exponents, q):
    """base^e mod q for the nondecreasing exponents e, each one step from
    the last: one multiply for a gap of 1, the most common, and the
    logarithm of any other gap."""
    out, w, prev = [], 1, 0
    for e in exponents:
        gap = e - prev
        w = w * (base if gap == 1 else pow(base, gap, q)) % q
        out.append(w)
        prev = e
    return out


def _folds_nonzero(poly, lines):
    """For each (x, g), x = (a0, b0) primitive with b0 >= 1 and g | q - 1:
    is the fold of the polynomial modulo (q, P^b0 - c) nonzero, a proof
    that Phi_g(T^a0 P^b0) does not divide it (`BiRationalFunction.reduced`)?

    With the rows' values N_p at T0 (`BiPoly._row_values`), z = s^((q-1)/g)
    of order g, s the generator, and c = z T0^-a0, the fold's class r is
    the sum of N_p c^(p // b0) over p = r mod b0, and the fold is nonzero
    iff some class is.  Each line takes one pass over the rows in
    increasing p, c^(p // b0) updated as p // b0 grows: one multiply for a
    step of 1, the most common.  A line met twice is folded once."""
    q = _SCREEN_PRIME
    t0, values = poly._row_values()
    rows = sorted(values.items())
    folds = {}
    for x, g in lines:
        if (x, g) in folds:
            continue
        (a0, b0), z = x, pow(_SCREEN_GENERATOR, (q - 1) // g, q)
        c = z * pow(t0, -a0, q) % q
        classes, w, k = {}, 1, 0  # w = c^k mod q, k = p // b0 for the rows read so far
        for p, value in rows:
            if (j := p // b0) != k:
                w, k = w * (c if j - k == 1 else pow(c, j - k, q)) % q, j
            classes[p % b0] = classes.get(p % b0, 0) + value * w
        folds[x, g] = any(s % q for s in classes.values())
    return [folds[line] for line in lines]


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
        return _signed_sum((c, "" if i == 0 else "T" if i == 1 else f"T^{i}")
                           for i, c in enumerate(coeffs) if c)

    def __repr__(self):
        num = self._poly_str(self.num)
        if self.den == (Fraction(1),):
            return num
        return f"({num})/({self._poly_str(self.den)})"

    def to_json(self):
        return {"num": [str(c) for c in self.num], "den": [str(c) for c in self.den]}
