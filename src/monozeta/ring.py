"""Exact arithmetic in Z[T, P] and for rational functions with binomial
denominators.

T and P are independent formal variables (in the zeta-function application
T stands for p^-s and P for 1/p).  A polynomial is a dict mapping exponent
pairs (t_deg, p_deg) to nonzero integer coefficients.  A rational function
keeps its denominator as a multiset of factors 1 - T^a P^b and is never
expanded, so the factored shape survives every operation.
"""

from __future__ import annotations

import heapq
from collections import Counter
from fractions import Fraction
from math import gcd
from typing import NamedTuple


class BiPoly:
    """Sparse polynomial in T and P with integer coefficients."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for (t, p), c in (terms.items() if isinstance(terms, dict) else terms):
                if t < 0 or p < 0:
                    raise ValueError("negative exponent in BiPoly term")
                c = int(c)
                if c:
                    key = (int(t), int(p))
                    c0 = clean.get(key, 0) + c
                    if c0:
                        clean[key] = c0
                    elif key in clean:
                        del clean[key]
        self._terms = dict(sorted(clean.items()))
        self._hash = None

    @classmethod
    def _raw(cls, clean: dict) -> "BiPoly":
        """Adopt a dict already known to be clean: int exponents >= 0 mapped
        to nonzero int coefficients.  Internal fast path; no validation."""
        out = object.__new__(cls)
        out._terms = clean
        out._hash = None
        return out

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(0, 0): 1})

    @classmethod
    def term(cls, t, p, coeff=1):
        return cls({(t, p): coeff})

    @classmethod
    def binomial(cls, a, b):
        """1 - T^a P^b."""
        return cls({(0, 0): 1, (a, b): -1})

    def terms(self):
        return tuple(sorted(self._terms.items()))

    def coeff(self, t, p):
        return self._terms.get((t, p), 0)

    def is_zero(self):
        return not self._terms

    def is_one(self):
        return self._terms == {(0, 0): 1}

    def p_degree(self):
        return max((p for _, p in self._terms), default=-1)

    def t_degree(self):
        return max((t for t, _ in self._terms), default=-1)

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        return isinstance(other, BiPoly) and self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(tuple(sorted(self._terms.items())))
        return self._hash

    def __neg__(self):
        return BiPoly._raw({k: -c for k, c in self._terms.items()})

    def __add__(self, other):
        out = dict(self._terms)
        for k, c in other._terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return BiPoly._raw(out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return BiPoly._raw({})
            return BiPoly._raw({k: c * other for k, c in self._terms.items()})
        out = {}
        for (t1, p1), c1 in self._terms.items():
            for (t2, p2), c2 in other._terms.items():
                k = (t1 + t2, p1 + p2)
                s = out.get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                else:
                    del out[k]
        return BiPoly._raw(out)

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

    def truncate_p(self, bound):
        """Drop every term of P-degree above bound."""
        return BiPoly._raw({k: c for k, c in self._terms.items() if k[1] <= bound})

    def subs_t_one(self):
        """Substitute T = 1, collapsing onto the P axis."""
        out: dict[tuple[int, int], int] = {}
        for (t, p), c in self._terms.items():
            k = (0, p)
            out[k] = out.get(k, 0) + c
        return BiPoly._raw({k: c for k, c in out.items() if c})

    def mul_truncated(self, other, bound):
        out = {}
        for (t1, p1), c1 in self._terms.items():
            if p1 > bound:
                continue
            for (t2, p2), c2 in other._terms.items():
                if p1 + p2 > bound:
                    continue
                k = (t1 + t2, p1 + p2)
                s = out.get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                else:
                    del out[k]
        return BiPoly._raw(out)

    def _div_binomial(self, a, b):
        """Exact quotient by 1 - T^a P^b, or None.

        Q = N + T^a P^b Q solved chain by chain: monomials congruent modulo
        (a, b) form a chain along which the quotient coefficient is the
        running sum of the numerator coefficients; exact iff every running
        sum ends at zero.  Linear in the terms of N and Q.
        """
        chains: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for (t, p), c in self._terms.items():
            if a and b:
                k = min(t // a, p // b)
            else:
                k = t // a if a else p // b
            chains.setdefault((t - k * a, p - k * b), []).append((k, c))
        out: dict[tuple[int, int], int] = {}
        for (rt, rp), items in chains.items():
            items.sort()
            s = 0
            prev = 0
            for k, c in items:
                if s:
                    for j in range(prev, k):
                        out[(rt + j * a, rp + j * b)] = s
                s += c
                prev = k
            if s:
                return None
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
        if len(divisor._terms) == 2 and divisor._terms.get((0, 0)) == 1:
            ((ea, eb),) = (m for m in divisor._terms if m != (0, 0))
            if divisor._terms[(ea, eb)] == -1:
                return self._div_binomial(ea, eb)

        def key(m):
            # negated graded-lex so heapq's min-heap pops the largest
            return (-(m[0] + m[1]), -m[0], -m[1])

        dlead = max(divisor._terms, key=lambda m: (m[0] + m[1], m[0], m[1]))
        dc = divisor._terms[dlead]
        rest = [(m, c) for m, c in divisor._terms.items() if m != dlead]
        work = dict(self._terms)
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
        return BiPoly._raw(quot) if not work else None

    def subs_inverse_prime(self, p):
        """Coefficients of the T-polynomial obtained by setting P = 1/p.

        Returns a list of Fractions indexed by T-degree.
        """
        deg = self.t_degree()
        out = [Fraction(0)] * (deg + 1)
        for (t, j), c in self._terms.items():
            out[t] += Fraction(c, p ** j)
        return out

    def __repr__(self):
        if not self._terms:
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
        return cls({(item["t"], item["p"]): int(item["coeff"]) for item in data})


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
    f = BinomialFactor(*f)
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

    @classmethod
    def from_poly(cls, poly):
        return cls(poly)

    def __eq__(self, other):
        return (isinstance(other, BiRationalFunction)
                and self.numerator == other.numerator
                and self.denominator == other.denominator)

    def __hash__(self):
        return hash((self.numerator, self.denominator))

    def __neg__(self):
        return BiRationalFunction(-self.numerator, self.denominator)

    def __add__(self, other):
        """Sum over the least common multiset of denominator factors."""
        mine = Counter(self.denominator)
        theirs = Counter(other.denominator)
        common = mine | theirs
        num = self.numerator * _product((common - mine).elements())
        num = num + other.numerator * _product((common - theirs).elements())
        return BiRationalFunction(num, common.elements())

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, BiPoly):
            return BiRationalFunction(self.numerator * other, self.denominator)
        if isinstance(other, int):
            return BiRationalFunction(self.numerator * other, self.denominator)
        return BiRationalFunction(self.numerator * other.numerator,
                                  self.denominator + other.denominator)

    __rmul__ = __mul__

    def reduced(self):
        """Cancel denominator factors against the numerator.

        Greedy: repeatedly removes the first factor that divides the
        numerator exactly.  A factor 1 - x^g (x a monomial, g = gcd of its
        exponents) is also replaced by 1 - x^m for a proper divisor m of g
        whenever the complementary quotient (1 - x^g)/(1 - x^m) divides the
        numerator.  The value of the function never changes, but the result
        is not canonical: equal functions can reduce to different shapes.
        """
        num = self.numerator
        den = list(self.denominator)
        changed = True
        while changed and den:
            changed = False
            for i, f in enumerate(den):
                q = num.div_exact(f.poly())
                if q is not None:
                    num = q
                    del den[i]
                    changed = True
                    break
                g = gcd(f.a, f.b)
                if g > 1:
                    base_a, base_b = f.a // g, f.b // g
                    for m in _divisors(g)[:-1]:
                        # num / ((1 - x^g)/(1 - x^m)), x = T^base_a P^base_b,
                        # by the binomial kernel alone
                        shifted = num * BiPoly.binomial(base_a * m, base_b * m)
                        q = shifted.div_exact(f.poly())
                        if q is not None:
                            num = q
                            den[i] = BinomialFactor(base_a * m, base_b * m)
                            changed = True
                            break
                    if changed:
                        break
        return BiRationalFunction(num, den)

    def series(self, bound):
        """Power-series expansion truncated to total P-degree <= bound.

        Every denominator factor must carry a positive P-exponent, otherwise
        the truncation by P-degree would keep infinitely many terms.
        """
        if bound < 0:
            return BiPoly.zero()
        acc = self.numerator.truncate_p(bound)
        for f in self.denominator:
            if f.b == 0:
                raise ValueError(f"factor {f} has no P part; cannot expand by P-degree")
            geom = BiPoly({(f.a * k, f.b * k): 1 for k in range(bound // f.b + 1)})
            acc = acc.mul_truncated(geom, bound)
        return acc

    def specialize(self, p):
        """Substitute P = 1/p for a prime p, giving a rational function in T."""
        if not _is_prime(p):
            raise ValueError(f"{p} is not a prime")
        num = self.numerator.subs_inverse_prime(p)
        den = [Fraction(1)]
        for f in self.denominator:
            factor = [Fraction(0)] * (f.a + 1)
            factor[0] = Fraction(1)
            factor[f.a] -= Fraction(1, p ** f.b)
            den = _uni_mul(den, factor)
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


def _product(factors):
    out = BiPoly.one()
    for f in factors:
        out = out * f.poly()
    return out


def _divisors(n):
    return sorted(d for d in range(1, n + 1) if n % d == 0)


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


def _uni_mul(f, g):
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def _uni_trim(f):
    while f and f[-1] == 0:
        f = f[:-1]
    return list(f)


def _uni_divmod(f, g):
    f = _uni_trim(f)
    g = _uni_trim(g)
    if not g:
        raise ZeroDivisionError
    q = [Fraction(0)] * max(0, len(f) - len(g) + 1)
    r = list(f)
    while len(r) >= len(g) and _uni_trim(r):
        r = _uni_trim(r)
        if len(r) < len(g):
            break
        c = r[-1] / g[-1]
        d = len(r) - len(g)
        q[d] = c
        for i, b in enumerate(g):
            r[i + d] -= c * b
        r = r[:-1]
    return _uni_trim(q), _uni_trim(r)


def _uni_gcd(f, g):
    f, g = _uni_trim(f), _uni_trim(g)
    while g:
        f, g = g, _uni_divmod(f, g)[1]
    if f:
        lead = f[-1]
        f = [a / lead for a in f]
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
        num = [a / scale for a in num]
        den = [a / scale for a in den]
        return cls(num, den)

    def __eq__(self, other):
        return (isinstance(other, UniRational)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def value_at(self, t):
        n = sum(c * Fraction(t) ** i for i, c in enumerate(self.num))
        d = sum(c * Fraction(t) ** i for i, c in enumerate(self.den))
        return n / d

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
