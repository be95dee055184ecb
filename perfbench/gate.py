"""Correctness gate that does not go through the fan route.

`check` tests one zeta result against oracles written here, from the ideal
alone: the defining sum expanded directly to a fixed P-degree, the value 1 at
T = 1 (the integral of 1 over Z_p^n) as an exact identity at every degree, the
Newton polyhedron's facets as pole witnesses, and the divisor candidates.  It reads
the result only through its public fields and `to_json()`.

`digest` hashes a result's `to_json()` in the pool ideal's own variable
labels, so it can be compared with the digests frozen in `digests.json`.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction

from monozeta import newton_polyhedron

SERIES_BOUND = 8  # P-degree of the series oracle
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def _mul_truncated(f: dict, g: dict, bound: int) -> dict:
    out: dict = {}
    for (t1, p1), c1 in f.items():
        for (t2, p2), c2 in g.items():
            if p1 + p2 <= bound:
                k = (t1 + t2, p1 + p2)
                out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def direct_series(generators, n: int, bound: int) -> dict:
    """(1 - P)^n * sum of T^ord(a) P^|a| over a in N^n with |a| <= bound."""
    raw: dict = {}
    stack = [((), bound)]
    while stack:
        point, left = stack.pop()
        if len(point) == n:
            key = (min(sum(g * x for g, x in zip(gen, point)) for gen in generators),
                   sum(point))
            raw[key] = raw.get(key, 0) + 1
            continue
        for v in range(left + 1):
            stack.append((point + (v,), left - v))
    one_minus_p = {(0, 0): 1, (0, 1): -1}
    for _ in range(n):
        raw = _mul_truncated(raw, one_minus_p, bound)
    return raw


def rational_series(zeta_json: dict, bound: int) -> dict:
    """Expand numerator / prod(1 - T^a P^b) to P-degree <= bound."""
    acc = {(m["t"], m["p"]): int(m["coeff"])
           for m in zeta_json["numerator"] if m["p"] <= bound}
    for a, b in zeta_json["denominator"]:
        if b <= 0:
            raise ValueError(f"denominator factor ({a}, {b}) has no P part")
        geom = {(a * k, b * k): 1 for k in range(bound // b + 1)}
        acc = _mul_truncated(acc, geom, bound)
    return acc


def is_one_at_t_one(zeta_json: dict) -> bool:
    """numerator(1, P) == prod(1 - P^b): Z(1, P) = 1 exactly."""
    num: dict = {}
    for m in zeta_json["numerator"]:
        num[m["p"]] = num.get(m["p"], 0) + int(m["coeff"])
    den = {0: 1}
    for _, b in zeta_json["denominator"]:
        nxt = dict(den)
        for p, c in den.items():
            nxt[p + b] = nxt.get(p + b, 0) - c
        den = nxt
    return ({p: c for p, c in num.items() if c}
            == {p: c for p, c in den.items() if c})


def check(ideal, result) -> list[str]:
    """Reasons the result is wrong for the ideal; empty when it passes."""
    problems = []
    zeta_json = result.zeta.to_json()
    try:
        series = rational_series(zeta_json, SERIES_BOUND)
    except ValueError as err:
        problems.append(f"series: {err}")
    else:
        if series != direct_series(ideal.generators, ideal.n, SERIES_BOUND):
            problems.append(f"series: differs from the direct sum to P^{SERIES_BOUND}")
    if not is_one_at_t_one(zeta_json):
        problems.append("value at T = 1 is not 1")

    # every ray of the normal fan is a facet normal of the Newton polyhedron,
    # and its candidate real part is -(coordinate sum)/offset
    poly = newton_polyhedron(ideal)
    expected: dict = {}
    for f in poly.facets:
        if f.offset > 0:
            expected.setdefault(Fraction(-sum(f.normal), f.offset), set()).add(f.normal)
    candidates = {rp: set(rays) for rp, rays in result.candidate_poles}
    if candidates != expected:
        problems.append("candidate_poles: differ from the facet roots")
    for rp, order in result.poles:
        if rp not in expected:
            problems.append(f"pole {rp}: no witness facet")
        if not 1 <= order <= ideal.n:
            problems.append(f"pole {rp}: order bound {order} outside 1..{ideal.n}")
    return problems


def canonical_json(instance, result) -> dict:
    """The result's to_json() with every ray mapped back to pool labels."""
    data = result.to_json()
    back = instance.unpermute
    for d in data["divisors"]:
        d["ray"] = list(back(d["ray"]))
    data["divisors"].sort(key=lambda d: d["ray"])
    for c in data["candidate_poles"]:
        c["rays"] = sorted(list(back(r)) for r in c["rays"])
    return data


def digest(instance, result) -> str:
    text = json.dumps(canonical_json(instance, result), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def frozen_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)
