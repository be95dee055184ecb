"""Command line driver.

Subcommands:
  zeta      exact zeta function with pole real parts and order bounds
  newton    Newton polyhedron: vertices and facet inequalities
  fan       normal fan: cones by dimension with their minimizing vertices
  divisors  per-ray numerical data and candidate pole real parts
  bsroots   facet-induced Bernstein-Sato roots and the pole check
  verify    cross-check one ideal against the direct series expansion
  corpus    batch of random ideals run through the verification battery

Exit codes: 0 success, 1 verification failure, 2 input error, 3 internal
error (a failed internal consistency check or a runaway recursion).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from contextlib import nullcontext
from fractions import Fraction

from .fan import normal_fan
from .parse import parse_ideal
from .polyhedra import MonomialIdeal, newton_polyhedron
from .ring import BiPoly
from .roots import log_canonical_threshold, verify_pole_roots
from .zeta import divisor_data, igusa_zeta, latex_zeta, zeta_series


def _fmt_monomial(exponents, names) -> str:
    parts = []
    for name, e in zip(names, exponents):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) or "1"


def _fmt_ideal(ideal: MonomialIdeal, names) -> str:
    return ", ".join(_fmt_monomial(g, names) for g in ideal.generators)


def _load_ideal(args):
    if args.file is not None:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = args.ideal
    variables = None
    if args.vars is not None:
        variables = tuple(v.strip() for v in args.vars.split(",") if v.strip())
        if not variables:
            raise ValueError("--vars must list at least one variable name")
    return parse_ideal(text, variables)


def _emit_json(record, ideal, names) -> None:
    """Print the record, with the ideal and its variable names attached."""
    record["ideal"] = {
        "variables": list(names),
        "generators": [list(g) for g in ideal.generators],
    }
    print(json.dumps(record, sort_keys=True, indent=2))


def random_ideal(
    rng: random.Random, n: int, max_gens: int, max_exp: int
) -> MonomialIdeal:
    """Random proper monomial ideal for stress testing."""
    count = rng.randint(1, max_gens)
    gens = []
    while len(gens) < count:
        g = tuple(rng.randint(0, max_exp) for _ in range(n))
        if any(g):
            gens.append(g)
    return MonomialIdeal(n, gens)


def _cmd_zeta(args) -> int:
    ideal, names = _load_ideal(args)
    res = igusa_zeta(ideal)
    spec = res.zeta.specialize(args.prime) if args.prime is not None else None
    if args.json:
        record = res.to_json()
        record["latex"] = latex_zeta(res.zeta)
        if spec is not None:
            record["specialized"] = {"p": args.prime, **spec.to_json()}
        _emit_json(record, ideal, names)
        return 0
    print(f"ideal ({_fmt_ideal(ideal, names)}) in variables {', '.join(names)}")
    print(f"Z(T, P) = {res.zeta!r}")
    if res.poles:
        for rp, ob in res.poles:
            print(f"  pole real part {rp}, order <= {ob}")
    else:
        print("  no poles in s")
    if args.latex:
        print(latex_zeta(res.zeta))
    if spec is not None:
        print(f"Z at p = {args.prime}: {spec!r}")
    return 0


def _cmd_newton(args) -> int:
    ideal, names = _load_ideal(args)
    poly = newton_polyhedron(ideal)
    if args.json:
        _emit_json(poly.to_json(), ideal, names)
        return 0
    print(f"Newton polyhedron in R^{poly.n}")
    print("vertices:")
    for v in poly.vertices:
        print(f"  {v}")
    print("facets (<normal, x> >= offset):")
    for f in poly.facets:
        print(f"  {f.normal} . x >= {f.offset}")
    return 0


def _cmd_fan(args) -> int:
    ideal, names = _load_ideal(args)
    fan = normal_fan(newton_polyhedron(ideal))
    if args.json:
        _emit_json(fan.to_json(), ideal, names)
        return 0
    by_dim: dict[int, int] = {}
    for c in fan.cones:
        by_dim[c.dim] = by_dim.get(c.dim, 0) + 1
    counts = ", ".join(f"{by_dim[d]} of dim {d}" for d in sorted(by_dim))
    print(f"normal fan with {len(fan.cones)} cones ({counts})")
    for c in fan.cones:
        rays = "; ".join(str(r) for r in c.rays) or "origin"
        print(f"  dim {c.dim}: rays {rays}  vertex {c.vertex}")
    return 0


def _cmd_divisors(args) -> int:
    ideal, names = _load_ideal(args)
    data = divisor_data(ideal)
    if args.json:
        _emit_json({"divisors": [d.to_json() for d in data]}, ideal, names)
        return 0
    print("ray, k = coord sum - 1, a = vanishing order, candidate real part")
    for d in data:
        cand = d.candidate_real_part
        print(f"  {d.ray}  k={d.k}  a={d.a}  {'-' if cand is None else cand}")
    return 0


def _cmd_bsroots(args) -> int:
    ideal, names = _load_ideal(args)
    poly = newton_polyhedron(ideal)
    res = igusa_zeta(ideal)
    check = verify_pole_roots(res, poly)
    lct = log_canonical_threshold(poly)
    if args.json:
        record = check.to_json()
        record["lct"] = str(lct)
        _emit_json(record, ideal, names)
        return 0 if check.all_verified else 1
    print("facet roots:")
    for fr in check.roots:
        print(f"  {fr.root}  from facet {fr.facet.normal} . x >= {fr.facet.offset}")
    print(f"log canonical threshold: {lct}")
    for w in check.witnesses:
        status = "matched" if w.verified else "UNMATCHED"
        facets = ", ".join(str(f.normal) for f in w.facets)
        print(f"  pole {w.real_part} (order <= {w.order_bound}): {status} {facets}")
    if not check.witnesses:
        print("  no poles to check")
    return 0 if check.all_verified else 1


# the direct expansion counts every lattice point of coordinate sum <= bound:
# --ideal x,y,z --bound 150 (585,276 points) took 0.15-0.23 s, the whole
# verify 0.3-0.5 s; the n = 5 ideal of CI at --bound 38 (962,598 points)
# 0.31-0.53 s, the whole verify 1.05-1.35 s (2 vCPU, Python 3.11)
_MAX_SERIES_POINTS = 10**6


def _check_series_bound(bound, n):
    """Refuse a bound whose direct expansion in n variables walks more than
    `_MAX_SERIES_POINTS` lattice points, C(bound + n, n) of them.  The
    product stops once past the limit, so a huge bound costs nothing."""
    points, top = 1, max(bound, n)
    for k in range(1, min(bound, n) + 1):
        points = points * (top + k) // k  # C(top + k, k)
        if points > _MAX_SERIES_POINTS:
            raise ValueError(f"--bound {bound} with n = {n} variables: the direct "
                             f"expansion walks C(bound + n, n) >= {points} lattice "
                             f"points; the limit is {_MAX_SERIES_POINTS}")


def _battery(ideal, res, bound):
    """The checks verify and corpus share, with the series and the Newton
    polyhedron they were read from: the fan route's series against the
    direct expansion, every pole among the divisor candidates, and a facet
    root for every pole."""
    via = res.zeta.series(bound)
    poly = newton_polyhedron(ideal)
    cand = {rp for rp, _ in res.candidate_poles}
    checks = {
        "series": zeta_series(ideal, bound) == via,
        "candidates": all(rp in cand for rp, _ in res.poles),
        "facet_roots": verify_pole_roots(res, poly).all_verified,
    }
    return via, poly, checks


def _cmd_verify(args) -> int:
    if args.bound < 0:
        raise ValueError("--bound must be >= 0")
    ideal, names = _load_ideal(args)
    bound = args.bound
    _check_series_bound(bound, ideal.n)
    res = igusa_zeta(ideal)
    via, _, ok = _battery(ideal, res, bound)
    checks: list[tuple[str, bool, str]] = [
        ("series match", ok["series"],
         f"direct sum vs fan route, P-degree <= {bound}"),
        ("normalization at T = 1", via.subs_t_one() == BiPoly.one(),
         "series collapses to 1"),
        ("poles among divisor candidates", ok["candidates"],
         f"{len(res.poles)} pole(s)"),
        ("poles are facet roots", ok["facet_roots"], "witness facet per pole"),
    ]
    if args.prime is not None:
        spec = res.zeta.specialize(args.prime)
        max_b = max((f.b for f in res.zeta.denominator), default=0)
        if max_b == 0:
            t_max = res.zeta.numerator.t_degree()
        else:
            t_max = (bound - res.zeta.numerator.p_degree()) // max_b
        name = f"specialization at p = {args.prime}"
        if t_max < 0:  # no T-coefficient is fixed yet: skipped, not failed
            checks.append((name, None, f"needs --bound >= {res.zeta.numerator.p_degree()}"))
        else:
            per_t = list(via.subs_inverse_prime(args.prime))
            per_t += [Fraction(0)] * (t_max + 1 - len(per_t))
            checks.append((name, per_t[: t_max + 1] == spec.series_coeffs(t_max + 1),
                           f"Taylor coefficients to T-degree {t_max}"))

    failed = False
    for name, ok, detail in checks:
        print(f"{'SKIP' if ok is None else 'PASS' if ok else 'FAIL'}  {name}: {detail}")
        failed = failed or ok is False
    return 1 if failed else 0


def _cmd_corpus(args) -> int:
    if (min(args.count, args.bound) < 0
            or min(args.max_vars, args.max_gens, args.max_exp) < 1):
        raise ValueError("--count must be >= 0, --bound must be >= 0 and --max-vars, "
                         "--max-gens, --max-exp must be >= 1")
    _check_series_bound(args.bound, args.max_vars)
    rng = random.Random(args.seed)
    failures = 0
    attained = 0
    with (nullcontext(sys.stdout) if args.out == "-"
          else open(args.out, "w", encoding="utf-8")) as out:
        for i in range(args.count):
            n = rng.randint(1, args.max_vars)
            ideal = random_ideal(rng, n, args.max_gens, args.max_exp)
            res = igusa_zeta(ideal)
            _, poly, checks = _battery(ideal, res, args.bound)
            lct = log_canonical_threshold(poly)
            largest = max((rp for rp, _ in res.poles), default=None)
            is_attained = largest == -lct
            if not all(checks.values()):
                failures += 1
            if is_attained:
                attained += 1
            record = {
                "index": i,
                "n": n,
                "generators": [list(g) for g in ideal.generators],
                "zeta": res.zeta.to_json(),
                "poles": [
                    {"real_part": str(rp), "order_bound": ob} for rp, ob in res.poles
                ],
                "lct": str(lct),
                "lct_attained": is_attained,
                "checks": checks,
            }
            out.write(json.dumps(record, sort_keys=True) + "\n")
    print(
        f"{args.count} ideals: {failures} failed checks, "
        f"largest pole equals -lct in {attained}/{args.count}",
        file=sys.stderr,
    )
    return 1 if failures else 0


def _build_parser() -> argparse.ArgumentParser:
    src = argparse.ArgumentParser(add_help=False)
    group = src.add_mutually_exclusive_group(required=True)
    group.add_argument("--ideal", help="generators, e.g. 'x^2*y, y^3'")
    group.add_argument("--file", help="read the generators from this file")
    src.add_argument("--vars", help="comma separated variable order")

    jsn = argparse.ArgumentParser(add_help=False)
    jsn.add_argument("--json", action="store_true", help="machine readable output")

    top = argparse.ArgumentParser(
        prog="monozeta",
        description="Exact Igusa zeta functions of monomial ideals.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("zeta", parents=[src, jsn], help="compute the zeta function")
    p.add_argument("--prime", type=int, help="also specialize at this prime")
    p.add_argument("--latex", action="store_true", help="print a LaTeX rendering")
    p.set_defaults(func=_cmd_zeta)

    p = sub.add_parser("newton", parents=[src, jsn], help="Newton polyhedron")
    p.set_defaults(func=_cmd_newton)

    p = sub.add_parser("fan", parents=[src, jsn], help="normal fan")
    p.set_defaults(func=_cmd_fan)

    p = sub.add_parser("divisors", parents=[src, jsn], help="per-ray numerical data")
    p.set_defaults(func=_cmd_divisors)

    p = sub.add_parser(
        "bsroots", parents=[src, jsn], help="facet roots and pole containment"
    )
    p.set_defaults(func=_cmd_bsroots)

    p = sub.add_parser("verify", parents=[src], help="cross-check one ideal")
    p.add_argument("--bound", type=int, default=8, help="series P-degree bound")
    p.add_argument("--prime", type=int, help="also check a prime specialization")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("corpus", help="random ideals through the full battery")
    p.add_argument("--count", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-vars", type=int, default=3)
    p.add_argument("--max-gens", type=int, default=4)
    p.add_argument("--max-exp", type=int, default=4)
    p.add_argument("--bound", type=int, default=6, help="series P-degree bound")
    p.add_argument("--out", default="-", help="JSONL output path, - for stdout")
    p.set_defaults(func=_cmd_corpus)

    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # exact coefficients can run past the interpreter's int-to-str digit
    # limit (4,300 digits by default): lift it for the command, and restore it
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, RecursionError) as exc:
        # a broken internal invariant or a runaway recursion: a message, not
        # a traceback
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
