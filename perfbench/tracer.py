"""Spans around the calls into monozeta's modules, recorded from outside.

Modules import by name (`from .conegf import lattice_gf`), so a function is
wrapped in the namespace that looks it up, not where it is defined: the
pipeline's calls go through `monozeta.zeta.lattice_gf`, `monozeta.conegf.solve`
and so on.  Methods are wrapped on their class.  Calls inside a module (such
as `linalg` calling itself, or `triangulate` recursing) are not wrapped, so a
span is one call across a module boundary.

Counts come from the arguments and return values of the wrapped calls
(polyhedron, fan, cell lists, parallelepiped points, the inputs and outputs
of `reduced()`), never from inside the package.
"""

from __future__ import annotations

import gzip
import os
from collections import Counter
from time import perf_counter_ns

import monozeta
from monozeta import conegf, dd, fan, polyhedra, zeta
from monozeta.ring import BiPoly, BiRationalFunction

LINALG = ("rank", "det", "det_int", "invert", "solve", "row_hnf",
          "saturation_basis", "left_kernel_basis")


def _n_terms(poly: BiPoly) -> int:
    # the term dict itself: terms() would sort, which is work the trace adds
    return len(poly._terms)


def _count_newton(c, args, out):
    c["polyhedra.vertices"] += len(out.vertices)
    c["polyhedra.facets"] += len(out.facets)


def _count_fan(c, args, out):
    c["fan.cones"] += len(out.cones)
    c["fan.maximal_cones"] += len(out.maximal_cones())


def _count_cells(c, args, out):
    c["fan.cells"] += len(out)


def _count_points(c, args, out):
    c["conegf.points"] += len(out)


def _count_reduced(c, args, out):
    (rf,) = args
    c["ring.terms_before"] += _n_terms(rf.numerator)
    c["ring.terms_after"] += _n_terms(out.numerator)
    c["ring.den_before"] += len(rf.denominator)
    c["ring.den_after"] += len(out.denominator)


def _count_div(c, args, out):
    c["ring.div_exact_hits"] += out is not None


COUNTS = ("polyhedra.vertices", "polyhedra.facets", "fan.cones",
          "fan.maximal_cones", "fan.cells", "conegf.points", "ring.terms_before",
          "ring.terms_after", "ring.den_before", "ring.den_after",
          "ring.div_exact_hits")

# (owner, attribute, span name, count hook); owner is a module or a class
TARGETS = [
    (monozeta, "igusa_zeta", "zeta.igusa_zeta", None),
    (zeta, "newton_polyhedron", "polyhedra.newton_polyhedron", _count_newton),
    (polyhedra, "facet_normals", "dd.extreme_rays", None),
    (fan, "extreme_rays", "dd.extreme_rays", None),
    (zeta, "normal_fan", "fan.normal_fan", _count_fan),
    (conegf, "triangulate", "fan.triangulate", _count_cells),
    (zeta, "lattice_gf", "conegf.lattice_gf", None),
    (conegf, "parallelepiped_points", "conegf.parallelepiped_points", _count_points),
    (BiRationalFunction, "reduced", "ring.reduced", _count_reduced),
    (BiPoly, "div_exact", "ring.div_exact", _count_div),
    (BiRationalFunction, "__add__", "ring.add", None),
    (BiRationalFunction, "series", "ring.series", None),
    (monozeta, "zeta_series", "zeta.zeta_series", None),
    (monozeta, "verify_pole_roots", "roots.verify_pole_roots", None),
    (monozeta, "log_canonical_threshold", "roots.log_canonical_threshold", None),
] + [
    (mod, name, "linalg." + name, None)
    for mod in (polyhedra, dd, fan, conegf)
    for name in LINALG
    if hasattr(mod, name)
]


class Tracer:
    """Records spans (name, start, end, parent) and counts while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int]] = []  # name id, t0, t1, parent
        self.counts: Counter = Counter()
        self.done: list[tuple[str, list]] = []
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        # targets the package no longer has; their metrics read 0
        self.missing = sorted(f"{getattr(o, '__name__', o)}.{a}"
                              for o, a, _, _ in TARGETS if a not in o.__dict__)

    def _wrap(self, fn, name, hook):
        name_id = self._ids.setdefault(name, len(self._ids))
        if name_id == len(self.names):
            self.names.append(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[idx] = (name_id, t0, t1, parent)
            if hook is not None:
                hook(counts, args, out)
            return out

        return traced

    def __enter__(self):
        for owner, attr, name, hook in TARGETS:
            fn = owner.__dict__.get(attr)
            if fn is None:
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, hook))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
        return False

    def layers(self) -> dict[str, float]:
        """Per-layer times and counts from the spans recorded so far.

        Pipeline layers count only spans under a `zeta.igusa_zeta` call; the
        check battery's spans are roots of their own.  Self time is a span's
        duration minus the time its direct children cover.
        """
        igusa = self._ids.get("zeta.igusa_zeta")
        dur = [t1 - t0 for _, t0, t1, _ in self.spans]
        child = [0] * len(self.spans)
        root = [0] * len(self.spans)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[i]
                root[i] = root[parent]
            else:
                root[i] = i
        incl: Counter = Counter()
        self_t: Counter = Counter()
        calls: Counter = Counter()
        for i, (name_id, _, _, _) in enumerate(self.spans):
            name = self.names[name_id]
            if self.spans[root[i]][0] == igusa:
                incl[name] += dur[i]
                self_t[name] += dur[i] - child[i]
                calls[name] += 1
            elif root[i] == i:
                incl["battery." + name] += dur[i]
        s = 1e-9
        linalg = [n for n in incl if n.startswith("linalg.")]
        out = {
            "polyhedra.newton_s": incl["polyhedra.newton_polyhedron"] * s,
            "dd.extreme_rays_s": incl["dd.extreme_rays"] * s,
            "dd.extreme_rays_calls": calls["dd.extreme_rays"],
            "fan.normal_fan_s": incl["fan.normal_fan"] * s,
            "fan.triangulate_s": incl["fan.triangulate"] * s,
            "fan.triangulate_calls": calls["fan.triangulate"],
            "linalg.calls": sum(calls[n] for n in linalg),
            "linalg.s": sum(incl[n] for n in linalg) * s,
            "conegf.lattice_gf_calls": calls["conegf.lattice_gf"],
            "conegf.lattice_gf_self_s": self_t["conegf.lattice_gf"] * s,
            "conegf.parallelepiped_s": incl["conegf.parallelepiped_points"] * s,
            "ring.reduced_s": incl["ring.reduced"] * s,
            "ring.div_exact_calls": calls["ring.div_exact"],
            "ring.add_s": incl["ring.add"] * s,
            "ring.add_calls": calls["ring.add"],
            "zeta.assembly_self_s": self_t["zeta.igusa_zeta"] * s,
            "zeta.series_oracle_s": incl["battery.zeta.zeta_series"] * s,
            "ring.series_s": incl["battery.ring.series"] * s,
            "roots.verify_s": (incl["battery.roots.verify_pole_roots"]
                               + incl["battery.roots.log_canonical_threshold"]) * s,
            "trace.igusa_zeta_s": incl["zeta.igusa_zeta"] * s,
            "trace.self_sum_s": sum(self_t.values()) * s,
        }
        out.update((k, self.counts[k]) for k in COUNTS)
        calls_div = out["ring.div_exact_calls"]
        out["ring.div_exact_hit_ratio"] = (
            out["ring.div_exact_hits"] / calls_div if calls_div else 0.0)
        return out

    def end_pass(self, label: str) -> dict[str, float]:
        """Per-layer metrics of the pass just run; its spans are kept for
        `write` and the recorder starts empty for the next pass."""
        out = self.layers()
        self.done.append((label, self.spans[:]))
        self.spans.clear()
        self.counts.clear()
        return out

    def write(self, path: str):
        """Write every finished pass's spans as a gzip CSV, times in ns."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("pass,span,name,start_ns,end_ns,parent\n")
            for label, spans in self.done:
                for i, (name_id, t0, t1, parent) in enumerate(spans):
                    fh.write(f"{label},{i},{self.names[name_id]},{t0},{t1},{parent}\n")
