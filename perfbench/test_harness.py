"""Self-test of the benchmark harness on tiny workloads.

    python3 -m pytest -q perfbench/test_harness.py
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

from bench_path import ROOT, use_checkout_sources

use_checkout_sources()

import gate  # noqa: E402
import monozeta  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from monozeta import conegf, zeta  # noqa: E402
from monozeta.ring import BiPoly, BiRationalFunction  # noqa: E402

TINY = {"corpus": 5, "wide": 2, "deep": 1}

# every metric the benchmark reports, in BENCHMARK.json or run.DROPPED
NAMED_END_TO_END = ["total_s", "zeta_p50_s", "zeta_p80_s", "verify_s",
                    "num_terms", "failed_frac", "peak_rss_mb", "setup_s"]
NAMED_PER_LAYER = [
    "polyhedra.newton_s", "polyhedra.vertices", "polyhedra.facets",
    "dd.extreme_rays_s", "dd.extreme_rays_calls", "fan.normal_fan_s",
    "fan.cones", "fan.maximal_cones", "fan.triangulate_s",
    "fan.triangulate_calls", "fan.cells", "linalg.calls", "linalg.s",
    "conegf.lattice_gf_calls", "conegf.lattice_gf_self_s",
    "conegf.parallelepiped_s", "conegf.points", "ring.reduced_s",
    "ring.terms_before", "ring.terms_after", "ring.den_before",
    "ring.den_after", "ring.div_exact_calls", "ring.div_exact_hits",
    "ring.div_exact_hit_ratio", "ring.add_s", "ring.add_calls",
    "zeta.assembly_self_s", "zeta.series_oracle_s", "ring.series_s",
    "roots.verify_s", "trace.overhead_frac", "zeta.json_changed",
]


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def records():
    out = {}
    for name, size in TINY.items():
        for trace in (False, True):
            out[name, trace] = run.measure(name, 3, 0, trace, size=size, min_passes=1)
    return out


def test_tiny_runs_pass_and_report_every_metric(records):
    spec = _spec()
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    for (name, trace), rec in records.items():
        assert rec["failed"] == 0, rec["failures"]
        assert rec["attempted"] == TINY[name]
        assert rec["zeta.json_changed"] == 0
        assert not rec.get("trace.missing")
        for m in spec["per_layer" if trace else "end_to_end"]:
            assert m["unit"] and m["name"] in rec, (name, m)
    for metric in NAMED_END_TO_END + NAMED_PER_LAYER:
        assert metric in declared or metric in run.DROPPED, metric


def test_self_times_fit_in_wall_time(records):
    for name in TINY:
        rec = records[name, True]
        assert rec["trace.self_sum_s"] <= rec["trace.igusa_zeta_s"] * (1 + 1e-9)
        assert rec["trace.igusa_zeta_s"] <= rec["measured_s"]
        layers = ("polyhedra.newton_s", "fan.normal_fan_s", "fan.triangulate_s",
                  "conegf.lattice_gf_self_s", "conegf.parallelepiped_s",
                  "ring.reduced_s", "zeta.assembly_self_s")
        assert sum(rec[k] for k in layers) <= rec["trace.igusa_zeta_s"]


def test_counts_repeat_exactly():
    a = run.measure("wide", 5, 0, True, size=2, min_passes=2)
    b = run.measure("wide", 5, 0, True, size=2, min_passes=1)
    assert "counts_varied" not in a
    for key in ("conegf.points", "fan.cones", "ring.div_exact_calls", "ring.terms_after"):
        assert a[key] == b[key] > 0


def test_tracer_restores_the_package():
    before = (zeta.lattice_gf, conegf.solve, monozeta.igusa_zeta,
              BiRationalFunction.__dict__["reduced"], BiPoly.__dict__["div_exact"])
    run.measure("wide", 1, 0, True, size=1, min_passes=1)
    after = (zeta.lattice_gf, conegf.solve, monozeta.igusa_zeta,
             BiRationalFunction.__dict__["reduced"], BiPoly.__dict__["div_exact"])
    assert before == after


def test_generator_is_seeded_and_answer_invariant():
    a = workloads.generate("corpus", 7, 6)
    assert a == workloads.generate("corpus", 7, 6)
    b = workloads.generate("corpus", 8, 6)
    assert [i.ideal for i in a] != [i.ideal for i in b]
    by_index = {i.index: i for i in b}
    for inst in a:
        other = by_index[inst.index]
        assert (gate.digest(inst, monozeta.igusa_zeta(inst.ideal))
                == gate.digest(other, monozeta.igusa_zeta(other.ideal)))
    # the acceptance battery's corpus: its first ideal under that draw rule
    assert workloads.pool("corpus", 1)[0].generators == ((2, 5, 3, 1), (3, 2, 0, 5), (5, 2, 3, 2))


def _wrong_results(ideal):
    good = monozeta.igusa_zeta(ideal)
    num = good.zeta.numerator + BiPoly.term(0, 1)
    yield dataclasses.replace(good, zeta=BiRationalFunction(num, good.zeta.denominator))
    # beyond the series oracle's P-degree: only the value at T = 1 sees it
    num = good.zeta.numerator + BiPoly.term(2, gate.SERIES_BOUND + 1)
    yield dataclasses.replace(good, zeta=BiRationalFunction(num, good.zeta.denominator))
    yield dataclasses.replace(good, poles=good.poles + ((good.poles[0][0] - 1, 1),))
    yield dataclasses.replace(good, candidate_poles=good.candidate_poles[1:])


def test_gate_catches_wrong_results():
    ideal = monozeta.MonomialIdeal(2, [(3, 0), (1, 1), (0, 3)])
    assert gate.check(ideal, monozeta.igusa_zeta(ideal)) == []
    for wrong in _wrong_results(ideal):
        assert gate.check(ideal, wrong)


def test_run_counts_wrong_and_raising_ideals(monkeypatch, capsys):
    real = monozeta.igusa_zeta
    instances = workloads.generate("corpus", 2, 3)
    bad, boom = instances[0].ideal, instances[1].ideal

    def faulty(ideal):
        if ideal == boom:
            raise RuntimeError("injected")
        res = real(ideal)
        if ideal == bad:
            num = res.zeta.numerator + BiPoly.term(0, 1)
            res = dataclasses.replace(res, zeta=BiRationalFunction(num, res.zeta.denominator))
        return res

    monkeypatch.setattr(monozeta, "igusa_zeta", faulty)
    rec = run.measure("corpus", 2, 0, False, size=3, min_passes=1)
    assert (rec["attempted"], rec["failed"]) == (3, 2)
    monkeypatch.setattr(run, "measure", lambda *a, **k: rec)
    assert run.main(["--workload", "corpus", "--seed", "2", "--seconds", "0"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == 2


def test_fails_without_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
