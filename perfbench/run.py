"""Outside-in benchmark of monozeta: seeded ideal workloads through the public
API, checked against oracles that do not use the fan route.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

One caller, one thread, one ideal at a time (a closed loop), as
`monozeta zeta` and `monozeta corpus` are used.  A run repeats passes over the
workload (each pass: `igusa_zeta` on every ideal, each followed by the check
battery on its result) for about `--seconds`, at least three passes, and
takes each ideal's fastest time over the passes.  With `--trace 0` it prints
the end-to-end metrics named in BENCHMARK.json; with `--trace 1` it alternates
untraced and traced passes and prints the per-layer metrics.  The last line of standard output is
one JSON object; the exit code is 1 when any check fails.  Per-run records
and the traced spans are written under `.perfbench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

from bench_path import OUT, ROOT, use_checkout_sources

use_checkout_sources()

import monozeta  # noqa: E402
import gate  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PASSES = 3
SETUP_PER_PASS = 2
BATTERY_REPEATS = 5
BATTERY_BOUND = 8  # P-degree bound of the battery's series check, as `verify`

# Metrics reported that BENCHMARK.json cannot carry; printed only.
DROPPED = {
    "zeta_p80_s": "needs >= 10 ideals beyond p80, i.e. >= 50 ideals; only "
                  "corpus has that, and an end-to-end metric in "
                  "BENCHMARK.json must exist on every workload it lists",
    "failed_frac": "0 on a correct program, and end-to-end metrics must never "
                   "be 0; the JSON's failed/attempted carry it",
}


def check_battery(ideal, res):
    """The checks `monozeta verify`/`corpus` run on one result."""
    if isinstance(res, Exception):
        return False
    try:
        series_ok = (monozeta.zeta_series(ideal, BATTERY_BOUND)
                     == res.zeta.series(BATTERY_BOUND))
        poly = monozeta.newton_polyhedron(ideal)
        roots_ok = monozeta.verify_pole_roots(res, poly).all_verified
        cand = {rp for rp, _ in res.candidate_poles}
        cand_ok = all(rp in cand for rp, _ in res.poles)
        monozeta.log_canonical_threshold(poly)
    except Exception:  # a failed check, not a failed run
        return False
    return series_ok and roots_ok and cand_ok


def one_pass(instances, repeats):
    """igusa_zeta on every ideal, each followed by the check battery on its
    result.  An exception is kept as the result.  The battery is short, so it
    runs `repeats` times to sample more of the machine's timing noise.

    Returns per-ideal zeta seconds, results, battery seconds (a list per
    ideal) and battery pass/fail."""
    zeta_t, results, check_t, ok = [], [], [], []
    for inst in instances:
        t0 = perf_counter()
        try:
            res = monozeta.igusa_zeta(inst.ideal)
        except Exception as err:  # a failed ideal, not a failed run
            res = err
        zeta_t.append(perf_counter() - t0)
        results.append(res)
        samples = []
        for _ in range(repeats):
            t0 = perf_counter()
            passed = check_battery(inst.ideal, res)
            samples.append(perf_counter() - t0)
        check_t.append(samples)
        ok.append(passed)
    return zeta_t, results, check_t, ok


def setup_seconds(name, seed, size, runs):
    """Wall times of fresh processes that each do one CLI-style set-up."""
    cmd = [sys.executable, os.path.join(HERE, "setup_child.py"), name, str(seed)]
    if size is not None:
        cmd.append(str(size))
    times = []
    for _ in range(runs):
        t0 = perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        times.append(perf_counter() - t0)
    return times


def _done(start, passes, seconds, min_passes):
    """After `min_passes`, stop when one more pass would likely end past
    `seconds`; before that, stop only past 3 * `seconds`, so a program far
    slower than expected still ends."""
    elapsed = perf_counter() - start
    if passes >= min_passes:
        return elapsed + 0.5 * elapsed / passes >= seconds
    return elapsed >= 3 * seconds


def _same(a, b):
    if isinstance(a, Exception) or isinstance(b, Exception):
        return repr(a) == repr(b)
    return a == b


def _judge(name, instances, results, battery_ok, unstable):
    """Failures per ideal: exceptions, battery, gate, non-determinism; plus
    the number of results whose to_json() moved from the frozen digest."""
    frozen = gate.frozen_digests().get(name, [])
    failures, changed = {}, 0
    for inst, res, ok in zip(instances, results, battery_ok):
        if isinstance(res, Exception):
            failures[inst.index] = [f"raised {res!r}"]
            continue
        try:
            problems = gate.check(inst.ideal, res)
        except Exception as err:  # a result the gate cannot read is wrong
            problems = [f"gate raised {err!r}"]
        if not ok:
            problems.append("check battery failed")
        if inst.index in unstable:
            problems.append("result differs between passes")
        if problems:
            failures[inst.index] = problems
        if inst.index < len(frozen) and gate.digest(inst, res) != frozen[inst.index]:
            changed += 1
    return failures, changed


def measure(name, seed, seconds, trace, size=None, min_passes=None):
    """Run one workload; returns the full record (metrics and details).

    A traced run's passes come in pairs (untraced, traced), so it needs fewer.
    """
    if min_passes is None:
        min_passes = 2 if trace else MIN_PASSES
    instances = workloads.generate(name, seed, size)
    record = {"workload": name, "seed": seed, "trace": trace,
              "ideals": len(instances)}

    tracer = Tracer()
    zeta_t = [[] for _ in instances]  # untraced samples per ideal
    traced_t = [[] for _ in instances]
    check_t = [[] for _ in instances]
    setup_t = []
    layer_rows = []
    first = None
    unstable = set()
    passes = 0
    start = perf_counter()
    while True:
        times, results, checks, ok = one_pass(instances, BATTERY_REPEATS)
        passes += 1
        for i in range(len(instances)):
            zeta_t[i].append(times[i])
            check_t[i].extend(checks[i])
        if first is None:
            first, battery_ok = results, ok
            if not trace:
                record["peak_rss_mb"] = (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        runs = [results]
        if trace:
            with tracer:
                times, results, _, _ = one_pass(instances, 1)
            for i in range(len(instances)):
                traced_t[i].append(times[i])
            layer_rows.append(tracer.end_pass(str(len(layer_rows))))
            runs.append(results)
        else:
            # spread over the run, so the median sees the same machine states
            # as the passes
            setup_t += setup_seconds(name, seed, size, SETUP_PER_PASS)
        for results in runs:
            for inst, res, ref in zip(instances, results, first):
                if not _same(res, ref):
                    unstable.add(inst.index)
        if _done(start, passes, seconds, min_passes):
            break
    record["measured_s"] = perf_counter() - start
    record["passes"] = passes
    if not trace:
        record["setup_s"] = statistics.median(setup_t)

    # Each ideal's time is its fastest sample.  The work is deterministic and
    # a shared machine only slows it: its speed can step between states up to
    # 2x apart for tens of seconds.  A mean or median of the samples mixes in
    # how long a run spent in the slow state; the fastest does not.
    per_ideal = [min(t) for t in zeta_t]
    record["total_s"] = sum(per_ideal)
    record["zeta_p50_s"] = statistics.median(per_ideal)
    if len(per_ideal) >= 50:
        record["zeta_p80_s"] = statistics.quantiles(per_ideal, n=5)[3]
    record["verify_s"] = sum(min(t) for t in check_t)
    record["num_terms"] = sum(len(r.zeta.numerator.terms()) for r in first
                              if not isinstance(r, Exception))

    failures, changed = _judge(name, instances, first, battery_ok, unstable)
    record["zeta.json_changed"] = changed
    record["attempted"] = len(instances)
    record["failed"] = len(failures)
    record["failed_frac"] = len(failures) / len(instances)
    record["failures"] = {str(k): v for k, v in sorted(failures.items())}
    record["zeta_times_s"] = {str(inst.index): t for inst, t in zip(instances, zeta_t)}
    record["check_times_s"] = {str(inst.index): t for inst, t in zip(instances, check_t)}

    if trace:
        for key in layer_rows[0]:
            values = [row[key] for row in layer_rows]
            exact = all(isinstance(v, int) for v in values)
            if exact and len(set(values)) > 1:
                record.setdefault("counts_varied", []).append(key)
            record[key] = values[0] if exact else min(values)
        record["trace.overhead_frac"] = (
            sum(min(t) for t in traced_t) / record["total_s"] - 1)
        record["trace.missing"] = tracer.missing
        tracer.write(os.path.join(OUT, f"spans-{name}-seed{seed}.csv.gz"))
    return record


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = {m["name"]: {"value": record[m["name"]], "unit": m["unit"]}
               for m in declared_metrics(args.trace)}

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  ideals {record['ideals']}"
          f"  passes {record['passes']}  record {os.path.relpath(path, ROOT)}")
    for key, val in metrics.items():
        print(f"  {key:28s} {val['value']:<22.6g} {val['unit']}")
    if not args.trace:
        for key in DROPPED:
            if key in record:
                print(f"  {key:28s} {record[key]:<22.6g} (not in BENCHMARK.json)")
    for idx, problems in record["failures"].items():
        print(f"  FAILED pool ideal {idx}: {'; '.join(problems)}")
    correct = record["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
