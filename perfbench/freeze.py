"""Write digests.json: a digest of every pool ideal's to_json(), per workload.

    python3 perfbench/freeze.py

The frozen digests let a run count results whose canonical shape changed
(`zeta.json_changed`).  A change may do that legitimately; refreeze only in a
change that says so.
"""

import json

from bench_path import use_checkout_sources

use_checkout_sources()

import monozeta  # noqa: E402
import gate  # noqa: E402
import workloads  # noqa: E402


def main():
    out = {}
    for name in workloads.WORKLOADS:
        instances = sorted(workloads.generate(name, 0), key=lambda i: i.index)
        out[name] = [gate.digest(inst, monozeta.igusa_zeta(inst.ideal))
                     for inst in instances]
        print(name, len(out[name]), flush=True)
    with open(gate.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
