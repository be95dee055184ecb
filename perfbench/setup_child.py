"""One set-up as a CLI user pays it, in a fresh process.

Imports monozeta, generates the workload and makes one warm-up call on a
trivial ideal.  run.py times this process from the outside, so interpreter
start-up is included.

    python3 perfbench/setup_child.py <workload> <seed> [<size>]
"""

import sys

from bench_path import use_checkout_sources

use_checkout_sources()

import monozeta  # noqa: E402
import workloads  # noqa: E402

name, seed = sys.argv[1], int(sys.argv[2])
size = int(sys.argv[3]) if len(sys.argv) > 3 else None
workloads.generate(name, seed, size)
monozeta.igusa_zeta(monozeta.MonomialIdeal(1, [(1,)]))
