"""Seeded ideal workloads for the benchmark.

Each workload is a frozen pool of monomial ideals drawn by a fixed rule from
a fixed pool seed, so its cost and its answers are the same for every run.
The run seed only relabels: every ideal gets its own random permutation of
the variables, and the ideals are visited in a shuffled order.  The zeta
function is invariant under a consistent relabelling, so `num_terms` and the
frozen `to_json()` digests do not depend on the seed, while the program still
sees different inputs (its triangulation takes the lexicographically smallest
ray as apex, so cells and parallelepiped points change with the labelling).

Redrawing the ideals per seed would not give a usable benchmark: the cost of
a random ideal is heavy-tailed (one acceptance-corpus ideal is ~45 % of the
corpus pass), so the total would move by more than any regression bound.

This module does not use `monozeta.cli.random_ideal`, so a change to that
function cannot silently change the workloads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from monozeta import MonomialIdeal


@dataclass(frozen=True)
class Rule:
    """How a pool is drawn: variables, generators and exponent bound.

    `n` and `gens` are upper bounds drawn uniformly per ideal when `exact` is
    false (the acceptance-corpus rule), and exact values otherwise.
    """

    pool_seed: int
    size: int
    n: int
    gens: int
    max_exp: int
    exact: bool


WORKLOADS = {
    # the acceptance corpus that `monozeta corpus` users run: every layer,
    # many small cones and Moebius face sums, one ideal ~45 % of the pass
    "corpus": Rule(pool_seed=20260816, size=50, n=4, gens=6, max_exp=5, exact=False),
    # few cones, big parallelepipeds: numerator building and reduced()
    # dominate, geometry is a few per cent
    "wide": Rule(pool_seed=2, size=8, n=3, gens=6, max_exp=20, exact=True),
    # many non-simplicial cones: triangulate, dd and linalg dominate, ring is
    # under one per cent
    "deep": Rule(pool_seed=1, size=3, n=5, gens=4, max_exp=3, exact=True),
}


def _draw(rng: random.Random, n: int, count: int, max_exp: int):
    gens = []
    while len(gens) < count:
        g = tuple(rng.randint(0, max_exp) for _ in range(n))
        if any(g):
            gens.append(g)
    return gens


def pool(name: str, size: int | None = None) -> list[MonomialIdeal]:
    """The first `size` ideals of the workload's frozen pool."""
    rule = WORKLOADS[name]
    size = rule.size if size is None else size
    rng = random.Random(rule.pool_seed)
    out = []
    for _ in range(size):
        if rule.exact:
            n, count = rule.n, rule.gens
        else:
            # same draw order as the acceptance battery's corpus
            n = rng.randint(1, rule.n)
            count = rng.randint(1, rule.gens)
        out.append(MonomialIdeal(n, _draw(rng, n, count, rule.max_exp)))
    return out


@dataclass(frozen=True)
class Instance:
    """One relabelled pool ideal.

    Variable i of `ideal` is variable perm[i] of the pool ideal.
    """

    index: int
    perm: tuple[int, ...]
    ideal: MonomialIdeal

    def unpermute(self, v):
        """Map a vector in the relabelled coordinates back to the pool's."""
        out = [0] * len(v)
        for i, x in enumerate(v):
            out[self.perm[i]] = x
        return tuple(out)


def generate(name: str, seed: int, size: int | None = None) -> list[Instance]:
    """The workload's inputs for one run: relabelled pool, shuffled order."""
    rng = random.Random(f"{name}/{seed}")
    out = []
    for index, ideal in enumerate(pool(name, size)):
        perm = list(range(ideal.n))
        rng.shuffle(perm)
        gens = [tuple(g[p] for p in perm) for g in ideal.generators]
        out.append(Instance(index, tuple(perm), MonomialIdeal(ideal.n, gens)))
    rng.shuffle(out)
    return out
