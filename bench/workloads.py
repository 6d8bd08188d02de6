"""Workloads of the benchmark: query pools, the seeded draw, and one query's answer.

A query is a tuple:

    ("e2", p, s, t)          pages.e2_dimension, answer = per-weight blocks
    ("d1", p, word)          algebra.parse_element then differential.d1, answer = rendered image
    ("main", p, m, n, s)     verify.verify_main, answer = PASS flag and check count

Each workload draws a fixed-size list from its pool: one or more entries
from each stratum, without replacement, in a seeded order.  Entries of a
stratum are inputs of one kind and of equal cost, so different seeds give
different inputs but the same work.  Where no such inputs exist the
stratum is drawn whole and the seed only sets the order.

Every answer in every pool is committed in reference.json (see
make_reference.py).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# The e2 lists are fixed and the seed only orders them.  Neighbouring
# bidegrees of similar E1 size differ in cost by up to 1.5x (the block
# structure, not the basis size, sets the cost), so a seeded draw among them
# would move the list's time by more than the benchmark's bounds.
#
# Dense second-page blocks at t near 3000 and at t near 130000, where few
# monomials over many generators give blocks of up to 270 rows.
DENSE_E2 = (("e2", 5, 12, 3000), ("e2", 5, 8, 130194), ("e2", 5, 11, 2988),
            ("e2", 5, 12, 3012))
# One mid, one high-t, and one small bidegree (E1 dim 309 over 41 blocks).
CACHE_E2 = (("e2", 5, 12, 3000), ("e2", 5, 8, 130194), ("e2", 5, 10, 20000))

# Long words whose d1 costs about 0.2 s each; the cost is quadratic in the
# number of factors, since every unit of a power is differentiated and the
# whole word re-sorted.  Short enough that the host-speed kernel timed
# around each one tracks the host's speed during it.  Exponents that are
# multiples of p would zero the image of a single power, so they are left
# out where that matters.
D1_POWER = tuple(("d1", 5, "a(1)^%d" % e) for e in range(601, 620) if e % 5)
D1_MIXED = tuple(("d1", 5, "a(3)^%d a(1)^175 h(3,0) h(1,4)" % e)
                 for e in range(311, 322) if e % 5)
D1_PADDED = tuple(("d1", 5, "b(1,0)^450 a(2)^%d h(2,1)" % e)
                  for e in range(226, 237) if e % 5)
# a(2)^e h(2,0) h(1,1) is a cycle for every e: the image is zero.
D1_ZERO = tuple(("d1", 5, "a(2)^%d h(2,0) h(1,1)" % e) for e in range(1002, 1010))

# The paper's headline scenario at s = p-1 for several primes and towers.
SCENARIOS = (("main", 5, 4, 6, 4), ("main", 5, 8, 12, 4), ("main", 7, 6, 10, 6),
             ("main", 13, 4, 6, 12), ("main", 5, 10, 16, 4), ("main", 5, 12, 20, 4),
             ("main", 7, 8, 14, 6), ("main", 11, 6, 10, 10))


@dataclass(frozen=True)
class Workload:
    name: str
    strata: tuple[tuple[tuple, int], ...]   # (pool stratum, entries drawn from it)
    disk_cache: bool = False

    def draw(self, seed: int) -> list[tuple]:
        """The query list for a seed: the drawn entries in a seeded order."""
        rng = random.Random(seed)
        queries = [q for pool, k in self.strata for q in rng.sample(pool, k)]
        rng.shuffle(queries)
        return queries

    def pool(self) -> list[tuple]:
        return [q for pool, _ in self.strata for q in pool]


WORKLOADS = {w.name: w for w in (
    # The second-page hot path.  Loads differential.d1_matrix (about 51% of
    # the time) and linalg.rank (about 24%) on matrices about 3.5% nonzero;
    # enumeration is about 23%.  Bypasses cache (cache=None) and verify.
    Workload("dense-e2", ((DENSE_E2, len(DENSE_E2)),)),
    # The paper's own traffic.  Loads enumeration (about 80%: the window and
    # vanishing checks are basis searches) and verify; bypasses linalg (under
    # 1%) and cache.  The list is fixed; the seed only orders it.
    Workload("scenarios", ((SCENARIOS, len(SCENARIOS)),)),
    # The same differential/algebra code as dense-e2, on one long word instead
    # of many short ones.  Loads differential.d1, algebra.canonicalize and
    # parse_element; bypasses enumeration, linalg, pages and cache.
    Workload("d1-powers", ((D1_POWER, 2), (D1_MIXED, 2), (D1_PADDED, 2), (D1_ZERO, 2))),
    # The only workload that reads and writes the disk cache: a cold pass into
    # an empty directory, then a warm pass after clear_memo() that reads every
    # basis and matrix back.  Loads cache (stores in cold_s, loads in warm_s)
    # on top of the dense-e2 layers.
    Workload("cache-reuse", ((CACHE_E2, len(CACHE_E2)),), disk_cache=True),
)}


def reference_key(query: tuple) -> str:
    kind, p, *rest = query
    if kind == "e2":
        return "e2 p=%d s=%d t=%d" % (p, rest[0], rest[1])
    if kind == "d1":
        return "d1 p=%d %s" % (p, rest[0])
    return "main p=%d m=%d n=%d s=%d" % (p, rest[0], rest[1], rest[2])


def answer(mayss, query: tuple, cache):
    """Run one query through the public API; returns a JSON-shaped answer.

    Names are looked up on the package at call time, so a tracer's wrappers
    apply.  `cache` is passed explicitly on every call, None when the
    workload runs without a disk cache.
    """
    kind, p, *rest = query
    ctx = mayss.make_context(p)
    if kind == "e2":
        page = mayss.e2_dimension(ctx, rest[0], rest[1], cache=cache)
        return [[bl.u, bl.e1_dim, bl.cycle_dim, bl.boundary_dim, bl.e2_dim]
                for bl in page.blocks]
    if kind == "d1":
        return mayss.render_element(mayss.d1(mayss.parse_element(rest[0], ctx), ctx), ctx)
    report = mayss.verify_main(ctx, rest[0], rest[1], rest[2], cache=cache)
    return {"pass": report.passed, "checks": len(report.checks)}
