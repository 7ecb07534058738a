"""Seeded instance pools for the three workloads.

Every instance is built with ``hypershrink.gen`` from the workload seed,
and every expected answer is certified here by construction, never by
asking the package under test.
"""

import random
from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations

from checker import degrees, is_valid, spans_tree
from spans import clock

WORKLOADS = ("shrink-random", "shrink-hub", "check-mixed")

# Distinct instances per pool.  The cost of one instance varies a lot with
# its random tree, so a run's median is only steady across seeds when it
# draws on many instances: the random pools hold about as many as one run
# reaches at seed speed.  Hub instances cost a smooth function of m, so a
# small pool that a run cycles through several times is enough.
POOL_SIZE = {"shrink-random": 160, "shrink-hub": 32, "check-mixed": 156}

N_RANDOM = 500
HUB_M = (1000, 2000)


@dataclass(frozen=True)
class Instance:
    command: str  # "shrink" or "check"
    label: str
    n: int
    edges: tuple
    expected_exit: int
    expected_stdout: str = None  # None: checked by checker.check_shrink
    gen_seconds: float = 0.0

    @property
    def rank(self) -> int:
        return max(len(e) for e in self.edges)

    def orientation_counts(self) -> tuple:
        """(copies, arcs) of the bipartite graph behind floor(d/k) demands
        at k = rank: sum of floor(d/k), and per hyperedge the demand
        copies of its members."""
        k = self.rank
        demand = [d // k for d in degrees(self.n, self.edges)]
        return sum(demand), sum(demand[v] for e in self.edges for v in e)


def _hypertree(gen, n, k, seed, p):
    """A generated hypertree, certified through its shrink witness, and
    the generator's time in seconds."""
    start = clock()
    hypergraph, witness = gen.random_hypertree(n, k, seed, p)
    seconds = clock() - start
    edges = hypergraph.edges
    if not (
        len(edges) == n - 1
        and is_valid(n, edges)
        and all(set(w) <= set(e) for w, e in zip(witness, edges))
        and spans_tree(n, witness)
    ):
        raise RuntimeError(f"generator output n={n} k={k} seed={seed} is not a certified hypertree")
    return edges, seconds


def _hub(gen, m, k):
    """adversarial_star(m, k), certified, and the generator's time."""
    start = clock()
    hypergraph = gen.adversarial_star(m, k)
    seconds = clock() - start
    # the generator lists each hub hyperedge as (0, leaf, fresh...) and
    # every other one as a pair; their first two vertices span
    if not spans_tree(hypergraph.n, [e[:2] for e in hypergraph.edges]):
        raise RuntimeError(f"adversarial_star({m}, {k}) is not a certified hypertree")
    return hypergraph, seconds


def break_hypertree(n, edges, rng) -> tuple:
    """A valid non-hypertree with n-1 hyperedges, made from a hypertree.

    Picks a vertex v on two plain pairs {u,v} and {v,w}, adds {u,w} and
    drops one hyperedge disjoint from X = {u,v,w}; X then holds three
    hyperedges, more than |X| - 1 = 2.
    """
    on_pairs = defaultdict(list)
    for i, e in enumerate(edges):
        if len(e) == 2:
            for v in e:
                on_pairs[v].append(i)
    existing = set(edges)
    hubs = sorted(v for v, incident in on_pairs.items() if len(incident) >= 2)
    rng.shuffle(hubs)
    for v in hubs:
        for a, b in combinations(on_pairs[v], 2):
            (u,), (w,) = set(edges[a]) - {v}, set(edges[b]) - {v}
            added = (min(u, w), max(u, w))
            if added in existing:
                continue
            x = {u, v, w}
            unrelated = [j for j, e in enumerate(edges) if x.isdisjoint(e)]
            drop = unrelated[rng.randrange(len(unrelated))]
            broken = edges[:drop] + (added,) + edges[drop + 1:]
            inside = sum(1 for e in broken if set(e) <= x)
            if not (is_valid(n, broken) and len(broken) == n - 1 and inside > len(x) - 1):
                raise RuntimeError("negative instance failed its certificate")
            return broken
    raise RuntimeError("no vertex lies on two plain pairs")


def _blocks(rng, block, size):
    """Repeat ``block`` to ``size`` items, shuffling within each copy, so
    that every prefix of a run holds the block's mix in proportion."""
    specs = []
    while len(specs) < size:
        copy = list(block)
        rng.shuffle(copy)
        specs.extend(copy)
    return specs[:size]


def _specs(workload, seed):
    """The pool's parameter tuples in run order, a pure function of seed."""
    rng = random.Random(f"{workload}/{seed}")
    size = POOL_SIZE[workload]
    if workload == "shrink-random":
        block = [(k, p) for k in (3, 5) for p in (0.5, 0.8)]
        specs = [(k, p, rng.getrandbits(32)) for k, p in _blocks(rng, block, size)]
    elif workload == "shrink-hub":
        # m stratified over [1000, 2000), so every pool has the same spread of sizes
        steps = size // 2
        lo, hi = HUB_M
        specs = [
            (lo + int((j + rng.random()) * (hi - lo) / steps), k)
            for k in (3, 4)
            for j in range(steps)
        ]
        rng.shuffle(specs)
    elif workload == "check-mixed":
        # k=3 checks take 0.1-0.3 s and k=5 checks 0.25-1 s at n=500.  In
        # a 1:1 mix the median falls in the gap between the two and jumps
        # with the seed; at 2:1 it falls inside the k=3 costs.
        block = [(k, positive) for k in (3, 3, 5) for positive in (True, False)]
        specs = [(k, pos, rng.getrandbits(32)) for k, pos in _blocks(rng, block, size)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return specs, rng


def build_pool(gen, workload, seed, count=None) -> list:
    """The first ``count`` instances (default: all) of the seeded pool."""
    specs, rng = _specs(workload, seed)
    pool = []
    for spec in specs[:count]:
        if workload == "shrink-random":
            k, p, gseed = spec
            edges, seconds = _hypertree(gen, N_RANDOM, k, gseed, p)
            pool.append(Instance("shrink", f"k{k}-p{p}", N_RANDOM, edges, 0, None, seconds))
        elif workload == "shrink-hub":
            m, k = spec
            hypergraph, seconds = _hub(gen, m, k)
            pool.append(Instance("shrink", f"m{m}-k{k}", hypergraph.n, hypergraph.edges, 0, None, seconds))
        else:
            k, positive, gseed = spec
            edges, seconds = _hypertree(gen, N_RANDOM, k, gseed, 0.5)
            if positive:
                pool.append(Instance("check", f"pos-k{k}", N_RANDOM, edges, 0, "hypertree\n", seconds))
            else:
                edges = break_hypertree(N_RANDOM, edges, rng)
                pool.append(Instance("check", f"neg-k{k}", N_RANDOM, edges, 1, "not a hypertree\n", seconds))
    return pool
