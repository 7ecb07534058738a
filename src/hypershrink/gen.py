"""Seeded, reproducible generators of trees, hypertrees and stress cases.

Every generator is a pure function of its parameters and seed.  Random
bits come from SplitMix64 rather than the interpreter's generator so that
a seed means the same instance in any language: state advances by the
golden-gamma constant 0x9E3779B97F4A7C15 (mod 2^64) and each output is
the state mixed by xor-shift-multiply with 0xBF58476D1CE4E5B9 (shift 30)
and 0x94D049BB133111EB (shift 27), finished by a 31-bit xor-shift.
Hypertrees are built by expanding the edges of a known tree, so every
output carries its shrink witness by construction; no rejection sampling
against the recognizer is ever needed.
"""

import heapq

from .core import Hypergraph

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Deterministic 64-bit generator; see the module docstring for the
    exact algorithm."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, bound: int) -> int:
        """Uniform integer in [0, bound), unbiased via rejection, for
        0 < bound <= 2**64: a larger bound has no draw to accept."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound > 1 << 64:
            raise ValueError("bound must be at most 2**64")
        threshold = (1 << 64) - ((1 << 64) % bound)
        while True:
            u = self.next_uint64()
            if u < threshold:
                return u % bound

    def chance(self, p: float) -> bool:
        """True with probability p; always consumes exactly one draw."""
        if not 0.0 <= p <= 1.0:
            raise ValueError("probability must lie in [0, 1]")
        return self.next_uint64() < int(p * (1 << 64))

    def sample(self, population: list, count: int) -> list:
        """``count`` distinct elements via a partial Fisher-Yates shuffle."""
        return [population[i] for i in self.sample_indices(len(population), count)]

    def sample_indices(self, size: int, count: int) -> list:
        """The positions :meth:`sample` would pick from a population of
        ``size``, in O(count): the shuffle runs lazily over the implicit
        index range, keeping only the swapped slots in a dict."""
        swapped = {}
        picked = []
        for i in range(min(count, size)):
            j = i + self.randrange(size - i)
            chosen = swapped.get(j, j)
            swapped[j] = swapped.get(i, i)
            picked.append(chosen)
        return picked


def _decode_tree(rng: SplitMix64, n: int) -> list:
    """Uniform labelled tree: decode a random length n-2 sequence by
    repeatedly joining the smallest remaining leaf to the next entry."""
    if n == 1:
        return []
    sequence = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in sequence:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in sequence:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return edges


def random_tree(n: int, seed: int) -> tuple:
    """Uniformly random labelled tree on n vertices as n-1 edge pairs."""
    if n < 1:
        raise ValueError("a tree needs at least one vertex")
    return tuple(_decode_tree(SplitMix64(seed), n))


_MAX_REDRAWS = 32


def _check_hypertree_args(n: int, k: int, p: float) -> None:
    """Refuse, with ``ValueError``, what the hypertree generators cannot draw."""
    if n < 2:
        raise ValueError("need at least two vertices")
    if k < 2:
        raise ValueError("rank bound k must be at least 2")
    if not 0.0 <= p <= 1.0:
        raise ValueError("expansion probability must lie in [0, 1]")


def random_hypertree(n: int, k: int, seed: int, p: float = 0.5) -> tuple:
    """Random hypertree of rank <= k with its shrink witness.

    Starts from a random tree; each tree edge is independently expanded
    with probability p into a hyperedge with 1..k-2 extra vertices (drawn
    distinct from the whole vertex set).  An expansion that would repeat
    an existing hyperedge is redrawn a bounded number of times, after
    which the edge stays a plain pair, which is always legal.  Returns
    ``(hypergraph, witness)`` where ``witness[i]`` is the tree pair inside
    hyperedge i; the witness pairs form the original spanning tree, so
    the output is a hypertree by construction.
    """
    _check_hypertree_args(n, k, p)
    rng = SplitMix64(seed)
    witness = _decode_tree(rng, n)
    seen = set()
    edges = []
    for u, v in witness:
        expand = rng.chance(p) and k > 2
        edge = (u, v)
        if expand:
            # position i of the vertices other than u and v, ascending
            lo, hi = min(u, v), max(u, v)
            for _ in range(_MAX_REDRAWS):
                extra = [
                    i + (i >= lo) + (i >= hi - 1)
                    for i in rng.sample_indices(n - 2, 1 + rng.randrange(k - 2))
                ]
                candidate = tuple(sorted({u, v, *extra}))
                if frozenset(candidate) not in seen:
                    edge = candidate
                    break
        seen.add(frozenset(edge))
        edges.append(edge)
    return Hypergraph(n, tuple(edges)), tuple(witness)


def adversarial_star(m: int, k: int) -> Hypergraph:
    """Hypertree with a hub of degree m sitting in m hyperedges of size k.

    Expands an m-leaf star: the edge to leaf i grows by k-2 fresh
    vertices, each tied back to leaf i with a plain pair so the whole
    hypergraph still shrinks to a spanning tree.  Stresses the
    floor(d/k) guarantee at the hub.
    """
    if m < 1:
        raise ValueError("need at least one branch")
    _check_hypertree_args(m + 1, k, 0.0)  # the hub and m leaves: only k can fail
    edges = []
    next_free = m + 1
    for leaf in range(1, m + 1):
        fresh = list(range(next_free, next_free + k - 2))
        next_free += k - 2
        edges.append(tuple(sorted([0, leaf] + fresh)))
        edges.extend((leaf, w) for w in fresh)
    return Hypergraph(next_free, tuple(edges))
