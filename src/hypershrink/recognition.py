"""Hypertree recognition.

A hypertree is a hypergraph in which every nonempty vertex set X contains
at most |X|-1 hyperedges as subsets, with equality at the full vertex set.
Equivalently, one pair of vertices can be chosen from each hyperedge so
that the pairs form a spanning tree.  The production recognizer uses the
second characterisation through the same star expansion and rainbow
engine as shrinking; the exponential definition check is kept as a test
oracle.
"""

from dataclasses import dataclass

from .core import DirectedHypergraph, Hypergraph, LimitExceededError
from .rainbow import rainbow_spanning_tree, star_graph


@dataclass(frozen=True)
class BruteforceResult:
    """Outcome of the definitional check, with a witness on failure.

    ``violating_subset`` is a vertex set containing too many hyperedges;
    ``bad_edge_count`` flags a hypergraph that passes every subset bound
    but misses the equality |E| = n - 1 at the full vertex set.
    """

    is_hypertree: bool
    violating_subset: tuple = None
    bad_edge_count: bool = False

    def __bool__(self) -> bool:
        return self.is_hypertree


def is_hypertree_bruteforce(hypergraph: Hypergraph, limit: int = 20) -> BruteforceResult:
    """Check the subset-count definition over all 2^n vertex subsets.

    Scans nonempty subsets in ascending bitmask order and reports the
    first X whose contained-edge count exceeds |X| - 1.  Refuses inputs
    with more than ``limit`` vertices.
    """
    n = hypergraph.n
    if n > limit:
        raise LimitExceededError(f"n={n} exceeds the exhaustive limit {limit}")
    edge_masks = [0] * hypergraph.num_edges
    for i, e in enumerate(hypergraph.edges):
        mask = 0
        for v in e:
            mask |= 1 << v
        edge_masks[i] = mask
    for subset in range(1, 1 << n):
        inside = sum(1 for mask in edge_masks if mask & ~subset == 0)
        if inside > bin(subset).count("1") - 1:
            witness = tuple(v for v in range(n) if subset >> v & 1)
            return BruteforceResult(False, violating_subset=witness)
    if hypergraph.num_edges != n - 1:
        return BruteforceResult(False, bad_edge_count=True)
    return BruteforceResult(True)


def is_hypertree(hypergraph: Hypergraph) -> bool:
    """Constructive recognizer: |E| = n - 1 and the star expansion, with
    each hyperedge's smallest vertex as its head, admits a rainbow
    spanning tree.

    Any heads work: for every set of dropped colours, a hyperedge's star
    connects the same vertex set as its clique, so the component-count
    condition for a rainbow tree, which picks one pair from each
    hyperedge, holds for the star exactly when it holds for the clique.
    """
    if hypergraph.num_edges != hypergraph.n - 1:
        return False
    directed = DirectedHypergraph(hypergraph, tuple(e[0] for e in hypergraph.edges))
    return rainbow_spanning_tree(star_graph(directed)) is not None
