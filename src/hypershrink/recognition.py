"""Hypertree recognition.

A hypertree is a hypergraph in which every nonempty vertex set X contains
at most |X|-1 hyperedges as subsets, with equality at the full vertex set.
Equivalently (Frank, Kiraly and Kriesell, Discrete Appl. Math. 131, 2003),
it has n - 1 hyperedges and an orientation in which every vertex is
reachable from one root.  The production recognizer decides the second
form with the orientation stage alone: one demand-constrained orientation
and the closed set its repair search reaches from the root.  The
exponential definition check is kept as a test oracle.
"""

from dataclasses import dataclass

from .core import Hypergraph, LimitExceededError, validate
from .orientation import _incidence, _repair, orient_with_demands


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
    """Whether ``hypergraph`` is a hypertree, decided by one orientation.

    Returns False unless |E| = n - 1, then orients with demand 0 at
    vertex 0 and 1 everywhere else and returns False on a violator.
    Otherwise it returns whether every vertex is reachable from vertex 0
    by the moves "x -> head of a hyperedge containing x".  That is the
    set the orientation's repair search reaches from 0 when no vertex has
    a spare head to hand over.  The answer is exact, where i(X) counts
    the hyperedges inside X and e*(F) those meeting F:

    - The total demand is n - 1 = |E|, so every v != 0 heads exactly one
      hyperedge and vertex 0 heads none.
    - Sound: take any nonempty X.  A hyperedge inside X is headed in X,
      so i(X) <= |X - {0}|.  If 0 is not in X and i(X) = |X|, then the
      one hyperedge each x in X heads lies inside X, so no vertex of X is
      reachable from 0.  Reaching every vertex leaves i(X) <= |X| - 1.
    - Complete: in a hypertree every F != V meets e*(F) = |E| - i(V - F)
      >= |F| hyperedges, so the demands are feasible.  A set X of
      unreached vertices would hold the hyperedge each x in X heads, since
      a reached member would reach its head; that gives i(X) >= |X|.

    Raises ``ValueError("invalid hypergraph: ...")`` with the
    :func:`~hypershrink.core.validate` report on a hypergraph that is not
    simple (a loop, a duplicate, an out-of-range or unsorted edge), before
    any vertex id is used as an index.
    """
    report = validate(hypergraph)
    if not report.ok:
        raise ValueError(f"invalid hypergraph: {report}")
    return _decide_hypertree(hypergraph)


def _decide_hypertree(hypergraph: Hypergraph) -> bool:
    """:func:`is_hypertree` for a hypergraph that already passed
    :func:`~hypershrink.core.validate`, which it does not run again."""
    n = hypergraph.n
    if hypergraph.num_edges != n - 1:
        return False
    result = orient_with_demands(hypergraph, (0,) + (1,) * (n - 1))
    if not result.is_oriented:
        return False
    # need is 0 everywhere, so the search finds no spare head and returns
    # the closed set reached from 0
    reached = _repair(0, result.oriented.heads, [0] * n, _incidence(hypergraph))
    return len(reached) == n
