"""Exhaustive oracles, for tests and small inputs only.

Nothing here is on the ``shrink``/``check`` path.  Each oracle checks a
definition by enumeration and refuses an input past its limit with
:class:`~hypershrink.core.LimitExceededError`; ``hypershrink check
--oracle`` runs :func:`is_hypertree_bruteforce`, which needs ``core``
alone.  :func:`check_rainbow_condition` and :func:`brute_force_shrink`
import what they use of ``rainbow`` and ``shrink`` when they run, so
``check --oracle`` never loads the rainbow stage.
"""

from itertools import combinations, product

from .core import DirectedHypergraph, Hypergraph, LimitExceededError, _require_valid, _Value


class BruteforceResult(_Value):
    """Outcome of the definitional check, with a witness on failure.

    ``violating_subset`` is a vertex set containing too many hyperedges;
    ``bad_edge_count`` flags a hypergraph that passes every subset bound
    but misses the equality |E| = n - 1 at the full vertex set.
    """

    __match_args__ = ("is_hypertree", "violating_subset", "bad_edge_count")

    def __init__(self, is_hypertree: bool, violating_subset: tuple = None, bad_edge_count: bool = False):
        self.__dict__.update(
            is_hypertree=is_hypertree, violating_subset=violating_subset, bad_edge_count=bad_edge_count
        )

    def __bool__(self) -> bool:
        return self.is_hypertree


def is_hypertree_bruteforce(hypergraph: Hypergraph, limit: int = 20) -> BruteforceResult:
    """Check the subset-count definition over all 2^n vertex subsets.

    Scans nonempty subsets in ascending bitmask order and reports the
    first X whose contained-edge count exceeds |X| - 1.  Refuses inputs
    with more than ``limit`` vertices.
    """
    _require_valid(hypergraph)
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


def check_rainbow_condition(graph, limit: int = 20):
    """Exhaustively test the component-count condition for rainbow trees.

    For every colour set R with 0 <= |R| <= n-2 (the r=0 case is plain
    connectivity), deleting the edges coloured by R must leave at most
    |R|+1 components.  Returns the first offending R, scanning sizes in
    ascending order and subsets lexicographically, or None when satisfied.
    Larger subsets never need checking.  Guarded against exponential
    blow-up: more than ``limit`` colours is refused.  ``graph`` is a
    :class:`~hypershrink.rainbow.ColouredGraph` or, as
    :func:`~hypershrink.rainbow.rainbow_spanning_tree` takes it, a
    :class:`~hypershrink.core.DirectedHypergraph` read as its star
    expansion (an invalid base is refused as :func:`star_graph` refuses it).
    """
    from .rainbow import UnionFind, star_graph

    if isinstance(graph, DirectedHypergraph):
        graph = star_graph(graph)
    c = graph.num_colours
    if c > limit:
        raise LimitExceededError(
            f"{c} colours exceed the exhaustive limit {limit} (2^{c} subsets)"
        )
    for r in range(0, min(c, graph.n - 2) + 1):
        for subset in combinations(range(c), r):
            dropped = set(subset)
            uf = UnionFind(graph.n)
            for u, v, col in graph.edges:
                if col not in dropped:
                    uf.union(u, v)
            if uf.components > r + 1:
                return subset
    return None


def brute_force_shrink(hypergraph: Hypergraph, limit: int = 10**6):
    """Exhaustive shrinking oracle.

    Enumerates every choice of one pair per hyperedge (lexicographically)
    and returns, among the choices forming a spanning tree, the first one
    maximising min_v d_T(v) / max(1, d_H(v)); returns None when no choice
    spans, which certifies the input is not a hypertree.  Refuses when the
    choice space exceeds ``limit``.
    """
    from fractions import Fraction  # the oracle's import, kept off the fast path

    from .rainbow import UnionFind
    from .shrink import Shrinking

    _require_valid(hypergraph)
    n, m = hypergraph.n, hypergraph.num_edges
    if m != n - 1:
        return None
    choice_lists = [list(combinations(e, 2)) for e in hypergraph.edges]
    total = 1
    for options in choice_lists:
        total *= len(options)
        if total > limit:
            raise LimitExceededError(
                f"choice space exceeds the enumeration limit {limit}"
            )
    hyper_deg = hypergraph.degrees()
    best = None
    best_score = None
    for pairs in product(*choice_lists):
        if len(set(pairs)) != m:
            continue
        uf = UnionFind(n)
        if not all(uf.union(u, v) for u, v in pairs):
            continue
        if uf.components != 1:
            continue
        tree_deg = [0] * n
        for u, v in pairs:
            tree_deg[u] += 1
            tree_deg[v] += 1
        score = min(
            (Fraction(tree_deg[v], max(1, hyper_deg[v])) for v in range(n)),
            default=Fraction(1),
        )
        if best_score is None or score > best_score:
            best, best_score = pairs, score
    if best is None:
        return None
    return Shrinking.from_pairs(best)
