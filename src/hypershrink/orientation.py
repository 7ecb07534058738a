"""Demand-constrained hypergraph orientation.

Given per-vertex demands f, find an orientation whose indegrees dominate f,
or a certifying vertex set F with f(F) > e*(F) proving none exists.  The
search runs a maximum matching on a bipartite graph whose right side holds
f(v) copies of each vertex v; a matching covering every copy induces the
orientation, and an uncovered copy yields the deficiency witness.
"""

from collections import deque
from dataclasses import dataclass

from .core import DemandFunction, DirectedHypergraph, Hypergraph, InternalError

_UNMATCHED = -1
_INF = -1


class DemandBipartiteGraph:
    """Bipartite graph with hyperedge indices on the left and f(v) copies
    of each vertex v on the right; a copy of v is adjacent to edge i iff
    v is a member of edge i.

    Copies are numbered contiguously by ascending vertex id, so scanning a
    sorted hyperedge enumerates its neighbourhood in ascending order.
    """

    def __init__(self, hypergraph: Hypergraph, demands: DemandFunction):
        self.hypergraph = hypergraph
        self.demands = demands
        self.offset = [0] * (hypergraph.n + 1)
        for v in range(hypergraph.n):
            self.offset[v + 1] = self.offset[v] + demands[v]
        self.num_copies = self.offset[hypergraph.n]
        self.copy_vertex = [0] * self.num_copies
        for v in range(hypergraph.n):
            for w in range(self.offset[v], self.offset[v + 1]):
                self.copy_vertex[w] = v
        # adjacency[i] lists copy ids in ascending order
        self.adjacency = [
            [w for v in e for w in range(self.offset[v], self.offset[v + 1])]
            for e in hypergraph.edges
        ]
        self.incidence = [[] for _ in range(hypergraph.n)]
        for i, e in enumerate(hypergraph.edges):
            for v in e:
                self.incidence[v].append(i)

    def max_matching(self) -> tuple:
        """Hopcroft-Karp maximum matching.

        Returns ``(pair_left, pair_right)``: per-edge matched copy id and
        per-copy matched edge index, -1 where unmatched.  Left vertices are
        scanned in edge-index order and adjacency in ascending copy order,
        so the result is deterministic.
        """
        adjacency = self.adjacency
        m = len(adjacency)
        pair_left = [_UNMATCHED] * m
        pair_right = [_UNMATCHED] * self.num_copies
        dist = [0] * m

        def bfs() -> bool:
            queue = deque()
            for i in range(m):
                if pair_left[i] == _UNMATCHED:
                    dist[i] = 0
                    queue.append(i)
                else:
                    dist[i] = _INF
            shortest = _INF
            while queue:
                i = queue.popleft()
                if shortest != _INF and dist[i] >= shortest:
                    continue
                for w in adjacency[i]:
                    j = pair_right[w]
                    if j == _UNMATCHED:
                        if shortest == _INF:
                            shortest = dist[i] + 1
                    elif dist[j] == _INF:
                        dist[j] = dist[i] + 1
                        queue.append(j)
            return shortest != _INF

        def dfs(i: int) -> bool:
            # Depth-first search for an augmenting path along dist layers.
            # The frames below the current one sit on an explicit stack as
            # (edge, its adjacency iterator, the copy taken from it, the
            # layer it looks for): the scan order, and so the matching, is
            # that of the plain recursive search, and long paths cannot
            # exhaust the interpreter's stack.
            scan = iter(adjacency[i])
            want = dist[i] + 1
            stack = None  # allocated at the first step down
            while True:
                for w in scan:
                    j = pair_right[w]
                    if j == _UNMATCHED:
                        pair_left[i] = w
                        pair_right[w] = i
                        for edge, _, copy, _ in stack or ():
                            pair_left[edge] = copy
                            pair_right[copy] = edge
                        return True
                    if dist[j] == want:
                        if stack is None:
                            stack = []
                        stack.append((i, scan, w, want))
                        i, scan, want = j, iter(adjacency[j]), want + 1
                        break
                else:
                    dist[i] = _INF
                    if not stack:
                        return False
                    i, scan, _, want = stack.pop()

        while bfs():
            for i in range(m):
                if pair_left[i] == _UNMATCHED:
                    dfs(i)
        return pair_left, pair_right

    def deficiency_witness(self, pair_left: list, pair_right: list) -> tuple:
        """Vertex set F with f(F) > e*(F), from a matching missing a copy.

        Collects the copies reachable by alternating search from uncovered
        copies (copy->edge along non-matching pairs, edge->copy along the
        matching).  Every reached edge is matched back into the reached
        copy set, so the edges incident with F number strictly fewer than
        f(F) once all copies of each touched vertex are counted.
        """
        seen_copy = [False] * self.num_copies
        seen_edge = [False] * len(self.adjacency)
        vertices = set()
        queue = deque()
        for w in range(self.num_copies):
            if pair_right[w] == _UNMATCHED:
                seen_copy[w] = True
                vertices.add(self.copy_vertex[w])
                queue.append(w)
        while queue:
            w = queue.popleft()
            for i in self.incidence[self.copy_vertex[w]]:
                if seen_edge[i] or i == pair_right[w]:
                    continue
                seen_edge[i] = True
                partner = pair_left[i]
                # an unmatched edge here would complete an augmenting path
                if partner == _UNMATCHED:
                    raise InternalError(
                        f"matching was not maximum: edge {i} is unmatched"
                    )
                if not seen_copy[partner]:
                    seen_copy[partner] = True
                    vertices.add(self.copy_vertex[partner])
                    queue.append(partner)
        return tuple(sorted(vertices))


@dataclass(frozen=True)
class OrientationResult:
    """Either an orientation meeting the demands or a violating vertex set.

    Exactly one field is set.  When ``violator`` is returned, the set F
    satisfies f(F) > e*(F), certifying that no orientation was missed.
    """

    oriented: DirectedHypergraph = None
    violator: tuple = None

    def __post_init__(self):
        if (self.oriented is None) == (self.violator is None):
            raise ValueError("exactly one of oriented/violator must be set")

    @property
    def is_oriented(self) -> bool:
        return self.oriented is not None


def orient_with_demands(hypergraph: Hypergraph, demands) -> OrientationResult:
    """Orient so that every vertex v has indegree >= f(v), if possible.

    Each hyperedge matched to a copy of v takes v as its head; unmatched
    hyperedges take their smallest vertex (the choice is free, a fixed rule
    keeps outputs reproducible).  When the matching cannot cover all
    copies, returns the alternating-reachability violator instead.
    """
    if not isinstance(demands, DemandFunction):
        demands = DemandFunction(tuple(demands))
    if len(demands) != hypergraph.n:
        raise ValueError(
            f"demand function has {len(demands)} entries for {hypergraph.n} vertices"
        )
    # cheap necessary condition: total demand cannot exceed the edge count
    if demands.total() > hypergraph.num_edges:
        return OrientationResult(violator=tuple(range(hypergraph.n)))
    bipartite = DemandBipartiteGraph(hypergraph, demands)
    pair_left, pair_right = bipartite.max_matching()
    if all(j != _UNMATCHED for j in pair_right):
        heads = tuple(
            bipartite.copy_vertex[w] if w != _UNMATCHED else e[0]
            for w, e in zip(pair_left, hypergraph.edges)
        )
        return OrientationResult(oriented=DirectedHypergraph(hypergraph, heads))
    return OrientationResult(
        violator=bipartite.deficiency_witness(pair_left, pair_right)
    )


def floor_demand(hypergraph: Hypergraph, k: int) -> DemandFunction:
    """The demand function v -> floor(degree(v) / k).

    Requires k >= rank: the feasibility argument charges each hyperedge at
    most |e| * (1/k) <= 1 against the incident-edge count.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if k < hypergraph.rank():
        raise ValueError(f"k={k} is below the rank {hypergraph.rank()}")
    return DemandFunction(tuple(d // k for d in hypergraph.degrees()))


def orient_floor(hypergraph: Hypergraph, k: int = None) -> DirectedHypergraph:
    """Orientation with indegree(v) >= floor(degree(v)/k) for every v.

    ``k`` defaults to the rank.  Floor demands are always feasible for
    k >= rank (each hyperedge meets at most k vertices, so no vertex set
    can demand more heads than it has incident hyperedges), so a violator
    outcome here means the implementation is broken: it raises
    :class:`InternalError`.
    """
    if hypergraph.num_edges == 0:
        return DirectedHypergraph(hypergraph, ())
    if k is None:
        k = hypergraph.rank()
    result = orient_with_demands(hypergraph, floor_demand(hypergraph, k))
    if not result.is_oriented:
        raise InternalError(
            f"floor demands must be feasible for k={k}, got violator {result.violator}"
        )
    return result.oriented
