"""Demand-constrained hypergraph orientation.

Given per-vertex demands f, find an orientation whose indegrees dominate f,
or a certifying vertex set F with f(F) > e*(F) proving none exists.  This
is the indegree-constrained orientation problem, solved by one augmenting
path per missing head (Hakimi 1965) on the hypergraph itself.

A greedy pass heads each hyperedge at its member with the most unmet
demand, the smallest such vertex on a tie.  A repair pass then serves each
vertex v still short, one missing head at a time: a breadth-first search
from v over the moves "x -> head of a hyperedge containing x" stops at a
vertex heading more hyperedges than it needs, and every hyperedge on the
path hands its head one step back.  So v gains a head, the end vertex
gives up a spare one, and every vertex between keeps its count.  If the
search ends without such a vertex, the set F it reached is closed: every
hyperedge meeting F is headed inside F, no vertex of F heads more than it
needs and v heads fewer, so e*(F) < f(F) and F is the violator.
"""

from collections import deque
from dataclasses import dataclass

from .core import DemandFunction, DirectedHypergraph, Hypergraph, InternalError


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


def _incidence(hypergraph: Hypergraph) -> list:
    """incident[v]: the indices of the hyperedges containing v, ascending."""
    incident = [[] for _ in range(hypergraph.n)]
    for i, e in enumerate(hypergraph.edges):
        for v in e:
            incident[v].append(i)
    return incident


def _repair(v: int, heads: list, need: list, incident: list):
    """Give the short vertex v one more head.

    Searches breadth first from v over the moves x -> heads[i], i a
    hyperedge containing x, for a vertex y with need[y] < 0 (a spare
    head), then moves each head on the path one step back.  Returns None
    on success, otherwise the closed vertex set the search reached.
    """
    came_from = {v: None}
    queue = deque([v])
    while queue:
        x = queue.popleft()
        for i in incident[x]:
            y = heads[i]
            if y in came_from:
                continue
            came_from[y] = (x, i)
            if need[y] < 0:
                need[y] += 1
                need[v] -= 1
                while y != v:
                    x, i = came_from[y]
                    heads[i] = x
                    y = x
                return None
            queue.append(y)
    return came_from


def orient_with_demands(hypergraph: Hypergraph, demands) -> OrientationResult:
    """Orient so that every vertex v has indegree >= f(v), if possible.

    Runs the greedy pass, then the repair searches in vertex order (see
    the module docstring), so the result is deterministic.  Returns the
    closed set reached by the first failed search as the violator.
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
    # need[v] = f(v) - indegree(v): positive while v is short, negative
    # while v heads a spare hyperedge
    need = list(demands.values)
    heads = []
    for e in hypergraph.edges:
        head = max(e, key=need.__getitem__)
        need[head] -= 1
        heads.append(head)
    incident = _incidence(hypergraph)
    for v in range(hypergraph.n):
        while need[v] > 0:
            reached = _repair(v, heads, need, incident)
            if reached is not None:
                return OrientationResult(violator=tuple(sorted(reached)))
    return OrientationResult(oriented=DirectedHypergraph(hypergraph, heads))


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
