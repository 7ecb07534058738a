"""Demand-constrained hypergraph orientation.

Given per-vertex demands f, find an orientation whose indegrees dominate f,
or a certifying vertex set F with f(F) > e*(F) proving none exists.  This
is the indegree-constrained orientation problem, solved by one augmenting
path per missing head (Hakimi 1965) on the hypergraph itself.

A greedy pass heads each hyperedge at its member with the most unmet
demand, the smallest such vertex on a tie.  When the demands are tight
(they total the hyperedge count, as in :func:`is_hypertree`), an
orientation meeting them gives every vertex exactly its demand, so
forced heads come first, after Karp and Sipser (1981): a vertex needing
as many heads as it has unheaded hyperedges takes them all, which may
force their other members in turn.  The cascade runs before the greedy
pass and again after each greedy head.  Slack demands keep the plain
greedy pass.  A repair pass then serves each vertex v still short, one
missing head at a time, along an augmenting path: from v over the moves
"x -> head of a hyperedge containing x" to a spare vertex, one heading
more hyperedges than it needs, with every hyperedge on the path handing
its head one step back.  So v gains a head, the spare gives one up, and
every vertex between keeps its count.

The search grows from both ends (bidirectional search, Pohl 1971;
:func:`_repair`): breadth first from v, and backwards from the spares,
from y to every member of a hyperedge headed at y, a level of the
smaller frontier at a time, until the two sides meet.  Slack demands
usually leave spares plentiful, so the side from v stays the smaller
one and the search is a plain breadth-first search from v.  Tight ones
(the needs total 0 once every hyperedge is headed) leave exactly as many
spare heads as missing ones, where a search from v alone labels about
n / (spares) vertices.  If no path exists the search from v runs to its
end, and the set F it reached is closed: every hyperedge meeting F is
headed inside F, no vertex of F heads more than it needs and v heads
fewer, so e*(F) < f(F) and F is the violator.

The same stage recognises hypertrees (:func:`is_hypertree`).
:func:`_orient` is the one owner of these heads; :func:`_tight_heads`
keeps its 0/1 heads, which :func:`is_hypertree`, the rainbow seed and the
floor orientation of every non-hub input with |E| = n - 1 start from,
with their violator, the one negative certificate of both ``check`` and
``shrink``, which :func:`_certify` checks once, before it is remembered,
counting e*(F) itself from the trusted ids;
:func:`_incidence` keeps the incidence lists, once per hypergraph.
"""

from itertools import compress, count, repeat
from operator import floordiv

from .core import (
    DemandFunction,
    DirectedHypergraph,
    Hypergraph,
    InternalError,
    _degree_guarantee,
    _degrees,
    _require_valid,
    _Value,
)


class OrientationResult(_Value):
    """Either an orientation meeting the demands or a violating vertex set.

    Exactly one field is set.  When ``violator`` is returned, the set F
    satisfies f(F) > e*(F), certifying that no orientation was missed;
    :func:`orient_with_demands` remembers the certified counts
    ``(f(F), e*(F))`` on it as ``_certificate``, a read-only memo.
    """

    __match_args__ = ("oriented", "violator")

    def __init__(self, oriented: DirectedHypergraph = None, violator: tuple = None):
        if (oriented is None) == (violator is None):
            raise ValueError("exactly one of oriented/violator must be set")
        self.__dict__.update(oriented=oriented, violator=violator)

    @property
    def is_oriented(self) -> bool:
        return self.oriented is not None


def _incidence(hypergraph: Hypergraph) -> list:
    """incident[v]: the indices of the hyperedges containing v, ascending,
    built once per hypergraph and remembered on it, so read only."""
    if (incident := hypergraph.__dict__.get("_incident")) is None:
        incident = [[] for _ in range(hypergraph.n)]
        for i, e in enumerate(hypergraph.edges):
            for v in e:
                incident[v].append(i)
        object.__setattr__(hypergraph, "_incident", incident)
    return incident


def _repair(v: int, heads: list, need: list, incident: list, edges: tuple, spares: dict):
    """Give the short vertex v one more head, by a search from both ends.

    ``spares`` holds the vertices with need < 0, in vertex order.  The
    search grows level by level from v, over the moves x -> heads[i], i a
    hyperedge containing x, and from the spares, backwards: a member x of
    a hyperedge headed at y steps to y.  It always expands the smaller
    frontier, the forward one on a tie, so where the spares outnumber
    every forward level, as slack demands usually leave them, it is a
    plain breadth-first search from v.  Where the sides meet, each head on the path
    v ... spare moves one step back, and a spare left with need 0 leaves
    ``spares``.  If a side runs dry first, no path exists: the forward
    side runs on alone and the closed set it reached is returned, each
    vertex mapped to the (vertex, hyperedge) it was reached through;
    None on success.
    """
    ahead = {v: None}  # vertex -> (x, i): reached from x through hyperedge i
    behind = {}  # vertex -> (y, i): a member of hyperedge i, headed at y
    front, back = [v], spares
    while front:
        level = []
        if back and len(back) < len(front):
            for y in back:
                for i in incident[y]:
                    if heads[i] != y:
                        continue
                    for x in edges[i]:
                        if x in behind or need[x] < 0:
                            continue
                        behind[x] = (y, i)
                        if x in ahead:
                            return _meet(x, v, heads, need, ahead, behind, spares)
                        level.append(x)
            back = level
            continue
        for x in front:
            for i in incident[x]:
                y = heads[i]
                if y in ahead:
                    continue
                ahead[y] = (x, i)
                if need[y] < 0 or y in behind:
                    return _meet(y, v, heads, need, ahead, behind, spares)
                level.append(y)
        front = level
    return ahead


def _meet(w: int, v: int, heads: list, need: list, ahead: dict, behind: dict, spares: dict) -> None:
    """Move each head one step back along the path v ... w ... spare that
    :func:`_repair` found: None."""
    need[v] -= 1
    y = w
    while y != v:
        x, i = ahead[y]
        heads[i] = x
        y = x
    while w in behind:
        y, i = behind[w]
        heads[i] = w
        w = y
    need[w] += 1
    if need[w] == 0:
        del spares[w]


def _neediest(e: tuple, need: list) -> int:
    """The head rule of both greedy passes: the first member of ``e``
    with the largest need, as ``max(e, key=need.__getitem__)`` returns it,
    by a plain loop, which skips a key call per member."""
    head = e[0]
    most = need[head]
    for v in e:
        if need[v] > most:
            head = v
            most = need[v]
    return head


def _forced_heads(edges: tuple, need: list, incident: list) -> list:
    """The greedy pass with forced heads, for tight demands.

    ``free[v]`` counts the unheaded hyperedges containing v.  A vertex
    with 0 < need[v] = free[v] is forced: it must head every one of them,
    so it takes them all, and each one lowers the free count of its other
    members, which may force them in turn.  Forced vertices are served
    first in, first out, by a cascade inline in the greedy loop: over the
    vertices forced at the start, in order, and again after each greedy
    head, over the members of that hyperedge it forced.  The greedy pass
    heads each hyperedge still unheaded at :func:`_neediest`'s member, so
    every hyperedge has a head before any repair runs.
    """
    free = list(map(len, incident))
    heads = [-1] * len(edges)
    forced = [v for v, f in enumerate(free) if 0 < need[v] == f]
    for i, e in enumerate(edges):
        if forced:
            for v in forced:  # grows while it is read: first in, first out
                if need[v] <= 0 or free[v] != need[v]:
                    continue  # served already, or a member went elsewhere
                need[v] = 0  # v takes its free[v] = need[v] hyperedges below
                for j in incident[v]:
                    if heads[j] == -1:
                        heads[j] = v
                        for u in edges[j]:
                            free[u] -= 1
                            if 0 < need[u] == free[u]:
                                forced.append(u)
            forced = []
        if heads[i] != -1:
            continue
        head = _neediest(e, need)
        need[head] -= 1
        heads[i] = head
        # the head was not forced, so need < free or need <= 0 stays true
        for u in e:
            free[u] -= 1
            if 0 < need[u] == free[u]:
                forced.append(u)
    return heads


def _orient(hypergraph: Hypergraph, need: list) -> tuple:
    """The greedy pass, then the repair searches in vertex order.

    ``need[v]`` starts as the demand f(v) and is updated in place to
    f(v) - indegree(v): positive while v is short, negative while v heads
    a spare hyperedge.  Tight demands (their total is the hyperedge
    count) get forced heads (:func:`_forced_heads`); slack ones the plain
    greedy pass.  Returns ``(heads, violator)``, where ``violator`` is
    None on success and otherwise the sorted closed set reached by the
    first failed search.  Only forced heads and repairs read the
    incidence lists, so slack demands that leave no vertex short (a hub's
    floor demands, or any demands on an edgeless input) never build them.
    """
    edges = hypergraph.edges
    if edges and sum(need) == len(edges):
        heads = _forced_heads(edges, need, _incidence(hypergraph))
    else:
        heads = []
        for e in edges:
            # pairs and triples inline _neediest, whose call a hub would feel
            if len(e) == 2:
                a, b = e
                head = a if need[a] >= need[b] else b
            elif len(e) == 3:
                a, b, c = e
                head = a if need[a] >= need[b] else b
                head = head if need[head] >= need[c] else c
            else:
                head = _neediest(e, need)
            need[head] -= 1
            heads.append(head)
        if max(need, default=0) <= 0:
            return heads, None
    return _repairs(hypergraph, heads, need)


def _repairs(hypergraph: Hypergraph, heads: list, need: list) -> tuple:
    """Repair each short vertex in vertex order (:func:`_repair`), from
    the spares listed once here if any vertex is short; both lists are
    read, in vertex order, from one pass for the vertices with nonzero
    need: ``(heads, violator)``."""
    unmet = list(compress(count(), need))
    # a repair lowers the need of the vertex it serves and raises a spare's
    # to at most 0, so the vertices short now are all that will be
    short = [v for v in unmet if need[v] > 0]
    if not short:
        return heads, None
    incident, edges = _incidence(hypergraph), hypergraph.edges
    spares = {y: None for y in unmet if need[y] < 0}
    for v in short:
        while need[v] > 0:
            if (reached := _repair(v, heads, need, incident, edges, spares)) is not None:
                return heads, tuple(sorted(reached))
    return heads, None


def _certify(hypergraph: Hypergraph, violator: tuple, demand: int) -> tuple:
    """The certified counts ``(f(F), e*(F))`` for F = ``violator`` and
    f(F) = ``demand``; e*(F), the hyperedges meeting F, is counted here
    from its trusted ids.  Raise :class:`InternalError` unless f(F)
    exceeds e*(F)."""
    edges = hypergraph.edges
    if demand <= (met := len(edges) - sum(map(set(violator).isdisjoint, edges))):
        raise InternalError(f"the violator {violator} has f(F) = {demand} <= e*(F)")
    return demand, met


def _tight_heads(hypergraph: Hypergraph) -> tuple:
    """``_orient``'s ``(heads, violator)`` for demand 0 at vertex 0 and 1
    elsewhere, built once per hypergraph and remembered on it, so read only,
    once :func:`_certify` passes the violator (nothing is remembered if not)."""
    if (tight := hypergraph.__dict__.get("_tight")) is None:
        tight = _orient(hypergraph, [0] + [1] * (hypergraph.n - 1))
        if (violator := tight[1]) is not None:
            _certify(hypergraph, violator, len(violator) - (0 in violator))
        object.__setattr__(hypergraph, "_tight", tight)
    return tight


def _hub_like(hypergraph: Hypergraph) -> bool:
    """Whether a vertex has floor demand f = d // k (k the rank, 1 if
    edgeless) with k * f * f > n, so that from the tight heads it needs f
    repairs, each longer than the last: a measured rule.  Remembered on
    the hypergraph, which the shrink path asks three times."""
    if (hub := hypergraph.__dict__.get("_hub")) is None:
        k = max(hypergraph.rank(), 1)
        f = max(_degrees(hypergraph), default=0) // k
        hub = k * f * f > hypergraph.n
        object.__setattr__(hypergraph, "_hub", hub)
    return hub


def orient_with_demands(hypergraph: Hypergraph, demands) -> OrientationResult:
    """Orient so that every vertex v has indegree >= f(v), if possible.

    Runs the greedy pass, with forced heads first when the demands are
    tight, then the repair searches in vertex order (see the module
    docstring), so the result is deterministic.  The violator is the closed
    set the first failed search reached, once :func:`_certify` passes it;
    the counts it certified are remembered on the result.
    """
    _require_valid(hypergraph)
    if not isinstance(demands, DemandFunction):
        demands = DemandFunction(tuple(demands))
    if len(demands) != hypergraph.n:
        raise ValueError(
            f"demand function has {len(demands)} entries for {hypergraph.n} vertices"
        )
    # cheap necessary condition: total demand cannot exceed the edge count,
    # and every hyperedge meets F = V
    if (total := demands.total()) > (m := hypergraph.num_edges):
        return OrientationResult._trusted(None, tuple(range(hypergraph.n)), _certificate=(total, m))
    heads, violator = _orient(hypergraph, list(demands.values))
    if violator is not None:
        certificate = _certify(hypergraph, violator, sum(map(demands.values.__getitem__, violator)))
        return OrientationResult._trusted(None, violator, _certificate=certificate)
    # heads as built: see orient_floor
    return OrientationResult._trusted(DirectedHypergraph._trusted(hypergraph, tuple(heads)), None)


def is_hypertree(hypergraph: Hypergraph) -> bool:
    """Whether ``hypergraph`` is a hypertree, decided by one orientation.

    Returns False unless |E| = n - 1, then orients with demand 0 at
    vertex 0 and 1 everywhere else and returns False on a violator.
    Otherwise it returns whether every vertex is reachable from vertex 0
    by the moves "x -> head of a hyperedge containing x", found by one
    breadth-first search over the heads.  The demands are tight, so the
    orientation takes forced heads first (see :func:`_forced_heads`);
    which orientation meets them does not matter, as the argument below
    holds for any.  The answer is exact, where i(X) counts the
    hyperedges inside X and e*(F) those meeting F:

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
    _require_valid(hypergraph)
    n = hypergraph.n
    if hypergraph.num_edges != n - 1:
        return False
    heads, violator = _tight_heads(hypergraph)
    if violator is not None:
        return False
    incident = _incidence(hypergraph)
    reached = bytearray(n)
    reached[0] = 1
    order = [0]
    for x in order:  # grows while it is read: breadth first
        for i in incident[x]:
            y = heads[i]
            if not reached[y]:
                reached[y] = 1
                order.append(y)
    return len(order) == n


def floor_demand(hypergraph: Hypergraph, k: int) -> DemandFunction:
    """The demand function v -> floor(degree(v) / k).

    Requires k >= rank (``None`` reads as the rank, 1 if edgeless): the
    feasibility argument charges each hyperedge at most |e| * (1/k) <= 1
    against the incident-edge count.
    """
    return DemandFunction(_floor_needs(hypergraph, k)[1])


def _floor_needs(hypergraph: Hypergraph, k) -> tuple:
    """``(k, needs)``: k as :func:`floor_demand` reads and refuses it, and
    floor(degree(v) / k) for every v as a fresh list."""
    k, _ = _degree_guarantee(hypergraph, k)  # refuses an invalid hypergraph, then k < 1
    if k < hypergraph.rank():
        raise ValueError(f"k={k} is below the rank {hypergraph.rank()}")
    return k, list(map(floordiv, _degrees(hypergraph), repeat(k)))


def orient_floor(hypergraph: Hypergraph, k: int = None) -> DirectedHypergraph:
    """Orientation with indegree(v) >= floor(degree(v)/k) for every v.

    ``k`` defaults to the rank, or 1 for an edgeless hypergraph.  Every
    non-hub input with |E| = n - 1 starts from its tight heads (complete
    even where their repairs failed) and repairs what they leave short;
    the rest get :func:`_orient`'s greedy pass.  Floor
    demands are always feasible for k >= rank (each hyperedge meets at
    most k vertices, so no vertex set can demand more heads than it has
    incident hyperedges), so a violator outcome here means the
    implementation is broken: it raises :class:`InternalError`.

    The heads are handed on as built, past the
    :class:`~hypershrink.core.DirectedHypergraph` constructor's checks:
    there is one per hyperedge, and the greedy pass, the forced heads and
    every repair pick it from that hyperedge's own members, which are the
    hypergraph's exact ints.
    """
    k, need = _floor_needs(hypergraph, k)
    if hypergraph.num_edges == hypergraph.n - 1 and not _hub_like(hypergraph):
        heads = _tight_heads(hypergraph)[0]
        for h in heads:
            need[h] -= 1
        heads, violator = _repairs(hypergraph, heads.copy(), need)  # the memo is read only
    else:
        heads, violator = _orient(hypergraph, need)
    if violator is not None:
        raise InternalError(f"floor demands must be feasible for k={k}, got violator {violator}")
    return DirectedHypergraph._trusted(hypergraph, tuple(heads))
