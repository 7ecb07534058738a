"""Shared oracles and instance builders for the test suite.

Everything here is deliberately naive: exhaustive searches and first
principles definitions that the fast implementations are judged against.
"""

import collections
import itertools
import json
import os
import random
import sys
from pathlib import Path

import hypershrink
from hypershrink import ColouredGraph, Hypergraph
from hypershrink import orientation, rainbow
from hypershrink.core import FormatError, ValidationReport, Violation, _require_valid
from hypershrink.orientation import _incidence, _orient
from hypershrink.rainbow import UnionFind
from hypershrink.shrink import VerificationCheck, VerificationReport

H1 = Hypergraph(4, ((0, 1, 2), (1, 2, 3), (2, 3)))

PATH3 = Hypergraph(3, ((0, 1), (1, 2)))

TRIANGLE3 = Hypergraph(3, ((0, 1), (0, 2), (1, 2)))

TRIANGLE4 = Hypergraph(4, ((0, 1), (0, 2), (1, 2)))

NESTED4 = Hypergraph(4, ((0, 1), (0, 1, 2), (0, 1, 3)))

SINGLE_BIG3 = Hypergraph(3, ((0, 1, 2),))

STAR7 = Hypergraph(7, ((0, 1, 2), (0, 3, 4), (0, 5, 6)))


def cli_env() -> dict:
    """Environment for a child ``python -m hypershrink.cli`` process.

    ``PYTHONPATH`` starts with the directory holding the ``hypershrink``
    this process imported, so the child runs the same code from any
    working directory, whether the package is installed or on a relative
    ``PYTHONPATH`` such as ``src``.  Any existing ``PYTHONPATH`` follows.
    """
    env = dict(os.environ)
    paths = [str(Path(hypershrink.__file__).resolve().parent.parent)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def component_count(n: int, pairs) -> int:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count = n
    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            count -= 1
    return count


def is_spanning_tree(n: int, pairs) -> bool:
    return len(pairs) == n - 1 and component_count(n, pairs) == 1


def brute_orientation_exists(hypergraph: Hypergraph, demands) -> bool:
    """Whether some choice of one head per hyperedge gives every vertex v
    indegree >= demands[v], by trying every head tuple."""
    for heads in itertools.product(*hypergraph.edges):
        indegree = [0] * hypergraph.n
        for h in heads:
            indegree[h] += 1
        if all(ind >= demands[v] for v, ind in enumerate(indegree)):
            return True
    return False


def brute_rainbow_tree_exists(graph: ColouredGraph) -> bool:
    """Check all n-1 edge subsets for a rainbow spanning tree."""
    if graph.n == 1:
        return True
    for subset in itertools.combinations(graph.edges, graph.n - 1):
        colours = {c for _, _, c in subset}
        if len(colours) < len(subset):
            continue
        if is_spanning_tree(graph.n, [(u, v) for u, v, _ in subset]):
            return True
    return False


def clique_graph(hypergraph: Hypergraph) -> ColouredGraph:
    """One complete graph per hyperedge, all its pairs coloured by the
    hyperedge index."""
    edges = []
    for i, e in enumerate(hypergraph.edges):
        for a, b in itertools.combinations(e, 2):
            edges.append((a, b, i))
    return ColouredGraph(hypergraph.n, tuple(edges))


def brute_is_hypertree(hypergraph: Hypergraph) -> bool:
    """Subset-count definition checked verbatim over all nonempty X."""
    n = hypergraph.n
    if hypergraph.num_edges != n - 1:
        return False
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            inside = sum(1 for e in hypergraph.edges if set(e) <= set(subset))
            if inside > size - 1:
                return False
    return True


def random_valid_hypergraph(rng: random.Random, n_max: int = 12, m_max: int = 24) -> Hypergraph:
    """Arbitrary simple hypergraph: distinct edges of size >= 2."""
    n = rng.randint(2, n_max)
    m = rng.randint(1, min(m_max, 2 * n))
    seen = set()
    edges = []
    for _ in range(m):
        size = rng.randint(2, min(n, rng.choice((2, 3, 3, 4, 5))))
        edge = tuple(sorted(rng.sample(range(n), size)))
        if frozenset(edge) in seen:
            continue
        seen.add(frozenset(edge))
        edges.append(edge)
    if not edges:
        edges.append((0, 1))
    return Hypergraph(n, tuple(edges))


def random_tree_count_hypergraph(rng: random.Random, n: int) -> Hypergraph:
    """Random simple hypergraph with exactly n-1 edges (may not be a hypertree)."""
    if n == 1:
        return Hypergraph(1, ())
    universe = []
    for size in range(2, n + 1):
        universe.extend(itertools.combinations(range(n), size))
    picked = rng.sample(range(len(universe)), n - 1)
    return Hypergraph(n, tuple(universe[i] for i in sorted(picked)))


def sweep_tree_count_hypergraphs(n: int, max_rank: int = None) -> tuple:
    """Check every simple hypergraph on n >= 1 vertices with n - 1 hyperedges,
    each of size at most ``max_rank`` (any size if None), against the
    exhaustive oracles: ``(tally, disagreements)``.

    Every labelling is swept at once, so the small-scope hypothesis (most
    bugs show on some small input) is tested up to this size, not sampled:

    - ``is_hypertree`` agrees with ``is_hypertree_bruteforce``;
    - a hypertree's ``shrink_hypertree`` passes ``verify_shrinking`` at
      k = rank (1 if edgeless) and at k = rank + 1, and every other
      hypergraph is refused with ``NotAHypertreeError``;
    - for n <= 4, ``orient_with_demands`` agrees with an exhaustive head
      search on every demand vector in {0, 1, 2}^n.  Its heads are members
      meeting the demands, and each violator's certified counts equal the
      public ``DemandFunction.sum_over`` and
      ``Hypergraph.incident_edge_count``, with f(F) > e*(F).

    ``tally`` counts the hypergraphs, the hypertrees and the demand
    vectors; ``disagreements`` lists one line per failed check.
    """
    tally = collections.Counter()
    disagreements = []
    universe = [
        e for size in range(2, min(n, max_rank or n) + 1) for e in itertools.combinations(range(n), size)
    ]
    for edges in itertools.combinations(universe, n - 1):
        hg = Hypergraph(n, edges)
        tally["hypergraphs"] += 1
        answer = hypershrink.is_hypertree(hg)
        if answer != bool(hypershrink.is_hypertree_bruteforce(hg)):
            disagreements.append(f"{hg}: is_hypertree answers {answer}")
        if answer:
            tally["hypertrees"] += 1
            for k in {max(hg.rank(), 1), hg.rank() + 1}:
                report = hypershrink.verify_shrinking(hg, hypershrink.shrink_hypertree(hg, k), k)
                if not report:
                    disagreements.append(f"{hg}: shrink at k={k} fails\n{report}")
        else:
            try:
                hypershrink.shrink_hypertree(hg)
                disagreements.append(f"{hg}: shrink accepts a non-hypertree")
            except hypershrink.NotAHypertreeError:
                pass
        if n > 4:
            continue
        indegrees = {tuple(map(heads.count, range(n))) for heads in itertools.product(*edges)}
        for values in itertools.product(range(3), repeat=n):
            tally["demand vectors"] += 1
            demands = hypershrink.DemandFunction(values)
            feasible = any(all(map(int.__ge__, d, values)) for d in indegrees)
            result = hypershrink.orient_with_demands(hg, demands)
            if result.is_oriented != feasible:
                disagreements.append(f"{hg}, demands {values}: oriented is {result.is_oriented}")
            elif result.is_oriented:
                heads = result.oriented.heads
                if not all(map(tuple.__contains__, edges, heads)) or not all(
                    map(int.__ge__, map(heads.count, range(n)), values)
                ):
                    disagreements.append(f"{hg}, demands {values}: heads {heads}")
            else:
                F = result.violator
                counts = (demands.sum_over(F), hg.incident_edge_count(F))
                if result._certificate != counts or counts[0] <= counts[1]:
                    disagreements.append(
                        f"{hg}, demands {values}: violator {F} certified as {result._certificate}, counted {counts}"
                    )
    return tally, disagreements


def break_hypertree(hg: Hypergraph) -> Hypergraph:
    """Add a pair {u, w} beside two pairs {u, v} and {v, w} and drop a
    hyperedge disjoint from {u, v, w}.  The edge count stays n - 1 while
    X = {u, v, w} holds three hyperedges, more than |X| - 1, so the result
    is certified not to be a hypertree."""
    return broken_with_triangle(hg)[0]


def broken_with_triangle(hg: Hypergraph) -> tuple:
    """``(broken, (u, v, w))``: :func:`break_hypertree`'s result and the
    three vertices of its certified triangle."""
    pairs_at = {}
    for e in hg.edges:
        if len(e) == 2:
            for v in e:
                pairs_at.setdefault(v, []).append(e)
    v = min(x for x, at in pairs_at.items() if len(at) >= 2)
    (u,) = set(pairs_at[v][0]) - {v}
    (w,) = set(pairs_at[v][1]) - {v}
    triangle = {u, v, w}
    dropped = next(e for e in hg.edges if not set(e) & triangle)
    edges = [e for e in hg.edges if e != dropped] + [tuple(sorted((u, w)))]
    broken = Hypergraph(hg.n, tuple(sorted(edges)))
    inside = [e for e in broken.edges if set(e) <= triangle]
    # an explicit check, not an assert: pytest does not rewrite this
    # module, so an assert here would vanish under python -O
    if len(inside) != 3 or broken.num_edges != hg.n - 1:
        raise AssertionError("the break did not produce a certified non-hypertree")
    return broken, (u, v, w)


def relabelled(hg: Hypergraph, order) -> Hypergraph:
    """``hg`` with each vertex v renamed ``order[v]``, its hyperedges
    sorted again."""
    return Hypergraph(hg.n, tuple(sorted(tuple(sorted(order[v] for v in e)) for e in hg.edges)))


def four_labellings(n: int) -> list:
    """The identity, the reversal and two seeded random permutations of
    range(n), as lists ``order`` for :func:`relabelled`."""
    orders = [list(range(n)), list(range(n - 1, -1, -1))]
    for seed in (1, 2):
        order = list(range(n))
        random.Random(seed).shuffle(order)
        orders.append(order)
    return orders


def moved_to_an_end(n: int, vertices, first: bool = True) -> list:
    """An ``order`` for :func:`relabelled` that gives ``vertices`` the
    first labels (or the last ones), in the order given, and every other
    vertex the remaining labels in its own order."""
    vertices = list(vertices)
    moved = set(vertices)
    rest = [v for v in range(n) if v not in moved]
    order = [0] * n
    for label, v in enumerate(vertices + rest if first else rest + vertices):
        order[v] = label
    return order


def random_edge_family(rng: random.Random, n: int) -> Hypergraph:
    """n - 1 distinct random hyperedges of 2 to 4 vertices on n >= 2
    vertices.  Unlike random_tree_count_hypergraph, whose large
    hyperedges make most draws hypertrees, many of these are not."""
    seen = set()
    while len(seen) < n - 1:
        size = rng.randint(2, min(4, n))
        seen.add(tuple(sorted(rng.sample(range(n), size))))
    return Hypergraph(n, tuple(sorted(seen)))


def reference_greedy_heads(hypergraph: Hypergraph, need: list) -> list:
    """The greedy head pass of the orientation stage, one ``max`` per
    hyperedge: each hyperedge is headed at its first member with the most
    unmet need, which is then lowered by one in place.

    Under tight demands (``sum(need)`` is the hyperedge count) forced
    heads come first: a vertex v with 0 < need[v] = free(v), the number
    of unheaded hyperedges containing v, heads all of them.  A queue,
    served first in, first out, starts with the forced vertices in
    order, and after each greedy head with the members that head forced;
    each hyperedge a forced vertex takes queues its members forced then.
    Free counts are recounted from the heads every time."""
    edges = hypergraph.edges
    heads = [None] * len(edges)

    def free(v):
        return sum(1 for i, e in enumerate(edges) if heads[i] is None and v in e)

    def forced(vertices):
        return [v for v in vertices if 0 < need[v] == free(v)]

    def cascade(queue):
        for v in queue:
            for i, e in enumerate(edges):
                if heads[i] is None and v in e and 0 < need[v] == free(v):
                    heads[i] = v
                    need[v] -= 1
                    # v itself may be queued again; it is served already then
                    queue.extend(forced(e))

    tight = sum(need) == len(edges)
    if tight:
        cascade(forced(range(hypergraph.n)))
    for i, e in enumerate(edges):
        if heads[i] is None:
            head = max(e, key=need.__getitem__)
            need[head] -= 1
            heads[i] = head
            if tight:
                cascade(forced(e))
    return heads


def reference_repair(v: int, heads: list, need: list, incident: list):
    """The orientation stage's repair search with a ``deque`` for its
    queue: breadth first from the short vertex v over x -> heads[i], i a
    hyperedge at x, to the first vertex with need < 0, whose path hands
    each head one step back (in place).  Returns None on success, else
    the dict of the vertices reached, each mapped to the (vertex,
    hyperedge) it was reached through (None for v)."""
    came_from = {v: None}
    queue = collections.deque([v])
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


def reference_two_sided_repair(v: int, heads: list, need: list, incident: list, edges: tuple, spares: dict):
    """The orientation stage's two-sided repair search with a ``deque``
    per side.  A level is everything a side's queue holds when the side
    is expanded.  The backward side starts from ``spares`` (the vertices
    with need < 0, in vertex order) and steps from y to every member of
    the hyperedges headed at y, in hyperedge order; it is expanded
    whenever its queue is nonempty and shorter than the forward one.  The
    forward side steps as :func:`reference_repair`'s search does.  A
    vertex labelled by both sides, or a spare reached forwards, joins
    them, and every head on the path moves one step back (in place); a
    spare left with need 0 is deleted from ``spares``.  Returns
    ``(reached, ahead, behind)``: ``reached`` is None on success, else the
    dict the forward side reached, run alone to exhaustion once either
    side is empty; ``ahead`` and ``behind`` count the vertices each side
    labelled, the spares that start the backward side left out."""
    forward = {v: None}  # vertex -> (vertex it was reached from, hyperedge)
    backward = {}  # vertex -> (vertex it steps to, hyperedge)
    ahead, behind = collections.deque([v]), collections.deque(spares)

    def joined(w):
        moves = []
        x = w
        while forward[x] is not None:
            previous, i = forward[x]
            moves.append((i, previous))
            x = previous
        x = w
        while x in backward:
            nearer, i = backward[x]
            moves.append((i, x))
            x = nearer
        for i, head in moves:
            heads[i] = head
        need[v] -= 1
        need[x] += 1
        if need[x] == 0:
            del spares[x]
        return None, len(forward), len(backward)

    while ahead:
        if behind and len(behind) < len(ahead):
            for _ in range(len(behind)):
                y = behind.popleft()
                for i in sorted(i for i in incident[y] if heads[i] == y):
                    for x in edges[i]:
                        if x not in backward and need[x] >= 0:
                            backward[x] = (y, i)
                            if x in forward:
                                return joined(x)
                            behind.append(x)
            if not behind:
                break
            continue
        for _ in range(len(ahead)):
            x = ahead.popleft()
            for i in incident[x]:
                y = heads[i]
                if y not in forward:
                    forward[y] = (x, i)
                    if need[y] < 0 or y in backward:
                        return joined(y)
                    ahead.append(y)
    while ahead:  # the backward side ran dry: no path, so finish the forward one
        x = ahead.popleft()
        for i in incident[x]:
            y = heads[i]
            if y not in forward:
                forward[y] = (x, i)
                ahead.append(y)
    return forward, len(forward), len(backward)


def random_coloured_graph(rng: random.Random, n_max: int = 8, c_max: int = 12) -> ColouredGraph:
    """Random edge-coloured simple graph with dense colour ids."""
    n = rng.randint(1, n_max)
    pairs = list(itertools.combinations(range(n), 2))
    edges = []
    seen = set()
    for u, v in pairs:
        for _ in range(rng.randint(0, 2)):
            c = rng.randrange(c_max)
            if (u, v, c) not in seen:
                seen.add((u, v, c))
                edges.append((u, v, c))
    used = sorted({c for _, _, c in edges})
    remap = {c: i for i, c in enumerate(used)}
    return ColouredGraph(n, tuple((u, v, remap[c]) for u, v, c in edges))


def sort_key_greedy(graph: ColouredGraph) -> tuple:
    """The greedy rainbow seed as one scan of every edge sorted by (class
    size, colour, u, v), keeping an edge iff its colour is unused and it
    joins two components.  Returns the kept edge indices in scan order and
    the number of components left."""
    edges = graph.edges
    size = collections.Counter(c for _, _, c in edges)
    order = sorted(
        range(len(edges)), key=lambda i: (size[edges[i][2]], edges[i][2]) + edges[i][:2]
    )
    parent = list(range(graph.n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    used = set()
    chosen = []
    for i in order:
        u, v, c = edges[i]
        if c in used:
            continue
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            used.add(c)
            chosen.append(i)
    return chosen, graph.n - len(chosen)


def rooted_forest(graph: ColouredGraph, seed) -> tuple:
    """The forest of edge indices ``seed`` rooted by a depth-first search
    from each vertex not yet reached, in ascending order, so that every
    component is rooted at its least vertex.  Returns ``parent`` and
    ``parent_edge`` (-1 at each root) and a union-find of the components:
    the starting state of the rainbow engine, built for any seed."""
    n = graph.n
    uf = UnionFind(n)
    neighbours = [[] for _ in range(n)]
    for i in seed:
        u, v, _ = graph.edges[i]
        uf.union(u, v)
        neighbours[u].append((v, i))
        neighbours[v].append((u, i))
    parent, parent_edge = [-1] * n, [-1] * n
    rooted = [False] * n
    for r in range(n):
        if rooted[r]:
            continue
        rooted[r] = True
        stack = [r]
        while stack:
            x = stack.pop()
            for y, i in neighbours[x]:
                if not rooted[y]:
                    rooted[y] = True
                    parent[y], parent_edge[y] = x, i
                    stack.append(y)
    return parent, parent_edge, uf


def count_repairs(monkeypatch) -> list:
    """A list that gains the short vertex of each repair search
    (``orientation._repair``)."""
    searches = []
    repair = orientation._repair
    monkeypatch.setattr(orientation, "_repair", lambda *args: searches.append(args[0]) or repair(*args))
    return searches


def count_incidence_builds(monkeypatch) -> list:
    """Wrap ``orientation._incidence`` in every package module that holds
    it so that each build of a hypergraph's incidence lists appends that
    hypergraph to the returned list; a look-up of remembered lists
    appends nothing."""
    builds = []

    def counted(hypergraph):
        if "_incident" not in vars(hypergraph):
            builds.append(hypergraph)
        return _incidence(hypergraph)

    for name, module in list(sys.modules.items()):
        if name.startswith("hypershrink.") and getattr(module, "_incidence", None) is _incidence:
            monkeypatch.setattr(module, "_incidence", counted)
    return builds


def reference_orientation_seed(graph: ColouredGraph) -> tuple:
    """The rainbow orientation seed on any coloured graph, each colour
    class read as the hyperedge of its endpoints: the package's 0/1
    orientation heads the classes (demand 0 at vertex 0, 1 elsewhere), and
    a breadth-first search from vertex 0, then from each vertex still
    unreached in order, moves from x to g = ``heads[c]`` for each colour c
    at x when g is unreached and ``(min(x, g), max(x, g), c)`` is an edge,
    looked up in a dict of every edge, and keeps that edge.  Returns the
    kept edge indices, the search trees as ``parent`` and ``parent_edge``
    arrays (-1 at each root) and the union-find of the trees."""
    edges, n = graph.edges, graph.n
    ends = tuple(tuple(sorted({x for i in cl for x in edges[i][:2]})) for cl in graph._classes)
    hypergraph = Hypergraph(n, ends)
    heads, _ = _orient(hypergraph, [0] + [1] * (n - 1))
    incident = _incidence(hypergraph)
    index = {edge: i for i, edge in enumerate(edges)}
    uf = UnionFind(n)
    parent, parent_edge = [-1] * n, [-1] * n
    chosen = []
    for root in range(n):
        if parent_edge[root] != -1:
            continue
        tree = [root]
        for x in tree:
            for c in incident[x]:
                g = heads[c]
                if g > root and parent_edge[g] == -1:
                    i = index.get((x, g, c) if x < g else (g, x, c))
                    if i is not None:
                        parent[g], parent_edge[g] = x, i
                        uf.union(root, g)
                        chosen.append(i)
                        tree.append(g)
    return chosen, parent, parent_edge, uf


def reference_hub_like(hypergraph: Hypergraph) -> bool:
    """Whether some vertex v has k * f * f > n for f = floor(d(v) / k),
    k the largest hyperedge size (1 if edgeless), the degrees counted
    member by member."""
    k = max([len(e) for e in hypergraph.edges] + [1])
    degrees = collections.Counter(v for e in hypergraph.edges for v in e)
    return any(k * (d // k) ** 2 > hypergraph.n for d in degrees.values())


def reference_rainbow_forest(graph: ColouredGraph, base: Hypergraph) -> tuple:
    """The rainbow tiers on a coloured graph, in the package's order for
    the hypergraph ``base`` whose star expansion it is, each from its
    reference where it has one: on a hub-like base the sort-key scan
    where it spans, and otherwise, or where the scan leaves components,
    the reference orientation seed where it spans, else the package's
    engine augmenting from that seed's search trees.  Returns the
    forest's triples, sorted."""
    hub_like = reference_hub_like(base)
    if hub_like:
        chosen, components = sort_key_greedy(graph)
    if not hub_like or components > 1:
        chosen, parent, parent_edge, uf = reference_orientation_seed(graph)
        if uf.components > 1:
            engine = rainbow._RainbowEngine(graph, parent, parent_edge, uf)
            while uf.components > 1 and engine.augment():
                pass
            chosen = engine.forest()
    return tuple(sorted(graph.edges[i] for i in chosen))


# ---------------------------------------------------------------------------
# Per-edge reference copies of the JSON parse, validate, verify_shrinking
# and shrinking_to_json, one Python step per hyperedge or vertex.  The
# package decides with whole-column passes; its hypergraphs, reports and
# JSON must match these byte for byte.
# ---------------------------------------------------------------------------


def reference_hypergraph_from_json(text: str) -> Hypergraph:
    """The JSON parse as one plain type check per edge, then every edge
    sorted.  Expects an object whose "n" is a vertex count in range."""
    data = json.loads(text)
    for i, e in enumerate(data["edges"]):
        if not isinstance(e, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in e
        ):
            raise FormatError(f"edge {i} must be a list of integers")
    return Hypergraph(data["n"], tuple(tuple(sorted(e)) for e in data["edges"]))


def reference_validate(hypergraph: Hypergraph) -> ValidationReport:
    problems = []
    seen = {}
    n = hypergraph.n
    for i, e in enumerate(hypergraph.edges):
        distinct = tuple(sorted(set(e)))
        if len(distinct) < 2:
            problems.append(Violation("loop", i, f"edge {list(e)} has size {len(distinct)}"))
        if distinct and (distinct[0] < 0 or distinct[-1] >= n):
            problems.append(Violation("vertex-range", i, f"edge {list(e)} leaves [0, {n})"))
        if e != distinct:
            problems.append(Violation("unsorted", i, f"edge {list(e)} is not strictly sorted"))
        if distinct in seen:
            problems.append(
                Violation("duplicate", i, f"edge {list(e)} repeats edge {seen[distinct]}")
            )
        else:
            seen[distinct] = i
    return ValidationReport(tuple(problems))


def reference_verify_shrinking(hypergraph, shrinking, k=None) -> VerificationReport:
    _require_valid(hypergraph)
    n, m = hypergraph.n, hypergraph.num_edges
    if k is None:
        k = max(hypergraph.rank(), 1)
    elif k < 1:
        raise ValueError("k must be positive")
    checks = []
    tree = shrinking.tree
    tree_ok = len(tree) == n - 1
    detail = "" if tree_ok else f"{len(tree)} edges for {n} vertices"
    if tree_ok:
        parent = list(range(n))
        for u, v in tree:
            if not (0 <= u < n and 0 <= v < n and u != v):
                tree_ok, detail = False, f"bad edge ({u}, {v})"
                break
            a, b = u, v
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a == b:
                tree_ok, detail = False, f"cycle closed by ({u}, {v})"
                break
            parent[a] = b
    checks.append(VerificationCheck("spanning-tree", tree_ok, detail))
    bad = [
        i
        for i, (j, e) in enumerate(zip(shrinking.assignment, hypergraph.edges))
        if not (0 <= j < len(tree) and tree[j][0] in e and tree[j][1] in e)
    ]
    detail = f"hyperedges {bad} do not contain their tree edge" if bad else ""
    if len(shrinking.assignment) != m:
        entries = f"{len(shrinking.assignment)} assignment entries for {m} hyperedges"
        detail = f"{detail}; {entries}" if detail else entries
    checks.append(VerificationCheck("containment", not detail, detail))
    bijective = len(shrinking.assignment) == m and sorted(
        shrinking.assignment
    ) == list(range(len(tree)))
    checks.append(VerificationCheck("bijection", bijective))
    hyper_deg = hypergraph.degrees()
    tree_deg = reference_tree_degrees(shrinking, n)
    if n == 1:
        checks.append(VerificationCheck("degree-floor-bound", True, "single vertex"))
        checks.append(VerificationCheck("halving-corollary", True, "single vertex"))
        bounds = []
    else:
        floor_low = [v for v in range(n) if tree_deg[v] < max(1, hyper_deg[v] // k)]
        half_low = [v for v in range(n) if 2 * k * tree_deg[v] < hyper_deg[v]]
        bounds = [
            ("degree-floor-bound", floor_low, f"max(1, floor(d/{k}))"),
            ("halving-corollary", half_low, f"d/(2*{k})"),
        ]
    if hypergraph.rank() == 3:
        hundredth_low = [v for v in range(n) if 100 * tree_deg[v] < hyper_deg[v]]
        bounds.append(("hundredth-bound", hundredth_low, "d/100"))
    for name, low, bound in bounds:
        detail = f"vertices {low} fall below {bound}" if low else ""
        checks.append(VerificationCheck(name, not low, detail))
    return VerificationReport(tuple(checks))


def reference_tree_degrees(shrinking, n: int) -> list:
    d = [0] * n
    for u, v in shrinking.tree:
        for x in (u, v):
            if 0 <= x < n:
                d[x] += 1
    return d


def reference_shrinking_to_json(hypergraph, shrinking, k=None) -> str:
    _require_valid(hypergraph)
    if k is None:
        k = max(hypergraph.rank(), 1)
    elif k < 1:
        raise ValueError("k must be positive")
    hyper_deg = hypergraph.degrees()
    return json.dumps(
        {
            "tree": [list(p) for p in shrinking.tree],
            "assignment": list(shrinking.assignment),
            "degrees": {
                "hyper": hyper_deg,
                "tree": reference_tree_degrees(shrinking, hypergraph.n),
            },
            "bound": [max(1, d // k) for d in hyper_deg]
            if hypergraph.n > 1
            else [0] * hypergraph.n,
        }
    )
