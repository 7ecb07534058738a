"""Edge-coloured graphs and rainbow spanning trees.

A rainbow spanning tree uses every colour at most once.  The finder runs
matroid intersection specialised to the graphic matroid (forests) crossed
with the partition matroid (one edge per colour): grow a rainbow forest
as a seed, then augment along shortest alternating paths in the exchange
graph until the forest spans or no path remains (after Gabow-Stallmann
1985 and Cunningham 1986).  Each augmentation joins two components, so
the fewer the seed leaves, the fewer exchange-graph searches are run.

On a directed hypergraph, read as its star expansion (colour c is
hyperedge c, each edge of it meeting the head), two seed tiers read the
hyperedges and heads directly: on a hub-like base only, a
scarcest-colour-first scan, the answer where it spans; then a search
along the 0/1 heads that :func:`~hypershrink.orientation.is_hypertree`
reads, which a non-hub hypertree's floor heads start from, so there it
spans almost always.  Only then are :func:`star_graph` and the
augmentation engine built, once, from the seed's own search trees; the
engine flips each shortest path in place and labels only the part of
the exchange graph it searches.  A general
:class:`ColouredGraph`, whose colour classes are sorted once when it is
built, goes to the engine from the empty forest.  :func:`star_graph`
refuses an invalid base and then trusts it: it runs no per-edge check
and keeps each colour class as an index range.
"""

from collections import deque
from itertools import accumulate
from operator import itemgetter

from .core import DirectedHypergraph, _exact_int, _exact_int_tuples, _exact_ints, _require_valid, _Value
from .orientation import _hub_like, _incidence, _tight_heads


class UnionFind:
    """Disjoint sets over 0..n-1 with path halving, which alone bounds
    each operation at amortised O(log n) (Tarjan and van Leeuwen 1984);
    ``union`` hangs b's root under a's."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.components = n

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        self.components -= 1
        return True


class ColouredGraph(_Value):
    """Simple graph with colour ids on its edges.

    Edges are ``(u, v, colour)`` triples with ``u < v``; parallel edges
    must differ in colour and colour ids are dense ``0..c-1``.
    ``_classes[c]``: the indices of the colour-c edges in endpoint order.
    """

    __match_args__ = ("n", "edges")

    def __init__(self, n: int, edges: tuple = ()):
        n = _exact_int(n)
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        edges = tuple(edges)
        if _exact_int_tuples(edges, 3) is None:
            edges = tuple([_exact_ints((u, v, c)) for u, v, c in edges])
        seen = set()
        for u, v, c in edges:
            if not (0 <= u < v < n):
                raise ValueError(f"bad endpoints ({u}, {v}) for n={n}")
            if c < 0:
                raise ValueError("colour ids must be non-negative")
            if (u, v, c) in seen:
                raise ValueError(f"repeated edge ({u}, {v}) with colour {c}")
            seen.add((u, v, c))
        colours = set(map(itemgetter(2), edges))
        if colours and len(colours) != max(colours) + 1:
            raise ValueError("colour ids must be dense 0..c-1")
        classes = [[] for _ in colours]
        for i in sorted(range(len(edges)), key=edges.__getitem__):
            classes[edges[i][2]].append(i)
        self.__dict__.update(n=n, edges=edges, _classes=classes)

    @property
    def num_colours(self) -> int:
        return len(self._classes)


class RainbowTree(_Value):
    """A spanning tree whose edges carry pairwise-distinct colours."""

    __match_args__ = ("n", "edges")

    def __init__(self, n: int, edges: tuple = ()):
        n = _exact_int(n)
        edges = tuple(edges)
        if _exact_int_tuples(edges, 3) is None:
            edges = tuple([_exact_ints((u, v, c)) for u, v, c in edges])
        if len(edges) != n - 1:
            raise ValueError(f"{len(edges)} edges cannot span {n} vertices")
        for u, v, c in edges:  # before the union-find, which -1 would index from the end
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}, {c}) has an endpoint outside [0, {n})")
        uf = UnionFind(n)
        if not all(uf.union(u, v) for u, v, _ in edges):
            raise ValueError("edges contain a cycle")
        if len({c for _, _, c in edges}) != len(edges):
            raise ValueError("colours are not pairwise distinct")
        self.__dict__.update(n=n, edges=edges)


def star_graph(directed: DirectedHypergraph) -> ColouredGraph:
    """One star per hyperarc: centre at the head, leaves at the tails, all
    of colour i for hyperarc i.  An invalid base is refused with
    ``ValueError("invalid hypergraph: <report>")``.  A valid one has
    strictly sorted, distinct hyperedges of at least two in-range
    vertices, each holding its head, so every star edge has u < v < n, the
    colours are exactly 0..m-1 and no triple repeats.  So no
    :class:`ColouredGraph` check is run, and each colour class is the
    index range of its star: ``(t, h)`` for the tails below the head, then
    ``(h, t)`` for those above, already in endpoint order.
    """
    _require_valid(directed.base)
    edges = []
    append = edges.append
    for i, (e, h) in enumerate(zip(directed.base.edges, directed.heads)):
        for t in e:
            if t < h:
                append((t, h, i))
            elif t > h:
                append((h, t, i))
    bounds = list(accumulate([len(e) - 1 for e in directed.base.edges], initial=0))
    classes = list(map(range, bounds, bounds[1:]))
    return ColouredGraph._trusted(directed.base.n, tuple(edges), _classes=classes)


def _scan(directed: DirectedHypergraph):
    """First seed tier on a hub-like base: the kept ``(u, v, colour)``
    triples of a scarcest-colour-first scan if they span, else None.

    A colour with few edges has few places to go, so placing the scarcest
    first leaves fewer augmentations to do.  Star c's edges in endpoint
    order join the head to the other members of hyperedge c, ascending,
    so the scan walks the hyperedges stable-sorted by size and each one's
    members ascending (the head joins nothing), keeps the first edge that
    joins two components, and gives up once more hyperedges are left
    without one than the m - (n - 1) a spanning tree can spare.
    """
    members, heads, n = directed.base.edges, directed.heads, directed.base.n
    spare = len(members) - (n - 1)  # hyperedges the scan may still skip
    if spare < 0:
        return None
    parent = list(range(n))  # a local union-find
    chosen = []
    for c in sorted(range(len(members)), key=list(map(len, members)).__getitem__):
        h = heads[c]
        for t in members[c]:
            u, v = t, h
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u != v:
                parent[v] = u
                chosen.append((t, h, c) if t < h else (h, t, c))
                break
        else:
            spare -= 1
            if spare < 0:
                return None
    return chosen


def _orientation_seed(directed: DirectedHypergraph) -> tuple:
    """The seed tier after the scan, or first on a non-hub base: a search
    along a 0/1 orientation of the hyperedges.

    :func:`~hypershrink.orientation._tight_heads` heads each hyperedge
    with demand 0 at vertex 0 and 1 elsewhere, as
    :func:`~hypershrink.orientation.is_hypertree` reads them.  A breadth-first
    search from vertex 0, then from each vertex still unreached in order,
    moves from x to g = ``heads[c]`` for each hyperedge c at x when g is
    unreached and the star centre ``directed.heads[c]`` is x or g (so x g
    is a star edge of colour c), and keeps that edge.  Each vertex is
    reached once, through a hyperedge headed at it, so the colours stay
    distinct and no cycle closes.  Any heads give such a seed, so a failed
    repair only stops the repairs and the engine still grows a maximum
    forest; off hubs, ``shrink_hypertree`` refuses on that failure first.
    An uncertified violator has raised in ``_tight_heads`` before any search.

    Returns the kept triples, the search trees as ``parent`` and
    ``parent_colour`` arrays (-1 at each root, its tree's least vertex)
    and their union-find.
    """
    hypergraph, centre, n = directed.base, directed.heads, directed.base.n
    heads, _ = _tight_heads(hypergraph)
    incident = _incidence(hypergraph)
    uf = UnionFind(n)
    parent, parent_colour = [-1] * n, [-1] * n
    chosen = []
    for root in range(n):
        if parent_colour[root] != -1:
            continue
        tree = [root]
        for x in tree:  # grows while it is read: breadth first
            for c in incident[x]:
                g = heads[c]
                # every vertex up to the root is reached; above it, the hung ones
                if g > root and parent_colour[g] == -1 and centre[c] in (x, g):
                    parent[g], parent_colour[g] = x, c
                    uf.parent[g] = root
                    chosen.append((x, g, c) if x < g else (g, x, c))
                    tree.append(g)
    uf.components = n - len(chosen)
    return chosen, parent, parent_colour, uf


def _parent_edges(directed: DirectedHypergraph, graph: ColouredGraph, parent, parent_colour) -> list:
    """``parent_colour`` as edge indices of ``graph = star_graph(directed)``,
    whose class c is an index range with one edge per member t of
    hyperedge e but its head h, ascending: t's is ``start + e.index(t) - (t > h)``."""
    members, centre = directed.base.edges, directed.heads
    parent_edge = [-1] * len(parent)
    for v, c in enumerate(parent_colour):
        if c != -1:
            t = parent[v] if v == centre[c] else v
            parent_edge[v] = graph._classes[c].start + members[c].index(t) - (t > centre[c])
    return parent_edge


class _RainbowEngine:
    """A rainbow forest kept rooted across exchange-graph augmentations.

    State, taken over from a rooted seed forest and updated in place:
    ``parent``/``parent_edge`` root every forest component (-1 at a
    root), as the orientation seed's search left them; ``uf`` is a
    merge-only union-find of the components; ``owner[c]`` is the forest
    edge of colour c or -1, read off ``parent_edge``, and ``unused`` the
    colours without one, ascending.  An augmentation along a shortest
    path keeps the span of the old forest except that its source joins
    two components, so the partition only coarsens and the source test
    ``uf.find(u) != uf.find(v)`` stays amortised O(log n).  Per-search
    marks are stamps against ``clock``, so nothing of size n or m is
    reset or reallocated between augmentations.
    """

    def __init__(self, graph: ColouredGraph, parent: list, parent_edge: list,
                 uf: UnionFind):
        n = graph.n
        self.edges = graph.edges
        self.classes = graph._classes
        self.parent, self.parent_edge, self.uf = parent, parent_edge, uf
        self.owner = [-1] * len(self.classes)
        for i in parent_edge:
            if i != -1:
                self.owner[self.edges[i][2]] = i
        self.unused = [c for c, i in enumerate(self.owner) if i == -1]
        self.clock = 0
        self.reached = [0] * len(self.edges)  # == clock: labelled this search
        self.label = [-1] * len(self.edges)
        self.skipped = [0] * n  # == clock: parent edge labelled, jump valid
        self.jump = [0] * n
        self.climb = [0] * n  # stamps of the two sides of one path climb
        self.climbs = 0

    def forest(self) -> tuple:
        return tuple(sorted(i for i in self.owner if i != -1))

    def augment(self) -> bool:
        """One exchange-graph augmentation step; True if the forest grew.

        In the exchange graph a non-forest edge x is a *source* when it
        joins two forest components and a *sink* when its colour is
        unused; the arc y -> x (y in the forest) exists when y lies on x's
        tree path, and the arc x -> y when x and y share a colour.
        Flipping a shortest source-sink path keeps the forest a forest and
        the colours distinct, and that holds as well for a path that is
        shortest only among those ending in one colour class.  So the
        search starts from the sinks of the lowest unused colour, which
        usually labels a fraction of the exchange graph, and falls back to
        all sinks before the forest is declared maximum, which keeps the
        negative answer exact.  A search costs O(labelled nodes +
        tree-path climbs); applying the path costs, per edge it adds, the
        climb to the nearer of that edge's endpoints' roots; nothing is
        rebuilt.
        """
        unused = self.unused
        if not unused:
            return False
        source = self._search(self.classes[unused[0]])
        if source == -1 and len(unused) > 1:
            source = self._search([i for c in unused for i in self.classes[c]])
        if source == -1:
            return False
        self._apply(source)
        return True

    def _skip(self, x: int) -> int:
        """The nearest ancestor-or-self of x whose parent edge is not yet
        labelled in this search (or the root), halving the jump path."""
        jump, skipped, clock = self.jump, self.skipped, self.clock
        while skipped[x] == clock:
            j = jump[x]
            if skipped[j] == clock:
                j = jump[x] = jump[j]
            x = j
        return x

    def _unlabelled_path(self, u: int, v: int) -> list:
        """The vertices whose parent edges are the unlabelled forest edges
        on the tree path between u and v (same component).

        Climbs alternately from both ends over the skip structure,
        stamping each side, until one side steps onto the other's stamp:
        that vertex is the lowest unlabelled-edge ancestor of the two
        ends' meeting point, and whatever the other side climbed above it
        is dropped.  No depths are needed, and each side climbs at most
        as far as the other's path part plus one.
        """
        skip, parent, climb = self._skip, self.parent, self.climb
        skipped, clock = self.skipped, self.clock
        a = skip(u) if skipped[u] == clock else u
        b = skip(v) if skipped[v] == clock else v
        if a == b:
            return []
        self.climbs += 2
        mark_a, mark_b = self.climbs - 1, self.climbs
        climb[a], climb[b] = mark_a, mark_b
        left, right = [a], [b]
        while True:
            up = parent[a]
            if up != -1:
                a = skip(up) if skipped[up] == clock else up
                if climb[a] == mark_b:
                    return left + right[: right.index(a)]
                climb[a] = mark_a
                left.append(a)
            up = parent[b]
            if up != -1:
                b = skip(up) if skipped[up] == clock else up
                if climb[b] == mark_a:
                    return right + left[: left.index(b)]
                climb[b] = mark_b
                right.append(b)

    def _search(self, sinks) -> int:
        """Breadth-first search backwards from ``sinks``, in the given
        order; the first source labelled, or -1.

        A non-forest edge steps back to the unlabelled forest edges on its
        tree path; the skip structure (a vertex whose parent edge is
        labelled jumps towards its parent) finds them, so each forest edge
        is labelled at most once.  A forest edge steps back to the other
        edges of its colour, each colour class being scanned at most once
        since the forest owns one edge per colour.  ``label[i]`` is the
        edge i was reached from, i itself for a sink.
        """
        self.clock += 1
        clock = self.clock
        edges, owner, classes = self.edges, self.owner, self.classes
        reached, label = self.reached, self.label
        parent, parent_edge = self.parent, self.parent_edge
        jump, skipped = self.jump, self.skipped
        # equal union-find parents settle the source test without a call
        find, up = self.uf.find, self.uf.parent
        for i in sinks:
            u, v, _ = edges[i]
            reached[i] = clock
            label[i] = i
            if up[u] != up[v] and find(u) != find(v):
                return i
        queue = deque(sinks)
        while queue:
            x = queue.popleft()
            u, v, c = edges[x]
            if owner[c] == x:
                for j in classes[c]:
                    if reached[j] != clock:
                        reached[j] = clock
                        label[j] = x
                        u, v, _ = edges[j]
                        if up[u] != up[v] and find(u) != find(v):
                            return j
                        queue.append(j)
            else:
                for w in self._unlabelled_path(u, v):
                    y = parent_edge[w]
                    reached[y] = clock
                    label[y] = x
                    queue.append(y)
                    jump[w] = parent[w]
                    skipped[w] = clock
        return -1

    def _link(self, x: int) -> None:
        """Add the non-forest edge x, whose endpoints lie in two different
        trees.  Climbing from both endpoints alternately finds the one
        nearer its root; reversing its root path makes it the root of its
        tree, which then hangs below the other endpoint through x.  Costs
        O(the smaller of the two depths)."""
        parent, parent_edge = self.parent, self.parent_edge
        u, v, _ = self.edges[x]
        a, b = u, v
        while parent[a] != -1 and parent[b] != -1:
            a, b = parent[a], parent[b]
        if parent[a] != -1:
            u, v = v, u
        up_vertex, up_edge = v, x
        while u != -1:
            next_vertex, next_edge = parent[u], parent_edge[u]
            parent[u], parent_edge[u] = up_vertex, up_edge
            up_vertex, up_edge, u = u, next_edge, next_vertex

    def _apply(self, source: int) -> None:
        """Flip the path source = x_0, y_1, x_1, ..., x_t = sink in place.

        x_0 joins two trees.  Then, from the source end, each forest edge
        y_i is cut, which splits its tree in two, and x_i joins the two
        halves again.  That is valid because the path has no shortcuts:
        y_1 .. y_{i-1} are not on x_i's tree path from before the
        augmentation, so that path is still in the forest and runs
        through y_i.  The search labels a forest edge from the first
        non-forest edge that reaches it, so a search tree has no shortcuts
        in any visiting order; breadth first makes the path shortest.
        """
        edges, owner, parent, parent_edge = (
            self.edges, self.owner, self.parent, self.parent_edge
        )
        label = self.label
        x = source
        u, v, c = edges[x]
        self.uf.union(u, v)
        self._link(x)
        owner[c] = x
        while label[x] != x:
            y = label[x]
            x = label[y]
            p, q, _ = edges[y]
            child = p if parent_edge[p] == y else q
            parent[child] = parent_edge[child] = -1
            self._link(x)
            c = edges[x][2]
            owner[c] = x
        self.unused.remove(c)


def _augmented(graph: ColouredGraph, parent: list, parent_edge: list, uf: UnionFind) -> tuple:
    """The sorted triples of a maximum rainbow forest grown from a rooted one."""
    engine = _RainbowEngine(graph, parent, parent_edge, uf)
    while uf.components > 1 and engine.augment():
        pass
    return tuple(sorted(map(graph.edges.__getitem__, engine.forest())))


def maximum_rainbow_forest(graph) -> tuple:
    """The sorted ``(u, v, colour)`` triples of a maximum forest with
    pairwise distinct colours: a maximum common independent set of the
    graphic matroid and the colour partition matroid.

    ``graph`` is a :class:`ColouredGraph`, augmented from the empty forest
    (exact without a seed), or a
    :class:`~hypershrink.core.DirectedHypergraph` read as its star
    expansion (an invalid base is refused with ``ValueError("invalid
    hypergraph: <report>")``): on a hub-like base the scan where it
    spans, then on any base the orientation seed where it spans, else
    :func:`star_graph` augmented from the seed's search trees.
    """
    if not isinstance(graph, DirectedHypergraph):
        return _augmented(graph, [-1] * graph.n, [-1] * graph.n, UnionFind(graph.n))
    _require_valid(graph.base)
    forest = _scan(graph) if _hub_like(graph.base) else None
    if forest is None:
        forest, parent, parent_colour, uf = _orientation_seed(graph)
        if uf.components > 1:
            star = star_graph(graph)
            return _augmented(star, parent, _parent_edges(graph, star, parent, parent_colour), uf)
    return tuple(sorted(forest))


def rainbow_spanning_tree(graph):
    """A rainbow spanning tree of ``graph``, or None if there is none.

    ``graph`` is any input :func:`maximum_rainbow_forest` takes; returns
    a :class:`RainbowTree` of its sorted triples.  Absence is a legitimate
    outcome (the star expansion of a non-hypertree has none), hence a
    value rather than an exception.
    """
    n = graph.base.n if isinstance(graph, DirectedHypergraph) else graph.n
    if n < 1:
        raise ValueError("graph must have at least one vertex")
    forest = maximum_rainbow_forest(graph)
    if len(forest) < n - 1:
        return None
    return RainbowTree(n, forest)
