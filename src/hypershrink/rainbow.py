"""Edge-coloured graphs and rainbow spanning trees.

A rainbow spanning tree uses every colour at most once.  The finder runs
matroid intersection specialised to the graphic matroid (forests) crossed
with the partition matroid (one edge per colour): grow a greedy rainbow
forest, scarcest colour first, then augment along shortest alternating
paths in the exchange graph until the forest spans or no path remains.
The exchange graph is never built: each augmentation searches it lazily,
backwards from the edges of unused colours, with a skip structure over
the rooted forest that labels each forest edge at most once, so one
augmentation costs O(n + m alpha(n)) (after Gabow-Stallmann 1985 and
Cunningham 1986).  An exhaustive checker for the component-count
characterisation doubles as the test oracle.
"""

from collections import deque
from dataclasses import dataclass
from itertools import combinations

from .core import DirectedHypergraph, LimitExceededError


class UnionFind:
    """Disjoint sets over 0..n-1 with path compression and union by size."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.components = n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.components -= 1
        return True


@dataclass(frozen=True)
class ColouredGraph:
    """Simple graph with colour ids on its edges.

    Edges are ``(u, v, colour)`` triples with ``u < v``; parallel edges
    must differ in colour and colour ids are dense ``0..c-1``.
    """

    n: int
    edges: tuple = ()

    def __post_init__(self):
        object.__setattr__(
            self, "edges", tuple((int(u), int(v), int(c)) for u, v, c in self.edges)
        )
        colours = set()
        seen = set()
        for u, v, c in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"bad endpoints ({u}, {v}) for n={self.n}")
            if c < 0:
                raise ValueError("colour ids must be non-negative")
            if (u, v, c) in seen:
                raise ValueError(f"repeated edge ({u}, {v}) with colour {c}")
            seen.add((u, v, c))
            colours.add(c)
        if colours and colours != set(range(max(colours) + 1)):
            raise ValueError("colour ids must be dense 0..c-1")

    @property
    def num_colours(self) -> int:
        return max((c for _, _, c in self.edges), default=-1) + 1


@dataclass(frozen=True)
class RainbowTree:
    """A spanning tree whose edges carry pairwise-distinct colours."""

    n: int
    edges: tuple = ()

    def __post_init__(self):
        object.__setattr__(
            self, "edges", tuple((int(u), int(v), int(c)) for u, v, c in self.edges)
        )
        if len(self.edges) != self.n - 1:
            raise ValueError(f"{len(self.edges)} edges cannot span {self.n} vertices")
        uf = UnionFind(self.n)
        for u, v, _ in self.edges:
            if not uf.union(u, v):
                raise ValueError("edges contain a cycle")
        colours = [c for _, _, c in self.edges]
        if len(set(colours)) != len(colours):
            raise ValueError("colours are not pairwise distinct")


def star_graph(directed: DirectedHypergraph) -> ColouredGraph:
    """One star per hyperarc: centre at the head, leaves at the tails.

    All edges of the star for hyperarc i get colour i, so the output has
    sum(|e| - 1) edges and one colour per hyperarc.
    """
    edges = []
    for i, (e, h) in enumerate(zip(directed.base.edges, directed.heads)):
        for t in e:
            if t != h:
                edges.append((min(h, t), max(h, t), i))
    return ColouredGraph(directed.base.n, tuple(edges))


def _colour_classes(graph: ColouredGraph) -> list:
    """``classes[c]``: indices of the edges of colour c, ascending."""
    classes = [[] for _ in range(graph.num_colours)]
    for i, (_, _, c) in enumerate(graph.edges):
        classes[c].append(i)
    return classes


def _greedy_rainbow_forest(graph: ColouredGraph, classes: list) -> list:
    """Seed forest: scan edges in (class size, colour, endpoint) order,
    keeping an edge iff it joins two components and its colour is unused.

    Scarcest colours go first.  Where the tree needs every colour, as on
    the expansions of a hypertree (n - 1 colours), a colour with a single
    edge forces that edge and a colour with few edges has few places to
    go; placing them first leaves fewer augmentations to do.
    """
    edges = graph.edges
    order = sorted(
        range(len(edges)),
        key=lambda i: (len(classes[edges[i][2]]), edges[i][2]) + edges[i][:2],
    )
    uf = UnionFind(graph.n)
    used_colour = [False] * len(classes)
    chosen = []
    for i in order:
        u, v, c = edges[i]
        if used_colour[c]:
            continue
        if uf.union(u, v):
            used_colour[c] = True
            chosen.append(i)
    return chosen


def _augment(graph: ColouredGraph, in_forest: list, classes: list) -> bool:
    """One exchange-graph augmentation step; True if the forest grew.

    In the exchange graph a non-forest edge x is a *source* when it joins
    two forest components and a *sink* when its colour is unused; the arc
    y -> x (y in the forest) exists when y lies on x's tree path, and the
    arc x -> y when x and y share a colour.  Flipping a shortest
    source-sink path keeps the forest a forest and the colours distinct.

    The search runs backwards, breadth first, from all sinks at once in
    ascending index order, and stops at the first source it labels.  A
    non-forest edge steps back to the unlabelled forest edges on its tree
    path; a skip structure over the vertices (a vertex whose parent edge
    is labelled jumps to its parent) finds them, so each forest edge is
    labelled at most once.  A forest edge steps back to the unlabelled
    non-forest edges of its colour, each colour class being scanned at
    most once since the forest owns one edge per colour.  A sink that
    itself joins two components is added directly.  One call costs
    O(n + m alpha(n)): rooting the forest is O(n + m), the search
    O(m alpha(n)).
    """
    edges = graph.edges
    n = graph.n
    owner = [-1] * len(classes)
    neighbours = [[] for _ in range(n)]
    for i, (u, v, c) in enumerate(edges):
        if in_forest[i]:
            owner[c] = i
            neighbours[u].append((v, i))
            neighbours[v].append((u, i))
    sinks = [i for i in range(len(edges)) if owner[edges[i][2]] == -1]

    # root each forest component; root[] doubles as the component id
    root = [-1] * n
    parent = [-1] * n
    parent_edge = [-1] * n
    depth = [0] * n
    for r in range(n):
        if root[r] != -1:
            continue
        root[r] = r
        stack = [r]
        while stack:
            x = stack.pop()
            for y, i in neighbours[x]:
                if root[y] == -1:
                    root[y] = r
                    parent[y] = x
                    parent_edge[y] = i
                    depth[y] = depth[x] + 1
                    stack.append(y)

    # label[i]: the edge i was reached from, i itself for a sink
    label = [-1] * len(edges)
    for i in sinks:
        u, v, _ = edges[i]
        if root[u] != root[v]:
            in_forest[i] = True
            return True
        label[i] = i

    # jump[x]: x itself while its parent edge is unlabelled, else a vertex
    # higher up on the way to the nearest such ancestor
    jump = list(range(n))

    def skip(x: int) -> int:
        while jump[x] != x:
            jump[x] = jump[jump[x]]
            x = jump[x]
        return x

    source = -1
    queue = deque(sinks)
    while queue and source == -1:
        x = queue.popleft()
        if in_forest[x]:
            for j in classes[edges[x][2]]:
                if label[j] == -1 and not in_forest[j]:
                    label[j] = x
                    u, v, _ = edges[j]
                    if root[u] != root[v]:
                        source = j
                        break
                    queue.append(j)
        else:
            u, v, _ = edges[x]
            a, b = skip(u), skip(v)
            while a != b:
                if depth[a] < depth[b]:
                    a, b = b, a
                y = parent_edge[a]
                label[y] = x
                queue.append(y)
                jump[a] = parent[a]
                a = skip(a)
    if source == -1:
        return False
    i = source
    while True:
        in_forest[i] = not in_forest[i]
        if label[i] == i:
            return True
        i = label[i]


def maximum_rainbow_forest(graph: ColouredGraph) -> tuple:
    """Indices of a maximum forest with pairwise distinct edge colours.

    A maximum common independent set of the graphic matroid and the
    colour partition matroid: greedy seed, then exchange-graph
    augmentation until the forest spans or no augmenting path remains.
    """
    classes = _colour_classes(graph)
    in_forest = [False] * len(graph.edges)
    size = 0
    for i in _greedy_rainbow_forest(graph, classes):
        in_forest[i] = True
        size += 1
    while size < graph.n - 1 and _augment(graph, in_forest, classes):
        size += 1
    return tuple(i for i, used in enumerate(in_forest) if used)


def rainbow_spanning_tree(graph: ColouredGraph):
    """A rainbow spanning tree of ``graph``, or None if there is none.

    Returns a :class:`RainbowTree` whose edge list is sorted by endpoints.
    Absence is a legitimate outcome (the recognizer relies on it), hence a
    value rather than an exception.
    """
    if graph.n < 1:
        raise ValueError("graph must have at least one vertex")
    forest = maximum_rainbow_forest(graph)
    if len(forest) < graph.n - 1:
        return None
    return RainbowTree(graph.n, tuple(sorted(graph.edges[i] for i in forest)))


def check_rainbow_condition(graph: ColouredGraph, limit: int = 20):
    """Exhaustively test the component-count condition for rainbow trees.

    For every colour set R with 0 <= |R| <= n-2 (the r=0 case is plain
    connectivity), deleting the edges coloured by R must leave at most
    |R|+1 components.  Returns the first offending R, scanning sizes in
    ascending order and subsets lexicographically, or None when satisfied.
    Larger subsets never need checking.  Guarded against exponential
    blow-up: more than ``limit`` colours is refused.
    """
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


# ---------------------------------------------------------------------------
# DOT export for visual inspection
# ---------------------------------------------------------------------------

PALETTE = (
    "#e6194b", "#3cb44b", "#4363d8", "#f58231", "#911eb4",
    "#46f0f0", "#f032e6", "#bcf60c", "#fabebe", "#008080",
    "#9a6324", "#800000", "#808000", "#000075", "#a9a9a9",
)


def _dot_edge(u: int, v: int, colour: int, extra: str = "") -> str:
    paint = PALETTE[colour % len(PALETTE)]
    return f'  {u} -- {v} [label="{colour}", color="{paint}"{extra}];'


def _dot_document(name: str, n: int, edge_lines) -> str:
    """An undirected DOT graph: vertices 0..n-1, then the given edge lines."""
    lines = [f"graph {name} {{"]
    lines.extend(f"  {v};" for v in range(n))
    lines.extend(edge_lines)
    lines.append("}")
    return "\n".join(lines) + "\n"


def coloured_graph_to_dot(graph: ColouredGraph, name: str = "coloured") -> str:
    return _dot_document(
        name, graph.n, (_dot_edge(u, v, c) for u, v, c in graph.edges)
    )


def rainbow_tree_to_dot(tree: RainbowTree, name: str = "rainbow_tree") -> str:
    return _dot_document(
        name, tree.n, (_dot_edge(u, v, c, ", penwidth=2") for u, v, c in tree.edges)
    )
