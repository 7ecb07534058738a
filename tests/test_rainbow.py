import collections
import contextlib
import random
import re
import sys
from pathlib import Path

import pytest

import itertools

import hypershrink
from hypershrink import (
    ColouredGraph,
    DirectedHypergraph,
    LimitExceededError,
    NotAHypertreeError,
    RainbowTree,
    adversarial_star,
    check_rainbow_condition,
    coloured_graph_to_dot,
    floor_demand,
    is_hypertree,
    maximum_rainbow_forest,
    orient_floor,
    rainbow_spanning_tree,
    rainbow_tree_to_dot,
    random_hypertree,
    shrink_hypertree,
    star_graph,
    verify_shrinking,
)
from hypershrink import orientation, rainbow
from hypershrink.core import _Value
from helpers import (
    H1,
    break_hypertree,
    broken_with_triangle,
    brute_rainbow_tree_exists,
    clique_graph,
    component_count,
    count_incidence_builds,
    count_repairs,
    four_labellings,
    is_spanning_tree,
    moved_to_an_end,
    random_coloured_graph,
    random_valid_hypergraph,
    reference_hub_like,
    reference_orientation_seed,
    reference_rainbow_forest,
    relabelled,
    rooted_forest,
    sort_key_greedy,
)


def brute_max_rainbow_forest(graph: ColouredGraph) -> int:
    best = 0
    for size in range(len(graph.edges), 0, -1):
        if size <= best or size > graph.n - 1:
            continue
        for subset in itertools.combinations(graph.edges, size):
            if len({c for _, _, c in subset}) < size:
                continue
            if component_count(graph.n, [(u, v) for u, v, _ in subset]) == graph.n - size:
                best = size
                break
        if best:
            break
    return best


@pytest.mark.parametrize("seed", range(4))
def test_union_find_matches_a_naive_block_labelling(seed):
    rng = random.Random(seed)
    for n in (1, 2, 5, 40, 150):
        uf = rainbow.UnionFind(n)
        block = list(range(n))  # block[x]: the label of x's block, relabelled on a merge
        for _ in range(2 * n):
            a, b = rng.randrange(n), rng.randrange(n)
            joined = block[a] != block[b]
            assert uf.union(a, b) is joined
            if joined:
                gone, kept = block[b], block[a]
                block = [kept if label == gone else label for label in block]
            assert uf.components == len(set(block))
            # find(x) == find(y) exactly when block[x] == block[y]: the
            # (root, label) pairs pair off the roots and the labels one to one
            pairs = {(uf.find(x), block[x]) for x in range(n)}
            assert len(pairs) == len({r for r, _ in pairs}) == len(set(block))


def test_coloured_graph_validation():
    ColouredGraph(3, ((0, 1, 0), (1, 2, 1)))
    with pytest.raises(ValueError, match=r"^bad endpoints \(1, 0\) for n=3$"):
        ColouredGraph(3, ((1, 0, 0),))  # endpoints out of order
    with pytest.raises(ValueError, match=r"^bad endpoints \(0, 0\) for n=3$"):
        ColouredGraph(3, ((0, 0, 0),))  # loop
    with pytest.raises(ValueError, match=r"^bad endpoints \(0, 3\) for n=2$"):
        ColouredGraph(2, ((0, 3, 0),))  # vertex range
    with pytest.raises(ValueError, match=r"^bad endpoints \(-1, 1\) for n=2$"):
        ColouredGraph(2, ((-1, 1, 0),))
    with pytest.raises(ValueError, match=r"^colour ids must be non-negative$"):
        ColouredGraph(3, ((0, 1, 0), (1, 2, -1)))
    with pytest.raises(ValueError, match=r"^colour ids must be dense 0\.\.c-1$"):
        ColouredGraph(3, ((0, 1, 1),))  # colour 0 unused
    with pytest.raises(ValueError, match=r"^repeated edge \(0, 1\) with colour 0$"):
        ColouredGraph(3, ((0, 1, 0), (0, 1, 0)))  # duplicate triple


@pytest.mark.parametrize("edges", [(), ((0, 1, 0),)])
def test_coloured_graph_refuses_a_negative_vertex_count(edges):
    # in the words Hypergraph uses; the empty graph stays valid
    with pytest.raises(ValueError, match=r"^vertex count must be non-negative$"):
        ColouredGraph(-1, edges)
    assert maximum_rainbow_forest(ColouredGraph(0, ())) == ()


@pytest.mark.parametrize(
    "edges, message",
    [
        # the first offending edge is named, whatever its kind
        (((0, 1, 0), (0, 1, 0), (2, 1, 1), (0, 2, -1)),
         r"^repeated edge \(0, 1\) with colour 0$"),
        (((0, 1, 0), (2, 1, 1), (0, 1, 0)), r"^bad endpoints \(2, 1\) for n=3$"),
        (((0, 1, 0), (0, 2, -1), (1, 1, 0)), r"^colour ids must be non-negative$"),
        (((0, 1, 2), (1, 2, 0), (0, 5, 0)), r"^bad endpoints \(0, 5\) for n=3$"),
    ],
)
def test_coloured_graph_names_the_first_offender(edges, message):
    with pytest.raises(ValueError, match=message):
        ColouredGraph(3, edges)


def test_parallel_edges_with_distinct_colours_allowed():
    g = ColouredGraph(2, ((0, 1, 0), (0, 1, 1)))
    assert g.num_colours == 2


def test_rainbow_tree_invariants():
    RainbowTree(3, ((0, 1, 0), (1, 2, 1)))
    with pytest.raises(ValueError, match=r"^1 edges cannot span 3 vertices$"):
        RainbowTree(3, ((0, 1, 0),))  # too few edges
    with pytest.raises(ValueError, match=r"^edges contain a cycle$"):
        RainbowTree(3, ((0, 1, 0), (0, 1, 1)))  # not spanning
    with pytest.raises(ValueError, match=r"^edges contain a cycle$"):
        RainbowTree(5, ((0, 1, 0), (2, 3, 1), (1, 3, 2), (0, 2, 3)))
    with pytest.raises(ValueError, match=r"^colours are not pairwise distinct$"):
        RainbowTree(3, ((0, 1, 0), (1, 2, 0)))  # repeated colour
    # a cycle is reported before a repeated colour
    with pytest.raises(ValueError, match=r"^edges contain a cycle$"):
        RainbowTree(3, ((0, 1, 0), (0, 1, 0)))


@pytest.mark.parametrize("edge", ((0, -1, 0), (0, 5, 0)))
def test_rainbow_tree_refuses_an_endpoint_out_of_range(edge):
    # -1 would index the union-find from the end and pass as a spanning
    # tree of two vertices; 5 would raise IndexError
    message = re.escape(f"edge {edge} has an endpoint outside [0, 2)")
    with pytest.raises(ValueError, match=f"^{message}$"):
        RainbowTree(2, (edge,))


def test_greedy_seed_matches_the_sort_key_scan():
    # the scan walks hyperedges by size and each one's members ascending;
    # the oracle sorts every edge of the star expansion by (class size,
    # colour, u, v) at once.  The engine walks the colour classes of a
    # checked graph, which its constructor sorts into endpoint order
    rng = random.Random(2718)
    unsorted = 0
    for _ in range(300):
        g = random_coloured_graph(rng, n_max=9, c_max=10)
        edges = list(g.edges)
        rng.shuffle(edges)  # classes out of endpoint order
        for graph in (g, ColouredGraph(g.n, tuple(edges))):
            # the classes come in endpoint order; the graph's own edge
            # order is what the shuffle above breaks
            assert all(
                [graph.edges[i] for i in cl] == sorted(graph.edges[i] for i in cl)
                for cl in graph._classes
            )
            unsorted += any(
                [graph.edges[i] for i in sorted(cl)] != sorted(graph.edges[i] for i in cl)
                for cl in graph._classes
            )
    assert unsorted >= 100
    directed = []
    for seed in range(40):
        hg, _ = random_hypertree(rng.randint(2, 40), rng.randint(2, 5), seed, 0.7)
        directed += [orient_floor(hg), DirectedHypergraph(hg, tuple(rng.choice(e) for e in hg.edges))]
    for _ in range(100):  # any edge count: the scan may skip m - (n - 1) hyperedges
        hg = random_valid_hypergraph(rng)
        directed.append(DirectedHypergraph(hg, tuple(rng.choice(e) for e in hg.edges)))
    directed += [orient_floor(adversarial_star(m, k)) for m, k in ((5, 3), (40, 4), (300, 3))]
    spanned = {True: 0, False: 0}
    for d in directed:
        star = star_graph(d)
        # the scan gives up once it cannot span, so only a spanning scan
        # returns its edges
        chosen, components = sort_key_greedy(star)
        spanned[components == 1] += 1
        assert rainbow._scan(d) == ([star.edges[i] for i in chosen] if components == 1 else None)
    assert min(spanned.values()) >= 50


def test_star_graph_of_directed_h1():
    directed = DirectedHypergraph(H1, (2, 2, 3))
    star = star_graph(directed)
    assert star.edges == ((0, 2, 0), (1, 2, 0), (1, 2, 1), (2, 3, 1), (2, 3, 2))
    assert star.num_colours == 3


def test_clique_graph_of_h1():
    clique = clique_graph(H1)
    assert len(clique.edges) == 7
    assert clique.num_colours == 3
    assert (0, 1, 0) in clique.edges
    assert (2, 3, 2) in clique.edges


def test_rainbow_spanning_tree_of_a_directed_hypergraph():
    # read as its star expansion, as maximum_rainbow_forest reads it: a
    # tree of star edges on hypertrees (RainbowTree checks that it spans
    # with distinct colours), None exactly where the expansion itself has
    # none.  The seeded search may pick another tree than the plain one
    rng = random.Random(8)
    outcomes = collections.Counter()
    for seed in range(30):
        hg, _ = random_hypertree(rng.randint(2, 40), rng.randint(2, 5), seed, 0.7)
        for candidate in (hg, random_valid_hypergraph(rng)):
            directed = orient_floor(candidate)
            tree = rainbow_spanning_tree(directed)
            assert (tree is None) == (rainbow_spanning_tree(star_graph(directed)) is None)
            if candidate is hg:
                assert tree is not None
            if tree is not None:
                assert tree.n == candidate.n and set(tree.edges) <= set(star_graph(directed).edges)
            outcomes[tree is None] += 1
    assert min(outcomes.values()) >= 5
    assert rainbow_spanning_tree(orient_floor(adversarial_star(40, 4))).n == 121


def test_rainbow_tree_found_on_path():
    g = ColouredGraph(3, ((0, 1, 0), (1, 2, 1)))
    tree = rainbow_spanning_tree(g)
    assert tree is not None
    assert set(tree.edges) == {(0, 1, 0), (1, 2, 1)}


def test_rainbow_tree_absent_when_colours_too_few():
    g = ColouredGraph(3, ((0, 1, 0), (1, 2, 0), (0, 2, 0)))
    assert rainbow_spanning_tree(g) is None
    violator = check_rainbow_condition(g)
    assert violator is not None


def test_rainbow_tree_absent_when_disconnected():
    g = ColouredGraph(4, ((0, 1, 0), (2, 3, 1)))
    assert rainbow_spanning_tree(g) is None
    violator = check_rainbow_condition(g)
    assert violator is not None
    # re-check the certificate: removing those colours leaves > r+1 components
    kept = [(u, v) for u, v, c in g.edges if c not in violator]
    assert component_count(g.n, kept) > len(violator) + 1


def test_rainbow_needs_exchange_not_just_greed():
    # greedy in colour order picks (0,1) for colour 0 and then cannot
    # finish; an exchange step must swap it for (2,3)
    g = ColouredGraph(
        4,
        (
            (0, 1, 0),
            (2, 3, 0),
            (0, 1, 1),
            (1, 2, 1),
            (0, 2, 2),
        ),
    )
    tree = rainbow_spanning_tree(g)
    assert tree is not None
    assert is_spanning_tree(g.n, [(u, v) for u, v, _ in tree.edges])
    # the orientation seed spans here on its own (vertex 3 meets colour 0
    # only, so it heads that class), so the exchange step is driven on the
    # engine from the scan's seed
    chosen, _, _, spanned = reference_orientation_seed(g)
    assert spanned.components == 1
    assert sorted(g.edges[i] for i in chosen) == [(0, 1, 1), (0, 2, 2), (2, 3, 0)]
    seed, components = sort_key_greedy(g)
    assert components == 2
    assert [g.edges[i] for i in seed] == [(0, 2, 2), (0, 1, 0)]
    engine = rainbow._RainbowEngine(g, *rooted_forest(g, seed))
    assert engine.augment()
    assert engine.uf.components == 1
    assert [g.edges[i] for i in engine.forest()] == [(2, 3, 0), (0, 1, 1), (0, 2, 2)]


def test_single_vertex_graph():
    g = ColouredGraph(1, ())
    tree = rainbow_spanning_tree(g)
    assert tree is not None and tree.edges == ()
    assert check_rainbow_condition(g) is None


def test_empty_graph_rejected():
    with pytest.raises(ValueError):
        rainbow_spanning_tree(ColouredGraph(0, ()))


def test_finder_agrees_with_bruteforce():
    rng = random.Random(31337)
    for _ in range(250):
        g = random_coloured_graph(rng, n_max=6, c_max=8)
        tree = rainbow_spanning_tree(g)
        assert (tree is not None) == brute_rainbow_tree_exists(g)
        if tree is not None:
            assert set(tree.edges) <= set(g.edges)


def test_finder_agrees_with_condition_checker():
    rng = random.Random(4096)
    for _ in range(250):
        g = random_coloured_graph(rng, n_max=7, c_max=10)
        tree = rainbow_spanning_tree(g)
        violator = check_rainbow_condition(g)
        assert (tree is None) == (violator is not None)
        if violator is not None:
            kept = [(u, v) for u, v, c in g.edges if c not in violator]
            assert component_count(g.n, kept) > len(violator) + 1


def test_condition_checker_reads_a_directed_hypergraph_as_its_star_expansion():
    # the oracle takes what rainbow_spanning_tree takes; on small
    # hypertrees it finds no violator, on their certified breaks one, and
    # it agrees with the fast path on every orientation
    hypertrees = broken = 0
    for n in range(4, 11):
        for seed in range(6):
            hg, _ = random_hypertree(n, 3, seed, 0.5)
            cases = [(hg, True)]
            # a break needs a vertex in two pairs and a hyperedge off their triangle
            with contextlib.suppress(ValueError, StopIteration):
                cases.append((break_hypertree(hg), False))
            for h, is_tree in cases:
                directed = orient_floor(h)
                violator = check_rainbow_condition(directed)
                assert violator == check_rainbow_condition(star_graph(directed))
                assert (violator is None) == is_tree
                assert (violator is None) == (rainbow_spanning_tree(directed) is not None)
                hypertrees += is_tree
                broken += not is_tree
    assert (hypertrees, broken) == (42, 21)


def test_condition_checker_limit():
    edges = tuple((0, i, i - 1) for i in range(1, 25))
    g = ColouredGraph(25, edges)
    with pytest.raises(LimitExceededError):
        check_rainbow_condition(g)
    small = ColouredGraph(7, tuple((0, i, i - 1) for i in range(1, 7)))
    with pytest.raises(LimitExceededError):
        check_rainbow_condition(small, limit=5)
    assert check_rainbow_condition(small, limit=6) is None


def test_determinism():
    rng = random.Random(8)
    for _ in range(40):
        g = random_coloured_graph(rng)
        first = rainbow_spanning_tree(g)
        second = rainbow_spanning_tree(g)
        assert first == second


def test_dot_outputs():
    g = ColouredGraph(3, ((0, 1, 0), (1, 2, 1)))
    dot = coloured_graph_to_dot(g)
    assert dot.startswith("graph") and "0 -- 1" in dot
    tree = rainbow_spanning_tree(g)
    assert "1 -- 2" in rainbow_tree_to_dot(tree)
    # byte-exact on H1's star expansion and its tree, so the two
    # exports cannot drift
    star = star_graph(DirectedHypergraph(H1, (2, 1, 2)))
    assert coloured_graph_to_dot(star) == (
        "graph coloured {\n  0;\n  1;\n  2;\n  3;\n"
        '  0 -- 2 [label="0", color="#e6194b"];\n'
        '  1 -- 2 [label="0", color="#e6194b"];\n'
        '  1 -- 2 [label="1", color="#3cb44b"];\n'
        '  1 -- 3 [label="1", color="#3cb44b"];\n'
        '  2 -- 3 [label="2", color="#4363d8"];\n'
        "}\n"
    )
    assert rainbow_tree_to_dot(rainbow_spanning_tree(star)) == (
        "graph rainbow_tree {\n  0;\n  1;\n  2;\n  3;\n"
        '  0 -- 2 [label="0", color="#e6194b", penwidth=2];\n'
        '  1 -- 2 [label="1", color="#3cb44b", penwidth=2];\n'
        '  2 -- 3 [label="2", color="#4363d8", penwidth=2];\n'
        "}\n"
    )


def test_intersection_is_maximum():
    rng = random.Random(271828)
    for _ in range(60):
        g = random_coloured_graph(rng, n_max=5, c_max=6)
        forest = maximum_rainbow_forest(g)
        assert list(forest) == sorted(set(forest)) and set(forest) <= set(g.edges)
        colours = [c for _, _, c in forest]
        assert len(set(colours)) == len(forest)
        pairs = [(u, v) for u, v, _ in forest]
        assert component_count(g.n, pairs) == g.n - len(forest)
        assert len(forest) == brute_max_rainbow_forest(g)


def test_star_and_clique_components_match_per_colour_subset():
    # dropping any colour set leaves the same component structure in the
    # star expansion and the clique expansion, since each colour class is
    # connected over the same vertex set in both; this holds for the
    # orientation's heads and for the first-vertex heads is_hypertree uses
    for seed in range(10):
        hg, _ = random_hypertree(7, 4, seed, 0.8)
        stars = (
            star_graph(orient_floor(hg)),
            star_graph(DirectedHypergraph(hg, tuple(e[0] for e in hg.edges))),
        )
        clique = clique_graph(hg)
        for r in range(hg.num_edges + 1):
            for dropped in itertools.combinations(range(hg.num_edges), r):
                kept_clique = [
                    (u, v) for u, v, c in clique.edges if c not in dropped
                ]
                for star in stars:
                    kept_star = [
                        (u, v) for u, v, c in star.edges if c not in dropped
                    ]
                    assert component_count(hg.n, kept_star) == component_count(
                        hg.n, kept_clique
                    )


def assert_rainbow_tree_of(graph: ColouredGraph, tree) -> None:
    assert tree is not None
    assert set(tree.edges) <= set(graph.edges)
    assert len({c for _, _, c in tree.edges}) == graph.n - 1
    assert is_spanning_tree(graph.n, [(u, v) for u, v, _ in tree.edges])


@pytest.mark.parametrize("k", (3, 5))
def test_rainbow_tree_found_at_working_size(k):
    for seed, p in ((1, 0.5), (2, 0.8)):
        hg, _ = random_hypertree(500, k, seed, p)
        star = star_graph(orient_floor(hg))
        assert_rainbow_tree_of(star, rainbow_spanning_tree(star))
        clique = clique_graph(hg)
        assert_rainbow_tree_of(clique, rainbow_spanning_tree(clique))
        assert is_hypertree(hg)


@pytest.mark.parametrize("k", (3, 5))
def test_rainbow_tree_absent_after_one_break_at_working_size(k):
    hg, _ = random_hypertree(500, k, 3, 0.5)
    broken = break_hypertree(hg)
    assert rainbow_spanning_tree(star_graph(orient_floor(broken))) is None
    assert rainbow_spanning_tree(clique_graph(broken)) is None
    assert not is_hypertree(broken)


def test_public_names_resolve():
    # clique_graph left the package for tests/helpers.py; no export may
    # dangle after such a removal
    for name in hypershrink.__all__:
        assert hasattr(hypershrink, name), name
    assert "clique_graph" not in hypershrink.__all__
    assert not hasattr(hypershrink, "clique_graph")
    # every value class the README's Library section names is exported
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = readme.split("**Value classes.**", 1)[1].split("are plain immutable", 1)[0]
    named = re.findall(r"`(\w+)`", paragraph)
    assert len(named) == 12 and "VerificationCheck" in named
    for name in named:
        assert name in hypershrink.__all__, name
        assert issubclass(getattr(hypershrink, name), _Value), name


# ---------------------------------------------------------------------------
# The persistent engine's state after every augmentation
# ---------------------------------------------------------------------------


def assert_engine_invariants(engine, graph: ColouredGraph) -> None:
    """The forest is acyclic and rainbow, ``parent_edge`` holds exactly
    its edges, and the union-find partition is its component partition."""
    n, edges = graph.n, graph.edges
    for c, i in enumerate(engine.owner):
        assert i == -1 or edges[i][2] == c
    forest = sorted(i for i in engine.owner if i != -1)
    assert engine.unused == [c for c, i in enumerate(engine.owner) if i == -1]
    hung = []
    for v in range(n):
        p, i = engine.parent[v], engine.parent_edge[v]
        if p == -1:
            assert i == -1
        else:
            assert edges[i][:2] == (min(v, p), max(v, p))
            hung.append(i)
    assert sorted(hung) == forest
    assert component_count(n, [edges[i][:2] for i in forest]) == n - len(forest)
    root = []
    for v in range(n):
        x, steps = v, 0
        while engine.parent[x] != -1:
            x = engine.parent[x]
            steps += 1
            assert steps < n, "parent pointers contain a cycle"
        root.append(x)
    blocks = {}
    for v in range(n):
        blocks.setdefault(engine.uf.find(v), set()).add(root[v])
    assert all(len(b) == 1 for b in blocks.values())
    assert len(blocks) == len(set(root)) == engine.uf.components


def shortest_path_nodes(graph: ColouredGraph, forest, sink_colours):
    """Node count of a shortest source-sink path in the explicit exchange
    graph of ``forest``, with sinks restricted to the non-forest edges of
    ``sink_colours``; None when there is no such path."""
    edges = graph.edges
    adjacent = [[] for _ in range(graph.n)]
    for i in forest:
        u, v, _ = edges[i]
        adjacent[u].append((v, i))
        adjacent[v].append((u, i))

    def tree_path(u, v):
        reached = {u: None}
        stack = [u]
        while stack:
            x = stack.pop()
            for y, i in adjacent[x]:
                if y not in reached:
                    reached[y] = (x, i)
                    stack.append(y)
        if v not in reached:
            return None
        path = []
        while v != u:
            v, i = reached[v]
            path.append(i)
        return path

    owner = {edges[i][2]: i for i in forest}
    arcs = {}
    sources = []
    for x, (u, v, c) in enumerate(edges):
        if x in forest:
            continue
        path = tree_path(u, v)
        if path is None:
            sources.append(x)
        for y in path or ():
            arcs.setdefault(y, []).append(x)
        if c in owner:
            arcs[x] = [owner[c]]
    sinks = {x for x, e in enumerate(edges) if e[2] in sink_colours and x not in forest}
    distance = {x: 1 for x in sources}
    queue = collections.deque(sources)
    while queue:
        x = queue.popleft()
        if x in sinks:
            return distance[x]
        for y in arcs.get(x, ()):
            if y not in distance:
                distance[y] = distance[x] + 1
                queue.append(y)
    return None


def run_engine(graph: ColouredGraph, seed) -> tuple:
    """Augment from the rainbow forest ``seed`` until maximum, checking the
    invariants before the first and after every augmentation, and that
    each augmentation flips a shortest path: to the sinks of the lowest
    unused colour if there is one, else to any sink."""
    parent, parent_edge, uf = rooted_forest(graph, seed)
    assert uf.components == graph.n - len(seed)  # the seed is a forest
    engine = rainbow._RainbowEngine(graph, parent, parent_edge, uf)
    assert_engine_invariants(engine, graph)
    while uf.components > 1:
        before = engine.forest()
        shortest = shortest_path_nodes(graph, before, engine.unused[:1])
        if shortest is None:
            shortest = shortest_path_nodes(graph, before, engine.unused)
        grew = engine.augment()
        assert grew == (shortest is not None)
        if not grew:
            break
        assert len(set(before) ^ set(engine.forest())) == shortest
        assert_engine_invariants(engine, graph)
    return engine.forest()


def rainbow_forests(graph: ColouredGraph) -> list:
    """Every rainbow forest of ``graph``, as sorted edge-index tuples."""
    found = []
    for size in range(min(len(graph.edges), graph.n - 1) + 1):
        for subset in itertools.combinations(range(len(graph.edges)), size):
            chosen = [graph.edges[i] for i in subset]
            if len({c for _, _, c in chosen}) < size:
                continue
            if component_count(graph.n, [e[:2] for e in chosen]) == graph.n - size:
                found.append(subset)
    return found


def seeds(graph: ColouredGraph) -> tuple:
    """The scan's seed, as the sort-key reference keeps it to the end,
    and the orientation seed of ``graph``, each checked to be a rainbow
    forest, the orientation seed's union-find holding its components."""
    scanned, _ = sort_key_greedy(graph)
    oriented, _, _, uf = reference_orientation_seed(graph)
    for chosen in (scanned, oriented):
        pairs = [graph.edges[i][:2] for i in chosen]
        assert len({graph.edges[i][2] for i in chosen}) == len(chosen)
        assert component_count(graph.n, pairs) == graph.n - len(chosen)
    assert uf.components == graph.n - len(oriented)
    return scanned, oriented


def test_engine_invariants_on_every_small_coloured_graph():
    # every colouring of the 6 pairs on 4 vertices by at most one of 3
    # colours, augmented to the end from the empty forest and from both
    # seeds
    pairs = list(itertools.combinations(range(4), 2))
    for colouring in itertools.product((None, 0, 1, 2), repeat=len(pairs)):
        used = {c for c in colouring if c is not None}
        if used != set(range(len(used))):
            continue
        graph = ColouredGraph(
            4, tuple((u, v, c) for (u, v), c in zip(pairs, colouring) if c is not None)
        )
        best = brute_max_rainbow_forest(graph)
        assert len(run_engine(graph, [])) == best
        for seed in seeds(graph):
            assert len(run_engine(graph, seed)) == best


def test_engine_invariants_from_every_start_on_random_multigraphs():
    rng = random.Random(20240607)
    for _ in range(60):
        graph = random_coloured_graph(rng, n_max=6, c_max=6)
        starts = rainbow_forests(graph)
        best = max(len(f) for f in starts)
        for seed in starts + list(seeds(graph)):
            assert len(run_engine(graph, seed)) == best


def test_engine_invariants_on_star_expansions():
    # from the empty forest every edge arrives by augmentation, along
    # paths far longer than the greedy seed leaves to do
    for seed in range(12):
        for k, p in ((3, 0.5), (5, 0.8)):
            hg, _ = random_hypertree(40, k, seed, p)
            star = star_graph(orient_floor(hg))
            assert len(run_engine(star, [])) == hg.n - 1
            for start in seeds(star):
                assert len(run_engine(star, start)) == hg.n - 1


def partition(uf, n: int) -> list:
    """The sets of ``uf`` over 0..n-1, each sorted, in order."""
    blocks = {}
    for v in range(n):
        blocks.setdefault(uf.find(v), []).append(v)
    return sorted(blocks.values())


def test_orientation_seed_hands_over_the_rooting_of_its_own_forest():
    # checked on the reference seed, which the hypergraph seed matches
    # array for array (test_hypergraph_seed_matches_the_reference_seed):
    # the seed's breadth-first search and the reference depth-first
    # rooting both start their searches in ascending vertex order, so both
    # root each tree at its least vertex, and a forest with fixed roots
    # has one parent array: the engine may start from the seed's arrays
    rng = random.Random(20240607)
    graphs = [random_coloured_graph(rng, n_max=6, c_max=6) for _ in range(60)]
    graphs += [random_coloured_graph(rng, n_max=9, c_max=10) for _ in range(300)]
    for seed in range(12):
        for k, p in ((3, 0.5), (5, 0.8)):
            hg, _ = random_hypertree(40, k, seed, p)
            graphs.append(star_graph(orient_floor(hg)))
            heads = tuple(rng.choice(e) for e in hg.edges)
            graphs.append(star_graph(DirectedHypergraph(hg, heads)))
    forests = 0
    for graph in graphs:
        chosen, parent, parent_edge, uf = reference_orientation_seed(graph)
        reference_parent, reference_edge, reference_uf = rooted_forest(graph, chosen)
        assert parent == reference_parent
        assert parent_edge == reference_edge
        assert uf.components == reference_uf.components == graph.n - len(chosen)
        assert partition(uf, graph.n) == partition(reference_uf, graph.n)
        forests += uf.components > 1
    assert forests >= 50  # many seeds leave several trees to root


def count_augmentations(monkeypatch) -> list:
    """A list that gains one entry per ``_RainbowEngine.augment`` call."""
    calls = []
    augment = rainbow._RainbowEngine.augment

    def counted(engine):
        calls.append(engine)
        return augment(engine)

    monkeypatch.setattr(rainbow._RainbowEngine, "augment", counted)
    return calls


def refuse_scan(monkeypatch) -> None:
    def refuse(directed):
        raise AssertionError("scan run on a base that is not hub-like")

    monkeypatch.setattr(rainbow, "_scan", refuse)


@pytest.mark.parametrize("k, p", ((3, 0.5), (3, 0.8), (5, 0.5), (5, 0.8)))
def test_orientation_seed_leaves_a_tenth_of_the_scans_components(k, p, monkeypatch):
    # these hypertrees are not hub-like, so the floor orientation starts
    # from the tight heads, the orientation seed runs first and the scan
    # not at all.  The scan on the cold floor orientation, the first tier
    # a hub gets, would leave at least ten times as many components as the
    # seed; the warm start leaves the seed no more than the cold one
    # would; and shrinking augments from the seed
    hg, _ = random_hypertree(2000, k, 1, p)
    assert not orientation._hub_like(hg)
    cold = DirectedHypergraph(hg, orientation._orient(hg, list(floor_demand(hg, k).values))[0])
    _, scanned = sort_key_greedy(star_graph(cold))
    _, _, _, oriented = rainbow._orientation_seed(orient_floor(hg))
    assert 10 * oriented.components <= scanned
    assert oriented.components <= rainbow._orientation_seed(cold)[3].components
    refuse_scan(monkeypatch)
    calls = count_augmentations(monkeypatch)
    assert verify_shrinking(hg, shrink_hypertree(hg))
    assert 10 * len(calls) <= scanned


def test_shrink_at_16000_augments_at_most_three_times(monkeypatch):
    # the floor orientation starts from the seed's tight heads, so the
    # seed spans and the engine, whose augmentations each search about
    # 0.2 n nodes here, makes none
    hg, _ = random_hypertree(16000, 5, 1, 0.8)
    calls = count_augmentations(monkeypatch)
    assert verify_shrinking(hg, shrink_hypertree(hg))
    assert len(calls) == 0


def test_shrink_refuses_a_violator_without_the_engine_under_relabellings(monkeypatch):
    # on broken (20000, 3, 1, 0.5) the tight heads have a violator under
    # every labelling below; at a low label the seed on those heads leaves
    # about 180 components, one augmentation each, so shrink must refuse on
    # the violator before any star expansion or engine is built.  The
    # broken (20000, 5, 1, 0.8) input has no violator and reaches the
    # engine, which measured one expansion and 1-2 augmentations: a bound
    expansions, engines = [], []
    patch_star_graph(monkeypatch, lambda d: expansions.append(d) or star_graph(d))
    calls = count_augmentations(monkeypatch)

    class CountedEngine(rainbow._RainbowEngine):
        def __init__(self, *args):
            engines.append(self)
            super().__init__(*args)

    monkeypatch.setattr(rainbow, "_RainbowEngine", CountedEngine)
    for k, p, violator in ((3, 0.5, True), (5, 0.8, False)):
        broken = break_hypertree(random_hypertree(20000, k, 1, p)[0])
        for order in four_labellings(broken.n):
            for seen in (expansions, engines, calls):
                seen.clear()
            hg = relabelled(broken, order)
            with pytest.raises(NotAHypertreeError):
                shrink_hypertree(hg)
            assert (orientation._tight_heads(hg)[1] is not None) == violator
            if violator:
                assert expansions == [] and engines == []
            else:
                assert len(expansions) <= 1 and len(calls) <= 2


def test_hubs_and_large_hypertrees_shrink_without_the_expansion_under_relabellings(monkeypatch):
    # hubs take the scan and these random hypertrees the orientation seed,
    # which spans on them, under the identity, the reversal (which moves
    # the hub from the first label to the last) and two permutations:
    # shrink verifies, check answers True and no star expansion is built
    expansions = []
    patch_star_graph(monkeypatch, lambda d: expansions.append(d) or star_graph(d))
    bases = [adversarial_star(1000, 3), adversarial_star(2000, 4)]
    bases += [random_hypertree(2000, k, 1, p)[0] for k, p in ((3, 0.5), (5, 0.8))]
    for base in bases:
        for order in four_labellings(base.n):
            hg = relabelled(base, order)
            assert verify_shrinking(hg, shrink_hypertree(hg))
            assert is_hypertree(hg)
            assert expansions == []


def answers_and_repairs(hg, searches) -> tuple:
    """``((check, shrink), tight, total)``: check's answer, shrink's (True
    when its shrinking verifies, else the refusal's reason), the repair
    searches check made and those check and shrink made together."""
    searches.clear()
    check = is_hypertree(hg)
    tight = len(searches)
    try:
        shrunk = verify_shrinking(hg, shrink_hypertree(hg)).all_passed
    except NotAHypertreeError as exc:
        shrunk = exc.reason
    return (check, shrunk), tight, len(searches)


# Repair searches allowed at n vertices, whatever the labelling: check's
# tight heads at most n / 50 and check with shrink at most n / 40.  At
# n = 20 000 the identity, the reversal and the short-first order below
# measured 36-305 and 234-437, and a broken input refuses after one
def repairs_within_bound(n: int, tight: int, total: int) -> bool:
    return tight <= n // 50 and total <= n // 40


def test_violator_first_or_last_answers_as_the_identity(monkeypatch):
    # the certified triangle of a broken hypertree takes the labels 0-2,
    # then n-3..n-1: both refuse on the tight heads' violator, as the
    # identity labelling does, with no star expansion
    expansions = []
    patch_star_graph(monkeypatch, lambda d: expansions.append(d) or star_graph(d))
    searches = count_repairs(monkeypatch)
    broken, triangle = broken_with_triangle(random_hypertree(20000, 3, 1, 0.5)[0])
    expected, tight, total = answers_and_repairs(broken, searches)
    assert expected == (False, "no-rainbow-tree")
    assert repairs_within_bound(broken.n, tight, total)
    for first in (True, False):
        hg = relabelled(broken, moved_to_an_end(broken.n, triangle, first))
        answers, tight, total = answers_and_repairs(hg, searches)
        assert answers == expected
        assert repairs_within_bound(hg.n, tight, total)
    assert expansions == []


def test_short_vertices_first_shrink_as_the_identity(monkeypatch):
    # the vertices the forced heads leave short under the identity take the
    # first labels, so the repairs, which serve short vertices in label
    # order, meet them first: the answers and the verified shrinkings stay,
    # no star expansion is built and the repairs stay within the bound
    expansions = []
    patch_star_graph(monkeypatch, lambda d: expansions.append(d) or star_graph(d))
    searches = count_repairs(monkeypatch)
    for k, p in ((3, 0.5), (5, 0.8)):
        base = random_hypertree(20000, k, 1, p)[0]
        need = [0] + [1] * (base.n - 1)
        orientation._forced_heads(base.edges, need, orientation._incidence(base))
        short = [v for v, left in enumerate(need) if left > 0]
        expected, tight, total = answers_and_repairs(base, searches)
        assert expected == (True, True) and short
        assert repairs_within_bound(base.n, tight, total)
        hg = relabelled(base, moved_to_an_end(base.n, short))
        answers, tight, total = answers_and_repairs(hg, searches)
        assert answers == expected
        assert repairs_within_bound(hg.n, tight, total)
    assert expansions == []


def test_hypergraph_seed_matches_the_reference_seed():
    # the seed reads hyperedges and heads where the reference looks each
    # star edge up in a dict over the expansion; both keep the same edges
    # in the same order, root the same trees, and the seed's parent
    # colours map to the reference's parent edges, so the engine starts
    # from the same state and the stage returns the reference tiers' forest
    rng = random.Random(1985)
    directed = []
    for seed in range(12):
        for k, p in ((3, 0.5), (5, 0.8)):
            hg, _ = random_hypertree(40, k, seed, p)
            directed += [orient_floor(hg), DirectedHypergraph(hg, tuple(rng.choice(e) for e in hg.edges))]
    for _ in range(100):
        hg = random_valid_hypergraph(rng)
        directed.append(DirectedHypergraph(hg, tuple(rng.choice(e) for e in hg.edges)))
    forests = 0
    for d in directed:
        star = star_graph(d)
        chosen, parent, parent_colour, uf = rainbow._orientation_seed(d)
        reference, reference_parent, reference_edge, reference_uf = reference_orientation_seed(star)
        assert chosen == [star.edges[i] for i in reference]
        assert parent == reference_parent
        assert rainbow._parent_edges(d, star, parent, parent_colour) == reference_edge
        assert uf.components == reference_uf.components == d.base.n - len(chosen)
        assert partition(uf, d.base.n) == partition(reference_uf, d.base.n)
        assert maximum_rainbow_forest(d) == reference_rainbow_forest(star, d.base)
        forests += uf.components > 1
    assert forests >= 50


def patch_star_graph(monkeypatch, replacement) -> None:
    """Replace ``star_graph`` at every package module that binds it, the
    name its callers look it up through."""
    for name, module in list(sys.modules.items()):
        if name.startswith("hypershrink.") and getattr(module, "star_graph", None) is star_graph:
            monkeypatch.setattr(module, "star_graph", replacement)


def refuse_star_graph(monkeypatch) -> None:
    def refuse(directed):
        raise AssertionError("star expansion built")

    patch_star_graph(monkeypatch, refuse)


@pytest.mark.parametrize("m", (1000, 1999, 2000))
@pytest.mark.parametrize("k", (3, 4))
def test_shrink_on_a_hub_builds_no_star_expansion(m, k, monkeypatch):
    # a hub-like hypertree keeps the greedy floor orientation, whose heads
    # leave no vertex short, and the scan, which spans: no incidence
    # lists, no tight heads and no star expansion are built for it
    hg = adversarial_star(m, k)
    assert orientation._hub_like(hg) and reference_hub_like(hg)
    builds = count_incidence_builds(monkeypatch)
    refuse_star_graph(monkeypatch)
    assert verify_shrinking(hg, shrink_hypertree(hg))
    assert builds == []
    assert "_tight" not in vars(hg)


def test_warm_floor_orientation_on_random_hypertrees(monkeypatch):
    # no n = 500 random hypertree is hub-like, so each floor orientation
    # starts from the tight heads, meets floor(d/k) and leaves the seed
    # spanning almost always: the engine may run on one of these 160, for
    # a few augmentations, and measured it runs on none
    expansions = []
    patch_star_graph(monkeypatch, lambda d: expansions.append(d) or star_graph(d))
    calls = count_augmentations(monkeypatch)
    for k in (3, 5):
        for p in (0.5, 0.8):
            for seed in range(1, 41):
                hg, _ = random_hypertree(500, k, seed, p)
                assert not orientation._hub_like(hg) and not reference_hub_like(hg)
                directed = orient_floor(hg)
                assert "_tight" in vars(hg)
                assert all(i >= d // k for i, d in zip(directed.indegrees(), hg.degrees()))
                assert verify_shrinking(hg, shrink_hypertree(hg))
    assert len(expansions) <= 1
    assert len(calls) <= 3


def test_shrink_builds_no_star_expansion_where_the_seed_spans(monkeypatch):
    # not hub-like, so the seed runs first; the scan would not span
    hg, _ = random_hypertree(500, 5, 1, 0.8)
    assert not orientation._hub_like(hg)
    directed = orient_floor(hg)
    assert rainbow._scan(directed) is None
    assert rainbow._orientation_seed(directed)[3].components == 1
    refuse_scan(monkeypatch)
    refuse_star_graph(monkeypatch)
    assert verify_shrinking(hg, shrink_hypertree(hg))


def test_shrink_builds_one_star_expansion_per_engine(monkeypatch):
    expansions, engines = [], []
    start = rainbow._RainbowEngine.__init__
    patch_star_graph(monkeypatch, lambda d: expansions.append(d) or star_graph(d))

    def counted(engine, *args):
        engines.append(engine)
        start(engine, *args)

    monkeypatch.setattr(rainbow._RainbowEngine, "__init__", counted)
    # the seed spans on this ladder, so the engine runs on orientations
    # with random heads (a hypertree's star expansion has a rainbow
    # spanning tree whatever the heads) and on two small hypertrees whose
    # warm start leaves the seed short
    rng = random.Random(1985)
    for n in (250, 500, 1000, 2000):
        for k, p in ((3, 0.5), (5, 0.8)):
            hg, _ = random_hypertree(n, k, 1, p)
            assert verify_shrinking(hg, shrink_hypertree(hg))
            assert len(expansions) == len(engines)
            directed = DirectedHypergraph(hg, tuple(rng.choice(e) for e in hg.edges))
            assert len(maximum_rainbow_forest(directed)) == n - 1
            assert len(expansions) == len(engines)
    for params in ((160, 3, 18, 0.8), (240, 3, 17, 1.0)):
        hg, _ = random_hypertree(*params)
        before = len(engines)
        assert verify_shrinking(hg, shrink_hypertree(hg))
        assert len(expansions) == len(engines) == before + 1
    assert len(engines) >= 3
