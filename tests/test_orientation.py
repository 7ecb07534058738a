import itertools
import random
from collections import deque

import pytest

from hypershrink import (
    DemandFunction,
    Hypergraph,
    InternalError,
    OrientationResult,
    floor_demand,
    orient_floor,
    orient_with_demands,
)
from hypershrink import orientation
from hypershrink.orientation import DemandBipartiteGraph
from helpers import (
    H1,
    PATH3,
    STAR7,
    brute_max_matching,
    empty_matching,
    random_valid_hypergraph,
)


def test_single_demand_met():
    result = orient_with_demands(PATH3, (0, 1, 0))
    assert result.is_oriented
    assert result.oriented.indegree(1) >= 1


def test_forced_orientation():
    # exhaustive check: heads=[1,1] is the only head choice with indegree(1)=2
    for heads in itertools.product((0, 1), (1, 2)):
        indeg1 = sum(1 for h in heads if h == 1)
        assert (indeg1 >= 2) == (heads == (1, 1))
    result = orient_with_demands(PATH3, (0, 2, 0))
    assert result.is_oriented
    assert result.oriented.heads == (1, 1)


def test_total_demand_violator():
    result = orient_with_demands(PATH3, (1, 1, 1))
    assert not result.is_oriented
    assert result.violator == (0, 1, 2)
    f = DemandFunction((1, 1, 1))
    assert f.sum_over(result.violator) > PATH3.incident_edge_count(result.violator)


def test_partial_violator_rechecks():
    # total demand fits the edge count, yet {0, 1, 2} only meets two edges
    hg = Hypergraph(5, ((0, 1), (0, 1, 2), (3, 4)))
    f = DemandFunction((1, 1, 1, 0, 0))
    result = orient_with_demands(hg, f)
    assert not result.is_oriented
    F = result.violator
    assert set(F) <= {0, 1, 2}
    assert f.sum_over(F) > hg.incident_edge_count(F)


def test_demand_length_mismatch_rejected():
    with pytest.raises(ValueError):
        orient_with_demands(PATH3, (0, 1))


def test_floor_demand_values():
    assert floor_demand(H1, 3).values == (0, 0, 1, 0)
    pairs = Hypergraph(8, tuple((0, i) for i in range(1, 8)))
    assert floor_demand(pairs, 3).values == (2, 0, 0, 0, 0, 0, 0, 0)
    assert floor_demand(pairs, 2)[0] == 3


def test_floor_demand_rejects_small_k():
    with pytest.raises(ValueError):
        floor_demand(H1, 2)
    with pytest.raises(ValueError):
        floor_demand(H1, 0)


def test_orient_floor_h1():
    directed = orient_floor(H1)
    assert directed.indegree(2) >= 1


def test_orient_floor_star():
    # oracle first: some head assignment reaches indegree(0) >= 1
    assert any(
        sum(1 for h in heads if h == 0) >= 1
        for heads in itertools.product(*STAR7.edges)
    )
    directed = orient_floor(STAR7, 3)
    assert directed.indegree(0) >= 1


def test_orient_floor_path():
    path4 = Hypergraph(4, ((0, 1), (1, 2), (2, 3)))
    directed = orient_floor(path4, 2)
    assert directed.indegree(1) >= 1
    assert directed.indegree(2) >= 1


def test_orient_floor_edgeless():
    directed = orient_floor(Hypergraph(3, ()))
    assert directed.heads == ()


def test_orient_floor_bound_on_random_hypergraphs():
    rng = random.Random(5150)
    for _ in range(150):
        hg = random_valid_hypergraph(rng)
        k = hg.rank()
        directed = orient_floor(hg)
        degrees = hg.degrees()
        indegrees = directed.indegrees()
        assert all(ind >= d // k for ind, d in zip(indegrees, degrees))


def test_matching_size_matches_bruteforce():
    rng = random.Random(99)
    for _ in range(120):
        hg = random_valid_hypergraph(rng, n_max=5, m_max=6)
        demands = DemandFunction(
            tuple(rng.randint(0, 2) for _ in range(hg.n))
        )
        if demands.total() > 10:
            continue
        graph = DemandBipartiteGraph(hg, demands)
        pair_left, pair_right = graph.max_matching()
        size = sum(1 for x in pair_right if x >= 0)
        adjacency = [
            [w for w in range(demands.total()) if graph.copy_vertex[w] in hg.edges[i]]
            for i in range(hg.num_edges)
        ]
        assert size == brute_max_matching(adjacency, demands.total())


def test_dichotomy_on_random_pairs():
    rng = random.Random(2024)
    oriented_seen = violator_seen = 0
    for _ in range(400):
        hg = random_valid_hypergraph(rng, n_max=8, m_max=10)
        demands = DemandFunction(
            tuple(rng.choice((0, 0, 1, 1, 2, 3)) for _ in range(hg.n))
        )
        result = orient_with_demands(hg, demands)
        if result.is_oriented:
            oriented_seen += 1
            indegrees = result.oriented.indegrees()
            assert all(ind >= demands[v] for v, ind in enumerate(indegrees))
        else:
            violator_seen += 1
            F = result.violator
            assert demands.sum_over(F) > hg.incident_edge_count(F)
    assert oriented_seen and violator_seen


def test_determinism():
    rng = random.Random(7)
    for _ in range(30):
        hg = random_valid_hypergraph(rng)
        demands = DemandFunction(tuple(rng.randint(0, 2) for _ in range(hg.n)))
        first = orient_with_demands(hg, demands)
        second = orient_with_demands(hg, demands)
        assert first == second


def recursive_matching(graph: DemandBipartiteGraph) -> tuple:
    """Hopcroft-Karp with the textbook recursive search, scanning in the
    same order as the package: the reference its iterative search must
    reproduce exactly."""
    m = len(graph.adjacency)
    pair_left = [-1] * m
    pair_right = [-1] * graph.num_copies
    dist = [0] * m

    def bfs():
        queue = deque()
        for i in range(m):
            dist[i] = 0 if pair_left[i] == -1 else -1
            if dist[i] == 0:
                queue.append(i)
        shortest = -1
        while queue:
            i = queue.popleft()
            if shortest != -1 and dist[i] >= shortest:
                continue
            for w in graph.adjacency[i]:
                j = pair_right[w]
                if j == -1:
                    if shortest == -1:
                        shortest = dist[i] + 1
                elif dist[j] == -1:
                    dist[j] = dist[i] + 1
                    queue.append(j)
        return shortest != -1

    def dfs(i):
        for w in graph.adjacency[i]:
            j = pair_right[w]
            if j == -1 or (dist[j] == dist[i] + 1 and dfs(j)):
                pair_left[i] = w
                pair_right[w] = i
                return True
        dist[i] = -1
        return False

    while bfs():
        for i in range(m):
            if pair_left[i] == -1:
                dfs(i)
    return pair_left, pair_right


def test_matching_equals_recursive_reference():
    rng = random.Random(1789)
    for _ in range(300):
        hg = random_valid_hypergraph(rng, n_max=10, m_max=16)
        demands = DemandFunction(
            tuple(rng.choice((0, 0, 1, 1, 2, 3)) for _ in range(hg.n))
        )
        graph = DemandBipartiteGraph(hg, demands)
        assert graph.max_matching() == recursive_matching(graph)


def test_long_augmenting_paths_do_not_recurse():
    # the path P_3000 with its edges listed in descending order: the last
    # augmentation walks an alternating path through every edge, which a
    # recursive search could not follow within the interpreter's stack
    n = 3000
    path = Hypergraph(n, tuple((i, i + 1) for i in reversed(range(n - 1))))
    demands = [0] + [1] * (n - 1)
    result = orient_with_demands(path, demands)
    assert result.is_oriented
    assert all(ind >= f for ind, f in zip(result.oriented.indegrees(), demands))


def test_non_maximum_matching_raises_internal_error(monkeypatch):
    monkeypatch.setattr(DemandBipartiteGraph, "max_matching", empty_matching)
    # H1 demands one head at vertex 2, which the empty matching leaves out
    with pytest.raises(InternalError, match="not maximum"):
        orient_floor(H1)


def test_infeasible_floor_demands_raise_internal_error(monkeypatch):
    monkeypatch.setattr(
        orientation,
        "orient_with_demands",
        lambda hypergraph, demands: OrientationResult(violator=(2,)),
    )
    with pytest.raises(InternalError, match="must be feasible"):
        orient_floor(H1)
