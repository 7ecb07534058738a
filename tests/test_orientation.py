import itertools
import random

import pytest

from hypershrink import (
    DemandFunction,
    Hypergraph,
    InternalError,
    OrientationResult,
    adversarial_star,
    floor_demand,
    is_hypertree,
    orient_floor,
    orient_with_demands,
    random_hypertree,
    shrink_hypertree,
    verify_shrinking,
)
from hypershrink import orientation
from helpers import (
    H1,
    PATH3,
    STAR7,
    TRIANGLE4,
    brute_orientation_exists,
    random_valid_hypergraph,
    reference_greedy_heads,
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


def test_floor_demand_reads_none_as_the_rank():
    # None once reached the rank comparison and raised TypeError
    for hg in (H1, adversarial_star(40, 3), Hypergraph(1, ())):
        assert floor_demand(hg, None) == floor_demand(hg, max(hg.rank(), 1))


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


def test_orient_floor_edgeless_refuses_k_below_one():
    # the same refusal as on every hypergraph with edges
    with pytest.raises(ValueError, match="k must be positive"):
        orient_floor(Hypergraph(3, ()), k=0)


def test_orient_floor_bound_on_random_hypergraphs():
    rng = random.Random(5150)
    for _ in range(150):
        hg = random_valid_hypergraph(rng)
        k = hg.rank()
        directed = orient_floor(hg)
        degrees = hg.degrees()
        indegrees = directed.indegrees()
        assert all(ind >= d // k for ind, d in zip(indegrees, degrees))


def test_orientation_matches_exhaustive_oracle():
    rng = random.Random(99)
    oriented_seen = violator_seen = 0
    for _ in range(300):
        hg = random_valid_hypergraph(rng, n_max=6, m_max=7)
        demands = DemandFunction(tuple(rng.randint(0, 2) for _ in range(hg.n)))
        result = orient_with_demands(hg, demands)
        assert result.is_oriented == brute_orientation_exists(hg, demands)
        if result.is_oriented:
            oriented_seen += 1
            indegrees = result.oriented.indegrees()
            assert all(ind >= demands[v] for v, ind in enumerate(indegrees))
        else:
            violator_seen += 1
            F = result.violator
            assert demands.sum_over(F) > hg.incident_edge_count(F)
    assert oriented_seen and violator_seen


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


def test_infeasible_floor_demands_raise_internal_error(monkeypatch):
    monkeypatch.setattr(
        orientation,
        "orient_with_demands",
        lambda hypergraph, demands: OrientationResult(violator=(2,)),
    )
    with pytest.raises(InternalError, match="must be feasible"):
        orient_floor(H1)


def assert_floor_met(hypergraph, k):
    directed = orient_floor(hypergraph, k)
    degrees = hypergraph.degrees()
    assert all(ind >= d // k for ind, d in zip(directed.indegrees(), degrees))


@pytest.mark.parametrize("k", [3, 5])
def test_orient_floor_at_scale(k):
    hg, _ = random_hypertree(10000, k, 17, 0.8)
    assert_floor_met(hg, k)


def test_orient_floor_on_hub_in_both_labellings():
    hub = adversarial_star(5000, 3)
    n = hub.n
    reversed_hub = Hypergraph(
        n, tuple(tuple(sorted(n - 1 - v for v in e)) for e in hub.edges)
    )
    for hg in (hub, reversed_hub):
        assert_floor_met(hg, 3)


def test_long_path_with_descending_edges():
    # the greedy pass leaves the far end short and vertex 0 with a spare
    # head, so one repair search walks the whole path
    n = 20000
    path = Hypergraph(n, tuple((i, i + 1) for i in reversed(range(n - 1))))
    demands = [0] + [1] * (n - 1)
    result = orient_with_demands(path, demands)
    assert result.is_oriented
    assert all(ind >= f for ind, f in zip(result.oriented.indegrees(), demands))


def test_shrink_builds_no_incidence_when_no_vertex_is_short(monkeypatch):
    # no vertex of these is short after the greedy heads, so the incidence
    # lists, which only the repair searches read, are never built
    def refuse(hypergraph):
        raise AssertionError("incidence lists built without a repair search")

    monkeypatch.setattr(orientation, "_incidence", refuse)
    for hg in (adversarial_star(1000, 4), random_hypertree(500, 5, 1, 0.8)[0]):
        assert verify_shrinking(hg, shrink_hypertree(hg)).all_passed


def test_incidence_built_once_where_it_is_read(monkeypatch):
    built = []
    incidence = orientation._incidence
    monkeypatch.setattr(orientation, "_incidence", lambda hg: built.append(hg) or incidence(hg))
    # greedy heads edge 0 at 2, so vertex 0 is short and one repair runs
    result = orient_with_demands(H1, (1, 0, 2, 0))
    assert result.oriented.heads == (0, 2, 2)
    assert len(built) == 1
    # is_hypertree reads the lists after the orientation, repair or not:
    # no vertex of H1 is short, the descending path repairs its far end
    # and TRIANGLE4's isolated vertex 3 ends in a violator
    descending = Hypergraph(6, tuple((i, i + 1) for i in reversed(range(5))))
    for hg, answer in ((H1, True), (descending, True), (TRIANGLE4, False)):
        built.clear()
        assert is_hypertree(hg) == answer
        assert len(built) == 1


def test_greedy_heads_match_the_max_reference(monkeypatch):
    # a repair that gives up at once leaves _orient's heads and needs as
    # the greedy pass set them; pairs and triples are headed inline, so
    # they must pick the first maximal member, as max does, under ties
    # and needs that start or go negative, in any member order
    monkeypatch.setattr(orientation, "_repair", lambda v, heads, need, incident: {v: None})
    rng = random.Random(5)
    sizes = set()
    for _ in range(400):
        n = rng.randint(6, 12)
        edges = []
        for _ in range(rng.randint(1, 3 * n)):
            edge = rng.sample(range(n), rng.randint(2, 6))
            if rng.random() < 0.8:
                edge.sort()
            edges.append(tuple(edge))
        hg = Hypergraph(n, tuple(edges))
        sizes.update(map(len, edges))
        need = [rng.randint(-2, 3) for _ in range(n)]
        expected_need = need.copy()
        expected = reference_greedy_heads(hg, expected_need)
        heads, _, _ = orientation._orient(hg, need)
        assert heads == expected
        assert need == expected_need
    assert sizes == {2, 3, 4, 5, 6}
