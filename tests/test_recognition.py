import collections
import random

import pytest

from hypershrink import (
    DirectedHypergraph,
    Hypergraph,
    LimitExceededError,
    Shrinking,
    adversarial_star,
    brute_force_shrink,
    floor_demand,
    is_hypertree,
    is_hypertree_bruteforce,
    maximum_rainbow_forest,
    orient_floor,
    orient_with_demands,
    random_hypertree,
    shrink_hypertree,
    shrinking_to_dot,
    shrinking_to_json,
    star_graph,
    verify_shrinking,
)
from hypershrink import orientation
from helpers import (
    H1,
    NESTED4,
    PATH3,
    SINGLE_BIG3,
    STAR7,
    TRIANGLE3,
    TRIANGLE4,
    break_hypertree,
    brute_is_hypertree,
    count_incidence_builds,
    count_repairs,
    four_labellings,
    moved_to_an_end,
    random_edge_family,
    random_tree_count_hypergraph,
    reference_two_sided_repair,
    relabelled,
    sweep_tree_count_hypergraphs,
)


def test_every_small_hypergraph_agrees_with_the_oracles():
    # every simple hypergraph with n - 1 hyperedges on n <= 5 vertices,
    # not a sample: recognition and shrink at n <= 5, and the orientation
    # on every demand vector in {0, 1, 2}^n at n <= 4
    tally, disagreements = collections.Counter(), []
    for n in range(1, 6):
        counts, failed = sweep_tree_count_hypergraphs(n)
        tally += counts
        disagreements += failed
    assert disagreements == []
    assert tally == {"hypergraphs": 15123, "hypertrees": 13147, "demand vectors": 13539}


def test_h1_is_hypertree():
    assert is_hypertree(H1)
    assert bool(is_hypertree_bruteforce(H1))


def test_triangle_on_three_vertices():
    result = is_hypertree_bruteforce(TRIANGLE3)
    assert not result
    assert result.violating_subset == (0, 1, 2)
    assert not is_hypertree(TRIANGLE3)


def test_triangle_on_four_vertices():
    # refused by the orientation: the triangle demands three heads
    assert not orient_with_demands(TRIANGLE4, (0, 1, 1, 1)).is_oriented
    assert not is_hypertree(TRIANGLE4)
    assert not is_hypertree_bruteforce(TRIANGLE4)


def test_nested_edges_hypertree():
    assert is_hypertree(NESTED4)
    assert bool(is_hypertree_bruteforce(NESTED4))


def test_single_hyperedge_wrong_count():
    result = is_hypertree_bruteforce(SINGLE_BIG3)
    assert not result
    assert result.bad_edge_count
    assert not is_hypertree(SINGLE_BIG3)


def test_plain_trees_are_hypertrees():
    path = Hypergraph(4, ((0, 1), (1, 2), (2, 3)))
    star = Hypergraph(4, ((0, 1), (0, 2), (0, 3)))
    for tree in (path, star):
        assert is_hypertree(tree)
        assert bool(is_hypertree_bruteforce(tree))


def test_star7_has_too_few_edges():
    assert not is_hypertree(STAR7)
    assert not is_hypertree_bruteforce(STAR7)


def test_tiny_cases():
    assert is_hypertree(Hypergraph(1, ()))
    assert bool(is_hypertree_bruteforce(Hypergraph(1, ())))
    assert is_hypertree(Hypergraph(2, ((0, 1),)))
    assert not is_hypertree(Hypergraph(2, ()))
    assert not is_hypertree_bruteforce(Hypergraph(2, ()))


def test_bruteforce_limit():
    big = Hypergraph(21, tuple((i, i + 1) for i in range(20)))
    with pytest.raises(LimitExceededError):
        is_hypertree_bruteforce(big)
    small = Hypergraph(6, tuple((i, i + 1) for i in range(5)))
    with pytest.raises(LimitExceededError):
        is_hypertree_bruteforce(small, limit=5)
    assert bool(is_hypertree_bruteforce(small, limit=6))


def test_bruteforce_matches_naive_definition():
    rng = random.Random(777)
    for _ in range(200):
        hg = random_tree_count_hypergraph(rng, rng.randint(2, 6))
        assert bool(is_hypertree_bruteforce(hg)) == brute_is_hypertree(hg)


def test_routes_agree_on_random_instances():
    rng = random.Random(424242)
    for _ in range(400):
        hg = random_tree_count_hypergraph(rng, rng.randint(1, 6))
        assert is_hypertree(hg) == bool(is_hypertree_bruteforce(hg))


def test_violating_subset_rechecks():
    rng = random.Random(606)
    seen = 0
    for _ in range(300):
        hg = random_tree_count_hypergraph(rng, rng.randint(2, 6))
        result = is_hypertree_bruteforce(hg)
        if not result and result.violating_subset is not None:
            seen += 1
            X = set(result.violating_subset)
            inside = sum(1 for e in hg.edges if set(e) <= X)
            assert inside > len(X) - 1
    assert seen > 0


def test_incidence_is_built_once(monkeypatch):
    # count every build, whichever package module calls it; fresh values,
    # as a shared one may hold lists an earlier test built.  The forced
    # heads and the search after them read the same lists, and a second
    # recognition only looks them up
    builds = count_incidence_builds(monkeypatch)
    hg, _ = random_hypertree(60, 4, 9, 0.8)
    for hypertree in (Hypergraph(H1.n, H1.edges), hg):
        builds.clear()
        assert is_hypertree(hypertree)
        assert is_hypertree(hypertree)
        assert builds == [hypertree]


def test_forced_heads_leave_few_repairs(monkeypatch):
    # without forced heads the greedy pass leaves about 15% of these 500
    # vertices short; with them a few are left, on hypertrees and broken
    # ones alike
    searches = count_repairs(monkeypatch)
    for k in (3, 5):
        for seed in (1, 2, 3, 4):
            hg, _ = random_hypertree(500, k, seed, 0.5)
            for instance, answer in ((hg, True), (break_hypertree(hg), False)):
                searches.clear()
                assert is_hypertree(instance) == answer
                assert len(searches) <= 12


def count_labels(monkeypatch) -> tuple:
    """``(labels, states)``: ``labels`` gains, per repair search, the
    vertices its two sides label, the spares that start the backward side
    left out.  Beside each ``_repairs`` call's searches, the reference
    (:func:`reference_two_sided_repair`) repairs a copy of the call's
    first state, kept in ``states`` as ``(spares, heads, copied heads,
    copied need, copied spares)``.  Each search must return and leave in
    ``spares`` what the reference does, so the reference's counts are
    the search's."""
    labels, states = [], {}
    real = orientation._repair

    def counted(v, heads, need, incident, edges, spares):
        # the state holds spares, so its id is not reused while it is kept
        if id(spares) not in states:
            states[id(spares)] = (spares, heads, heads.copy(), need.copy(), spares.copy())
        _, _, expected_heads, expected_need, expected_spares = states[id(spares)]
        expected, ahead, behind = reference_two_sided_repair(
            v, expected_heads, expected_need, incident, edges, expected_spares
        )
        reached = real(v, heads, need, incident, edges, spares)
        assert reached == expected
        assert list(spares) == list(expected_spares)
        labels.append(ahead + behind)
        return reached

    monkeypatch.setattr(orientation, "_repair", counted)
    return labels, states


def test_repair_searches_label_at_most_3n(monkeypatch):
    # one-sided searches labelled 6.92n and 4.24n vertices on these two
    # hypertrees as generated, and two-sided ones 2.20n and 1.16n.  The
    # first is checked under four labellings and with the vertices the
    # forced heads leave short taking the first labels, so that they are
    # served first; those read 2.30n-2.73n.  The repaired heads must end
    # as the reference's
    labels, states = count_labels(monkeypatch)
    first = random_hypertree(50000, 5, 1, 0.8)[0]
    need = [0] + [1] * (first.n - 1)
    orientation._forced_heads(first.edges, need, orientation._incidence(first))
    short = [v for v, left in enumerate(need) if left > 0]
    orders = four_labellings(first.n) + [moved_to_an_end(first.n, short)]
    hypertrees = [relabelled(first, order) for order in orders]
    hypertrees.append(random_hypertree(50000, 3, 1, 0.5)[0])
    for hg in hypertrees:
        labels.clear()
        states.clear()
        assert is_hypertree(hg)
        assert labels and sum(labels) <= 3 * hg.n
        ((_, heads, expected_heads, _, _),) = states.values()
        assert heads == expected_heads


def test_check_at_scale_10000():
    hg, _ = random_hypertree(10000, 5, 2, 0.8)
    assert is_hypertree(hg)


@pytest.mark.parametrize(
    "edges, message",
    [
        # a negative id would index from the end of a per-vertex list
        (((-1, 0),), "vertex-range at edge 0: edge [-1, 0] leaves [0, 2)"),
        (((),), "loop at edge 0: edge [] has size 0"),
        (((0, 5),), "vertex-range at edge 0: edge [0, 5] leaves [0, 2)"),
        (((1, 1),), "loop at edge 0: edge [1, 1] has size 1\n"
                    "unsorted at edge 0: edge [1, 1] is not strictly sorted"),
        (((1, 0),), "unsorted at edge 0: edge [1, 0] is not strictly sorted"),
        (((0, 1), (0, 1)), "duplicate at edge 1: edge [0, 1] repeats edge 0"),
    ],
)
def test_invalid_hypergraph_is_refused(edges, message):
    for public in (is_hypertree, shrink_hypertree):
        with pytest.raises(ValueError) as info:
            public(Hypergraph(2, edges))
        assert str(info.value) == f"invalid hypergraph: {message}"


# every other entry point that uses vertex ids as indices, each given a
# well-formed demand, k or shrinking for the path 0 - 1 - 2
PATH_SHRINKING = Shrinking(((0, 1), (1, 2)), (0, 1))
INDEXING_ENTRY_POINTS = {
    "orient_with_demands": lambda h: orient_with_demands(h, (0, 1, 1)),
    "floor_demand": lambda h: floor_demand(h, 2),
    "orient_floor": lambda h: orient_floor(h, 2),
    "verify_shrinking": lambda h: verify_shrinking(h, PATH_SHRINKING),
    "shrinking_to_json": lambda h: shrinking_to_json(h, PATH_SHRINKING),
    "shrinking_to_dot": lambda h: shrinking_to_dot(h, PATH_SHRINKING),
    "brute_force_shrink": brute_force_shrink,
    "is_hypertree_bruteforce": is_hypertree_bruteforce,
    "star_graph": lambda h: star_graph(DirectedHypergraph(h, tuple(e[-1] for e in h.edges))),
    "maximum_rainbow_forest":
        lambda h: maximum_rainbow_forest(DirectedHypergraph(h, tuple(e[-1] for e in h.edges))),
}


@pytest.mark.parametrize("entry_point", list(INDEXING_ENTRY_POINTS))
@pytest.mark.parametrize(
    "edges, message",
    [
        # -1 indexes from the end of a per-vertex list: unchecked, it gives
        # head -1, the floor demand (1, 0, 0) and the tree edge (-1, 0)
        (((-1, 0), (0, 1)), "vertex-range at edge 0: edge [-1, 0] leaves [0, 3)"),
        # past the end: IndexError, or a hypertree by the subset count
        (((0, 5), (1, 2)), "vertex-range at edge 0: edge [0, 5] leaves [0, 3)"),
        # unchecked, star_graph expands it to ((0, 1, 0), (0, 1, 1))
        (((0, 1), (0, 1)), "duplicate at edge 1: edge [0, 1] repeats edge 0"),
    ],
    ids=["below-range", "above-range", "duplicate"],
)
def test_every_indexing_entry_point_refuses_an_invalid_hypergraph(
    entry_point, edges, message
):
    with pytest.raises(ValueError) as info:
        INDEXING_ENTRY_POINTS[entry_point](Hypergraph(3, edges))
    assert str(info.value) == f"invalid hypergraph: {message}"


def test_orientable_but_unreachable_is_not_a_hypertree():
    # vertex 0 reaches only {0, 4}: the triangle {1, 2, 3} holds three
    # hyperedges, each headed inside it, while the orientation exists
    hg = Hypergraph(5, ((1, 2), (2, 3), (1, 3), (0, 1, 4)))
    assert orient_with_demands(hg, (0, 1, 1, 1, 1)).is_oriented
    assert not is_hypertree(hg)
    assert not brute_is_hypertree(hg)


def test_agrees_with_the_definition_on_small_edge_families():
    rng = random.Random(2003)
    negatives = 0
    for _ in range(1500):
        hg = random_edge_family(rng, rng.randint(2, 8))
        want = brute_is_hypertree(hg)
        assert is_hypertree(hg) == want, hg
        negatives += not want
    assert negatives >= 150


def path_in_three_orders(n: int):
    path = [(i, i + 1) for i in range(n - 1)]
    alternating = [path[i // 2] if i % 2 == 0 else path[-1 - i // 2] for i in range(n - 1)]
    return path, path[::-1], alternating


def test_long_paths_in_every_edge_order():
    for edges in path_in_three_orders(20000):
        assert is_hypertree(Hypergraph(20000, tuple(edges)))


@pytest.mark.parametrize("k", (3, 4))
def test_adversarial_star_in_both_labellings(k):
    hub = adversarial_star(2000, k)
    top = hub.n - 1
    mirrored = Hypergraph(
        hub.n, tuple(sorted(tuple(sorted(top - v for v in e)) for e in hub.edges))
    )
    assert is_hypertree(hub)
    assert is_hypertree(mirrored)


def test_certified_break_at_scale_10000():
    hg, _ = random_hypertree(10000, 5, 2, 0.8)
    assert not is_hypertree(break_hypertree(hg))
