import random

import pytest

from hypershrink import (
    Hypergraph,
    LimitExceededError,
    is_hypertree,
    is_hypertree_bruteforce,
    random_hypertree,
)
from helpers import (
    H1,
    NESTED4,
    PATH3,
    SINGLE_BIG3,
    STAR7,
    TRIANGLE3,
    TRIANGLE4,
    brute_is_hypertree,
    random_tree_count_hypergraph,
)


def test_h1_is_hypertree():
    assert is_hypertree(H1)
    assert bool(is_hypertree_bruteforce(H1))


def test_triangle_on_three_vertices():
    result = is_hypertree_bruteforce(TRIANGLE3)
    assert not result
    assert result.violating_subset == (0, 1, 2)
    assert not is_hypertree(TRIANGLE3)


def test_triangle_on_four_vertices():
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


def test_check_at_scale_10000():
    hg, _ = random_hypertree(10000, 5, 2, 0.8)
    assert is_hypertree(hg)
