import hashlib
import json

import pytest

from hypershrink import (
    Shrinking,
    adversarial_star,
    hypergraph_to_json,
    is_hypertree,
    is_hypertree_bruteforce,
    random_hypertree,
    random_tree,
    shrink_hypertree,
    validate,
    verify_shrinking,
)
from hypershrink.gen import SplitMix64
from helpers import is_spanning_tree


def test_splitmix64_reference_vectors():
    # published outputs of the reference implementation
    rng = SplitMix64(0)
    assert [rng.next_uint64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]
    rng = SplitMix64(1234567)
    assert [rng.next_uint64() for _ in range(3)] == [
        0x599ED017FB08FC85,
        0x2C73F08458540FA5,
        0x883EBCE5A3F27C77,
    ]


def test_splitmix64_helpers():
    rng = SplitMix64(5)
    values = {rng.randrange(7) for _ in range(300)}
    assert values == set(range(7))
    with pytest.raises(ValueError):
        rng.randrange(0)
    assert not SplitMix64(1).chance(0.0)
    assert SplitMix64(1).chance(1.0)
    with pytest.raises(ValueError):
        rng.chance(1.5)
    picked = SplitMix64(9).sample(list(range(10)), 4)
    assert len(picked) == len(set(picked)) == 4


def test_randrange_refuses_a_bound_above_2_to_the_64():
    # above 2**64 the rejection threshold is 0, so the loop once rejected
    # every draw and never returned
    for bound in (2**64 + 1, 2**70):
        with pytest.raises(ValueError) as info:
            SplitMix64(1).randrange(bound)
        assert str(info.value) == "bound must be at most 2**64"
    # 2**64 itself accepts every draw as it is
    assert SplitMix64(1).randrange(2**64) == SplitMix64(1).next_uint64()


def test_random_tree_small_cases():
    with pytest.raises(ValueError):
        random_tree(0, 1)
    assert random_tree(1, 123) == ()
    assert random_tree(2, 123) == ((0, 1),)


def test_random_tree_pinned_values():
    # stable across runs and platforms
    assert random_tree(4, 0) == ((1, 3), (0, 2), (0, 3))
    assert random_tree(4, 1) == ((0, 1), (1, 3), (2, 3))


def test_random_tree_is_spanning_tree():
    for n in (3, 7, 25, 80):
        for seed in range(5):
            assert is_spanning_tree(n, random_tree(n, seed))


def test_all_three_vertex_trees_appear():
    trees = {random_tree(3, seed) for seed in range(60)}
    assert trees == {
        ((0, 1), (0, 2)),
        ((0, 1), (1, 2)),
        ((0, 2), (1, 2)),
    }


def test_random_hypertree_p_zero_is_the_tree():
    hg, witness = random_hypertree(9, 5, 17, 0.0)
    assert hg.edges == witness
    assert hg.edges == random_tree(9, 17)


def test_random_hypertree_expands_and_stays_hypertree():
    hg, witness = random_hypertree(4, 3, 2, 1.0)
    assert hg.num_edges == 3
    assert hg.rank() <= 3
    assert bool(is_hypertree_bruteforce(hg))


def test_random_hypertree_witness_verifies():
    for seed in range(15):
        hg, witness = random_hypertree(11, 4, seed, 0.7)
        report = verify_shrinking(hg, Shrinking.from_pairs(witness))
        assert report["spanning-tree"].passed
        assert report["containment"].passed


def test_random_hypertree_outputs_validate():
    for seed in range(25):
        hg, _ = random_hypertree(14, 6, seed, 0.5)
        assert validate(hg).ok
        assert is_hypertree(hg)


def test_random_hypertree_determinism():
    a = hypergraph_to_json(random_hypertree(30, 4, 99, 0.6)[0])
    b = hypergraph_to_json(random_hypertree(30, 4, 99, 0.6)[0])
    assert a == b


# SHA-256 of hypergraph_to_json(H) + "\n" + the witness pairs as JSON +
# "\n", recorded from the generator that copied an n-element candidate
# list per expanded edge; the lazy shuffle must draw the same stream.
# The cases cover n = 2, pools smaller than the draw, redraws and the
# n = 500 instances of the benchmark pools.
GEN_DIGESTS = {
    (2, 2, 0, 0.5): "a5238c8b8ed9d098c9d452f0668eee4ab9601df2f49ad767f3fc9ea186dc5269",
    (3, 5, 4, 1.0): "250388f415271f9929b4148b3ff79440c68876a6d647fd9364d3986d73ff0da1",
    (4, 8, 5, 1.0): "d9b853db84820fdac674f6a2e8f05ada2ccb938fe3825c02cbf7c9a62501ebce",
    (10, 3, 1, 0.5): "4eb6a412e6814f17a93e51330b28127e6620179ad30b3232fd1e2dba183a7fe2",
    (50, 5, 7, 0.8): "1cf1e08da1781f179763c3897b201e754a7e62e206e9bff46d4fad1bd28a635b",
    (200, 4, 3, 1.0): "016828c856f293f0b1f8b1d73135deeca14424c7aa1437869eb43a27b4cfb65b",
    (500, 3, 1, 0.5): "4995e98b81b4d0ac43b94019a1f6024c3f6260007b977b154336b702de146373",
    (500, 5, 2, 0.8): "2908cd31d80f3497821afae472b07e45777e977f487ec7ac70323cc46ef9a004",
    (1000, 6, 11, 0.3): "a77d4a125e5ca39707836b468dffefbb64910546cbf400ea1d95840f1e3b1d20",
    (2000, 5, 1, 0.8): "0d23a37fe3768e0a7899131953b0168210c1aad6e5d7885cfe6f62cd393cf39f",
}


@pytest.mark.parametrize("case", sorted(GEN_DIGESTS))
def test_random_hypertree_pinned_digests(case):
    hg, witness = random_hypertree(*case)
    text = (
        hypergraph_to_json(hg)
        + "\n"
        + json.dumps({"pairs": [list(pair) for pair in witness]})
        + "\n"
    )
    assert hashlib.sha256(text.encode()).hexdigest() == GEN_DIGESTS[case]


def eager_shuffle_prefix(rng: SplitMix64, size: int, count: int) -> list:
    """Partial Fisher-Yates over a materialised index list."""
    pool = list(range(size))
    count = min(count, size)
    for i in range(count):
        j = i + rng.randrange(size - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:count]


def test_sample_indices_match_the_eager_shuffle():
    for size in range(7):
        for count in range(9):
            seed = size * 9 + count
            lazy = SplitMix64(seed).sample_indices(size, count)
            assert lazy == eager_shuffle_prefix(SplitMix64(seed), size, count)
            population = [10 * i for i in range(size)]
            assert SplitMix64(seed).sample(population, count) == [
                population[i] for i in lazy
            ]


def test_random_hypertree_preconditions():
    with pytest.raises(ValueError):
        random_hypertree(1, 3, 0)
    with pytest.raises(ValueError):
        random_hypertree(5, 1, 0)
    with pytest.raises(ValueError):
        random_hypertree(5, 3, 0, 1.5)


def test_adversarial_star_small():
    star = adversarial_star(3, 3)
    assert star.n == 7
    assert sum(0 in e for e in star.edges) == 3
    assert validate(star).ok
    assert is_hypertree(star)
    assert bool(is_hypertree_bruteforce(star))


def test_adversarial_star_single_edge():
    star = adversarial_star(1, 2)
    assert star.n == 2
    assert star.edges == ((0, 1),)


def test_adversarial_star_hub_floor():
    star = adversarial_star(100, 3)
    s = shrink_hypertree(star)
    assert s.tree_degrees(star.n)[0] >= 33


def test_adversarial_star_preconditions():
    with pytest.raises(ValueError):
        adversarial_star(0, 3)
    with pytest.raises(ValueError):
        adversarial_star(3, 1)
