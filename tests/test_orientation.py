import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from hypershrink import (
    DemandFunction,
    DirectedHypergraph,
    Hypergraph,
    InternalError,
    NotAHypertreeError,
    OrientationResult,
    adversarial_star,
    floor_demand,
    is_hypertree,
    maximum_rainbow_forest,
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
    count_incidence_builds,
    count_repairs,
    four_labellings,
    random_edge_family,
    random_valid_hypergraph,
    reference_greedy_heads,
    reference_hub_like,
    reference_repair,
    reference_two_sided_repair,
    relabelled,
)


def test_certified_counts_are_remembered_on_the_result():
    # the counts the violator was certified with, (f(F), e*(F)), are a
    # memo: equality, hash, repr and match patterns read the fields alone
    result = orient_with_demands(TRIANGLE4, (0, 1, 1, 1))
    assert result._certificate == (1, 0)
    plain = OrientationResult(violator=result.violator)
    assert result == plain and hash(result) == hash(plain) and repr(result) == repr(plain)
    assert OrientationResult.__match_args__ == ("oriented", "violator")
    # the total exceeds the hyperedge count: F = V, which every hyperedge meets
    assert orient_with_demands(PATH3, (1, 1, 1))._certificate == (3, 2)


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
    # after 300 random draws, 300 tight ones: each hyperedge adds one to
    # the demand of a random vertex, so the total is the hyperedge count
    # and forced heads come before the greedy ones
    rng = random.Random(99)
    oriented_seen = violator_seen = 0
    tight_seen = {True: 0, False: 0}
    for draw in range(600):
        hg = random_valid_hypergraph(rng, n_max=6, m_max=7)
        if draw < 300:
            values = [rng.randint(0, 2) for _ in range(hg.n)]
        else:
            values = [0] * hg.n
            for _ in hg.edges:
                values[rng.randrange(hg.n)] += 1
        demands = DemandFunction(tuple(values))
        result = orient_with_demands(hg, demands)
        assert result.is_oriented == brute_orientation_exists(hg, demands)
        if demands.total() == hg.num_edges:
            tight_seen[result.is_oriented] += 1
        if result.is_oriented:
            oriented_seen += 1
            indegrees = result.oriented.indegrees()
            assert all(ind >= demands[v] for v, ind in enumerate(indegrees))
        else:
            violator_seen += 1
            F = result.violator
            assert demands.sum_over(F) > hg.incident_edge_count(F)
    assert oriented_seen and violator_seen
    assert min(tight_seen.values()) >= 50


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


def descending_paths(n: int) -> tuple:
    """The path P_n with its edges listed in descending order, for demand
    0 at vertex 0 and 1 elsewhere, and the same path followed by the
    hyperedge (0, 2).  The first has tight demands, so forced heads run
    down it from the far end.  The second has slack ones: the greedy pass
    heads each path edge at its lower end and (0, 2) at 2, so the far end
    is short, vertex 2 heads a spare hyperedge and one repair search
    walks an alternating path through all but two edges."""
    path = tuple((i, i + 1) for i in reversed(range(n - 1)))
    return Hypergraph(n, path), Hypergraph(n, path + ((0, 2),))


def test_long_augmenting_paths_do_not_recurse():
    # neither the forced cascade nor the repair search recurses, so both
    # follow P_3000 within the interpreter's stack
    n = 3000
    demands = [0] + [1] * (n - 1)
    for hg in descending_paths(n):
        result = orient_with_demands(hg, demands)
        assert result.is_oriented
        assert all(ind >= f for ind, f in zip(result.oriented.indegrees(), demands))


def test_infeasible_floor_demands_raise_internal_error(monkeypatch):
    # fresh copies of H1, which is not hub-like, so both take the warm
    # start: one from tight heads remembered before the repairs fail here,
    # where the floor repairs fail; the other from failing tight heads,
    # whose violator (2,) meets three hyperedges, so it is refused when
    # the tight heads are built, before any floor repair runs
    warm, cold = Hypergraph(H1.n, H1.edges), Hypergraph(H1.n, H1.edges)
    assert is_hypertree(warm)
    monkeypatch.setattr(orientation, "_repairs", lambda hypergraph, heads, need: (heads, (2,)))
    with pytest.raises(InternalError, match="must be feasible"):
        orient_floor(warm)
    monkeypatch.setattr(orientation, "_orient", lambda hypergraph, need: ([2, 2, 2], (2,)))
    with pytest.raises(InternalError, match=r"violator \(2,\) has f\(F\) = 1 <= e\*\(F\)"):
        orient_floor(cold)


def test_uncertified_tight_violator_is_refused_by_every_reader(monkeypatch):
    # the stand-in fails only the tight repairs, the one call made before
    # the tight heads are remembered; its violator (2,) demands one head
    # but meets all three hyperedges of H1.  Each reader gets it through
    # _tight_heads, which refuses it and remembers nothing
    repairs = orientation._repairs

    def tight_fails(hypergraph, heads, need):
        if "_tight" in vars(hypergraph):
            return repairs(hypergraph, heads, need)
        return heads, (2,)

    monkeypatch.setattr(orientation, "_repairs", tight_fails)
    readers = (
        orient_floor,
        lambda h: maximum_rainbow_forest(DirectedHypergraph(h, (2, 2, 2))),
        is_hypertree,
        shrink_hypertree,
    )
    for read in readers:
        h = Hypergraph(H1.n, H1.edges)
        with pytest.raises(InternalError, match=r"violator \(2,\) has f\(F\) = 1 <= e\*\(F\)"):
            read(h)
        assert "_tight" not in vars(h)


def test_tight_certificate_is_counted_once(monkeypatch):
    # TRIANGLE4 has |E| = n - 1 and is not hub-like, so both is_hypertree
    # and shrink_hypertree refuse it on the tight heads' violator; it is
    # certified when it is remembered, not on each read
    counted = []
    real = Hypergraph.incident_edge_count

    def counting(hypergraph, vertices):
        counted.append(vertices)
        return real(hypergraph, vertices)

    monkeypatch.setattr(Hypergraph, "incident_edge_count", counting)
    h = Hypergraph(TRIANGLE4.n, TRIANGLE4.edges)
    assert not is_hypertree(h)
    with pytest.raises(NotAHypertreeError):
        shrink_hypertree(h)
    assert len(counted) == 1


def test_floor_orientation_starts_from_failed_tight_heads(monkeypatch):
    # |E| = n - 1 and not hub-like, but the tight demands fail: TRIANGLE4's
    # isolated vertex 3 heads nothing, and so do short vertices of random
    # edge families.  The tight heads still head every hyperedge, so the
    # floor orientation repairs a copy of them and runs no greedy pass
    def refuse(hypergraph, need):
        raise AssertionError("the greedy pass ran")

    repairs = orientation._repairs
    rng = random.Random(3)
    families = [TRIANGLE4] + [random_edge_family(rng, rng.randint(3, 12)) for _ in range(300)]
    checked = 0
    for hg in families:
        hg = Hypergraph(hg.n, hg.edges)
        tight, violator = orientation._tight_heads(hg)
        if violator is None or orientation._hub_like(hg):
            continue
        kept = tight.copy()
        starts = []
        with monkeypatch.context() as patch:
            patch.setattr(orientation, "_orient", refuse)
            patch.setattr(
                orientation,
                "_repairs",
                lambda hypergraph, heads, need: starts.append(heads.copy())
                or repairs(hypergraph, heads, need),
            )
            assert_floor_met(hg, hg.rank())
        assert starts == [tight]
        assert orientation._tight_heads(hg) == (kept, violator)
        checked += 1
    assert checked >= 50


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


def test_long_path_with_descending_edges(monkeypatch):
    searches = count_repairs(monkeypatch)
    n = 20000
    demands = [0] + [1] * (n - 1)
    for hg, expected in zip(descending_paths(n), ([], [n - 1])):
        searches.clear()
        result = orient_with_demands(hg, demands)
        assert result.is_oriented
        assert all(ind >= f for ind, f in zip(result.oriented.indegrees(), demands))
        assert searches == expected


def test_floor_orientation_builds_no_incidence_when_no_vertex_is_short(monkeypatch):
    # a hub, and a hypertree less one hyperedge, take the cold floor
    # orientation; no vertex of them is short after its greedy heads, so
    # the incidence lists, which only the repair searches read, are never
    # built.  The whole hypertree is not hub-like, so its floor
    # orientation starts from the tight heads, which build them
    def refuse(hypergraph):
        raise AssertionError("incidence lists built without a repair search")

    tree = random_hypertree(500, 5, 1, 0.8)[0]
    hypergraphs = (adversarial_star(1000, 4), Hypergraph(tree.n, tree.edges[1:]))
    with monkeypatch.context() as patch:
        patch.setattr(orientation, "_incidence", refuse)
        for hg in hypergraphs:
            orient_floor(hg)
        with pytest.raises(AssertionError, match="incidence lists built"):
            orient_floor(tree)
    for hg in (hypergraphs[0], tree):
        assert verify_shrinking(hg, shrink_hypertree(hg)).all_passed


def test_incidence_built_once_where_it_is_read(monkeypatch):
    # fresh values throughout: a shared one may hold lists an earlier
    # test built
    built = count_incidence_builds(monkeypatch)
    # the demands total the hyperedge count, so the forced heads read the
    # lists: vertex 0 meets one hyperedge and needs one, so it heads edge
    # 0, which leaves vertex 2 two hyperedges for its two.  A second
    # orientation of the same hypergraph reuses them
    h1 = Hypergraph(H1.n, H1.edges)
    for _ in range(2):
        result = orient_with_demands(h1, (1, 0, 2, 0))
        assert result.oriented.heads == (0, 2, 2)
        assert built == [h1]
    # is_hypertree reads the lists after the orientation too: forced heads
    # orient H1 and the descending path, and TRIANGLE4's isolated vertex 3
    # ends in a violator
    descending = Hypergraph(6, tuple((i, i + 1) for i in reversed(range(5))))
    for hg, answer in ((H1, True), (descending, True), (TRIANGLE4, False)):
        hg = Hypergraph(hg.n, hg.edges)
        built.clear()
        assert is_hypertree(hg) == answer
        assert built == [hg]


def test_shrink_builds_the_incidence_lists_once(monkeypatch):
    # the floor orientation repairs a short vertex and the rainbow seed
    # orients the same hypergraph again; both read one set of lists
    built = count_incidence_builds(monkeypatch)
    hg, _ = random_hypertree(500, 3, 1, 0.5)
    assert verify_shrinking(hg, shrink_hypertree(hg)).all_passed
    assert built == [hg]


def test_greedy_heads_match_the_max_reference(monkeypatch):
    # a repair that gives up at once leaves _orient's heads and needs as
    # the greedy pass set them; pairs and triples are headed inline, so
    # they must pick the first maximal member, as max does, under ties
    # and needs that start or go negative, in any member order.  Tight
    # needs (their total is the hyperedge count) take forced heads first;
    # some of the random needs are tight, and then 200 draws spread the
    # hyperedge count over the vertices so that every one is
    monkeypatch.setattr(orientation, "_repair", lambda v, *state: {v: None})
    rng = random.Random(5)
    sizes = set()
    tight = 0
    for draw in range(600):
        n = rng.randint(6, 12)
        edges = []
        for _ in range(rng.randint(1, 3 * n)):
            edge = rng.sample(range(n), rng.randint(2, 6))
            if rng.random() < 0.8:
                edge.sort()
            edges.append(tuple(edge))
        hg = Hypergraph(n, tuple(edges))
        sizes.update(map(len, edges))
        if draw < 400:
            need = [rng.randint(-2, 3) for _ in range(n)]
        else:
            need = [0] * n
            for _ in edges:
                need[rng.randrange(n)] += 1
        tight += sum(need) == len(edges)
        expected_need = need.copy()
        expected = reference_greedy_heads(hg, expected_need)
        heads, _ = orientation._orient(hg, need)
        assert heads == expected
        assert need == expected_need
    assert sizes == {2, 3, 4, 5, 6}
    assert tight >= 200


def test_repair_matches_the_deque_reference():
    # random heads under slack needs and under tight ones (short and spare
    # heads equally many, as in every search is_hypertree makes): the
    # hyperedge count spread over the vertices, or the indegrees with one
    # or two units moved, which leaves few spares, so that the backward
    # side is expanded.  Each short vertex is repaired until it is served
    # or its search fails, from the state the last repair left, with the
    # spares listed once, as _repairs lists them; they stay the vertices
    # with need < 0, in vertex order.  A failed search, or one whose
    # backward side labelled nothing, is the one-sided breadth-first
    # search from v (reference_repair), result and heads alike
    rng = random.Random(13)
    outcomes = set()
    tight = 0
    for draw in range(600):
        hg = random_valid_hypergraph(rng, n_max=16, m_max=24)
        heads = [rng.choice(e) for e in hg.edges]
        if draw % 3 == 0:
            need = [rng.randint(0, 2) for _ in range(hg.n)]
        elif draw % 3 == 1:
            need = [0] * hg.n
            for _ in hg.edges:
                need[rng.randrange(hg.n)] += 1
        else:
            need = [heads.count(v) for v in range(hg.n)]
            for _ in range(rng.randint(1, 2)):
                need[rng.choice(heads)] -= 1
                need[rng.randrange(hg.n)] += 1
        for head in heads:
            need[head] -= 1
        tight += sum(need) == 0
        incident = orientation._incidence(hg)
        spares = dict.fromkeys(y for y, f in enumerate(need) if f < 0)
        for v in range(hg.n):
            while need[v] > 0:
                expected_heads, expected_need = heads.copy(), need.copy()
                expected_spares = spares.copy()
                expected, _, behind = reference_two_sided_repair(
                    v, expected_heads, expected_need, incident, hg.edges, expected_spares
                )
                one_sided_heads, one_sided_need = heads.copy(), need.copy()
                one_sided = reference_repair(v, one_sided_heads, one_sided_need, incident)
                reached = orientation._repair(v, heads, need, incident, hg.edges, spares)
                assert reached == expected
                assert list(reached or ()) == list(expected or ())  # same search order
                assert heads == expected_heads
                assert need == expected_need
                assert list(spares) == list(expected_spares) == [y for y, f in enumerate(need) if f < 0]
                if reached is not None or behind == 0:
                    assert list((reached or {}).items()) == list((one_sided or {}).items())
                    assert (heads, need) == (one_sided_heads, one_sided_need)
                outcomes.add((reached is None, behind > 0))
                if reached is not None:
                    break
    # served and failed searches, each with and without the backward side
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}
    assert tight >= 400


def test_hub_like_is_remembered(monkeypatch):
    # shrink_hypertree, orient_floor and maximum_rainbow_forest each ask
    # whether the input is hub-like; the answer is remembered on the
    # hypergraph, so only the first question reads its degrees
    calls = []
    degrees = orientation._degrees
    monkeypatch.setattr(orientation, "_degrees", lambda self: calls.append(self) or degrees(self))
    for hg in (adversarial_star(2000, 3), random_hypertree(500, 3, 1, 0.5)[0]):
        calls.clear()
        first = orientation._hub_like(hg)
        assert calls == [hg]
        assert orientation._hub_like(hg) is first is reference_hub_like(hg)
        assert calls == [hg]


def assert_as_checked(directed: DirectedHypergraph) -> None:
    """``directed``, whose heads were handed on past the constructor's
    checks, is the value the checked constructor builds from its fields."""
    checked = DirectedHypergraph(directed.base, directed.heads)
    assert checked == directed and hash(checked) == hash(directed)
    assert repr(checked) == repr(directed)
    assert set(map(type, directed.heads)) <= {int}


def test_trusted_orientations_equal_checked_ones():
    # orient_floor and orient_with_demands keep the heads as built, one per
    # hyperedge and each picked from its members: on hubs, off hubs in four
    # labellings, on the tight demands and on floor demands of larger k
    cases = [adversarial_star(m, k) for m in (1, 7, 1000, 1999) for k in (3, 4)]
    for n in (2, 16, 500):
        for p in (0.5, 0.8):
            hg = random_hypertree(n, 3, 1, p)[0]
            cases += [relabelled(hg, order) for order in four_labellings(n)]
    for hg in cases:
        k = max(hg.rank(), 1)
        assert_as_checked(orient_floor(hg))
        assert_as_checked(orient_floor(hg, k + 1))
        for demands in (floor_demand(hg, k), (0,) + (1,) * (hg.n - 1)):
            result = orient_with_demands(hg, demands)
            assert result.is_oriented
            assert_as_checked(result.oriented)


@st.composite
def feasible_demands(draw) -> tuple:
    """A valid hypergraph and demands that one drawn orientation meets:
    each vertex's demand at most its indegree there, often equal."""
    n = draw(st.integers(2, 8))
    edges = draw(
        st.lists(
            st.sets(st.integers(0, n - 1), min_size=2, max_size=min(4, n)).map(
                lambda e: tuple(sorted(e))
            ),
            max_size=10,
            unique=True,
        )
    )
    indegree = [0] * n
    for e in edges:
        indegree[draw(st.sampled_from(e))] += 1
    demands = tuple(draw(st.integers(max(0, d - 1), d)) for d in indegree)
    return Hypergraph(n, tuple(edges)), demands


@settings(derandomize=True, max_examples=200, deadline=None)
@given(feasible_demands())
def test_trusted_orientations_equal_checked_ones_on_drawn_demands(case):
    hg, demands = case
    result = orient_with_demands(hg, demands)
    assert result.is_oriented
    assert_as_checked(result.oriented)
    assert all(map(int.__ge__, result.oriented.indegrees(), demands))
    assert_as_checked(orient_floor(hg))
