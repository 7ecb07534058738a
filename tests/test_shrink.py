import csv
import io
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hypershrink import (
    ColouredGraph,
    Hypergraph,
    LimitExceededError,
    NotAHypertreeError,
    RainbowTree,
    Shrinking,
    adversarial_star,
    brute_force_shrink,
    floor_demand,
    is_hypertree,
    is_hypertree_bruteforce,
    orient_floor,
    random_hypertree,
    shrink_hypertree,
    shrinking_to_dot,
    shrinking_to_json,
    star_graph,
    verify_shrinking,
)
from hypershrink import cli
from hypershrink.shrink import _SLICE, _add_counts
import json
import tracemalloc

from helpers import (
    H1,
    TRIANGLE4,
    break_hypertree,
    is_spanning_tree,
    random_tree_count_hypergraph,
    reference_rainbow_forest,
    reference_shrinking_to_json,
    reference_tree_degrees,
    reference_verify_shrinking,
    relabelled,
)


def test_from_pairs_sorts_and_maps():
    s = Shrinking.from_pairs([(2, 3), (0, 2), (2, 1)])
    assert s.tree == ((0, 2), (1, 2), (2, 3))
    assert s.pair_for(0) == (2, 3)
    assert s.pair_for(1) == (0, 2)
    assert s.pair_for(2) == (1, 2)
    assert s.tree_degrees(4) == [1, 1, 3, 1]


def test_from_pairs_rejects_duplicates():
    with pytest.raises(ValueError):
        Shrinking.from_pairs([(0, 1), (1, 0)])


def test_shrink_h1_all_checks_pass():
    s = shrink_hypertree(H1)
    report = verify_shrinking(H1, s)
    assert report.all_passed
    assert is_spanning_tree(4, s.tree)
    for i in range(3):
        assert set(s.pair_for(i)) <= set(H1.edges[i])


def test_shrink_plain_tree_is_identity():
    tree = Hypergraph(5, ((0, 1), (1, 2), (1, 3), (3, 4)))
    s = shrink_hypertree(tree)
    assert set(s.tree) == set(tree.edges)
    assert verify_shrinking(tree, s).all_passed


def test_shrink_triangle_raises():
    with pytest.raises(NotAHypertreeError) as info:
        shrink_hypertree(TRIANGLE4)
    assert info.value.reason == "no-rainbow-tree"


def test_shrink_wrong_edge_count_raises():
    for hg, message in (
        (Hypergraph(3, ((0, 1, 2),)), "a hypertree on 3 vertices has 2 hyperedges, got 1"),
        # n - 1 = -1 hyperedges is no count to print
        (Hypergraph(0, ()), "a hypertree has at least one vertex"),
    ):
        with pytest.raises(NotAHypertreeError) as info:
            shrink_hypertree(hg)
        assert info.value.reason == "edge-count"
        assert str(info.value) == message
        assert is_hypertree_bruteforce(hg).bad_edge_count


def test_shrink_single_vertex():
    s = shrink_hypertree(Hypergraph(1, ()))
    assert s.tree == ()
    assert verify_shrinking(Hypergraph(1, ()), s).all_passed


def test_verify_flags_containment_failure():
    bad = Shrinking(((0, 3), (1, 2), (2, 3)), (0, 1, 2))
    report = verify_shrinking(H1, bad)
    assert not report.all_passed
    assert report["spanning-tree"].passed
    assert not report["containment"].passed
    assert "0" in report["containment"].detail


def test_verify_names_an_assignment_of_the_wrong_length():
    tree = ((0, 1), (1, 2), (2, 3))
    for assignment, detail in (
        ((0, 1, 2, 2), "4 assignment entries for 3 hyperedges"),
        ((0, 1), "2 assignment entries for 3 hyperedges"),
        ((2, 1), "hyperedges [0] do not contain their tree edge; 2 assignment entries for 3 hyperedges"),
    ):
        check = verify_shrinking(H1, Shrinking(tree, assignment))["containment"]
        assert not check.passed and check.detail == detail


def test_verify_flags_non_tree():
    bad = Shrinking(((0, 1), (1, 2), (0, 2)), (0, 1, 2))
    report = verify_shrinking(H1, bad)
    assert not report["spanning-tree"].passed


def test_verify_respects_k_override():
    s = shrink_hypertree(H1, k=5)
    report = verify_shrinking(H1, s, k=5)
    assert report.all_passed
    with pytest.raises(ValueError):
        shrink_hypertree(H1, k=2)


def _guarantee_hypergraphs():
    return (H1, adversarial_star(40, 3), random_hypertree(500, 5, 1, 0.8)[0], Hypergraph(1, ()))


@pytest.mark.parametrize("k", [0, -1])
def test_k_below_one_is_refused(k):
    # unchecked, k = 0 divides by zero and k = -1 fails every vertex on
    # halving-corollary and puts 1 in every JSON bound
    for hg in _guarantee_hypergraphs():
        s = shrink_hypertree(hg)
        calls = (
            lambda: floor_demand(hg, k),
            lambda: orient_floor(hg, k),
            lambda: verify_shrinking(hg, s, k),
            lambda: shrinking_to_json(hg, s, k),
        )
        for call in calls:
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == "k must be positive"


@pytest.mark.parametrize("k, message", [(3.5, "3.5 is not an integer"), ("3", "'3' is not an integer")])
def test_k_that_is_not_an_integer_is_refused(k, message):
    # a float k once gave float bounds ("bound": [5.0, 1, ...]) and a
    # string k leaked a TypeError from the comparison with 1
    hg = adversarial_star(20, 3)
    s = shrink_hypertree(hg)
    calls = (
        lambda: shrink_hypertree(hg, k),
        lambda: floor_demand(hg, k),
        lambda: orient_floor(hg, k),
        lambda: verify_shrinking(hg, s, k),
        lambda: shrinking_to_json(hg, s, k),
    )
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


def test_integral_float_k_acts_as_the_int():
    # a fresh hypergraph per call, so the bound a call reads is the one its own k made
    fresh = lambda: adversarial_star(20, 3)
    s = shrink_hypertree(fresh())
    assert '"bound": [6, 1,' in shrinking_to_json(fresh(), s, 3.0)
    assert shrinking_to_json(fresh(), s, 3.0) == shrinking_to_json(fresh(), s, 3)
    assert verify_shrinking(fresh(), s, 3.0) == verify_shrinking(fresh(), s, 3)
    assert shrink_hypertree(fresh(), 3.0) == s
    assert orient_floor(fresh(), 3.0) == orient_floor(fresh(), 3)
    assert floor_demand(fresh(), 3.0) == floor_demand(fresh(), 3)


def test_every_consumer_of_the_guarantee_agrees(monkeypatch, capsys):
    for hg in _guarantee_hypergraphs():
        s = shrink_hypertree(hg)
        shrinkings = [s]
        if hg.n > 1:
            # each hyperedge keeps only its last pair, which leaves some
            # vertices below their bound
            shrinkings.append(Shrinking([e[-2:] for e in hg.edges], range(hg.num_edges)))
        for candidate in shrinkings:
            for k in (None, max(hg.rank(), 1), hg.rank() + 2):
                reference = Hypergraph(hg.n, hg.edges)  # nothing remembered
                bound = json.loads(reference_shrinking_to_json(reference, candidate, k))["bound"]
                assert json.loads(shrinking_to_json(hg, candidate, k))["bound"] == bound
                assert verify_shrinking(hg, candidate, k)["degree-floor-bound"] == (
                    reference_verify_shrinking(reference, candidate, k)["degree-floor-bound"]
                )
        if hg.n > 1:
            # bench states the guarantee for the rank; it shrinks hg itself
            monkeypatch.setattr("hypershrink.gen.random_hypertree", lambda *_: (hg, None))
            argv = ["bench", "--trials", "1", "--n", str(hg.n), "--k", "3", "--seed", "1"]
            assert cli.main(argv) == 0
            row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
            bound = json.loads(reference_shrinking_to_json(Hypergraph(hg.n, hg.edges), s))["bound"]
            tree = reference_tree_degrees(s, hg.n)
            assert int(row["min_slack"]) == min(t - b for t, b in zip(tree, bound))


def _shrinkings_to_report():
    """Valid shrinkings and one of each defect verify_shrinking names."""
    good = shrink_hypertree(H1)
    tree, assignment = good.tree, good.assignment
    yield H1, good
    # the same pairs written high-to-low: every check passes on them
    yield H1, Shrinking(((1, 0), (2, 1), (3, 2)), assignment)
    # -1 in place of the last tree edge, which the hyperedge does contain:
    # only the range test tells the two apart
    last = assignment.index(len(tree) - 1)
    yield H1, Shrinking(tree, assignment[:last] + (-1,) + assignment[last + 1 :])
    yield H1, Shrinking(tree, assignment[:2] + (len(tree),))
    yield H1, Shrinking(tree, assignment[:2])
    yield H1, Shrinking(tree, assignment + (0,))
    # the bijection check counts distinct entries, so it must still fail a
    # repeated entry at full length (hyperedge 1 takes hyperedge 2's tree
    # edge (2, 3), which it contains: only the bijection fails), one entry
    # too many with a repeat, and a tree one edge longer than m
    yield H1, Shrinking(tree, assignment[:1] + assignment[2:] * 2)
    yield H1, Shrinking(tree, assignment + assignment[-1:])
    yield H1, Shrinking(tree + ((0, 3),), assignment)
    yield H1, Shrinking(((0, 3), (1, 2), (2, 3)), (0, 1, 2))
    yield H1, Shrinking(((0, 9), (1, 2), (2, 3)), (0, 1, 2))
    # rank 3, and the hub of degree 150 keeps no tree edge: every check
    # but containment and bijection fails, hundredth-bound included
    star = adversarial_star(150, 3)
    yield star, Shrinking([e[-2:] for e in star.edges], range(star.num_edges))
    yield star, shrink_hypertree(star)
    # a cycle closed only after a star prefix as long as the tree allows
    yield star, Shrinking([(0, v) for v in range(1, star.n - 1)] + [(1, 2)], range(star.num_edges))
    yield H1, Shrinking(((0, 1), (1, 2), (2, 3)), (0, 1, 2, 2))
    yield H1, Shrinking(((0, 1), (1, 2), (2, 3)), (0, 1))
    yield Hypergraph(1, ()), Shrinking((), ())
    yield Hypergraph(1, ()), Shrinking(((0, 1),), ())
    random500 = random_hypertree(500, 5, 1, 0.8)[0]
    yield random500, shrink_hypertree(random500)
    yield Hypergraph(0, ()), Shrinking((), ())
    # the largest hub the benchmark draws; then a tree of exactly one
    # serialisation slice and one a pair longer, whose other arrays are a
    # slice long or one or two items past it
    hub = adversarial_star(1999, 4)
    yield hub, shrink_hypertree(hub)
    for n in (_SLICE + 1, _SLICE + 2):
        hg = random_hypertree(n, 4, 1, 0.8)[0]
        yield hg, shrink_hypertree(hg)


def test_reports_and_json_match_the_per_vertex_reference():
    for hg, s in _shrinkings_to_report():
        # k past the rank too; one hypergraph value serves every k, so a
        # remembered bound must follow k
        for k in (None, max(hg.rank(), 1), hg.rank() + 2, None):
            expected = reference_verify_shrinking(Hypergraph(hg.n, hg.edges), s, k)
            assert str(verify_shrinking(hg, s, k)) == str(expected)
            assert verify_shrinking(hg, s, k) == expected
            assert shrinking_to_json(hg, s, k) == reference_shrinking_to_json(
                Hypergraph(hg.n, hg.edges), s, k
            )


def test_serialising_holds_at_most_five_times_its_text():
    # before CPython 3.12 the C encoder keeps one string per number until it
    # joins the whole text: one json.dumps of these answers peaked at about
    # 17 times their length.  On 3.12 and later it writes into one buffer,
    # so there an unsliced encoding may pass this test too
    for hg in (adversarial_star(1999, 4), random_hypertree(2000, 5, 1, 0.8)[0]):
        s = shrink_hypertree(hg)
        assert verify_shrinking(hg, s)  # as the CLI does before it serialises
        tracemalloc.start()
        try:
            text = shrinking_to_json(hg, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * len(text), (hg.n, peak, len(text))


def test_count_writer_holds_at_most_twice_its_text():
    # the count arrays are joined from one string per distinct value, at
    # most _SLICE items a join, so a call holds its pieces and one slice's
    # transient: 1.25 times the text on CPython 3.11, where the encoder
    # (_add_array) read 2.29 and one unsliced join 3.91
    rng = random.Random(1)
    counts = [rng.choice((1, 1, 1, 2, 3, 4, 17, 250)) for _ in range(20_000)]
    parts = []
    tracemalloc.start()
    try:
        _add_counts(parts, counts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = "".join(parts)
    assert text == json.dumps(counts)
    assert peak <= 2 * len(text), (peak, len(text))


def test_verify_remembers_the_degrees_of_a_tree_it_accepts(monkeypatch):
    # the spanning-tree check counts each endpoint as it links the tree, so
    # an accepted tree's counts are the memo before tree_degrees is asked:
    # its own loop never runs, and no check, detail or output byte moves
    found = []
    tree_degrees = Shrinking.tree_degrees

    def counted(shrinking, n):
        found.append(vars(shrinking).get("_tree_degrees", (None,))[0] == n)
        return tree_degrees(shrinking, n)

    monkeypatch.setattr(Shrinking, "tree_degrees", counted)
    cases = [H1, Hypergraph(1, ()), adversarial_star(30, 3), adversarial_star(20, 4)]
    cases += [random_hypertree(60, k, seed, p)[0] for seed in (1, 2) for k, p in ((3, 0.5), (5, 0.8))]
    for hg in cases:
        shrunk = shrink_hypertree(hg)
        fresh = Shrinking(shrunk.tree, shrunk.assignment)
        report = verify_shrinking(hg, fresh)
        assert report and report == reference_verify_shrinking(hg, fresh)
        assert vars(fresh)["_tree_degrees"] == (hg.n, reference_tree_degrees(fresh, hg.n))
        assert shrinking_to_json(hg, fresh) == reference_shrinking_to_json(hg, fresh)
    assert found and all(found)


def test_a_rejected_tree_keeps_the_reference_degrees_and_report():
    # a tree the spanning-tree check refuses part way leaves no partial
    # counts behind: tree_degrees counts it by its own loop.  Each defect
    # sits on the last edge, whose endpoints a partial count would miss
    hg = random_hypertree(12, 3, 1, 0.5)[0]
    n, shrunk = hg.n, shrink_hypertree(hg)
    kept, (u, v) = list(shrunk.tree[:-1]), shrunk.tree[-1]
    candidates = {
        "bad edge": kept + [(u, u)],
        "cycle": kept + [kept[0]],
        "edge count": kept,
        "endpoint n": kept + [(u, n)],
        "endpoint -1": kept + [(-1, v)],
    }
    for name, tree in candidates.items():
        fresh = Shrinking(tree, shrunk.assignment)
        report = verify_shrinking(hg, fresh)
        assert not report["spanning-tree"].passed, name
        assert report == reference_verify_shrinking(hg, fresh), name
        assert fresh.tree_degrees(n) == reference_tree_degrees(fresh, n), name
        assert shrinking_to_json(hg, fresh) == reference_shrinking_to_json(hg, fresh), name


def test_shrink_returns_what_the_public_constructor_would():
    # shrink_hypertree skips the constructor's normalisation, so its values
    # must already be what the constructor keeps: tuples of exact ints
    for hg in (adversarial_star(150, 4), random_hypertree(200, 5, 3, 0.8)[0], Hypergraph(1, ())):
        s = shrink_hypertree(hg)
        assert s == Shrinking(s.tree, s.assignment)
        assert type(s.tree) is tuple and type(s.assignment) is tuple
        assert all(type(pair) is tuple and len(pair) == 2 for pair in s.tree)
        assert {type(v) for pair in s.tree for v in pair} | {type(j) for j in s.assignment} <= {int}
        assert len(s.tree) == hg.n - 1 and verify_shrinking(hg, s).all_passed


def test_pair_for_refuses_out_of_range_assignment_entries():
    # an entry of -1 once returned the last tree edge
    refused = set()
    for _, s in _shrinkings_to_report():
        tree = s.tree
        for i, j in enumerate(s.assignment):
            if 0 <= j < len(tree):
                assert s.pair_for(i) == tree[j]
                continue
            with pytest.raises(IndexError) as info:
                s.pair_for(i)
            assert str(info.value) == (
                f"hyperedge {i} has assignment entry {j}, outside [0, {len(tree)})"
            )
            refused.add(j < 0)
    assert refused == {True, False}  # both -1 and len(tree) were met


def test_pair_for_refuses_out_of_range_hyperedges():
    # a hyperedge index of -1 once returned the last hyperedge's pair
    for _, s in _shrinkings_to_report():
        m = len(s.assignment)
        for i in (-1, m):
            with pytest.raises(IndexError) as info:
                s.pair_for(i)
            assert str(info.value) == f"hyperedge {i} is outside [0, {m})"


def test_dot_bolds_only_in_range_assignment_entries():
    # an entry of -1 once bolded the last tree edge, and one of len(tree)
    # raised IndexError
    bold = re.compile(r'  (\d+) -- (\d+) \[label="(\d+)", color="[^"]*", penwidth=2\];')
    for hg, s in _shrinkings_to_report():
        tree, assignment = s.tree, s.assignment
        lines = shrinking_to_dot(hg, s).splitlines()
        drawn = [tuple(map(int, m.groups())) for m in map(bold.fullmatch, lines) if m]
        for a, b, i in drawn:
            assert 0 <= assignment[i] < len(tree) and tuple(sorted(tree[assignment[i]])) == (a, b)
        assert len(drawn) == sum(
            0 <= j < len(tree) and set(tree[j]) <= set(e)
            for j, e in zip(assignment, hg.edges)
        )


def test_floor_halving_boundary():
    # floor(x) >= x/2 for x >= 1, tightest at d = 2k and d = 2k + 1
    for k in range(1, 7):
        for d in (2 * k, 2 * k + 1):
            bound = max(1, d // k)
            assert 2 * k * bound >= d


def test_head_is_endpoint_of_assigned_edge():
    for seed in range(20):
        hg, _ = random_hypertree(10, 4, seed, 0.8)
        directed = orient_floor(hg)
        s = shrink_hypertree(hg)
        for i in range(hg.num_edges):
            assert directed.heads[i] in s.pair_for(i)


def test_degree_chain():
    # d_T(v) >= indegree(v) >= floor(d_H(v) / k), vertex by vertex
    for seed in range(30):
        hg, _ = random_hypertree(12, 5, seed, 0.6)
        k = hg.rank()
        directed = orient_floor(hg)
        s = shrink_hypertree(hg)
        tree_deg = s.tree_degrees(hg.n)
        for v in range(hg.n):
            assert tree_deg[v] >= directed.indegree(v) >= sum(v in e for e in hg.edges) // k


def test_brute_force_h1():
    s = brute_force_shrink(H1)
    assert s is not None
    assert verify_shrinking(H1, s)["spanning-tree"].passed
    assert verify_shrinking(H1, s)["containment"].passed


def test_brute_force_absent_on_triangle():
    assert brute_force_shrink(TRIANGLE4) is None


def test_brute_force_single_pair():
    s = brute_force_shrink(Hypergraph(2, ((0, 1),)))
    assert s.tree == ((0, 1),)


def test_brute_force_limit():
    # seven size-7 edges on 8 vertices: C(7,2)^7 choices, far over the cap
    edges = tuple(
        tuple(v for v in range(8) if v != skip) for skip in range(7)
    )
    hg = Hypergraph(8, edges)
    with pytest.raises(LimitExceededError):
        brute_force_shrink(hg)
    with pytest.raises(LimitExceededError):
        brute_force_shrink(H1, limit=5)


def test_brute_force_maximizes_min_ratio():
    for seed in range(12):
        hg, _ = random_hypertree(6, 3, seed, 0.9)
        best = brute_force_shrink(hg)
        pipeline = shrink_hypertree(hg)
        degrees = hg.degrees()

        def min_ratio(s):
            tree_deg = s.tree_degrees(hg.n)
            return min(
                Fraction(t, max(1, d)) for t, d in zip(tree_deg, degrees)
            )

        assert min_ratio(best) >= min_ratio(pipeline)


def test_shrink_agrees_with_brute_force():
    rng = random.Random(1001)
    both = set()
    for _ in range(200):
        hg = random_tree_count_hypergraph(rng, rng.randint(2, 6))
        bf = brute_force_shrink(hg)
        try:
            shrink_hypertree(hg)
            fast = True
        except NotAHypertreeError:
            fast = False
        assert fast == (bf is not None)
        both.add(fast)
    assert both == {True, False}


def test_lean_shrink_matches_the_checked_path():
    # shrink_hypertree reads hyperedges and heads, builds star_graph only
    # for the engine, which trusts each star to be a contiguous run of
    # edges in endpoint order, and reads the Shrinking off the forest; the
    # checked path re-checks the expansion as a ColouredGraph, sorts its
    # classes, runs the reference tiers (sort-key scan, dict-based seed,
    # engine) and goes through RainbowTree, so equal answers pin what the
    # lean path trusts
    hypergraphs = [
        random_hypertree(n, k, seed, p)[0]
        for n in (9, 40, 500)
        for k in (3, 5)
        for p in (0.5, 0.8)
        for seed in (1, 2, 3)
    ]
    hypergraphs += [adversarial_star(m, k) for m, k in ((40, 3), (300, 4), (1000, 3))]
    for hg in hypergraphs:
        star = star_graph(orient_floor(hg))
        checked = ColouredGraph(star.n, star.edges)
        assert checked.edges == star.edges
        assert checked._classes == [list(cl) for cl in star._classes]
        tree = RainbowTree(checked.n, reference_rainbow_forest(checked, hg))
        pairs = {c: (u, v) for u, v, c in tree.edges}
        assert shrink_hypertree(hg) == Shrinking.from_pairs([pairs[i] for i in range(hg.num_edges)])
    for hg in hypergraphs[24:36]:  # n = 500, each with pairs to break
        broken = break_hypertree(hg)
        assert len(reference_rainbow_forest(star_graph(orient_floor(broken)), broken)) < broken.n - 1
        with pytest.raises(NotAHypertreeError) as info:
            shrink_hypertree(broken)
        assert info.value.reason == "no-rainbow-tree"


def test_shrink_builds_no_checked_graph_or_tree(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} built on the shrink path")

    monkeypatch.setattr(ColouredGraph, "__init__", refuse)
    monkeypatch.setattr(RainbowTree, "__init__", refuse)
    for hg in (random_hypertree(500, 5, 1, 0.8)[0], adversarial_star(1000, 4)):
        assert verify_shrinking(hg, shrink_hypertree(hg)).all_passed


def test_json_output_shape():
    s = shrink_hypertree(H1)
    data = json.loads(shrinking_to_json(H1, s))
    assert sorted(data) == ["assignment", "bound", "degrees", "tree"]
    assert data["degrees"]["hyper"] == [1, 2, 3, 2]
    assert data["bound"] == [1, 1, 1, 1]
    assert len(data["tree"]) == 3


def test_returned_degree_lists_are_fresh():
    # degrees() and tree_degrees() are remembered on their immutable
    # values; what a caller does to a returned list must not leak back
    hg = Hypergraph(4, ((0, 1, 2), (1, 2, 3), (2, 3)))
    s = shrink_hypertree(hg)
    expected = shrinking_to_json(hg, s)
    hg.degrees()[2] = 99
    hg.degrees().append(7)
    s.tree_degrees(4)[0] = 99
    s.tree_degrees(4).clear()
    assert hg.degrees() == [1, 2, 3, 2]
    assert hg.degrees() is not hg.degrees()
    assert s.tree_degrees(4) == json.loads(expected)["degrees"]["tree"]
    assert s.tree_degrees(3) == s.tree_degrees(4)[:3]
    assert shrinking_to_json(hg, s) == expected
    assert verify_shrinking(hg, s).all_passed


def test_dot_output_shape():
    s = shrink_hypertree(H1)
    dot = shrinking_to_dot(H1, s)
    assert dot.startswith("graph")
    assert "penwidth=2" in dot
    assert "style=dashed" in dot
    # byte-exact, so `hypershrink shrink --out dot` cannot drift
    assert dot == (
        "graph shrinking {\n"
        "  0;\n"
        "  1;\n"
        "  2;\n"
        "  3;\n"
        '  0 -- 1 [label="0", color="#e6194b", penwidth=2];\n'
        '  0 -- 2 [color="gray", style=dashed];\n'
        '  1 -- 2 [color="gray", style=dashed];\n'
        '  1 -- 2 [label="1", color="#3cb44b", penwidth=2];\n'
        '  1 -- 3 [color="gray", style=dashed];\n'
        '  2 -- 3 [color="gray", style=dashed];\n'
        '  2 -- 3 [label="2", color="#4363d8", penwidth=2];\n'
        "}\n"
    )


def test_shrink_at_scale():
    hg, _ = random_hypertree(4000, 5, 1, 0.8)
    s = shrink_hypertree(hg)
    assert verify_shrinking(hg, s).all_passed


def test_shrink_at_scale_10000():
    hg, _ = random_hypertree(10000, 5, 2, 0.8)
    s = shrink_hypertree(hg)
    assert verify_shrinking(hg, s).all_passed


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from((0.0, 0.4, 0.8, 1.0)),
)
def test_pipeline_property(n, k, seed, p):
    hg, witness = random_hypertree(n, k, seed, p)
    s = shrink_hypertree(hg)
    assert verify_shrinking(hg, s).all_passed
    w = Shrinking.from_pairs(witness)
    report = verify_shrinking(hg, w)
    assert report["spanning-tree"].passed
    assert report["containment"].passed
    assert report["bijection"].passed


@st.composite
def relabelled_edge_families(draw):
    """n - 1 distinct hyperedges of 2 to k <= 4 vertices on n <= 9
    vertices, and the same family under a drawn vertex permutation."""
    n = draw(st.integers(min_value=2, max_value=9))
    k = draw(st.integers(min_value=2, max_value=min(n, 4)))
    edge = st.sets(st.integers(0, n - 1), min_size=2, max_size=k).map(lambda e: tuple(sorted(e)))
    hg = Hypergraph(n, tuple(sorted(draw(st.lists(edge, min_size=n - 1, max_size=n - 1, unique=True)))))
    return hg, relabelled(hg, draw(st.permutations(range(n))))


@settings(derandomize=True, max_examples=120, deadline=None)
@given(relabelled_edge_families())
def test_shrink_refuses_exactly_where_check_does(family):
    # check's answer (is_hypertree) and shrink's refusal both agree with
    # the exhaustive oracle under any labelling, and every shrinking verifies
    for hg in family:
        want = bool(is_hypertree_bruteforce(hg))
        assert is_hypertree(hg) is want
        try:
            shrinking = shrink_hypertree(hg)
        except NotAHypertreeError:
            assert not want
        else:
            assert want and verify_shrinking(hg, shrinking)
