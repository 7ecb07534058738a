import json
import re
from itertools import chain

import pytest
from hypothesis import example, given, settings, strategies as st

from hypershrink import (
    ColouredGraph,
    DemandFunction,
    DirectedHypergraph,
    FormatError,
    Hypergraph,
    RainbowTree,
    Shrinking,
    core,
    demands_from_json,
    hypergraph_from_json,
    hypergraph_from_text,
    hypergraph_to_json,
    hypergraph_to_text,
    is_hypertree,
    shrink_hypertree,
    validate,
)
from helpers import H1, reference_hypergraph_from_json, reference_validate


def test_degrees_and_rank():
    assert H1.degrees() == [1, 2, 3, 2]
    assert sum(2 in e for e in H1.edges) == 3
    assert H1.rank() == 3
    assert H1.num_edges == 3


def test_incident_edge_count():
    assert H1.incident_edge_count({0, 3}) == 3
    assert H1.incident_edge_count({0}) == 1
    assert H1.incident_edge_count(()) == 0


def test_incident_edge_count_reads_each_vertex_id_exactly():
    # as indegree, f[v] and sum_over do: 1.5 and 5 once answered 0
    path = Hypergraph(3, ((0, 1), (1, 2)))
    assert path.incident_edge_count([True]) == path.incident_edge_count([1]) == 2
    assert path.incident_edge_count([2.0]) == 1
    with pytest.raises(ValueError, match=r"^1\.5 is not an integer$"):
        path.incident_edge_count([1.5])
    for v in (-1, 3, 5):
        with pytest.raises(ValueError, match=rf"^vertex {v} out of range \[0, 3\)$"):
            path.incident_edge_count([0, v])


def test_exact_int_tuples_kept_and_other_input_normalised():
    # tuples of exact ints are kept as they are; lists, bools and other
    # int-likes take the int() rebuild and give an equal value of ints
    class Index(int):
        pass

    cases = (
        (Hypergraph, (4, ((0, 1), (1, 2, 3))), (4, [[False, True], (Index(1), 2.0, 3)])),
        (ColouredGraph, (3, ((0, 1, 0), (1, 2, 1))), (3, [[False, True, 0], (1, 2, True)])),
        (RainbowTree, (3, ((0, 1, 1), (1, 2, 0))), (3, [[0, True, Index(1)], (1, 2.0, False)])),
        (Shrinking, (((0, 1), (1, 2)), (1, 0)), ([[0, True], (1, 2)], [True, Index(0)])),
    )
    for cls, exact_args, loose_args in cases:
        exact, loose = cls(*exact_args), cls(*loose_args)
        names = cls.__match_args__
        assert all(getattr(exact, a) is b for a, b in zip(names, exact_args))
        assert loose == exact
        flat = []
        for value in map(loose.__getattribute__, names):
            for item in value if isinstance(value, tuple) else (value,):
                flat.extend(item if isinstance(item, tuple) else (item,))
        assert {type(x) for x in flat} == {int}


def test_constructors_refuse_numbers_int_would_change():
    # the int() rebuild refuses a value it would change rather than
    # truncate it, and a vertex count n follows the same rule
    directed_base = Hypergraph(2, ((0, 1),))
    cases = (
        (lambda: Hypergraph(3, ((0, 1.7), (1, 2))), "1.7 is not an integer"),
        (lambda: Hypergraph(3, (("0", "1"),)), "'0' is not an integer"),
        (lambda: Hypergraph(2.5, ((0, 1),)), "2.5 is not an integer"),
        (lambda: DirectedHypergraph(directed_base, (0.5,)), "0.5 is not an integer"),
        (lambda: DemandFunction((1.5, 2)), "1.5 is not an integer"),
        (lambda: ColouredGraph(3, ((0, 1, 0.5),)), "0.5 is not an integer"),
        (lambda: ColouredGraph(2.5, ()), "2.5 is not an integer"),
        (lambda: RainbowTree(2, ((0, 1.5, 0),)), "1.5 is not an integer"),
        (lambda: RainbowTree(1.5, ()), "1.5 is not an integer"),
        (lambda: Shrinking([(0, 1.9)], [0.2]), "1.9 is not an integer"),
        (lambda: Shrinking([(0, 1)], [0.2]), "0.2 is not an integer"),
    )
    for build, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()
    # an integral float or a bool is a whole number: n becomes that int
    for cls, n, edges in (
        (Hypergraph, 2.0, ((0, 1),)), (ColouredGraph, 2.0, ((0, 1, 0),)), (RainbowTree, True, ()),
    ):
        value = cls(n, edges)
        assert type(value.n) is int and value == cls(int(n), edges)
    hypergraph = Hypergraph(2.0, ((0, 1),))
    assert is_hypertree(hypergraph)
    assert shrink_hypertree(hypergraph) == Shrinking(((0, 1),), (0,))


def test_negative_vertex_count_rejected():
    with pytest.raises(ValueError):
        Hypergraph(-1, ())


def test_validate_accepts_h1():
    assert validate(H1).ok


def test_validate_flags_loop():
    report = validate(Hypergraph(3, ((1, 1), (0, 2))))
    kinds = {v.kind for v in report}
    assert "loop" in kinds
    assert any(v.edge_index == 0 for v in report)


def test_validate_flags_empty_edge_as_loop():
    report = validate(Hypergraph(2, ((), (0, 1))))
    assert any(v.kind == "loop" and v.edge_index == 0 for v in report)


def test_validate_flags_duplicate():
    report = validate(Hypergraph(3, ((0, 1), (1, 2), (0, 1))))
    assert any(v.kind == "duplicate" and v.edge_index == 2 for v in report)


def test_validate_flags_out_of_range():
    report = validate(Hypergraph(3, ((0, 5),)))
    assert any(v.kind == "vertex-range" for v in report)


def test_validate_flags_unsorted():
    report = validate(Hypergraph(3, ((1, 0), (1, 2))))
    assert any(v.kind == "unsorted" and v.edge_index == 0 for v in report)


def test_validate_reports_every_violation_in_edge_order():
    hg = Hypergraph(4, ((1,), (2, 0), (0, 5), (0, 2), (2, 0), (), (-1, 3),
                        (3, 3, 1), (0, 2), (7,)))
    assert str(validate(hg)).splitlines() == [
        "loop at edge 0: edge [1] has size 1",
        "unsorted at edge 1: edge [2, 0] is not strictly sorted",
        "vertex-range at edge 2: edge [0, 5] leaves [0, 4)",
        "duplicate at edge 3: edge [0, 2] repeats edge 1",
        "unsorted at edge 4: edge [2, 0] is not strictly sorted",
        "duplicate at edge 4: edge [2, 0] repeats edge 1",
        "loop at edge 5: edge [] has size 0",
        "vertex-range at edge 6: edge [-1, 3] leaves [0, 4)",
        "unsorted at edge 7: edge [3, 3, 1] is not strictly sorted",
        "duplicate at edge 8: edge [0, 2] repeats edge 1",
        "loop at edge 9: edge [7] has size 1",
        "vertex-range at edge 9: edge [7] leaves [0, 4)",
    ]


class _IntLike(int):
    """An int subclass, as integer ids from other libraries arrive."""


def _styled(v: int, style: str):
    if style == "bool" and v in (0, 1):
        return bool(v)
    return _IntLike(v) if style == "int-like" else v


@st.composite
def raw_hypergraphs(draw):
    """A simple family on n in 0..8 vertices with up to two defects
    spliced in: an arbitrary list of ids from -1 to n, or an edge of the
    family repeated or reversed."""
    n = draw(st.integers(0, 8))
    edges = []
    if n >= 2:
        sets = st.sets(st.integers(0, n - 1), min_size=2, max_size=4).map(sorted)
        edges = draw(st.lists(sets, max_size=7, unique_by=tuple))
    for _ in range(draw(st.integers(0, 2))):
        defect = draw(st.lists(st.integers(-1, n), max_size=4))
        if edges and draw(st.booleans()):
            e = draw(st.sampled_from(edges))
            defect = draw(st.sampled_from((e, e[::-1])))
        edges.insert(draw(st.integers(0, len(edges))), defect)
    return n, edges


@settings(derandomize=True, max_examples=400, deadline=None)
@given(raw_hypergraphs(), st.sampled_from(("int", "bool", "int-like")), st.booleans())
@example((3, [[1, 2], [0, 1]]), "int", False)  # valid, edges out of order
@example((3, [[0, 1], [2, 1]]), "int", False)  # unsorted after an ascending straddle
@example((3, [[1, 1, 2]]), "int", False)  # a vertex repeated inside an edge
@example((3, [[1], [], [0, 2]]), "int", True)  # loop, empty edge
@example((3, [[-1, 0], [0, 3]]), "bool", False)  # negative, too large
@example((3, [[0, 1], [1, 2], [0, 1]]), "int-like", True)  # duplicate
@example((0, []), "int", False)
@example((0, [[0, 1]]), "int", False)
def test_validate_matches_the_per_edge_reference(data, style, as_tuples):
    n, edges = data
    shape = tuple if as_tuples else list
    hg = Hypergraph(n, [shape(_styled(v, style) for v in e) for e in edges])
    expected = reference_validate(Hypergraph(n, tuple(map(tuple, edges))))
    report = validate(hg)
    assert report == expected
    assert str(report) == str(expected)
    assert validate(hg) is report


@pytest.mark.parametrize("n", [0, 1, 5])
def test_degrees_and_rank_without_edges(n):
    hg = Hypergraph(n, ())
    assert hg.degrees() == [0] * n
    assert hg.degrees() == [0] * n  # remembered value
    assert hg.rank() == 0
    assert hg.rank() == 0


def test_degrees_refuse_an_invalid_hypergraph():
    # -1 once counted at vertex n - 1, and 5 raised a bare IndexError
    for edge in ((-1, 0), (0, 5)):
        with pytest.raises(ValueError, match=r"^invalid hypergraph: vertex-range at edge 0"):
            Hypergraph(3, (edge,)).degrees()


def test_validation_report_str_names_edge():
    report = validate(Hypergraph(3, ((1, 1),)))
    assert "edge 0" in str(report)


def test_directed_hypergraph_queries():
    directed = DirectedHypergraph(H1, (2, 2, 3))
    assert directed.indegree(2) == 2
    assert directed.indegree(3) == 1
    assert directed.indegree(0) == 0
    assert sum(2 in e and h != 2 for e, h in zip(H1.edges, directed.heads)) == 1
    assert directed.indegrees() == [0, 0, 2, 1]
    assert tuple(v for v in H1.edges[0] if v != directed.heads[0]) == (0, 1)
    assert tuple(v for v in H1.edges[2] if v != directed.heads[2]) == (2,)


def test_directed_hypergraph_rejects_bad_heads():
    with pytest.raises(ValueError, match=r"^head 3 not a member of hyperedge 0$"):
        DirectedHypergraph(H1, (3, 2, 3))
    # the first bad head is named when several are bad
    with pytest.raises(ValueError, match=r"^head 0 not a member of hyperedge 1$"):
        DirectedHypergraph(H1, (0, 0, 0))
    with pytest.raises(ValueError, match=r"^one head per hyperedge required$"):
        DirectedHypergraph(H1, (2, 2))


def test_indegrees_refuse_an_invalid_base():
    # a head of -1 would count at vertex n - 1, one of 5 would overrun
    for head in (-1, 5):
        directed = DirectedHypergraph(Hypergraph(3, ((head, 0),)), (head,))
        with pytest.raises(ValueError, match=r"^invalid hypergraph: vertex-range at edge 0"):
            directed.indegrees()


def test_indegree_refuses_a_vertex_outside_the_base():
    directed = DirectedHypergraph(H1, (2, 2, 3))
    for v in (-1, 4, 99):
        with pytest.raises(ValueError, match=rf"^vertex {v} out of range \[0, 4\)$"):
            directed.indegree(v)
    # a vertex id is read as an exact integer: 1.5 once answered 0
    assert directed.indegree(2.0) == 2
    with pytest.raises(ValueError, match=r"^1\.5 is not an integer$"):
        directed.indegree(1.5)


def test_heads_and_demands_of_exact_ints_kept_as_they_are():
    heads, values = (2, 2, 3), (0, 1, 2)
    assert DirectedHypergraph(H1, heads).heads is heads
    assert DemandFunction(values).values is values
    loose_heads = DirectedHypergraph(H1, [2.0, _IntLike(2), 3]).heads
    loose_values = DemandFunction([False, True, _IntLike(2)]).values
    assert (loose_heads, loose_values) == (heads, values)
    assert set(map(type, loose_heads + loose_values)) == {int}
    with pytest.raises(ValueError, match=r"^head 3 not a member of hyperedge 0$"):
        DirectedHypergraph(H1, (3.0, 2, 3))
    with pytest.raises(ValueError, match=r"^demands must be non-negative$"):
        DemandFunction((0, -1.0))


def test_demand_function():
    f = DemandFunction((0, 1, 2))
    assert len(f) == 3
    assert f[2] == 2
    assert f.total() == 3
    assert f.sum_over((1, 2)) == 3
    with pytest.raises(ValueError):
        DemandFunction((0, -1))


def test_sum_over_refuses_a_vertex_outside_the_range():
    # -1 once summed the last vertex's demand, and n raised IndexError
    f = DemandFunction((0, 1, 2))
    assert f.sum_over(()) == 0 and f.sum_over(range(3)) == 3
    for v in (-1, 3, 99):
        with pytest.raises(ValueError) as info:
            f.sum_over((1, v))
        assert str(info.value) == f"vertex {v} out of range [0, 3)"
    # 1.5 once raised TypeError
    with pytest.raises(ValueError, match=r"^1\.5 is not an integer$"):
        f.sum_over((1, 1.5))


def test_demand_lookup_refuses_a_vertex_outside_the_range():
    # -1 once read the last vertex's demand; iteration still ends at n
    f = DemandFunction((1, 2, 3))
    assert f[0] == 1 and f[2.0] == 3
    assert list(f) == [1, 2, 3]
    for v in (-1, 3):
        with pytest.raises(ValueError, match=rf"^vertex {v} out of range \[0, 3\)$"):
            f[v]
    with pytest.raises(ValueError, match=r"^1\.5 is not an integer$"):
        f[1.5]


def test_json_round_trip():
    assert hypergraph_from_json(hypergraph_to_json(H1)) == H1


def test_text_round_trip():
    assert hypergraph_from_text(hypergraph_to_text(H1)) == H1


def test_json_parser_sorts_edges():
    hg = hypergraph_from_json('{"n": 3, "edges": [[2, 0, 1]]}')
    assert hg.edges == ((0, 1, 2),)


def test_json_parse_errors():
    with pytest.raises(FormatError):
        hypergraph_from_json("{nope")
    with pytest.raises(FormatError):
        hypergraph_from_json("[1, 2]")
    with pytest.raises(FormatError):
        hypergraph_from_json('{"n": "three", "edges": []}')
    with pytest.raises(FormatError):
        hypergraph_from_json('{"n": 3, "edges": [[0, "x"]]}')
    with pytest.raises(FormatError):
        hypergraph_from_json('{"n": 3}')


@pytest.mark.parametrize(
    "edges, index",
    [
        ("[[0, true]]", 0),  # a bool is not an integer
        ("[[0, 1], [[1], 2]]", 1),  # nested list
        ("[[0, 1], [0, 1.0]]", 1),
        ("[[0, 1], 7]", 1),  # an edge that is not a list
        ('[[0, 1], "01"]', 1),
        ("[[0, 1], [1, 2], [false, 2], [[0], 1], 3]", 2),  # first of several
        # int() turns "1" into 1 and refuses the rest with TypeError (null),
        # ValueError (NaN) and OverflowError (1e400 and Infinity, both inf)
        ("[[0, 1], [0, null]]", 1),
        ('[[0, 1], [1, "1"]]', 1),
        ("[[0, 1], [0, 1e400]]", 1),
        ("[[0, NaN], [0, 1]]", 0),
        ("[[0, 1], [1, 2], [Infinity, 2]]", 2),
    ],
)
def test_json_parser_names_the_first_bad_edge(edges, index):
    text = f'{{"n": 3, "edges": {edges}}}'
    with pytest.raises(FormatError, match=rf"^edge {index} must be a list of integers$"):
        hypergraph_from_json(text)


@pytest.mark.parametrize("edges", ["{}", '"0 1"', "null", "3"])
def test_json_edges_that_are_not_a_list_are_refused(edges):
    with pytest.raises(FormatError, match='^"edges" must be a list$'):
        hypergraph_from_json(f'{{"n": 3, "edges": {edges}}}')


def test_a_validation_report_is_true_exactly_when_it_is_ok():
    assert bool(validate(H1)) is True
    report = validate(Hypergraph(3, ((0, 1), (1, 1))))
    assert bool(report) is False and not report.ok


def test_text_parse_errors():
    with pytest.raises(FormatError):
        hypergraph_from_text("")
    with pytest.raises(FormatError):
        hypergraph_from_text("3\n0 1\n")
    with pytest.raises(FormatError):
        hypergraph_from_text("3 2\n0 1\n")
    with pytest.raises(FormatError):
        hypergraph_from_text("3 1\n0 x\n")
    # int() alone would read digit grouping, a sign and non-ASCII digits
    # (Arabic-Indic, fullwidth) as vertex ids; only ASCII -?[0-9]+ is an id
    for token in ("1_0", "+1", "\u0661", "\uff11", "1.0", "0x1", "--1"):
        refusal = re.escape(f"{token!r} is not a decimal integer")
        with pytest.raises(FormatError, match=f"^edge line 0: {refusal}$"):
            hypergraph_from_text(f"12 1\n0 {token}\n")
        for header in (f"{token} 1", f"12 {token}"):
            with pytest.raises(FormatError, match=f"^bad header: {refusal}$"):
                hypergraph_from_text(f"{header}\n0 1\n")
    # a minus stays readable, so that validate names a negative id
    negative = hypergraph_from_text("3 1\n-1 2\n")
    assert negative.edges == ((-1, 2),)
    assert [v.kind for v in validate(negative)] == ["vertex-range"]


def test_text_parser_sorts_only_refused_edges():
    assert hypergraph_from_text("4 2\n2 0 1\n3 2\n").edges == ((0, 1, 2), (2, 3))
    parsed = hypergraph_from_text("4 2\n0 1 2\n2 3\n")
    assert parsed.edges == ((0, 1, 2), (2, 3))
    assert "_report" in parsed.__dict__  # remembered, so validate only looks it up


# the integers are listed three times so that most draws are integers
json_member = st.one_of(
    st.integers(-2, 7),
    st.integers(-2, 7),
    st.integers(-2, 7),
    st.booleans(),
    st.none(),
    st.floats(),
    st.text(alphabet="0123x", max_size=2),
    st.lists(st.integers(0, 3), max_size=2),
)


@given(
    n=st.integers(0, 6),
    edges=st.lists(
        st.one_of(
            st.lists(st.integers(-1, 6), max_size=5),
            st.lists(st.integers(-1, 6), max_size=5),
            st.lists(json_member, max_size=4),
            json_member,
        ),
        max_size=6,
    ),
)
@settings(max_examples=300, deadline=None)
@example(n=4, edges=[[0, 1, 2], [1, 2, 3]])  # valid, kept as given
@example(n=4, edges=[[2, 1, 0], [3, 2, 1], [0, 1, 2]])  # unsorted, then a duplicate
@example(n=3, edges=[[1, 1], [0, 5], [], [2, 0]])  # loop, range, empty, unsorted
def test_json_parse_matches_the_reference(n, edges):
    text = json.dumps({"n": n, "edges": edges})

    def outcome(parse):
        try:
            return parse(text)
        except FormatError as exc:
            return str(exc)

    got, want = outcome(hypergraph_from_json), outcome(reference_hypergraph_from_json)
    assert got == want
    if isinstance(want, Hypergraph):
        assert validate(got) == reference_validate(want)


def test_json_parse_checks_the_member_types_once(monkeypatch):
    # the parser's type passes over the rows and over their flat members
    # decide; a valid file's value is kept past the constructor, whose
    # exact-int check would walk the members a second time
    type_passes = []

    def counted(function, *iterables):
        if function is type:
            type_passes.append(iterables[0])
        return map(function, *iterables)

    def constructor(*args):
        raise AssertionError("Hypergraph.__init__ called")

    monkeypatch.setattr(core, "map", counted, raising=False)
    monkeypatch.setattr(Hypergraph, "__init__", constructor)
    parsed = hypergraph_from_json('{"n": 4, "edges": [[0, 1, 2], [1, 2, 3], [2, 3]]}')
    assert parsed == H1 and validate(parsed).ok
    assert len(type_passes) == 2 and type_passes[1] is parsed._members


@pytest.mark.parametrize("parse, text", [
    (hypergraph_from_json, '{"n": 4, "edges": [[0, 1, 2], [1, 2, 3], [2, 3]]}'),
    (hypergraph_from_text, "4 3\n0 1 2\n1 2 3\n2 3\n"),
], ids=["json", "text"])
def test_parsed_members_are_walked_once(monkeypatch, parse, text):
    # the constructor's exact-int check flattens the members once and keeps
    # the list; validate and degrees() read it rather than walk the edges
    walks = []

    class CountedChain:
        @staticmethod
        def from_iterable(rows):
            walks.append(rows)
            return chain.from_iterable(rows)

    monkeypatch.setattr(core, "chain", CountedChain)
    parsed = parse(text)
    assert parsed == H1 and validate(parsed).ok
    assert parsed.degrees() == [1, 2, 3, 2]
    assert len(walks) == 1 and walks[0] is parsed.edges


def test_demands_from_json():
    f = demands_from_json("[0, 1, 2]", 3)
    assert f.values == (0, 1, 2)
    with pytest.raises(FormatError):
        demands_from_json("[0, 1]", 3)
    with pytest.raises(FormatError):
        demands_from_json("[0, -1, 2]", 3)
    with pytest.raises(FormatError):
        demands_from_json('{"a": 1}', 1)
    with pytest.raises(FormatError):
        demands_from_json("[true]", 1)


edges_strategy = st.integers(min_value=2, max_value=9).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.sets(st.integers(0, n - 1), min_size=2, max_size=min(4, n)).map(
                lambda s: tuple(sorted(s))
            ),
            max_size=8,
            unique_by=lambda e: frozenset(e),
        ),
    )
)


@given(edges_strategy)
def test_round_trips_preserve_any_valid_hypergraph(data):
    n, edges = data
    hg = Hypergraph(n, tuple(edges))
    assert validate(hg).ok
    assert hypergraph_from_json(hypergraph_to_json(hg)) == hg
    assert hypergraph_from_text(hypergraph_to_text(hg)) == hg


@given(edges_strategy)
def test_degree_sum_identity(data):
    n, edges = data
    hg = Hypergraph(n, tuple(edges))
    assert sum(hg.degrees()) == sum(len(e) for e in hg.edges)


def test_directed_degree_sums():
    directed = DirectedHypergraph(H1, (2, 2, 3))
    assert sum(directed.indegrees()) == H1.num_edges
    total_out = sum(v != h for e, h in zip(H1.edges, directed.heads) for v in e)
    assert total_out == sum(len(e) - 1 for e in H1.edges)


def test_incident_count_monotone():
    subsets = [set(), {0}, {0, 3}, {0, 2, 3}, {0, 1, 2, 3}]
    counts = [H1.incident_edge_count(s) for s in subsets]
    assert counts == sorted(counts)
