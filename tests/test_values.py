"""Value semantics of the twelve immutable classes.

Construction with and without defaults, ``repr``, equality within one
class only, the hash of the field tuple, refused writes, memos kept out
of all of these, ``match`` patterns, and pickle and deepcopy round trips.
"""

import copy
import pickle

import pytest

from hypershrink import (
    BruteforceResult,
    ColouredGraph,
    DemandFunction,
    DirectedHypergraph,
    Hypergraph,
    OrientationResult,
    RainbowTree,
    Shrinking,
    ValidationReport,
    VerificationReport,
    Violation,
    shrink_hypertree,
    hypergraph_from_json,
    star_graph,
    validate,
)
from hypershrink.core import _degree_guarantee, _degrees
from hypershrink.orientation import _hub_like, _incidence, _tight_heads
from hypershrink.shrink import VerificationCheck

PATH = Hypergraph(3, ((0, 1), (1, 2)))
PATH_REPR = "Hypergraph(n=3, edges=((0, 1), (1, 2)))"
DIRECTED = DirectedHypergraph(PATH, (1, 2))
DIRECTED_REPR = f"DirectedHypergraph(base={PATH_REPR}, heads=(1, 2))"
LOOP = Violation("loop", 0, "edge [1, 1] has size 1")
LOOP_REPR = "Violation(kind='loop', edge_index=0, detail='edge [1, 1] has size 1')"
TREE_CHECK = VerificationCheck("tree", False, "2 components")
TREE_CHECK_REPR = "VerificationCheck(name='tree', passed=False, detail='2 components')"

# (class, every field positionally, the exact repr)
CASES = (
    (Hypergraph, (3, ((0, 1), (1, 2))), PATH_REPR),
    (DirectedHypergraph, (PATH, (1, 2)), DIRECTED_REPR),
    (DemandFunction, ((0, 2, 1),), "DemandFunction(values=(0, 2, 1))"),
    (Violation, ("loop", 0, "edge [1, 1] has size 1"), LOOP_REPR),
    (ValidationReport, ((LOOP,),), f"ValidationReport(violations=({LOOP_REPR},))"),
    (OrientationResult, (DIRECTED, None), f"OrientationResult(oriented={DIRECTED_REPR}, violator=None)"),
    (OrientationResult, (None, (0, 2)), "OrientationResult(oriented=None, violator=(0, 2))"),
    (
        BruteforceResult, (False, (0, 1), True),
        "BruteforceResult(is_hypertree=False, violating_subset=(0, 1), bad_edge_count=True)",
    ),
    (ColouredGraph, (3, ((0, 1, 0), (1, 2, 1))), "ColouredGraph(n=3, edges=((0, 1, 0), (1, 2, 1)))"),
    (RainbowTree, (3, ((0, 1, 1), (1, 2, 0))), "RainbowTree(n=3, edges=((0, 1, 1), (1, 2, 0)))"),
    (Shrinking, (((0, 1), (1, 2)), (1, 0)), "Shrinking(tree=((0, 1), (1, 2)), assignment=(1, 0))"),
    (VerificationCheck, ("tree", False, "2 components"), TREE_CHECK_REPR),
    (VerificationReport, ((TREE_CHECK,),), f"VerificationReport(checks=({TREE_CHECK_REPR},))"),
)

# (a call that leaves defaults out, the same call with them given, its repr)
DEFAULTS = (
    (Hypergraph(3), Hypergraph(3, ()), "Hypergraph(n=3, edges=())"),
    (
        DirectedHypergraph(Hypergraph(2)), DirectedHypergraph(Hypergraph(2), ()),
        "DirectedHypergraph(base=Hypergraph(n=2, edges=()), heads=())",
    ),
    (DemandFunction(), DemandFunction(()), "DemandFunction(values=())"),
    (ValidationReport(), ValidationReport(()), "ValidationReport(violations=())"),
    (
        OrientationResult(DIRECTED), OrientationResult(DIRECTED, None),
        f"OrientationResult(oriented={DIRECTED_REPR}, violator=None)",
    ),
    (
        OrientationResult(violator=(1,)), OrientationResult(None, (1,)),
        "OrientationResult(oriented=None, violator=(1,))",
    ),
    (
        BruteforceResult(True), BruteforceResult(True, None, False),
        "BruteforceResult(is_hypertree=True, violating_subset=None, bad_edge_count=False)",
    ),
    (ColouredGraph(2), ColouredGraph(2, ()), "ColouredGraph(n=2, edges=())"),
    (RainbowTree(1), RainbowTree(1, ()), "RainbowTree(n=1, edges=())"),
    (Shrinking(), Shrinking((), ()), "Shrinking(tree=(), assignment=())"),
    (
        VerificationCheck("tree", True), VerificationCheck("tree", True, ""),
        "VerificationCheck(name='tree', passed=True, detail='')",
    ),
    (VerificationReport(), VerificationReport(()), "VerificationReport(checks=())"),
)

IDS = [f"{cls.__name__}-{i}" for i, (cls, _, _) in enumerate(CASES)]

SHRUNK = shrink_hypertree(PATH)
SHRUNK.tree_degrees(3)  # a memo for the round trips to keep

# (a value built past its constructor's checks by _Value._trusted, the
# checked constructor's value of the same fields, their repr)
TRUSTED = (
    (
        star_graph(DIRECTED), ColouredGraph(3, ((0, 1, 0), (1, 2, 1))),
        "ColouredGraph(n=3, edges=((0, 1, 0), (1, 2, 1)))",
    ),
    (SHRUNK, Shrinking(((0, 1), (1, 2)), (0, 1)), "Shrinking(tree=((0, 1), (1, 2)), assignment=(0, 1))"),
    # its memos are the member list of the parser's type pass and the report
    (hypergraph_from_json('{"n": 3, "edges": [[0, 1], [1, 2]]}'), PATH, PATH_REPR),
)


def test_every_value_class_has_a_case():
    # Violation is the one class whose every field is required
    assert {cls for cls, _, _ in CASES} == {type(short) for short, _, _ in DEFAULTS} | {Violation}
    assert len({cls for cls, _, _ in CASES}) == 12


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
def test_positional_and_keyword_construction_and_repr(cls, args, text):
    positional = cls(*args)
    keyword = cls(**dict(zip(cls.__match_args__, args)))
    assert tuple(getattr(positional, name) for name in cls.__match_args__) == args
    assert positional == keyword
    assert repr(positional) == repr(keyword) == text


@pytest.mark.parametrize("short, full, text", DEFAULTS, ids=lambda x: type(x).__name__)
def test_defaults(short, full, text):
    assert short == full
    assert repr(short) == repr(full) == text


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
def test_equality_and_hash_read_the_fields(cls, args, text):
    value, twin = cls(*args), cls(*args)
    assert value == twin and not value != twin
    assert hash(value) == hash(twin) == hash(args)
    assert value != object() and value != args
    assert value.__eq__(args) is NotImplemented


def test_equality_holds_within_one_class_only():
    assert Hypergraph(3, ()) != ColouredGraph(3, ())
    assert ColouredGraph(3, ((0, 1, 0), (1, 2, 1))) != RainbowTree(3, ((0, 1, 0), (1, 2, 1)))
    assert VerificationCheck("x", True) != Violation("x", True, "")
    assert DemandFunction((1,)) != ValidationReport((1,))
    assert Hypergraph(3, ()).__eq__(ColouredGraph(3, ())) is NotImplemented
    assert Hypergraph(3, ((0, 1),)) != Hypergraph(3, ((1, 2),))
    assert Hypergraph(3, ()) != Hypergraph(4, ())


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
def test_fields_cannot_be_set_or_deleted(cls, args, text):
    value = cls(*args)
    for name in (*cls.__match_args__, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == cls(*args) and not hasattr(value, "extra")


def test_memos_stay_out_of_equality_hash_and_repr():
    values = (Hypergraph(4, ((0, 1, 2), (1, 2, 3))), Shrinking(((0, 1), (1, 2)), (1, 0)))
    hypergraph, shrinking = values
    before = [(hash(value), repr(value)) for value in values]
    assert hypergraph.degrees() == [1, 2, 2, 1] and hypergraph.rank() == 3
    assert validate(hypergraph).ok
    assert _degree_guarantee(hypergraph) == (3, [1, 1, 1, 1])
    assert _incidence(hypergraph) == [[0], [0, 1], [0, 1], [1]]
    assert shrinking.tree_degrees(3) == [1, 2, 1]
    assert {"_degrees", "_rank", "_report", "_bound", "_incident"} <= set(vars(hypergraph))
    assert "_tree_degrees" in vars(shrinking)
    assert [(hash(value), repr(value)) for value in values] == before
    assert values == (Hypergraph(4, ((0, 1, 2), (1, 2, 3))), Shrinking(((0, 1), (1, 2)), (1, 0)))


@pytest.mark.parametrize(
    "function, name",
    [
        (Hypergraph.rank, "_rank"),
        (validate, "_report"),
        (_degrees, "_degrees"),
        (_incidence, "_incident"),
        (_tight_heads, "_tight"),
        (_hub_like, "_hub"),
    ],
)
def test_lazy_memos_are_built_once_and_kept_in_the_dict(function, name):
    # each is built on the first call, kept under its name and handed back
    # as the same object after; the built function stays reachable
    hypergraph = Hypergraph(4, ((0, 1, 2), (1, 2, 3)))
    assert name not in vars(hypergraph)
    first = function(hypergraph)
    assert vars(hypergraph)[name] is first
    assert function(hypergraph) is first
    assert function.__wrapped__(hypergraph) == first
    assert function.__name__ == function.__wrapped__.__name__


def test_positional_match_patterns():
    match PATH:
        case Hypergraph(n, edges):
            assert (n, edges) == (3, ((0, 1), (1, 2)))
        case _:
            pytest.fail("no match")
    match LOOP:
        case Violation(kind, index, detail):
            assert (kind, index, detail) == ("loop", 0, "edge [1, 1] has size 1")
        case _:
            pytest.fail("no match")


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
def test_pickle_and_deepcopy_round_trips(cls, args, text):
    value = cls(*args)
    copies = [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.deepcopy(value), copy.copy(value)]
    for other in copies:
        assert type(other) is cls and other == value and hash(other) == hash(value)
        assert repr(other) == text
        with pytest.raises(AttributeError):
            setattr(other, cls.__match_args__[0], None)


@pytest.mark.parametrize("trusted, checked, text", TRUSTED, ids=["star_graph", "shrink_hypertree", "hypergraph_from_json"])
def test_trusted_values_behave_like_checked_ones(trusted, checked, text):
    assert trusted == checked and hash(trusted) == hash(checked)
    assert repr(trusted) == repr(checked) == text
    assert set(vars(trusted)) > set(trusted.__match_args__)  # memos to keep
    copies = [pickle.loads(pickle.dumps(trusted, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies + [copy.deepcopy(trusted)]:
        assert type(other) is type(trusted) and other == checked
        assert vars(other) == vars(trusted)


def test_round_trips_keep_memos_and_class_lists():
    hypergraph = Hypergraph(3, ((0, 1), (1, 2)))
    validate(hypergraph)
    graph = ColouredGraph(3, ((1, 2, 0), (0, 1, 0), (0, 2, 1)))
    for copied in (pickle.loads(pickle.dumps(hypergraph)), copy.deepcopy(hypergraph)):
        assert copied.degrees() == [1, 2, 1] and validate(copied).ok
    for copied in (pickle.loads(pickle.dumps(graph)), copy.deepcopy(graph)):
        assert copied.num_colours == 2 and copied._classes == graph._classes
