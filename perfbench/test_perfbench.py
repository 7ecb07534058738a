"""Self-tests of the benchmark: quick runs, injected wrong answers and the
self-time arithmetic.  Run with ``python3 -m pytest perfbench``."""

import contextlib
import io
import json
import types

import pytest

import run
import spans
import workloads

BENCHMARK = run.BENCHMARK


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_quick_run_reports_every_end_to_end_metric(workload):
    report = run.run(workload, seed=1, seconds=0, trace=0, quick=True)
    assert (report["attempted"], report["failed"]) == (1, 0)
    assert set(report["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(value > 0 for value in report["metrics"].values())


def test_quick_traced_run_reports_every_per_layer_metric():
    report = run.run("shrink-random", seed=1, seconds=0, trace=1, quick=True)
    assert report["failed"] == 0
    assert set(report["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert report["metrics"]["rainbow.forest_ms"] > 0
    assert "recognition" in report["not_observed"]


class TamperedCli:
    """Runs the real CLI, then rewrites its exit code and stdout."""

    def __init__(self, tamper):
        self.real, _ = run.load_package()
        self.tamper = tamper

    def main(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.real.main(argv)
        code, text = self.tamper(argv, code, out.getvalue())
        print(text, end="")
        return code


def swap_pair_out_of_its_hyperedge(argv, code, stdout):
    """Exchange the pairs of hyperedge 0 and of one hyperedge whose pair
    does not fit inside hyperedge 0: still a spanning tree and a
    bijection with the same degrees, but containment breaks."""
    with open(argv[1], encoding="utf-8") as handle:
        edges = json.load(handle)["edges"]
    data = json.loads(stdout)
    tree, assignment = data["tree"], data["assignment"]
    j = next(j for j in range(len(edges)) if not set(tree[assignment[j]]) <= set(edges[0]))
    assignment[0], assignment[j] = assignment[j], assignment[0]
    return code, json.dumps(data) + "\n"


def flip_check_answer(argv, code, stdout):
    if stdout == "hypertree\n":
        return 1, "not a hypertree\n"
    return 0, "hypertree\n"


@pytest.mark.parametrize("workload, tamper, reason", [
    ("shrink-random", swap_pair_out_of_its_hyperedge, "outside hyperedge"),
    ("check-mixed", flip_check_answer, "expected"),
])
def test_injected_wrong_answer_is_counted_as_a_failure(workload, tamper, reason):
    report = run.run(workload, seed=1, seconds=0, trace=0, quick=True, cli=TamperedCli(tamper))
    assert (report["attempted"], report["failed"]) == (1, 1)
    assert reason in report["failures"][0]["reason"]


def test_self_time_subtracts_the_union_of_child_spans():
    span = spans.Span
    tree = [
        span(0, "cli", 0.0, 10.0, -1, 0),
        span(1, "shrink", 1.0, 9.0, 0, 0),
        span(2, "orientation.orient", 2.0, 4.0, 1, 0),
        span(3, "rainbow.tree", 3.5, 8.0, 1, 0),  # overlaps its sibling
        span(4, "rainbow.forest", 5.0, 7.0, 3, 0),
    ]
    assert spans.self_times(tree) == pytest.approx({0: 2.0, 1: 2.0, 2: 2.0, 3: 2.5, 4: 2.0})
    layers = spans.per_op_layers(tree)[0]
    assert layers["op"] == pytest.approx(10.0)
    assert layers["rainbow.tree"] == pytest.approx(2.5)


def test_missing_and_unused_hooks_leave_layers_unobserved():
    fake = types.ModuleType("hypershrink.fake")
    fake.helper = lambda: 1
    fake.maximum_rainbow_forest = lambda: 0  # hooked, never called

    def main():
        return fake.helper()

    fake.main = main
    tracer = spans.Tracer()
    assert tracer.install([fake]) == [
        ("hypershrink.fake", "main"), ("hypershrink.fake", "maximum_rainbow_forest")]
    tracer.op = 0
    assert fake.main() == 1
    tracer.uninstall()
    assert fake.main is main
    assert [s.name for s in tracer.spans] == ["cli"]
