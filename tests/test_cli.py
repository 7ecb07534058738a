import argparse
import ast
import collections
import contextlib
import gc
import hashlib
import io
import json
import re
import runpy
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hypershrink
from hypershrink import (
    InternalError,
    adversarial_star,
    core,
    hypergraph_to_json,
    orientation,
    rainbow,
    random_hypertree,
    shrink_hypertree,
)
from hypershrink.cli import _build_parser, main
from helpers import cli_env

H1_JSON = '{"n": 4, "edges": [[0, 1, 2], [1, 2, 3], [2, 3]]}'
TRIANGLE_TEXT = "4 3\n0 1\n1 2\n0 2\n"


@pytest.fixture
def h1_file(tmp_path):
    path = tmp_path / "h1.json"
    path.write_text(H1_JSON)
    return str(path)


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.txt"
    path.write_text(TRIANGLE_TEXT)
    return str(path)


def test_validate_ok(h1_file, capsys):
    assert main(["validate", h1_file]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_reports_loop(tmp_path, capsys):
    path = tmp_path / "loop.json"
    path.write_text('{"n": 2, "edges": [[1, 1]]}')
    assert main(["validate", str(path)]) == 1
    assert "edge 0" in capsys.readouterr().err


def test_validate_unreadable_file(capsys):
    assert main(["validate", "/no/such/file"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_validate_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{broken")
    assert main(["validate", str(path)]) == 2
    assert "JSON" in capsys.readouterr().err


def test_non_utf8_file_is_a_usage_error(tmp_path, h1_file, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"n": 2, "edges": [[0, 1]]} \xff')
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: cannot read {path}: not UTF-8 text (invalid start byte at byte 28)\n"
    )
    assert main(["orient", h1_file, "--demands", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot read {path}: not UTF-8 text (invalid start byte at byte 28)\n"
    )


def test_byte_order_mark_is_not_content(tmp_path, capsys):
    # some editors start UTF-8 files with U+FEFF; one is dropped after
    # decoding, so either format reads as without it, and a bad byte's
    # offset still counts the mark's three bytes
    h1_text = "4 3\n0 1 2\n1 2 3\n2 3\n"
    cases = (
        ("h1.json", H1_JSON, (0, 0, 0, 0)),
        ("h1.txt", h1_text, (0, 0, 0, 0)),
        ("triangle.txt", TRIANGLE_TEXT, (0, 1, 1, 0)),
    )
    for name, text, codes in cases:
        plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        for command, code in zip(("validate", "check", "shrink", "orient"), codes):
            assert main([command, str(plain)]) == code
            expected = capsys.readouterr().out
            assert main([command, str(marked)]) == code
            assert capsys.readouterr().out == expected
    h1 = str(tmp_path / "h1.json")
    (tmp_path / "demands.json").write_text("[0, 1, 1, 0]", encoding="utf-8")
    (tmp_path / "bom-demands.json").write_text("\ufeff[0, 1, 1, 0]", encoding="utf-8")
    assert main(["orient", h1, "--demands", str(tmp_path / "demands.json")]) == 0
    expected = capsys.readouterr().out
    assert main(["orient", h1, "--demands", str(tmp_path / "bom-demands.json")]) == 0
    assert capsys.readouterr().out == expected
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'\xef\xbb\xbf{"n": 2, "edges": [[0, 1]]} \xff')
    assert main(["check", str(bad)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot read {bad}: not UTF-8 text (invalid start byte at byte 31)\n"
    )


DEEP = "[" * 100_000 + "]" * 100_000


def test_deeply_nested_json_is_a_usage_error(tmp_path, h1_file, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"n": 2, "edges": ' + DEEP + "}")
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: invalid JSON: nested too deeply\n"
    demands = tmp_path / "deep_demands.json"
    demands.write_text(DEEP)
    assert main(["orient", h1_file, "--demands", str(demands)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: invalid JSON: nested too deeply\n"


def test_integer_beyond_the_digit_limit_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"n": ' + "1" * 5000 + ', "edges": []}')
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invalid JSON: ")


def test_check_hypertree(h1_file, capsys):
    assert main(["check", h1_file]) == 0
    assert capsys.readouterr().out.strip() == "hypertree"


def test_check_not_hypertree(triangle_file, capsys):
    assert main(["check", triangle_file]) == 1
    assert "not a hypertree" in capsys.readouterr().out


def test_check_oracle_witness(triangle_file, capsys):
    assert main(["check", "--oracle", triangle_file]) == 1
    out = capsys.readouterr().out
    assert "witness" in out or "expected" in out


def test_check_oracle_refuses_large(tmp_path, capsys):
    edges = [[i, i + 1] for i in range(24)]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": 25, "edges": edges}))
    assert main(["check", "--oracle", str(path)]) == 2
    assert "refused" in capsys.readouterr().err


def test_check_rejects_invalid_hypergraph(tmp_path, capsys):
    path = tmp_path / "dup.json"
    path.write_text('{"n": 3, "edges": [[0, 1], [0, 1]]}')
    assert main(["check", str(path)]) == 2
    assert "invalid hypergraph" in capsys.readouterr().err


def test_shrink_json(h1_file, capsys):
    assert main(["shrink", h1_file]) == 0
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert data["degrees"]["hyper"] == [1, 2, 3, 2]
    assert len(data["tree"]) == 3
    assert "degree-floor-bound: pass" in captured.err


def test_shrink_dot(h1_file, capsys):
    assert main(["shrink", "--out", "dot", h1_file]) == 0
    assert capsys.readouterr().out.startswith("graph")


def test_shrink_k_override(h1_file, capsys):
    assert main(["shrink", "--k", "5", h1_file]) == 0
    assert main(["shrink", "--k", "2", h1_file]) == 2


def test_shrink_non_hypertree(triangle_file, capsys):
    assert main(["shrink", triangle_file]) == 1
    assert "not a hypertree" in capsys.readouterr().err


def test_empty_vertex_set_is_no_hypertree_in_plain_words(tmp_path, capsys):
    # a hypertree has n - 1 hyperedges, which n = 0 must not print as -1
    path = tmp_path / "empty.json"
    path.write_text('{"n": 0, "edges": []}')
    assert main(["shrink", str(path)]) == 1
    assert capsys.readouterr().err == (
        "not a hypertree (edge-count): a hypertree has at least one vertex\n"
    )
    assert main(["check", "--oracle", str(path)]) == 1
    assert capsys.readouterr().out == "not a hypertree: a hypertree has at least one vertex\n"
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().out == "not a hypertree\n"


def test_orient_floor_default(h1_file, capsys):
    assert main(["orient", h1_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["heads"][0] in data["edges"][0]
    assert sum(1 for h in data["heads"] if h == 2) >= 1


def test_orient_with_demand_file(tmp_path, capsys):
    hg = tmp_path / "path.json"
    hg.write_text('{"n": 3, "edges": [[0, 1], [1, 2]]}')
    demands = tmp_path / "f.json"
    demands.write_text("[0, 2, 0]")
    assert main(["orient", str(hg), "--demands", str(demands)]) == 0
    assert json.loads(capsys.readouterr().out)["heads"] == [1, 1]


def test_orient_infeasible_demands(tmp_path, capsys):
    hg = tmp_path / "path.json"
    hg.write_text('{"n": 3, "edges": [[0, 1], [1, 2]]}')
    demands = tmp_path / "f.json"
    demands.write_text("[1, 1, 1]")
    assert main(["orient", str(hg), "--demands", str(demands)]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["violator"] == [0, 1, 2]
    assert data["f(F)"] == 3
    assert data["e*(F)"] == 2


def test_negative_orient_counts_e_star_once(triangle_file, tmp_path, monkeypatch, capsys):
    # orient_with_demands counts e*(F) once, to certify its violator, and
    # remembers the certified counts on its result, which orient prints:
    # one certification for one answer, and the same bytes
    counted = []
    real = orientation._certify
    monkeypatch.setattr(
        orientation, "_certify", lambda h, violator, demand: counted.append(violator) or real(h, violator, demand)
    )
    demands = tmp_path / "f.json"
    demands.write_text("[0, 1, 1, 1]")
    assert main(["orient", triangle_file, "--demands", str(demands)]) == 1
    assert capsys.readouterr().out == '{"violator": [3], "f(F)": 1, "e*(F)": 0}\n'
    assert counted == [(3,)]


def test_orient_demand_length_mismatch(tmp_path, capsys):
    hg = tmp_path / "path.json"
    hg.write_text('{"n": 3, "edges": [[0, 1], [1, 2]]}')
    demands = tmp_path / "f.json"
    demands.write_text("[1, 1]")
    assert main(["orient", str(hg), "--demands", str(demands)]) == 2


def test_gen_writes_hypergraph_and_witness(tmp_path, capsys):
    witness_path = tmp_path / "w.json"
    code = main(
        ["gen", "--n", "8", "--k", "3", "--seed", "5", "--p", "1.0",
         "--witness", str(witness_path)]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n"] == 8
    assert len(data["edges"]) == 7
    pairs = json.loads(witness_path.read_text())["pairs"]
    assert len(pairs) == 7
    for pair, edge in zip(pairs, data["edges"]):
        assert set(pair) <= set(edge)


def test_gen_unwritable_witness_prints_nothing(tmp_path, capsys):
    # the witness is written first, so a directory as its path fails the
    # command before the hypergraph reaches stdout
    code = main(["gen", "--n", "8", "--k", "3", "--seed", "5", "--witness", str(tmp_path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: cannot write" in captured.err


def test_floor_k_is_read_without_the_degree_guarantee(h1_file, monkeypatch, capsys):
    # orient_floor, floor_demand and orient --k read k alone; the per-vertex
    # bound of the degree guarantee is built only where it is reported
    def refuse(*args):
        raise AssertionError("the degree guarantee was built to read k")

    for name, module in list(sys.modules.items()):
        if name.startswith("hypershrink.") and hasattr(module, "_degree_guarantee"):
            monkeypatch.setattr(module, "_degree_guarantee", refuse)
    hg = hypershrink.hypergraph_from_json(H1_JSON)
    assert hypershrink.floor_demand(hg, 3).values == (0, 0, 1, 0)
    assert hypershrink.orient_floor(hg, None).heads == hypershrink.orient_floor(hg, 4).heads
    for argv in (["orient", "--k", "3", h1_file], ["orient", h1_file]):
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["heads"]
    assert main(["orient", "--k", "2", h1_file]) == 2
    assert capsys.readouterr().err == "error: k=2 is below the rank 3\n"


def test_dir_lists_every_public_name_and_the_lazy_modules():
    names = dir(hypershrink)
    assert names == sorted(names)
    assert set(hypershrink.__all__) <= set(names)
    assert {"dot", "gen", "oracles", "rainbow", "shrink"} <= set(names)


def test_the_cli_module_runs_as_a_script(h1_file, monkeypatch, capsys):
    # python -m hypershrink.cli, run in this process: a fresh __main__
    # module, whose exit code is main's
    monkeypatch.delitem(sys.modules, "hypershrink.cli")
    monkeypatch.setattr(sys, "argv", ["hypershrink", "validate", h1_file])
    with pytest.raises(SystemExit) as info:
        runpy.run_module("hypershrink.cli", run_name="__main__", alter_sys=True)
    assert info.value.code == 0
    assert capsys.readouterr().out == "valid: 4 vertices, 3 hyperedges\n"


def test_gen_rejects_bad_k(capsys):
    assert main(["gen", "--n", "5", "--k", "1", "--seed", "0"]) == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["shrink", "--k", "0", "{h1}"], "k must be positive"),
        (["shrink", "--k", "2", "{h1}"], "k=2 is below the rank 3"),
        (["orient", "--k", "0", "{h1}"], "k must be positive"),
        (["orient", "--k", "2", "{h1}"], "k=2 is below the rank 3"),
        (["validate", "{negative_json}"], "vertex count must be non-negative"),
        (["check", "{negative_text}"], "vertex count must be non-negative"),
        (["gen", "--n", "1", "--k", "3", "--seed", "0"], "need at least two vertices"),
        (["gen", "--n", "5", "--k", "1", "--seed", "0"], "rank bound k must be at least 2"),
        (["gen", "--n", "5", "--k", "3", "--seed", "0", "--p", "1.5"],
         "expansion probability must lie in [0, 1]"),
        (["gen", "--n", "5", "--k", "3", "--seed", "0", "--p", "-0.1"],
         "expansion probability must lie in [0, 1]"),
        (["bench", "--trials", "0", "--n", "5", "--k", "3", "--seed", "0"],
         "need at least one trial"),
        (["bench", "--trials", "1", "--n", "1", "--k", "3", "--seed", "0"],
         "need at least two vertices"),
        (["bench", "--trials", "1", "--n", "5", "--k", "1", "--seed", "0"],
         "rank bound k must be at least 2"),
        (["bench", "--trials", "1", "--n", "5", "--k", "3", "--seed", "0",
          "--p", "2"], "expansion probability must lie in [0, 1]"),
        # int() would read 1_0 as vertex 10 and the Arabic-Indic digit as 1
        (["validate", "{grouped_text}"], "edge line 0: '1_0' is not a decimal integer"),
        (["check", "{arabic_text}"], "edge line 0: '\u0661' is not a decimal integer"),
        (["shrink", "{grouped_header}"], "bad header: '1_2' is not a decimal integer"),
        # explicit demands do not exempt --k from its check
        (["orient", "--demands", "{demands}", "--k", "0", "{h1}"], "k must be positive"),
        (["orient", "--demands", "{demands}", "--k", "-3", "{h1}"], "k must be positive"),
        (["orient", "--demands", "{demands}", "--k", "2", "{h1}"],
         "k=2 is below the rank 3"),
        # read as an edge count, -1 would be reported as a count of edge lines
        (["check", "{negative_edges}"], "bad header: edge count must be non-negative"),
    ],
)
def test_bad_input_exits_2(argv, message, h1_file, tmp_path, capsys):
    negative_json = tmp_path / "negative.json"
    negative_json.write_text('{"n": -3, "edges": []}')
    negative_text = tmp_path / "negative.txt"
    negative_text.write_text("-3 0\n")
    demands = tmp_path / "demands.json"
    demands.write_text("[0, 0, 0, 0]")
    files = {"h1": h1_file, "negative_json": negative_json,
             "negative_text": negative_text, "demands": demands}
    for name, text in (("grouped_text", "12 1\n0 1_0\n"), ("arabic_text", "3 1\n0 \u0661\n"),
                       ("grouped_header", "1_2 1\n0 1\n"), ("negative_edges", "3 -1\n")):
        files[name] = tmp_path / f"{name}.txt"
        files[name].write_text(text, encoding="utf-8")
    assert main([arg.format(**files) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    if argv[0] in ("gen", "bench") and argv[:3] != ["bench", "--trials", "0"]:
        # the library refuses the same arguments in the same words
        args = _build_parser().parse_args(argv)
        with pytest.raises(ValueError) as info:
            random_hypertree(args.n, args.k, args.seed, args.p)
        assert str(info.value) == message


def test_vertex_limit_is_documented():
    assert core.MAX_VERTICES == 10_000_000


@pytest.mark.parametrize(
    "argv",
    [["validate"], ["check"], ["check", "--oracle"], ["shrink", "--k", "3"], ["orient"]],
)
@pytest.mark.parametrize(
    "name, text",
    [("big.json", '{"n": 9, "edges": [[0, 1]]}'), ("big.txt", "9 1\n0 1\n")],
)
def test_vertex_count_above_the_limit_exits_2(argv, name, text, tmp_path,
                                              monkeypatch, capsys):
    # the limit is lowered so that a regression cannot allocate much
    monkeypatch.setattr(core, "MAX_VERTICES", 8)
    path = tmp_path / name
    path.write_text(text)
    assert main(argv + [str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: vertex count 9 exceeds the limit 8\n"


def test_vertex_count_at_the_limit_is_read(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(core, "MAX_VERTICES", 3)
    path = tmp_path / "path.json"
    path.write_text('{"n": 3, "edges": [[0, 1], [1, 2]]}')
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out == "hypertree\n"


def refuse_to_generate(*args):
    raise AssertionError("the generator ran on a refused --n")


@pytest.mark.parametrize(
    "argv",
    [["gen", "--k", "3", "--seed", "0"],
     ["bench", "--trials", "1", "--k", "3", "--seed", "0"]],
)
def test_generator_refuses_n_above_the_vertex_limit(argv, monkeypatch, capsys):
    # the commands read the generator off hypershrink.gen at each call
    monkeypatch.setattr("hypershrink.gen.random_hypertree", refuse_to_generate)
    limit = core.MAX_VERTICES
    assert main(argv + ["--n", str(limit + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: vertex count {limit + 1} exceeds the limit {limit}\n"
    assert main(argv + ["--n", "1000000000"]) == 2
    assert capsys.readouterr().err.startswith("error: vertex count 1000000000 exceeds")


def test_generator_accepts_n_at_the_vertex_limit(monkeypatch, capsys):
    monkeypatch.setattr(core, "MAX_VERTICES", 6)
    assert main(["gen", "--n", "6", "--k", "3", "--seed", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 6
    assert main(["bench", "--trials", "1", "--n", "6", "--k", "3", "--seed", "0"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2
    assert main(["gen", "--n", "7", "--k", "3", "--seed", "0"]) == 2
    assert capsys.readouterr().err == "error: vertex count 7 exceeds the limit 6\n"


def test_gen_p_zero_is_plain_tree(capsys):
    assert main(["gen", "--n", "6", "--k", "4", "--seed", "3", "--p", "0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert all(len(e) == 2 for e in data["edges"])


def test_bench_rows_and_slack(capsys):
    assert main(["bench", "--trials", "4", "--n", "15", "--k", "3",
                 "--seed", "11"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("trial,seed,n,rank")
    assert len(lines) == 5
    for row in lines[1:]:
        fields = row.split(",")
        assert int(fields[5]) >= 0  # min_slack
        assert float(fields[6]) >= 1 / 100  # min degree ratio


def test_bench_determinism(capsys):
    args = ["bench", "--trials", "3", "--n", "12", "--k", "4", "--seed", "2"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    for command in ("validate", "check", "shrink", "orient", "gen", "bench"):
        assert command in out


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "hypershrink.cli", "gen", "--n", "5",
         "--k", "3", "--seed", "1"],
        capture_output=True,
        text=True,
        env=cli_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 5


def infeasible_orientation(hypergraph, heads, need):
    """Stand-in for ``orientation._repairs`` that reports the always
    feasible floor demands infeasible, to break an invariant on purpose."""
    return heads, (2,)


def test_internal_error_exits_3(h1_file, monkeypatch, capsys):
    monkeypatch.setattr("hypershrink.orientation._repairs", infeasible_orientation)
    for command in ("orient", "shrink"):
        assert main([command, h1_file]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error:")


def test_short_rainbow_forest_on_a_hypertree_exits_3(tmp_path, monkeypatch, capsys):
    # the star expansion of a hypertree has a rainbow spanning tree, so an
    # engine that gives up on one is a bug, not "not a hypertree"; this
    # hypertree's seed leaves components, so shrink builds the engine
    hypergraph, _ = random_hypertree(16, 3, 7, 0.8)
    path = tmp_path / "random.json"
    path.write_text(hypergraph_to_json(hypergraph))
    monkeypatch.setattr(rainbow._RainbowEngine, "augment", lambda engine: False)
    assert main(["shrink", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error:")
    with pytest.raises(InternalError):
        shrink_hypertree(hypergraph)


def test_uncertified_violator_exits_3(h1_file, monkeypatch, capsys):
    # (2,) demands one head but meets three hyperedges of H1, so check
    # refuses to print "not a hypertree" on it
    monkeypatch.setattr("hypershrink.orientation._repairs", infeasible_orientation)
    assert main(["check", h1_file]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error:")


def test_uncertified_demand_violator_exits_3(h1_file, tmp_path, monkeypatch, capsys):
    # the demands total |E| = 3, so the pre-check passes and the repairs
    # run; f((2,)) = 1 but (2,) meets all three hyperedges of H1, so orient
    # refuses to print that violator as a certificate
    demands = tmp_path / "f.json"
    demands.write_text("[0, 1, 1, 1]")
    monkeypatch.setattr("hypershrink.orientation._repairs", infeasible_orientation)
    assert main(["orient", h1_file, "--demands", str(demands)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error:")


def test_one_validation_report_per_operation(h1_file, tmp_path, monkeypatch, capsys):
    # the report built while loading is remembered on the hypergraph, so
    # the checks inside shrink_hypertree, is_hypertree, verify_shrinking
    # and the serialiser only look it up
    built = []
    real = core.ValidationReport

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(core, "ValidationReport", counted)
    outputs = {}
    for command in ("shrink", "check"):
        built.clear()
        assert main([command, h1_file]) == 0
        outputs[command] = capsys.readouterr().out
        assert len(built) == 1, command
    # the parser validates the edges as given and sorts them only when an
    # edge is not strictly sorted; the sorted hypergraph is a new value
    # with a report of its own, so such a file costs two reports
    unsorted = tmp_path / "unsorted.json"
    unsorted.write_text('{"n": 4, "edges": [[2, 1, 0], [1, 2, 3], [3, 2]]}')
    for command in ("shrink", "check"):
        built.clear()
        assert main([command, str(unsorted)]) == 0
        assert capsys.readouterr().out == outputs[command]
        assert len(built) == 2, command


def test_unexpected_exception_exits_3(h1_file, monkeypatch, capsys):
    # exit 1 is reserved for negative answers, so a stray exception from a
    # bug must not leak out of main() as a traceback
    def broken(hypergraph):
        raise KeyError("lost")

    monkeypatch.setattr("hypershrink.cli.is_hypertree", broken)
    assert main(["check", h1_file]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: KeyError: 'lost'")


def test_internal_value_error_exits_3(h1_file, monkeypatch, capsys):
    # a ValueError from inside the package is a bug, not bad input
    def broken(hypergraph):
        raise ValueError("bug")

    monkeypatch.setattr("hypershrink.cli.is_hypertree", broken)
    assert main(["check", h1_file]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: ValueError: bug\n"


@contextlib.contextmanager
def collector(enabled: bool):
    """Run the body with the cyclic collector on or off, then restore it."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


def test_shrink_on_a_hub_runs_no_collection(tmp_path, capsys):
    # the per-edge containers of a hub shrink trigger collector passes when
    # the command runs with the collector on; main pauses it
    path = tmp_path / "hub.json"
    path.write_text(hypergraph_to_json(adversarial_star(1999, 4)))
    argv = ["shrink", str(path)]
    passes = []

    def count(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    args = _build_parser().parse_args(argv)
    gc.callbacks.append(count)
    try:
        with collector(True):
            assert args.func(args) == 0
            unpaused = len(passes)
            passes.clear()
            assert main(argv) == 0
    finally:
        gc.callbacks.remove(count)
    assert unpaused > 0
    assert passes == []
    capsys.readouterr()


def exit_code(argv):
    """main's exit code, or the code of the SystemExit argparse raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_the_collector_on_every_way_out(enabled, h1_file, triangle_file,
                                                      monkeypatch, capsys):
    seen = []

    def broken(hypergraph):
        seen.append(gc.isenabled())
        raise KeyError("lost")

    for argv, code in (
        (["check", h1_file], 0),
        (["check", triangle_file], 1),
        (["check", "/no/such/file"], 2),
        (["--help"], 0),
        (["shrink", "--no-such-flag", h1_file], 2),
    ):
        with collector(enabled):
            assert exit_code(argv) == code, argv
            assert gc.isenabled() is enabled, argv
    monkeypatch.setattr("hypershrink.cli.is_hypertree", broken)
    with collector(enabled):
        assert main(["check", h1_file]) == 3
        assert gc.isenabled() is enabled
    assert seen == [False]  # the command ran with the collector paused
    capsys.readouterr()


def test_commands_leave_no_cyclic_garbage(h1_file, tmp_path, capsys):
    # main pauses the collector, so a cycle made by a command would wait
    # for the next collection: the pipeline must make none.  Building the
    # parser leaves argparse's formatter cycles once; it is cached
    path_json = tmp_path / "path.json"
    path_json.write_text('{"n": 3, "edges": [[0, 1], [1, 2]]}')
    met, violated = tmp_path / "met.json", tmp_path / "violated.json"
    met.write_text("[0, 2, 0]")
    violated.write_text("[1, 1, 1]")
    hub = tmp_path / "hub.json"
    hub.write_text(hypergraph_to_json(adversarial_star(300, 4)))
    random_file = tmp_path / "random.json"
    random_file.write_text(hypergraph_to_json(random_hypertree(300, 5, 1, 0.8)[0]))
    cases = (
        (["validate", h1_file], 0),
        (["check", str(random_file)], 0),
        (["check", "--oracle", h1_file], 0),
        (["shrink", str(hub)], 0),
        (["shrink", str(random_file)], 0),
        (["shrink", "--out", "dot", h1_file], 0),
        (["orient", str(random_file)], 0),
        (["orient", str(path_json), "--demands", str(met)], 0),
        (["orient", str(path_json), "--demands", str(violated)], 1),
        (["gen", "--n", "50", "--k", "3", "--seed", "1", "--witness", str(tmp_path / "w.json")], 0),
        (["bench", "--trials", "2", "--n", "40", "--k", "3", "--seed", "1"], 0),
        (["shrink", "/no/such/file"], 2),
        (["shrink", "--k", "0", h1_file], 2),
    )
    _build_parser()
    with collector(False):
        gc.collect()
        for argv, code in cases:
            assert main(argv) == code, argv
            assert gc.collect() == 0, argv
    capsys.readouterr()


def test_internal_error_exits_3_under_optimisation(h1_file):
    # python -O strips asserts; the invariant checks must survive it
    script = (
        "import sys\n"
        "from hypershrink import orientation\n"
        "from hypershrink.cli import main\n"
        "orientation._repairs = lambda hypergraph, heads, need: (heads, (2,))\n"
        "sys.exit(main(['orient', sys.argv[1]]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, h1_file],
        capture_output=True,
        text=True,
        env=cli_env(),
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("internal error:")


# ---------------------------------------------------------------------------
# Fuzz: bytes and near-valid files through every reading command
# ---------------------------------------------------------------------------

FUZZ_COMMANDS = (
    ["validate"],
    ["check"],
    ["shrink"],
    ["orient"],
    ["check", "--oracle", "--limit", "8"],
)


def _as_json(hypergraph) -> str:
    n, edges = hypergraph
    return json.dumps({"n": n, "edges": edges})


def _as_text(hypergraph) -> str:
    n, edges = hypergraph
    return f"{n} {len(edges)}\n" + "".join(" ".join(map(str, e)) + "\n" for e in edges)


def _cut(text: str):
    """Every prefix of a file: truncated uploads and the like."""
    return st.integers(0, len(text)).map(lambda i: text[:i])


def _splice(data: bytes):
    """The file with one byte put in or overwritten anywhere: a byte of
    0x80 or above alone is not UTF-8."""
    return st.tuples(st.integers(0, len(data)), st.integers(0, 255), st.booleans()).map(
        lambda t: data[: t[0]] + bytes([t[1]]) + data[t[0] + t[2]:]
    )


def _simple_edges(edges):
    """Distinct edges of at least two distinct vertices each."""
    return list(dict.fromkeys(tuple(sorted(set(e))) for e in edges if len(set(e)) > 1))


# simple hypergraphs on a few vertices with about n - 1 hyperedges, some
# of them hypertrees
_simple = st.integers(2, 7).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.lists(st.integers(0, n - 1), min_size=2, max_size=3),
            min_size=n - 1,
            max_size=n,
        ).map(_simple_edges),
    )
)
_odd_ids = st.integers(-2, 9) | st.sampled_from([10**9, 2**64, -(2**64)])
_odd = st.tuples(_odd_ids, st.lists(st.lists(_odd_ids, max_size=4), max_size=8))
_json_values = st.recursive(
    st.none() | st.booleans() | _odd_ids | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "edges", "x"]), inner, max_size=3),
    max_leaves=10,
)
_simple_files = st.builds(
    lambda hypergraph, write: write(hypergraph), _simple, st.sampled_from((_as_json, _as_text))
)
_odd_files = st.one_of(
    _odd.map(_as_json),
    _odd.map(_as_text),
    st.fixed_dictionaries({"n": _json_values, "edges": _json_values}).map(json.dumps),
    _json_values.map(json.dumps),
)


def _damaged(clean: str):
    """An odd hypergraph file, raw bytes, or a prefix or a one-byte splice
    of ``clean`` or of an odd file."""
    either = st.one_of(st.just(clean), _odd_files)
    return st.one_of(
        _odd_files.map(str.encode),
        st.binary(min_size=1, max_size=48),
        either.flatmap(_cut).map(str.encode),
        either.map(str.encode).flatmap(_splice),
    )


# each example is a simple hypergraph file, which reaches the algorithms,
# and one damaged file
_fuzz_files = _simple_files.flatmap(
    lambda clean: st.tuples(st.just(clean.encode()), _damaged(clean))
)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


@settings(derandomize=True, max_examples=100, deadline=None)
@given(files=_fuzz_files)
def test_fuzzed_files_never_leak_an_internal_error(fuzz_path, files):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "MAX_VERTICES", 64)
        for data in files:
            fuzz_path.write_bytes(data)
            for command in FUZZ_COMMANDS:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(command + [str(fuzz_path)])
                assert code in (0, 1, 2), (command, data, err.getvalue())
                assert "Traceback" not in err.getvalue()


# SHA-256 of the stdout and of the stderr of `hypershrink shrink FILE
# [flags]`; they pin the JSON, the DOT overlay and the verification
# report byte for byte.  Random instances are random_hypertree(n, k, seed,
# p), hubs adversarial_star(m, k).  The random stdout digests were
# recorded after the floor orientation of a hypertree that is not
# hub-like began to start from the tight heads and the orientation seed
# to run first there, and two of them again after tight repairs began to
# search from both ends; every output passed verify_shrinking first.  The
# hub digests predate the orientation seed and stay, since a hub keeps
# the cold floor orientation and the scan, which spans there.
SHRINK_DIGESTS = {
    ("random", (500, 3, 1, 0.5), ()): (
        "78e37b96bafd14524df7f8767e833252a65f1083aca24570c678f09018f14ed7",
        "dc4549fcf632a88f6a89d3f83822756cb62c7ed75e7347d2111d1f33fe09e99b"),
    ("random", (500, 3, 2, 0.8), ()): (
        "46655bcd44041d67f0aad84ee0ae05d15dc82c30c2d7d0a54e26143e8c7bcc00",
        "dc4549fcf632a88f6a89d3f83822756cb62c7ed75e7347d2111d1f33fe09e99b"),
    ("random", (500, 5, 3, 0.5), ()): (
        "72f03c2f00a77462daabfe5d43893ebc1d19fe30fba3fe8575ddd3add846c8a5",
        "473157a4e93d03e3051303f4b5a0ee5b33084eaaabf500cd6a71d8124e7580df"),
    ("random", (500, 5, 4, 0.8), ()): (
        "4703dbbb7215a4947cafdc67f94143ec23711ca7bad755d7d8f40bf274063c1a",
        "473157a4e93d03e3051303f4b5a0ee5b33084eaaabf500cd6a71d8124e7580df"),
    ("hub", (1500, 3), ()): (
        "adb9e5cb3d02d00684186a87807e5dd5f1f46ca17d2d2b28274489eb08cbc1bf",
        "dc4549fcf632a88f6a89d3f83822756cb62c7ed75e7347d2111d1f33fe09e99b"),
    ("hub", (1500, 4), ()): (
        "65d4b8bfe9afb2171a5d74bf9aff165d052f5a0d9c43a632c25800e0122993c1",
        "473157a4e93d03e3051303f4b5a0ee5b33084eaaabf500cd6a71d8124e7580df"),
    ("random", (9, 3, 5, 0.8), ()): (
        "ebd98e2d7083d31eb8a0f1a09a3eb0a4406d67865081975c89210ffcf8531258",
        "dc4549fcf632a88f6a89d3f83822756cb62c7ed75e7347d2111d1f33fe09e99b"),
    ("random", (9, 3, 5, 0.8), ("--out", "dot")): (
        "4b64c54a1eb50fcd68728b1520f72ce24c7c33a5527175b37f70723497c2e23b",
        "dc4549fcf632a88f6a89d3f83822756cb62c7ed75e7347d2111d1f33fe09e99b"),
    ("random", (9, 3, 5, 0.8), ("--k", "4")): (
        "ebd98e2d7083d31eb8a0f1a09a3eb0a4406d67865081975c89210ffcf8531258",
        "dc4549fcf632a88f6a89d3f83822756cb62c7ed75e7347d2111d1f33fe09e99b"),
    # 1000 hyperedges of 5 members, headed by the plain greedy pass
    ("hub", (1000, 5), ()): (
        "fcc8fc9e53b2fa2fa552b30a984e7371ecffa5396f2a26f2d95ac48900d23521",
        "473157a4e93d03e3051303f4b5a0ee5b33084eaaabf500cd6a71d8124e7580df"),
}


def write_pinned_instance(tmp_path, family, params) -> str:
    """Write random_hypertree(*params) or adversarial_star(*params) as JSON."""
    if family == "random":
        hypergraph = random_hypertree(*params)[0]
    else:
        hypergraph = adversarial_star(*params)
    path = tmp_path / "h.json"
    path.write_text(hypergraph_to_json(hypergraph))
    return str(path)


@pytest.mark.parametrize("case", list(SHRINK_DIGESTS), ids=str)
def test_shrink_output_is_pinned(case, tmp_path, capsys):
    family, params, flags = case
    path = write_pinned_instance(tmp_path, family, params)
    assert main(["shrink", path, *flags]) == 0
    captured = capsys.readouterr()
    digests = tuple(
        hashlib.sha256(text.encode()).hexdigest() for text in (captured.out, captured.err)
    )
    assert digests == SHRINK_DIGESTS[case]


# SHA-256 of the stdout of `hypershrink orient FILE`, which prints every
# head the greedy pass and the repairs chose.  The hub's was recorded
# before the greedy pass headed pairs and triples inline; the random
# one after the floor orientation of a hypertree that is not hub-like
# began to start from the tight heads.
ORIENT_DIGESTS = {
    ("hub", (1500, 4)): "7147b2e21d895261b241ccdc5af461fc47c298934fe4264970a26fa130ec5f52",
    ("random", (500, 3, 1, 0.5)): "d1a139093fc716b72187166b6f78e5324b842d09623467d9f8843bd9397458ba",
    # the plain pass on 1000 hyperedges of 5 members, and the forced pass
    # of the tight heads on hyperedges of 4 and 5 members
    ("hub", (1000, 5)): "05c880052c0ac41f82d0c34f577045e63f8f3821fea5338a8b31984821b3b385",
    ("random", (500, 5, 4, 0.8)): "2e79acbd82050295c8c2ef4a1b6931eb8b274328700822a2b5e741afc55fc087",
}


@pytest.mark.parametrize("case", list(ORIENT_DIGESTS), ids=str)
def test_orient_output_is_pinned(case, tmp_path, capsys):
    assert main(["orient", write_pinned_instance(tmp_path, *case)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == ORIENT_DIGESTS[case]


def test_cli_start_loads_no_oracle_only_module():
    # fractions (with decimal and numbers) serves brute_force_shrink alone,
    # heapq the generators alone, and the package needs neither typing nor
    # csv, nor dataclasses with the inspect, ast and dis it loads; -S keeps
    # site, which may import typing itself, out of the child
    modules = ("{'fractions', 'decimal', 'heapq', 'typing', 'csv', 'dataclasses', 'inspect', "
               "'ast', 'dis'}")
    code = f"import sys, hypershrink.cli; print(sorted({modules} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], env=cli_env(), capture_output=True, text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_readme_library_example_runs_on_the_standard_library():
    # the python block under README's "## Library" runs as written; -I -S
    # keeps the environment and site-packages out of the child, so the
    # package directory goes on sys.path by hand
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert "shrink_hypertree(h)" in example and "assert " in example
    root = str(Path(hypershrink.__file__).resolve().parent.parent)
    code = f"import sys\nsys.path.insert(0, {root!r})\n{example}print('ok')\n"
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok\n"


def test_readme_command_line_examples_run_as_shown(tmp_path):
    # each line of README's command-line block runs in a -I -S child on
    # README's own example files, exits 0, and prints what README shows;
    # the block names every subcommand, and README stays within its budget
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    formats = readme.split("\n## File formats\n", 1)[1].split("\n## ", 1)[0]
    # the fenced blocks there: hypergraph JSON, hypergraph text, shrinking JSON
    (_, graph), (_, text), (_, shown) = re.findall(r"```(\w*)\n(.*?)```", formats, re.S)
    (tmp_path / "H.json").write_text(graph)
    (tmp_path / "f.json").write_text("[0, 0, 1, 0]\n")
    hypergraph = hypershrink.hypergraph_from_json(graph)
    assert hypershrink.hypergraph_from_text(text) == hypergraph
    block = readme.split("\n## Command line\n", 1)[1].split("```\n", 2)[1]
    root = str(Path(hypershrink.__file__).resolve().parent.parent)
    cli = (f"import sys\nsys.path.insert(0, {root!r})\nimport hypershrink.cli as c\n"
           "raise SystemExit(c.main(sys.argv[1:]))")

    def run(argv):
        return subprocess.run(
            [sys.executable, "-I", "-S", "-c", cli, *argv], cwd=tmp_path,
            capture_output=True, text=True, timeout=60,
        )

    commands = set()
    for line in block.splitlines():
        program, *argv = shlex.split(line, comments=True)
        assert program == "hypershrink"
        commands.add(argv[0])
        result = run(argv)
        assert result.returncode == 0, (line, result.stderr)
        if argv == ["shrink", "H.json"]:
            assert result.stdout == shown
        if argv[0] == "orient":
            oriented = json.loads(result.stdout)
            assert list(oriented) == ["n", "edges", "heads"]
            heads = oriented.pop("heads")
            assert oriented == json.loads(graph)
            assert all(h in e for h, e in zip(heads, hypergraph.edges, strict=True))
    subparsers = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert commands == set(subparsers.choices)
    # the unsorted-edge example: validate reports it, check refuses the file
    unsorted, line, prefix = re.search(
        r"on `(\{.*?\})` `validate` writes `(.*?)` and exits 1, and `check` exits 2 with that "
        r"line after `(.*?)`", " ".join(formats.split()),
    ).groups()
    (tmp_path / "U.json").write_text(unsorted)
    result = run(["validate", "U.json"])
    assert (result.returncode, result.stdout, result.stderr) == (1, "", line + "\n")
    result = run(["check", "U.json"])
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == prefix.replace("<file>", "U.json") + line + "\n"
    # a change that must grow README raises this bound and says why in CHANGES.md
    assert len(readme.splitlines()) <= 350


def test_shrink_and_check_load_no_oracle_or_dot_module(tmp_path):
    # the package resolves the oracle and DOT names on first use, so the
    # commands the benchmark times never load those modules, while a star
    # import still binds every public name
    path = tmp_path / "h.json"
    path.write_text(hypergraph_to_json(random_hypertree(12, 3, 1, 0.5)[0]))
    code = (
        "import contextlib, io, sys, hypershrink.cli as c\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    codes = [c.main(['shrink', {str(path)!r}]), c.main(['check', {str(path)!r}])]\n"
        "print(codes, sorted({'hypershrink.oracles', 'hypershrink.dot'} & set(sys.modules)))\n"
        "import hypershrink\n"
        "names = {}\n"
        "exec('from hypershrink import *', names)\n"
        "print(sorted(set(hypershrink.__all__) - set(names)), set(hypershrink.__all__) <= set(dir(hypershrink)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], env=cli_env(), capture_output=True, text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[0, 0] []\n[] True\n"


# Runs the CLI on each argument list of argv[1] (JSON) in one process and
# prints the package modules loaded after the import and after the commands
STAGE_CHILD = """\
import contextlib, io, json, sys
def loaded():
    return sorted(m for m in sys.modules if m.partition('.')[0] == 'hypershrink')
import hypershrink.cli as c
print(loaded())
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [c.main(argv) for argv in json.loads(sys.argv[1])]
print(codes, loaded())
"""


def test_cli_start_loads_the_recognition_stage_alone(tmp_path):
    # the CLI starts with the package, core and orientation; validate,
    # check and orient load nothing more, and each other command, in a
    # fresh process, loads on first use only what it runs: gen the
    # generators, check --oracle the oracles without the rainbow stage,
    # shrink rainbow and shrink, and bench all three
    path = str(tmp_path / "h.json")
    Path(path).write_text(hypergraph_to_json(random_hypertree(12, 3, 1, 0.5)[0]))
    start = ["hypershrink", "hypershrink.cli", "hypershrink.core", "hypershrink.orientation"]
    stage_two = ["hypershrink.rainbow", "hypershrink.shrink"]
    recognition = [["validate", path], ["check", path], ["orient", path]]
    gen = ["gen", "--n", "12", "--k", "3", "--seed", "1"]
    bench = ["bench", "--trials", "1", "--n", "12", "--k", "3", "--seed", "1"]
    for argvs, added in ((recognition, []), ([gen], ["hypershrink.gen"]),
                         ([["check", "--oracle", path]], ["hypershrink.oracles"]),
                         ([["shrink", path]], stage_two),
                         ([bench], ["hypershrink.gen"] + stage_two)):
        after = sorted(start + added)
        result = subprocess.run(
            [sys.executable, "-S", "-c", STAGE_CHILD, json.dumps(argvs)], env=cli_env(),
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == f"{start}\n{[0] * len(argvs)} {after}\n"
    # the package resolves the stage-two and generator names and submodules
    # on first access
    code = (
        "import sys, hypershrink\n"
        "print('hypershrink.gen' in sys.modules, hypershrink.rainbow.UnionFind.__name__, "
        "hypershrink.shrink_hypertree is hypershrink.shrink.shrink_hypertree, "
        "hypershrink.random_hypertree is hypershrink.gen.random_hypertree, "
        "hypershrink.SplitMix64 is hypershrink.gen.SplitMix64)\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], env=cli_env(), capture_output=True, text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False UnionFind True True True\n"


def test_shrink_and_bench_call_the_shrink_module_functions(h1_file, monkeypatch):
    # the commands look shrink_hypertree, verify_shrinking and
    # shrinking_to_json up on hypershrink.shrink at each call, where the
    # benchmark's span hooks replace them, so a stand-in there is called
    calls = collections.Counter()
    for name in ("shrink_hypertree", "verify_shrinking", "shrinking_to_json"):
        def counted(*args, _name=name, _fn=getattr(hypershrink.shrink, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(hypershrink.shrink, name, counted)
    assert main(["shrink", h1_file]) == 0
    assert calls == {"shrink_hypertree": 1, "verify_shrinking": 1, "shrinking_to_json": 1}
    calls.clear()
    assert main(["bench", "--trials", "2", "--n", "12", "--k", "3", "--seed", "1"]) == 0
    assert calls == {"shrink_hypertree": 2}


def test_fast_path_modules_import_no_oracle_or_dot_code():
    # the exhaustive oracles and the DOT writers depend on the fast path,
    # never the other way round, and no fast-path module imports what
    # enumerates subsets or choices, or what refuses their size
    package = Path(hypershrink.__file__).parent
    banned = {"combinations", "product", "fractions", "LimitExceededError"}
    for name in ("core", "gen", "orientation", "rainbow", "shrink"):
        for node in ast.walk(ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                source = (node.module or "").rsplit(".", 1)[-1]
                assert source not in {"oracles", "dot", "fractions"}, (name, node.module)
                imported = {alias.name for alias in node.names}
                assert not imported & ({"oracles", "dot"} | banned), (name, imported)
            elif isinstance(node, ast.Import):
                assert not {alias.name for alias in node.names} & banned, name
