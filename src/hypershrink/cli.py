"""Command line front end.

Exit codes form a stable contract for scripting: 0 means success or a
positive answer, 1 means a domain-negative answer (invalid hypergraph
reported by ``validate``, not a hypertree, infeasible demands), 2 means
a usage or I/O problem (unreadable file, malformed input, bad flags,
refused oracle sizes), 3 means an internal error: a broken invariant of
the implementation, reported as ``internal error:`` on stderr, or any
other exception left unhandled, a plain ``ValueError`` included,
reported as ``internal error: <ExceptionType>: <message>``.  Flags are
checked before the computation starts, so bad input never reaches the
package as a ``ValueError``.  Every command is a deterministic function
of its arguments; structured results go to stdout, diagnostics to
stderr.

:func:`main` pauses Python's cyclic garbage collector while the command
runs and gives the caller back its own setting on every way out, so an
in-process caller that had it off keeps it off.  The pause is safe
because the pipeline makes no reference cycles (a test pins this for
every subcommand): a pass over its per-edge containers finds nothing.

The recognition stage (``core``, ``orientation``) is imported with this
module.  ``shrink`` and ``bench`` import ``hypershrink.shrink``, and with
it ``hypershrink.rainbow``, when they run, and ``gen`` and ``bench``
import the generators in ``hypershrink.gen``; each reads its functions
off that module at each call.  So ``check``, ``orient``, ``validate``
and ``gen`` never load the rainbow stage, and ``check``, ``orient``,
``validate`` and ``shrink`` never load the generators.
"""

import argparse
import functools
import gc
import json
import sys
from operator import sub

from .core import (
    FormatError,
    Hypergraph,
    InternalError,
    LimitExceededError,
    _check_vertex_count,
    _degree_guarantee,
    _read_k,
    demands_from_json,
    hypergraph_from_json,
    hypergraph_from_text,
    hypergraph_to_json,
    validate,
)
from .orientation import (
    is_hypertree,
    orient_floor,
    orient_with_demands,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read().removeprefix("\ufeff")  # a byte-order mark is not content
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"cannot read {path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from exc


def _load_hypergraph(path: str) -> Hypergraph:
    """Parse a hypergraph file, sniffing JSON versus the text format."""
    text = _read_file(path)
    if text.lstrip().startswith("{"):
        return hypergraph_from_json(text)
    return hypergraph_from_text(text)


def _load_valid_hypergraph(path: str) -> Hypergraph:
    """Like :func:`_load_hypergraph` but refuse non-simple hypergraphs.

    Commands other than ``validate`` treat an invalid hypergraph as a
    usage error: exit code 1 stays reserved for genuine negative answers
    about well-formed inputs.
    """
    hypergraph = _load_hypergraph(path)
    report = validate(hypergraph)
    if not report.ok:
        raise FormatError(f"invalid hypergraph in {path}: {report}")
    return hypergraph


def _check_k(hypergraph: Hypergraph, k) -> None:
    """Refuse a ``--k`` below 1 or below the rank as bad input, by the
    package's one reader of k, which builds no per-vertex list."""
    try:
        _read_k(hypergraph, k, hypergraph.rank())
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def _check_generator_args(args) -> None:
    """Refuse ``--n``, ``--k`` or ``--p`` outside the generator's range
    as bad input, an ``--n`` above the parsers' vertex limit first,
    before anything of size n is drawn."""
    from .gen import _check_hypertree_args

    _check_vertex_count(max(args.n, 0))  # a negative n has too few vertices
    try:
        _check_hypertree_args(args.n, args.k, args.p)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def _directed_to_json(directed) -> str:
    return json.dumps(
        {
            "n": directed.base.n,
            "edges": directed.base.edges,
            "heads": directed.heads,
        }
    )


def _cmd_validate(args) -> int:
    hypergraph = _load_hypergraph(args.file)
    report = validate(hypergraph)
    if report.ok:
        print(f"valid: {hypergraph.n} vertices, {hypergraph.num_edges} hyperedges")
        return EXIT_OK
    for violation in report:
        print(violation, file=sys.stderr)
    return EXIT_NEGATIVE


def _cmd_check(args) -> int:
    hypergraph = _load_valid_hypergraph(args.file)
    if not args.oracle:
        if is_hypertree(hypergraph):
            print("hypertree")
            return EXIT_OK
        print("not a hypertree")
        return EXIT_NEGATIVE
    from .oracles import is_hypertree_bruteforce  # off the fast path: loaded on use

    result = is_hypertree_bruteforce(hypergraph, limit=args.limit)
    if result:
        print("hypertree")
        return EXIT_OK
    if result.bad_edge_count:
        n, m = hypergraph.n, hypergraph.num_edges
        count = f"{m} hyperedges, expected {n - 1}" if n else "a hypertree has at least one vertex"
        print(f"not a hypertree: {count}")
    else:
        witness = result.violating_subset
        inside = sum(
            1 for e in hypergraph.edges if set(e) <= set(witness)
        )
        print(
            f"not a hypertree: witness X={list(witness)} "
            f"contains {inside} hyperedges > |X|-1 = {len(witness) - 1}"
        )
    return EXIT_NEGATIVE


def _cmd_shrink(args) -> int:
    from .shrink import NotAHypertreeError, shrink_hypertree, shrinking_to_json, verify_shrinking

    hypergraph = _load_valid_hypergraph(args.file)
    _check_k(hypergraph, args.k)
    try:
        shrinking = shrink_hypertree(hypergraph, args.k)
    except NotAHypertreeError as exc:
        print(f"not a hypertree ({exc.reason}): {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    report = verify_shrinking(hypergraph, shrinking, args.k)
    if args.out == "dot":
        from .dot import shrinking_to_dot  # off the fast path: loaded on use

        print(shrinking_to_dot(hypergraph, shrinking))
    else:
        print(shrinking_to_json(hypergraph, shrinking, args.k))
    print(report, file=sys.stderr)
    return EXIT_OK if report.all_passed else EXIT_NEGATIVE


def _cmd_orient(args) -> int:
    hypergraph = _load_valid_hypergraph(args.file)
    _check_k(hypergraph, args.k)
    if args.demands is None:
        directed = orient_floor(hypergraph, args.k)
        print(_directed_to_json(directed))
        return EXIT_OK
    demands = demands_from_json(_read_file(args.demands), hypergraph.n)
    result = orient_with_demands(hypergraph, demands)
    if result.is_oriented:
        print(_directed_to_json(result.oriented))
        return EXIT_OK
    demand, met = result._certificate
    print(json.dumps({"violator": list(result.violator), "f(F)": demand, "e*(F)": met}))
    return EXIT_NEGATIVE


def _cmd_gen(args) -> int:
    from .gen import random_hypertree

    _check_generator_args(args)
    hypergraph, witness = random_hypertree(args.n, args.k, args.seed, args.p)
    if args.witness is not None:  # before stdout, so a failed write prints nothing
        try:
            with open(args.witness, "w", encoding="utf-8") as handle:
                handle.write(json.dumps({"pairs": [list(p) for p in witness]}))
                handle.write("\n")
        except OSError as exc:
            raise FormatError(f"cannot write {args.witness}: {exc}") from exc
    print(hypergraph_to_json(hypergraph))
    return EXIT_OK


def _cmd_bench(args) -> int:
    """Shrink one generated hypertree per trial and report degree stats.

    Columns: ``min_scaled_ratio`` is min_v d_T(v)*k/d_H(v) with k the
    pipeline's rank, ``min_slack`` is min_v d_T(v) - max(1, d_H(v) // k)
    (non-negative when the guarantee holds), ``min_degree_ratio`` is
    min_v d_T(v)/d_H(v).
    """
    from .gen import random_hypertree
    from .shrink import shrink_hypertree

    if args.trials < 1:
        raise FormatError("need at least one trial")
    _check_generator_args(args)
    print("trial,seed,n,rank,min_scaled_ratio,min_slack,min_degree_ratio")
    for trial in range(args.trials):
        seed = args.seed + trial
        hypergraph, _ = random_hypertree(args.n, args.k, seed, args.p)
        shrinking = shrink_hypertree(hypergraph)
        k, bound = _degree_guarantee(hypergraph)
        hyper = hypergraph.degrees()
        tree = shrinking.tree_degrees(hypergraph.n)
        scaled = min(t * k / d for t, d in zip(tree, hyper))
        slack = min(map(sub, tree, bound))
        ratio = min(t / d for t, d in zip(tree, hyper))
        row = (trial, seed, args.n, k, "%.6f" % scaled, slack, "%.6f" % ratio)
        print(",".join(map(str, row)))
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypershrink",
        description="Shrink hypertrees to spanning trees with per-vertex "
        "degree guarantees; validate, recognize, orient and generate "
        "hypergraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a hypergraph file for loops, "
                       "duplicates and out-of-range vertices")
    p.add_argument("file", help="hypergraph file (JSON or text format)")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("check", help="decide whether the input is a hypertree")
    p.add_argument("file")
    p.add_argument("--oracle", action="store_true",
                   help="use the exhaustive subset check and print a witness "
                   "on failure (small n only)")
    p.add_argument("--limit", type=int, default=20,
                   help="largest n the oracle accepts (default 20)")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("shrink", help="shrink a hypertree to a spanning tree "
                       "and verify the degree bounds")
    p.add_argument("file")
    p.add_argument("--k", type=int, default=None,
                   help="rank bound for the degree guarantee "
                   "(default: the hypergraph's rank)")
    p.add_argument("--out", choices=("json", "dot"), default="json",
                   help="output format (default json)")
    p.set_defaults(func=_cmd_shrink)

    p = sub.add_parser("orient", help="orient hyperedges to meet per-vertex "
                       "indegree demands")
    p.add_argument("file")
    p.add_argument("--demands", default=None,
                   help="JSON file with one integer demand per vertex; "
                   "default: floor(degree/k) demands")
    p.add_argument("--k", type=int, default=None,
                   help="rank bound for the default demands "
                   "(default: the hypergraph's rank)")
    p.set_defaults(func=_cmd_orient)

    p = sub.add_parser("gen", help="generate a random hypertree")
    p.add_argument("--n", type=int, required=True, help="number of vertices")
    p.add_argument("--k", type=int, required=True, help="rank bound")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--p", type=float, default=0.5,
                   help="per-edge expansion probability (default 0.5)")
    p.add_argument("--witness", default=None,
                   help="also write the witness tree pairs to this file")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="generate, shrink and report degree "
                       "statistics as CSV")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--p", type=float, default=0.5)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code (see the module
    docstring).  The argument parser is built on the first call and
    reused by every later call in the same process.  The cyclic garbage
    collector is paused while the command runs; on every way out, a
    ``SystemExit`` from the parser included, it is switched back on if
    it was on at entry."""
    collecting = gc.isenabled()
    gc.disable()  # the per-edge containers trigger passes that find no cycle
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LimitExceededError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
