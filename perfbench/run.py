"""Layered benchmark of the hypershrink CLI.

Usage, from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload shrink-random --seed 1 --seconds 30 --trace 0

One operation is one in-process call of ``hypershrink.cli.main`` with
``shrink FILE`` or ``check FILE`` on an instance file written during
set-up, with stdout and stderr caught in memory.  The loop is closed: one
caller, the next operation starts when the previous one returns, no
threads and no subprocesses while it runs.  Every output is checked by
``checker``, outside the timed call.

Workloads (instances come from ``hypershrink.gen`` and the seed):

- ``shrink-random``: random hypertrees, n=500, k in {3, 5}, p in {0.5, 0.8}.
  The typical instance; the rainbow augmentation loop is ~95% of the time.
- ``shrink-hub``: ``adversarial_star(m, k)``, m in [1000, 2000), k in {3, 4},
  natural labels.  Orientation dominates; the greedy rainbow seed already
  spans, so a rainbow-engine change should not move it.
- ``check-mixed``: ``check`` on n=500, p=0.5 hypertrees and certified
  non-hypertrees, half each.  Recognition through the clique expansion,
  and negatives run the exchange-graph search to exhaustion.

End-to-end metrics: ``latency_ms_p50`` and ``latency_ms_p90`` per operation
(at least MIN_OPS samples), ``throughput_vps`` (hypergraph vertices
completed per second of busy time), ``peak_rss_mb`` of this process and
``setup_s``, the median cost of ``import hypershrink.cli`` in SETUP_SAMPLES
fresh interpreters.  Times are CPU time scaled to a reference speed
(see ``spans.clock`` and ``spans.REFERENCE_KERNEL_S``); the unscaled CPU and
wall time per operation are printed too, but not gated.  ``failure_frac``
is printed and is ``failed / attempted`` of the result line.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` hooks the
package's public functions (see ``spans``) and reports per-layer self
times, work counts, scaling slopes and the tracing overhead.  The last
line of stdout is one JSON object; the lines before it are a labelled
summary, and the full report (and, traced, every span) is written under
``perfbench/out/``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import checker
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Metric name -> unit, as BENCHMARK.json declares them.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}

# The import costs about 0.05 s of CPU; on a shared machine single imports
# differ by 50%, so set-up takes the median of many.
SETUP_SAMPLES = 30
# A run makes at least MIN_OPS operations, so that ten samples lie beyond
# the 90th percentile.  They include the first min(MIN_OPS, pool size)
# instances of the pool whatever the speed, so the digest and the counts
# always cover the same instances.
MIN_OPS = 100
# A run stops taking new operations after this, so it exits well inside 180 s.
MAX_SECONDS = 120
# Every OVERHEAD_EVERY-th traced operation is paired with an untraced one.
OVERHEAD_EVERY = 4
RAINBOW_LADDER = (250, 500, 1000, 2000)  # random_hypertree(n, 5, seed, 0.8)
ORIENT_LADDER = (500, 1000, 2000)  # adversarial_star(m, 3)

# per-layer timing metric -> the span layers it sums, all as self time
LAYER_TIMINGS = {
    "cli.self_ms": ("cli",),
    "core.parse_ms": ("core.parse",),
    "core.validate_ms": ("core.validate",),
    "shrink.self_ms": ("shrink",),
    "shrink.verify_ms": ("shrink.verify",),
    "shrink.serialise_ms": ("shrink.serialise",),
    "orientation.orient_ms": ("orientation.orient",),
    "rainbow.expand_ms": ("rainbow.expand",),
    "rainbow.forest_ms": ("rainbow.forest",),
    "rainbow.tree_ms": ("rainbow.tree",),
    "recognition.self_ms": ("recognition",),
}
LAYER_SHARES = {
    "orientation.share": ("orientation.orient",),
    "rainbow.share": ("rainbow.expand", "rainbow.tree", "rainbow.forest"),
}


def load_package():
    """Import hypershrink from this checkout's ``src`` and nowhere else."""
    if not (SRC / "hypershrink" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hypershrink.cli
    import hypershrink.gen

    if SRC not in Path(hypershrink.__file__).resolve().parents:
        raise SystemExit(f"error: imported hypershrink from {hypershrink.__file__}, not {SRC}")
    return hypershrink.cli, hypershrink.gen


# A fresh interpreter times ``import hypershrink.cli``, then runs the
# reference kernel three times and prints the import's CPU seconds and the
# kernel's fastest run.  The kernel runs on the same core as the import, so
# it tracks that core's speed.  The interpreter's own start is left out: no
# change to the package moves it, and it doubled the spread of set-up times.
SETUP_CHILD = "\n".join([
    "import sys, time",
    "start = time.process_time()",
    "import hypershrink.cli",
    "seconds = time.process_time() - start",
    f"sys.path.insert(0, {str(HERE)!r})",
    "from spans import kernel_seconds",
    "print(seconds, min(kernel_seconds() for _ in range(3)))",
])


def measure_setup(samples: int) -> list:
    """Scaled CPU seconds (user + system) of ``import hypershrink.cli`` in
    fresh interpreters, one per sample: the import's CPU time times
    REFERENCE_KERNEL_S over the kernel's fastest run next to it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", SETUP_CHILD]
    times = []
    for i in range(samples + 1):
        child = subprocess.run(argv, cwd=ROOT, env=env, check=True, capture_output=True,
                               text=True)
        seconds, kernel = map(float, child.stdout.split())
        if i:  # the first start warms the file cache and is not counted
            times.append(seconds * spans.REFERENCE_KERNEL_S / kernel)
    return times


def write_instance(directory: Path, name, instance) -> str:
    path = directory / f"{name}.json"
    path.write_text(json.dumps({"n": instance.n, "edges": [list(e) for e in instance.edges]}))
    return str(path)


def call(cli, argv):
    """One operation: (CPU seconds, wall seconds, exit code, stdout, error
    text or None)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        wall = time.perf_counter()
        start = spans.clock()
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # counted as a failure, never fatal
            error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        seconds = spans.clock() - start
        wall = time.perf_counter() - wall
    return seconds, wall, code, out.getvalue(), error


def judge(instance, code, stdout, error):
    """Why the operation failed, or None when its output is right."""
    if error is not None:
        return error
    if code != instance.expected_exit:
        return f"exit code {code}, expected {instance.expected_exit}"
    if instance.expected_stdout is not None:
        if stdout != instance.expected_stdout:
            return f"answered {stdout.strip()!r}, expected {instance.expected_stdout.strip()!r}"
        return None
    return checker.check_shrink(instance.n, instance.edges, stdout)


class Runner:
    """Runs operations, checks each one and keeps the record of the run."""

    def __init__(self, cli, pool, paths):
        self.cli = cli
        self.pool = pool
        self.paths = paths
        self.ops = []  # {"instance", "seconds", "wall", "kernel", "traced", "op", "failed"}
        self.failures = []
        self.first_stdout = {}
        self.pairs = []  # (traced seconds, untraced seconds) on one instance

    def run_op(self, index, tracer=None):
        instance = self.pool[index]
        argv = [instance.command, self.paths[index]]
        op = len(self.ops)
        kernel = spans.kernel_seconds()
        if tracer is None:
            seconds, wall, code, stdout, error = call(self.cli, argv)
        else:
            tracer.op = op
            with tracer:
                seconds, wall, code, stdout, error = call(self.cli, argv)
        reason = judge(instance, code, stdout, error)
        if reason is None and index in self.first_stdout and stdout != self.first_stdout[index]:
            reason = "stdout differs from an earlier run of the same instance"
        self.first_stdout.setdefault(index, stdout)
        if reason is not None:
            self.failures.append({"op": op, "instance": instance.label, "reason": reason})
        self.ops.append({"instance": index, "seconds": seconds, "wall": wall, "kernel": kernel,
                         "traced": tracer is not None, "op": op, "failed": reason is not None})
        return seconds

    def scales(self) -> list:
        """Per operation, REFERENCE_KERNEL_S over the kernel time just
        before it."""
        return [spans.REFERENCE_KERNEL_S / op["kernel"] for op in self.ops]

    def digest(self, covered) -> str:
        """SHA-256 of the stdout of the first ``covered`` pool instances,
        in operation order; every other run of an instance must match."""
        digest = hashlib.sha256()
        for index in range(covered):
            digest.update(self.first_stdout[index].encode())
        return digest.hexdigest()

    def loop(self, seconds, min_ops, tracer=None):
        """Closed loop over the pool for ``seconds``, and at least ``min_ops``."""
        start = time.perf_counter()
        i = 0
        while True:
            elapsed = time.perf_counter() - start
            if (i >= min_ops and elapsed >= seconds) or elapsed >= MAX_SECONDS:
                return
            index = i % len(self.pool)
            if tracer is not None and i % OVERHEAD_EVERY == 0:
                # pair with an untraced run, alternating which goes first
                if i // OVERHEAD_EVERY % 2:
                    traced = self.run_op(index, tracer)
                    untraced = self.run_op(index)
                else:
                    untraced = self.run_op(index)
                    traced = self.run_op(index, tracer)
                self.pairs.append((traced, untraced))
            else:
                self.run_op(index, tracer)
            i += 1


def quantile(values, q: float) -> float:
    """The q-quantile by linear interpolation between order statistics."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def end_to_end(runner, setup_s) -> dict:
    times = [op["seconds"] * scale for op, scale in zip(runner.ops, runner.scales())]
    done = sum(runner.pool[op["instance"]].n for op in runner.ops if not op["failed"])
    return {
        "latency_ms_p50": statistics.median(times) * 1e3,
        "latency_ms_p90": quantile(times, 0.9) * 1e3,
        "throughput_vps": done / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def slope(points):
    """Least-squares slope of log(y) on log(x), or None with under 2 points."""
    points = [(math.log(x), math.log(y)) for x, y in points if y > 0]
    if len(points) < 2:
        return None
    mx = statistics.fmean(x for x, _ in points)
    my = statistics.fmean(y for _, y in points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    return sum((x - mx) * (y - my) for x, y in points) / sxx


def ladder(cli, gen, directory, seed, report):
    """Scaling slopes of the forest and orientation layers, one traced
    shrink per size."""
    results = {}
    cases = (
        ("rainbow.forest_exp", "rainbow.forest",
         [(n, gen.random_hypertree(n, 5, seed * 7919 + n, 0.8)[0]) for n in RAINBOW_LADDER]),
        ("orientation.orient_exp", "orientation.orient",
         [(m, gen.adversarial_star(m, 3)) for m in ORIENT_LADDER]),
    )
    for name, layer, instances in cases:
        points = []
        for size, hypergraph in instances:
            instance = workloads.Instance("shrink", f"ladder-{size}", hypergraph.n, hypergraph.edges, 0)
            path = write_instance(directory, f"ladder-{name}-{size}", instance)
            tracer = spans.Tracer()
            tracer.op = 0
            with tracer:
                _, _, code, stdout, error = call(cli, ["shrink", path])
            reason = judge(instance, code, stdout, error)
            report["ladder_ops"] += 1
            if reason is not None:
                report["ladder_failures"].append({"instance": instance.label, "reason": reason})
            layer_seconds = spans.per_op_layers(tracer.spans)[0].get(layer, 0.0)
            points.append((size, layer_seconds))
            report["ladder"].setdefault(name, []).append([size, layer_seconds * 1e3])
        results[name] = slope(points)
    return results


def per_layer(runner, tracer, ladder_slopes, overhead, gen_scale, covered) -> tuple:
    """(metrics, not observed layers) of a traced run."""
    layers = spans.per_op_layers(tracer.spans)
    scales = runner.scales()
    traced = [op["op"] for op in runner.ops if op["traced"]]
    # counts come from the first traced operation on each of the first
    # ``covered`` instances, so they repeat exactly
    first = {}
    for op in reversed(traced):
        if runner.ops[op]["instance"] < covered:
            first[runner.ops[op]["instance"]] = op
    metrics = {}
    for name, parts in LAYER_TIMINGS.items():
        metrics[name] = statistics.median(
            sum(layers[op][p] for p in parts) * scales[op] for op in traced) * 1e3
    for name, parts in LAYER_SHARES.items():
        metrics[name] = statistics.median(
            sum(layers[op][p] for p in parts) / layers[op]["op"] for op in traced)
    orient = [runner.pool[index].orientation_counts()
              if layers[op]["orientation.orient"] > 0 else (0, 0) for index, op in first.items()]
    metrics["orientation.copies"] = statistics.median(c for c, _ in orient)
    metrics["orientation.arcs"] = statistics.median(a for _, a in orient)
    metrics["rainbow.expand_edges"] = statistics.median(
        tracer.counters[(op, "rainbow.expand_edges")] for op in first.values())
    metrics["gen.instance_ms"] = statistics.median(
        inst.gen_seconds for inst in runner.pool) * gen_scale * 1e3
    for name, value in ladder_slopes.items():
        metrics[name] = 0.0 if value is None else value
    metrics["trace.overhead_frac"] = overhead

    observed = {s.name for s in tracer.spans}
    not_observed = [layer for layer in spans.LAYERS if layer not in observed]
    not_observed += [name for name, value in ladder_slopes.items() if value is None]
    return metrics, not_observed


def trace_overhead(runner) -> float:
    """Traced over untraced median latency, minus 1, on the paired operations."""
    if not runner.pairs:
        return 0.0
    traced, untraced = zip(*runner.pairs)
    return statistics.median(traced) / statistics.median(untraced) - 1


def run(workload, seed, seconds, trace, quick=False, cli=None):
    """Set up, measure and check one run; returns the report dict."""
    real_cli, gen = load_package()
    cli = cli or real_cli
    OUT.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix="instances-", dir=OUT))
    try:
        setup_times = measure_setup(1 if quick else SETUP_SAMPLES)
        gen_scale = spans.REFERENCE_KERNEL_S / statistics.median(
            spans.kernel_seconds() for _ in range(5))
        pool = workloads.build_pool(gen, workload, seed, 1 if quick else None)
        min_ops = 1 if quick else MIN_OPS
        covered = min(min_ops, len(pool))
        paths = [write_instance(directory, i, inst) for i, inst in enumerate(pool)]
        runner = Runner(cli, pool, paths)

        # warm-up: one untimed, unrecorded operation
        call(cli, [pool[0].command, paths[0]])

        report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                  "quick": quick, "nproc": os.cpu_count(), "python": sys.version.split()[0],
                  "pool": len(pool), "ladder": {}, "ladder_ops": 0, "ladder_failures": []}
        tracer = spans.Tracer() if trace else None
        runner.loop(0 if quick else seconds, min_ops, tracer)
        if trace:
            if quick:
                slopes = {"rainbow.forest_exp": None, "orientation.orient_exp": None}
            else:
                slopes = ladder(cli, gen, directory, seed, report)
            metrics, not_observed = per_layer(runner, tracer, slopes, trace_overhead(runner),
                                              gen_scale, covered)
            report["not_observed"] = not_observed
            write_spans(tracer, workload, seed)
        else:
            metrics = end_to_end(runner, statistics.median(setup_times))
            report["setup_scaled_s"] = setup_times

        first = pool[:covered]
        report["input_counts"] = {"n": statistics.median(inst.n for inst in first),
                                  "m": statistics.median(len(inst.edges) for inst in first)}
        failures = runner.failures + report["ladder_failures"]
        attempted = len(runner.ops) + report["ladder_ops"]
        report.update({
            "attempted": attempted,
            "failed": len(failures),
            "failure_frac": len(failures) / attempted,
            "failures": failures[:20],
            "samples": len(runner.ops),
            # per operation: instance, CPU ms, wall ms, kernel ms, traced
            "op_ms": [[op["instance"], round(op["seconds"] * 1e3, 3), round(op["wall"] * 1e3, 3),
                       round(op["kernel"] * 1e3, 3), op["traced"]] for op in runner.ops],
            "cpu_ms_p50": statistics.median(op["seconds"] for op in runner.ops) * 1e3,
            "wall_ms_p50": statistics.median(op["wall"] for op in runner.ops) * 1e3,
            "digest_sha256": runner.digest(covered),
            "digest_ops": covered,
            "metrics": metrics,
            "kinds": {name: kind_of(name) for name in metrics},
        })
        return report
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def write_spans(tracer, workload, seed):
    origin = tracer.spans[0].start if tracer.spans else 0.0
    with open(OUT / f"spans-{workload}-seed{seed}.jsonl", "w", encoding="utf-8") as handle:
        for s in tracer.spans:
            handle.write(json.dumps({"op": s.op, "id": s.sid, "parent": s.parent, "name": s.name,
                                     "start": s.start - origin, "end": s.end - origin}) + "\n")


def kind_of(name: str) -> str:
    """"count" for deterministic counts, which must repeat exactly between
    runs; "memory" for sizes in MB; "timing" for times and their ratios."""
    unit = UNITS[name]
    if unit == "count":
        return "count"
    return "memory" if unit == "MB" else "timing"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one operation, one set-up sample and no ladder (self-tests)")
    args = parser.parse_args(argv)

    report = run(args.workload, args.seed, args.seconds, args.trace, args.quick)
    with open(OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)

    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
          f"nproc {report['nproc']}  python {report['python']}")
    print(f"samples {report['samples']} operations over a pool of {report['pool']}  "
          f"failed {report['failed']}/{report['attempted']}  "
          f"failure_frac {report['failure_frac']:.4f}")
    print(f"unscaled time per operation (not gated): CPU p50 {report['cpu_ms_p50']:.3f} ms, "
          f"wall p50 {report['wall_ms_p50']:.3f} ms")
    print(f"digest_sha256 {report['digest_sha256']} (stdout of the first "
          f"{report['digest_ops']} instances)")
    counts = report["input_counts"]
    print(f"  {'input.n':24} {counts['n']:14} {'count':6} count\n"
          f"  {'input.m':24} {counts['m']:14} {'count':6} count")
    for name, value in report["metrics"].items():
        print(f"  {name:24} {value:14.6f} {UNITS[name]:6} {report['kinds'][name]}")
    if report.get("not_observed"):
        print("not observed: " + ", ".join(report["not_observed"]))
    for failure in report["failures"]:
        print(f"FAILED op {failure.get('op', '-')} {failure['instance']}: {failure['reason']}")
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in report["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
