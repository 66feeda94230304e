"""Benchmark of the lmtkauffman command line, one workload per process.

    python3 bench/run.py --workload verify-random --seed 1 --seconds 40 --trace 0

runs one workload in this process, through ``lmtkauffman.cli.main`` from
``src/`` of the checkout this file sits in, and prints as its last line
one JSON object: ``correct``, ``attempted`` and ``failed`` CLI
invocations, and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones (``wall_ref``, ``peak_rss_mib``, ``setup_s``); with
``--trace 1`` the per-layer ones of ``tracing.PER_LAYER``, measured with
the package's public functions wrapped, and a trace file is written to
``.bench_out/``.  Without ``--workload`` every workload runs, each in its
own child process, and a table of their metrics is printed.

A pass runs the workload's command lines once, with output captured in
memory; passes repeat while another fits in ``--seconds`` (at least three
run).  Each command line is timed on its own, and after each pass a fixed
reference loop is timed.  ``wall_ref`` sums, over the command lines, the
median of each one's time divided by the reference loop's time in the same
pass: the host's neighbours slow every process for minutes at a time, which
moves a median pass by half, while the ratio moves far less.  ``setup_s``
is the median of set-ups spread evenly over the run.
Outputs are checked after each pass, outside the timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 24
MIN_PASSES = 3

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import PACKAGE, PER_LAYER, Tracer, install  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def import_package():
    """A fresh import of the package and its CLI module from src/."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    cli = importlib.import_module(PACKAGE + ".cli")
    if Path(pkg.__file__).resolve().parent != SRC / PACKAGE:
        raise ImportError(f"{PACKAGE} imported from {pkg.__file__}, not from {SRC}")
    return pkg, cli


class _Crossing:
    """A stand-in for a diagram crossing, for the reference loop."""

    def __init__(self, i: int):
        self.i = i
        self.edges = (i, i + 1, i + 2, i + 3)
        self.tag = "r" if i % 2 else "l"

    def sign(self, mask: int) -> int:
        return 1 if (self.tag == "r") ^ bool(mask >> (self.i % 9) & 1) else -1


def reference_loop() -> int:
    """Fixed pure-Python work of 20-40 ms, timed once after every pass.

    It does what the package does most, in proportions that tracked the
    host's slow spells best in a recording: hashing and sorting tuples and
    frozensets, building small objects, and method calls in a loop over
    orientation masks.
    """
    total = 0
    for _ in range(4):
        table: dict = {}
        for i in range(2000):
            table[frozenset((i % 97, i % 89, i // 7))] = (i, i * 7 % 13, -i)
        total += len(sorted(table.values(), key=lambda v: (v[1], -v[0])))
    for _ in range(40):
        crossings = [_Crossing(i) for i in range(80)]
        by_edges = {c.edges: c for c in crossings}
        for mask in range(24):
            total += sum(c.sign(mask) for c in crossings)
        total += len(sorted(by_edges, key=lambda e: (e[1] % 7, e[0])))
    return total


def run_cli(cli, argv: list[str], sink: io.StringIO) -> int:
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    workload = WORKLOADS[name]
    workdir = OUT / f"{name}-{seed}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    setups: list[float] = []

    def set_up():
        """A fresh import of the package plus building the inputs, timed."""
        gc.collect()
        t0 = time.perf_counter()
        pkg, cli = import_package()
        workload.build(pkg, seed, workdir)
        setups.append(time.perf_counter() - t0)
        return pkg, cli

    try:
        # The passes use the modules of this first set-up; the later ones
        # import fresh copies that only their own timing uses.
        pkg, cli = set_up()
        tracer = Tracer()
        if traced:
            install(tracer)
            tracer.span_depth = 3
        op_times: list[list[float]] = [[] for _ in workload.argvs]
        reference_times: list[float] = []
        pass_times: list[float] = []
        layers: list[dict] = []
        problems: list[str] = []
        attempted = failed = 0
        started = time.perf_counter()
        # Stop before a pass of median length would run past the deadline.
        while len(pass_times) < MIN_PASSES or (
            time.perf_counter() - started + statistics.median(pass_times) <= seconds
        ):
            sinks = [io.StringIO() for _ in workload.argvs]
            if traced:
                for sink in sinks:
                    sink.write = tracer.wrap("cli.write", sink.write)

            def one_pass():
                codes = []
                for argv, sink, times in zip(workload.argvs, sinks, op_times):
                    t0 = time.perf_counter()
                    codes.append(run_cli(cli, argv, sink))
                    times.append(time.perf_counter() - t0)
                return codes

            if traced:
                one_pass = tracer.wrap("cli.pass", one_pass)
            gc.collect()
            tracer.reset()
            codes = one_pass()
            pass_times.append(sum(times[-1] for times in op_times))
            t0 = time.perf_counter()
            reference_loop()
            reference_times.append(time.perf_counter() - t0)

            attempted += len(codes)
            failed += sum(code != 0 for code in codes)
            outputs = [sink.getvalue() for sink in sinks]
            if traced:
                tracer.count("cli.output_bytes", sum(len(t.encode()) for t in outputs))
                layers.append(tracer.layer_metrics())
                tracer.span_depth = 0
            if all(code == 0 for code in codes):
                problems += workload.check_pass(outputs)
            # Set-ups are spread evenly over the run, so that their median
            # spans the same stretch of time as the passes.
            elapsed = time.perf_counter() - started
            while len(setups) < 1 + SETUP_REPS * min(1.0, elapsed / seconds):
                set_up()
        while len(setups) < 1 + SETUP_REPS:
            set_up()
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        def cli_run(argv):
            sink = io.StringIO()
            if run_cli(cli, argv, sink) != 0:
                raise RuntimeError(f"lmtkauffman {' '.join(argv)} failed")
            return sink.getvalue()

        problems += workload.check_final(pkg, cli_run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Each command line's median time in units of the reference loop's
    # time in the same pass, summed over the pass.
    wall_ref = sum(
        statistics.median(t / r for t, r in zip(times, reference_times))
        for times in op_times
    )
    if traced:
        metrics = {}
        for metric, (unit, _) in PER_LAYER.items():
            values = [layer[metric] for layer in layers]
            if unit == "s":
                metrics[metric] = {"value": statistics.median(values), "unit": unit}
            else:
                if len(set(values)) != 1:
                    problems.append(f"{metric} differs between traced passes: {values}")
                metrics[metric] = {"value": values[0], "unit": unit}
        trace_file = OUT / f"trace-{name}-seed{seed}.json"
        trace_file.write_text(json.dumps({
            "workload": name,
            "seed": seed,
            "traced_pass_s": pass_times,
            "per_layer": {k: v["value"] for k, v in metrics.items()},
            "spans_of_first_pass": [
                {"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in tracer.spans
            ],
        }, indent=1))
    else:
        metrics = {
            "wall_ref": {"value": wall_ref, "unit": "ref"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    for problem in problems[:20]:
        print(f"# check failed: {problem}")
    print(
        f"# {name} seed={seed} traced={int(traced)} passes={len(pass_times)} "
        f"median_pass_s={statistics.median(pass_times):.4f} "
        f"reference_s={statistics.median(reference_times):.4f} wall_ref={wall_ref:.3f} "
        f"setups={len(setups)} setup_s={statistics.median(setups):.4f} "
        f"peak_rss_mib={peak_rss_mib:.1f}"
    )
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Every workload in its own child process; prints a metric table."""
    status = 0
    for name in WORKLOADS:
        argv = [
            sys.executable, __file__, "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(traced)),
        ]
        proc = subprocess.run(argv, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        print(
            f"{name}: correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']}"
        )
        for line in lines[:-1]:
            print(f"  {line}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:34s} {m['value']:>14.6g} {m['unit']}")
        if not result["correct"] or result["failed"]:
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no package source at {SRC / PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
