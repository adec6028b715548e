"""One benchmark run, inside a fresh interpreter started by run.py.

Calls ``chernscope.cli.main`` in-process in a closed loop (one client; the
next call starts when the previous one returns), checks every output and
prints one JSON object on its last stdout line.

Untraced (``--trace 0``): calls follow the workload's seeded input stream
until ``--seconds`` have passed; only ``cli.main`` is timed.  The first
input is then run once more and its output bytes must repeat exactly.

Traced (``--trace 1``): one pass is the first ``pass_size`` inputs (of
``pass_inputs`` where the workload has them, else of ``inputs``).  Passes
alternate traced and untraced, at least two of each, until ``--seconds``
have passed.  Every pass repeats the same inputs, so every output and
every count must repeat exactly; the untraced passes give the tracing
overhead.

Run from the root of a checkout with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from calibrate import SpeedProbe
from spans import Tracer
from workloads import PER_LAYER, WORKLOADS, Outcome


@dataclass
class Call:
    start: float
    end: float
    outcome: Outcome
    digest: str
    out_bytes: int


def run_call(cli, workload, argv: list, out_dir: Path) -> Call:
    if workload.needs_out_dir:
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = argv + ["--out", str(out_dir)]
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        code = cli.main(argv, stdout=stdout, stderr=stderr)
    except Exception as exc:  # an uncaught program error fails this call only
        code = exc
    end = time.perf_counter()

    text = stdout.getvalue()
    digest = hashlib.sha256(text.encode())
    out_bytes = len(text.encode())
    if workload.needs_out_dir and out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            data = path.read_bytes()
            digest.update(path.name.encode() + data)
            out_bytes += len(data)
    if isinstance(code, Exception):
        outcome = Outcome(problems=[f"raised {code!r}"])
    elif code != 0:
        outcome = Outcome(problems=[f"exit {code}: {stderr.getvalue().strip()}"])
    else:
        try:
            outcome = workload.check(argv, text, out_dir)
        except (ValueError, KeyError, IndexError) as exc:
            outcome = Outcome(problems=[f"unparseable output: {exc!r}"])
    if outcome.problems:
        outcome.problems.insert(0, " ".join(argv))
    return Call(start, end, outcome, digest.hexdigest(), out_bytes)


class Tally:
    """Failures against attempts, with the first few problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def add(self, call: Call, extra_problem: str = "") -> None:
        self.attempted += 1
        problems = list(call.outcome.problems)
        if extra_problem:
            problems.append(extra_problem)
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append("; ".join(problems))


def timed_run(cli, workload, seed, seconds, tiny, out_dir) -> tuple[dict, dict, Tally]:
    tally = Tally()
    stream = workload.inputs(seed, tiny)
    calls = []
    first_argv = None
    with SpeedProbe() as probe:
        deadline = time.perf_counter() + seconds
        while not calls or time.perf_counter() < deadline:
            argv = next(stream)
            first_argv = first_argv or argv
            call = run_call(cli, workload, argv, out_dir)
            tally.add(call)
            calls.append(call)
    again = run_call(cli, workload, first_argv, out_dir)
    tally.add(again, "" if again.digest == calls[0].digest else
              "output bytes differ between two runs of the same input")

    wall, scale = zip(*(probe.rescale(c.start, c.end) for c in calls))
    times = [t * f for t, f in zip(wall, scale)]
    work = [c.outcome.work for c in calls]
    metrics = {
        "op_p50_s": statistics.median(times),
        "work_per_s": statistics.median(w / t for w, t in zip(work, times)),
    }
    info = {
        "calls": len(calls),
        "wall_op_p50_s": statistics.median(wall),
        "wall_work_per_s": statistics.median(w / t for w, t in zip(work, wall)),
        "speed": statistics.median(scale),
    }
    if len(times) >= 100:  # at least ten samples beyond the 90th percentile
        info["op_p90_s"] = statistics.quantiles(times, n=10)[-1]
    return metrics, info, tally


def traced_run(cli, workload, seed, seconds, tiny, out_dir) -> tuple[dict, dict, Tally]:
    tally = Tally()
    stream = (workload.pass_inputs or workload.inputs)(seed, tiny)
    inputs = list(itertools.islice(stream, workload.pass_size))
    tracer = Tracer()
    digests = None
    walls = {True: [], False: []}
    self_times = []
    counts = []
    start = time.perf_counter()
    for index in itertools.count():
        if index >= 4 and time.perf_counter() - start >= seconds:
            break
        traced = index % 2 == 0
        calls = []
        if traced:
            tracer.install()
        try:
            for op_id, argv in enumerate(inputs):
                tracer.op_id = op_id
                calls.append(run_call(cli, workload, argv, out_dir))
        finally:
            if traced:
                tracer.restore()
        pass_digests = [c.digest for c in calls]
        digests = digests or pass_digests
        for call, digest in zip(calls, digests):
            tally.add(call, "" if call.digest == digest else
                      "output bytes differ between passes over the same input")
        walls[traced].append(sum(c.end - c.start for c in calls))
        if traced:
            self_s, pass_counts = tracer.take()
            pass_counts["cli.out_bytes"] = sum(c.out_bytes for c in calls)
            self_times.append(self_s)
            counts.append(pass_counts)

    first = counts[0]
    mismatched = sorted({
        key for other in counts[1:] for key in set(first) | set(other)
        if first.get(key, 0) != other.get(key, 0)
    })

    def count(name):
        return first.get(name, 0)

    metrics = {
        name: statistics.median(s.get(name[: -len(".self_s")], 0.0) for s in self_times)
        for name in PER_LAYER if name.endswith(".self_s")
    }
    for name, unit in PER_LAYER.items():
        if unit in ("count", "B") and not name.startswith("trace."):
            metrics[name] = count(name)
    legs = count("interferometer.leg_points")
    metrics["lattice.fields.per_leg_point"] = (
        count("lattice.fields.momenta") / legs if legs else 0.0
    )
    compared = count("analysis.oracle_compared")
    metrics["analysis.agree_frac"] = (
        count("analysis.oracle_agreed") / compared if compared else 0.0
    )
    untraced = statistics.median(walls[False])
    metrics["trace.overhead_frac"] = (statistics.median(walls[True]) - untraced) / untraced
    metrics["trace.count_mismatches"] = len(mismatched)
    info = {
        "passes": len(walls[True]) + len(walls[False]),
        "calls_per_pass": len(inputs),
        "oracle_compared": compared,
        "mismatched_counts": mismatched,
    }
    return metrics, info, tally


def thread_count() -> int:
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    root = Path.cwd()
    import numpy
    import scipy
    from chernscope import cli

    source = Path(cli.__file__).resolve()
    if root / "src" not in source.parents:
        print(f"chernscope imported from {source}, not from {root / 'src'}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    out_dir = root / ".perfbench-out" / f"run-{os.getpid()}"
    run = traced_run if args.trace else timed_run
    try:
        metrics, info, tally = run(
            cli, workload, args.seed, args.seconds, args.tiny, out_dir
        )
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(json.dumps({
        "metrics": metrics,
        "info": info,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": thread_count(),
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
