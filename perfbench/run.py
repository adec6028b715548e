"""chernscope benchmark: one command for every workload and metric.

Usage, from the root of a checkout (nothing needs installing; the program
is imported from ``src``):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Workloads (see workloads.py for the inputs and checkers):

    sweep        sweep at its defaults, the heaviest user run
    tdse         fringe --mode tdse --leg-time 400 at seeded model points
    detect-scan  detect at seeded model points, fixed per-call costs
    curvature    curvature --grid-n 200 --format dsv --out DIR

``--trace 0`` measures the end-to-end metrics with tracing off:

    setup_s      median time of `import chernscope.cli` over 10 fresh
                 interpreters, in reference seconds (REFERENCE_MODULE below)
    op_p50_s     median time of one cli.main call, in reference seconds
                 (calibrate.py)
    work_per_s   median over calls of work / time: sweep trials, TDSE
                 integration steps (both packets), detections, plaquettes
    peak_rss_mb  peak resident set of the worker process

``--trace 1`` times calls into each module's public functions (spans.py)
and prints the per-layer metrics of one pass over a fixed input list.

Each run starts fresh interpreters with at most one BLAS/OpenMP thread.
The last stdout line is a JSON object: correct, attempted, failed (calls
that exited nonzero or failed an output check) and metrics.  With
``--workload all`` each workload is run untraced and traced, and the last
line holds every metric of every workload together with the environment.
The program's failures are counted, not fatal: exit status 0 means the
run was measured, and a run that cannot be measured exits nonzero without
a result line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

WORK_UNIT = {
    "sweep": "trials/s",
    "tdse": "steps/s",
    "detect-scan": "detections/s",
    "curvature": "plaquettes/s",
}
SETUP_REPEATS = 10
RUN_LIMIT_S = 170.0  # a run must end within 180 s

# setup_s: each timed import of the program, in a fresh interpreter, is
# paired with a timed import of REFERENCE_MODULE alone in the next fresh
# interpreter.  Both are the same kind of work (reading bytecode, running
# module bodies, loading extension modules), so their ratio hardly depends
# on how fast the shared host is at that moment; the median ratio times
# REFERENCE_IMPORT_S is the import time in reference seconds.  On the
# baseline host this followed the host's speed more closely than rescaling
# by calibrate.py's kernel or by a pure-Python kernel run in the same
# interpreter.
REFERENCE_MODULE = "numpy"
REFERENCE_IMPORT_S = 0.07  # about numpy's import time on the quiet baseline host
IMPORT_TIMER = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import {}\n"
    "print(repr(time.perf_counter() - start))\n"
)


class RunError(RuntimeError):
    """The benchmark could not measure; no result may be printed."""


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(cmd: list, env: dict, deadline: float) -> str:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("out of time before starting " + " ".join(cmd[:3]))
    try:
        done = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{' '.join(cmd[:3])} did not finish in time") from exc
    if done.returncode != 0:
        raise RunError(
            f"{' '.join(cmd[:3])} exited {done.returncode}: {done.stderr.strip()}"
        )
    return done.stdout


def timed_import(module: str, env: dict, deadline: float) -> float:
    out = run_child([sys.executable, "-c", IMPORT_TIMER.format(module)], env, deadline)
    return float(out.strip().splitlines()[-1])


def measure_setup(env: dict, deadline: float) -> list:
    """(wall, reference) seconds of the program's import, per fresh interpreter."""
    for module in ("chernscope.cli", REFERENCE_MODULE):  # untimed: warms caches
        timed_import(module, env, deadline)
    times = []
    for _ in range(SETUP_REPEATS):
        wall = timed_import("chernscope.cli", env, deadline)
        reference = timed_import(REFERENCE_MODULE, env, deadline)
        times.append((wall, wall / reference * REFERENCE_IMPORT_S))
    return times


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: int,
                 tiny: bool, deadline: float) -> dict:
    env = child_env(root)
    setup = [] if trace else measure_setup(env, deadline)
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", name,
        "--seed", str(seed), "--seconds", repr(float(seconds)),
        "--trace", str(trace),
    ] + (["--tiny"] if tiny else [])
    out = run_child(cmd, env, deadline)
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise RunError(f"worker printed no result: {out[-500:]!r}") from exc
    if trace:
        metrics = {k: (result["metrics"][k], u) for k, u in PER_LAYER.items()}
    else:
        result["setup_runs"] = setup
        values = dict(result["metrics"])
        result["info"]["wall_setup_s"] = statistics.median(w for w, _ in setup)
        values["setup_s"] = statistics.median(r for _, r in setup)
        values["peak_rss_mb"] = result["peak_rss_mb"]
        metrics = {k: (values[k], u) for k, u in END_TO_END.items()}
    result["reported"] = metrics
    return result


def report_lines(name: str, seed: int, trace: int, result: dict) -> list:
    env = result["env"]
    info = result["info"]
    lines = [
        f"workload {name}  seed {seed}  trace {trace}  closed loop, 1 client",
        f"env python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
        f"blas {env['blas']}  blas_threads 1  nproc {os.cpu_count()}  "
        f"worker_threads {env['threads']}",
    ]
    for metric, (value, unit) in result["reported"].items():
        text = str(value) if isinstance(value, int) else f"{value:.6g}"
        note = ""
        if metric == "setup_s":
            note = (f"median of {len(result['setup_runs'])} fresh imports, "
                    f"each against one of {REFERENCE_MODULE}")
        elif metric == "op_p50_s":
            note = f"n={info['calls']} calls"
        elif metric == "work_per_s":
            note = WORK_UNIT[name]
        lines.append(f"{metric:34s} {text:14s} {unit:6s} {note}".rstrip())
    if "op_p90_s" in info:
        lines.append(f"{'op_p90_s':34s} {info['op_p90_s']:<14.6g} {'s':6s} "
                     f"n={info['calls']} calls")
    if not trace:
        lines.append(
            f"(times in reference seconds; wall clock: setup_s "
            f"{info['wall_setup_s']:.4g}, op_p50_s {info['wall_op_p50_s']:.4g}, "
            f"work_per_s {info['wall_work_per_s']:.4g}; median speed factor "
            f"{info['speed']:.3f})"
        )
    else:
        lines.append(f"(per pass of {info['calls_per_pass']} calls, "
                     f"{info['passes']} passes; oracle comparisons per pass "
                     f"{info['oracle_compared']})")
        for key in info["mismatched_counts"]:
            lines.append(f"COUNT MISMATCH between traced passes: {key}")
    frac = result["failed"] / result["attempted"]
    lines.append(f"{'failed_frac':34s} {frac:<14.6g} {'ratio':6s} "
                 f"{result['failed']}/{result['attempted']} calls")
    lines.extend("FAILED " + problem for problem in result["problems"])
    return lines


def result_line(result: dict) -> str:
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            k: {"value": v, "unit": u} for k, (v, u) in result["reported"].items()
        },
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="chernscope benchmark",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__,
    )
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes; not a measurement")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "chernscope" / "cli.py").is_file():
        print(f"no chernscope sources under {root / 'src'}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    start = time.monotonic()
    try:
        if args.workload != "all":
            result = run_workload(root, args.workload, args.seed, args.seconds,
                                  args.trace, args.tiny, start + RUN_LIMIT_S)
            print("\n".join(report_lines(args.workload, args.seed, args.trace, result)))
            print(result_line(result))
            return 0
        record = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
        for name in WORKLOADS:
            entry = record["workloads"][name] = {"failed": 0, "attempted": 0}
            for trace in (0, 1):
                result = run_workload(root, name, args.seed, args.seconds, trace,
                                      args.tiny, time.monotonic() + RUN_LIMIT_S)
                print("\n".join(report_lines(name, args.seed, trace, result)))
                print()
                key = "per_layer" if trace else "end_to_end"
                entry[key] = {k: v for k, (v, _) in result["reported"].items()}
                entry["failed"] += result["failed"]
                entry["attempted"] += result["attempted"]
                if "op_p90_s" in result["info"]:
                    entry["end_to_end"]["op_p90_s"] = result["info"]["op_p90_s"]
                    entry["end_to_end"]["op_samples"] = result["info"]["calls"]
                record["env"] = dict(result["env"], nproc=os.cpu_count(),
                                     blas_threads=1)
        print(json.dumps(record))
        return 0
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
