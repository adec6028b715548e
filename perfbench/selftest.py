"""Self-tests of the benchmark: checkers, failures, smoke run, count repeatability.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Each checker must accept a real output and reject deliberately corrupted
copies of it.  A call that raises must count as failed without stopping
the run.  A tiny-size run of every workload must print every metric
name; traced counts must repeat exactly across processes at one seed; and
the benchmark must refuse to run without the program's sources.  Takes
about two minutes.
"""

from __future__ import annotations

import io
import json
import re
import shutil
import subprocess
import sys
import unittest
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SCRATCH = ROOT / ".perfbench-out" / "selftest"


def real_output(name: str) -> tuple[list, str, Path]:
    from chernscope import cli

    workload = WORKLOADS[name]
    argv = next(workload.inputs(7, True))
    out_dir = SCRATCH / name
    if workload.needs_out_dir:
        argv = argv + ["--out", str(out_dir)]
    stdout = io.StringIO()
    assert cli.main(argv, stdout=stdout, stderr=io.StringIO()) == 0
    return argv, stdout.getvalue(), out_dir


def replace_line(text: str, key: str, value: str) -> str:
    new, n = re.subn(rf"^{re.escape(key)}: .*$", f"{key}: {value}", text,
                     count=1, flags=re.M)
    assert n == 1, key
    return new


class CheckerTests(unittest.TestCase):
    def assert_rejects(self, name, argv, stdout, out_dir):
        outcome = WORKLOADS[name].check(argv, stdout, out_dir)
        self.assertTrue(outcome.problems, "corrupted output was accepted")

    def test_detect(self):
        argv, text, out_dir = real_output("detect-scan")
        self.assertEqual(WORKLOADS["detect-scan"].check(argv, text, out_dir).problems, [])
        oracle = re.search(r"^oracle-c: (.*)$", text, re.M).group(1)
        flipped = {"1": "-1", "-1": "1"}[oracle]
        self.assert_rejects("detect-scan", argv,
                            replace_line(text, "oracle-c", flipped), out_dir)
        self.assert_rejects("detect-scan", argv,
                            replace_line(text, "c-estimate", "0.5"), out_dir)
        self.assert_rejects("detect-scan", argv,
                            replace_line(text, "contrast-i", "1.5"), out_dir)
        self.assert_rejects("detect-scan", argv,
                            replace_line(text, "agrees-with-oracle", "true"), out_dir)

    def test_curvature(self):
        argv, text, out_dir = real_output("curvature")
        check = WORKLOADS["curvature"].check
        self.assertEqual(check(argv, text, out_dir).problems, [])
        total = float(re.search(r"^total-flux: (.*)$", text, re.M).group(1))
        self.assert_rejects("curvature", argv,
                            replace_line(text, "total-flux", repr(-total)), out_dir)
        table = out_dir / "curvature.dsv"
        good = table.read_text()
        lines = good.rstrip("\n").split("\n")
        try:
            table.write_text("\n".join(lines[:-1]) + "\n")  # truncated
            self.assert_rejects("curvature", argv, text, out_dir)
            i, j, flux = lines[5].split("\t")
            lines[5] = f"{i}\t{j}\t{float(flux) + 1e-3!r}"
            table.write_text("\n".join(lines) + "\n")  # flux off its sum
            self.assert_rejects("curvature", argv, text, out_dir)
        finally:
            table.write_text(good)

    def test_tdse(self):
        argv, text, out_dir = real_output("tdse")
        self.assertEqual(WORKLOADS["tdse"].check(argv, text, out_dir).problems, [])
        self.assert_rejects("tdse", argv, replace_line(text, "norm-drift", "1e-06"),
                            out_dir)
        self.assert_rejects("tdse", argv, replace_line(text, "leakage-up", "1.5"),
                            out_dir)
        steps = int(re.search(r"^n-steps: (.*)$", text, re.M).group(1))
        self.assert_rejects("tdse", argv, replace_line(text, "n-steps", str(steps + 1)),
                            out_dir)
        truncated = text[: text.rindex("phi_mw:")]
        self.assert_rejects("tdse", argv, truncated, out_dir)

    def test_sweep(self):
        argv, text, out_dir = real_output("sweep")
        self.assertEqual(WORKLOADS["sweep"].check(argv, text, out_dir).problems, [])
        self.assert_rejects("sweep", argv, replace_line(text, "success_rate", "0.5"),
                            out_dir)
        self.assert_rejects("sweep", argv, replace_line(text, "seed", "12345"), out_dir)
        one_trial_less = text[: text.rindex("radius:")]
        self.assert_rejects("sweep", argv, one_trial_less, out_dir)


class FailureTests(unittest.TestCase):
    def test_raising_call_is_counted_not_fatal(self):
        import worker
        from chernscope import cli

        original = cli.main
        calls = []

        def flaky_main(argv, stdout, stderr):
            calls.append(argv)
            if len(calls) % 2 == 0:
                raise ZeroDivisionError("injected")
            return original(argv, stdout=stdout, stderr=stderr)

        out = io.StringIO()
        with mock.patch.object(cli, "main", flaky_main), redirect_stdout(out):
            code = worker.main(["--workload", "detect-scan", "--seed", "2",
                                "--seconds", "0.5", "--trace", "0", "--tiny"])
        self.assertEqual(code, 0)
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertGreater(result["failed"], 0)
        self.assertLess(result["failed"], result["attempted"])
        self.assertIn("ZeroDivisionError", " ".join(result["problems"]))
        self.assertGreater(result["metrics"]["op_p50_s"], 0)


def run_bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


class RunTests(unittest.TestCase):
    def test_smoke_prints_every_metric(self):
        done = run_bench("--workload", "all", "--seed", "1", "--seconds", "4", "--tiny")
        self.assertEqual(done.returncode, 0, done.stderr)
        names = list(run.END_TO_END) + list(run.PER_LAYER) + ["failed_frac", "op_p90_s"]
        for name in names:
            self.assertRegex(done.stdout, rf"(?m)^{re.escape(name)} ")
        record = json.loads(done.stdout.strip().splitlines()[-1])
        for name, entry in record["workloads"].items():
            self.assertEqual(entry["failed"], 0, name)
            self.assertEqual(set(entry["end_to_end"]) - {"op_p90_s", "op_samples"},
                             set(run.END_TO_END))
            self.assertEqual(set(entry["per_layer"]), set(run.PER_LAYER))

    def test_counts_repeat_across_processes(self):
        counts = []
        for _ in range(2):
            done = run_bench("--workload", "detect-scan", "--seed", "3",
                             "--seconds", "0", "--trace", "1", "--tiny")
            self.assertEqual(done.returncode, 0, done.stderr)
            metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
            counts.append({k: v["value"] for k, v in metrics.items()
                           if v["unit"] == "count"})
        self.assertEqual(counts[0], counts[1])
        self.assertEqual(counts[0]["trace.count_mismatches"], 0)

    def test_refuses_without_sources(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        if (ROOT / "BENCHMARK.json").exists():
            shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    try:
        unittest.main(verbosity=2)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
        try:
            SCRATCH.parent.rmdir()
        except OSError:
            pass  # a benchmark run is still using it
