"""Self-tests of the benchmark: tracing, the correctness gate and seeding.

    python3 -m unittest discover -s bench -p "test_*.py"

They run small CLI cases in fresh worker processes, as the benchmark does.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

SMALL_ISOTROPY = ["verify", "--theorem", "T6.5", "--g", "3", "--seed", "0"]
SMALL_RANK_LAW = ["verify", "--theorem", "T3.1", "--g", "3..5"]


def spawn(argv, *flags):
    record, err = run.Session(run.ROOT).spawn(argv, *flags)
    if record is None:
        raise AssertionError(f"worker failed:\n{err}")
    return record


def small_workload(argv, genus, seeded=False):
    """A one-genus Workload for a small case, with its items and digest taken live."""
    probe = run.Workload(argv=tuple(argv), seeded=seeded, genera={genus: (0, "")})
    record = spawn(list(probe.units(run.DEFAULT_SEED)[0].argv))
    return run.Workload(
        argv=tuple(argv),
        seeded=seeded,
        genera={genus: (record["items"], record["sha256"])},
    )


class TracingTests(unittest.TestCase):
    def test_wrapper_calls_equal_cache_lookups(self):
        record = spawn(SMALL_ISOTROPY, "--trace")
        calls = record["layers"]["rho.derivative_sum"][0]
        counts = record["caches"]["rho.derivative_sum"]
        self.assertGreater(calls, 0)
        self.assertEqual(calls, counts["hits"] + counts["misses"])

    def test_every_module_binding_is_replaced(self):
        record = spawn(SMALL_ISOTROPY, "--trace")
        # rho.py and the package both bind derivative_sum; linalg.py and
        # gaussian.py both bind dot.
        self.assertGreaterEqual(record["replaced"]["rho.derivative_sum"], 2)
        self.assertGreaterEqual(record["replaced"]["linalg.dot"], 2)
        self.assertEqual(record["absent"], [])

    def test_traced_output_equals_untraced(self):
        plain = spawn(SMALL_ISOTROPY)
        traced = spawn(SMALL_ISOTROPY, "--trace")
        self.assertEqual(plain["sha256"], traced["sha256"])
        self.assertGreater(traced["max_operand_digits"], 0)

    def test_rank_law_touches_no_curve_series_or_rho(self):
        record = spawn(SMALL_RANK_LAW, "--trace")
        calls = {name: stats[0] for name, stats in record["layers"].items()}
        for name, count in calls.items():
            if name.split(".")[0] in ("curve", "series", "rho"):
                self.assertEqual(count, 0, name)
        self.assertGreater(calls["linalg.rref"], 0)
        self.assertGreater(calls["gaussian.kernel_via_equations"], 0)
        self.assertEqual(record["max_operand_digits"], 0)

    def test_removed_names_are_absent(self):
        sys.path.insert(0, os.path.join(run.ROOT, "src"))
        import gaussmap  # noqa: F401

        tracer = layers.Tracer()
        tracer.install(
            (
                ("gone.function", "gaussmap.linalg", "no_such_function"),
                ("gone.method", "gaussmap.series", "TruncatedSeries.no_such"),
                ("gone.module", "gaussmap.no_such_module", "f"),
            )
        )
        self.assertEqual(
            tracer.absent, ["gone.function", "gone.method", "gone.module"]
        )
        gone = (
            ("uncached", "gaussmap.linalg", "dot"),
            ("removed", "gaussmap.linalg", "no_such_function"),
        )
        with mock.patch.object(layers, "CACHED", gone):
            self.assertEqual(
                layers.cache_counts(), {"uncached": None, "removed": None}
            )

    def test_decimal_digits(self):
        for n in [0, 9, 10, 99, 100, 10**50 - 1, 10**50, -(10**300) + 1]:
            self.assertEqual(layers.decimal_digits(n), len(str(abs(n))), n)
        self.assertEqual(layers.decimal_digits(10**5000), 5001)


class GateTests(unittest.TestCase):
    def test_flipped_output_byte_fails_the_gate(self):
        (unit,) = small_workload(["verify", "--theorem", "T3.1"], 5).units(0)
        record = spawn(list(unit.argv))
        self.assertEqual(run.gate(record, unit, True, run.ROOT), [])
        out = subprocess.run(
            [sys.executable, "-m", "gaussmap.cli", *unit.argv],
            cwd=run.ROOT,
            env=dict(os.environ, PYTHONPATH=os.path.join(run.ROOT, "src")),
            capture_output=True,
            check=True,
        ).stdout
        self.assertEqual(hashlib.sha256(out).hexdigest(), unit.digest)
        for position in (0, len(out) // 2, len(out) - 2):
            flipped = bytearray(out)
            flipped[position] ^= 0x01
            flipped = bytes(flipped)
            bad = dict(
                record,
                **worker.check_report(flipped),
                sha256=hashlib.sha256(flipped).hexdigest(),
            )
            self.assertNotEqual(run.gate(bad, unit, True, run.ROOT), [])

    def test_broken_run_counts_all_its_checks_as_failed(self):
        workload = small_workload(["verify", "--theorem", "T3.1"], 5)
        ((items, _),) = workload.genera.values()
        wrong = run.Workload(
            argv=workload.argv, seeded=False, genera={5: (items, "0" * 64)}
        )
        with mock.patch.dict(run.WORKLOADS, {"small": wrong}):
            correct, attempted, failed, _, record = run.run_workload(
                "small", 0, 0.0, False, run.ROOT
            )
        self.assertFalse(correct)
        self.assertEqual(attempted, items)
        self.assertEqual(failed, attempted)
        self.assertTrue(record["problems"])


class SeedTests(unittest.TestCase):
    def test_seed_reaches_the_cli(self):
        for name in ("isotropy", "certificates"):
            for unit in run.WORKLOADS[name].units(7):
                self.assertEqual(unit.argv[-2:], ("--seed", "7"))
        for unit in run.WORKLOADS["rank-law"].units(7):
            self.assertNotIn("--seed", unit.argv)

        argv = ["scan", "--samples", "2"]
        workload = small_workload(argv, 4, seeded=True)
        with mock.patch.dict(run.WORKLOADS, {"small": workload}):
            correct, *_, record = run.run_workload("small", 7, 0.0, False, run.ROOT)
        self.assertTrue(correct)
        self.assertEqual(record["argv"], [argv + ["--g", "4", "--seed", "7"]])
        seeded = spawn(argv + ["--g", "4", "--seed", "7"])
        ((_, digest),) = workload.genera.values()
        self.assertNotEqual(seeded["sha256"], digest)


class MeasureTests(unittest.TestCase):
    @staticmethod
    def two_genera():
        argv = ["verify", "--theorem", "T3.1"]
        low, high = small_workload(argv, 4), small_workload(argv, 5)
        return run.Workload(
            argv=tuple(argv), seeded=False, genera={**low.genera, **high.genera}
        )

    def test_every_genus_runs_and_counts_with_its_calibrated_median(self):
        with mock.patch.dict(run.WORKLOADS, {"small": self.two_genera()}):
            correct, attempted, failed, metrics, record = run.run_workload(
                "small", 0, 1.0, False, run.ROOT
            )
        self.assertTrue(correct, record["problems"])
        self.assertEqual(failed, 0)
        units = record["wall_s_per_unit"]
        self.assertEqual([u["argv"][-1] for u in units], ["4", "5"])
        self.assertTrue(all(u["n"] >= 1 for u in units))
        per_genus = [
            statistics.median(wall / calib for wall, _, calib in u["samples"])
            for u in units
        ]
        self.assertAlmostEqual(
            metrics["wall_s"]["value"], run.CALIBRATION_REF_S * sum(per_genus)
        )
        self.assertEqual(
            set(metrics), {name for name, _ in run.END_TO_END}
        )

    def test_traced_metrics_add_up_over_genera(self):
        with mock.patch.dict(run.WORKLOADS, {"small": self.two_genera()}):
            correct, _, _, metrics, record = run.run_workload(
                "small", 0, 0.0, True, run.ROOT
            )
        self.assertTrue(correct, record["problems"])
        self.assertEqual(
            set(metrics),
            {name for name, *_ in run.PER_LAYER} | {run.TRACE_OVERHEAD[0]},
        )
        # One genus-4 and one genus-5 call each compute one kernel chain.
        self.assertEqual(metrics["gaussian.kernel_via_equations.calls"]["value"], 2)


class ContractTests(unittest.TestCase):
    def test_benchmark_json_names_what_the_runner_reports(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]],
            list(run.END_TO_END),
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["per_layer"]],
            [(name, unit) for name, unit, *_ in run.PER_LAYER]
            + [run.TRACE_OVERHEAD],
        )

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(
                HERE,
                os.path.join(tmp, os.path.basename(HERE)),
                ignore=shutil.ignore_patterns("__pycache__"),
            )
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "rank-law",
                 "--seconds", "1"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
