"""Cold-process benchmark of the gaussmap command line.

    python3 bench/run.py --workload rank-law|isotropy|certificates|all
                         [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the program is imported from the ``src`` directory next
to this one.  A workload is one CLI call per genus of its range.  Each
sample is one fresh Python process that imports ``gaussmap.cli`` and makes
one such ``gaussmap.cli.main(argv)`` call, and only one process runs at a
time.  Samples go round the genera until the next one would end after
``--seconds``; each genus then counts with the median of its samples,
each scaled by a calibration of the host's speed.  Every
output is checked; see README.md in this directory for the workloads, the
metrics and the layers they belong to.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics,
with ``--trace 1`` the per-layer metrics, as one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every output checked out, 1 when one did not, and 2 when the program
is missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

DEFAULT_SEED = 0
# A typical calibration time on the two-CPU reference machine; wall_s and
# cpu_s are seconds at the host speed that reads this.
CALIBRATION_REF_S = 0.1
DEADLINE_S = 170.0  # every process ends before this, so a run ends within 180 s


@dataclass(frozen=True)
class Unit:
    """One cold CLI call of a workload: one genus of its range."""

    argv: tuple[str, ...]
    items: int  # check items in its report, whatever the seed
    digest: str  # SHA-256 of stdout at DEFAULT_SEED, recorded from the seed code


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]  # the CLI call without --g and --seed
    seeded: bool
    genera: dict[int, tuple[int, str]]  # genus -> (items, digest) of its unit

    def units(self, seed: int) -> list[Unit]:
        seeded = ["--seed", str(seed)] if self.seeded else []
        return [
            Unit(tuple(self.argv) + ("--g", str(g), *seeded), items, digest)
            for g, (items, digest) in self.genera.items()
        ]


WORKLOADS = {
    "rank-law": Workload(
        argv=("verify", "--theorem", "T3.1"),
        seeded=False,
        genera={
            3: (7, "1ff1166f5971bc58107ffc85a56461e9e6fa53c14c49bc9fbe72b00da467fa80"),
            4: (7, "39b124f0268027a80974ff31370897ac125dcf107f24575232da9da9fbd3d6ea"),
            5: (9, "3efdb4322ac0cf94e5ed3eeb801d7b17a2e605f945c4ec73cf6190fabd51d6db"),
            6: (9, "5e39828174f7d2615dda17fc7d48c80e9def1fd98f7cae9a7ab4fb714d3ebc29"),
            7: (11, "be8ce20535a65a2a2c6c954599c99dc6512ded4b1ad41af44469003bff35d1e8"),
            8: (11, "4bbf7bc6eface32469c769634f64ac07cdddf374d46a4cf292ac619b9ff9750d"),
            9: (13, "9ef39fccdbacdc39a812caf6b694a9bb8c0500683e5dcb3a83ba6bfcf76a5e3e"),
            10: (13, "3956102d65b592ab84cae24e5e2b371e7f09ac9a98a0e487af7d716c2d8b9bd8"),
            11: (15, "f4893daaed16ac9d724ff8b61bff5469c03b8684bd6fd8185492094fa9e27fa8"),
            12: (15, "236d3bf474444597b97b27043f63235b67540db89006260a6501c4617e8458cd"),
        },
    ),
    "isotropy": Workload(
        argv=("verify", "--theorem", "T6.5"),
        seeded=True,
        genera={
            3: (12, "523e9d1046f9ce3b32e4b9595467f476b50258db039db2e4065133f70d99f663"),
            4: (12, "b588beab396392b04c04147a73ec3c519a0b3df01ba20f2f59e777a287781106"),
            5: (20, "afe8246e8c49ea4d4b9140761ff94eb8d63d2b71ecc02450bfae933665f84274"),
            6: (20, "45c0f11e6525b11255b07a1a52813a8b1cbcb42cf6e82281d6f3150ee9cbdb25"),
            7: (28, "4836ba1138cc65e922b14ccd7e2461318f682a41e18e6dc95b397552037e9bf7"),
            8: (28, "99e71382f783bb3a00e14f2040136bde803a065400b0827de98a0ffc02cb9b57"),
            9: (36, "2ed0660b140d31470b7e5b5e4b02fea69cf7bd3cdb5dd0782fec251d3bb91938"),
        },
    ),
    "certificates": Workload(
        argv=("scan", "--samples", "100"),
        seeded=True,
        genera={
            4: (105, "547cfb829cbd9c82b777da1200505fbbe34b16249326a63deaa68a1c6adb2150"),
            5: (105, "c8c12bcb6a4720e3e5297d394769671135b7c0da1b31c3b727477c0841bda234"),
            6: (107, "cf0a4aa10c55c0784aa67353a13f8cb7a9404fc35eedeebce5a35cb630805b16"),
            7: (107, "36a4c39c9ee44bb274b07d77ac36cf5b81d929b1db3633548622e8f4e6375c5b"),
            8: (109, "aa7b76ff4f9d441faed6c1579d511d7bb08eee7fb83e45be42be6e58dbe4046b"),
            9: (109, "a40409667d61f2a75dcf735812639e8e8eea0761091329e38af107511bac1d2e"),
        },
    ),
}

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)


def _self(*names):
    return lambda rec: sum(rec["layers"].get(n, (0, 0.0))[1] for n in names)


def _calls(name):
    return lambda rec: rec["layers"].get(name, (0, 0.0))[0]


def _hits(name, field):
    return lambda rec: (rec["caches"].get(name) or {}).get(field, 0)


def _hit_ratio(name):
    def ratio(rec):
        counts = rec["caches"].get(name) or {}
        total = counts.get("hits", 0) + counts.get("misses", 0)
        return counts.get("hits", 0) / total if total else 0.0

    return ratio


FUNCTIONALS = (
    "rho.witness_functional",
    "rho.witness_hyperplane",
    "rho.diagonal_functional",
    "rho.rho_reduction_vector",
)

# (name, unit, source, value per worker record): "traced" records come from
# the wrapped process, "plain" ones from an untraced process of the same run.
PER_LAYER = (
    ("linalg.rref.calls", "count", "traced", _calls("linalg.rref")),
    ("linalg.rref.self_s", "s", "traced", _self("linalg.rref")),
    ("linalg.dot.calls", "count", "traced", _calls("linalg.dot")),
    ("linalg.dot.self_s", "s", "traced", _self("linalg.dot")),
    ("gaussian.kernel_via_equations.calls", "count", "traced",
     _calls("gaussian.kernel_via_equations")),
    ("gaussian.kernel_via_equations.self_s", "s", "traced",
     _self("gaussian.kernel_via_equations")),
    ("gaussian.kernel_via_polynomial_oracle.self_s", "s", "traced",
     _self("gaussian.kernel_via_polynomial_oracle")),
    ("gaussian.oracle_residuals.self_s", "s", "traced",
     _self("gaussian.oracle_residuals")),
    ("series.mul.calls", "count", "traced", _calls("series.mul")),
    ("series.mul.self_s", "s", "traced", _self("series.mul")),
    ("series.compose_poly.self_s", "s", "traced", _self("series.compose_poly")),
    ("series.inverse.self_s", "s", "traced", _self("series.inverse")),
    ("curve.canonical_derivatives.calls", "count", "traced",
     _calls("curve.canonical_derivatives")),
    ("curve.canonical_derivatives.self_s", "s", "traced",
     _self("curve.canonical_derivatives")),
    ("curve.max_operand_digits", "digits", "traced",
     lambda rec: rec["max_operand_digits"]),
    ("rho.derivative_sum.calls", "count", "traced", _calls("rho.derivative_sum")),
    ("rho.derivative_sum.self_s", "s", "traced", _self("rho.derivative_sum")),
    ("rho.derivative_sum.hit_ratio", "ratio", "plain",
     _hit_ratio("rho.derivative_sum")),
    ("rho.derivative_sum.hits", "count", "plain",
     _hits("rho.derivative_sum", "hits")),
    ("rho.derivative_sum.misses", "count", "plain",
     _hits("rho.derivative_sum", "misses")),
    ("rho.threshold_info.self_s", "s", "traced", _self("rho.threshold_info")),
    ("rho.rho_pair.calls", "count", "traced", _calls("rho.rho_pair")),
    ("rho.rho_pair.self_s", "s", "traced", _self("rho.rho_pair")),
    ("rho.asymptotic_classify.calls", "count", "traced",
     _calls("rho.asymptotic_classify")),
    ("rho.asymptotic_classify.self_s", "s", "traced",
     _self("rho.asymptotic_classify")),
    ("rho.functionals.self_s", "s", "traced", _self(*FUNCTIONALS)),
    ("rho.diagonal_functional.hit_ratio", "ratio", "plain",
     _hit_ratio("rho.diagonal_functional")),
    ("rho.diagonal_functional.hits", "count", "plain",
     _hits("rho.diagonal_functional", "hits")),
    ("rho.diagonal_functional.misses", "count", "plain",
     _hits("rho.diagonal_functional", "misses")),
    ("reports.render.self_s", "s", "traced", _self("reports.render")),
    ("reports.output_bytes", "bytes", "plain", lambda rec: rec["output_bytes"]),
    ("suites.self_s", "s", "traced",
     lambda rec: rec["main_s"] - sum(s for _, s in rec["layers"].values())),
)
TRACE_OVERHEAD = ("trace_overhead", "ratio")


def git_revision(root: str) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Deadline(Exception):
    """No time is left to start another process."""


class Session:
    """Starts worker processes one at a time, all ending before a deadline."""

    def __init__(self, root: str):
        self.root = root
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        # Import cached bytecode, as an installed package does.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def spawn(self, cli_argv, *flags):
        """(record or None, stderr text) of one worker process."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise Deadline()
        command = [sys.executable, WORKER, self.root, *flags, "--", *cli_argv]
        spawned = time.monotonic()
        with subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            env=self.env,
            cwd=self.root,
        ) as proc:
            try:
                out, err = proc.communicate(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, err = proc.communicate()
                return None, f"worker killed at the deadline\n{err.decode()}"
        if proc.returncode != 0:
            return None, err.decode()
        try:
            record = json.loads(out.decode().strip().splitlines()[-1])
        except (ValueError, IndexError):
            return None, err.decode() + out.decode()
        record["setup_s"] = record["imported"] - spawned
        return record, err.decode()


def gate(record, unit: Unit, check_digest: bool, root: str) -> list[str]:
    """Reasons why one worker's run is not correct; empty when it is."""
    if record is None:
        return ["worker failed"]
    problems = []
    src = os.path.join(root, "src") + os.sep
    if not os.path.abspath(record["module"]).startswith(src):
        problems.append(f"gaussmap imported from {record['module']}")
    if record["exit_code"] != 0:
        problems.append(f"exit code {record['exit_code']}")
    if not record["passed"]:
        problems.append('report is not "passed": true')
    if record["failed_items"]:
        problems.append(f"{record['failed_items']} failed check items")
    if record["items"] != unit.items:
        problems.append(f"{record['items']} check items, expected {unit.items}")
    if check_digest and record["sha256"] != unit.digest:
        problems.append(f"stdout digest {record['sha256']} != {unit.digest}")
    return problems


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def scaled(units, metric):
    """Seconds at the reference host speed, summed over the units.

    Each sample is divided by the calibration that brackets it, and each
    unit counts with the median of these quotients.
    """
    return CALIBRATION_REF_S * sum(
        statistics.median(rec[metric] / rec["calib_s"] for rec in records)
        for records in units
    )


def fastest(records):
    """The sample with the least wall time: the one the host disturbed least."""
    return min(records, key=lambda rec: rec["wall_s"])


def merge_traced(records):
    """One traced record for a workload from the fastest sample of each unit."""
    layers = {}
    for rec in records:
        for name, (calls, self_s) in rec["layers"].items():
            total = layers.setdefault(name, [0, 0.0])
            total[0] += calls
            total[1] += self_s
    return {
        "layers": layers,
        "main_s": sum(rec["main_s"] for rec in records),
        "max_operand_digits": max(rec["max_operand_digits"] for rec in records),
    }


def merge_plain(records):
    """Cache counts and output size of a workload, summed over its units."""
    caches = {}
    for rec in records:
        for name, counts in rec["caches"].items():
            if counts is None:
                continue
            total = caches.setdefault(name, {"hits": 0, "misses": 0})
            total["hits"] += counts["hits"]
            total["misses"] += counts["misses"]
    return {
        "caches": caches,
        "output_bytes": sum(rec["output_bytes"] for rec in records),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: str):
    """Measure one workload; returns (correct, attempted, failed, metrics, record)."""
    workload = WORKLOADS[name]
    units = workload.units(seed)
    check_digest = not workload.seeded or seed == DEFAULT_SEED
    session = Session(root)
    plain = [[] for _ in units]
    traced = [[] for _ in units]
    setup, problems = [], []
    attempted = failed = 0

    def take(unit, *flags):
        nonlocal attempted, failed
        record, err = session.spawn(list(unit.argv), *flags)
        reasons = gate(record, unit, check_digest, root)
        items = max(record["items"] if record else 0, unit.items)
        attempted += items
        if reasons:  # failed check items break the gate too
            failed += items
            problems.append({"argv": list(unit.argv), "flags": list(flags),
                             "reasons": reasons, "stderr_tail": err[-2000:]})
        if record is not None:
            setup.append(record["setup_s"])
        return record

    try:
        session.spawn([], "--setup-only")  # fills __pycache__; not counted
        # Rounds over the units, one genus per cold process, until the next
        # sample of a unit would end after `seconds`; the first round is whole.
        started = time.monotonic()
        took = [0.0] * len(units)
        rounds = 0
        ran = True
        while ran and not problems:
            ran = False
            for i, unit in enumerate(units):
                if rounds and time.monotonic() - started + took[i] > seconds:
                    continue
                unit_start = time.monotonic()
                record = take(unit)
                if record is not None:
                    plain[i].append(record)
                if trace:
                    record = take(unit, "--trace")
                    if record is not None:
                        traced[i].append(record)
                took[i] = time.monotonic() - unit_start
                ran = True
            rounds += 1
    except Deadline:
        problems.append({"reasons": ["deadline reached"]})

    for i, unit in enumerate(units):
        digests = {rec["sha256"] for rec in plain[i] + traced[i]}
        if len(digests) > 1:
            problems.append({"argv": list(unit.argv), "reasons": [
                f"outputs differ between processes: {sorted(digests)}"]})
    complete = all(plain) and (all(traced) or not trace)
    correct = not problems and failed == 0 and complete

    # The host's speed swings by a fifth within seconds and drifts from one
    # run to the next, hence the calibrated medians of `scaled`.
    if complete and not trace:
        values = {
            "wall_s": scaled(plain, "wall_s"),
            "cpu_s": scaled(plain, "cpu_s"),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": max(statistics.median(rec["peak_rss_mb"] for rec in records)
                               for records in plain),
        }
        metrics = {metric: {"value": values[metric], "unit": unit}
                   for metric, unit in END_TO_END}
    elif complete:
        merged = {"traced": merge_traced([fastest(records) for records in traced]),
                  "plain": merge_plain([fastest(records) for records in plain])}
        metrics = {metric: {"value": value(merged[source]), "unit": unit}
                   for metric, unit, source, value in PER_LAYER}
        ratio = scaled(traced, "wall_s") / scaled(plain, "wall_s") - 1
        metrics[TRACE_OVERHEAD[0]] = {"value": ratio, "unit": TRACE_OVERHEAD[1]}
    else:
        metrics = {}

    per_unit = []
    for unit, records in zip(units, plain):
        walls = [rec["wall_s"] for rec in records]
        if walls:
            q1, q3 = quartiles(walls)
            per_unit.append({"argv": list(unit.argv), "n": len(walls),
                             "min": min(walls), "median": statistics.median(walls),
                             "q1": q1, "q3": q3, "samples": [
                                 [rec["wall_s"], rec["cpu_s"], rec["calib_s"]]
                                 for rec in records]})
    record = {
        "workload": name,
        "argv": [list(unit.argv) for unit in units],
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "revision": git_revision(root),
        "processes": sum(map(len, plain)) + sum(map(len, traced)),
        "wall_s_per_unit": per_unit,
        "setup_s_samples": len(setup),
        "absent": sorted({a for recs in traced for rec in recs
                          for a in rec.get("absent", [])}),
        "replaced": traced[0][0]["replaced"] if traced and traced[0] else {},
        "problems": problems,
    }
    return correct, attempted, failed, metrics, record


def print_summary(record, metrics, attempted: int, failed: int) -> None:
    print(f"# workload {record['workload']}, one cold process per genus")
    print(f"# python {record['python']}, nproc {record['nproc']}, "
          f"revision {record['revision']}, {record['processes']} cold processes")
    for unit in record["wall_s_per_unit"]:
        print(f"# gaussmap {' '.join(unit['argv'])}: wall_s min {unit['min']:.6g} "
              f"median {unit['median']:.6g} q1 {unit['q1']:.6g} q3 {unit['q3']:.6g} "
              f"n={unit['n']}")
    for metric, m in metrics.items():
        print(f"{metric:46s} {m['value']:14.6g} {m['unit']}")
    ratio = failed / attempted if attempted else 1.0
    print(f"{'fail_ratio':46s} {ratio:14.6g} ratio  ({failed} of {attempted} check items)")
    if record["absent"]:
        print(f"# absent layer functions: {', '.join(record['absent'])}")
    for problem in record["problems"]:
        print(f"# PROBLEM: {json.dumps(problem)}")
    print("# record " + json.dumps(record, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "gaussmap", "cli.py")):
        print(f"bench: no gaussmap sources under {ROOT}/src", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, tried, bad, values, record = run_workload(
            name, args.seed, args.seconds, bool(args.trace), ROOT
        )
        print_summary(record, values, tried, bad)
        correct, attempted, failed = correct and ok, attempted + tried, failed + bad
        if len(names) == 1:
            metrics = values
        else:
            metrics.update({f"{name}.{key}": v for key, v in values.items()})
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
