"""One cold benchmark process: import gaussmap, run one CLI call, report.

    python3 bench/worker.py ROOT [--setup-only] [--trace] -- GAUSSMAP_ARGS...

Imports ``gaussmap.cli`` from ROOT/src, calls ``gaussmap.cli.main(argv)``
once with stdout captured, checks the report and prints one JSON object.
``imported`` is a CLOCK_MONOTONIC reading, which the parent compares with
its own reading taken just before it started this process.  ``calib_s``
is the time of ``calibrate`` just before plus just after the call, which
the parent uses to scale the call's times to a fixed host speed.  ``--trace``
wraps the layers with ``layers.Tracer`` first; ``--setup-only`` stops after
the import.  The gaussmap output is never written to a file, because an
``--out`` path is echoed into the report and so into its bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def calibrate() -> float:
    """Seconds for a fixed piece of Python work, the host's speed gauge.

    Like gaussmap it adds fractions, multiplies big integers, and builds
    and probes a dict of tuples a few megabytes large; it uses nothing of
    gaussmap, so a change to the program leaves it alone.  It runs just
    before and just after the timed call, and the two times add up to the
    sample's calibration.
    """
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 1200):
        total += Fraction(i * i + 1, 2 * i + 3)
    x = 3**3000
    for _ in range(150):
        x = x * x % (7**2000 + 1)
    table = {}
    x = 1
    for i in range(15000):
        x = (x * 1103515245 + 12345) % 2**31
        table[(x % 4099, i)] = x
    keys = list(table)
    probe = 0
    for _ in range(15000):
        x = (x * 1103515245 + 12345) % 2**31
        probe += table[keys[x % len(keys)]]
    return time.perf_counter() - start


def check_report(out: bytes) -> dict:
    """Count the report's check items and failed items; flag a bad report."""
    try:
        report = json.loads(out)
        checks = report["checks"]
        failed = sum(1 for item in checks if item["ok"] is not True)
        passed = report["passed"] is True
    except (ValueError, KeyError, TypeError):
        return {"items": 0, "failed_items": 0, "passed": False}
    return {"items": len(checks), "failed_items": failed, "passed": passed}


def main(argv: list[str]) -> int:
    root = argv[0]
    split = argv.index("--")
    flags, cli_argv = argv[1:split], argv[split + 1:]
    sys.path.insert(0, os.path.join(root, "src"))
    import gaussmap.cli

    imported = time.monotonic()
    result = {"imported": imported, "module": gaussmap.cli.__file__}
    if "--setup-only" in flags:
        print(json.dumps(result))
        return 0

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import layers

    tracer = None
    if "--trace" in flags:
        tracer = layers.Tracer()
        tracer.install()

    calib_s = calibrate()
    captured = io.StringIO()
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        code = gaussmap.cli.main(cli_argv)
    main_s = time.perf_counter() - start
    out = captured.getvalue().encode()
    summary = check_report(out)
    wall_s = time.perf_counter() - start
    cpu_s = _cpu_seconds() - cpu0
    calib_s += calibrate()

    result.update(summary)
    result.update(
        exit_code=code,
        sha256=hashlib.sha256(out).hexdigest(),
        output_bytes=len(out),
        main_s=main_s,
        wall_s=wall_s,
        cpu_s=cpu_s,
        calib_s=calib_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        caches=layers.cache_counts(),
    )
    if tracer is not None:
        result.update(tracer.report())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
