#!/usr/bin/env python3
"""Run every theorem suite at desk scale and print a one-line summary each.

Exit code is nonzero if any suite reports a falsified item.  The genus
ranges are set here (`RANGES`); the suites have no default range of their
own.  T3.1 and L6.2, which read no curve, run over genus 3..12; T6.12
over genus 4..9 on the default curve, with 100 sampled directions per
genus; the other suites over genus 3..9 on the default curve and three
seeded random curves.

    PYTHONPATH=src python3 scripts/verify_all.py
"""

import sys
import time

from gaussmap.reports import RunConfig
from gaussmap.suites import THEOREM_IDS, verify_theorem

RANGES = {
    "T3.1": (3, 12),
    "L3.4": (3, 9),
    "L6.2": (3, 12),
    "T6.5": (3, 9),
    "T6.6": (3, 9),
    "T6.9": (3, 9),
    "T6.12": (4, 9),
    "R4.1": (3, 9),
}


def run(seed: int = 0) -> int:
    failures = 0
    for theorem in THEOREM_IDS:
        lo, hi = RANGES[theorem]
        config = RunConfig(
            command="verify",
            genus_min=lo,
            genus_max=hi,
            seed=seed,
            samples=100 if theorem == "T6.12" else None,
        )
        started = time.perf_counter()
        report = verify_theorem(theorem, config)
        elapsed = time.perf_counter() - started
        status = "pass" if report.passed else "FAIL"
        print(
            f"{theorem:<6} g={lo}..{hi}  {len(report.checks):>4} checks  "
            f"{status}  ({elapsed:.1f}s)"
        )
        if not report.passed:
            failures += 1
            for item in report.checks:
                if not item.ok:
                    print(f"    FAILED: {item.item}")
                    print(f"      expected {item.expected}, got {item.got}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(run())
