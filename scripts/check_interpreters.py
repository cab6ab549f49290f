#!/usr/bin/env python3
"""Check the pinned output bytes and the command-line parsers under each
interpreter named on the command line.

    python3 scripts/check_interpreters.py PYTHON [PYTHON ...]

For each interpreter (a path or a command name; nothing is searched for),
every ``tier1`` command of ``tests/golden/witness_sha256.json`` is rerun in
a fresh process and its stdout SHA-256 compared with the pinned digest.
Then `gaussmap.cli.parse_strict` is compared with the full argparse parser
on `ACCEPTED` and `OTHER`: each argv of `ACCEPTED` must be read by the
strict parser with the argparse result, and each argv of `OTHER` must give
None or the argparse result, and None whenever argparse exits.  An
interpreter that cannot start is a failing line, and the next one is
checked.  Standard library only.  Exit code 1 on any mismatch or
interpreter that cannot start, 0 otherwise.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(ROOT, "tests", "golden", "witness_sha256.json")

# well-formed calls: the README's examples and the benchmark's workloads
ACCEPTED = (
    "rank-table --g 3..8",
    "rank-table --g 5 --k 2 --format json",
    "kernel --g 5 --k 1 --method both",
    "verify --theorem T6.5 --g 5 --k 1",
    "verify --theorem T6.6 --g 3..8",
    "verify --theorem T6.12 --g 6 --samples 100 --seed 42",
    "rho --g 3 --quadric basis:1,2 --pair 1 3",
    "rho --g 5 --quadric kernel:1,0 --pair 1 1",
    "scan --g 6 --samples 100 --seed 7",
    "verify --theorem T3.1 --g 12",
    "verify --theorem T6.5 --g 9 --seed 13",
    "scan --samples 100 --g 4 --seed 0",
)
# help, abbreviations, repeats and usage errors, which argparse handles
OTHER = (
    "", "-h", "--help", "nope", "verify", "verify -h", "scan --help",
    "verify --bogus", "verify --theorem T3.1 --bogus", "scan --samples -1",
    "verify --the T3.1 --g 3", "verify --g=3 --theorem T3.1",
    "verify --theorem T3.1 --g 3 --g 4", "scan --seed -1 --g 6",
    "rho --g 3 --pair 1", "verify --theorem T9.9 --g 3", "kernel --g 5",
    "kernel --g 5 --k x", "rank-table --g 3 --format xml",
    "verify --theorem T3.1 --g 3 -- x", "rank-table --g 3 extra",
    "rho --g 3 --quadric basis:1,2 --pair 1 -3",
)
# `scan --samples " -1"` and `--k ""` need a value with a space or none
OTHER_SPLIT = [argv.split() for argv in OTHER] + [
    ["scan", "--samples", " -1", "--g", "6"],
    ["rank-table", "--g", "3", "--k", ""],
]

PARSERS = r"""
import contextlib, io, json, sys
from gaussmap import cli

accepted, other = json.load(sys.stdin)
bad = []
for argv, must_accept in [(a, True) for a in accepted] + [(a, False) for a in other]:
    strict = cli.parse_strict(argv)
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            full = vars(cli.build_parser().parse_args(argv))
    except SystemExit:
        full = None
    if strict is None and not must_accept:
        continue
    if strict is None or vars(strict) != full:
        bad.append(argv)
print(json.dumps(bad))
"""
RUN = "import sys; from gaussmap.cli import main; sys.exit(main(sys.argv[1:]))"


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("GAUSSMAP_MAX_GENUS", None)
    return env


def digest_mismatches(python: str) -> list[str]:
    """The `tier1` commands whose stdout under `python` is not the pinned bytes."""
    with open(DIGESTS, encoding="utf-8") as handle:
        pinned = json.load(handle)["tier1"]
    bad = []
    for command, digest in sorted(pinned.items()):
        proc = subprocess.run(
            [python, "-c", RUN, *command.split()], capture_output=True, env=child_env()
        )
        if proc.returncode != 0 or hashlib.sha256(proc.stdout).hexdigest() != digest:
            bad.append(command)
    return bad


def parser_mismatches(python: str) -> list[list[str]]:
    """The argv on which the strict parser and argparse disagree under `python`,
    or the exit status of the comparison when it does not run to the end."""
    corpus = [[argv.split() for argv in ACCEPTED], OTHER_SPLIT]
    proc = subprocess.run(
        [python, "-c", PARSERS],
        input=json.dumps(corpus),
        capture_output=True,
        text=True,
        env=child_env(),
    )
    return json.loads(proc.stdout) if proc.returncode == 0 else [[f"exit {proc.returncode}"]]


def version_of(python: str) -> tuple[str | None, str]:
    """(the version of `python`, "") or, when it cannot start, (None, why)."""
    try:
        proc = subprocess.run(
            [python, "-c", "import platform; print(platform.python_version())"],
            capture_output=True, text=True,
        )
    except OSError as exc:
        return None, exc.strerror or type(exc).__name__
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}"
    return proc.stdout.strip(), ""


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed = False
    for python in argv:
        version, why = version_of(python)
        if version is None:
            failed = True
            print(f"{python}: cannot start ({why})")
            continue
        digests, parsers = digest_mismatches(python), parser_mismatches(python)
        failed = failed or bool(digests or parsers)
        print(
            f"{python} ({version}): digests {'ok' if not digests else digests}, "
            f"parsers {'ok' if not parsers else parsers}"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
