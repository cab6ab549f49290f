"""Golden outputs of the kernel and pairing layers, compared byte for byte.

The files in ``tests/golden/`` pin the exact bytes of the rank table, the
canonical kernel bases of both kernel routes at genus 9, the odd-map ranks
and kernel bases for genus 3..9, the witness and diagonal functionals of
every level at genus 3..9 (coefficients, closed forms, rho values and the
A_{k,0} and A_{k,0,0} bases), the report of every theorem suite for
genus 3..7, one seeded direction scan, and single
``rho`` values: licensed zero and nonzero values and ``BeyondThreshold``
payloads. ``witness_sha256.json`` pins the runs above genus 7 by the
stdout SHA-256 of every theorem suite and a scan at genus 8..12 (checked
here), and of ``T6.5`` at genus 15, 20, 25, 30 and 40, ``T6.6`` and
``T6.9`` at genus 15, 20 and 25, ``L3.4`` and ``L6.2`` at genus 20 and 25,
``L3.4`` at genus 30, ``T3.1`` at genus 20, 30, 40 and 50, ``R4.1`` at
genus 20, 30 and 40, ``T6.12`` (20 samples) at genus 15, 20, 30 and 37,
``T6.12`` and a scan (5 samples) at genus 38, ``T6.9`` at genus 30,
``L3.4`` at genus 40, ``L3.4``, ``L6.2`` and ``R4.1`` at genus 50,
``T6.12`` (5 samples) at genus 45 and the
``kernel --k 5 --method both`` JSON at genus 25 past the default cap (checked in ``test_frontier.py``; the genus-38
digests were first written by the change that let integers of over 4,300
digits print, since the code before it exited 1 on them). Reruns of one build are already checked to agree
elsewhere; these files also catch a change that alters an answer the same
way on every run.

Regenerate them only for an intended, documented output change (say what
changed and why in CHANGES.md):

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os

import pytest

from gaussmap.cli import main
from gaussmap.curve import default_curve
from gaussmap.gaussian import max_level, odd_kernel_and_rank
from gaussmap.linalg import fractions
from gaussmap.rationals import rat_to_string
from gaussmap.rho import diagonal_functional, witness_functional

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
KERNEL_GENUS = 9
THEOREMS = ("T3.1", "L3.4", "L6.2", "T6.5", "T6.6", "T6.9", "T6.12", "R4.1")
THEOREM_GENERA = "3..7"
SCAN = ("scan", "--g", "6", "--seed", "7")
# (file tag, genus, quadric, pair): licensed nonzero and zero values, and
# BeyondThreshold payloads, on default curves and on one explicit curve.
RHO_CASES = (
    ("g3_basis1-2_1-3", "3", "basis:1,2", ("1", "3")),
    ("g3_basis1-2_3-3", "3", "basis:1,2", ("3", "3")),
    ("g5_kernel1-0_3-5", "5", "kernel:1,0", ("3", "5")),
    ("g5_kernel1-0_5-5", "5", "kernel:1,0", ("5", "5")),
    ("g6_kernel1-1_1-5", "6", "kernel:1,1", ("1", "5")),
    ("g7_kernel2-0_5-7", "7", "kernel:2,0", ("5", "7")),
    ("g7_kernel2-0_7-7", "7", "kernel:2,0", ("7", "7")),
)
RHO_CURVE = ("g4_curve_basis1-3_1-3", "0,1/2,-3,2,5/3,7,-1,4,9,11", "basis:1,3", ("1", "3"))
DIGESTS = os.path.join(GOLDEN, "witness_sha256.json")
# section -> the CLI calls whose stdout digests it pins; the frontier
# section runs with GAUSSMAP_MAX_GENUS raised to FRONTIER_CAP
DIGEST_RUNS = {
    "tier1": tuple(
        f"verify --theorem {theorem} --g 8..12"
        for theorem in ("T3.1", "L3.4", "L6.2", "T6.5", "T6.6", "T6.9", "T6.12", "R4.1")
    )
    + ("scan --g 8..12 --samples 100 --seed 0",),
    "frontier": tuple(
        f"verify --theorem {theorem} --g {genus}"
        for theorem, genus in (
            ("T6.5", 15), ("T6.5", 20), ("T6.5", 25), ("T6.5", 30), ("T6.5", 40),
            ("T6.6", 15), ("T6.6", 20), ("T6.6", 25),
            ("T6.9", 15), ("T6.9", 20), ("T6.9", 25),
        )
    )
    + tuple(
        f"verify --theorem {theorem} --g {genus}"
        for theorem in ("L3.4", "L6.2")
        for genus in (20, 25)
    )
    + ("verify --theorem L3.4 --g 30",)
    + tuple(f"verify --theorem T3.1 --g {genus}" for genus in (20, 30, 40, 50))
    + tuple(f"verify --theorem R4.1 --g {genus}" for genus in (20, 30, 40))
    + tuple(
        f"verify --theorem T6.12 --g {genus} --samples 20" for genus in (15, 20, 30)
    )
    + ("verify --theorem T6.12 --g 38 --samples 5", "scan --g 38 --samples 5")
    + (
        "verify --theorem T6.9 --g 30",
        "verify --theorem L3.4 --g 40",
        "verify --theorem T6.12 --g 37 --samples 20",
        "kernel --g 25 --k 5 --method both",
    )
    + tuple(f"verify --theorem {theorem} --g 50" for theorem in ("L3.4", "L6.2", "R4.1"))
    + ("verify --theorem T6.12 --g 45 --samples 5",),
}
FRONTIER_CAP = "60"


def cli_stdout(*argv):
    """Stdout of one CLI call. ``--out`` is never passed: the report echoes it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"gaussmap {' '.join(argv)} exited {code}")
    return out.getvalue()


def odd_kernels_json():
    """Rank and canonical basis of every odd map with a nonzero domain, g=3..9."""
    table = {}
    for genus in range(3, 10):
        order = 1
        while (result := odd_kernel_and_rank(genus, order)).domain_dim:
            table[f"g={genus} m={order}"] = {
                "rank": result.rank,
                "basis": [
                    [rat_to_string(x) for x in fractions(row, genus * (genus - 1) // 2)]
                    for row in result.basis
                ],
            }
            order += 2
    return json.dumps(table, indent=1, sort_keys=True) + "\n"


def functionals_json():
    """Witness and diagonal functional of every level on the default curves, g=3..9."""
    table = {}
    for genus in range(3, 10):
        curve = default_curve(genus)
        for k in range((genus - 3) // 2 + 1):
            table[f"g={genus} k={k}"] = {
                "witness": witness_functional(genus, k, curve).to_json(),
                "diagonal": diagonal_functional(genus, k, curve).to_json(),
            }
    return json.dumps(table, indent=1, sort_keys=True) + "\n"


def cli_calls():
    """Golden file name -> the CLI call whose stdout it holds."""
    calls = {"rank-table_g3-12.csv": ("rank-table", "--g", "3..12")}
    for k in range(max_level(KERNEL_GENUS) + 1):
        argv = ("kernel", "--g", str(KERNEL_GENUS), "--k", str(k), "--method", "both")
        calls[f"kernel_g{KERNEL_GENUS}_k{k}.json"] = argv
    for theorem in THEOREMS:
        tag = THEOREM_GENERA.replace("..", "-")
        calls[f"verify_{theorem}_g{tag}.json"] = (
            "verify", "--theorem", theorem, "--g", THEOREM_GENERA
        )
    calls["scan_g6_seed7.json"] = SCAN
    for tag, genus, quadric, pair in RHO_CASES:
        calls[f"rho_{tag}.json"] = ("rho", "--g", genus, "--quadric", quadric, "--pair", *pair)
    tag, curve, quadric, pair = RHO_CURVE
    calls[f"rho_{tag}.json"] = ("rho", "--curve", curve, "--quadric", quadric, "--pair", *pair)
    return calls


def cases():
    """Golden file name -> zero-argument function producing its text."""
    out = {name: lambda argv=argv: cli_stdout(*argv) for name, argv in cli_calls().items()}
    out["odd_kernels_g3-9.json"] = odd_kernels_json
    out["functionals_g3-9.json"] = functionals_json
    return out


def stdout_digest(command):
    """SHA-256 of the stdout of one CLI call, given as one string."""
    return hashlib.sha256(cli_stdout(*command.split()).encode()).hexdigest()


def pinned_digest(section, command):
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle)[section][command]


@pytest.mark.parametrize("name", sorted(cases()))
def test_output_matches_golden_bytes(name):
    with open(os.path.join(GOLDEN, name), "rb") as handle:
        expected = handle.read()
    assert cases()[name]().encode() == expected


@pytest.mark.parametrize("command", DIGEST_RUNS["tier1"])
def test_witness_path_matches_its_digest(command):
    assert stdout_digest(command) == pinned_digest("tier1", command)


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for name, produce in cases().items():
        with open(os.path.join(GOLDEN, name), "w", encoding="utf-8", newline="") as handle:
            handle.write(produce())
    os.environ["GAUSSMAP_MAX_GENUS"] = FRONTIER_CAP
    digests = {
        section: {command: stdout_digest(command) for command in commands}
        for section, commands in DIGEST_RUNS.items()
    }
    with open(DIGESTS, "w", encoding="utf-8", newline="") as handle:
        handle.write(json.dumps(digests, indent=1, sort_keys=True) + "\n")
