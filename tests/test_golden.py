"""Golden outputs of the kernel layer, compared byte for byte.

The files in ``tests/golden/`` pin the exact bytes of the rank table, the
canonical kernel bases of both kernel routes at genus 9, and the odd-map
ranks and kernel bases for genus 3..9. Reruns of one build are already
checked to agree elsewhere; these files also catch a change that alters an
answer the same way on every run.

Regenerate them only for an intended, documented output change (say what
changed and why in CHANGES.md):

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import io
import json
import os

import pytest

from gaussmap.cli import main
from gaussmap.gaussian import max_level, odd_kernel_and_rank
from gaussmap.rationals import rat_to_string

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
KERNEL_GENUS = 9


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
                "basis": [[rat_to_string(x) for x in vec] for vec in result.basis],
            }
            order += 2
    return json.dumps(table, indent=1, sort_keys=True) + "\n"


def cases():
    """Golden file name -> zero-argument function producing its text."""
    out = {"rank-table_g3-12.csv": lambda: cli_stdout("rank-table", "--g", "3..12")}
    for k in range(max_level(KERNEL_GENUS) + 1):
        argv = ("kernel", "--g", str(KERNEL_GENUS), "--k", str(k), "--method", "both")
        out[f"kernel_g{KERNEL_GENUS}_k{k}.json"] = lambda argv=argv: cli_stdout(*argv)
    out["odd_kernels_g3-9.json"] = odd_kernels_json
    return out


@pytest.mark.parametrize("name", sorted(cases()))
def test_output_matches_golden_bytes(name):
    with open(os.path.join(GOLDEN, name), "rb") as handle:
        expected = handle.read()
    assert cases()[name]().encode() == expected


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for name, produce in cases().items():
        with open(os.path.join(GOLDEN, name), "w", encoding="utf-8", newline="") as handle:
            handle.write(produce())
