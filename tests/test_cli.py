"""End-to-end command-line behavior: output shapes, exit codes, determinism."""

import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaussmap.cli as cli
import gaussmap.gaussian as gaussian
import gaussmap.rho as rho
from gaussmap.cli import main
from gaussmap.curve import Jets
from conftest import clear_caches

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
ELAPSED = re.compile(r"# (total )?elapsed [0-9.]+s\n")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- rank-table ----------------------------------------------------------------------


def test_rank_table_csv_output(capsys):
    code, out, _ = run(capsys, "rank-table", "--g", "3..5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "g,k,rank,dim_ker,rank_formula_ok"
    assert "5,2,1,0,true" in lines
    assert len(lines) == 1 + 2 + 2 + 3


def test_rank_table_single_cell_row(capsys):
    code, out, _ = run(capsys, "rank-table", "--g", "5", "--k", "2")
    assert code == 0
    assert out.strip().splitlines()[1] == "5,2,1,0,true"


def test_rank_table_rejects_genus_below_three(capsys):
    code, _, err = run(capsys, "rank-table", "--g", "2..3")
    assert code == 2
    assert "genus" in err


def test_rank_table_json_report(capsys):
    code, out, _ = run(capsys, "rank-table", "--g", "3", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["theorem"] == "T3.1" and report["passed"] is True
    assert len(report["checks"]) == 2


# -- genus cap -----------------------------------------------------------------------


def test_hard_genus_cap_is_enforced_and_overridable(capsys, monkeypatch):
    code, _, err = run(capsys, "rank-table", "--g", "13")
    assert code == 2 and "GAUSSMAP_MAX_GENUS" in err
    monkeypatch.setenv("GAUSSMAP_MAX_GENUS", "13")
    code, out, _ = run(capsys, "rank-table", "--g", "13", "--k", "6")
    assert code == 0
    assert out.strip().splitlines()[1] == "13,6,1,0,true"


def test_invalid_cap_value_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("GAUSSMAP_MAX_GENUS", "many")
    code, _, err = run(capsys, "rank-table", "--g", "5")
    assert code == 2 and "GAUSSMAP_MAX_GENUS" in err


# -- kernel --------------------------------------------------------------------------


def test_kernel_reports_agreeing_methods(capsys):
    code, out, _ = run(
        capsys, "kernel", "--g", "5", "--k", "1", "--method", "both"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["methods_agree"] is True
    assert payload["dimension"] == 1
    assert payload["basis"] == [{"1,4": "1", "2,3": "-3"}]
    assert payload["map"] == "mu_2"


def test_kernel_at_the_chain_end_is_empty(capsys):
    code, out, _ = run(capsys, "kernel", "--g", "7", "--k", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 0 and payload["basis"] == []


def test_kernel_level_out_of_range_is_usage_error(capsys):
    code, _, err = run(capsys, "kernel", "--g", "7", "--k", "4")
    assert code == 2 and "--k" in err


def test_kernel_requires_single_genus(capsys):
    code, _, err = run(capsys, "kernel", "--g", "5..6", "--k", "1")
    assert code == 2


# -- verify --------------------------------------------------------------------------


def test_verify_runs_a_suite_and_reports_timing_on_stderr(capsys):
    code, out, err = run(
        capsys,
        "verify", "--theorem", "T6.5", "--g", "5", "--k", "1",
        "--samples", "1", "--seed", "3",
    )
    assert code == 0
    report = json.loads(out)
    assert report["theorem"] == "T6.5" and report["passed"] is True
    assert report["seed"] == 3
    assert "timing" not in out
    assert "elapsed" in err


def test_verify_unknown_theorem_is_usage_error(capsys):
    code, _, _ = run(capsys, "verify", "--theorem", "T9.9", "--g", "5")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--theorem", "R4.1", "--g", "4", "--k", "7"),
        ("verify", "--theorem", "T6.12", "--g", "5", "--k", "9"),
    ],
    ids=["R4.1", "T6.12"],
)
def test_k_is_a_usage_error_where_the_suite_has_no_levels(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.splitlines() == [f"gaussmap: error: --k does not apply to --theorem {argv[2]}"]


def test_verify_output_is_byte_identical_across_reruns(capsys):
    args = (
        "verify", "--theorem", "R4.1", "--g", "4", "--samples", "1",
        "--seed", "5",
    )
    code_a, out_a, _ = run(capsys, *args)
    code_b, out_b, _ = run(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_verify_markdown_format(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--theorem", "L6.2", "--g", "4", "--format", "md",
    )
    assert code == 0
    assert out.startswith("# Verification report: L6.2")


def test_verify_accepts_an_explicit_curve_file(capsys, tmp_path):
    path = tmp_path / "curve.json"
    path.write_text(
        json.dumps(
            {"branch_points": ["0", "1", "-1", "2", "-2", "3", "-3", "1/2"]}
        )
    )
    code, out, _ = run(
        capsys, "verify", "--theorem", "T6.6", "--curve", str(path)
    )
    assert code == 0
    report = json.loads(out)
    assert report["genus"] == 3
    assert report["curve"]["branch_points"][-1] == "1/2"


def test_verify_curve_and_genus_conflict_is_usage_error(capsys):
    code, _, err = run(
        capsys,
        "verify", "--theorem", "T6.6", "--g", "4",
        "--curve", "0,1,-1,2,-2,3,-3,1/2",
    )
    assert code == 2 and "conflicts" in err


# -- rho -----------------------------------------------------------------------------


def test_rho_known_zero_and_nonzero_values(capsys):
    code, out, _ = run(
        capsys,
        "rho", "--g", "3", "--quadric", "basis:1,2", "--pair", "1", "1",
    )
    assert code == 0 and json.loads(out)["value"] == "0"
    code, out, _ = run(
        capsys,
        "rho", "--g", "3", "--quadric", "basis:1,2", "--pair", "1", "3",
    )
    assert code == 0
    assert json.loads(out)["value"] == "-1/322620641280000"


def test_rho_beyond_threshold_payload_still_exits_zero(capsys):
    code, out, _ = run(
        capsys,
        "rho", "--g", "3", "--quadric", "basis:1,2", "--pair", "3", "3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["error"]["error"] == "BeyondThreshold"
    assert payload["error"]["first_nonzero"] == {
        "h": 2, "l": 2, "value": "1/40327580160000"
    }


def test_rho_accepts_kernel_and_json_quadric_specs(capsys):
    code, out, _ = run(
        capsys,
        "rho", "--g", "5", "--quadric", "kernel:1,0", "--pair", "1", "1",
    )
    assert code == 0 and json.loads(out)["value"] == "0"
    code, out, _ = run(
        capsys,
        "rho", "--g", "5", "--quadric", '{"1,4": "1", "2,3": "-3"}',
        "--pair", "1", "1",
    )
    assert code == 0 and json.loads(out)["value"] == "0"


def test_rho_malformed_quadric_is_usage_error(capsys):
    for bad in ("basis:9,9", "kernel:1,5", "{]", '{"55": "1"}'):
        code, _, err = run(
            capsys, "rho", "--g", "5", "--quadric", bad, "--pair", "1", "1"
        )
        assert code == 2, bad


@pytest.mark.parametrize("inexact", ["0.1", "true"])
@pytest.mark.parametrize(
    "flags",
    [
        ("--curve", '{"branch_points": [0, %s, 2, 3, 4, 5, 6, 7]}', "--quadric", "basis:1,2"),
        ("--g", "3", "--quadric", '{"1,2": %s}'),
    ],
    ids=["curve", "quadric"],
)
def test_json_floats_and_booleans_are_usage_errors(capsys, flags, inexact):
    argv = [flag % inexact if "%s" in flag else flag for flag in flags]
    code, out, err = run(capsys, "rho", *argv, "--pair", "1", "1")
    assert code == 2 and out == ""
    assert "not an exact rational" in err


def test_rho_even_pair_is_usage_error(capsys):
    code, _, err = run(
        capsys,
        "rho", "--g", "3", "--quadric", "basis:1,2", "--pair", "2", "2",
    )
    assert code == 2 and "odd" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("scan", "--g", "5", "--samples", "-3"),
        ("verify", "--theorem", "T6.12", "--g", "5", "--samples", "-1"),
        ("verify", "--theorem", "R4.1", "--g", "4", "--samples", "-2"),
    ],
)
def test_a_negative_sample_count_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "--samples: must not be negative" in err
    assert "Traceback" not in err
    # zero stays a valid count
    code, out, _ = run(capsys, *argv[:-1], "0")
    assert code == 0 and json.loads(out)["passed"] is True


# -- scan ----------------------------------------------------------------------------


def test_scan_classifies_corner_and_sampled_directions(capsys):
    code, out, _ = run(
        capsys, "scan", "--g", "4", "--samples", "6", "--seed", "1"
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    items = [c["item"] for c in report["checks"]]
    assert any("direction (1,0)" in i for i in items)
    assert any("direction (0,1)" in i for i in items)
    assert any("direction (1,1)" in i for i in items)
    sampled = [
        c for c in report["checks"]
        if "direction (" in c["item"]
        and "(1,0)" not in c["item"]
        and "(0,1)" not in c["item"]
        and "(1,1)" not in c["item"]
    ]
    assert len(sampled) == 6
    bound = [c for c in report["checks"] if "bound" in c["item"]]
    assert bound and bound[0]["got"] == "6"


def test_scan_writes_deterministic_output_files(capsys, tmp_path):
    path = tmp_path / "scan.json"
    args = [
        "scan", "--g", "4", "--samples", "2", "--seed", "9",
        "--out", str(path),
    ]
    assert main(args) == 0
    capsys.readouterr()
    first = path.read_bytes()
    assert main(args) == 0
    capsys.readouterr()
    assert path.read_bytes() == first


@pytest.mark.parametrize(
    "argv, target, reason",
    [
        (("verify", "--theorem", "T3.1", "--g", "3"), "missing/x.json", "No such file or directory"),
        (("rank-table", "--g", "3..4"), "", "Is a directory"),
    ],
)
def test_an_unwritable_out_path_is_a_usage_error(capsys, tmp_path, argv, target, reason):
    # exit 1 means a falsified check; a file that cannot be written is exit 2
    path = tmp_path / target
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert (code, out) == (2, "")
    assert err == f"gaussmap: error: cannot write --out {path}: {reason}\n"


@pytest.mark.parametrize(
    "argv, computes",
    [
        (("verify", "--theorem", "T6.9", "--g", "20"), "verify_theorem"),
        (("scan", "--g", "20", "--samples", "100"), "scan_report"),
    ],
)
def test_an_unwritable_out_path_fails_before_anything_is_computed(
    capsys, tmp_path, monkeypatch, argv, computes
):
    def refuse(*args):
        raise AssertionError("the report was computed before --out was opened")

    monkeypatch.setattr(cli, computes, refuse)
    monkeypatch.setenv("GAUSSMAP_MAX_GENUS", "60")
    path = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert (code, out) == (2, "")
    assert err == (
        f"gaussmap: error: cannot write --out {path}: No such file or directory\n"
    )


@pytest.mark.parametrize(
    "argv",
    [("scan", "--g", "3"), ("verify", "--theorem", "T6.12", "--g", "3")],
)
def test_genus_three_scan_ends_with_no_random_directions(argv):
    # xi^1 spans the direction space at genus 3, so no direction of top
    # order >= 3 exists to sample; the run must end, not search forever
    proc = subprocess.run(
        [sys.executable, "-m", "gaussmap.cli", *argv],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["passed"] is True
    (sampled,) = [c for c in report["checks"] if "sampled" in c["item"]]
    assert sampled["got"] == "0 sampled"
    assert any("direction (1)" in c["item"] for c in report["checks"])


# -- falsifications are results, not crashes -----------------------------------------


def patch_jet(monkeypatch, row):
    """Add 1/7 to the 0th jet of canonical frame function ``row`` in the
    source of the curve's jet store."""
    original = Jets._column

    def patched(jets, n):
        column, den = original(jets, n)
        if n == 0:
            column = [7 * x for x in column]
            column[row] += den
            den *= 7
        return column, den

    monkeypatch.setattr(Jets, "_column", patched)


@pytest.fixture
def faulty_jet(monkeypatch):
    """A fault in the first frame function breaks the symmetry of rho."""
    patch_jet(monkeypatch, 0)


@pytest.fixture
def blocking_jet(monkeypatch):
    """A fault in the second frame function makes D(0,0) = 1/49 nonzero,
    which blocks every rho pair."""
    patch_jet(monkeypatch, 1)


def test_a_faulty_jet_gives_failing_scan_items_and_exit_one(capsys, faulty_jet):
    code, out, err = run(capsys, "scan", "--g", "4", "--samples", "3")
    assert code == 1
    assert "Traceback" not in err
    report = json.loads(out)
    assert report["passed"] is False
    failing = [c for c in report["checks"] if not c["ok"]]
    assert failing
    assert all("rho symmetry failed" in c["got"] for c in failing)
    assert any("direction (1,0)" in c["item"] and c["ok"] for c in report["checks"])


def test_a_falsified_identity_in_the_witness_suite_is_a_failing_item(capsys, faulty_jet):
    code, out, err = run(capsys, "verify", "--theorem", "T6.6", "--g", "4", "--samples", "0")
    assert code == 1
    assert "Traceback" not in err and "falsified:" not in err
    report = json.loads(out)
    assert report["passed"] is False
    failing = [c for c in report["checks"] if not c["ok"]]
    assert failing
    assert all("rho symmetry failed" in c["got"] for c in failing)
    assert all("witness functional evaluated" in c["item"] for c in failing)


@pytest.mark.parametrize(
    "argv",
    [
        ("scan", "--g", "4", "--samples", "3"),
        ("verify", "--theorem", "T6.5", "--g", "4", "--samples", "0"),
        ("verify", "--theorem", "T6.6", "--g", "4", "--samples", "0"),
        ("verify", "--theorem", "T6.9", "--g", "4", "--samples", "0"),
    ],
)
def test_a_blocked_pair_inside_a_suite_is_a_failing_item(capsys, blocking_jet, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert "Traceback" not in err and "error:" not in err
    report = json.loads(out)
    assert report["passed"] is False
    failing = [c for c in report["checks"] if not c["ok"]]
    assert any("D(0,0) = 1/49 blocks" in c["got"] for c in failing)


def test_a_blocked_pair_in_the_rho_command_is_still_a_payload(capsys, blocking_jet):
    code, out, _ = run(capsys, "rho", "--g", "4", "--quadric", "basis:1,2", "--pair", "1", "1")
    assert code == 0
    payload = json.loads(out)["error"]
    assert payload["error"] == "BeyondThreshold"
    assert payload["first_nonzero"] == {"h": 0, "l": 0, "value": "1/49"}


def test_a_representative_mismatch_is_a_failing_item(capsys, monkeypatch):
    original = gaussian._mu_representative

    def skewed(q, k, n):
        # one more in the constant term of every representative but n = 0
        coeffs = original(q, k, n)
        return [coeffs[0] + q.tensor[1], *coeffs[1:]] if n else coeffs

    monkeypatch.setattr(gaussian, "_mu_representative", skewed)
    # the cross-check builds mu_2 of the basis quadrics once per genus
    clear_caches()
    try:
        for theorem in ("L3.4", "T6.5"):
            code, out, err = run(capsys, "verify", "--theorem", theorem, "--g", "4", "--samples", "0")
            assert code == 1 and "Traceback" not in err
            failing = [c["got"] for c in json.loads(out)["checks"] if not c["ok"]]
            assert failing == ["representative mismatch for mu_2: n=0 gives -1, n=1 gives 0"]
    finally:
        clear_caches()


def test_a_non_proportional_factorization_is_a_failing_item(capsys, monkeypatch):
    """x^2 mu_4(Q) of one Ker mu_0 basis quadric Q gains x^2: every
    representative of mu_4(Q) gains the same 1, so they still agree, and
    the constant at the pivot stays 1, so only proportionality can fail."""
    original = gaussian._mu_representative
    target = gaussian.kernel_via_equations(4).level(0).quadrics[0]

    def skewed(q, k, n):
        coeffs = original(q, k, n)
        return [coeffs[0] + q.tensor[1], *coeffs[1:]] if k == 1 and q == target else coeffs

    monkeypatch.setattr(gaussian, "_mu_representative", skewed)
    code, out, err = run(capsys, "verify", "--theorem", "L3.4", "--g", "4", "--samples", "0")
    assert code == 1 and "Traceback" not in err
    failing = [(c["item"], c["got"]) for c in json.loads(out)["checks"] if not c["ok"]]
    assert failing == [
        ("g=4 k=0 factorization on [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]",
         "3 basis elements, frame constant 1")
    ]


def _failing_rank_law_items(capsys, genus):
    """Exit code, stderr and failing items of ``verify --theorem T3.1``,
    with both kernel routes rebuilt before and after."""
    clear_caches()
    try:
        code, out, err = run(capsys, "verify", "--theorem", "T3.1", "--g", str(genus))
    finally:
        clear_caches()
    return code, err, [c["item"] for c in json.loads(out)["checks"] if not c["ok"]]


def test_a_perturbed_identity_row_fails_only_the_route_comparison(capsys, monkeypatch):
    """The slot alpha_0 (x) alpha_3 of Q_13 is read only by the identity of
    order (0, 0) at x-degree 3, so doubling its weight changes one
    coefficient of one oracle row, at one weight; the equations route and
    its rank items do not read it."""
    original = gaussian.pair_slots

    def skewed(i, j):
        slots = original(i, j)
        return (*slots[:3], (0, 3, -2)) if (i, j) == (1, 3) else slots

    monkeypatch.setattr(gaussian, "pair_slots", skewed)
    code, err, failing = _failing_rank_law_items(capsys, 6)
    assert code == 1 and "Traceback" not in err
    assert failing == ["g=6 equation kernels match the polynomial oracle"]


def test_a_perturbed_identity_row_fails_the_membership_items(capsys, monkeypatch):
    """At genus 5 the identity row (2, 0) of slot sum 4 is -6 a_14 - 2 a_23,
    and Ker mu_2 is spanned by Q_14 - 3 Q_23; one more at a_14 takes that
    quadric out of Ker mu_2 by the oracle's rows, and makes the n = 0
    representative of mu_2 differ from the n = 1 one on Q_14."""
    original = gaussian._weight_rows

    def skewed(fall, slot_sum, slots, order):
        for h, n, row in original(fall, slot_sum, slots, order):
            yield h, n, [row[0] + 1, *row[1:]] if (slot_sum, h, n) == (4, 2, 0) else row

    monkeypatch.setattr(gaussian, "_weight_rows", skewed)
    clear_caches()
    try:
        failing = {}
        for theorem in ("L6.2", "L3.4"):
            code, out, err = run(capsys, "verify", "--theorem", theorem, "--g", "5", "--samples", "0")
            assert code == 1 and "Traceback" not in err
            failing[theorem] = [(c["item"], c["got"]) for c in json.loads(out)["checks"] if not c["ok"]]
    finally:
        clear_caches()
    curve = "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]"
    assert failing == {
        "L6.2": [("g=5 k=1 b-coordinates above sum 5 vanish", "quadric is not in Ker mu_2")],
        "L3.4": [
            (f"g=5 k=0 factorization on {curve}",
             "representative mismatch for mu_2: n=0 gives -5/2*x^2, n=1 gives -3*x^2"),
            (f"g=5 k=1 factorization on {curve}", "quadric is not in Ker mu_2"),
        ],
    }


@pytest.mark.parametrize("theorem, failing", [
    ("T6.5", ["quadric is not in the level-0 kernel; mu_2 undefined on it"]),
    ("T6.6", ["quadric is not in Ker mu_0", "quadric is not in Ker mu_2"]),
])
def test_a_computed_quadric_that_fails_membership_is_a_failing_item(
    capsys, monkeypatch, theorem, failing
):
    """The cross-check's basis quadrics and the witness levels' kernel
    quadrics are computed, never supplied, so a refused membership refutes
    the statement instead of ending the run as a usage error."""
    monkeypatch.setattr(gaussian, "is_in_kernel", lambda q, k: False)
    clear_caches()
    try:
        code, out, err = run(capsys, "verify", "--theorem", theorem, "--g", "5", "--samples", "0")
    finally:
        clear_caches()
    assert code == 1 and "Traceback" not in err
    assert [c["got"] for c in json.loads(out)["checks"] if not c["ok"]] == failing


def test_a_perturbed_level_equation_fails_the_rank_items(capsys, monkeypatch):
    """The level-1 equation of weight 5 is 3 a_14 + a_23; one less at a_14
    makes the level-2 equation of that weight, 12 a_14 + 6 a_23, a multiple
    of it, so Ker mu_4 keeps one dimension too many."""
    original = gaussian._level_rows

    def skewed(genus, k):
        rows = original(genus, k)
        if k == 1:
            rows[2] = {**rows[2], 2: rows[2][2] - 1}
        return rows

    monkeypatch.setattr(gaussian, "_level_rows", skewed)
    code, err, failing = _failing_rank_law_items(capsys, 6)
    assert code == 1 and "Traceback" not in err
    assert failing == [
        "g=6 k=2 rank(mu_4)",
        "g=6 k=2 dim Ker mu_4",
        "g=6 strict kernel nesting",
        "g=6 equation kernels match the polynomial oracle",
    ]


class _Vanishing(Fraction):
    """A nonzero value whose multiples vanish: a broken witness value."""

    def __rmul__(self, other):
        return Fraction(0)


def test_a_certificate_without_a_nonzero_witness_is_a_failing_item(capsys, monkeypatch):
    original = rho._diagonal_values

    def broken(genus, k, curve):
        hyper, pairings, values = original(genus, k, curve)
        return hyper, pairings, tuple(_Vanishing(v) if v else v for v in values)

    monkeypatch.setattr(rho, "_diagonal_values", broken)
    code, out, err = run(capsys, "scan", "--g", "4", "--samples", "3")
    assert code == 1 and "Traceback" not in err
    report = json.loads(out)
    failing = [c for c in report["checks"] if not c["ok"]]
    assert failing
    assert all("needs a nonzero witness" in c["got"] for c in failing)
    assert any("direction (1,0)" in c["item"] and c["ok"] for c in report["checks"])


def _scanned_directions(out):
    """(present coefficient indices, check) of each direction item of a scan."""
    for c in json.loads(out)["checks"]:
        if " direction (" in c["item"]:
            coeffs = c["item"].split("(")[1].split(")")[0].split(",")
            yield [i for i, x in enumerate(coeffs) if x != "0"], c


def test_a_perturbed_table_entry_fails_exactly_the_directions_that_read_it(
    capsys, monkeypatch
):
    original = rho.Certifier._build

    def perturbed(self, k):
        witness, value, cross = original(self, k)
        if k == 1:
            cross = {**cross, (0, 1): cross[(0, 1)] + Fraction(1, 7)}
        return witness, value, cross

    monkeypatch.setattr(rho.Certifier, "_build", perturbed)
    code, out, err = run(capsys, "scan", "--g", "6", "--samples", "20")
    assert code == 1 and "Traceback" not in err
    reads = 0
    for present, c in _scanned_directions(out):
        # top order 5 is level 1; (0, 1) is the pair (xi^1, xi^3)
        read = present[-1] == 2 and present[:2] == [0, 1]
        reads += read
        assert c["ok"] != read, c["item"]
        if read:
            assert c["got"] == (
                "licensed cross pair (xi^1, xi^3) must vanish below the witness threshold"
            )
    assert reads


def test_a_level_that_fails_to_build_fails_each_of_its_directions(capsys, monkeypatch):
    original = rho._diagonal_values
    built = []
    message = "A_{1,0} basis[0] has D(8,4) = 1/7; the diagonal evaluation at order 10 is not licensed"

    def refused(genus, k, curve):
        built.append(k)
        if k == 1:
            raise rho.ThresholdNotExtended(message)
        return original(genus, k, curve)

    monkeypatch.setattr(rho, "_diagonal_values", refused)
    code, out, err = run(capsys, "scan", "--g", "6", "--samples", "20")
    assert code == 1 and "Traceback" not in err
    assert sorted(built) == [0, 1]
    for present, c in _scanned_directions(out):
        assert c["ok"] == (present[-1] < 2), c["item"]
        if present[-1] == 2:
            assert c["got"] == message


# -- argparse-level usage errors -----------------------------------------------------


def test_missing_required_flags_exit_two(capsys):
    assert main(["rho", "--g", "3"]) == 2
    capsys.readouterr()
    assert main(["verify", "--g", "3"]) == 2
    capsys.readouterr()
    assert main(["kernel", "--g", "5"]) == 2
    capsys.readouterr()
    assert main(["verify", "--theorem", "T6.5"]) == 2  # no --g, no --curve
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["nope"],
        ["verify"],
        ["verify", "--bogus"],
        ["verify", "--theorem", "T3.1", "--bogus"],
        ["verify", "-h"],
        ["scan", "--samples", "-1"],
        ["verify", "--the", "T3.1", "--g", "3"],
        ["verify", "--g=3", "--theorem", "T3.1"],
        ["verify", "--theorem", "T3.1", "--g", "3", "--g", "4"],
        ["scan", "--seed", "-1", "--g", "6"],
        ["scan", "--samples", " -1", "--g", "6"],
        ["rho", "--g", "3", "--pair", "1"],
        ["verify", "--theorem", "T9.9", "--g", "3"],
        ["kernel", "--g", "5"],
    ],
)
def test_the_subcommand_parser_prints_what_the_full_parser_prints(
    capsys, monkeypatch, argv
):
    built = []
    original = cli.build_parser

    def recorded(only=None):
        built.append(only)
        return original(only)

    def untimed(code, out, err):
        return code, out, ELAPSED.sub("", err)

    monkeypatch.setattr(cli, "build_parser", recorded)
    lazy = untimed(main(argv), *capsys.readouterr())
    monkeypatch.setattr(cli, "build_parser", lambda only=None: original())
    full = untimed(main(argv), *capsys.readouterr())
    assert lazy == full
    assert built == [argv[0] if argv and argv[0] in cli.COMMANDS else None]
    if argv == ["verify", "--theorem", "T3.1", "--bogus"]:
        # an unknown option is reported with the top-level usage
        assert "usage: gaussmap [-h] {rank-table,kernel,verify,rho,scan} ...\n" in lazy[2]


# -- the strict parser against argparse ---------------------------------------------


def argparse_vars(argv):
    """`vars()` of the full argparse parser's result, or None where it exits."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            return vars(cli.build_parser().parse_args(argv))
    except SystemExit:
        return None


FLAGS = sorted({flag for _, _, options in cli.COMMANDS.values() for flag, _ in options})
VALUES = ["3", "3..5", "-1", " 7", "", "T3.1", "md", "x", "5", "json", "both", "basis:1,2"]
TOKENS = FLAGS + ["-h", "--help", "--the", "--g=5", "--"] + VALUES


def assert_agrees(argv):
    strict, full = cli.parse_strict(argv), argparse_vars(argv)
    if full is None:
        assert strict is None, argv
    elif strict is not None:
        assert vars(strict) == full, argv


@settings(max_examples=400, deadline=None)
@given(
    command=st.sampled_from([*cli.COMMANDS, "nope", "-h"]),
    rest=st.lists(st.sampled_from(TOKENS), max_size=9),
)
def test_the_strict_parser_reads_what_argparse_reads_or_declines(command, rest):
    assert_agrees([command, *rest])


@settings(max_examples=300, deadline=None)
@given(
    command=st.sampled_from(list(cli.COMMANDS)),
    groups=st.lists(st.tuples(st.integers(0, 9), st.sampled_from(VALUES)), max_size=6),
)
def test_flag_value_groups_are_read_like_argparse(command, groups):
    options = cli.COMMANDS[command][2]
    argv = [command]
    for index, value in groups:
        flag, spec = options[index % len(options)]
        argv += [flag, *[value] * spec.get("nargs", 1)]
    assert_agrees(argv)


def well_formed_calls():
    """Every benchmark unit, golden and digest call, and README example."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import run as bench_run
    finally:
        sys.path.remove(str(ROOT / "bench"))
    import test_golden

    calls = [
        list(unit.argv)
        for workload in bench_run.WORKLOADS.values()
        for seed in (0, 13)
        for unit in workload.units(seed)
    ]
    calls += [command.split() for runs in test_golden.DIGEST_RUNS.values() for command in runs]
    calls += [list(argv) for argv in test_golden.cli_calls().values()]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    calls += [shlex.split(line)[1:] for line in readme.splitlines() if line.startswith("gaussmap ")]
    return calls


def test_the_strict_parser_reads_every_documented_and_benchmarked_call():
    calls = well_formed_calls()
    assert len(calls) > 80
    for argv in calls:
        strict = cli.parse_strict(argv)
        assert strict is not None, argv
        assert vars(strict) == argparse_vars(argv), argv


def test_an_over_long_rational_literal_names_its_length(capsys):
    literal = "1" * 5000
    code, out, err = run(
        capsys, "rho", "--curve", f"0,{literal},2,3,4,5,6,7",
        "--quadric", "basis:1,2", "--pair", "1", "1",
    )
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if not limit:
        pytest.skip("this interpreter reads integers of any length")
    assert code == 2 and out == ""
    assert f"has 5000 digits, over the limit of {limit}" in err
    assert len(err) < 200 and literal not in err


LONG = "1" * 5000


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--theorem", "T3.1", "--g", LONG),
        ("verify", "--theorem", "T3.1", "--g", f"3..{LONG}"),
        ("rho", "--curve", f'{{"branch_points": [0, {LONG}, 2, 3, 4, 5, 6, 7]}}',
         "--quadric", "basis:1,2", "--pair", "1", "1"),
        ("rho", "--curve", "FILE", "--quadric", "basis:1,2", "--pair", "1", "1"),
        ("rho", "--g", "4", "--quadric", f'{{"1,2": {LONG}}}', "--pair", "1", "1"),
        ("rho", "--g", "4", "--quadric", f"basis:1,{LONG}", "--pair", "1", "1"),
        ("verify", "--theorem", "T3.1", "--g", "3", "--k", LONG),
        ("verify", "--theorem", "T6.12", "--g", "3", "--samples", LONG),
        ("verify", "--theorem", "T6.12", "--g", "3", "--seed", LONG),
        ("scan", "--g", "4", "--seed", LONG),
        ("kernel", "--g", "4", "--k", LONG),
        ("rho", "--g", "4", "--quadric", "basis:1,2", "--pair", "1", LONG),
    ],
    ids=[
        "g", "g-range", "curve-json", "curve-file", "quadric-json", "quadric-basis",
        "k", "samples", "verify-seed", "scan-seed", "kernel-k", "pair",
    ],
)
def test_an_over_long_integer_names_its_length(capsys, monkeypatch, tmp_path, argv):
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if not limit:
        pytest.skip("this interpreter reads integers of any length")
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage lines to this width
    path = tmp_path / "curve.json"
    path.write_text(f'{{"branch_points": [0, {LONG}, 2, 3, 4, 5, 6, 7]}}')
    code, out, err = run(capsys, *(str(path) if a == "FILE" else a for a in argv))
    assert code == 2 and out == ""
    assert f"has 5000 digits, over the limit of {limit}" in err
    assert len(err.encode()) < 300 and LONG[:100] not in err
    assert "set_int_max_str_digits" not in err and "Traceback" not in err


NOT_AN_INTEGER = "x" + LONG
CUT = "'x1111111111111111111...'"


@pytest.mark.parametrize(
    "env, argv, message",
    [
        (None, ("scan", "--g", "4", "--samples", NOT_AN_INTEGER),
         f"argument --samples: invalid sample_count value: {CUT}"),
        (None, ("verify", "--theorem", "T3.1", "--g", NOT_AN_INTEGER),
         f"--g expects N or A..B with integers, got {CUT}"),
        (None, ("verify", "--theorem", "T3.1", "--g", f"3..{NOT_AN_INTEGER}"),
         "--g expects N or A..B with integers, got '3..x1111111111111111...'"),
        (None, ("verify", "--theorem", "T3.1", "--g", "3", "--k", NOT_AN_INTEGER),
         f"argument --k: invalid int value: {CUT}"),
        (None, ("rho", "--g", "4", "--quadric", "basis:1,2", "--pair", "1", f"1.{LONG}"),
         "argument --pair: invalid int value: '1.111111111111111111...'"),
        (None, ("rho", "--curve", f"0,{NOT_AN_INTEGER},2,3,4,5,6,7",
                "--quadric", "basis:1,2", "--pair", "1", "1"),
         f"bad --curve value: not a rational literal: {CUT}"),
        (None, ("rho", "--g", "4", "--quadric", f"basis:1,{NOT_AN_INTEGER}", "--pair", "1", "1"),
         "bad --quadric value 'basis:1,x11111111111...': "
         f"invalid literal for int() with base 10: {CUT}"),
        (NOT_AN_INTEGER, ("rank-table", "--g", "3"),
         f"GAUSSMAP_MAX_GENUS must be an integer, got {CUT}"),
    ],
    ids=["samples", "g", "g-range", "k", "pair", "curve", "quadric-basis", "genus-cap"],
)
def test_an_over_long_non_integer_gets_the_short_message(capsys, monkeypatch, env, argv, message):
    # a run of more digits than the interpreter reads, in a value that is not
    # an integer whatever its length: the reason is the one a short value gets
    monkeypatch.setenv("COLUMNS", "80")
    if env is not None:
        monkeypatch.setenv("GAUSSMAP_MAX_GENUS", env)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.endswith(f"error: {message}\n")
    assert len(err.encode()) < 300 and "digits" not in err and "Traceback" not in err


def test_an_over_long_genus_cap_names_its_length(capsys, monkeypatch):
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if not limit:
        pytest.skip("this interpreter reads integers of any length")
    monkeypatch.setenv("GAUSSMAP_MAX_GENUS", LONG)
    code, out, err = run(capsys, "rank-table", "--g", "3")
    assert code == 2 and out == ""
    assert err == (
        f"gaussmap: error: GAUSSMAP_MAX_GENUS '{LONG[:20]}...' has 5000 digits, "
        f"over the limit of {limit}\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "--theorem", "T3.1", "--g", "3", "--k", "x"),
         "argument --k: invalid int value: 'x'"),
        (("rho", "--g", "4", "--quadric", "basis:1,2", "--pair", "1", "1.5"),
         "argument --pair: invalid int value: '1.5'"),
        (("scan", "--g", "4", "--samples", "many"),
         "argument --samples: invalid sample_count value: 'many'"),
    ],
)
def test_a_non_integer_option_value_keeps_the_argparse_message(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.endswith(f"error: {message}\n")
