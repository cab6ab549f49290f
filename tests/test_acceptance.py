"""Desk-scale acceptance runs: every shipped claim, exact arithmetic, zero tolerance.

Each test recomputes one headline guarantee over its full advertised range:
the rank/dimension laws and the two independent kernel routes to genus 12
(and through the API to genus 16, above the command line's default cap),
the factorization/isotropy/witness/hyperplane statements to genus 9 on the
default curve plus three seeded random curves per genus, the certificate
scan for genus 4..9, the cup-rank law to genus 12 on the default curve and
one seeded random curve per genus, the cross-chart comparison to genus 9,
byte-identical rerun determinism for the report layer, and the desk-scale
script `scripts/verify_all.py`.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from gaussmap.cli import main
from gaussmap.curve import default_curve, random_curve
from gaussmap.gaussian import (
    kernel_dimension_formula,
    kernel_via_equations,
    kernel_via_polynomial_oracle,
    max_level,
    odd_kernel_and_rank,
    rank_formula,
    rank_table,
)
from gaussmap.reports import RunConfig, rank_table_csv
from gaussmap.rho import Certifier, cup_rank, direction_length, mu2_cross_check
from gaussmap.rationals import random_direction
from gaussmap.suites import THEOREM_IDS, scan_report, verify_theorem

F = Fraction
SEED = 0


def failing_items(report):
    return [
        f"{c.item}: expected {c.expected}, got {c.got}"
        for c in report.checks
        if not c.ok
    ]


def run_suite(theorem, g_min, g_max, **kw):
    config = RunConfig(
        command="verify",
        genus_min=g_min,
        genus_max=g_max,
        seed=SEED,
        **kw,
    )
    report = verify_theorem(theorem, config)
    assert report.passed, failing_items(report)
    return report


def test_rank_and_kernel_dimension_laws_to_genus_twelve():
    for row in rank_table(3, 12).rows:
        assert row.rank == 2 * row.genus - (4 * row.k + 1), (row.genus, row.k)
        assert row.dim_ker == kernel_dimension_formula(row.genus, row.k)
        assert row.rank_formula_ok


def test_equation_kernels_equal_oracle_kernels_to_genus_twelve():
    for genus in range(3, 13):
        chain = kernel_via_equations(genus)
        for lv in chain.levels:
            assert lv.basis == kernel_via_polynomial_oracle(genus, lv.k), (
                genus,
                lv.k,
            )


def test_rank_law_and_kernel_routes_from_genus_thirteen_to_sixteen():
    for genus in range(13, 17):
        for lv in kernel_via_equations(genus).levels:
            assert lv.rank == rank_formula(genus, lv.k), (genus, lv.k)
            assert lv.dimension == kernel_dimension_formula(genus, lv.k)
            assert lv.basis == kernel_via_polynomial_oracle(genus, lv.k), (
                genus,
                lv.k,
            )


def test_kernel_chain_endpoints_and_strict_nesting():
    for genus in range(3, 13):
        dims = [lv.dimension for lv in kernel_via_equations(genus).levels]
        assert all(a > b for a, b in zip(dims, dims[1:])), genus
        assert dims[-1] == 0
    for genus in (5, 7, 9, 11):  # dim Ker at level (g-3)/2 is 1
        lv = kernel_via_equations(genus).level((genus - 3) // 2)
        assert lv.dimension == 1, genus
    for genus in (6, 8, 10, 12):  # dim Ker at level (g-4)/2 is 3
        lv = kernel_via_equations(genus).level((genus - 4) // 2)
        assert lv.dimension == 3, genus


def test_low_order_map_ranks_to_genus_ten():
    for genus in range(3, 11):
        assert odd_kernel_and_rank(genus, 1).rank == 2 * genus - 3, genus
        assert kernel_via_equations(genus).level(1).rank == 2 * genus - 5, genus


def test_factorization_identity_on_every_kernel_basis_element():
    run_suite("L3.4", 3, 9, samples=3)


def test_licensed_low_order_pairings_vanish_on_kernels():
    run_suite("T6.5", 3, 9, samples=3)


def test_witness_functional_support_coefficients_and_closed_form():
    report = run_suite("T6.6", 3, 9, samples=3)
    # The odd cubic display factors are pinned to the exact integer
    # polynomial -8u^3 + 8u^2(k+1) - 4ku - 2k - 3 for u = 1..k.
    from gaussmap.rho import witness_functional

    for genus in range(3, 10):
        for k in range((genus - 3) // 2 + 1):
            f = witness_functional(genus, k, default_curve(genus))
            assert len(f.coefficients) == k + 1
            expected = tuple(
                -8 * u**3 + 8 * u**2 * (k + 1) - 4 * k * u - 2 * k - 3
                for u in range(1, k + 1)
            )
            assert f.display_factors == expected, (genus, k)
            assert all(x % 2 == 1 for x in f.display_factors)
            assert f.support == tuple(
                (genus - 2 * k - 3 + u, genus - u) for u in range(1, k + 2)
            ), (genus, k)
    assert report.passed


def test_hyperplane_dimensions_and_diagonal_functional_support():
    run_suite("T6.9", 3, 9, samples=3)


def test_asymptotic_certificates_for_sampled_directions():
    for genus in range(4, 10):
        curve = default_curve(genus)
        length = direction_length(genus)
        pure = tuple(F(1 if i == 0 else 0) for i in range(length))
        cert = Certifier(curve).classify(pure)
        assert cert.verdict == "asymptotic", genus
        assert cert.basis_zero_count == (genus - 1) * (genus - 2) // 2
        # one certifier per curve builds each diagonal functional once
        certifier = Certifier(curve)
        rng = random.Random(SEED * 1000003 + genus)
        produced = 0
        while produced < 100:
            direction = random_direction(rng, length)
            top = max(i for i, c in enumerate(direction) if c)
            if top == 0:
                continue
            cert = certifier.classify(direction)
            assert cert.verdict == "not_asymptotic", (genus, direction)
            assert cert.total_value != 0, (genus, direction)
            assert all(v == 0 for (_, _, v) in cert.cross_terms)
            produced += 1


def test_cup_product_rank_bound_and_kernel_containment():
    """The rank is (n + 1) / 2 for odd n and 0 for even n, on the default
    curve and on one seeded random curve per genus."""
    for genus in range(3, 13):
        rng = random.Random(SEED * 1000003 + genus)
        for curve in (default_curve(genus), random_curve(genus, rng)):
            for n in range(1, genus + 1):
                result = cup_rank(curve, n)
                expected = (n + 1) // 2 if n % 2 else 0
                assert result.rank == expected, (genus, n, curve.label())
                assert result.rank <= n, (genus, n)
                assert result.rank_bound_ok and result.containment_ok, (genus, n)


def test_first_vanishing_cross_checked_in_the_other_chart():
    for genus in range(3, 10):
        result = mu2_cross_check(default_curve(genus))
        assert result.ok, genus


def test_reports_and_tables_are_byte_identical_on_rerun():
    table_a = rank_table_csv(rank_table(3, 12))
    table_b = rank_table_csv(rank_table(3, 12))
    assert table_a == table_b
    cfg = RunConfig(
        command="verify", genus_min=3, genus_max=5, seed=SEED, samples=2
    )
    for theorem in ("T3.1", "T6.6", "R4.1"):
        first = verify_theorem(theorem, cfg)
        second = verify_theorem(theorem, cfg)
        assert first.to_json_bytes() == second.to_json_bytes(), theorem
    scan_cfg = RunConfig(
        command="scan", genus_min=4, genus_max=4, seed=7, samples=5
    )
    assert (
        scan_report(scan_cfg).to_json_bytes()
        == scan_report(scan_cfg).to_json_bytes()
    )


def test_certificate_scan_suite_passes_at_desk_scale():
    config = RunConfig(
        command="verify", genus_min=4, genus_max=9, seed=SEED, samples=25
    )
    report = verify_theorem("T6.12", config)
    assert report.passed, failing_items(report)


def test_the_desk_scale_script_passes_every_suite():
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "verify_all.py")],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert [line[0] for line in lines] == list(THEOREM_IDS)
    assert [line[4] for line in lines] == ["pass"] * 8
