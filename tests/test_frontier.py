"""Frontier runs above the command line's default genus cap (opt-in).

    PYTHONPATH=src python -m pytest -m frontier tests/test_frontier.py

The `frontier` marker is deselected by default (see pyproject.toml). These
recompute, through the API, the rank and kernel-dimension laws with literal
agreement of the two kernel routes at genus 20, 30 and 40, and the
factorization (L3.4) and decomposable-support (L6.2) statements at genus 20
and 25.
"""

import pytest

from gaussmap.gaussian import (
    kernel_dimension_formula,
    kernel_via_equations,
    kernel_via_polynomial_oracle,
    max_level,
    rank_formula,
)
from gaussmap.reports import RunConfig
from gaussmap.suites import verify_theorem

pytestmark = pytest.mark.frontier


@pytest.mark.parametrize("genus", [20, 30, 40])
def test_rank_law_and_literal_route_agreement(genus):
    chain = kernel_via_equations(genus)
    assert [lv.k for lv in chain.levels] == list(range(max_level(genus) + 1))
    for lv in chain.levels:
        assert lv.rank == rank_formula(genus, lv.k), lv.k
        assert lv.dimension == kernel_dimension_formula(genus, lv.k), lv.k
        assert lv.basis == kernel_via_polynomial_oracle(genus, lv.k), lv.k


@pytest.mark.parametrize("theorem", ["L6.2", "L3.4"])
@pytest.mark.parametrize("genus", [20, 25])
def test_kernel_statements_hold_against_their_closed_forms(theorem, genus):
    config = RunConfig(
        command="verify", genus_min=genus, genus_max=genus, samples=0, seed=0
    )
    report = verify_theorem(theorem, config)
    failing = [f"{c.item}: {c.got}" for c in report.checks if not c.ok]
    assert report.checks and not failing, failing
