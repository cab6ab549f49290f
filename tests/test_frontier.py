"""Frontier runs above the command line's default genus cap (opt-in).

    PYTHONPATH=src python -m pytest -m frontier tests/test_frontier.py

The `frontier` marker is deselected by default (see pyproject.toml). These
recompute, through the API, the rank and kernel-dimension laws with literal
agreement of the two kernel routes at genus 20, 30, 40 and 50, and the
factorization (L3.4) and decomposable-support (L6.2) statements at genus 20
and 25. T6.5 at genus 15, 20, 25, 30 and 40, T6.6 and T6.9 at genus 15,
20 and 25, T6.9 at genus 30, L3.4 and L6.2 at genus 20, 25 and 50, L3.4 at
genus 30 and 40, T3.1 at genus 20, 30, 40 and 50, R4.1 at genus 20, 30,
40 and 50, T6.12 (20 samples) at genus 15, 20, 30 and 37, T6.12 (5
samples) at genus 45, and T6.12 and the scan (5 samples) at genus 38, whose values pass the interpreter's
4,300-digit limit on `str` of an integer, must print a passed report with
the bytes pinned by the stdout digests in ``golden/witness_sha256.json``;
so must the kernel JSON of both routes at genus 25, k = 5, with the routes
agreeing. T3.1 then L6.2 over genus 3..25 in one process must keep no more
memory than genus 24 and 25 alone do, to within a quarter.
"""

import hashlib
import json

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
from test_gaussian import assert_a_sweep_holds_only_the_last_genera
from test_golden import DIGEST_RUNS, FRONTIER_CAP, cli_stdout, pinned_digest

pytestmark = pytest.mark.frontier


@pytest.mark.parametrize("genus", [20, 30, 40, 50])
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


def test_a_sweep_to_genus_twenty_five_holds_only_the_last_genera():
    assert_a_sweep_holds_only_the_last_genera(25)


@pytest.mark.parametrize("command", DIGEST_RUNS["frontier"])
def test_witness_path_past_the_cap_matches_its_digest(command, monkeypatch):
    monkeypatch.setenv("GAUSSMAP_MAX_GENUS", FRONTIER_CAP)
    out = cli_stdout(*command.split())
    payload = json.loads(out)
    # a report says whether it passed; the kernel JSON, whether the routes agree
    assert payload.get("passed", payload.get("methods_agree")) is True
    assert hashlib.sha256(out.encode()).hexdigest() == pinned_digest("frontier", command)
