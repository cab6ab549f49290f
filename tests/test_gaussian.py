"""Even and odd Gaussian maps: ranks, kernels, and the two independent routes."""

import gc
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussmap import gaussian
from gaussmap.curve import default_curve, random_curve
from gaussmap.errors import (
    IdentityFailed,
    IndexOutOfRange,
    InvalidIndex,
    NotInKernel,
    NotInPreviousKernel,
)
from gaussmap.gaussian import (
    b_support_check,
    factorization_check,
    falling,
    is_in_kernel,
    kernel_dimension_formula,
    kernel_via_equations,
    kernel_via_polynomial_oracle,
    max_level,
    mu_coefficients,
    odd_kernel_and_rank,
    oracle_residuals,
    rank_formula,
    rank_table,
)
from gaussmap.linalg import _blocks, kernel_basis, kernel_chain
from gaussmap.quadrics import (
    GENERA_KEPT,
    basis_quadric,
    combine,
    pair_slots,
    quadric_space_dimension,
    sym_pairs,
    wedge_pairs,
    wedge_slots,
)
from gaussmap.reports import RunConfig
from gaussmap.suites import verify_theorem
from conftest import clear_caches
from series_oracle import TruncatedSeries, poly, wronskian_rank_oracle
from test_linalg import naive_kernel, views

F = Fraction

small_rats = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def kernel_quadrics(genus, k):
    return list(kernel_via_equations(genus).level(k).quadrics)


# -- rank table ---------------------------------------------------------------------


def test_rank_table_known_rows():
    rows = {(r.genus, r.k): r for r in rank_table(3, 6).rows}
    assert (rows[(3, 0)].rank, rows[(3, 0)].dim_ker) == (5, 1)
    assert (rows[(5, 1)].rank, rows[(5, 1)].dim_ker) == (5, 1)
    assert (rows[(5, 2)].rank, rows[(5, 2)].dim_ker) == (1, 0)
    assert (rows[(6, 1)].rank, rows[(6, 1)].dim_ker) == (7, 3)
    assert all(r.rank_formula_ok for r in rank_table(3, 6).rows)


def test_rank_table_filter_and_validation():
    only = rank_table(5, 5, k_filter=2).rows
    assert len(only) == 1 and only[0].k == 2
    with pytest.raises(IndexOutOfRange):
        rank_table(2, 3)


def test_closed_formulas_at_sample_points():
    assert rank_formula(7, 2) == 14 - 9 == 5
    assert kernel_dimension_formula(7, 2) == 15 - 2 * (14 - 4 - 3) == 1
    assert max_level(7) == 3 and max_level(8) == 3


# -- kernels two ways ---------------------------------------------------------------


def test_equation_kernels_match_polynomial_oracle_through_genus_seven():
    for genus in range(3, 8):
        chain = kernel_via_equations(genus)
        for lv in chain.levels:
            assert lv.basis == kernel_via_polynomial_oracle(genus, lv.k)


def identity_rows(genus, bound, pairs, slots):
    """Reference rows of the raw identity system sum c_ab f_a^(h) f_b^(n) == 0,
    ungraded: all (h, n) with h >= n, h+n <= bound, every x-degree, as sparse
    integer rows over ``pairs``, where column (i, j) has the tensor slots
    ``slots(i, j)``. Rows come in increasing order h+n, and the second list
    holds, for each order, where its rows end. Zero rows are dropped."""
    rows, ends = [], []
    for total in range(bound + 1):
        for n in range(total // 2 + 1):
            h = total - n
            for e in range(0, 2 * genus - 1 - total):
                row = {}
                for col, (i, j) in enumerate(pairs):
                    value = sum(
                        weight * falling(alpha, h) * falling(beta, n)
                        for alpha, beta, weight in slots(i, j)
                        if alpha + beta == e + total
                    )
                    if value:
                        row[col] = value
                if row:
                    rows.append(row)
        ends.append(len(rows))
    return rows, ends


def union_find_chain(levels, ncols):
    """The kernel chain of levels of sparse rows split by union-find alone."""
    return kernel_chain(_blocks(levels, ncols))


def test_oracle_chain_equals_one_elimination_per_prefix():
    """The old schedule, each prefix of identity rows eliminated from scratch,
    is the reference for the incremental chain."""
    for genus in range(3, 13):
        k_max = max_level(genus)
        rows, ends = identity_rows(genus, 2 * k_max + 1, sym_pairs(genus), pair_slots)
        dim = quadric_space_dimension(genus)
        assert gaussian._oracle_chain(genus, k_max) == tuple(
            kernel_basis(rows[: ends[2 * k + 1]], dim) for k in range(k_max + 1)
        ), genus


def test_graded_chains_equal_the_union_find_elimination_of_the_full_rows():
    """Both routes hand over their weight blocks; the reference finds the
    blocks of the full sparse row lists by union-find, and the oracle is
    also asked for levels past the chain's end."""
    for genus in range(3, 16):
        dim = quadric_space_dimension(genus)
        k_max = max_level(genus)
        levels = [[]] + [gaussian._level_rows(genus, k) for k in range(1, k_max + 1)]
        bases = [lv.basis for lv in kernel_via_equations(genus).levels]
        assert bases == list(union_find_chain(levels, dim)), genus
        top = k_max + 2
        rows, ends = identity_rows(genus, 2 * top + 1, sym_pairs(genus), pair_slots)
        cuts = [0] + [ends[2 * k + 1] for k in range(top + 1)]
        reference = union_find_chain([rows[a:b] for a, b in zip(cuts, cuts[1:])], dim)
        assert bases == list(reference[: k_max + 1]), genus
        for k in range(top + 1):
            assert kernel_via_polynomial_oracle(genus, k) == reference[k], (genus, k)


def test_odd_maps_equal_the_union_find_elimination_of_the_full_rows():
    for genus in range(3, 11):
        dim = genus * (genus - 1) // 2
        for order in (1, 3, 5):
            rows, ends = identity_rows(genus, order + 1, wedge_pairs(genus), wedge_slots)
            cut = ends[order - 1]
            domain, kernel = union_find_chain([rows[:cut], rows[cut:]], dim)
            result = odd_kernel_and_rank(genus, order)
            assert (result.domain_dim, result.basis) == (len(domain), kernel), (genus, order)


def test_the_oracle_builds_no_row_into_a_full_block(monkeypatch):
    """At g=12 the ungraded system has 540 nonzero identity rows; a block
    whose store is full draws no more, so the oracle builds 231 of them, and
    the count repeats exactly."""
    assert len(identity_rows(12, 11, sym_pairs(12), pair_slots)[0]) == 540
    original = gaussian._weight_rows
    built = []

    def counted(*args):
        for row in original(*args):
            built.append(row)
            yield row

    monkeypatch.setattr(gaussian, "_weight_rows", counted)
    counts = []
    for _ in range(2):
        clear_caches()
        built.clear()
        assert kernel_via_polynomial_oracle(12, 0) == kernel_via_equations(12).level(0).basis
        counts.append(len(built))
    clear_caches()
    assert counts == [231, 231]


def held_after(theorems, genera):
    """Bytes that `tracemalloc` still holds after each theorem's suite ran
    over ``genera``, one genus at a time, from cleared caches."""
    clear_caches()
    gc.collect()
    tracemalloc.start()
    try:
        for theorem in theorems:
            for genus in genera:
                config = RunConfig(command="verify", genus_min=genus, genus_max=genus, samples=0)
                assert verify_theorem(theorem, config).passed, (theorem, genus)
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        clear_caches()


def assert_a_sweep_holds_only_the_last_genera(top):
    """T3.1 then L6.2 over g=3..top keep no more than the last GENERA_KEPT
    genera alone do (to within a quarter): nothing of an earlier genus stays."""
    theorems = ("T3.1", "L6.2")
    sweep = held_after(theorems, range(3, top + 1))
    last = held_after(theorems, range(top + 1 - GENERA_KEPT, top + 1))
    assert sweep <= 1.25 * last, (sweep, last)


def test_a_sweep_of_genera_holds_only_the_last_genera():
    assert_a_sweep_holds_only_the_last_genera(16)


def test_an_ordered_walk_builds_each_genus_once():
    clear_caches()
    config = RunConfig(command="verify", genus_min=3, genus_max=8)
    assert verify_theorem("T3.1", config).passed
    caches = (kernel_via_equations, gaussian._identity_table, gaussian._oracle_chain)
    misses = [cache.cache_info().misses for cache in caches]
    clear_caches()
    assert misses == [6, 6, 6]


def test_known_kernel_generator_at_genus_five():
    lv = kernel_via_equations(5).level(1)
    assert lv.dimension == 1
    q = lv.quadrics[0]
    assert q.a(1, 4) == 1 and q.a(2, 3) == -3
    assert sum(1 for x in q.a_coords if x) == 2


def test_chain_is_strictly_nested_with_known_endpoints():
    for genus, terminal in ((5, 1), (7, 1), (6, 3), (8, 3)):
        dims = [lv.dimension for lv in kernel_via_equations(genus).levels]
        assert dims[0] == kernel_dimension_formula(genus, 0)
        assert all(a > b for a, b in zip(dims, dims[1:]))
        assert dims[-1] == 0 and dims[-2] == terminal


def test_kernel_membership_predicate():
    q = kernel_quadrics(5, 1)[0]
    assert is_in_kernel(q, 1) and is_in_kernel(q, 0)
    assert not is_in_kernel(basis_quadric(5, 1, 2), 1)


def test_oracle_residuals_vanish_exactly_on_kernel_members():
    q = kernel_quadrics(5, 1)[0]
    assert oracle_residuals(q, 3) == []
    assert oracle_residuals(basis_quadric(5, 1, 2), 3) != []


def fraction_identity_polynomial(q, h, n):
    """sum c_ab f_a^(h) f_b^(n) in Fraction arithmetic over the tensor slots
    of each Q_ij, with their weights +-1/2: the reference for the integer
    identity rows (`_weight_rows`) that oracle_residuals, membership and the
    mu representatives read."""
    genus = q.genus
    half = F(1, 2)
    coeffs = [F(0)] * (2 * genus - 1)
    for (i, j), a in zip(sym_pairs(genus), q.a_coords):
        if a == 0:
            continue
        slots = ((i, j - 1, half), (j - 1, i, half), (j, i - 1, -half), (i - 1, j, -half))
        for alpha, beta, weight in slots:
            t = falling(alpha, h) * falling(beta, n)
            if t:
                coeffs[alpha + beta - h - n] += a * weight * t
    return TruncatedSeries.make(coeffs, None)


def fraction_oracle_residuals(q, bound):
    bad = []
    for total in range(bound + 1):
        for n in range(total // 2 + 1):
            poly = fraction_identity_polynomial(q, total - n, n)
            if poly.coeffs:
                bad.append((total - n, n, poly))
    return bad


@st.composite
def kernel_combinations(draw):
    """A genus, a level k and a random rational combination of the level-k
    kernel basis, perturbed off the kernel by a multiple of one Q_ij or not:
    membership is then read across the weight blocks the mixture meets."""
    genus = draw(st.integers(3, 9))
    k = draw(st.integers(0, max_level(genus)))
    quads = kernel_quadrics(genus, k)
    q = combine(genus, [draw(small_rats) for _ in quads], quads)
    if draw(st.booleans()):
        i = draw(st.integers(1, genus - 2))
        j = draw(st.integers(i + 1, genus - 1))
        q = combine(genus, [F(1), draw(small_rats)], [q, basis_quadric(genus, i, j)])
    return q, k


@settings(max_examples=60, deadline=None)
@given(kernel_combinations(), st.integers(0, 4))
def test_integer_identities_equal_the_fraction_route(case, extra):
    q, k = case
    bound = 2 * k + 1 + extra
    residuals = [(h, n, poly(coeffs, q.tensor[1])) for h, n, coeffs in oracle_residuals(q, bound)]
    assert residuals == fraction_oracle_residuals(q, bound)
    assert is_in_kernel(q, k) == (fraction_oracle_residuals(q, 2 * k + 1) == [])
    level = k + 1
    for n in range(2 * level + 1):
        sign = -1 if n % 2 else 1
        expected = fraction_identity_polynomial(q, 2 * level - n, n).scale(sign)
        coeffs = gaussian._mu_representative(q, level, n)
        assert poly(coeffs, q.tensor[1]) == expected


@settings(max_examples=25, deadline=None)
@given(st.lists(small_rats, min_size=3, max_size=3))
def test_kernel_is_closed_under_linear_combinations(coeffs):
    genus, k = 6, 1
    quads = kernel_quadrics(genus, k)
    mix = combine(genus, [F(c) for c in coeffs], quads)
    assert is_in_kernel(mix, k)
    if not mix.is_zero():
        assert oracle_residuals(mix, 2 * k + 1) == []


# -- evaluation polynomials ----------------------------------------------------------


def test_evaluation_polynomial_requires_previous_kernel_membership():
    with pytest.raises(NotInPreviousKernel):
        mu_coefficients(basis_quadric(5, 1, 2), 2)


def test_evaluation_polynomial_vanishes_exactly_on_the_next_kernel():
    genus = 6
    for q in kernel_quadrics(genus, 1):
        assert not any(mu_coefficients(q, 1)[0])
    outside = basis_quadric(genus, 1, 2)
    assert any(mu_coefficients(outside, 1)[0])


def test_a_representative_mismatch_off_the_domain_is_refused():
    # Q_{2,5} is outside Ker mu_4 at genus 7: the representatives with
    # n = 0, 3 and 6 derivatives on the second factor agree, n = 1 does not
    with pytest.raises(IdentityFailed, match="n=1"):
        mu_coefficients(basis_quadric(7, 2, 5), 3, check_membership=False)


# -- the factorization of the next even map ------------------------------------------


def test_factorization_holds_with_unit_constant_on_kernel_elements():
    for genus, k in ((5, 0), (5, 1), (6, 1), (7, 1)):
        for q in kernel_quadrics(genus, k):
            fc = factorization_check(q, k)
            assert fc.ok
            assert fc.constant in (None, F(1))


def test_factorization_requires_kernel_membership():
    with pytest.raises(NotInKernel):
        factorization_check(basis_quadric(5, 1, 2), 1)


# -- support bound in decomposable coordinates ---------------------------------------


def test_kernel_quadrics_have_bounded_decomposable_support():
    for genus, k in ((6, 1), (7, 2), (8, 1)):
        for q in kernel_quadrics(genus, k):
            result = b_support_check(q, k)
            assert result.ok and result.bound == 2 * genus - 2 * k - 3


def test_support_bound_check_requires_kernel_membership():
    # a(1,2) feeds the reflected coordinate at indices (g-2, g-1), whose
    # sum exceeds the level-1 bound; the check refuses the quadric because
    # it is not in the level-1 kernel in the first place.
    q = basis_quadric(6, 1, 2)
    assert q.b(4, 5) == -1 and 4 + 5 > 2 * 6 - 2 * 1 - 3
    with pytest.raises(NotInKernel):
        b_support_check(q, 1)


# -- odd maps ------------------------------------------------------------------------


def test_first_odd_map_rank_is_classical():
    for genus in range(3, 8):
        result = odd_kernel_and_rank(genus, 1)
        assert result.rank == 2 * genus - 3
        assert result.domain_dim == genus * (genus - 1) // 2


def test_first_odd_map_rank_agrees_with_wronskian_jets():
    rng = random.Random(5)
    for genus in range(3, 6):
        expected = odd_kernel_and_rank(genus, 1).rank
        assert wronskian_rank_oracle(genus, default_curve(genus)) == expected
        assert wronskian_rank_oracle(genus, random_curve(genus, rng)) == expected


def test_odd_maps_form_a_chain_read_off_one_elimination():
    """Each odd map of order m is defined on the kernel of the identities of
    order <= m-1 and its kernel is cut out by those of order <= m+1: both are
    checked against the naive Gauss-Jordan kernel of dense odd rows built
    from `falling` alone."""

    def dense(genus, top):
        # x^e coefficient of alpha_i ^ alpha_j under f^(h) f^(n) - f^(n) f^(h),
        # h > n and h + n <= top
        orders = [(t - n, n) for t in range(top + 1) for n in range((t + 1) // 2)]
        return [
            [
                F(falling(i, h) * falling(j, n) - falling(i, n) * falling(j, h))
                if i + j == e + h + n
                else F(0)
                for i, j in wedge_pairs(genus)
            ]
            for h, n in orders
            for e in range(2 * genus)
        ]

    for genus in range(3, 7):
        dim = genus * (genus - 1) // 2
        order = 1
        while (result := odd_kernel_and_rank(genus, order)).domain_dim:
            domain = naive_kernel(dense(genus, order - 1), dim)
            assert result.domain_dim == len(domain), (genus, order)
            assert views(result.basis, dim) == naive_kernel(dense(genus, order + 1), dim), (
                genus,
                order,
            )
            order += 2
        assert order > 1, genus


def test_odd_map_rejects_even_orders():
    with pytest.raises(InvalidIndex):
        odd_kernel_and_rank(5, 2)
