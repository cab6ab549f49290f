"""Even and odd Gaussian maps: ranks, kernels, and the two independent routes."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussmap import gaussian
from gaussmap.curve import default_curve, random_curve
from gaussmap.errors import (
    IndexOutOfRange,
    InvalidIndex,
    NotInKernel,
    NotInPreviousKernel,
)
from gaussmap.gaussian import (
    b_support_check,
    factorization_check,
    is_in_kernel,
    kernel_dimension_formula,
    kernel_via_equations,
    kernel_via_polynomial_oracle,
    max_level,
    mu_eval_polynomial,
    odd_kernel_and_rank,
    oracle_residuals,
    rank_formula,
    rank_table,
    wronskian_rank_oracle,
)
from gaussmap.poly import Poly, falling
from gaussmap.quadrics import basis_quadric, combine, quadric_from_vector, sym_pairs

F = Fraction

small_rats = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def kernel_quadrics(genus, k):
    chain = kernel_via_equations(genus)
    return [quadric_from_vector(genus, v) for v in chain.level(k).basis]


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


def test_known_kernel_generator_at_genus_five():
    lv = kernel_via_equations(5).level(1)
    assert lv.dimension == 1
    q = quadric_from_vector(5, lv.basis[0])
    assert q.a(1, 4) == 1 and q.a(2, 3) == -3
    assert sum(1 for x in lv.basis[0] if x) == 2


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
    builder behind oracle_residuals and the mu representatives."""
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
    return Poly.from_coeffs(coeffs)


def fraction_oracle_residuals(q, bound):
    bad = []
    for total in range(bound + 1):
        for n in range(total // 2 + 1):
            poly = fraction_identity_polynomial(q, total - n, n)
            if not poly.is_zero():
                bad.append((total - n, n, poly))
    return bad


@st.composite
def kernel_combinations(draw):
    """A genus, a level k and a random rational combination of the level-k
    kernel basis, perturbed off the kernel by a multiple of one Q_ij or not."""
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
    assert oracle_residuals(q, bound) == fraction_oracle_residuals(q, bound)
    level = k + 1
    for n in range(2 * level + 1):
        sign = -1 if n % 2 else 1
        expected = fraction_identity_polynomial(q, 2 * level - n, n).scale(sign)
        assert gaussian._mu_representative(q, level, n) == expected


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
        mu_eval_polynomial(basis_quadric(5, 1, 2), 2)


def test_evaluation_polynomial_vanishes_exactly_on_the_next_kernel():
    genus = 6
    for q in kernel_quadrics(genus, 1):
        assert mu_eval_polynomial(q, 1).is_zero()
    outside = basis_quadric(genus, 1, 2)
    assert not mu_eval_polynomial(outside, 1).is_zero()


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


def test_odd_map_rejects_even_orders():
    with pytest.raises(InvalidIndex):
        odd_kernel_and_rank(5, 2)
