"""Coordinates on the space of quadrics through the canonical curve."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussmap.errors import IndexOutOfRange
from gaussmap.linalg import numerators
from gaussmap.quadrics import (
    QuadricI2,
    basis_quadric,
    combine,
    quadric_from_a,
    quadric_from_vector,
    quadric_space_dimension,
    sym_pairs,
    wedge_pairs,
)

F = Fraction

small_rats = st.fractions(min_value=-8, max_value=8, max_denominator=5)


def test_pair_indexings_are_lexicographic_and_complete():
    assert sym_pairs(4) == ((1, 2), (1, 3), (2, 3))
    assert wedge_pairs(4) == (
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
    )
    for g in range(3, 9):
        assert len(sym_pairs(g)) == quadric_space_dimension(g)
        assert len(wedge_pairs(g)) == g * (g - 1) // 2


def test_dimension_counts_the_basis():
    assert [quadric_space_dimension(g) for g in range(3, 8)] == [1, 3, 6, 10, 15]


def test_basis_quadric_has_a_single_unit_coordinate():
    q = basis_quadric(5, 2, 3)
    assert q.a(2, 3) == 1
    assert sum(1 for x in q.a_coords if x) == 1
    with pytest.raises(IndexOutOfRange):
        basis_quadric(5, 3, 3)
    with pytest.raises(IndexOutOfRange):
        basis_quadric(5, 0, 2)


def test_b_coordinates_are_the_negated_index_reflection():
    g = 5
    q = quadric_from_a(g, {(1, 4): F(2), (2, 3): F(-7)})
    for (k, h) in sym_pairs(g):
        assert q.b(k, h) == -q.a(g - h, g - k)
    # explicit spots: b_{1,4} = -a_{1,4}, b_{2,3} = -a_{2,3} at g=5
    assert q.b(1, 4) == -2 and q.b(2, 3) == 7


def test_b_transform_is_an_involution():
    g = 6
    rng_coords = [F(n, 3) for n in range(1, quadric_space_dimension(g) + 1)]
    q = quadric_from_vector(g, rng_coords)
    twice = quadric_from_vector(g, quadric_from_vector(g, q.b_coords()).b_coords())
    assert twice == q


def test_sym_tensor_of_nonadjacent_pair_is_symmetric_off_diagonal_half():
    q = basis_quadric(5, 1, 3)
    c = q.sym_tensor()
    g = q.genus
    for m in range(g):
        for n in range(g):
            assert c[m][n] == c[n][m]
        assert c[m][m] == 0
    flat = sorted({abs(x) for row in c for x in row if x})
    assert flat == [F(1, 2)]


def test_sym_tensor_diagonal_entry_from_adjacent_pair():
    # Q_{i,i+1} touches alpha_i twice: full weight on the diagonal cell.
    q = basis_quadric(5, 2, 3)
    c = q.sym_tensor()
    assert c[2][2] == 1
    assert c[3][1] == c[1][3] == -F(1, 2)


@st.composite
def quadrics(draw):
    g = draw(st.integers(min_value=3, max_value=7))
    dim = quadric_space_dimension(g)
    coords = draw(st.lists(small_rats, min_size=dim, max_size=dim))
    return quadric_from_vector(g, coords)


@settings(max_examples=60, deadline=None)
@given(quadrics())
def test_integer_tensor_is_the_nonzero_sym_tensor_over_one_denominator(q):
    entries, den = q.tensor
    assert den == 2 * lcm(*(c.denominator for c in q.a_coords))
    assert all(n for *_, n in entries)
    assert list(entries) == sorted(entries)
    assert {(a, b): F(n, den) for a, b, n in entries} == {
        (a, b): value
        for a, row in enumerate(q.sym_tensor())
        for b, value in enumerate(row)
        if value
    }
    assert q.tensor is q.tensor


def test_numerators_clear_denominators_over_their_lcm():
    assert numerators([]) == ([], 1)
    assert numerators([3, 0, -4]) == ([3, 0, -4], 1)
    assert numerators((F(-1, 2), F(2, 3), F(0), F(-5))) == ([-3, 4, 0, -30], 6)


def test_json_round_trip_preserves_sparse_coordinates():
    g = 6
    q = quadric_from_a(g, {"1,5": "3/2", "2,4": "-1"})
    assert q.a(1, 5) == F(3, 2) and q.a(2, 4) == -1
    assert quadric_from_a(g, q.to_json()) == q


def test_label_lists_nonzero_terms():
    q = quadric_from_a(4, {(1, 2): F(1), (2, 3): F(-1, 2)})
    assert q.label() == "1*Q[1,2] + -1/2*Q[2,3]"
    zero = quadric_from_vector(4, [0, 0, 0])
    assert zero.label() == "0" and zero.is_zero()


def test_a_quadric_renders_its_label_once():
    q = quadric_from_a(5, {(1, 3): F(2, 3), (3, 4): F(-5)})
    assert q.label() is q.label()
    assert q.label() == "2/3*Q[1,3] + -5*Q[3,4]"
    assert q == quadric_from_a(5, q.to_json())


def test_combine_is_exact_linear_combination():
    g = 5
    q1 = basis_quadric(g, 1, 2)
    q2 = basis_quadric(g, 3, 4)
    mix = combine(g, [F(2), F(-1, 3)], [q1, q2])
    assert mix.a(1, 2) == 2 and mix.a(3, 4) == F(-1, 3)
    assert mix.a(1, 3) == 0


@settings(max_examples=40, deadline=None)
@given(st.lists(small_rats, min_size=6, max_size=6))
def test_b_reflection_is_linear_and_involutive(coords):
    g = 5
    q = quadric_from_vector(g, [F(c) for c in coords])
    b = q.b_coords()
    assert len(b) == len(q.a_coords)
    assert quadric_from_vector(g, quadric_from_vector(g, b).b_coords()) == q


def test_wrong_coordinate_count_is_rejected():
    with pytest.raises(IndexOutOfRange):
        quadric_from_vector(5, (F(1),) * 5)
    for row in ((((6, 1),), 1), (((-1, 1),), 1), (((0, 1),), 0)):
        with pytest.raises(IndexOutOfRange):
            QuadricI2(genus=5, row=row)
