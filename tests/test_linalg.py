"""Exact linear algebra: ranks, reduced echelon forms, kernels, spans."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaussmap.errors import IndexOutOfRange
from gaussmap.gaussian import kernel_equations, kernel_via_equations, max_level
from gaussmap.linalg import (
    RatMatrix,
    _blocks,
    canonicalize_span,
    dot,
    in_span,
    kernel_basis,
    mat_vec,
    matrix_rank,
    rref,
)

F = Fraction

rationals = st.fractions(
    min_value=-30, max_value=30, max_denominator=12
)


def naive_rank(rows, ncols):
    """Plain fraction Gaussian elimination, used as an independent oracle."""
    work = [list(row) for row in rows if any(row)]
    rank = 0
    for col in range(ncols):
        pivot_row = next(
            (r for r in range(rank, len(work)) if work[r][col] != 0), None
        )
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        pivot = work[rank][col]
        for r in range(len(work)):
            if r != rank and work[r][col] != 0:
                factor = work[r][col] / pivot
                work[r] = [a - factor * b for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


def naive_rref(rows, ncols):
    """Plain fraction Gauss-Jordan reduction: nonzero rows and pivot columns."""
    work = [list(row) for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        pivot_row = next(
            (i for i in range(r, len(work)) if work[i][col] != 0), None
        )
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        pivot = work[r][col]
        work[r] = [x / pivot for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col] != 0:
                factor = work[i][col]
                work[i] = [a - factor * b for a, b in zip(work[i], work[r])]
        pivots.append(col)
    return tuple(tuple(row) for row in work[: len(pivots)]), tuple(pivots)


def naive_kernel(rows, ncols):
    """Canonical kernel basis: the naive RREF of the nullspace read off the
    naive RREF of the rows."""
    reduced, pivots = naive_rref(rows, ncols)
    vectors = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [F(0)] * ncols
        v[f] = F(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        vectors.append(v)
    return naive_rref(vectors, ncols)[0]


def sparse_integer_rows(draw, rows):
    """Each row cleared of denominators, times a drawn nonzero integer, as a
    {column: int} dict; a zero row becomes an empty dict."""
    out = []
    for row in rows:
        scale = lcm(*(x.denominator for x in row)) * draw(
            st.integers(-5, 5).filter(bool)
        )
        out.append({c: int(x * scale) for c, x in enumerate(row) if x})
    return out


@st.composite
def permuted_block_diagonal(draw):
    """Rows and width of a block-diagonal matrix with shuffled rows and columns.

    One to four blocks; a block with no rows leaves its columns untouched by
    every row, and zero rows are mixed in. Block entries may themselves be
    zero, so a drawn block can split further.
    """
    shapes = draw(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(1, 3)), min_size=1, max_size=4
        )
    )
    ncols = sum(width for _, width in shapes)
    rows = []
    start = 0
    for height, width in shapes:
        for _ in range(height):
            row = [F(0)] * ncols
            row[start : start + width] = draw(
                st.lists(rationals, min_size=width, max_size=width)
            )
            rows.append(row)
        start += width
    rows += [[F(0)] * ncols for _ in range(draw(st.integers(0, 2)))]
    order = draw(st.permutations(range(ncols)))
    rows = [[row[c] for c in order] for row in rows]
    return draw(st.permutations(rows)), ncols


@settings(max_examples=80, deadline=None)
@given(permuted_block_diagonal())
@example(([], 3))
def test_block_split_matches_plain_elimination(case):
    rows, ncols = case
    m = RatMatrix.from_rows(rows, ncols=ncols)
    assert rref(m) == naive_rref(rows, ncols)
    rank = matrix_rank(m)
    assert rank == naive_rank(rows, ncols)
    basis = kernel_basis(m)
    assert basis == naive_kernel(rows, ncols)
    assert rank + len(basis) == ncols
    for vec in basis:
        assert all(x == 0 for x in mat_vec(m, vec))


@settings(max_examples=80, deadline=None)
@given(permuted_block_diagonal(), st.data())
def test_sparse_integer_rows_give_the_plain_elimination(case, data):
    rows, ncols = case
    sparse = sparse_integer_rows(data.draw, rows)
    sparse += [{}] * data.draw(st.integers(0, 2))
    assert rref(sparse, ncols) == naive_rref(rows, ncols)
    assert kernel_basis(sparse, ncols) == naive_kernel(rows, ncols)


@settings(max_examples=60, deadline=None)
@given(permuted_block_diagonal(), st.data())
def test_explicit_zero_entries_never_merge_blocks(case, data):
    rows, ncols = case
    sparse = sparse_integer_rows(data.draw, rows)
    padded = [
        {**{c: 0 for c in data.draw(st.sets(st.integers(0, ncols - 1)))}, **row}
        for row in sparse
    ]
    assert _blocks(padded, ncols) == _blocks(sparse, ncols)
    assert rref(padded, ncols) == rref(sparse, ncols)
    assert kernel_basis(padded, ncols) == kernel_basis(sparse, ncols)


def test_an_explicit_zero_leaves_columns_apart_and_untouched():
    assert _blocks([{0: 2, 1: 0}, {1: 3}], 3) == [([0], [[1]]), ([1], [[1]])]
    assert kernel_basis([{0: 2, 2: 0}], 3) == (
        (F(0), F(1), F(0)),
        (F(0), F(0), F(1)),
    )


def test_sparse_rows_are_checked_against_the_column_count():
    with pytest.raises(IndexOutOfRange):
        rref([{3: 1}], 3)
    with pytest.raises(IndexOutOfRange):
        kernel_basis([{-1: 1}], 3)
    with pytest.raises(IndexOutOfRange):
        rref([{0: 1}])


def test_dense_level_equations_cut_out_the_equation_route_kernels():
    for genus in range(3, 13):
        dim = (genus - 1) * (genus - 2) // 2
        rows = []
        for k in range(max_level(genus) + 1):
            if k:
                rows.extend(kernel_equations(genus, k).rows)
            assert kernel_basis(RatMatrix.from_rows(rows, ncols=dim)) == (
                kernel_via_equations(genus).level(k).basis
            ), (genus, k)


def test_rank_of_identity_and_zero():
    eye = RatMatrix.from_rows(
        [[F(1), F(0)], [F(0), F(1)]]
    )
    assert matrix_rank(eye) == 2
    zero = RatMatrix.from_rows([[F(0), F(0)], [F(0), F(0)]])
    assert matrix_rank(zero) == 0
    assert kernel_basis(eye) == ()


def test_rank_of_known_singular_matrix():
    m = RatMatrix.from_rows(
        [
            [F(1), F(2), F(3)],
            [F(2), F(4), F(6)],
            [F(1), F(1), F(1)],
        ]
    )
    assert matrix_rank(m) == 2


def test_rref_pivots_are_normalized_and_cleared():
    m = RatMatrix.from_rows(
        [
            [F(2), F(4), F(2)],
            [F(1), F(3), F(2)],
        ]
    )
    rows, pivots = rref(m)
    assert pivots == (0, 1)
    for r, p in enumerate(pivots):
        assert rows[r][p] == 1
        for other in range(len(rows)):
            if other != r:
                assert rows[other][p] == 0


def test_kernel_vectors_annihilate_rows():
    m = RatMatrix.from_rows(
        [
            [F(1), F(2), F(3), F(4)],
            [F(0), F(1), F(1), F(1)],
        ]
    )
    basis = kernel_basis(m)
    assert len(basis) == 2
    for vec in basis:
        assert all(x == 0 for x in mat_vec(m, vec))


def test_rank_nullity_adds_up():
    m = RatMatrix.from_rows(
        [
            [F(1), F(1), F(0), F(2), F(5)],
            [F(3), F(0), F(1), F(0), F(1)],
            [F(4), F(1), F(1), F(2), F(6)],
        ]
    )
    assert matrix_rank(m) + len(kernel_basis(m)) == m.ncols


def test_canonicalize_span_is_basis_independent():
    v1 = (F(1), F(2), F(0))
    v2 = (F(0), F(1), F(1))
    a = canonicalize_span([v1, v2], 3)
    b = canonicalize_span([tuple(3 * x for x in v2),
                           tuple(x + y for x, y in zip(v1, v2))], 3)
    assert a == b
    assert canonicalize_span(list(a), 3) == a


def test_in_span_detects_membership_and_rejection():
    basis = ((F(1), F(0), F(1)), (F(0), F(1), F(1)))
    assert in_span((F(2), F(3), F(5)), basis)
    assert not in_span((F(0), F(0), F(1)), basis)


def test_dot_is_bilinear_on_samples():
    u = (F(1, 2), F(3), F(-2))
    v = (F(4), F(1, 3), F(1))
    w = (F(0), F(2), F(5))
    assert dot(u, tuple(a + b for a, b in zip(v, w))) == dot(u, v) + dot(u, w)


sparse_rationals = st.one_of(st.just(F(0)), rationals)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=12).flatmap(
        lambda n: st.tuples(
            st.lists(sparse_rationals, min_size=n, max_size=n),
            st.lists(sparse_rationals, min_size=n, max_size=n),
        )
    )
)
def test_dot_equals_the_plain_sum_on_sparse_vectors(pair):
    u, v = (tuple(x) for x in pair)
    expected = sum((a * b for a, b in zip(u, v)), F(0))
    got = dot(u, v)
    assert got == expected and isinstance(got, Fraction)


def test_dot_rejects_a_length_mismatch():
    with pytest.raises(IndexOutOfRange):
        dot((F(0), F(1)), (F(0),))
    with pytest.raises(IndexOutOfRange):
        dot((), (F(0),))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(rationals, min_size=4, max_size=4),
        min_size=1,
        max_size=5,
    )
)
def test_rank_matches_plain_elimination_oracle(rows):
    rows = [[F(x) for x in row] for row in rows]
    m = RatMatrix.from_rows(rows, ncols=4)
    assert matrix_rank(m) == naive_rank(rows, 4)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(rationals, min_size=5, max_size=5),
        min_size=1,
        max_size=4,
    )
)
def test_kernel_dimension_complements_rank(rows):
    rows = [[F(x) for x in row] for row in rows]
    m = RatMatrix.from_rows(rows, ncols=5)
    basis = kernel_basis(m)
    assert matrix_rank(m) + len(basis) == 5
    for vec in basis:
        assert all(x == 0 for x in mat_vec(m, vec))
    assert canonicalize_span(basis, 5) == basis


def test_from_rows_rejects_ragged_input():
    with pytest.raises(IndexOutOfRange):
        RatMatrix.from_rows([[F(1)], [F(1), F(2)]])
    with pytest.raises(IndexOutOfRange):
        RatMatrix.from_rows([])
