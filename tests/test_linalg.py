"""Exact linear algebra: ranks, reduced echelon forms, kernels, spans."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaussmap.errors import IndexOutOfRange
from gaussmap.gaussian import _level_rows, kernel_via_equations, max_level
from gaussmap.linalg import (
    _add,
    _blocks,
    dot,
    fractions,
    kernel_basis,
    kernel_chain,
    row_of,
    rref,
)

F = Fraction


def views(rows, ncols):
    """The dense `Fraction` view of each row, as the oracles below give them."""
    return tuple(fractions(row, ncols) for row in rows)


def sparse_rref(rows, ncols):
    """`rref` of sparse rows with no grading, split by `_blocks`."""
    return rref(_blocks([rows], ncols))


def sparse_chain(levels, ncols):
    """`kernel_chain` of levels of sparse rows with no grading, split by `_blocks`."""
    return kernel_chain(_blocks(levels, ncols))


def rref_view(rows, ncols):
    reduced, pivots = sparse_rref(rows, ncols)
    return views(reduced, ncols), pivots


def mat_vec(rows, v):
    """The product of the rational rows with v, entry by entry."""
    assert all(len(row) == len(v) for row in rows)
    return tuple(sum((a * b for a, b in zip(row, v)), F(0)) for row in rows)


def sparse_row(vector):
    """The entries of `row_of` as an input row."""
    return dict(row_of(vector)[0])


def sparse(rows):
    return [sparse_row(row) for row in rows]


def rank(rows, ncols):
    """The rank of the rational rows: the number of pivots of their RREF."""
    return len(sparse_rref(sparse(rows), ncols)[1])


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
    reduced, pivots = rref_view(sparse(rows), ncols)
    assert (reduced, pivots) == naive_rref(rows, ncols)
    assert len(pivots) == naive_rank(rows, ncols)
    basis = views(kernel_basis(sparse(rows), ncols), ncols)
    assert basis == naive_kernel(rows, ncols)
    assert len(pivots) + len(basis) == ncols
    for vec in basis:
        assert all(x == 0 for x in mat_vec(rows, vec))


@settings(max_examples=80, deadline=None)
@given(permuted_block_diagonal(), st.data())
def test_sparse_integer_rows_give_the_plain_elimination(case, data):
    rows, ncols = case
    sparse = sparse_integer_rows(data.draw, rows)
    sparse += [{}] * data.draw(st.integers(0, 2))
    assert rref_view(sparse, ncols) == naive_rref(rows, ncols)
    assert views(kernel_basis(sparse, ncols), ncols) == naive_kernel(rows, ncols)


@settings(max_examples=60, deadline=None)
@given(permuted_block_diagonal(), st.data())
def test_explicit_zero_entries_never_merge_blocks(case, data):
    rows, ncols = case
    sparse = sparse_integer_rows(data.draw, rows)
    padded = [
        {**{c: 0 for c in data.draw(st.sets(st.integers(0, ncols - 1)))}, **row}
        for row in sparse
    ]
    assert _blocks([padded], ncols) == _blocks([sparse], ncols)
    assert sparse_rref(padded, ncols) == sparse_rref(sparse, ncols)
    assert kernel_basis(padded, ncols) == kernel_basis(sparse, ncols)


def test_an_explicit_zero_leaves_columns_apart_and_untouched():
    assert _blocks([[{0: 2, 1: 0}, {1: 3}]], 3) == [([0], [[[2]]]), ([1], [[[3]]]), ([2], [[]])]
    assert views(kernel_basis([{0: 2, 2: 0}], 3), 3) == (
        (F(0), F(1), F(0)),
        (F(0), F(0), F(1)),
    )


@st.composite
def kernel_levels(draw):
    """Levels of integer rows and their width. Levels may be empty, rows may
    be zero or carry explicit zero entries, and a row may combine two rows of
    earlier levels, so that it depends on them."""
    ncols = draw(st.integers(1, 7))
    entries = st.integers(-4, 4)
    levels, earlier = [], []
    for _ in range(draw(st.integers(1, 4))):
        level = []
        for _ in range(draw(st.integers(0, 3))):
            if earlier and draw(st.booleans()):
                a, b = draw(st.sampled_from(earlier)), draw(st.sampled_from(earlier))
                x, y = draw(entries), draw(entries)
                row = {c: x * a.get(c, 0) + y * b.get(c, 0) for c in range(ncols)}
            else:
                row = {c: draw(entries) for c in draw(st.sets(st.integers(0, ncols - 1)))}
            level.append(row)
        earlier += level
        levels.append(level)
    return levels, ncols


@settings(max_examples=150, deadline=None)
@given(kernel_levels())
# After an empty level: rows leading left of the first pivot in either column
# order, a row that depends on the first level, and a zero row.
@example(([[{1: 1, 2: 1}], [], [{0: 1, 1: 0}, {3: 2, 2: 0}, {1: -2, 2: -2}, {}]], 4))
def test_kernel_chain_gives_the_kernel_of_every_prefix(case):
    levels, ncols = case
    chain = sparse_chain(levels, ncols)
    assert len(chain) == len(levels)
    rows = []
    for level, kernel in zip(levels, chain):
        rows += level
        dense = [[F(row.get(c, 0)) for c in range(ncols)] for row in rows]
        assert kernel == kernel_basis(rows, ncols)
        assert views(kernel, ncols) == naive_kernel(dense, ncols)
    # One store over all the rows: primitive rows with a positive pivot,
    # zero left of it and at every other pivot, are the RREF.
    store = {}
    for row in rows:
        _add(store, [row.get(c, 0) for c in range(ncols)])
    for p, row in store.items():
        assert gcd(*row) == 1 and row[p] > 0 and not any(row[:p])
        assert not any(row[q] for q in store if q != p)
    reduced = tuple(tuple(F(x, row[p]) for x in row) for p, row in sorted(store.items()))
    assert (reduced, tuple(sorted(store))) == naive_rref(dense, ncols)


@st.composite
def sparse_integer_levels(draw):
    """Sparse integer rows with entries up to 12 in size, each times a drawn
    factor (so input rows share factors), split into levels, and the width."""
    ncols = draw(st.integers(1, 8))
    levels = []
    for _ in range(draw(st.integers(1, 3))):
        level = []
        for _ in range(draw(st.integers(0, 4))):
            factor = draw(st.sampled_from((1, 2, -3, 6, 35)))
            columns = draw(st.sets(st.integers(0, ncols - 1), max_size=4))
            level.append({c: factor * draw(st.integers(-12, 12)) for c in columns})
        levels.append(level)
    return levels, ncols


def assert_canonical(row, ncols):
    """Sorted nonzero entries inside the width, leading with the positive
    denominator, all of them sharing no prime factor."""
    entries, den = row
    columns = [c for c, _ in entries]
    assert columns == sorted(set(columns)) and 0 <= columns[0] and columns[-1] < ncols
    assert den > 0 and entries[0][1] == den and all(x for _, x in entries)
    assert gcd(den, *(x for _, x in entries)) == 1


@settings(max_examples=150, deadline=None)
@given(sparse_integer_levels())
@example(([[{0: 6, 1: 4}, {1: 6, 2: 9}]], 3))  # pivots 6 and 3 over shared factors
def test_every_row_is_canonical_and_views_as_the_plain_elimination(case):
    levels, ncols = case
    reduced, pivots = rref(_blocks(levels, ncols))
    rows = []
    for level, kernel in zip(levels, sparse_chain(levels, ncols)):
        rows += level
        dense = [[F(row.get(c, 0)) for c in range(ncols)] for row in rows]
        for row in kernel:
            assert_canonical(row, ncols)
        assert views(kernel, ncols) == naive_kernel(dense, ncols)
    for row in reduced:
        assert_canonical(row, ncols)
    assert (views(reduced, ncols), pivots) == naive_rref(dense, ncols)


def test_row_of_is_the_canonical_row_of_any_rational_vector():
    assert row_of((F(1, 2), F(0), F(-2, 3), F(5))) == (((0, 3), (2, -4), (3, 30)), 6)
    assert row_of((F(0), F(4, 6))) == (((1, 2),), 3)
    assert row_of((F(0), F(0))) == ((), 1)
    assert fractions(row_of((F(3, 4), F(0), F(-1))), 3) == (F(3, 4), F(0), F(-1))


def test_sparse_rows_are_checked_against_the_column_count():
    with pytest.raises(IndexOutOfRange):
        _blocks([[{3: 1}]], 3)
    with pytest.raises(IndexOutOfRange):
        kernel_basis([{-1: 1}], 3)
    with pytest.raises(TypeError):
        _blocks([[{0: 1}]])


def test_dense_level_equations_cut_out_the_equation_route_kernels():
    for genus in range(3, 13):
        dim = (genus - 1) * (genus - 2) // 2
        rows = []
        for k in range(max_level(genus) + 1):
            if k:
                rows.extend([F(r.get(c, 0)) for c in range(dim)] for r in _level_rows(genus, k))
            basis = kernel_via_equations(genus).level(k).basis
            assert kernel_basis(sparse(rows), dim) == basis, (genus, k)
            if genus <= 8:
                assert naive_kernel(rows, dim) == views(basis, dim), (genus, k)


def test_rank_of_identity_and_zero():
    eye = [[F(1), F(0)], [F(0), F(1)]]
    assert rank(eye, 2) == 2
    zero = [[F(0), F(0)], [F(0), F(0)]]
    assert rank(zero, 2) == 0
    assert kernel_basis(sparse(eye), 2) == ()


def test_rank_of_known_singular_matrix():
    m = [
        [F(1), F(2), F(3)],
        [F(2), F(4), F(6)],
        [F(1), F(1), F(1)],
    ]
    assert rank(m, 3) == 2


def test_rref_pivots_are_normalized_and_cleared():
    m = [
        [F(2), F(4), F(2)],
        [F(1), F(3), F(2)],
    ]
    rows, pivots = rref_view(sparse(m), 3)
    assert pivots == (0, 1)
    for r, p in enumerate(pivots):
        assert rows[r][p] == 1
        for other in range(len(rows)):
            if other != r:
                assert rows[other][p] == 0


def test_kernel_vectors_annihilate_rows():
    m = [
        [F(1), F(2), F(3), F(4)],
        [F(0), F(1), F(1), F(1)],
    ]
    basis = views(kernel_basis(sparse(m), 4), 4)
    assert len(basis) == 2
    for vec in basis:
        assert all(x == 0 for x in mat_vec(m, vec))


def test_rank_nullity_adds_up():
    m = [
        [F(1), F(1), F(0), F(2), F(5)],
        [F(3), F(0), F(1), F(0), F(1)],
        [F(4), F(1), F(1), F(2), F(6)],
    ]
    assert rank(m, 5) + len(kernel_basis(sparse(m), 5)) == 5


def test_rref_of_a_span_is_basis_independent():
    v1 = (F(1), F(2), F(0))
    v2 = (F(0), F(1), F(1))
    a, _ = sparse_rref(sparse([v1, v2]), 3)
    b, _ = sparse_rref(sparse([tuple(3 * x for x in v2),
                               tuple(x + y for x, y in zip(v1, v2))]), 3)
    assert a == b
    assert sparse_rref([dict(entries) for entries, _ in a], 3)[0] == a


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
    assert rank(rows, 4) == naive_rank(rows, 4)


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
    basis = kernel_basis(sparse(rows), 5)
    assert rank(rows, 5) + len(basis) == 5
    for vec in views(basis, 5):
        assert all(x == 0 for x in mat_vec(rows, vec))
    assert sparse_rref([dict(entries) for entries, _ in basis], 5)[0] == basis


def test_sparse_row_drops_zeros_over_one_common_denominator():
    assert sparse_row((F(1, 2), F(0), F(-2, 3), F(5))) == {0: 3, 2: -4, 3: 30}
    assert sparse_row((F(0), F(-4, 6))) == {1: -2}
    assert sparse_row((F(0), F(0))) == {}
    assert sparse_row(()) == {}
