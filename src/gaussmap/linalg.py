"""Exact linear algebra over the rationals.

``rref``, ``kernel_basis`` and ``kernel_chain`` take sparse integer rows
(``{column: int}`` dicts; a zero entry joins nothing) and a column count,
and give each vector as a `Row`: its sorted nonzero (column, numerator)
entries over one positive denominator, primitive, so that the denominator
is the lcm of the entries' denominators and equal rows are equal vectors.
Each leads with its denominator, an entry of 1. `row_of` is the row of a
rational vector, `sparse_row` its entries, `fractions` its dense view. The
columns are split into blocks, the connected components of the graph
joining each row to the columns where it is nonzero. A matrix is the direct
sum of its blocks, so its RREF is the union of theirs, ordered by pivot
column; the Gaussian-map systems are graded by weight, so one large
elimination becomes many small ones. The rank is the number of pivots.

There is one exact elimination: each block keeps its RREF as a store of
primitive integer rows with a positive pivot, which a row joins by the
fraction-free two-by-two step (`_add`). There are two readers of the
store, and neither makes a `Fraction`. ``rref`` reads each row once, over
its pivot; ``kernel_chain`` reads the kernels of growing sets of rows off
one store per block, so each row is reduced once, and ``kernel_basis`` is
one level of ``kernel_chain``. (The equations route of `gaussian` reads its
kernels off ``rref`` on purpose, so the two routes share no kernel reader.)
The RREF of a row space is unique, so kernel bases are in reduced
row-echelon normal form: two routes that compute the same subspace produce
identical rows.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm

from .errors import IndexOutOfRange

Vector = tuple[Fraction, ...]
SparseRow = dict[int, int]
Row = tuple[tuple[tuple[int, int], ...], int]


def numerators(values) -> tuple[list[int], int]:
    """Integer numerators of these rationals over their least common denominator."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def row_of(vector: Sequence[Fraction]) -> Row:
    """The nonzero numerators of ``vector`` over the lcm of its denominators."""
    ints, den = numerators(vector)
    return tuple((c, x) for c, x in enumerate(ints) if x), den


def sparse_row(vector: Sequence[Fraction]) -> SparseRow:
    """The entries of `row_of` as an input row."""
    return dict(row_of(vector)[0])


def fractions(row: Row, ncols: int) -> Vector:
    """The dense `Fraction` view of a row with ``ncols`` columns."""
    out = [Fraction(0)] * ncols
    for c, x in row[0]:
        out[c] = Fraction(x, row[1])
    return tuple(out)


def _blocks(
    rows: Sequence[SparseRow], ncols: int
) -> list[tuple[list[int], list[tuple[int, list[int]]]]]:
    """Connected blocks: each block's columns (ascending) and its rows, each
    with its index in ``rows``, made dense over those columns. Zero entries
    join nothing, so zero rows and columns no row touches lie in no block."""
    parent: dict[int, int] = {}

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    supported = []
    for index, row in enumerate(rows):
        support = [c for c, x in row.items() if x]
        if support:
            supported.append((index, support[0], row))
            for c in support:
                parent.setdefault(c, c)
            root = find(support[0])
            for c in support[1:]:
                parent[find(c)] = root
    if parent and (min(parent) < 0 or max(parent) >= ncols):
        raise IndexOutOfRange(f"row entry outside columns 0..{ncols - 1}")
    columns: dict[int, list[int]] = {}
    for c in sorted(parent):
        columns.setdefault(find(c), []).append(c)
    block_rows: dict[int, list[tuple[int, list[int]]]] = {root: [] for root in columns}
    for index, first, row in supported:
        root = find(first)
        block_rows[root].append((index, [row.get(c, 0) for c in columns[root]]))
    return [(cols, block_rows[root]) for root, cols in columns.items()]


def _add(store: dict[int, list[int]], row: list[int]) -> None:
    """Add a dense integer row to a block's store: its RREF as primitive
    integer rows with a positive pivot, keyed by pivot column. The row is
    cross-multiplied against each pivot row it meets, and a nonzero
    remainder joins under its first nonzero column, which is then cleared
    from the other rows. A full store takes no more rows."""
    if len(store) == len(row):
        return
    for p, pivot_row in store.items():
        if f := row[p]:
            a = pivot_row[p]
            row = [a * x - f * y for x, y in zip(row, pivot_row)]
    if not (g := gcd(*row)):
        return
    p = next(c for c, x in enumerate(row) if x)
    row = [x // g for x in row] if row[p] > 0 else [x // -g for x in row]
    for q, other in store.items():
        if f := other[p]:
            other = [row[p] * x - f * y for x, y in zip(other, row)]
            g = gcd(*other)
            store[q] = [x // g for x in other] if g > 1 else other
    store[p] = row


def rref(
    rows: Sequence[SparseRow], ncols: int | None = None
) -> tuple[tuple[Row, ...], tuple[int, ...]]:
    """Reduced row-echelon form (nonzero rows only) and pivot columns of
    sparse integer rows with their column count; the rank is the number of
    pivots."""
    if ncols is None:
        raise IndexOutOfRange("sparse rows need an explicit column count")
    placed: list[tuple[int, Row]] = []
    for cols, block in _blocks(rows, ncols):
        store: dict[int, list[int]] = {}
        for _, row in block:
            _add(store, row)
        for p, row in store.items():
            placed.append((cols[p], (tuple((c, x) for c, x in zip(cols, row) if x), row[p])))
    placed.sort(key=lambda item: item[0])
    return tuple(row for _, row in placed), tuple(p for p, _ in placed)


def kernel_basis(rows: Sequence[SparseRow], ncols: int) -> tuple[Row, ...]:
    """Canonical basis of the right kernel of ``rows`` (taken as by `rref`):
    one level of `kernel_chain`."""
    return kernel_chain([rows], ncols)[0]


def kernel_chain(
    levels: Sequence[Sequence[SparseRow]], ncols: int
) -> tuple[tuple[Row, ...], ...]:
    """Canonical bases of the right kernels of the rows of levels 0..i, for
    every i.

    Each is read off the RREF of its rows with the columns in reverse
    order, where each free column f gives the kernel vector with 1 at f, 0
    at the other free columns and minus column f of the RREF at the pivots,
    all of which precede f. In the original order each such vector leads
    with its 1, at a column where all the others are 0: sorted by that
    column, they are the RREF of the kernel; each row is over the lcm of the
    pivots it meets, cut by what its entries share. The reversed columns are
    split into blocks once; each row joins its block's store once, and after
    each level every free column of a block is read off its store."""
    last = ncols - 1
    ends = list(accumulate(map(len, levels)))
    found: list[list[tuple[int, Row]]] = [[] for _ in levels]
    untouched = set(range(ncols))
    flipped = [{last - c: x for c, x in row.items()} for level in levels for row in level]
    for cols, block in _blocks(flipped, ncols):
        untouched.difference_update(last - c for c in cols)
        store: dict[int, list[int]] = {}
        i = 0
        for level, end in enumerate(ends):
            while i < len(block) and block[i][0] < end:
                _add(store, block[i][1])
                i += 1
            for f in (f for f in range(len(cols)) if f not in store):
                met = [(cols[p], row[f], row[p]) for p, row in store.items() if row[f]]
                den = lcm(*(d for *_, d in met))
                entries = [(last - cols[f], den)]
                entries += sorted((last - c, -x * (den // d)) for c, x, d in met)
                if (g := gcd(*(x for _, x in entries))) > 1:
                    entries = [(c, x // g) for c, x in entries]
                    den //= g
                found[level].append((last - cols[f], (tuple(entries), den)))
    units = [(c, (((c, 1),), 1)) for c in untouched]
    return tuple(tuple(v for _, v in sorted(vs + units)) for vs in found)


def dot(u: Vector, v: Vector) -> Fraction:
    """Exact inner product; products with a zero factor are skipped."""
    if len(u) != len(v):
        raise IndexOutOfRange("dimension mismatch in dot product")
    total = Fraction(0)
    for a, b in zip(u, v):
        if a and b:
            total += a * b
    return total
