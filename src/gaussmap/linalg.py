"""Exact linear algebra over the rationals.

The rows come in blocks (`Block`): a block's columns and its rows, level by
level, each row a list of integers dense over those columns. A matrix is the
direct sum of its blocks, so its RREF is the union of theirs, ordered by
pivot column. The Gaussian-map systems are graded by weight, so their
builders hand over one block per weight, and one large elimination becomes
many small ones; `_blocks` finds the blocks of sparse integer rows
(``{column: int}`` dicts; a zero entry joins nothing) with no grading, as
the connected components of the graph joining each row to the columns where
it is nonzero. Every vector comes out as a `Row`: its sorted nonzero
(column, numerator) entries over one positive denominator, primitive, so
that the denominator is the lcm of the entries' denominators and equal rows
are equal vectors. Each leads with its denominator, an entry of 1. `row_of`
is the row of a rational vector, `sparse_row` its entries, `fractions` its
dense view. The rank is the number of pivots.

There is one exact elimination: each block keeps its RREF as a store of
primitive integer rows with a positive pivot, which a row joins by the
fraction-free two-by-two step (`_add`); a full store draws no more rows
(`_reduce`). There are two readers of the store, and neither makes a
`Fraction`. ``rref`` reads each row once, over its pivot; ``kernel_chain``
reads the kernels of growing sets of rows off one store per block, so each
row is reduced once, and ``kernel_basis`` is one level of it over
`_blocks`. (The equations route of `gaussian` reads its kernels off
``rref`` on purpose, so the two routes share no kernel reader.) The RREF of
a row space is unique, so kernel bases are in reduced row-echelon normal
form: two routes that compute the same subspace produce identical rows.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm

from .errors import IndexOutOfRange

Vector = tuple[Fraction, ...]
SparseRow = dict[int, int]
Row = tuple[tuple[tuple[int, int], ...], int]
# A block's columns (ascending) and its rows level by level, dense over them.
Block = tuple[Sequence[int], Sequence[Iterable[list[int]]]]


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


def _blocks(levels: Sequence[Sequence[SparseRow]], ncols: int) -> list[Block]:
    """The blocks of sparse rows with no grading, given level by level: the
    connected components of the graph joining each row to the columns where
    it is nonzero. Zero entries join nothing: a column no row touches is a
    block with no rows, and a zero row lies in no block."""
    parent = list(range(ncols))

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    supported = []
    for level, rows in enumerate(levels):
        for row in rows:
            if support := [c for c, x in row.items() if x]:
                if min(support) < 0 or max(support) >= ncols:
                    raise IndexOutOfRange(f"row entry outside columns 0..{ncols - 1}")
                supported.append((level, support[0], row))
                root = find(support[0])
                for c in support[1:]:
                    parent[find(c)] = root
    columns: dict[int, list[int]] = {}
    for c in range(ncols):
        columns.setdefault(find(c), []).append(c)
    blocks = {root: (cols, [[] for _ in levels]) for root, cols in columns.items()}
    for level, first, row in supported:
        cols, rows = blocks[find(first)]
        rows[level].append([row.get(c, 0) for c in cols])
    return list(blocks.values())


def _add(store: dict[int, list[int]], row: list[int]) -> None:
    """Add a dense integer row to a block's store: its RREF as primitive
    integer rows with a positive pivot, keyed by pivot column. The row is
    cross-multiplied against each pivot row it meets, and a nonzero
    remainder joins under its first nonzero column, which is then cleared
    from the other rows."""
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


def _reduce(store: dict[int, list[int]], rows: Iterable[list[int]], width: int) -> None:
    """`_add` rows to the store of a block of ``width`` columns until it is
    full: no row changes a full store, so it draws no more of them."""
    if len(store) < width:
        for row in rows:
            _add(store, row)
            if len(store) == width:
                return


def rref(blocks: Iterable[Block]) -> tuple[tuple[Row, ...], tuple[int, ...]]:
    """Reduced row-echelon form (nonzero rows only) and pivot columns of the
    rows of every level of ``blocks``, one store per block; the rank is the
    number of pivots."""
    placed: list[tuple[int, Row]] = []
    for cols, levels in blocks:
        store: dict[int, list[int]] = {}
        for rows in levels:
            _reduce(store, rows, len(cols))
        for p, row in store.items():
            placed.append((cols[p], (tuple((c, x) for c, x in zip(cols, row) if x), row[p])))
    placed.sort(key=lambda item: item[0])
    return tuple(row for _, row in placed), tuple(p for p, _ in placed)


def kernel_basis(rows: Sequence[SparseRow], ncols: int) -> tuple[Row, ...]:
    """Canonical basis of the right kernel of sparse rows with no grading:
    one level of `kernel_chain` on their `_blocks`."""
    return kernel_chain(_blocks([rows], ncols))[0]


def kernel_chain(blocks: Iterable[Block]) -> tuple[tuple[Row, ...], ...]:
    """Canonical bases of the right kernels of the rows of levels 0..i of
    ``blocks``, for every i.

    Each is read off the RREF of its rows with the columns in reverse
    order, where each free column f gives the kernel vector with 1 at f, 0
    at the other free columns and minus column f of the RREF at the pivots,
    all of which precede f. In the original order each such vector leads
    with its 1, at a column where all the others are 0: sorted by that
    column, they are the RREF of the kernel; each row is over the lcm of the
    pivots it meets, cut by what its entries share. Each block keeps one
    store across its levels, its rows reversed as they join, and after each
    level every free column of the block is read off the store, again only
    if the store grew."""
    found: dict[int, list[tuple[int, Row]]] = {}
    for cols, levels in blocks:
        cols, width = cols[::-1], len(cols)
        store: dict[int, list[int]] = {}
        read, vectors = -1, []
        for level, rows in enumerate(levels):
            _reduce(store, (row[::-1] for row in rows), width)
            if read != len(store):
                read, vectors = len(store), []
                for f in (f for f in range(width) if f not in store):
                    met = [(cols[p], row[f], row[p]) for p, row in store.items() if row[f]]
                    den = lcm(*(d for *_, d in met))
                    entries = [(cols[f], den), *sorted((c, -x * (den // d)) for c, x, d in met)]
                    if (g := gcd(*(x for _, x in entries))) > 1:
                        entries = [(c, x // g) for c, x in entries]
                        den //= g
                    vectors.append((cols[f], (tuple(entries), den)))
            found.setdefault(level, []).extend(vectors)
    return tuple(tuple(v for _, v in sorted(vs)) for vs in found.values())


def dot(u: Vector, v: Vector) -> Fraction:
    """Exact inner product; products with a zero factor are skipped."""
    if len(u) != len(v):
        raise IndexOutOfRange("dimension mismatch in dot product")
    total = Fraction(0)
    for a, b in zip(u, v):
        if a and b:
            total += a * b
    return total
