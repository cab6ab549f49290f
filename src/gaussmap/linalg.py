"""Exact linear algebra over the rationals.

``rref`` and ``kernel_basis`` take one input form: sparse integer rows
(``{column: int}`` dicts; a zero entry joins nothing) and a column count.
`sparse_row` turns a rational vector into such a row, scaled by the lcm of
its denominators, which leaves the row space unchanged. The columns are
split into blocks, the connected components of the graph joining each row
to the columns where it is nonzero. A matrix is the direct sum of its
blocks, so its RREF is the union of theirs, ordered by pivot column; the
Gaussian-map systems are graded by weight, so one large elimination becomes
many small ones. The rank is the number of pivots.

Each block, dense over its own columns, is eliminated fraction-free in the
style of Bareiss (the two-by-two determinant update with exact division by
the previous pivot); ``rref`` back-substitutes in integers too, and each
output entry is one `Fraction`. Pivoting is deterministic (first nonzero
entry in column order), so every result is a pure function of the input,
and kernel bases are in reduced row-echelon normal form: two routes that
compute the same subspace produce identical tuples.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import gcd

from .errors import IndexOutOfRange
from .rationals import numerators

Vector = tuple[Fraction, ...]
SparseRow = dict[int, int]

# Every zero entry of an output vector, and every pivot of a kernel vector,
# is one of these objects, so comparing two outputs skips them by identity.
ZERO = Fraction(0)
ONE = Fraction(1)


def sparse_row(vector: Sequence[Fraction]) -> SparseRow:
    """The nonzero numerators of ``vector`` over its least common denominator."""
    ints, _ = numerators(vector)
    return {c: x for c, x in enumerate(ints) if x}


def _echelon(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Fraction-free forward elimination; returns echelon rows and pivot columns."""
    nrows = len(rows)
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, nrows):
            factor = rows[i][c]
            if factor == 0 and piv == prev:
                continue
            for j in range(c + 1, ncols):
                rows[i][j] = (piv * rows[i][j] - factor * rows[r][j]) // prev
            rows[i][c] = 0
        pivots.append(c)
        prev = piv
        r += 1
        if r == nrows:
            break
    return rows, pivots


def _blocks(rows: Sequence[SparseRow], ncols: int) -> list[tuple[list[int], list[list[int]]]]:
    """Connected blocks: each block's columns (ascending) and its rows, made
    dense over those columns and divided by their gcd. Zero entries join
    nothing, so zero rows and columns no row touches lie in no block."""
    parent: dict[int, int] = {}

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    supported = []
    for row in rows:
        support = [c for c, x in row.items() if x]
        if support:
            supported.append((support[0], row))
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
    block_rows: dict[int, list[list[int]]] = {root: [] for root in columns}
    for first, row in supported:
        root = find(first)
        dense = [row.get(c, 0) for c in columns[root]]
        g = gcd(*dense)
        block_rows[root].append([v // g for v in dense] if g > 1 else dense)
    return [(cols, block_rows[root]) for root, cols in columns.items()]


def rref(
    rows: Sequence[SparseRow], ncols: int | None = None
) -> tuple[tuple[Vector, ...], tuple[int, ...]]:
    """Reduced row-echelon form (nonzero rows only) and pivot columns of
    sparse integer rows with their column count; the rank is the number of
    pivots."""
    if ncols is None:
        raise IndexOutOfRange("sparse rows need an explicit column count")
    placed: list[tuple[int, Vector]] = []
    for cols, block in _blocks(rows, ncols):
        ech, pivots = _echelon(block, len(cols))
        # Back-substitution in integers: row i of the RREF is ech[i] divided
        # by its pivot entry; a changed row is divided by its gcd.
        for i in reversed(range(len(pivots))):
            row, c = ech[i], pivots[i]
            for above in range(i):
                f = ech[above][c]
                if f:
                    upper = [row[c] * a - f * b for a, b in zip(ech[above], row)]
                    g = gcd(*upper)
                    ech[above] = [v // g for v in upper] if g > 1 else upper
        for p, row in zip(pivots, ech):
            full = [ZERO] * ncols
            for c, x in zip(cols, row):
                if x:
                    full[c] = Fraction(x, row[p])
            placed.append((cols[p], tuple(full)))
    placed.sort(key=lambda item: item[0])
    return tuple(row for _, row in placed), tuple(p for p, _ in placed)


def kernel_basis(rows: Sequence[SparseRow], ncols: int) -> tuple[Vector, ...]:
    """Canonical basis of the right kernel of ``rows`` (taken as by `rref`).

    It is read off the RREF of the rows with its columns in reverse order,
    where each free column f gives the kernel vector with 1 at f, 0 at the
    other free columns and minus column f of the RREF at the pivots, all of
    which precede f. In the original order each such vector leads with its
    1, at a column where all the others are 0: sorted by that column, they
    are the RREF of the kernel.
    """
    last = ncols - 1
    reduced, pivots = rref([{last - c: x for c, x in r.items()} for r in rows], ncols)
    columns = list(zip(*reduced)) or [()] * ncols
    pivot_set = set(pivots)
    vectors: list[Vector] = []
    for f in reversed(range(ncols)):
        if f not in pivot_set:
            v = [ZERO] * ncols
            v[last - f] = ONE
            for p, x in zip(pivots, columns[f]):
                if x is not ZERO:
                    v[last - p] = -x
            vectors.append(tuple(v))
    return tuple(vectors)


def dot(u: Vector, v: Vector) -> Fraction:
    """Exact inner product; products with a zero factor are skipped."""
    if len(u) != len(v):
        raise IndexOutOfRange("dimension mismatch in dot product")
    total = Fraction(0)
    for a, b in zip(u, v):
        if a and b:
            total += a * b
    return total
