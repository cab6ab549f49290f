"""Exact linear algebra over the rationals.

``rref`` (and so every kernel and span) first splits a matrix into blocks:
the connected components of the graph joining each row to the columns where
it is nonzero. A matrix is the direct sum of its blocks, so its reduced
row-echelon form is the union of theirs, embedded back into full width and
ordered by pivot column: each such row is zero outside its block and, inside
it, zero at the block's other pivots. The Gaussian-map systems are graded by
weight, so this turns one large elimination into many small ones.

Each block, and each matrix given to ``matrix_rank``, is eliminated
fraction-free in the style of Bareiss: each row is first scaled to
integers, forward elimination uses the two-by-two determinant update with
exact division by the previous pivot, and only the final back-substitution
reintroduces fractions. Pivoting is deterministic (first nonzero entry in
column order), so every derived object — echelon form, rank, kernel basis —
is a pure function of the input matrix.

Kernel bases are canonical: the kernel's spanning vectors are themselves
reduced to row-echelon normal form, pivots normalized to 1. Two routes
that compute the same subspace therefore produce identical tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import IndexOutOfRange

Vector = tuple[Fraction, ...]


@dataclass(frozen=True)
class RatMatrix:
    """Immutable rational matrix (tuple of row tuples)."""

    rows: tuple[Vector, ...]
    ncols: int

    @classmethod
    def from_rows(cls, rows, ncols: int | None = None) -> "RatMatrix":
        frozen = tuple(
            tuple(x if isinstance(x, Fraction) else Fraction(x) for x in row)
            for row in rows
        )
        if frozen:
            width = len(frozen[0])
            if any(len(r) != width for r in frozen):
                raise IndexOutOfRange("ragged rows in matrix")
            if ncols is not None and ncols != width:
                raise IndexOutOfRange("declared ncols does not match rows")
            ncols = width
        elif ncols is None:
            raise IndexOutOfRange("empty matrix needs an explicit column count")
        return cls(rows=frozen, ncols=ncols)

    @property
    def nrows(self) -> int:
        return len(self.rows)


def _integer_rows(m: RatMatrix) -> list[list[int]]:
    out: list[list[int]] = []
    for row in m.rows:
        scale = 1
        for x in row:
            scale = scale * x.denominator // gcd(scale, x.denominator)
        ints = [int(x * scale) for x in row]
        g = 0
        for v in ints:
            g = gcd(g, v)
        if g > 1:
            ints = [v // g for v in ints]
        out.append(ints)
    return out


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


def _blocks(m: RatMatrix) -> list[tuple[list[int], RatMatrix]] | None:
    """Connected components of the row-column support graph of ``m``.

    Each block is its column indices (ascending) and the submatrix of its
    rows on those columns. Zero rows, and columns no row touches, lie in no
    block. Returns None when ``m`` is already one block: connected, with no
    zero row and no untouched column.
    """
    parent: dict[int, int] = {}

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    supports = []
    for row in m.rows:
        support = [c for c, x in enumerate(row) if x]
        supports.append(support)
        for c in support:
            parent.setdefault(c, c)
        if support:
            root = find(support[0])
            for c in support[1:]:
                other = find(c)
                if other != root:
                    parent[other] = root
    columns: dict[int, list[int]] = {}
    for c in sorted(parent):
        columns.setdefault(find(c), []).append(c)
    if len(columns) == 1 and len(parent) == m.ncols and all(supports):
        return None
    rows: dict[int, list[Vector]] = {root: [] for root in columns}
    for row, support in zip(m.rows, supports):
        if support:
            rows[find(support[0])].append(row)
    return [
        (cols, RatMatrix.from_rows([[row[c] for c in cols] for row in rows[root]]))
        for root, cols in columns.items()
    ]


def matrix_rank(m: RatMatrix) -> int:
    if not m.rows:
        return 0
    _, pivots = _echelon(_integer_rows(m), m.ncols)
    return len(pivots)


def rref(m: RatMatrix) -> tuple[tuple[Vector, ...], tuple[int, ...]]:
    """Reduced row-echelon form (nonzero rows only) and pivot columns."""
    blocks = _blocks(m)
    if blocks is not None:
        placed: list[tuple[int, Vector]] = []
        for cols, block in blocks:
            block_rows, block_pivots = rref(block)
            for row, p in zip(block_rows, block_pivots):
                full = [Fraction(0)] * m.ncols
                for c, x in zip(cols, row):
                    full[c] = x
                placed.append((cols[p], tuple(full)))
        placed.sort(key=lambda item: item[0])
        return tuple(row for _, row in placed), tuple(p for p, _ in placed)
    ech, pivots = _echelon(_integer_rows(m), m.ncols)
    rank = len(pivots)
    rows = [[Fraction(x) for x in ech[i]] for i in range(rank)]
    for i in reversed(range(rank)):
        c = pivots[i]
        inv = rows[i][c]
        rows[i] = [x / inv for x in rows[i]]
        for above in range(i):
            f = rows[above][c]
            if f:
                rows[above] = [a - f * b for a, b in zip(rows[above], rows[i])]
    return tuple(tuple(r) for r in rows), tuple(pivots)


def kernel_basis(m: RatMatrix) -> tuple[Vector, ...]:
    """Canonical basis of the right kernel of ``m``.

    The basis is the reduced row-echelon normal form of the nullspace:
    deterministic, pivot entries 1, independent of which equations cut
    the space out.
    """
    reduced, pivots = rref(m)
    ncols = m.ncols
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    vectors: list[Vector] = []
    for f in free_cols:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -reduced[i][f]
        vectors.append(tuple(v))
    if not vectors:
        return ()
    canonical, _ = rref(RatMatrix.from_rows(vectors, ncols))
    return canonical


def canonicalize_span(vectors: list[Vector] | tuple[Vector, ...], ncols: int) -> tuple[Vector, ...]:
    """Reduced row-echelon normal form of the span of ``vectors``."""
    if not vectors:
        return ()
    reduced, _ = rref(RatMatrix.from_rows(vectors, ncols))
    return reduced


def mat_vec(m: RatMatrix, v: Vector) -> Vector:
    if m.ncols != len(v):
        raise IndexOutOfRange("dimension mismatch in matrix-vector product")
    return tuple(sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in m.rows)


def dot(u: Vector, v: Vector) -> Fraction:
    """Exact inner product; products with a zero factor are skipped."""
    if len(u) != len(v):
        raise IndexOutOfRange("dimension mismatch in dot product")
    total = Fraction(0)
    for a, b in zip(u, v):
        if a and b:
            total += a * b
    return total


def in_span(vector: Vector, basis: tuple[Vector, ...]) -> bool:
    """Whether ``vector`` lies in the span of an RREF ``basis``."""
    residue = list(vector)
    for row in basis:
        lead = next((c for c, x in enumerate(row) if x != 0), None)
        if lead is None:
            continue
        coeff = residue[lead] / row[lead]
        if coeff:
            residue = [a - coeff * b for a, b in zip(residue, row)]
    return not any(residue)
