"""Coordinates on the space of quadrics through the canonical curve.

For a hyperelliptic curve of genus g the quadrics cutting out the image
of the canonical map form a space of dimension (g-1)(g-2)/2 with a
convenient basis indexed by pairs 1 <= i < j <= g-1:

    Q_ij = alpha_i . alpha_{j-1} - alpha_j . alpha_{i-1}

("." is the symmetric product), where alpha_m = x^m dx/y is the canonical
basis. A quadric is stored by its exact coefficients a_ij in this basis
("a-coordinates", lexicographic pair order).

A quadric holds them as one integer row (`linalg.Row`), the form in which
the kernels and cuts hand out their vectors; its `Fraction` coordinates,
label and JSON are views made where a caller reads them. Three derived
presentations are used throughout:

* the symmetric tensor ("c-tensor"): the g x g symmetric matrix of
  coefficients over alpha_m (x) alpha_n, with the symmetric product
  expanded as half the sum of the two tensor orders (`pair_slots`);
* "b-coordinates": the same quadric written against the decomposable
  products s*omega_i . t*omega_j - s*omega_j . t*omega_i built from the
  degree-two pencil section s and the twisted forms; the change of basis
  is the exact involution b_{k,h} = -a_{g-h,g-k}, so a-column (i, j) holds
  the b-pair (g-j, g-i) (`b_pairs`);
* the integer tensor (`QuadricI2.tensor`): the nonzero c-tensor entries as
  integers over twice the row's denominator, made once per quadric from
  the row and read by the pairing matrices (through `QuadricI2.layout`,
  its rows and least weight), the x-chart cross-check and the polynomial
  identities (`sym_tensor` is the `Fraction` form that tests compare
  against).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import IndexOutOfRange
from .linalg import Row, fractions, row_of
from .rationals import as_rational, rat_to_string
from .record import Record

GENERA_KEPT = 2  # genera kept by each genus-keyed module cache; suites walk genera upward


@lru_cache(maxsize=GENERA_KEPT)
def sym_pairs(genus: int) -> tuple[tuple[int, int], ...]:
    """Index pairs (i, j), 1 <= i < j <= g-1, in lexicographic order."""
    if genus < 3:
        raise IndexOutOfRange(f"genus must be at least 3, got {genus}")
    return tuple(
        (i, j) for i in range(1, genus) for j in range(i + 1, genus)
    )


def wedge_pairs(genus: int) -> tuple[tuple[int, int], ...]:
    """Index pairs (i, j), 0 <= i < j <= g-1, for the exterior square."""
    if genus < 3:
        raise IndexOutOfRange(f"genus must be at least 3, got {genus}")
    return tuple(
        (i, j) for i in range(genus) for j in range(i + 1, genus)
    )


# A slot (a, b, weight) is a tensor entry alpha_a (x) alpha_b of a basis
# column; all slots of one column share the sum a + b.
def pair_slots(i: int, j: int) -> tuple[tuple[int, int, int], ...]:
    """The slots of twice the symmetric tensor of Q_ij (sum i + j - 1)."""
    return ((i, j - 1, 1), (j - 1, i, 1), (j, i - 1, -1), (i - 1, j, -1))


def wedge_slots(i: int, j: int) -> tuple[tuple[int, int, int], ...]:
    """The slots of alpha_i ^ alpha_j (sum i + j)."""
    return ((i, j, 1), (j, i, -1))


def quadric_space_dimension(genus: int) -> int:
    return (genus - 1) * (genus - 2) // 2


@lru_cache(maxsize=GENERA_KEPT)
def b_pairs(genus: int) -> tuple[tuple[int, int], ...]:
    """The b-pair of each a-column: (g-j, g-i) for the pair (i, j)."""
    return tuple((genus - j, genus - i) for i, j in sym_pairs(genus))


def vector_to_json(genus: int, row: Row) -> dict:
    """{"i,j": "p/q"} over the nonzero entries of a coordinate row."""
    pairs, (entries, den) = sym_pairs(genus), row
    return {"{},{}".format(*pairs[c]): rat_to_string(Fraction(x, den)) for c, x in entries}


class QuadricI2(Record):
    """A quadric through the canonical curve: its a-coordinates as one row."""

    genus: int
    row: Row

    def __post_init__(self):
        (entries, den), dim = self.row, quadric_space_dimension(self.genus)
        if den < 1 or entries and not 0 <= entries[0][0] <= entries[-1][0] < dim:
            raise IndexOutOfRange(
                f"not a row of {dim} columns over a positive denominator: {self.row}"
            )

    # -- coordinate views ---------------------------------------------------

    @cached_property
    def a_coords(self) -> tuple[Fraction, ...]:
        return fractions(self.row, quadric_space_dimension(self.genus))

    def a(self, i: int, j: int) -> Fraction:
        return self.a_coords[_pair_index(self.genus, i, j)]

    def b(self, k: int, h: int) -> Fraction:
        g = self.genus
        _check_pair(g, k, h)
        return -self.a(g - h, g - k)

    def b_coords(self) -> tuple[Fraction, ...]:
        return tuple(self.b(k, h) for (k, h) in sym_pairs(self.genus))

    def is_zero(self) -> bool:
        return not self.row[0]

    def sym_tensor(self) -> tuple[tuple[Fraction, ...], ...]:
        """Symmetric g x g coefficient matrix over alpha_m (x) alpha_n."""
        g = self.genus
        c = [[Fraction(0)] * g for _ in range(g)]
        for (i, j), coeff in zip(sym_pairs(g), self.a_coords):
            if coeff:
                for a, b, weight in pair_slots(i, j):
                    c[a][b] += coeff * Fraction(weight, 2)
        return tuple(tuple(row) for row in c)

    @cached_property
    def tensor(self) -> tuple[tuple[tuple[int, int, int], ...], int]:
        """The nonzero entries (a, b, n) of the symmetric tensor, row by row,
        as integers n = 2E c_ab over the one denominator 2E returned, E the
        row's denominator."""
        pairs = sym_pairs(self.genus)
        entries, den = self.row
        acc: dict[tuple[int, int], int] = {}
        for c, x in entries:
            for a, b, weight in pair_slots(*pairs[c]):
                acc[(a, b)] = acc.get((a, b), 0) + weight * x
        return tuple((a, b, n) for (a, b), n in sorted(acc.items()) if n), 2 * den

    @cached_property
    def layout(self) -> tuple[tuple[int, ...], tuple[tuple[tuple[int, int], ...], ...], int]:
        """The tensor's rows as every pairing reads them: the rows a that hold
        an entry, each row's entries (b, n), and the least weight w = min(a + b)
        (2g when the tensor is empty, above the sum of any two rows)."""
        rows: dict[int, list[tuple[int, int]]] = {}
        for a, b, n in self.tensor[0]:
            rows.setdefault(a, []).append((b, n))
        least = min((a + b for a, b, _ in self.tensor[0]), default=2 * self.genus)
        return tuple(rows), tuple(map(tuple, rows.values())), least

    def to_json(self) -> dict:
        return vector_to_json(self.genus, self.row)

    def label(self) -> str:
        return self._label

    @cached_property
    def _label(self) -> str:
        pairs, (entries, den) = sym_pairs(self.genus), self.row
        parts = [rat_to_string(Fraction(x, den)) + "*Q[%d,%d]" % pairs[c] for c, x in entries]
        return " + ".join(parts) or "0"


def _check_pair(genus: int, i: int, j: int) -> None:
    if not (1 <= i < j <= genus - 1):
        raise IndexOutOfRange(
            f"pair ({i},{j}) outside 1 <= i < j <= {genus - 1}"
        )


def _pair_index(genus: int, i: int, j: int) -> int:
    _check_pair(genus, i, j)
    # the g-1-m pairs of each first entry m < i come first
    return (i - 1) * (2 * genus - 2 - i) // 2 + j - i - 1


def basis_quadric(genus: int, i: int, j: int) -> QuadricI2:
    """The basis element Q_ij."""
    return QuadricI2(genus=genus, row=(((_pair_index(genus, i, j), 1),), 1))


def quadric_from_a(genus: int, entries) -> QuadricI2:
    """Build a quadric from a mapping {(i, j): value} or {"i,j": value}."""
    coords = [Fraction(0)] * quadric_space_dimension(genus)
    for key, value in entries.items():
        if isinstance(key, str):
            parts = key.split(",")
            if len(parts) != 2:
                raise IndexOutOfRange(f"bad pair key {key!r}")
            i, j = int(parts[0]), int(parts[1])
        else:
            i, j = key
        coords[_pair_index(genus, i, j)] = as_rational(value)
    return quadric_from_vector(genus, coords)


def quadric_from_vector(genus: int, vector) -> QuadricI2:
    """The quadric with these a-coordinates, one per pair of `sym_pairs`."""
    coords = [v if isinstance(v, Fraction) else Fraction(v) for v in vector]
    if len(coords) != (expected := quadric_space_dimension(genus)):
        raise IndexOutOfRange(
            f"expected {expected} coordinates for genus {genus}, got {len(coords)}"
        )
    return QuadricI2(genus=genus, row=row_of(coords))


def combine(genus: int, coefficients, quadrics) -> QuadricI2:
    """Exact linear combination of quadrics."""
    acc = [Fraction(0)] * quadric_space_dimension(genus)
    for coeff, q in zip(coefficients, quadrics):
        if q.genus != genus:
            raise IndexOutOfRange("cannot combine quadrics of different genus")
        for c, x in q.row[0]:
            acc[c] += Fraction(coeff) * Fraction(x, q.row[1])
    return quadric_from_vector(genus, acc)
