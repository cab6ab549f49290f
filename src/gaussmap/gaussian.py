"""Higher Gaussian maps of the canonical bundle: kernels, ranks, identities.

Even maps. Restricted to quadrics through the canonical curve, the 2k-th
Gaussian map is computed in the affine x-chart, where the canonical frame
functions are simply f_m = x^m. Vanishing of the map on a quadric with
symmetric tensor c is equivalent to a finite family of exact linear
equations on the a-coordinates, one per monomial degree l:

    sum_{i+j=l} a_ij (j - i) prod_{q=0}^{k-2} (i - q)(j - q) = 0,

for l between max(3, 2k-1) and 2g-3. The kernel of mu_2k is cut out by
the equations of levels 1..k together, and these nested kernels form the
strictly decreasing kernel chain.

Two independent routes compute each kernel:

* ``kernel_via_equations`` assembles the closed-form level equations and
  takes the kernel of the stacked rows of levels 1..k;
* ``kernel_via_polynomial_oracle`` never uses the closed form: it imposes
  the raw derivative identities sum c_ab f_a^(h) f_b^(n) == 0 (as
  polynomials in x) for all h + n <= 2k+1, coefficient by coefficient.

Both systems are graded by weight: a level equation touches only the pairs
with i + j = l, and an identity row of x-degree e and order h + n only the
basis quadrics with i + j = e + h + n + 1. Both are built as sparse integer
rows (the identity rows from twice the symmetric tensor, whose entries are
+-1/2), which ``linalg`` eliminates one weight block at a time. Both routes
produce canonical (reduced row-echelon) bases, so agreement is literal tuple
equality.

Odd maps act on the exterior square of the canonical space and are
handled by ``odd_kernel_and_rank`` (x-chart equations) and
``wronskian_rank_oracle`` (exact jets of Wronskians at the base point —
a genuinely different computation on a concrete curve).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

from .curve import Curve, canonical_derivatives
from .errors import (
    IdentityFailed,
    IndexOutOfRange,
    InvalidIndex,
    NotInKernel,
    NotInPreviousKernel,
)
from .linalg import RatMatrix, SparseRow, Vector, kernel_basis, matrix_rank
from .poly import Poly, falling
from .quadrics import (
    QuadricI2,
    quadric_space_dimension,
    sym_pairs,
    vector_to_json,
    wedge_pairs,
)


def _c_entries(i: int, j: int) -> tuple[tuple[int, int, int], ...]:
    """Nonzero slots of twice the symmetric tensor of the basis quadric Q_ij."""
    return ((i, j - 1, 1), (j - 1, i, 1), (j, i - 1, -1), (i - 1, j, -1))


def _by_weight(pairs) -> dict[int, list[tuple[int, int, int]]]:
    """(column, i, j) of each index pair, grouped by the weight i + j."""
    out: dict[int, list[tuple[int, int, int]]] = {}
    for col, (i, j) in enumerate(pairs):
        out.setdefault(i + j, []).append((col, i, j))
    return out


# -- closed-form level equations --------------------------------------------


@dataclass(frozen=True)
class EquationSystem:
    """The level-k linear system cutting Ker mu_2k inside Ker mu_{2k-2}."""

    genus: int
    level: int
    rows: tuple[Vector, ...]
    row_labels: tuple[int, ...]
    pair_counts: tuple[tuple[int, int], ...]
    expected_rank_increment: int


def _level_rows(genus: int, k: int) -> list[SparseRow]:
    """The level-k equations as sparse integer rows, one per weight l from
    max(3, 2k-1) to 2g-3 (empty where every coefficient vanishes)."""
    by_weight = _by_weight(sym_pairs(genus))
    rows: list[SparseRow] = []
    for l in range(max(3, 2 * k - 1), 2 * genus - 2):
        row: SparseRow = {}
        for col, i, j in by_weight.get(l, ()):
            coeff = (j - i) * falling(i, k - 1) * falling(j, k - 1)
            if coeff:
                row[col] = coeff
        rows.append(row)
    return rows


def kernel_equations(genus: int, k: int) -> EquationSystem:
    if k < 1:
        raise IndexOutOfRange(f"level must be at least 1, got {k}")
    pairs = sym_pairs(genus)
    hi = 2 * genus - 3
    counts = tuple(
        (l, sum(1 for (i, j) in pairs if i + j == l)) for l in range(3, hi + 1)
    )
    return EquationSystem(
        genus=genus,
        level=k,
        rows=tuple(
            tuple(Fraction(row.get(c, 0)) for c in range(len(pairs)))
            for row in _level_rows(genus, k)
        ),
        row_labels=tuple(range(max(3, 2 * k - 1), hi + 1)),
        pair_counts=counts,
        expected_rank_increment=2 * genus - (4 * k + 1),
    )


# -- kernel chains -----------------------------------------------------------


@dataclass(frozen=True)
class KernelLevel:
    k: int
    dimension: int
    rank: int
    basis: tuple[Vector, ...]


@dataclass(frozen=True)
class KernelChain:
    genus: int
    method: str
    levels: tuple[KernelLevel, ...]

    def level(self, k: int) -> KernelLevel:
        for lv in self.levels:
            if lv.k == k:
                return lv
        raise IndexOutOfRange(f"chain has no level {k}")

    def to_json(self) -> dict:
        levels = [
            {
                "k": lv.k,
                "dimension": lv.dimension,
                "rank": lv.rank,
                "basis": [vector_to_json(self.genus, vec) for vec in lv.basis],
            }
            for lv in self.levels
        ]
        return {"genus": self.genus, "method": self.method, "levels": levels}


def max_level(genus: int) -> int:
    return (genus - 1) // 2


def kernel_dimension_formula(genus: int, k: int) -> int:
    return quadric_space_dimension(genus) - k * (2 * genus - 2 * k - 3)


def rank_formula(genus: int, k: int) -> int:
    return 2 * genus - (4 * k + 1)


@lru_cache(maxsize=None)
def kernel_via_equations(genus: int, k_max: int | None = None) -> KernelChain:
    """Kernel chain of the even Gaussian maps, closed-form equations route."""
    if k_max is None:
        k_max = max_level(genus)
    dim = quadric_space_dimension(genus)
    previous = genus * (genus + 1) // 2  # mu_0 is defined on Sym^2 of g sections
    rows: list[SparseRow] = []
    levels = []
    for k in range(k_max + 1):
        if k:
            rows.extend(_level_rows(genus, k))
        basis = kernel_basis(rows, dim)
        levels.append(
            KernelLevel(
                k=k, dimension=len(basis), rank=previous - len(basis), basis=basis
            )
        )
        previous = len(basis)
    return KernelChain(genus=genus, method="equations", levels=tuple(levels))


def _oracle_rows(genus: int, bound: int) -> tuple[list[SparseRow], list[int]]:
    """Rows of the raw identity system: all (h, n) with h >= n, h+n <= bound,
    every x-degree; entries are twice the per-basis-quadric constraint
    coefficients, as sparse integer rows.

    Rows come in increasing order h+n, so the rows of any smaller bound are
    a prefix; the second list holds, for each order, where its rows end.
    Every tensor slot of Q_ij has alpha + beta = i + j - 1, so the row of
    x-degree e and order h+n reads only the pairs with i + j = e + h + n + 1.
    """
    by_weight = _by_weight(sym_pairs(genus))
    fall = [[falling(a, h) for h in range(bound + 1)] for a in range(genus)]
    rows: list[SparseRow] = []
    ends: list[int] = []
    for total in range(bound + 1):
        for n in range(total // 2 + 1):
            h = total - n
            for e in range(0, 2 * genus - 1 - total):
                row: SparseRow = {}
                for col, i, j in by_weight.get(e + total + 1, ()):
                    value = sum(
                        weight * fall[alpha][h] * fall[beta][n]
                        for alpha, beta, weight in _c_entries(i, j)
                    )
                    if value:
                        row[col] = value
                if row:
                    rows.append(row)
        ends.append(len(rows))
    return rows, ends


@lru_cache(maxsize=None)
def _oracle_chain(genus: int, k_max: int) -> tuple[tuple[Vector, ...], ...]:
    """Oracle kernels of levels 0..k_max from one build of the identity rows:
    level k is the kernel of the prefix of orders <= 2k+1."""
    dim = quadric_space_dimension(genus)
    rows, ends = _oracle_rows(genus, 2 * k_max + 1)
    return tuple(
        kernel_basis(rows[: ends[2 * k + 1]], dim)
        for k in range(k_max + 1)
    )


def kernel_via_polynomial_oracle(genus: int, k: int) -> tuple[Vector, ...]:
    """Canonical basis of Ker mu_2k computed from raw derivative identities."""
    if k < 0:
        raise IndexOutOfRange(f"level must be nonnegative, got {k}")
    return _oracle_chain(genus, max(k, max_level(genus)))[k]


def _identity_coeffs(q: QuadricI2, orders) -> tuple[list[list[int]], int]:
    """The x-coefficients (lowest first) of sum c_ab f_a^(h) f_b^(n) for each
    (h, n) in ``orders``, as integers over the common denominator returned."""
    genus = q.genus
    den = lcm(*(a.denominator for a in q.a_coords))
    terms = [
        (i, j, a.numerator * (den // a.denominator))
        for (i, j), a in zip(sym_pairs(genus), q.a_coords)
        if a
    ]
    out = []
    for h, n in orders:
        fh = [falling(a, h) for a in range(genus)]
        fn = [falling(b, n) for b in range(genus)]
        coeffs = [0] * (2 * genus - 1)
        for i, j, a in terms:
            for alpha, beta, weight in _c_entries(i, j):
                t = fh[alpha] * fn[beta]
                if t:
                    coeffs[alpha + beta - h - n] += a * weight * t
        out.append(coeffs)
    return out, 2 * den


def oracle_residuals(q: QuadricI2, bound: int) -> list[tuple[int, int, Poly]]:
    """Nonzero identity polynomials sum c_ab f^(h) f^(n) for h+n <= bound."""
    orders = [(t - n, n) for t in range(bound + 1) for n in range(t // 2 + 1)]
    identities, den = _identity_coeffs(q, orders)
    return [
        (h, n, Poly.from_coeffs(Fraction(c, den) for c in coeffs))
        for (h, n), coeffs in zip(orders, identities)
        if any(coeffs)
    ]


def is_in_kernel(q: QuadricI2, k: int) -> bool:
    """Membership in Ker mu_2k via the raw identities (route-independent)."""
    return not oracle_residuals(q, 2 * k + 1)


# -- rank table --------------------------------------------------------------


@dataclass(frozen=True)
class RankRow:
    genus: int
    k: int
    rank: int
    dim_ker: int
    rank_formula_ok: bool


@dataclass(frozen=True)
class RankTable:
    rows: tuple[RankRow, ...]
    domain_zero_from: tuple[tuple[int, int], ...]


def rank_table(g_min: int, g_max: int, k_filter: int | None = None) -> RankTable:
    if g_min < 3 or g_max < g_min:
        raise IndexOutOfRange(f"bad genus range {g_min}..{g_max}")
    rows: list[RankRow] = []
    notes: list[tuple[int, int]] = []
    for genus in range(g_min, g_max + 1):
        chain = kernel_via_equations(genus)
        for lv in chain.levels:
            if k_filter is not None and lv.k != k_filter:
                continue
            ok = lv.rank == rank_formula(genus, lv.k) and lv.dimension == kernel_dimension_formula(genus, lv.k)
            rows.append(
                RankRow(
                    genus=genus,
                    k=lv.k,
                    rank=lv.rank,
                    dim_ker=lv.dimension,
                    rank_formula_ok=ok,
                )
            )
        notes.append((genus, max_level(genus) + 1))
    return RankTable(rows=tuple(rows), domain_zero_from=tuple(notes))


# -- evaluation polynomials and the factorization identity -------------------


def _mu_representative(q: QuadricI2, k: int, n: int) -> Poly:
    """(-1)^n sum c_ab f_a^(2k-n) f_b^(n): the representative with n
    derivatives on the second factor."""
    (coeffs,), den = _identity_coeffs(q, [(2 * k - n, n)])
    return Poly.from_coeffs(Fraction(-c if n % 2 else c, den) for c in coeffs)


def mu_eval_polynomial(q: QuadricI2, k: int, check_membership: bool = True) -> Poly:
    """x-chart polynomial representing mu_2k on a quadric.

    On the correct domain (the previous kernel) the representatives with
    n in {0, k, 2k} derivatives on the second factor coincide; this is
    checked, not assumed, and a mismatch raises `IdentityFailed`.
    """
    if k < 0:
        raise IndexOutOfRange(f"level must be nonnegative, got {k}")
    if check_membership and k >= 1 and oracle_residuals(q, 2 * k - 1):
        raise NotInPreviousKernel(
            f"quadric is not in the level-{k - 1} kernel; mu_{2 * k} undefined on it"
        )
    first = _mu_representative(q, k, 0)
    for n in sorted({k, 2 * k} - {0}):
        p = _mu_representative(q, k, n)
        if p != first:
            raise IdentityFailed(
                f"representative mismatch for mu_{2 * k}: n=0 gives {first.to_string()}, "
                f"n={n} gives {p.to_string()}"
            )
    return first


@dataclass(frozen=True)
class FactorizationCheck:
    genus: int
    k: int
    lhs: Poly
    rhs: Poly
    constant: Fraction | None
    proportional: bool
    zero_iff_zero: bool

    @property
    def ok(self) -> bool:
        return self.proportional and self.zero_iff_zero


def factorization_check(q: QuadricI2, k: int) -> FactorizationCheck:
    """Check that x^2 * mu_{2k+2}(Q) factors through the twisted odd map.

    For Q in Ker mu_2k the level-(k+1) evaluation polynomial times x^2
    must be a constant multiple (independent of Q) of (k+1) times

        sum a_ij (falling(i,2k+1) - falling(j,2k+1)) x^{i+j-2k-1},

    the (2k+1)-st twisted-map polynomial of the same coordinates. The
    exact constant is returned so callers can pin it across inputs.
    """
    if not is_in_kernel(q, k):
        raise NotInKernel(f"quadric is not in Ker mu_{2 * k}")
    genus = q.genus
    lhs = Poly.monomial(2) * mu_eval_polynomial(q, k + 1, check_membership=False)
    coeffs = [Fraction(0)] * (2 * genus)
    for (i, j), a in zip(sym_pairs(genus), q.a_coords):
        if a == 0:
            continue
        t = falling(i, 2 * k + 1) - falling(j, 2 * k + 1)
        if t:
            exponent = i + j - 2 * k - 1
            coeffs[exponent] += a * t
    rhs = Poly.from_coeffs(coeffs).scale(k + 1)
    if rhs.is_zero() or lhs.is_zero():
        return FactorizationCheck(
            genus=genus,
            k=k,
            lhs=lhs,
            rhs=rhs,
            constant=None,
            proportional=lhs.is_zero() and rhs.is_zero(),
            zero_iff_zero=lhs.is_zero() == rhs.is_zero(),
        )
    pivot = next(e for e in range(rhs.degree + 1) if rhs.coefficient(e) != 0)
    constant = lhs.coefficient(pivot) / rhs.coefficient(pivot)
    return FactorizationCheck(
        genus=genus,
        k=k,
        lhs=lhs,
        rhs=rhs,
        constant=constant,
        proportional=lhs == rhs.scale(constant),
        zero_iff_zero=True,
    )


# -- support of kernel quadrics in decomposable coordinates ------------------


@dataclass(frozen=True)
class BSupportCheck:
    genus: int
    k: int
    bound: int
    offenders: tuple[tuple[int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.offenders


def b_support_check(q: QuadricI2, k: int) -> BSupportCheck:
    """Kernel quadrics have no decomposable coordinates of high weight.

    For Q in Ker mu_2k every b-coordinate with index sum at least
    2g-2k-2 must vanish; the support lives in index sums <= 2g-2k-3.
    """
    if not is_in_kernel(q, k):
        raise NotInKernel(f"quadric is not in Ker mu_{2 * k}")
    genus = q.genus
    bound = 2 * genus - 2 * k - 3
    offenders = tuple(
        (i, j)
        for (i, j) in sym_pairs(genus)
        if i + j > bound and q.b(i, j) != 0
    )
    return BSupportCheck(genus=genus, k=k, bound=bound, offenders=offenders)


# -- odd maps ----------------------------------------------------------------


@dataclass(frozen=True)
class OddMapResult:
    genus: int
    order: int
    domain_dim: int
    kernel_dim: int
    rank: int
    basis: tuple[Vector, ...]


def _odd_rows(genus: int, bound: int) -> list[SparseRow]:
    """Sparse integer rows of the odd identities, h > n, h + n <= bound; the
    row of x-degree e reads only the wedge pairs with i + j = e + h + n."""
    by_weight = _by_weight(wedge_pairs(genus))
    fall = [[falling(a, h) for h in range(bound + 1)] for a in range(genus)]
    rows: list[SparseRow] = []
    for total in range(1, bound + 1):
        for n in range(0, (total + 1) // 2):
            h = total - n
            for e in range(0, 2 * genus - 1 - total):
                row: SparseRow = {}
                for col, i, j in by_weight.get(e + total, ()):
                    value = fall[i][h] * fall[j][n] - fall[i][n] * fall[j][h]
                    if value:
                        row[col] = value
                if row:
                    rows.append(row)
    return rows


def odd_kernel_and_rank(genus: int, order: int) -> OddMapResult:
    """Kernel and rank of the odd Gaussian map of the given order.

    The order must be odd; the map of order m is defined on the kernel
    of the order-(m-2) map (the full exterior square for m = 1), and its
    kernel is cut out by the x-chart identities with h + n <= m + 1.
    """
    if order < 1 or order % 2 == 0:
        raise InvalidIndex(f"odd map order must be odd and positive, got {order}")
    dim = genus * (genus - 1) // 2
    kernel = kernel_basis(_odd_rows(genus, order + 1), dim)
    previous_dim = len(kernel_basis(_odd_rows(genus, order - 1), dim))
    return OddMapResult(
        genus=genus,
        order=order,
        domain_dim=previous_dim,
        kernel_dim=len(kernel),
        rank=previous_dim - len(kernel),
        basis=kernel,
    )


def wronskian_rank_oracle(genus: int, curve: Curve) -> int:
    """Rank of the first odd map from exact Wronskian jets on a curve.

    The images W(alpha_i, alpha_j) are sections of a bundle of degree
    6g-6, so jets at the base point through order 6g-1 separate them;
    the rank of the jet matrix is the rank of the map.
    """
    if curve.genus != genus:
        raise IndexOutOfRange("curve genus does not match")
    top = 6 * genus - 1
    table = canonical_derivatives(curve, top + 1)
    pairs = wedge_pairs(genus)
    rows: list[list[Fraction]] = []
    for e in range(1, top + 1, 2):
        row = []
        for (i, j) in pairs:
            acc = Fraction(0)
            for c in range(e + 1):
                acc += comb(e, c) * (
                    table[i][c + 1] * table[j][e - c]
                    - table[i][c] * table[j][e - c + 1]
                )
            row.append(acc)
        rows.append(row)
    return matrix_rank(RatMatrix.from_rows(rows, ncols=len(pairs)))
