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
basis quadrics with i + j = e + h + n + 1. Each route builds its integer
rows dense over one weight block at a time and hands ``linalg`` its blocks,
so the routes share only the fraction-free step. Both give canonical
(reduced row-echelon) bases of integer rows (`linalg.Row`), so agreement is
literal row equality. A level's quadrics are its rows.

One function, `_weight_rows`, forms the identity rows, from twice the
symmetric tensor (whose entries are +-1/2), each with its order (h, n), and
one table per genus lays out their blocks. The oracle chain draws only the
rows its stores still need, and keeps none. Membership, `oracle_residuals`
and the mu_2k representatives dot a quadric's row with the rows of the
blocks it meets, which the table builds once per order and keeps: integer
x-coefficients over the tensor's denominator. A `Fraction` is made only for
a value a report prints.

Odd maps act on the exterior square of the canonical space and are
handled by ``odd_kernel_and_rank``: x-chart identity rows from the same
builder, with the slots (i, j, 1), (j, i, -1) of alpha_i ^ alpha_j, of slot
sum i + j, its domain and kernel read off one elimination.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import starmap
from math import gcd, lcm
from operator import itemgetter, mul

from .errors import IdentityFailed, IndexOutOfRange, InvalidIndex, NotInKernel, NotInPreviousKernel
from .linalg import Block, Row, SparseRow, kernel_chain, rref
from .quadrics import (
    GENERA_KEPT,
    QuadricI2,
    b_pairs,
    pair_slots,
    quadric_space_dimension,
    sym_pairs,
    wedge_pairs,
    wedge_slots,
)
from .rationals import poly_to_string
from .record import Record


def falling(n: int, k: int) -> int:
    """Falling factorial n*(n-1)*...*(n-k+1); zero when k > n >= 0."""
    out = 1
    for i in range(k):
        out *= n - i
    return out


# -- closed-form level equations --------------------------------------------


def _level_rows(genus: int, k: int) -> list[SparseRow]:
    """The level-k equations as sparse integer rows, one per weight l from
    max(3, 2k-1) to 2g-3 (empty where every coefficient vanishes)."""
    low = max(3, 2 * k - 1)
    rows: list[SparseRow] = [{} for _ in range(low, 2 * genus - 2)]
    for col, (i, j) in enumerate(sym_pairs(genus)):
        if i + j >= low and (coeff := (j - i) * falling(i, k - 1) * falling(j, k - 1)):
            rows[i + j - low][col] = coeff
    return rows


# -- kernel chains -----------------------------------------------------------


class KernelLevel(Record):
    genus: int
    k: int
    dimension: int
    rank: int
    basis: tuple[Row, ...]

    @cached_property
    def quadrics(self) -> tuple[QuadricI2, ...]:
        """The basis rows as quadrics, kept with the chain (the last GENERA_KEPT genera)."""
        return tuple(QuadricI2(self.genus, row) for row in self.basis)

    @cached_property
    def b_support_ok(self) -> bool:
        """Every basis quadric passes `b_support_check`: checked once per
        level, not per curve, since the check reads no curve."""
        return all(b_support_check(q, self.k).ok for q in self.quadrics)


class KernelChain(Record):
    genus: int
    method: str
    levels: tuple[KernelLevel, ...]

    def level(self, k: int) -> KernelLevel:
        for lv in self.levels:
            if lv.k == k:
                return lv
        raise IndexOutOfRange(f"chain has no level {k}")


def max_level(genus: int) -> int:
    return (genus - 1) // 2


def kernel_dimension_formula(genus: int, k: int) -> int:
    return quadric_space_dimension(genus) - k * (2 * genus - 2 * k - 3)


def rank_formula(genus: int, k: int) -> int:
    return 2 * genus - (4 * k + 1)


def _kernel_off_rref(blocks: list[Block], dim: int) -> tuple[Row, ...]:
    """The canonical kernel basis of ``blocks`` (columns reversed, c at
    dim - 1 - c), read as `kernel_chain` reads it, but off the rows of
    `rref`: free column f is 1 and -x/d at each pivot whose row (over d) has
    x at f, each entry reduced, all over the lcm of their denominators."""
    last = dim - 1
    reduced, pivots = rref(blocks)
    met: dict[int, list[tuple[int, int, int]]] = {}
    for p, (entries, d) in zip(pivots, reduced):
        for c, x in entries:
            if c != p:
                g = gcd(x, d)
                met.setdefault(c, []).append((last - p, -x // g, d // g))
    vectors: list[Row] = []
    for f in sorted(set(range(dim)).difference(pivots), reverse=True):
        column = met.get(f, [])
        den = lcm(*(d for *_, d in column))
        entries = sorted((c, x * (den // d)) for c, x, d in column)
        vectors.append((((last - f, den), *entries), den))
    return tuple(vectors)


@lru_cache(maxsize=GENERA_KEPT)
def kernel_via_equations(genus: int) -> KernelChain:
    """Kernel chain of the even Gaussian maps, closed-form equations route.

    Each weight i + j is a block, its columns reversed, that gains one row
    per level; each level is read off a fresh `rref` of the blocks
    (`_kernel_off_rref`). The oracle route reduces each identity row once
    into one store per slot-sum block and reads it through `kernel_chain`.
    The routes share only `linalg`'s fraction-free step, and differ in
    their rows, in a fresh store per level against one carried across
    levels, and in the reader, so no fault in one of these can give both
    the same wrong answer. `test_linalg` checks both readers against each
    other and a naive `Fraction` Gauss-Jordan on the level equations."""
    dim = quadric_space_dimension(genus)
    pairs, last = sym_pairs(genus), dim - 1
    weights: dict[int, tuple[list[int], list[list[int]]]] = {}
    for col in range(last, -1, -1):
        weights.setdefault(sum(pairs[col]), ([], []))[0].append(col)
    blocks = [([last - c for c in cols], [rows]) for cols, rows in weights.values()]
    previous = genus * (genus + 1) // 2  # mu_0 is defined on Sym^2 of g sections
    levels = []
    for k in range(max_level(genus) + 1):
        for row in _level_rows(genus, k) if k else ():
            if row:
                cols, rows = weights[sum(pairs[next(iter(row))])]
                rows.append([row.get(c, 0) for c in cols])
        basis = _kernel_off_rref(blocks, dim)
        rank = previous - len(basis)
        levels.append(KernelLevel(genus=genus, k=k, dimension=len(basis), rank=rank, basis=basis))
        previous = len(basis)
    return KernelChain(genus=genus, method="equations", levels=tuple(levels))


class _Identities:
    """The identity rows of the columns ``pairs`` of one genus, where column
    (i, j) has the tensor slots ``slots(i, j)`` (`pair_slots` or
    `wedge_slots`), by slot-sum block and order (`_weight_rows`). `blocks`
    hands them to one elimination as it draws them, and keeps none; `rows`
    builds each order's rows of a block once, for every reader of a quadric."""

    def __init__(self, genus: int, pairs, slots) -> None:
        self.fall = [[1] * genus]  # falling(a, h) at [h][a], h up to the largest slot sum
        for h in range(1, 2 * genus - 2):
            self.fall.append([x * (a - h + 1) for a, x in enumerate(self.fall[-1])])
        groups: dict[int, tuple[list[int], list]] = {}
        self.place: list[tuple[int, int]] = []  # each column's slot sum and position
        for col, column in enumerate(starmap(slots, pairs)):
            cols, group = groups.setdefault(column[0][0] + column[0][1], ([], []))
            self.place.append((column[0][0] + column[0][1], len(cols)))
            cols.append(col)
            group.append(column)
        self.groups = {s: (cols, list(zip(*group))) for s, (cols, group) in groups.items()}
        self.kept: dict[tuple[int, int], list] = {}

    def rows(self, s: int, orders) -> Iterator[tuple[int, int, list[int]]]:
        """The rows (h, n, row) of block s of the orders in ``orders``, kept."""
        for order in orders:
            if (s, order) not in self.kept:
                self.kept[s, order] = list(_weight_rows(self.fall, s, self.groups[s][1], order))
            yield from self.kept[s, order]

    def _draw(self, s: int, orders) -> Iterator[list[int]]:
        for order in orders:
            yield from map(itemgetter(2), _weight_rows(self.fall, s, self.groups[s][1], order))

    def blocks(self, levels) -> list[Block]:
        """The blocks of `kernel_chain`, level i drawing the orders in ``levels[i]``:
        the row of x-degree e and order h + n reads the columns of slot sum e + h + n."""
        return [(cols, [self._draw(s, t) for t in levels]) for s, (cols, _) in self.groups.items()]


def _weight_rows(fall, slot_sum: int, slots, order: int) -> Iterator[tuple[int, int, list[int]]]:
    """The nonzero rows (h, n, row), h >= n, of the identity sum c_ab f_a^(h)
    f_b^(n) of order h + n over the columns of one slot sum (``slots`` holds
    their slots position by position), made as they are drawn. Row (h, n)
    reads x^(slot_sum - h - n): none where that is negative."""
    for n in range(order // 2 + 1 if order <= slot_sum else 0):
        fh, fn = fall[order - n], fall[n]
        row = list(map(sum, zip(*([w * fh[a] * fn[b] for a, b, w in s] for s in slots))))
        if any(row):
            yield order - n, n, row


@lru_cache(maxsize=GENERA_KEPT)
def _identity_table(genus: int) -> _Identities:
    """The identity rows of the basis quadrics Q_ij, one table per genus, read by the
    oracle chain, membership, the residuals and the mu representatives."""
    return _Identities(genus, sym_pairs(genus), pair_slots)


@lru_cache(maxsize=GENERA_KEPT)
def _oracle_chain(genus: int, k_max: int) -> tuple[tuple[Row, ...], ...]:
    """Oracle kernels of levels 0..k_max: level k is the kernel of the
    identity orders <= 2k+1, so each slot-sum block keeps one store across
    the levels (`kernel_chain`), level k adding orders 2k and 2k+1, and a
    block whose store is full draws no more rows."""
    levels = [(2 * k, 2 * k + 1) for k in range(k_max + 1)]
    return kernel_chain(_identity_table(genus).blocks(levels))


def kernel_via_polynomial_oracle(genus: int, k: int) -> tuple[Row, ...]:
    """Canonical basis of Ker mu_2k computed from raw derivative identities."""
    if k < 0:
        raise IndexOutOfRange(f"level must be nonnegative, got {k}")
    return _oracle_chain(genus, max(k, max_level(genus)))[k]


def _identity_values(q: QuadricI2, orders, only=None) -> Iterator[tuple[int, int, int, int]]:
    """(h, n, e, x) for each nonzero coefficient x of x^e in sum c_ab f_a^(h)
    f_b^(n), h + n in ``orders`` (n == ``only`` if given): q's row dotted with
    the identity rows of each block it meets. The rows are made from twice
    the tensor, so x is over 2E = q.tensor[1], E the row's denominator."""
    table, parts = _identity_table(q.genus), {}
    for c, x in q.row[0]:
        s, position = table.place[c]
        parts.setdefault(s, [0] * len(table.groups[s][0]))[position] = x
    for s, part in parts.items():
        for h, n, row in table.rows(s, orders):
            if (only is None or n == only) and (x := sum(map(mul, part, row))):
                yield h, n, s - h - n, x


def oracle_residuals(q: QuadricI2, bound: int) -> list[tuple[int, int, list[int]]]:
    """Nonzero identity polynomials sum c_ab f^(h) f^(n) for h+n <= bound, as
    (h, n, x-coefficients) over the tensor's denominator."""
    found: dict[tuple[int, int], list[int]] = {}
    for h, n, e, x in _identity_values(q, range(bound + 1)):
        found.setdefault((h, n), [0] * (2 * q.genus - 1))[e] = x
    return [(h, n, found[h, n]) for h, n in sorted(found, key=lambda o: (sum(o), o[1]))]


def is_in_kernel(q: QuadricI2, k: int) -> bool:
    """Membership in Ker mu_2k via the raw identities (route-independent)."""
    return next(_identity_values(q, range(2 * k + 2)), None) is None


# -- rank table --------------------------------------------------------------


class RankRow(Record):
    genus: int
    k: int
    rank: int
    dim_ker: int
    rank_formula_ok: bool


class RankTable(Record):
    rows: tuple[RankRow, ...]


def rank_table(g_min: int, g_max: int, k_filter: int | None = None) -> RankTable:
    if g_min < 3 or g_max < g_min:
        raise IndexOutOfRange(f"bad genus range {g_min}..{g_max}")
    rows: list[RankRow] = []
    for genus in range(g_min, g_max + 1):
        chain = kernel_via_equations(genus)
        for lv in chain.levels:
            if k_filter is not None and lv.k != k_filter:
                continue
            ok = lv.rank == rank_formula(genus, lv.k) and lv.dimension == kernel_dimension_formula(genus, lv.k)
            rows.append(RankRow(genus=genus, k=lv.k, rank=lv.rank, dim_ker=lv.dimension, rank_formula_ok=ok))
    return RankTable(rows=tuple(rows))


# -- evaluation polynomials and the factorization identity -------------------


def _mu_representative(q: QuadricI2, k: int, n: int) -> list[int]:
    """(-1)^n sum c_ab f_a^(2k-n) f_b^(n): the representative with n
    derivatives on the second factor, as integer x-coefficients over the
    tensor's denominator. The tensor is symmetric, so it is the identity
    (h, m) of order 2k with m = min(n, 2k - n)."""
    coeffs = [0] * (2 * q.genus - 1)
    for *_, e, x in _identity_values(q, (2 * k,), min(n, 2 * k - n)):
        coeffs[e] = -x if n % 2 else x
    return coeffs


def mu_coefficients(
    q: QuadricI2, k: int, check_membership: bool = True
) -> tuple[list[int], int]:
    """mu_2k on a quadric as integer x-coefficients (lowest first) over the
    tensor's denominator.

    On the correct domain (the previous kernel) the representatives with
    n = 0..2k derivatives on the second factor coincide; n = 0, 1, k are
    compared (n = 2k equals n = 0 by symmetry), and a mismatch raises
    `IdentityFailed`.
    """
    if k < 0:
        raise IndexOutOfRange(f"level must be nonnegative, got {k}")
    if check_membership and k >= 1 and not is_in_kernel(q, k - 1):
        raise NotInPreviousKernel(
            f"quadric is not in the level-{k - 1} kernel; mu_{2 * k} undefined on it"
        )
    den = q.tensor[1]
    first = _mu_representative(q, k, 0)
    for n in sorted({1, k}) if k else ():
        p = _mu_representative(q, k, n)
        if p != first:
            raise IdentityFailed(
                f"representative mismatch for mu_{2 * k}: n=0 gives "
                f"{poly_to_string(first, den)}, n={n} gives {poly_to_string(p, den)}"
            )
    return first, den


class FactorizationCheck(Record):
    genus: int
    k: int
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

    the (2k+1)-st twisted-map polynomial of the same coordinates. Both sides
    are integer x-coefficients, over the tensor's and the row's denominator,
    and are compared by cross-multiplication at the lowest nonzero
    coefficient of the right side. The exact constant is returned so
    callers can pin it across inputs.
    """
    if not is_in_kernel(q, k):
        raise NotInKernel(f"quadric is not in Ker mu_{2 * k}")
    genus, pairs, (entries, rhs_den) = q.genus, sym_pairs(q.genus), q.row
    mu, lhs_den = mu_coefficients(q, k + 1, check_membership=False)
    lhs = [0, 0, *mu]
    rhs = [0] * len(lhs)
    for c, x in entries:
        i, j = pairs[c]
        if t := falling(i, 2 * k + 1) - falling(j, 2 * k + 1):
            rhs[i + j - 2 * k - 1] += (k + 1) * x * t
    pivot = next((e for e, c in enumerate(rhs) if c), None)
    if pivot is None or not any(lhs):
        both_zero = pivot is None and not any(lhs)
        return FactorizationCheck(
            genus=genus, k=k, constant=None, proportional=both_zero, zero_iff_zero=both_zero
        )
    return FactorizationCheck(
        genus=genus,
        k=k,
        constant=Fraction(lhs[pivot] * rhs_den, lhs_den * rhs[pivot]),
        proportional=all(a * rhs[pivot] == lhs[pivot] * b for a, b in zip(lhs, rhs)),
        zero_iff_zero=True,
    )


# -- support of kernel quadrics in decomposable coordinates ------------------


class BSupportCheck(Record):
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
    genus, pairs = q.genus, b_pairs(q.genus)
    bound = 2 * genus - 2 * k - 3
    offenders = tuple(sorted(pairs[c] for c, _ in q.row[0] if sum(pairs[c]) > bound))
    return BSupportCheck(genus=genus, k=k, bound=bound, offenders=offenders)


# -- odd maps ----------------------------------------------------------------


class OddMapResult(Record):
    genus: int
    order: int
    domain_dim: int
    kernel_dim: int
    rank: int
    basis: tuple[Row, ...]


def odd_kernel_and_rank(genus: int, order: int) -> OddMapResult:
    """Kernel and rank of the odd Gaussian map of the given order.

    The order must be odd; the map of order m is defined on the kernel
    of the order-(m-2) map (the full exterior square for m = 1), and its
    kernel is cut out by the x-chart identities with h + n <= m + 1. Both
    kernels are read off one elimination of the identity rows.
    """
    if order < 1 or order % 2 == 0:
        raise InvalidIndex(f"odd map order must be odd and positive, got {order}")
    table = _Identities(genus, wedge_pairs(genus), wedge_slots)
    domain, kernel = kernel_chain(table.blocks([range(order), (order, order + 1)]))
    d, n = len(domain), len(kernel)
    return OddMapResult(genus=genus, order=order, domain_dim=d, kernel_dim=n, rank=d - n, basis=kernel)

