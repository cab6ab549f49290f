"""Hyperelliptic curve model and local expansions at a Weierstrass point.

The curve is y^2 = prod(x - t_i) over distinct rational branch points
t_1 = 0, t_2, ..., t_{2g+2}, with base point p = (0, 0). The local
coordinate at p is z = y, in which x becomes an even power series
x(z) = z^2/G(0) + ... determined by x * G(x) = z^2, where
G(x) = prod_{i >= 2} (x - t_i).

Everything downstream consumes exact jet data at p:

* canonical differentials alpha_i = x^i dx / y for i = 0..g-1, written in
  the frame dz, give local functions  x(z)^i * x'(z) / z  of order 2i;
* twisted forms omega_k (canonical forms vanishing doubly at both points
  over x = infinity), for k = 1..g-1, written in the frame z^2 dz, give
  local functions  x^{g-k} x' / z^3  of order 2g-2k-2.

Because x is even in z, all of these are expansions in w = z^2. Each curve
owns one `Jets` value (``curve.jets``) that solves x * G(x) = w over the
integers. Let E be the lcm of the denominators of G's coefficients,
Ghat = E * G in Z[x] with coefficients gh_m, and gh_0 = Ghat(0). With
s = lambda * w, lambda = E / gh_0^2 and x = gh_0 * s * Y(s), the equation
becomes

    Y * sum_{m >= 0} c_m (s Y)^m = 1,   c_m = gh_m * gh_0^(m-1)  (c_0 = 1),

so Y in Z[[s]]. With F(t) = sum c_m t^m and R^(k)_j = [t^j] F(t)^(-k),
Lagrange inversion of sY * F(sY) = s gives (n+1) Y_n = R^(n+1)_n, and the
canonical row i has w-coefficient 2 gh_0^(i+1) lambda^(n+1) [s^(n-i)]
(Y^i (sY)') at w^n, with [s^n] (Y^i (sY)') = R^(n+i+1)_n. So column 2m
reads one integer recurrence, for R^(m+1)_0..m, and no other column's
state. Each Y_n is also checked against x * G(x) = w through a Horner
evaluation in Ghat, which does not read the weights c_m.

`Jets` holds integers only and is read three ways. `Jets.columns` is the
integer jet store, read by every pairing and reduction vector: column
n = 2m has entries 2 E^(m+1) n! R^(m+1)_(m-i) gh_0^i over gh_0^(2m+1),
reduced by one gcd, and its last nonzero row is recorded (`Jets.last`);
each odd column is checked to vanish (`Jets.checked_column`). `Jets.z_rows`
views it as z-coefficients over one denominator (`cup_rank`). `Jets.lift`
hands out Y to the x-jets of the reduction vector, and Y, (sY)' and the
rows, all read off R, to the x-chart cross-check. The moduli polynomial
reaches `Jets` as the integers Ghat over E, and no `Fraction` is made from
the store.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from fractions import Fraction
from functools import cached_property
from math import factorial, gcd, lcm
from operator import mul

from .errors import (
    DuplicateBranchPoint,
    FirstBranchPointNotZero,
    IdentityFailed,
    InvalidIndex,
    TooFewBranchPoints,
)
from .rationals import as_rational, int_from_string, rat_to_string
from .record import Record


class Curve(Record):
    """Immutable hyperelliptic curve given by its branch points."""

    branch_points: tuple[Fraction, ...]

    @property
    def genus(self) -> int:
        return len(self.branch_points) // 2 - 1

    def moduli_polynomial(self) -> tuple[list[int], int]:
        """G(x) = prod over nonzero branch points of (x - t_i), as integer
        coefficients (lowest first) over one positive denominator E.

        With t_i = p_i / q_i, G is the integer product of the (q_i x - p_i)
        over the product of the q_i; both are divided by their one gcd, so E
        is the lcm of the denominators of G's coefficients.
        """
        coeffs = [1]
        scale = 1
        for t in self.branch_points[1:]:
            p, q = t.numerator, t.denominator
            coeffs = [q * a - p * b for a, b in zip([0] + coeffs, coeffs + [0])]
            scale *= q
        common = gcd(scale, *coeffs)
        return [c // common for c in coeffs], scale // common

    def g_at_zero(self) -> Fraction:
        acc = Fraction(1)
        for t in self.branch_points[1:]:
            acc *= -t
        return acc

    @cached_property
    def jets(self) -> "Jets":
        """The exact local expansions at p, extended as they are asked for."""
        return Jets(self)

    def label(self) -> str:
        return self._label

    @cached_property
    def _label(self) -> str:
        return "[" + ", ".join(rat_to_string(t) for t in self.branch_points) + "]"

    def to_json(self) -> dict:
        return {"branch_points": [rat_to_string(t) for t in self.branch_points]}


def new_curve(points) -> Curve:
    """Validate branch points and build a curve.

    Requirements: at least 8 points (genus >= 3), an even count, all
    distinct, and the first one exactly 0 (the base Weierstrass point).
    """
    values = tuple(map(as_rational, points))
    if len(values) < 8:
        raise TooFewBranchPoints(
            f"need at least 8 branch points (genus >= 3), got {len(values)}"
        )
    if len(values) % 2 != 0:
        raise InvalidIndex(f"branch point count must be even, got {len(values)}")
    if values[0] != 0:
        raise FirstBranchPointNotZero(
            f"first branch point must be 0, got {rat_to_string(values[0])}"
        )
    seen: set[tuple[int, int]] = set()  # lowest terms, hashed without a Fraction
    for v in values:
        if (key := (v.numerator, v.denominator)) in seen:
            raise DuplicateBranchPoint(f"branch point {rat_to_string(v)} repeated")
        seen.add(key)
    return Curve(branch_points=values)


def default_curve(genus: int) -> Curve:
    """The integer-node curve with branch points 0, 1, ..., 2g+1."""
    if genus < 3:
        raise TooFewBranchPoints(f"genus must be at least 3, got {genus}")
    return new_curve(tuple(Fraction(i) for i in range(2 * genus + 2)))


def random_curve(genus: int, rng) -> Curve:
    from .rationals import random_branch_points

    if genus < 3:
        raise TooFewBranchPoints(f"genus must be at least 3, got {genus}")
    return new_curve(random_branch_points(rng, genus))


def curve_from_json(data) -> Curve:
    if isinstance(data, str):
        data = json.loads(data, parse_int=int_from_string)
    if not isinstance(data, dict) or "branch_points" not in data:
        raise InvalidIndex('curve JSON must be an object with "branch_points"')
    return new_curve(data["branch_points"])


# -- local expansions -------------------------------------------------------


def _hensel_weights(ghat: list[int]) -> tuple[int, ...]:
    """c_m = gh_m * gh_0^(m-1) for m = 0..deg Ghat; c_0 = 1."""
    g0 = ghat[0]
    return (1,) + tuple(c * g0 ** (m - 1) for m, c in enumerate(ghat) if m)


def _convolve(a: list[int], b: list[int], n: int) -> int:
    """[s^n] of the product of two series known through s^n."""
    return sum(map(mul, a[: n + 1], b[n::-1]))


class Jets:
    """Exact local expansions at p of one curve, extended on demand.

    For each even column 2m it keeps the top entries R^(m+1)_(m-i), i < g,
    of the column's recurrence (`_raw`) and Y_m, read by the Horner stages
    of the residual check. The reduced integer jet columns (`columns`) are
    kept too, so each table is a prefix of any later one, and with each
    column the last row that is nonzero in it (`last`, -1 for an all-zero
    column), as the store shows it rather than as theory bounds it (row i
    has order 2i). No Fraction is kept.
    """

    def __init__(self, curve: Curve) -> None:
        ghat, scale = curve.moduli_polynomial()
        self._ghat = ghat
        self._g0 = ghat[0]
        self._scale = scale
        self._genus = curve.genus
        self._weights = _hensel_weights(ghat)
        self._y: list[int] = []
        self._raw: list[tuple[int, ...]] = []  # R^(m+1)_(m-i), i = 0..min(m, g-1)
        self._horner: list[list[int]] = [[] for _ in range(len(ghat) + 1)]
        self._num: list[tuple[int, ...]] = []
        self._den: list[int] = []
        self.last: list[int] = []  # per column, its last nonzero row (-1: none)

    def _extend(self, count: int) -> None:
        """Keep the top entries of R^(m+1) and Y_m for m < count, each Y_m checked.

        R^(k)_0 = 1 and j R^(k)_j = -sum_l (j - l + k l) c_l R^(k)_(j-l),
        from F P' = -k F' P for P = F^(-k); the division is exact.
        """
        while len(self._y) < count:
            k = len(self._y) + 1
            r = [1]
            for j in range(1, k):
                r.append(-sum(
                    (j + (k - 1) * l) * c * r[j - l]
                    for l, c in enumerate(self._weights[1 : j + 1], start=1)
                ) // j)
            self._raw.append(tuple(reversed(r[-self._genus :])))
            self._y.append(r[-1] // k)
            self._check(k - 1)

    def _check(self, n: int) -> None:
        """x * Ghat(x) = gh_0^2 s at s^(n+1), x = gh_0 s Y, by Horner in Ghat.

        Stage m holds Ghat_m + x * (stage m+1), the one past the top is 0,
        and stage 0 is Ghat(x); as x has valuation 1, stage m is needed only
        through s^(n-m). This reads Y and Ghat only, never the weights c_m.
        """
        y, g0, stages = self._y, self._g0, self._horner
        for m in range(min(n, len(self._ghat) - 1), -1, -1):
            stages[m].append(
                g0 * _convolve(y, stages[m + 1], n - m - 1) if m < n else self._ghat[m]
            )
        if _convolve(y, stages[0], n) != (g0 if n == 0 else 0):
            raise IdentityFailed(
                f"x * G(x) = z^2 fails at z^{2 * n + 2}: the local solve is wrong"
            )

    def lift(self, count: int) -> tuple[int, list[int], list[int], Iterator[list[int]]]:
        """gh_0, then Y and (sY)' through s^(count-1) (x = gh_0 s Y; the lists
        may run longer), then the rows [s^n] Y^i (sY)' = R^(n+i+1)_n, each
        through s^(count-1-i), each made as one pass over them reaches it."""
        self._extend(count)
        raw = self._raw
        rows = ([raw[n + i][i] for n in range(count - i)] for i in range(self._genus))
        return self._g0, self._y, [r[0] for r in raw], rows

    def z_rows(self, count: int) -> tuple[list[list[int]], int]:
        """The z^0 .. z^(count-1) coefficients (jet n over n!) of x^i x'/z,
        i = 0..g-1, as integer rows over one denominator, from `columns`."""
        num, den = self.columns(count - 1)
        evens = range(0, count, 2)
        common = lcm(*(den[n] * factorial(n) for n in evens))
        rows = [[0] * count for _ in range(self._genus)]
        for n in evens:
            scale = common // (den[n] * factorial(n))
            for row, c in zip(rows, num[n]):
                row[n] = c * scale
        return rows, common

    def _column(self, n: int) -> tuple[list[int], int]:
        """Jet column n of the canonical table over one denominator, not
        reduced (all 0 at odd n): at n = 2m, entry i is n! times the w^m
        coefficient 2 E^(m+1) [s^(m-i)] (Y^i (sY)') / gh_0^(2m+1-i) of row i."""
        if n % 2:
            return [0] * self._genus, 1
        m = n // 2
        self._extend(m + 1)
        g0 = self._g0
        scale = 2 * self._scale ** (m + 1) * factorial(n)
        column = [scale * r * g0**i for i, r in enumerate(self._raw[m])]
        return column + [0] * (self._genus - len(column)), g0 ** (2 * m + 1)

    def checked_column(self, n: int) -> tuple[list[int], int]:
        """`_column(n)`, raising `IdentityFailed` at odd n if an entry is nonzero;
        `columns` makes every column through it, the x-chart cross-check odd ones."""
        column, d = self._column(n)
        if n % 2 and any(column):
            raise IdentityFailed(f"jet column {n} is nonzero: the frame functions are not even")
        return column, d

    def columns(self, order: int) -> tuple[list[tuple[int, ...]], list[int]]:
        """Every jet column through `order`: numerators ``num[n]`` over the
        positive denominator ``den[n]``, in lowest terms (all 0 at odd n).

        The lists are the store itself and only grow, and so does `last`,
        read by the pairings' zero floor; an odd column with a nonzero entry
        raises `IdentityFailed`.
        """
        num, den, last = self._num, self._den, self.last
        for n in range(len(num), order + 1):
            column, d = self.checked_column(n)
            common = gcd(d, *column) if d > 0 else -gcd(d, *column)
            num.append(tuple(c // common for c in column))
            den.append(d // common)
            last.append(max((i for i, c in enumerate(column) if c), default=-1))
        return num, den

