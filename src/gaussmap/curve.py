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

so Y in Z[[s]] and Y_n = -sum_{m=1}^{min(2g+1, n)} c_m [s^(n-m)] Y^(m+1)
(Hensel lifting). The canonical row i has w-coefficient
2 gh_0^(i+1) lambda^(n+1) [s^(n-i)] (Y^i (sY)') at w^n. `Jets` extends Y,
its powers and these integer rows one coefficient at a time from stored
state, so a larger order never restarts the solve; each new coefficient
is also checked against x * G(x) = w through a Horner evaluation that
does not use the power table. The module-level readers below are thin
views of ``curve.jets``.

`Jets.columns` is the integer jet store of the curve, read by every
pairing and reduction vector on it and by `canonical_derivatives` (the
x-chart cross-check reads Y, (sY)' and the rows through `Jets.lift`):
jet column n = 2m has entries 2 E^(m+1) n! row_i[m-i] gh_0^i over
gh_0^(2m+1), read straight off the rows and reduced by one gcd, with no
Fraction made; each odd column is checked to vanish.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property
from math import factorial, gcd, lcm
from operator import mul

from .errors import (
    DuplicateBranchPoint,
    FirstBranchPointNotZero,
    IdentityFailed,
    IndexOutOfRange,
    InvalidIndex,
    TooFewBranchPoints,
)
from .rationals import as_rational, numerators, rat_to_string
from .record import Record
from .series import TruncatedSeries


class Curve(Record):
    """Immutable hyperelliptic curve given by its branch points."""

    branch_points: tuple[Fraction, ...]

    @property
    def genus(self) -> int:
        return len(self.branch_points) // 2 - 1

    def moduli_polynomial(self) -> TruncatedSeries:
        """G(x) = prod over nonzero branch points of (x - t_i).

        With t_i = p_i / q_i, G is the integer product of the (q_i x - p_i)
        divided once by the product of the q_i.
        """
        coeffs = [1]
        scale = 1
        for t in self.branch_points[1:]:
            p, q = t.numerator, t.denominator
            coeffs = [q * a - p * b for a, b in zip([0] + coeffs, coeffs + [0])]
            scale *= q
        return TruncatedSeries.make((Fraction(c, scale) for c in coeffs), None)

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
    seen: set[Fraction] = set()
    for v in values:
        if v in seen:
            raise DuplicateBranchPoint(f"branch point {rat_to_string(v)} repeated")
        seen.add(v)
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
        data = json.loads(data)
    if not isinstance(data, dict) or "branch_points" not in data:
        raise InvalidIndex('curve JSON must be an object with "branch_points"')
    return new_curve(data["branch_points"])




# -- local expansions -------------------------------------------------------

ZERO = Fraction(0)


def _hensel_weights(ghat: list[int]) -> tuple[int, ...]:
    """c_m = gh_m * gh_0^(m-1) for m = 0..deg Ghat; c_0 = 1."""
    g0 = ghat[0]
    return (1,) + tuple(c * g0 ** (m - 1) for m, c in enumerate(ghat) if m)


def _convolve(a: list[int], b: list[int], n: int) -> int:
    """[s^n] of the product of two series known through s^n."""
    return sum(map(mul, a[: n + 1], b[n::-1]))


class Jets:
    """Exact local expansions at p of one curve, extended on demand.

    The integer state (Y, its powers Y^0..Y^(2g+2), the canonical rows
    [s^m] Y^i (sY)' and the Horner stages of the residual check) grows one
    coefficient at a time; a power Y^k with k >= g, read only by the lift,
    is kept through s^(n+2-k) once Y_n is known. The Fractions of x and the
    integer jet columns (`columns`), from which every canonical and omega
    table is read, are kept, so each table is a prefix of any later one.
    """

    def __init__(self, curve: Curve) -> None:
        gpoly = curve.moduli_polynomial()
        ghat, scale = numerators(gpoly.coeffs)
        self._ghat = ghat
        self._g0 = ghat[0]
        self._scale = scale
        self._weights = _hensel_weights(ghat)
        self._y: list[int] = []
        self._dy: list[int] = []  # (sY)' = sum (n+1) Y_n s^n
        self._powers: list[list[int]] = [[] for _ in range(len(ghat) + 1)]
        self._horner: list[list[int]] = [[] for _ in ghat]
        self._rows: list[list[int]] = [[] for _ in range(curve.genus)]
        self._x: list[Fraction] = []
        self._num: list[tuple[int, ...]] = []
        self._den: list[int] = []

    def _extend(self, count: int) -> None:
        """Know Y_0 .. Y_(count-1), the rows as far, and the powers as far as
        the lift reads them."""
        y, powers, genus = self._y, self._powers, len(self._rows)
        while len(y) < count:
            n = len(y)
            value = 1 if n == 0 else -sum(
                c * powers[m + 1][n - m]
                for m, c in enumerate(self._weights[1 : n + 1], start=1)
            )
            y.append(value)
            self._dy.append((n + 1) * value)
            powers[0].append(1 if n == 0 else 0)
            powers[1].append(value)
            # the rows read Y^k, k < g, in full; the lift of Y_(n+1) reads
            # Y^k only at s^(n+2-k), so a higher power runs that far behind
            for k in range(2, len(powers)):
                made = len(powers[k])
                if k < genus or made <= n + 2 - k:
                    powers[k].append(_convolve(y, powers[k - 1], made))
            for i, row in enumerate(self._rows):
                row.append(_convolve(powers[i], self._dy, n))
            self._check(n)

    def _check(self, n: int) -> None:
        """x * Ghat(x) = gh_0^2 s at s^(n+1), x = gh_0 s Y, by Horner in Ghat.

        Stage m holds Ghat_m + x * (stage m+1); stage 0 is Ghat(x). This
        reads Y and Ghat only, never the power table or the weights c_m.
        """
        y, g0, stages = self._y, self._g0, self._horner
        top = len(stages) - 1
        for m in range(top, -1, -1):
            value = self._ghat[m] if n == 0 else 0
            if n and m < top:
                value += g0 * _convolve(y, stages[m + 1], n - 1)
            stages[m].append(value)
        if _convolve(y, stages[0], n) != (g0 if n == 0 else 0):
            raise IdentityFailed(
                f"x * G(x) = z^2 fails at z^{2 * n + 2}: the local solve is wrong"
            )

    def lift(self, count: int) -> tuple[int, list[int], list[int], list[list[int]]]:
        """gh_0 and the stored Y, (sY)' and rows [s^n] Y^i (sY)' (x = gh_0 s Y),
        known through s^(count-1); the lists only grow and may run longer."""
        self._extend(count)
        return self._g0, self._y, self._dy, self._rows

    def x_w(self, count: int) -> tuple[Fraction, ...]:
        """w-coefficients of x, w^0 .. w^(count-1): E^n Y_(n-1) / gh_0^(2n-1)."""
        out = self._x
        if len(out) < count:
            self._extend(count - 1)
            for n in range(len(out), count):
                out.append(
                    ZERO if n == 0 else
                    Fraction(self._scale**n * self._y[n - 1], self._g0 ** (2 * n - 1))
                )
        return tuple(out[:count])

    def canonical_w(self, count: int) -> tuple[tuple[Fraction, ...], ...]:
        """w-coefficients of x^i x'/z, i = 0..g-1, w^0 .. w^(count-1)."""
        rows, den = self.z_rows(2 * count - 1)
        return tuple(tuple(Fraction(c, den) for c in row[::2]) for row in rows)

    def z_rows(self, count: int) -> tuple[list[list[int]], int]:
        """The z^0 .. z^(count-1) coefficients (jet n over n!) of x^i x'/z,
        i = 0..g-1, as integer rows over one denominator, from `columns`."""
        num, den = self.columns(count - 1)
        evens = range(0, count, 2)
        common = lcm(*(den[n] * factorial(n) for n in evens))
        rows = [[0] * count for _ in self._rows]
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
            return [0] * len(self._rows), 1
        m = n // 2
        self._extend(m + 1)
        g0 = self._g0
        scale = 2 * self._scale ** (m + 1) * factorial(n)
        return [
            scale * row[m - i] * g0**i if i <= m else 0
            for i, row in enumerate(self._rows)
        ], g0 ** (2 * m + 1)

    def columns(self, order: int) -> tuple[list[tuple[int, ...]], list[int]]:
        """Every jet column through `order`: numerators ``num[n]`` over the
        positive denominator ``den[n]``, in lowest terms (all 0 at odd n).

        The lists are the store itself and only grow; an odd column with a
        nonzero entry raises `IdentityFailed`.
        """
        num, den = self._num, self._den
        for n in range(len(num), order + 1):
            column, d = self._column(n)
            if n % 2 and any(column):
                raise IdentityFailed(
                    f"jet column {n} is nonzero: the frame functions are not even"
                )
            common = gcd(d, *column) if d > 0 else -gcd(d, *column)
            num.append(tuple(c // common for c in column))
            den.append(d // common)
        return num, den


def _jets(coeffs_w, max_order: int) -> tuple[Fraction, ...]:
    """The z-derivatives at 0, orders 0..max_order, of the even series with
    these w-coefficients."""
    return tuple(
        ZERO if h % 2 else coeffs_w[h // 2] * factorial(h) for h in range(max_order + 1)
    )


def _z_series(coeffs_w, order: int) -> TruncatedSeries:
    """The even z-series with these w-coefficients, truncated at z^order."""
    coeffs = [ZERO] * order
    coeffs[::2] = coeffs_w[: (order + 1) // 2]
    return TruncatedSeries.make(coeffs, order)


def x_of_z(curve: Curve, order: int) -> TruncatedSeries:
    """The even series x(z) to the requested z-truncation order."""
    if order < 1:
        raise IndexOutOfRange("order must be positive")
    return _z_series(curve.jets.x_w((order + 1) // 2), order)


class LocalFrameExpansion(Record):
    """A section's local function at p in a stated frame, as a z-series."""

    frame: str
    index: int
    valuation: int
    series: TruncatedSeries


def expand_canonical(curve: Curve, i: int, order: int) -> LocalFrameExpansion:
    """z-expansion of x^i dx/y in the frame dz (local function x^i x'/z)."""
    genus = curve.genus
    if not 0 <= i <= genus - 1:
        raise IndexOutOfRange(f"canonical index {i} outside 0..{genus - 1}")
    if order < 2 * i + 1:
        raise IndexOutOfRange("order too small to exhibit the vanishing order")
    row = curve.jets.canonical_w((order + 1) // 2)[i]
    return LocalFrameExpansion(
        frame="dz", index=i, valuation=2 * i, series=_z_series(row, order)
    )


def expand_omega(curve: Curve, k: int, order: int) -> LocalFrameExpansion:
    """z-expansion of the twisted form omega_k in the frame z^2 dz.

    omega_k = x^{g-k} dx/y carries a double zero at each point over
    x = infinity; its local function in the frame z^2 dz is
    x^{g-k} x'/z^3, of exact order 2g-2k-2: row g-k of the canonical
    table shifted down by one power of w.
    """
    genus = curve.genus
    if not 1 <= k <= genus - 1:
        raise IndexOutOfRange(f"omega index {k} outside 1..{genus - 1}")
    if order < 2 * genus - 2 * k - 1:
        raise IndexOutOfRange("order too small to exhibit the vanishing order")
    row = curve.jets.canonical_w((order + 1) // 2 + 1)[genus - k][1:]
    return LocalFrameExpansion(
        frame="z^2 dz",
        index=k,
        valuation=2 * genus - 2 * k - 2,
        series=_z_series(row, order),
    )


def canonical_derivatives(curve: Curve, max_order: int) -> tuple[tuple[Fraction, ...], ...]:
    """Exact jets: row i, column h holds d^h/dz^h at 0 of x^i x'/z, read
    from the jet store.

    Odd columns vanish identically (the functions are even); they are
    stored anyway so callers can index by derivative order directly.
    """
    num, den = curve.jets.columns(max_order)
    return tuple(
        tuple(Fraction(t[i], d) for t, d in zip(num[: max_order + 1], den))
        for i in range(curve.genus)
    )


def omega_derivatives(curve: Curve, max_order: int) -> tuple[tuple[Fraction, ...], ...]:
    """Exact jets of the omega frame functions; row k-1 is omega_k."""
    genus = curve.genus
    rows = curve.jets.canonical_w(max_order // 2 + 2)
    return tuple(_jets(rows[genus - k][1:], max_order) for k in range(1, genus))


def x_derivatives(curve: Curve, max_order: int) -> tuple[Fraction, ...]:
    """Exact jets of the coordinate function x(z) itself at z = 0."""
    return _jets(curve.jets.x_w(max_order // 2 + 1), max_order)
