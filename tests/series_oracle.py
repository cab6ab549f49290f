"""`Fraction` reference oracles: exact polynomials, truncated power series
and the jet views of a curve built on them.

The program computes on integer coefficient lists over one denominator and
makes a `Fraction` only where a report prints a value. The tests compare it
against this module, which does the same mathematics the plain way:

* `TruncatedSeries` is a dense `Fraction` coefficient tuple plus a
  truncation order N meaning "coefficients of z^e for e < N are exact;
  nothing is known from z^N on". ``truncation = None`` marks an exact
  polynomial: every omitted coefficient is exactly zero and trailing zeros
  are stripped, so equal coefficient tuples are equal polynomials. Reading
  a coefficient at or beyond the truncation order is a hard error, and a
  product carries the exact truncation order
  min(N_a + val(b), N_b + val(a)).
* `canonical_derivatives`, `x_derivatives`, `omega_derivatives`, `x_of_z`,
  `expand_canonical` and `expand_omega` are `Fraction` views of a curve's
  jets: the x-jets off the lift's Y (`Jets.lift`), the rest off the integer
  jet store (`Jets.columns`).
* `rho_reduction_vector` is the `Fraction` dict of the program's integer
  reduction vector (`rho._reduction`), and `wronskian_rank_oracle` the rank
  of the first odd map from exact Wronskian jets on a curve, a route
  independent of `gaussian.odd_kernel_and_rank`.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from gaussmap.curve import Curve
from gaussmap.errors import IndexOutOfRange
from gaussmap.linalg import _blocks, row_of, rref
from gaussmap.quadrics import wedge_pairs
from gaussmap.rho import _reduction
from gaussmap.rationals import rat_to_string
from gaussmap.record import Record


def _strip(coeffs: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return coeffs[:n]


class TruncatedSeries(Record):
    coeffs: tuple[Fraction, ...]
    truncation: int | None

    @classmethod
    def make(cls, coeffs, truncation: int | None) -> "TruncatedSeries":
        frozen = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in coeffs)
        if truncation is None:
            return cls(_strip(frozen), None)
        if truncation < 0:
            raise IndexOutOfRange("truncation order must be nonnegative")
        if len(frozen) < truncation:
            frozen = frozen + (Fraction(0),) * (truncation - len(frozen))
        elif len(frozen) > truncation:
            frozen = frozen[:truncation]
        return cls(frozen, truncation)

    @classmethod
    def zero(cls, truncation: int | None = None) -> "TruncatedSeries":
        return cls.make((), truncation)

    @classmethod
    def monomial(cls, exponent: int, coeff=1, truncation: int | None = None) -> "TruncatedSeries":
        if exponent < 0:
            raise IndexOutOfRange("monomial exponent must be nonnegative")
        return cls.make((Fraction(0),) * exponent + (Fraction(coeff),), truncation)

    def coefficient(self, exponent: int) -> Fraction:
        if exponent < 0:
            raise IndexOutOfRange("negative series exponent")
        if self.truncation is not None and exponent >= self.truncation:
            raise IndexOutOfRange(
                f"coefficient of z^{exponent} requested at truncation order {self.truncation}"
            )
        if exponent >= len(self.coeffs):
            return Fraction(0)
        return self.coeffs[exponent]

    def valuation(self) -> int:
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        if self.truncation is None:
            raise IndexOutOfRange("valuation of the exactly zero series is undefined")
        raise IndexOutOfRange(
            f"series is zero to its truncation order {self.truncation}; valuation undetermined"
        )

    def _valuation_bound(self) -> int:
        """A certified lower bound on the valuation (the valuation itself when
        a nonzero coefficient is known; otherwise the truncation order)."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return self.truncation if self.truncation is not None else 0

    def is_zero_to_truncation(self) -> bool:
        return not any(self.coeffs)

    @staticmethod
    def _min_trunc(a: int | None, b: int | None) -> int | None:
        if a is None:
            return b
        if b is None:
            return a
        return min(a, b)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        trunc = self._min_trunc(self.truncation, other.truncation)
        n = max(len(self.coeffs), len(other.coeffs))
        coeffs = [
            (self.coeffs[i] if i < len(self.coeffs) else Fraction(0))
            + (other.coeffs[i] if i < len(other.coeffs) else Fraction(0))
            for i in range(n)
        ]
        return TruncatedSeries.make(coeffs, trunc)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + other.scale(-1)

    def scale(self, factor) -> "TruncatedSeries":
        factor = Fraction(factor)
        return TruncatedSeries.make(
            tuple(c * factor for c in self.coeffs), self.truncation
        )

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if self.truncation is None and other.truncation is None:
            trunc = None
        elif self.truncation is None:
            trunc = other.truncation + self._valuation_bound()
        elif other.truncation is None:
            trunc = self.truncation + other._valuation_bound()
        else:
            trunc = min(
                self.truncation + other._valuation_bound(),
                other.truncation + self._valuation_bound(),
            )
        width = len(self.coeffs) + len(other.coeffs) - 1 if self.coeffs and other.coeffs else 0
        if trunc is not None:
            width = min(width, trunc)
        out = [Fraction(0)] * max(width, 0)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b and i + j < len(out):
                    out[i + j] += a * b
        return TruncatedSeries.make(out, trunc)

    def truncate(self, order: int) -> "TruncatedSeries":
        if self.truncation is not None and order > self.truncation:
            raise IndexOutOfRange(
                f"cannot extend truncation order {self.truncation} to {order}"
            )
        return TruncatedSeries.make(self.coeffs[:order], order)

    def derivative(self) -> "TruncatedSeries":
        coeffs = tuple(
            Fraction(i) * self.coeffs[i] for i in range(1, len(self.coeffs))
        )
        trunc = None if self.truncation is None else max(self.truncation - 1, 0)
        return TruncatedSeries.make(coeffs, trunc)

    def shift_down(self, k: int) -> "TruncatedSeries":
        """Divide by z^k; the first k known coefficients must vanish."""
        if k < 0:
            raise IndexOutOfRange("shift amount must be nonnegative")
        head = self.coeffs[:k]
        if any(head):
            raise IndexOutOfRange(f"series is not divisible by z^{k}")
        if self.truncation is not None and self.truncation < k:
            raise IndexOutOfRange(
                f"divisibility by z^{k} is not visible at truncation order {self.truncation}"
            )
        trunc = None if self.truncation is None else self.truncation - k
        return TruncatedSeries.make(self.coeffs[k:], trunc)

    def shift_up(self, k: int) -> "TruncatedSeries":
        if k < 0:
            raise IndexOutOfRange("shift amount must be nonnegative")
        trunc = None if self.truncation is None else self.truncation + k
        return TruncatedSeries.make((Fraction(0),) * k + self.coeffs, trunc)

    def inverse(self, order: int) -> "TruncatedSeries":
        """Multiplicative inverse to the given truncation order; needs a unit
        (nonzero constant term) and enough known coefficients."""
        if order < 1:
            raise IndexOutOfRange("inverse needs a positive truncation order")
        if self.truncation is not None and self.truncation < order:
            raise IndexOutOfRange(
                f"inverse to order {order} needs coefficients beyond truncation {self.truncation}"
            )
        a0 = self.coeffs[0] if self.coeffs else Fraction(0)
        if a0 == 0:
            raise IndexOutOfRange("inverse of a non-unit series")
        inv0 = 1 / a0
        out = [inv0]
        for n in range(1, order):
            acc = Fraction(0)
            for i in range(1, n + 1):
                ai = self.coeffs[i] if i < len(self.coeffs) else Fraction(0)
                if ai:
                    acc += ai * out[n - i]
            out.append(-acc * inv0)
        return TruncatedSeries.make(out, order)

    def compose_poly(self, p: "TruncatedSeries") -> "TruncatedSeries":
        """Evaluate the exact polynomial ``p`` at this series (Horner)."""
        acc = TruncatedSeries.make((), self.truncation)
        for c in reversed(p.coeffs):
            acc = acc * self
            acc = acc + TruncatedSeries.make((c,), acc.truncation)
        return acc

    def to_string(self) -> str:
        """``c0 + c1*x + c2*x^2 + ...`` without the zero terms; ``0`` if none."""
        terms = [
            rat_to_string(c) + ("" if e == 0 else "*x" if e == 1 else f"*x^{e}")
            for e, c in enumerate(self.coeffs)
            if c
        ]
        return " + ".join(terms) or "0"

    def derivative_at_zero(self, order: int) -> Fraction:
        """Exact value of the order-th derivative at z = 0."""
        return self.coefficient(order) * factorial(order)


def poly(coeffs, den: int = 1) -> TruncatedSeries:
    """The exact polynomial with these coefficients (lowest first) over ``den``."""
    return TruncatedSeries.make((Fraction(c, den) for c in coeffs), None)


# -- Fraction views of a curve's jets ------------------------------------------------


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


def _from_jets(jets, order: int) -> TruncatedSeries:
    """The z-series with these jets at 0, truncated at z^order."""
    return TruncatedSeries.make((jets[h] / factorial(h) for h in range(order)), order)


def x_derivatives(curve: Curve, max_order: int) -> tuple[Fraction, ...]:
    """Jets of the coordinate function x(z) at z = 0, read off the lift:
    the jet of order 2n is (2n)! E^n Y_(n-1) / gh_0^(2n-1)."""
    g0, y, _, _ = curve.jets.lift(max_order // 2)
    scale = curve.jets._scale
    return tuple(
        Fraction(factorial(h) * scale ** (h // 2) * y[h // 2 - 1], g0 ** (h - 1))
        if h and h % 2 == 0 else Fraction(0)
        for h in range(max_order + 1)
    )


def omega_derivatives(curve: Curve, max_order: int) -> tuple[tuple[Fraction, ...], ...]:
    """Jets of the omega frame functions; row k-1 is omega_k.

    x^{g-k} x'/z^3 is row g-k of the canonical table over z^2, so its jet
    of order h is that row's jet of order h+2 over (h+2)(h+1).
    """
    table = canonical_derivatives(curve, max_order + 2)
    return tuple(
        tuple(row[h + 2] / ((h + 2) * (h + 1)) for h in range(max_order + 1))
        for row in table[curve.genus - 1 : 0 : -1]
    )


def x_of_z(curve: Curve, order: int) -> TruncatedSeries:
    """The even series x(z) to the requested z-truncation order."""
    if order < 1:
        raise IndexOutOfRange("order must be positive")
    return _from_jets(x_derivatives(curve, order - 1), order)


def expand_canonical(curve: Curve, i: int, order: int) -> TruncatedSeries:
    """z-expansion of x^i dx/y in the frame dz (local function x^i x'/z)."""
    if not 0 <= i <= curve.genus - 1:
        raise IndexOutOfRange(f"canonical index {i} outside 0..{curve.genus - 1}")
    if order < 2 * i + 1:
        raise IndexOutOfRange("order too small to exhibit the vanishing order")
    return _from_jets(canonical_derivatives(curve, order - 1)[i], order)


def expand_omega(curve: Curve, k: int, order: int) -> TruncatedSeries:
    """z-expansion of the twisted form omega_k = x^{g-k} dx/y in the frame
    z^2 dz: the local function x^{g-k} x'/z^3, of exact order 2g-2k-2."""
    genus = curve.genus
    if not 1 <= k <= genus - 1:
        raise IndexOutOfRange(f"omega index {k} outside 1..{genus - 1}")
    if order < 2 * genus - 2 * k - 1:
        raise IndexOutOfRange("order too small to exhibit the vanishing order")
    return _from_jets(omega_derivatives(curve, order - 1)[k - 1], order)


# -- Fraction views of the rho and odd-map computations ------------------------------


def rho_reduction_vector(
    curve: Curve, genus: int, n: int, r: int
) -> dict[tuple[int, int], Fraction]:
    """The rho(., xi^n (.) xi^r) formula as an exact vector in b-coordinates:
    `rho._reduction`'s integers over its denominator."""
    vec, den = _reduction(curve, genus, n, r)
    return {pair: Fraction(v, den) for pair, v in vec.items()}


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
    _, pivots = rref(_blocks([[dict(row_of(row)[0]) for row in rows]], len(pairs)))
    return len(pivots)
