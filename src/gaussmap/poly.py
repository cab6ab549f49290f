"""Dense univariate polynomials over exact rationals.

Coefficients are stored lowest degree first with no trailing zeros, so
equality of tuples is equality of polynomials. The zero polynomial has an
empty coefficient tuple and degree -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import IndexOutOfRange
from .rationals import rat_to_string


def _normalize(coeffs) -> tuple[Fraction, ...]:
    out = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class Poly:
    coeffs: tuple[Fraction, ...]

    @classmethod
    def from_coeffs(cls, coeffs) -> "Poly":
        return cls(_normalize(coeffs))

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def monomial(cls, exponent: int, coeff: Fraction | int = 1) -> "Poly":
        if exponent < 0:
            raise IndexOutOfRange("monomial exponent must be nonnegative")
        return cls.from_coeffs([Fraction(0)] * exponent + [Fraction(coeff)])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, exponent: int) -> Fraction:
        if exponent < 0:
            raise IndexOutOfRange("negative exponent")
        if exponent >= len(self.coeffs):
            return Fraction(0)
        return self.coeffs[exponent]

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly.from_coeffs(
            [self.coefficient(i) + other.coefficient(i) for i in range(n)]
        )

    def __sub__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly.from_coeffs(
            [self.coefficient(i) - other.coefficient(i) for i in range(n)]
        )

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] += a * b
        return Poly(_normalize(out))

    def scale(self, factor: Fraction | int) -> "Poly":
        factor = Fraction(factor)
        if factor == 0:
            return Poly.zero()
        return Poly(tuple(c * factor for c in self.coeffs))

    def to_string(self, var: str = "x") -> str:
        if self.is_zero():
            return "0"
        parts = []
        for e, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if e == 0:
                parts.append(rat_to_string(c))
            elif e == 1:
                parts.append(f"{rat_to_string(c)}*{var}")
            else:
                parts.append(f"{rat_to_string(c)}*{var}^{e}")
        return " + ".join(parts)


def poly_derivative(p: Poly, order: int = 1) -> Poly:
    if order < 0:
        raise IndexOutOfRange("derivative order must be nonnegative")
    coeffs = p.coeffs
    for _ in range(order):
        coeffs = tuple(Fraction(i) * coeffs[i] for i in range(1, len(coeffs)))
    return Poly(_normalize(coeffs))


def falling(n: int, k: int) -> int:
    """Falling factorial n*(n-1)*...*(n-k+1); zero when k > n >= 0."""
    out = 1
    for i in range(k):
        out *= n - i
    return out
