"""Exact rational scalars and their serialized form.

All arithmetic in this package is exact. Scalars are
:class:`fractions.Fraction` values (always reduced, positive denominator),
and they cross serialization boundaries as strings ``"p"`` or ``"p/q"``.
No floats appear anywhere.
"""

from __future__ import annotations

import random
import re
import sys
from fractions import Fraction

from .errors import InvalidIndex


def int_to_string(n: int) -> str:
    """`str(n)` for an integer of any size: `str` refuses more digits than
    `sys.get_int_max_str_digits()` (4,300 by default, never below 640, which no
    2,000-bit integer has), so a longer one is split at about half its digits."""
    if n.bit_length() <= 2000:
        return str(n)
    half = n.bit_length() * 3 // 20
    high, low = divmod(abs(n), 10**half)
    return ("-" if n < 0 else "") + int_to_string(high) + int_to_string(low).zfill(half)


def rat_to_string(value: Fraction | int) -> str:
    """Serialize a rational as ``"p"`` (integral) or ``"p/q"`` (reduced)."""
    if value.denominator == 1:
        return int_to_string(value.numerator)
    return f"{int_to_string(value.numerator)}/{int_to_string(value.denominator)}"


def poly_to_string(coeffs, den: int) -> str:
    """``c0 + c1*x + c2*x^2 + ...`` for integer coefficients (lowest first)
    over ``den``, without the zero terms; ``0`` if none."""
    terms = [
        rat_to_string(Fraction(c, den)) + ("" if e == 0 else "*x" if e == 1 else f"*x^{e}")
        for e, c in enumerate(coeffs)
        if c
    ]
    return " + ".join(terms) or "0"


def bounded_repr(text: str) -> str:
    """`repr` of a literal, cut to its first 20 characters past 40."""
    return repr(text if len(text) <= 40 else text[:20] + "...")


def check_digits(text: str, what: str = "", read=int) -> None:
    """Raise `InvalidIndex` naming `what` (if given), the text cut by
    `bounded_repr`, its digit count and the limit if a run of its digits is
    longer than the interpreter reads, when `read` (`int` by default) takes
    the text with each run of digits cut to one digit."""
    digits = max(map(len, re.findall(r"\d+", text)), default=0)
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: none (< 3.10.7)
    if not limit or digits <= limit:
        return
    try:
        read(re.sub(r"\d+", "1", text))
    except ValueError:
        return
    subject = f"{what} {bounded_repr(text)}" if what else bounded_repr(text)
    raise InvalidIndex(f"{subject} has {digits} digits, over the limit of {limit}")


def int_from_string(text: str) -> int:
    """`int(text)` through `check_digits`, its echo cut by `bounded_repr`;
    the `parse_int` of JSON inputs."""
    try:
        return int(text)
    except ValueError:
        check_digits(text, "integer literal")
        raise ValueError(f"invalid literal for int() with base 10: {bounded_repr(text)}") from None


def rat_from_string(text: str) -> Fraction:
    """Parse ``"p"`` or ``"p/q"`` into an exact rational; an error names an
    integer too long for the interpreter by its digit count."""
    text = text.strip()
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        check_digits(text, "rational literal", Fraction)
        raise InvalidIndex(f"not a rational literal: {bounded_repr(text)}") from exc


def as_rational(value) -> Fraction:
    """An exact rational from a `Fraction`, an `int` or a ``"p/q"`` string.

    Floats and booleans (as JSON decodes them) are refused, not rounded.
    """
    if isinstance(value, str):
        return rat_from_string(value)
    if isinstance(value, (Fraction, int)) and not isinstance(value, bool):
        return Fraction(value)
    raise InvalidIndex(f"not an exact rational: {value!r}")


def random_direction(rng: random.Random, length: int) -> tuple[Fraction, ...]:
    """Draw a nonzero rational vector with small entries.

    Numerators are uniform on [-20, 20] and denominators on [1, 10];
    all-zero draws are rejected and redrawn so the result is a usable
    direction. `randrange(a, b + 1)` is what `randint(a, b)` calls, so the
    draws are those of `randint(-20, 20)` and `randint(1, 10)`.
    """
    if length < 1:
        raise InvalidIndex("direction length must be at least 1")
    while True:
        vec = tuple(
            Fraction(rng.randrange(-20, 21), rng.randrange(1, 11))
            for _ in range(length)
        )
        if any(vec):
            return vec


def random_branch_points(rng: random.Random, genus: int) -> tuple[Fraction, ...]:
    """Draw 2*genus+2 distinct rationals with the first pinned to 0.

    Numerators and denominators are bounded by 50 in absolute value, which
    keeps downstream integer growth moderate while still exercising
    non-integral branch points.
    """
    points: list[Fraction] = [Fraction(0)]
    seen = {(0, 1)}  # lowest terms, hashed without a Fraction
    while len(points) < 2 * genus + 2:
        cand = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        if (key := (cand.numerator, cand.denominator)) not in seen:
            seen.add(key)
            points.append(cand)
    return tuple(points)
