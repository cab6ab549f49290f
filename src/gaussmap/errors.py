"""Exception taxonomy.

Every error that crosses the API boundary has a stable, machine-readable
class name. CLI layers map these to structured payloads; library callers
can catch :class:`GaussmapError` for anything the library raises,
:class:`Falsified` for a statement refuted by an exact computation (every
other class means bad input), and the more specific classes for
programmatic handling.
"""

from __future__ import annotations


class GaussmapError(Exception):
    """Base class for all library errors."""

    @property
    def code(self) -> str:
        return type(self).__name__


class DuplicateBranchPoint(GaussmapError):
    """Two branch points coincide; the curve would be singular."""


class FirstBranchPointNotZero(GaussmapError):
    """The distinguished branch point must be the origin."""


class TooFewBranchPoints(GaussmapError):
    """Fewer branch points than the minimum genus requires."""


class IndexOutOfRange(GaussmapError):
    """An index is outside its documented range (basis labels, levels,
    orders, table rows)."""


class NotInPreviousKernel(GaussmapError):
    """A quadric fed to a level-k operation does not lie in the level-(k-1)
    kernel, so the operation is not defined on it."""


class NotInKernel(GaussmapError):
    """A quadric required to lie in a specific kernel does not."""


class BeyondThreshold(GaussmapError):
    """A pairing evaluation was requested beyond its licensed range: some
    lower-order derivative sum is nonzero, so the closed-form value would
    not be frame-independent."""

    def __init__(self, message: str, h: int, l: int, value: str):
        super().__init__(message)
        self.h = h
        self.l = l
        self.value = value

    def payload(self) -> dict:
        return {
            "error": self.code,
            "message": str(self),
            "first_nonzero": {"h": self.h, "l": self.l, "value": self.value},
        }


class Falsified(GaussmapError):
    """A statement under test was falsified by an exact computation. This
    is a result, not bad input: suites turn it into a failing report item
    and the command line exits with code 1."""


class ThresholdNotExtended(Falsified):
    """A quadric in the coordinate hyperplane failed to gain the two extra
    orders of vanishing that membership implies."""


class NoWitnessFound(Falsified):
    """No hyperplane basis element has a nonzero diagonal value, so no
    witness quadric certifies the requested non-degeneracy."""


class IdentityFailed(Falsified):
    """An exact identity failed: a rho value that must vanish is nonzero, or
    the two endpoint sums of one rho evaluation disagree."""


class PairNotLicensed(Falsified):
    """A rho pair that the statement under test licenses is blocked by a
    nonzero pairing of lower total order. Outside a statement (the `rho`
    command) the same block is a `BeyondThreshold` outcome, not a result."""


class InvalidIndex(GaussmapError):
    """A structured index (odd-order label, direction vector, method name)
    is malformed."""
