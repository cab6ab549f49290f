"""Second fundamental form on higher Schiffer variations at the Weierstrass point.

Everything here evaluates exact derivative pairings of quadrics at the
distinguished Weierstrass point p = (0, 0) and combines them into the
threshold-licensed evaluation of the second fundamental form rho on pairs
of odd Schiffer variations xi_p^n.  All values are rational multipliers of
2*pi*i; no transcendental constant ever enters the arithmetic.

Conventions («z» is the local coordinate with z**2 = x * G(x)):

* D(h, l) = sum_{a,b} c_{ab} g_a^(h)(0) g_b^(l)(0) over the symmetric
  tensor of the quadric in the canonical dz-frame, i.e. the pairing
  matrix D = T^t C T of the tensor C and the jet columns T_l.
* The vanishing threshold of a quadric is the largest m with D(h, l) = 0
  for every h + l <= m; evaluating rho on xi^n (.) xi^r is licensed only
  when n + r <= threshold + 1, otherwise `BeyondThreshold` is raised.
* W(a, b) is the antisymmetrised pairing of the omega-frame functions; the
  product rule for g_{alpha} = x * (omega part) (`_product_rule`) turns
  the rho formula into a vector in b-coordinates (`rho_reduction_vector`).

The jet columns are integers over one denominator per column, read from
the curve's one jet store (`curve.Jets.columns`), which checks every odd
column to vanish. One `Pairing` per quadric and curve works over them and
the quadric's integer tensor: each entry of D is made once for the
threshold scans and the rho evaluations, a watermark keeps a scanned zero
prefix from being walked twice, and each licensed rho value is kept per
(n, r) (a refused or failed evaluation is not kept, so it raises again on
every call). The isotropy suite scans a whole level's family at once for
its least threshold T, which forces every pair with n + r <= T to 0. The
reduction vector reads the same store: the W(a, b) products are summed as
integers over one common denominator, and the functionals check the vector
against their rho values by cross-multiplying; the x-chart cross-check
reads the lift's series (`Jets.lift`). `derivative_sum`, `threshold_info`
and `rho_pair` are one-call wrappers that build a fresh `Pairing`.

The witness functional (xi^{2k+3} (.) xi^{2k+1} on Ker mu_2k) and the
diagonal functional (xi^{2k+3} (.) xi^{2k+3} on A_{k,0}) are built by one
routine. The hyperplane A_{k,0} is cut from the witness values alone; the
reduction vector, closed form, display form and b-support check (made
once per level) are read only by the witness report. One `Certifier` per
curve builds each level's certificate table once, with the witness's
cross terms, and reads every certificate from it. The only
module-level cache is the basis quadric data of the x-chart cross-check,
keyed on the genus alone; no cache is keyed on a curve or a quadric.

An exact identity that fails here (the two endpoint sums of a rho value,
a value forced to zero, an odd jet column) raises `IdentityFailed`, a
`Falsified` error. Where a statement under test licenses a pair (the
isotropy, witness and certificate computations), a `BeyondThreshold`
refutes that statement and is raised as `PairNotLicensed`, also a
`Falsified` error.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from operator import mul

from .curve import (
    Curve,
    canonical_derivatives,
    omega_derivatives,
    x_derivatives,
)
from .errors import (
    BeyondThreshold,
    Falsified,
    IdentityFailed,
    IndexOutOfRange,
    InvalidIndex,
    NoWitnessFound,
    PairNotLicensed,
    ThresholdNotExtended,
)
from .gaussian import KernelLevel, kernel_via_equations, mu_coefficients
from .linalg import Vector, dot, kernel_basis, rref
from .quadrics import (
    QuadricI2,
    basis_quadric,
    quadric_from_vector,
    sym_pairs,
    vector_to_json,
)
from .rationals import numerators, rat_to_string
from .record import Record, replace

ZERO = Fraction(0)


# -- Schiffer indices -------------------------------------------------------------


class SchifferIndex(Record):
    """Order of an invariant higher Schiffer variation xi_p^n (n odd)."""

    n: int

    def __post_init__(self) -> None:
        _odd_order(self.n)


def _odd_order(n) -> int:
    """The order of a `SchifferIndex`, or int(n) checked to be odd and positive."""
    if isinstance(n, SchifferIndex):
        return n.n
    n = int(n)
    if n < 1 or n % 2 == 0:
        raise InvalidIndex(f"Schiffer order must be an odd positive integer, got {n}")
    return n


# -- the pairing matrix and licensed evaluation of rho ---------------------------


class ThresholdInfo(Record):
    threshold: int
    at_cap: bool
    first_nonzero: tuple[int, int, Fraction] | None


class RhoValue(Record):
    """Exact rho evaluation: the true value is `value * 2*pi*i`."""

    n: int
    r: int
    value: Fraction
    licensing_threshold: int

    def __post_init__(self) -> None:
        if self.n + self.r > self.licensing_threshold + 1:
            raise InvalidIndex(
                "rho value emitted beyond its licensing threshold"
            )

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "value": rat_to_string(self.value),
            "licensing_threshold": self.licensing_threshold,
            "unit": "2*pi*i",
        }


def _even_orders(total: int) -> range:
    """The even h with h >= total - h, in scan order, for an even total.

    Every pairing with an odd order vanishes (the frame functions are
    even), so the scans visit only these.
    """
    half = total // 2
    return range(half + half % 2, total + 1, 2)


def _scan(pairings, jets, start: int, limit: int):
    """The first nonzero S(h, l) with start <= h + l <= limit, as (pairing,
    h, l), or None: totals upward, then the pairings in order, then h from
    total/2 up. Odd totals vanish; reaching one checks its jet column."""
    for total in range(start, limit + 1):
        if total % 2:
            jets.columns(total)
            continue
        for pairing in pairings:
            for h in _even_orders(total):
                if pairing._sum(h, total - h):
                    return pairing, h, total - h
    return None


class Pairing:
    """The pairing matrix D = T^t C T of one quadric on one curve.

    C is the quadric's integer tensor (`QuadricI2.tensor`) and column T_l
    holds the l-th jets as integers over den[l] (`Jets.columns`), so D(h, l)
    is the integer dot product S(h, l) = T_h . V_l with V_l = C T_l, over
    the product of the three denominators. Each V_l and each S(h, l) is
    made once (D is symmetric); a Fraction is made only for an entry handed
    out by `__call__`.

    The threshold scan and the blocking scan of `rho` visit only even
    orders, totals upward and h from total/2 up, through `_scan`, the
    search for the first nonzero entry that the isotropy suite's family
    scan shares. A watermark records that every entry of total <= m
    vanishes, so no later scan walks that prefix again.
    """

    def __init__(self, q: QuadricI2, curve: Curve) -> None:
        self.quadric = q
        self.jets = curve.jets
        entries, self._den = q.tensor
        rows: dict[int, list[tuple[int, int]]] = {}
        for a, b, c in entries:
            rows.setdefault(a, []).append((b, c))
        self._support = tuple(rows)
        self._rows = tuple(map(tuple, rows.values()))
        self._num, self._dens = self.jets.columns(-1)  # the store, grown by `columns`
        self._vectors: dict[int, tuple[int, ...]] = {}
        self._sums: dict[tuple[int, int], int] = {}
        self._entries: dict[tuple[int, int], Fraction] = {}
        self._rhos: dict[tuple[int, int], RhoValue] = {}
        self._zero_through = -1
        self._first: tuple[int, int, Fraction] | None = None

    @classmethod
    def family(cls, quads, curve: Curve) -> tuple["Pairing", ...]:
        """One pairing per quadric, all reading the curve's one jet store."""
        return tuple(cls(q, curve) for q in quads)

    def _sum(self, h: int, l: int) -> int:
        """S(h, l) for h >= l >= 0 (0 at an odd order: odd columns vanish)."""
        value = self._sums.get((h, l))
        if value is None:
            num = self._num if h < len(self._num) else self.jets.columns(h)[0]
            vector = self._vectors.get(l)
            if vector is None:
                t = num[l]
                vector = tuple(sum(c * t[b] for b, c in row) for row in self._rows)
                self._vectors[l] = vector
            t = num[h]
            value = sum(t[a] * v for a, v in zip(self._support, vector) if v)
            self._sums[(h, l)] = value
        return value

    def __call__(self, h: int, l: int) -> Fraction:
        """D(h, l): the (h, l) derivative pairing of the quadric at p."""
        if h < l:
            h, l = l, h
        value = self._entries.get((h, l))
        if value is not None:
            return value
        if l < 0:
            raise InvalidIndex("derivative orders must be non-negative")
        s = self._sum(h, l)
        value = Fraction(s, self._den * self._dens[h] * self._dens[l]) if s else ZERO
        self._entries[(h, l)] = value
        return value

    def _first_nonzero(self, limit: int) -> tuple[int, int, Fraction] | None:
        """The first nonzero D(h, l) with h + l <= limit in scan order, if any."""
        first = self._first
        if first is None and limit > self._zero_through:
            found = _scan((self,), self.jets, self._zero_through + 1, limit)
            if found is None:
                self._zero_through = limit
            else:
                _, h, l = found
                first = self._first = (h, l, self(h, l))
        return first if first and first[0] + first[1] <= limit else None

    def threshold(self, cap: int) -> ThresholdInfo:
        """Largest m <= cap with D(h, l) = 0 for all h + l <= m."""
        if cap < 0:
            raise InvalidIndex("threshold cap must be non-negative")
        first = self._first_nonzero(cap)
        if first is None:
            return ThresholdInfo(threshold=cap, at_cap=True, first_nonzero=None)
        return ThresholdInfo(
            threshold=first[0] + first[1] - 1, at_cap=False, first_nonzero=first
        )

    def rho(self, n, r) -> RhoValue:
        """rho(Q)(xi_p^n (.) xi_p^r) / (2*pi*i), licensed by the threshold.

        The evaluation formula needs every pairing of total order below
        n + r to vanish; if one does not, the formula is simply not
        available and `BeyondThreshold` is raised (never silently
        extrapolated). The sum is computed from both endpoints and must
        agree. The total n + r is even, so only even j contribute. A value
        is kept per (n, r) once made; a failed evaluation is not kept, so it
        raises again on every call.
        """
        n = _odd_order(n)
        r = _odd_order(r)
        known = self._rhos.get((n, r))
        if known is not None:
            return known
        m1 = n + r
        first = self._first_nonzero(m1 - 1)
        if first is not None:
            h, l, value = first
            raise BeyondThreshold(
                f"pairing D({h},{l}) = {rat_to_string(value)} "
                f"blocks the (xi^{n}, xi^{r}) evaluation",
                h=h,
                l=l,
                value=rat_to_string(value),
            )

        def one_sided(a: int) -> Fraction:
            acc = ZERO
            for j in range(0, a, 2):
                d = self(m1 - j, j)
                if d:
                    acc += d * Fraction(a - j, factorial(j) * factorial(m1 - j))
            return acc

        value = one_sided(n)
        other = one_sided(r)
        if value != other:
            raise IdentityFailed(
                f"rho symmetry failed for orders ({n},{r}): "
                f"{rat_to_string(value)} != {rat_to_string(other)}"
            )
        saturated = self._first_nonzero(m1) is None
        if saturated and value != 0:
            raise IdentityFailed(
                "vanishing pairings at the pair total must force a zero value"
            )
        licensing = m1 if saturated else m1 - 1
        known = self._rhos[(n, r)] = RhoValue(
            n=n, r=r, value=value, licensing_threshold=licensing
        )
        return known


@contextmanager
def _licensed():
    """Inside, the statement under test licenses every rho pair evaluated,
    so a pair blocked by a lower pairing refutes it."""
    try:
        yield
    except BeyondThreshold as exc:
        raise PairNotLicensed(str(exc)) from None


def derivative_sum(q: QuadricI2, curve: Curve, h: int, l: int) -> Fraction:
    """D(h, l): the (h, l) derivative pairing of the quadric at p."""
    return Pairing(q, curve)(h, l)


def threshold_info(q: QuadricI2, curve: Curve, cap: int) -> ThresholdInfo:
    """Largest m <= cap with D(h, l) = 0 for all h + l <= m."""
    return Pairing(q, curve).threshold(cap)


def rho_pair(q: QuadricI2, curve: Curve, n, r) -> RhoValue:
    """rho(Q)(xi_p^n (.) xi_p^r) / (2*pi*i); see `Pairing.rho`."""
    return Pairing(q, curve).rho(n, r)


# -- omega-frame pairings and the exact reduction of D(h, l) -------------------


def _product_rule(sigma, h: int, l: int):
    """(weight, a, b) with 2 D(h, l) = sum weight * W(a, b).

    Writing each canonical function as x * (omega function) or (omega
    function) and expanding the h-th and l-th derivatives of the products
    leaves only even x-jets sigma[c], c >= 2.
    """
    for c in range(2, h + 1, 2):
        if sigma[c]:
            yield comb(h, c) * sigma[c], h - c, l
    for d in range(2, l + 1, 2):
        if sigma[d]:
            yield -comb(l, d) * sigma[d], h, l - d


def _reduction(
    curve: Curve, genus: int, n: int, r: int
) -> tuple[dict[tuple[int, int], int], int]:
    """`rho_reduction_vector` as integer numerators over one denominator.

    Only even j contribute: at odd j each W(a, b) pairs two odd jet
    columns, which the jet store checks to vanish. Each weight
    w_j sigma_c / (den_a den_b) goes onto one common denominator. As
    t * omega_m = alpha_{g-m-1} on the nose, W(a, b) at pair (i, j) reads
    rows s = g-1-i and t = g-1-j of the jet columns T, and the weighted sum
    of every W(a, b) there is sum_a T_a[s] V_a[t] - T_a[t] V_a[s], with V_a
    the weighted sum of the T_b paired with T_a.
    """
    m1 = n + r
    a_end = min(n, r)
    num, den = curve.jets.columns(m1)
    sigma, sigma_den = numerators(x_derivatives(curve, m1))
    terms = []
    for j in range(0, a_end, 2):
        scale = factorial(j) * factorial(m1 - j)
        for weight, a, b in _product_rule(sigma, m1 - j, j):
            terms.append(((a_end - j) * weight, scale * den[a] * den[b], a, b))
    common = lcm(*(d for _, d, _, _ in terms))
    inner: dict[int, list[int]] = {}
    for weight, d, a, b in terms:
        weight *= common // d
        acc = inner.setdefault(a, [0] * genus)
        for row, x in enumerate(num[b]):
            if x:
                acc[row] += weight * x
    vec = {}
    for i, j in sym_pairs(genus):
        s, t = genus - 1 - i, genus - 1 - j
        vec[(i, j)] = sum(num[a][s] * v[t] - num[a][t] * v[s] for a, v in inner.items())
    return vec, 2 * sigma_den * common


def rho_reduction_vector(
    curve: Curve, genus: int, n: int, r: int
) -> dict[tuple[int, int], Fraction]:
    """The rho(., xi^n (.) xi^r) formula as an exact vector in b-coordinates.

    Valid on all of I_2 (it is the pairing identity summed with the rho
    weights); restricting to a kernel merely kills the spillover entries.
    The shorter endpoint of the evaluation formula is used.
    """
    vec, den = _reduction(curve, genus, n, r)
    return {pair: Fraction(v, den) if v else ZERO for pair, v in vec.items()}


# -- isotropy ------------------------------------------------------------------


def _require_level(genus: int, k: int) -> None:
    if k < 0 or 2 * k > genus - 3:
        raise InvalidIndex(
            f"level k = {k} outside 0..floor((g-3)/2) for genus {genus}"
        )


class IsotropyResult(Record, hidden=("pairings",)):
    genus: int
    k: int
    curve: str
    basis_size: int
    threshold: ThresholdInfo  # the least over the basis
    pair_values: tuple[tuple[int, int, int, Fraction], ...]
    # one per kernel basis quadric, kept for later rho evaluations
    pairings: tuple[Pairing, ...]

    @property
    def ok(self) -> bool:
        """Every threshold reaches 4k+3 and every licensed pair vanishes."""
        return self.threshold.threshold >= 4 * self.k + 3 and not any(
            value for *_, value in self.pair_values
        )


def _family_threshold(
    pairings: tuple[Pairing, ...], curve: Curve, k: int
) -> ThresholdInfo:
    """The least threshold of a family, under the cap 4k+8 raised once to
    2(4k+8): the even totals are walked upward across every pairing, and
    the first nonzero entry (in family order, then scan order) ends the
    scan: the pairing that holds it has the least threshold."""
    cap = 2 * (4 * k + 8)
    found = _scan(pairings, curve.jets, 0, cap)
    if found is None:
        return ThresholdInfo(threshold=cap, at_cap=True, first_nonzero=None)
    return found[0].threshold(cap)


def isotropy_suite(genus: int, k: int, curve: Curve) -> IsotropyResult:
    """All licensed rho pairs with odd total <= 4k+3 vanish on Ker mu_2k.

    A pair at or below the family threshold is its forced zero; only the
    pairs above it go through `Pairing.rho`, which may refuse them."""
    _require_level(genus, k)
    quads = kernel_via_equations(genus).level(k).quadrics
    pairings = Pairing.family(quads, curve)
    threshold = _family_threshold(pairings, curve, k)
    forced = threshold.threshold
    checks = []
    with _licensed():
        for index, pairing in enumerate(pairings):
            for n in range(1, 4 * k + 4, 2):
                for r in range(n, 4 * k + 4 - n, 2):
                    value = ZERO if n + r <= forced else pairing.rho(n, r).value
                    checks.append((index, n, r, value))
    return IsotropyResult(
        genus=genus,
        k=k,
        curve=curve.label(),
        basis_size=len(quads),
        threshold=threshold,
        pair_values=tuple(checks),
        pairings=pairings,
    )


# -- the witness functional and its closed form --------------------------------


class Functional(Record):
    """A rho evaluation as a linear functional in b-coordinates.

    `coefficients` is the machine vector: the entries of the exact
    reduction of the evaluation formula at the support pairs.  It
    reproduces `values` on the domain basis exactly (after the spillover
    entries die on the kernel).  `closed_form` is the predicted vector
    from the one-line jet formulas; `display_form` carries the textbook
    shape with the odd cubic factors and is compared as a functional on
    the domain.
    """

    genus: int
    k: int
    pair: tuple[int, int]
    domain: str
    curve: str
    basis: tuple[QuadricI2, ...]
    values: tuple[Fraction, ...]
    support: tuple[tuple[int, int], ...]
    coefficients: tuple[Fraction, ...]
    closed_form: tuple[Fraction, ...]
    nonzero_on_domain: bool
    support_ok: bool
    coefficients_nonzero: bool
    closed_form_ok: bool
    reduction_ok: bool
    display_form: tuple[Fraction, ...] | None = None
    display_factors: tuple[int, ...] | None = None
    display_domain_constant: Fraction | None = None
    display_proportional_on_domain: bool | None = None

    def to_json(self) -> dict:
        out = {
            "genus": self.genus,
            "k": self.k,
            "pair": list(self.pair),
            "domain": self.domain,
            "curve": self.curve,
            "dimension": len(self.basis),
            "values": [rat_to_string(v) for v in self.values],
            "support": [f"{i},{j}" for (i, j) in self.support],
            "coefficients": [rat_to_string(c) for c in self.coefficients],
            "closed_form": [rat_to_string(c) for c in self.closed_form],
            "nonzero_on_domain": self.nonzero_on_domain,
            "support_ok": self.support_ok,
            "coefficients_nonzero": self.coefficients_nonzero,
            "closed_form_ok": self.closed_form_ok,
            "reduction_ok": self.reduction_ok,
        }
        if self.display_form is not None:
            out["display_form"] = [rat_to_string(c) for c in self.display_form]
            out["display_factors"] = list(self.display_factors or ())
            out["display_proportional_on_domain"] = (
                self.display_proportional_on_domain
            )
            if self.display_domain_constant is not None:
                out["display_domain_constant"] = rat_to_string(
                    self.display_domain_constant
                )
        return out


def _single_constant(
    values: tuple[Fraction, ...], reference: tuple[Fraction, ...]
) -> Fraction | None:
    """c with values = c * reference, if one exists (None otherwise); 0 when
    both vanish identically."""
    if any(v and not ref for v, ref in zip(values, reference)):
        return None
    ratios = {v / ref for v, ref in zip(values, reference) if ref}
    return None if len(ratios) > 1 else next(iter(ratios), ZERO)


def _support(genus: int, k: int, total: int) -> tuple[tuple[int, int], ...]:
    """The pairs (total - (g-u), g-u) of I_2 for u = 1, ..., k+1."""
    return tuple(
        (total - genus + u, genus - u)
        for u in range(1, k + 2)
        if 1 <= total - genus + u < genus - u
    )


def _closed_form(
    curve: Curve, genus: int, m1: int, support: tuple[tuple[int, int], ...]
) -> tuple[Fraction, ...]:
    """sigma_2/2 * W-product / ((2u-2)! (m1-2u)!) at each support pair (i, g-u).

    The one adjacent pair, j = i + 1, is the witness's u = k+1 and is
    halved once more.
    """
    table = canonical_derivatives(curve, m1)
    sigma2 = x_derivatives(curve, 2)[2]
    out = []
    for (i, j) in support:
        u = genus - j
        wval = table[m1 // 2 - u][m1 - 2 * u] * table[u - 1][2 * u - 2]
        denom = 2 * factorial(2 * u - 2) * factorial(m1 - 2 * u)
        if j == i + 1:
            denom *= 2
        out.append(sigma2 * wval / denom)
    return tuple(out)


def _functional(
    genus: int,
    curve: Curve,
    pair: tuple[int, int],
    domain: str,
    basis: tuple[QuadricI2, ...],
    values: tuple[Fraction, ...],
) -> Functional:
    """The rho evaluation at pair = (2k+3, r) as a functional on `basis`.

    `values` are its rho values on the basis. The exact reduction vector
    must reproduce each of them, in full and trimmed to the support: the
    pairs (i, j) with i + j = 2g - (n+r)/2 - 1 and j >= g-k-1. No pair of
    lower total may carry weight.
    """
    n, r = pair
    k = (n - 3) // 2
    vec, den = _reduction(curve, genus, n, r)
    total = 2 * genus - (n + r) // 2 - 1
    support = _support(genus, k, total)
    coefficients = tuple(Fraction(vec[p], den) for p in support)
    closed = _closed_form(curve, genus, n + r, support)
    # b(i, j) = -a(g-j, g-i): the a-slot that each nonzero entry meets
    pairs = sym_pairs(genus)
    slots = {p: pairs.index((genus - p[1], genus - p[0])) for p in vec if vec[p]}

    def reduces(q: QuadricI2, value: Fraction) -> bool:
        """The vector gives `value` on q in full and trimmed to the support,
        compared as numerators over den * E, E the lcm of q's a-coordinates."""
        a, scale = numerators(q.a_coords)
        full = -sum(vec[p] * a[slot] for p, slot in slots.items())
        trimmed = -sum(vec[p] * a[slots[p]] for p in support if p in slots)
        target = value.numerator * den * scale
        return full == trimmed and full * value.denominator == target

    return Functional(
        genus=genus,
        k=k,
        pair=pair,
        domain=domain,
        curve=curve.label(),
        basis=basis,
        values=values,
        support=support,
        coefficients=coefficients,
        closed_form=closed,
        nonzero_on_domain=any(values),
        support_ok=all(vec[p] == 0 for p in vec if p[0] + p[1] < total),
        coefficients_nonzero=all(coefficients),
        closed_form_ok=coefficients == closed,
        reduction_ok=all(reduces(q, value) for q, value in zip(basis, values)),
    )


def _witness_display_form(
    curve: Curve, genus: int, k: int
) -> tuple[tuple[Fraction, ...], tuple[int, ...]]:
    """The textbook coefficient shape with the odd cubic integer factors."""
    omega = omega_derivatives(curve, 4 * k + 4)
    out = []
    factors = []
    for u in range(1, k + 1):
        factor = -8 * u**3 + 8 * u**2 * (k + 1) - 4 * k * u - (2 * k + 3)
        factors.append(factor)
        product = (
            omega[genus - 2 * k - 3 + u - 1][4 * k + 4 - 2 * u]
            * omega[genus - u - 1][2 * u - 2]
        )
        out.append(product * Fraction(factor, 2 * factorial(4 * k + 4 - 2 * u)))
    product = omega[genus - k - 3][2 * k + 2] * omega[genus - k - 2][2 * k]
    out.append(-product / (2 * factorial(2 * k + 2)))
    return tuple(out), tuple(factors)


def _witness_values(
    genus: int, k: int, curve: Curve
) -> tuple[KernelLevel, tuple[Fraction, ...]]:
    """The Ker mu_2k level and the licensed rho(xi^{2k+3} (.) xi^{2k+1})
    values of its basis quadrics: all that the cut of A_{k,0} reads."""
    _require_level(genus, k)
    level = kernel_via_equations(genus).level(k)
    with _licensed():
        values = tuple(
            p.rho(2 * k + 3, 2 * k + 1).value
            for p in Pairing.family(level.quadrics, curve)
        )
    return level, values


def witness_functional(genus: int, k: int, curve: Curve) -> Functional:
    """The xi^{2k+3} (.) xi^{2k+1} evaluation as a functional on Ker mu_2k.

    Its reduction also requires the b-support check of every kernel
    quadric (made once per level), and the textbook display form is
    compared as a functional on the kernel.
    """
    level, values = _witness_values(genus, k, curve)
    quads = level.quadrics
    f = _functional(genus, curve, (2 * k + 3, 2 * k + 1), "kernel", quads, values)
    display, factors = _witness_display_form(curve, genus, k)
    display_values = tuple(
        dot(display, tuple(q.b(*pair) for pair in f.support)) for q in quads
    )
    constant = _single_constant(values, display_values)
    return replace(
        f,
        reduction_ok=f.reduction_ok and level.b_support_ok,
        display_form=display,
        display_factors=factors,
        display_domain_constant=constant,
        display_proportional_on_domain=constant is not None,
    )


# -- hyperplanes A_{k,0} and A_{k,0,0} ------------------------------------------


class HyperplaneResult(Record):
    genus: int
    k: int
    curve: str
    basis: tuple[QuadricI2, ...]
    vectors: tuple[Vector, ...]
    dimension: int
    codimension_ok: bool
    support_coordinates_vanish: bool

    def to_json(self) -> dict:
        return {
            "genus": self.genus,
            "k": self.k,
            "curve": self.curve,
            "dimension": self.dimension,
            "codimension_ok": self.codimension_ok,
            "support_coordinates_vanish": self.support_coordinates_vanish,
            "basis": [vector_to_json(self.genus, vec) for vec in self.vectors],
        }


def _restrict_to_functional_kernel(
    domain_vectors: tuple[Vector, ...],
    values: tuple[Fraction, ...],
    ncols: int,
) -> tuple[Vector, ...]:
    """Canonical basis of {sum c_i B_i : sum c_i values_i = 0}.

    Each B_i is taken as the integer row d_i B_i, whose value is d_i
    values_i, with numerator u_i. With p the first i where u_i != 0, the
    rows u_p d_j B_j - u_j d_p B_p (j != p) span the cut, and `rref` gives
    its unique reduced basis; if every value is zero the cut is the span of
    the domain itself.
    """
    scaled = [numerators(vec) for vec in domain_vectors]
    u, _ = numerators([den * value for (_, den), value in zip(scaled, values)])
    rows = [{c: x for c, x in enumerate(ints) if x} for ints, _ in scaled]
    p = next((i for i, x in enumerate(u) if x), None)
    if p is not None:
        pivot, u_p = rows[p], u[p]
        cut = []
        for j, (u_j, row) in enumerate(zip(u, rows)):
            if j != p:
                combined = {c: u_p * x for c, x in row.items()}
                if u_j:
                    for c, x in pivot.items():
                        combined[c] = combined.get(c, 0) - u_j * x
                cut.append(combined)
        rows = cut
    reduced, _ = rref(rows, ncols)
    return reduced


def witness_hyperplane(genus: int, k: int, curve: Curve) -> HyperplaneResult:
    """A_{k,0}: the kernel of the witness functional inside Ker mu_2k.

    The cut is the single row of witness values; that every support
    coordinate then vanishes on the result (the textbook description of
    A_{k,0} by the equations a_{u,2k+3-u} = 0) is asserted as a
    consequence, not imposed.
    """
    level, values = _witness_values(genus, k, curve)
    vectors = _restrict_to_functional_kernel(
        level.basis, values, len(sym_pairs(genus))
    )
    quads = tuple(quadric_from_vector(genus, vec) for vec in vectors)
    support = _support(genus, k, 2 * genus - 2 * k - 3)
    support_vanish = all(q.b(*pair) == 0 for q in quads for pair in support)
    return HyperplaneResult(
        genus=genus,
        k=k,
        curve=curve.label(),
        basis=quads,
        vectors=vectors,
        dimension=len(vectors),
        codimension_ok=len(vectors) == level.dimension - 1,
        support_coordinates_vanish=support_vanish,
    )


class DiagonalResult(Record):
    functional: Functional
    hyperplane: HyperplaneResult
    a00_vectors: tuple[Vector, ...]
    a00_dimension: int
    codimension: int

    def to_json(self) -> dict:
        genus = self.functional.genus
        return {
            "functional": self.functional.to_json(),
            "hyperplane": self.hyperplane.to_json(),
            "a00_dimension": self.a00_dimension,
            "codimension": self.codimension,
            "a00_basis": [vector_to_json(genus, vec) for vec in self.a00_vectors],
        }


def _diagonal_values(
    genus: int, k: int, curve: Curve
) -> tuple[HyperplaneResult, tuple[Pairing, ...], tuple[Fraction, ...]]:
    """A_{k,0}, the pairings of its basis and their xi^{2k+3} (.) xi^{2k+3}
    values: all that a certificate reads.

    Members of A_{k,0} must have their vanishing threshold extended by
    two orders before the diagonal pair is licensed; a member that fails
    this is a falsification event raised as ThresholdNotExtended.
    """
    _require_level(genus, k)
    hyper = witness_hyperplane(genus, k, curve)
    pairings = Pairing.family(hyper.basis, curve)
    n = 2 * k + 3
    for index, pairing in enumerate(pairings):
        info = pairing.threshold(4 * k + 5)
        if not info.at_cap:
            h, l, value = info.first_nonzero
            raise ThresholdNotExtended(
                f"A_{{{k},0}} basis[{index}] has D({h},{l}) = "
                f"{rat_to_string(value)}; the diagonal evaluation at "
                f"order {2 * n} is not licensed"
            )
    return hyper, pairings, tuple(pairing.rho(n, n).value for pairing in pairings)


def diagonal_functional(genus: int, k: int, curve: Curve) -> DiagonalResult:
    """The xi^{2k+3} (.) xi^{2k+3} evaluation on A_{k,0}, and A_{k,0,0}."""
    hyper, _, values = _diagonal_values(genus, k, curve)
    n = 2 * k + 3
    functional = _functional(genus, curve, (n, n), "hyperplane", hyper.basis, values)
    a00 = _restrict_to_functional_kernel(hyper.vectors, values, len(sym_pairs(genus)))
    return DiagonalResult(
        functional=functional,
        hyperplane=hyper,
        a00_vectors=a00,
        a00_dimension=len(a00),
        codimension=hyper.dimension - len(a00),
    )


# -- asymptotic certificates ----------------------------------------------------


class AsymptoticCertificate(Record):
    genus: int
    curve: str
    direction: tuple[Fraction, ...]
    verdict: str
    top_order: int
    witness: QuadricI2 | None
    witness_pair_value: Fraction | None
    total_value: Fraction | None
    cross_terms: tuple[tuple[int, int, Fraction], ...]
    basis_zero_count: int | None

    def __post_init__(self) -> None:
        if self.verdict == "not_asymptotic":
            if self.witness is None or not self.total_value:
                raise IdentityFailed(
                    "a not_asymptotic certificate needs a nonzero witness"
                )
        elif self.verdict != "asymptotic":
            raise InvalidIndex(f"unknown verdict {self.verdict!r}")


def direction_length(genus: int) -> int:
    """Coefficients index xi^1, xi^3, ..., up to xi^{g-1} or xi^{g-2}."""
    return genus // 2


class Certifier:
    """Asymptotic certificates of directions on one curve.

    A direction of top order 2k+3 reads its present pairs from level k's
    table, built once from A_{k,0} and its diagonal values alone; a level
    whose build raises a `Falsified` error keeps it for all its directions.
    The Q_ij pairings that certify a pure xi^1 direction are built once too.
    """

    def __init__(self, curve: Curve) -> None:
        self.curve = curve
        self._tables: dict[int, tuple | Falsified] = {}
        self._basis: tuple[Pairing, ...] = ()

    def table(self, k: int) -> tuple[QuadricI2, Fraction, dict]:
        """Level k's (witness, value, cross): the first A_{k,0} basis quadric
        Q_w with a nonzero value rho(Q_w)(xi^{2k+3} (.) xi^{2k+3}), that
        value, and each licensed rho(Q_w)(xi^{2i+1} (.) xi^{2j+1}) for
        0 <= i <= k, i <= j <= k+1, or the `Falsified` error it raised."""
        table = self._tables.get(k)
        if table is None:
            try:
                table = self._tables[k] = self._build(k)
            except Falsified as exc:
                table = self._tables[k] = exc
        if isinstance(table, Falsified):
            raise type(table)(*table.args)
        return table

    def universal(self, k: int) -> bool:
        """Level k's verdict: a nonzero witness value, every cross entry 0."""
        _, value, cross = self.table(k)
        return bool(value) and all(v == 0 for v in cross.values())

    def _build(self, k: int) -> tuple[QuadricI2, Fraction, dict]:
        hyper, pairings, values = _diagonal_values(self.curve.genus, k, self.curve)
        found = [t for t in zip(hyper.basis, pairings, values) if t[2]]
        if not found:
            raise NoWitnessFound(
                f"the diagonal functional vanishes on all of A_{{{k},0}} "
                f"for genus {self.curve.genus}; no certificate witness exists"
            )
        witness, pairing, value = found[0]
        cross = {}
        for i in range(k + 1):
            for j in range(i, k + 2):
                try:
                    with _licensed():
                        cross[(i, j)] = pairing.rho(2 * i + 1, 2 * j + 1).value
                except Falsified as exc:
                    cross[(i, j)] = exc
        return witness, value, cross

    def classify(self, lambdas) -> AsymptoticCertificate:
        """Certify a direction sum(lambda_i xi^{2i+1}) asymptotic or not.

        A pure xi^1 direction is certified asymptotic by checking the
        licensed zero rho(Q)(xi^1 (.) xi^1) = 0 on every basis quadric.
        Any direction with top odd order 2k+1 >= 3 is certified
        not_asymptotic through its level's witness quadric in A_{k-1,0}:
        all its licensed cross pairs are exact zeros and the
        (2k+1, 2k+1) value is exactly nonzero, so the full evaluation is
        lambda_top^2 times it.
        """
        curve = self.curve
        genus = curve.genus
        expected = direction_length(genus)
        direction = tuple(Fraction(c) for c in lambdas)
        if len(direction) != expected:
            raise InvalidIndex(
                f"direction for genus {genus} needs {expected} odd coefficients"
            )
        if not any(direction):
            raise InvalidIndex("the zero direction has no classification")
        top = max(idx for idx, c in enumerate(direction) if c)
        if top == 0:
            if not self._basis:
                self._basis = Pairing.family(
                    (basis_quadric(genus, i, j) for (i, j) in sym_pairs(genus)), curve
                )
            with _licensed():
                checks = [pairing.rho(1, 1).value for pairing in self._basis]
            if any(checks):
                raise IdentityFailed(
                    "rho(Q)(xi^1 (.) xi^1) must vanish at a Weierstrass point"
                )
            return AsymptoticCertificate(
                genus=genus,
                curve=curve.label(),
                direction=direction,
                verdict="asymptotic",
                top_order=1,
                witness=None,
                witness_pair_value=None,
                total_value=None,
                cross_terms=(),
                basis_zero_count=len(checks),
            )

        k = top
        witness, pair_value, table = self.table(k - 1)
        present = [idx for idx, c in enumerate(direction) if c]
        cross = []
        for pos, i in enumerate(present[:-1]):  # (k, k) is the witness value
            for j in present[pos:]:
                value = table[(i, j)]
                if isinstance(value, Falsified):
                    raise type(value)(*value.args)
                cross.append((2 * i + 1, 2 * j + 1, value))
                if value:
                    raise IdentityFailed(
                        f"licensed cross pair (xi^{2 * i + 1}, xi^{2 * j + 1}) "
                        "must vanish below the witness threshold"
                    )
        total = direction[top] ** 2 * pair_value
        return AsymptoticCertificate(
            genus=genus,
            curve=curve.label(),
            direction=direction,
            verdict="not_asymptotic",
            top_order=2 * k + 1,
            witness=witness,
            witness_pair_value=pair_value,
            total_value=total,
            cross_terms=tuple(cross),
            basis_zero_count=None,
        )


def asymptotic_classify(curve: Curve, lambdas) -> AsymptoticCertificate:
    """One direction's certificate; see `Certifier.classify`."""
    return Certifier(curve).classify(lambdas)


# -- cup products with Schiffer variations --------------------------------------


class CupRank(Record):
    n: int
    genus: int
    rank: int
    kernel: tuple[Vector, ...]
    rank_bound_ok: bool
    predicted_kernel_indices: tuple[int, ...]
    containment_ok: bool


def cup_rank(curve: Curve, n: int) -> CupRank:
    """Rank and kernel of cup product with xi_p^n on the canonical space.

    The pairing matrix is P_ij = (f_i f_j)^(n-1)(0) / (n-1)! over the
    canonical frame functions, the z^(n-1) coefficient of f_i f_j, formed
    over the integers from the jet store (one common scale changes neither
    its rank nor its kernel); its rank is at most n and its kernel
    contains every alpha_i with 2i >= n (those classes extend across p
    with a zero of order at least n).
    """
    genus = curve.genus
    if n < 1 or n > genus:
        raise InvalidIndex(f"cup order must lie in 1..{genus}, got {n}")
    rows, _ = curve.jets.z_rows(n)
    matrix = [[sum(map(mul, a, b[::-1])) for b in rows] for a in rows]
    kernel = kernel_basis([{c: x for c, x in enumerate(row) if x} for row in matrix], genus)
    rank = genus - len(kernel)
    predicted = tuple(i for i in range(genus) if 2 * i >= n)
    containment = all(all(row[i] == 0 for row in matrix) for i in predicted)
    return CupRank(
        n=n,
        genus=genus,
        rank=rank,
        kernel=kernel,
        rank_bound_ok=rank <= n,
        predicted_kernel_indices=predicted,
        containment_ok=containment,
    )


# -- independent x-chart cross-check of the first vanishing ---------------------


class Mu2CrossCheck(Record):
    genus: int
    curve: str
    quadrics: tuple[str, ...]
    rho_values: tuple[Fraction, ...]
    x_chart_vanishes: tuple[bool, ...]
    frames_agree: tuple[bool, ...]
    compared_orders: int

    @property
    def ok(self) -> bool:
        return (
            not any(self.rho_values)
            and all(self.x_chart_vanishes)
            and all(self.frames_agree)
        )


def _product(a: list[int], b: list[int], width: int) -> list[int]:
    """The first `width` coefficients of a * b, both known that far."""
    return [sum(map(mul, a[: n + 1], b[n::-1])) for n in range(width)]


@lru_cache(maxsize=None)
def _cross_check_quadrics(genus: int) -> tuple[tuple[QuadricI2, tuple], ...]:
    """The curve-independent half of the cross-check, built once per genus:
    each basis quadric Q with mu_2(Q) as its nonzero integer coefficients
    (m, numerator) over the denominator of Q's tensor.

    `mu_coefficients` makes its membership and representative checks here.
    """
    out = []
    for (i, j) in sym_pairs(genus):
        q = basis_quadric(genus, i, j)
        poly, _ = mu_coefficients(q, 1)
        out.append((q, tuple((m, c) for m, c in enumerate(poly) if c)))
    return tuple(out)


def mu2_cross_check(
    curve: Curve, order: int = 14, pairings: tuple[Pairing, ...] | None = None
) -> Mu2CrossCheck:
    """rho(Q)(xi^1 (.) xi^1) = 0 against the x-chart value of mu_2(Q) at p.

    Route one is the licensed derivative-pairing formula, on `pairings` if
    given (the Q_ij on this curve in order, as the isotropy suite's Ker mu_0
    family; anything else raises `InvalidIndex`). Route two composes the
    x-chart representative sum c_m x^m of mu_2(Q) with x, times the frame
    x'^2 (x'/z)^2; it must vanish at p and agree with sum n_ab e_a'' e_b,
    e_a = x^a x'/z (c_m and n_ab over the denominator of Q's tensor).

    Every series is even in z and is made in the lift's variable
    s = E w / gh_0^2, w = z^2, from `Jets.lift` (E = `Jets._scale`,
    gh_0 = `Jets._g0`): x = gh_0 s Y, Y in Z[[s]], and R_a = Y^a (sY)'.
    For every e < cap = (order + 1) // 2 it checks

        sum_m 4 c_m gh_0^(m+2) [s^e] (s^(m+1) Y^m ((sY)')^4)
            = sum_ab n_ab gh_0^(a+b) [s^e] (A_a B_b),

    A_a[e] = (2e+2)(2e+1) R_a[e+1-a], B_b[e] = R_b[e-b] (0 at a negative
    index). This is the w^e coefficient of the x-chart identity times the
    nonzero constant (gh_0^2 / E)^e gh_0^4 / (4 E^3), so each verdict is the
    same; the odd z-coefficients, 0 by construction, are not compared. The
    x side reads Y and (sY)', the z side the rows; the columns x^m * frame
    and the products e_a'' e_b are made once per curve, all at width cap,
    except those whose valuation puts them at 0 there.
    `compared_orders` counts z-orders.
    """
    genus = curve.genus
    if order < 2:
        raise IndexOutOfRange(f"x'/z is not known at truncation order {order}")
    cap = (order + 1) // 2  # s^e is z^(2e), compared for 2e < order
    curve.jets.columns(order + 1)  # checks the odd jet columns this far
    g0, y, dy, rows = curve.jets.lift(cap + 1)
    # x = gh_0 s Y and x^m * frame, frame = 4 gh_0^2 s (sY)'^4, for every
    # exponent of a mu_2 polynomial (degree <= 2g-2)
    xs = [0] + [g0 * c for c in y[: cap - 1]]
    square = _product(dy, dy, cap - 1)
    columns = [[0] + [4 * g0 * g0 * c for c in _product(square, square, cap - 1)]]
    for m in range(1, 2 * genus - 1):  # x^m * frame has valuation m + 1
        columns.append(_product(columns[-1], xs, cap) if m < cap - 1 else [0] * cap)
    # e_a = (gh_0 s)^a R_a through s^cap (up to 2 gh_0 lambda), and e_a''
    evens = [[g0**a * c for c in ([0] * a + row)[: cap + 1]] for a, row in enumerate(rows)]
    second = [[(2 * e + 2) * (2 * e + 1) * even[e + 1] for e in range(cap)] for even in evens]
    products: dict[tuple[int, int], list[int]] = {}
    quads = _cross_check_quadrics(genus)
    if pairings is None:
        pairings = Pairing.family((q for q, _ in quads), curve)
    paired = [(pairing.quadric.tensor, pairing.jets) for pairing in pairings]
    if paired != [(q.tensor, curve.jets) for q, _ in quads]:
        raise InvalidIndex(f"the cross-check needs the Q_ij pairings on {curve.label()}")
    labels, rho_values, vanishes, agree = [], [], [], []
    for (q, poly), pairing in zip(quads, pairings):
        labels.append(q.label())
        with _licensed():
            rho_values.append(pairing.rho(1, 1).value)
        terms = []
        for a, b, coeff in q.tensor[0]:
            if a + b > cap:  # e_a'' e_b has valuation a + b - 1
                continue
            term = products.get((a, b))
            if term is None:
                term = products[(a, b)] = _product(second[a], evens[b], cap)
            terms.append((coeff, term))
        composite = [sum(c * columns[m][e] for m, c in poly) for e in range(cap)]
        vanishes.append(composite[0] == 0)
        agree.append(composite == [sum(c * term[e] for c, term in terms) for e in range(cap)])
    if order < 5:
        raise InvalidIndex("cross-check order too small to be meaningful")
    return Mu2CrossCheck(
        genus=genus,
        curve=curve.label(),
        quadrics=tuple(labels),
        rho_values=tuple(rho_values),
        x_chart_vanishes=tuple(vanishes),
        frames_agree=tuple(agree),
        compared_orders=order,
    )
