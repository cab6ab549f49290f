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
column to vanish and records each column's last nonzero row. One `Pairing`
per quadric and curve works over them and the quadric's integer tensor,
grouped by row once per quadric (`QuadricI2.layout`). An entry of D whose
two columns' last nonzero rows sum to less than the quadric's least weight
w = min(a + b) is 0 without arithmetic; that floor is read off the store,
not off the orders of the frame functions, so a perturbed jet still shows.
Every other entry is kept once, as an integer sum, for the threshold scans
and the rho evaluations, and a watermark keeps a scanned zero prefix from
being walked twice; a rho value is made afresh on every call. The isotropy
suite scans a whole level's family at once for its least threshold T,
which forces every pair with n + r <= T to 0, writes the zero prefix it
scanned into every pairing's watermark, and evaluates only the pairs above
T (none, when the statement holds). The reduction vector reads the
same store: the W(a, b) products are summed as integers over one common
denominator, its x-jets are read off the lift's Y (`Jets.lift`), and the
functionals check the vector against their rho values by
cross-multiplying. The closed and display forms read their entries off
the jet columns and make one `Fraction` per printed entry. The x-chart
cross-check reads the lift's series, and one scan of its basis family
through total 2, which makes each rho(xi^1 (.) xi^1) the forced zero (or,
at a nonzero entry, hands them all to `Pairing.rho`). `derivative_sum`,
`threshold_info` and `rho_pair` are one-call wrappers over a fresh `Pairing`.

The witness functional (xi^{2k+3} (.) xi^{2k+1} on Ker mu_2k) and the
diagonal functional (xi^{2k+3} (.) xi^{2k+3} on A_{k,0}) are built by one
routine. The hyperplane A_{k,0} is cut from the witness values alone; the
reduction vector, closed form, display form and b-support check (made
once per level) are read only by the witness report. One `Certifier` per
curve builds each level's certificate table once, with the witness's
cross terms, and reads every certificate from it, keeping each support's
verified cross terms (never a failing one). The only
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
from math import comb, factorial, gcd, lcm

from .curve import Curve, _convolve
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
from .linalg import Row, _blocks, dot, kernel_basis, rref
from .quadrics import GENERA_KEPT, QuadricI2, b_pairs, basis_quadric, sym_pairs, vector_to_json
from .rationals import as_rational, rat_to_string
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
    first_nonzero: tuple[int, int, Fraction] | None

    @property
    def at_cap(self) -> bool:
        return self.first_nonzero is None


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

    C is the quadric's integer tensor (`QuadricI2.tensor`, read by row from
    `QuadricI2.layout`) and column T_l holds the l-th jets as integers over
    den[l] (`Jets.columns`), so D(h, l) is the integer dot product
    S(h, l) = T_h . V_l with V_l = C T_l, over the product of the three
    denominators. S(h, l) is 0 without V_l or a dot product when the last
    nonzero rows of T_h and T_l (`Jets.last`) sum to less than the least
    weight w of C; every other V_l and S(h, l) is made once and kept (D is
    symmetric); a Fraction is made only for an entry handed out by
    `__call__`, and not kept.

    The threshold scan and the blocking scan of `rho` visit only even
    orders, totals upward and h from total/2 up, through `_scan`, the
    search for the first nonzero entry that the isotropy suite's family
    scan shares. A watermark records that every entry of total <= m
    vanishes, so no later scan walks that prefix again.
    """

    def __init__(self, q: QuadricI2, curve: Curve) -> None:
        self.quadric = q
        self.jets = curve.jets
        self._den = q.tensor[1]
        self._support, self._rows, self._least = q.layout
        self._num, self._dens = self.jets.columns(-1)  # the store, grown by `columns`
        self._last = self.jets.last
        self._vectors: dict[int, tuple[int, ...]] = {}
        self._sums: dict[tuple[int, int], int] = {}
        self._zero_through = -1
        self._first: tuple[int, int, Fraction] | None = None

    @classmethod
    def family(cls, quads, curve: Curve) -> tuple["Pairing", ...]:
        """One pairing per quadric, all reading the curve's one jet store."""
        return tuple(cls(q, curve) for q in quads)

    def _sum(self, h: int, l: int) -> int:
        """S(h, l) for h >= l >= 0 (0 at an odd order: odd columns vanish);
        below the least-weight floor, a 0 that is neither computed nor kept."""
        num = self._num if h < len(self._num) else self.jets.columns(h)[0]
        if self._last[h] + self._last[l] < self._least:
            return 0
        value = self._sums.get((h, l))
        if value is None:
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
        if l < 0:
            raise InvalidIndex("derivative orders must be non-negative")
        s = self._sum(h, l)
        return Fraction(s, self._den * self._dens[h] * self._dens[l]) if s else ZERO

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
            return ThresholdInfo(threshold=cap, first_nonzero=None)
        return ThresholdInfo(threshold=first[0] + first[1] - 1, first_nonzero=first)

    def rho(self, n, r) -> RhoValue:
        """rho(Q)(xi_p^n (.) xi_p^r) / (2*pi*i), licensed by the threshold.

        The evaluation formula needs every pairing of total order below
        n + r to vanish; if one does not, the formula is simply not
        available and `BeyondThreshold` is raised (never silently
        extrapolated). The sum is computed from both endpoints, each
        D(m1 - j, j) read once for both, and the two must agree. The total
        n + r is even, so only even j contribute. The value is not kept:
        each call evaluates afresh.
        """
        n = _odd_order(n)
        r = _odd_order(r)
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

        value = other = ZERO
        for j in range(0, max(n, r), 2):
            d = self(m1 - j, j)
            if d:
                d /= factorial(j) * factorial(m1 - j)
                value += max(n - j, 0) * d
                other += max(r - j, 0) * d
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
        return RhoValue(n=n, r=r, value=value, licensing_threshold=licensing)


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
    # the x-jet of order c = 2e is c! E^e Y_(e-1) / gh_0^(c-1), read off the
    # lift and reduced, all over the lcm of the reduced denominators
    g0, y, _, _ = curve.jets.lift(m1 // 2)
    jets = {}
    for c in range(2, m1 + 1, 2):
        x = factorial(c) * curve.jets._scale ** (c // 2) * y[c // 2 - 1]
        d = g0 ** (c - 1)
        common = gcd(x, d)
        jets[c] = x // common, d // common
    sigma_den = lcm(*(d for _, d in jets.values()))
    sigma = [0] * (m1 + 1)
    for c, (x, d) in jets.items():
        sigma[c] = x * (sigma_den // d)
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


class IsotropyResult(Record):
    genus: int
    k: int
    curve: str
    basis_size: int
    threshold: ThresholdInfo  # the least over the basis
    evaluations: int  # the licensed pairs checked, basis_size * (k+1)^2
    # (index, n, r, value) of each pair above the threshold, through `rho`
    pair_values: tuple[tuple[int, int, int, Fraction], ...]

    @property
    def ok(self) -> bool:
        """Every threshold reaches 4k+3 and every evaluated pair vanishes."""
        return self.threshold.threshold >= 4 * self.k + 3 and not any(
            value for *_, value in self.pair_values
        )


def _family_threshold(
    pairings: tuple[Pairing, ...], curve: Curve, k: int
) -> ThresholdInfo:
    """The least threshold of a family, under the cap 4k+8 raised once to
    2(4k+8): the even totals are walked upward across every pairing, and
    the first nonzero entry (in family order, then scan order) ends the
    scan: the pairing that holds it has the least threshold. Every total
    below that entry (or through the cap) vanishes on every pairing, and
    goes into each watermark, so no later scan walks it again."""
    cap = 2 * (4 * k + 8)
    found = _scan(pairings, curve.jets, 0, cap)
    zero_through = cap if found is None else found[1] + found[2] - 1
    for pairing in pairings:
        pairing._zero_through = max(pairing._zero_through, zero_through)
    if found is None:
        return ThresholdInfo(threshold=cap, first_nonzero=None)
    return found[0].threshold(cap)


def isotropy_suite(genus: int, k: int, curve: Curve) -> IsotropyResult:
    """All licensed rho pairs with odd total <= 4k+3 vanish on Ker mu_2k.

    A pair at or below the family threshold is its forced zero and is only
    counted; the pairs above it go through `Pairing.rho`, which may refuse
    them, and only their values are kept. When the statement holds, the
    threshold is at least 4k+3 and no pair is evaluated."""
    _require_level(genus, k)
    quads = kernel_via_equations(genus).level(k).quadrics
    pairings = Pairing.family(quads, curve)
    threshold = _family_threshold(pairings, curve, k)
    pairs = [(n, r) for n in range(1, 4 * k + 4, 2) for r in range(n, 4 * k + 4 - n, 2)]
    above = [(n, r) for n, r in pairs if n + r > threshold.threshold]
    with _licensed():
        values = tuple(
            (index, n, r, pairing.rho(n, r).value)
            for index, pairing in enumerate(pairings)
            for n, r in above
        )
    return IsotropyResult(
        genus=genus,
        k=k,
        curve=curve.label(),
        basis_size=len(quads),
        threshold=threshold,
        evaluations=len(pairings) * len(pairs),
        pair_values=values,
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

    sigma_2 = 2 E Y_0 / gh_0 is the second x-jet, and the W-product is row
    m1/2 - u of jet column m1 - 2u times row u - 1 of column 2u - 2. The one
    adjacent pair, j = i + 1, is the witness's u = k+1 and is halved once
    more.
    """
    num, den = curve.jets.columns(m1)
    g0, y, _, _ = curve.jets.lift(1)
    half_sigma2 = curve.jets._scale * y[0]
    out = []
    for (i, j) in support:
        u = genus - j
        a, b = m1 - 2 * u, 2 * u - 2
        denom = g0 * den[a] * den[b] * factorial(a) * factorial(b)
        if j == i + 1:
            denom *= 2
        out.append(Fraction(half_sigma2 * num[a][m1 // 2 - u] * num[b][u - 1], denom))
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
    pairs = b_pairs(genus)

    def reduces(q: QuadricI2, value: Fraction) -> bool:
        """The vector gives `value` on q in full and trimmed to the support,
        compared as numerators over den * E, E the denominator of q's row:
        b(i, j) = -a(g-j, g-i), so each a-entry meets the b-pair of its
        column."""
        entries, scale = q.row
        full = -sum(vec[pairs[c]] * x for c, x in entries)
        trimmed = -sum(vec[pairs[c]] * x for c, x in entries if pairs[c] in support)
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
    curve: Curve, k: int
) -> tuple[tuple[Fraction, ...], tuple[int, ...]]:
    """The textbook coefficient shape with the odd cubic integer factors,
    read off the jet columns."""
    num, den = curve.jets.columns(4 * k + 4)

    def omega(i: int, h: int) -> tuple[int, int]:
        """Jet h of the omega-frame function x^i x'/z^3: row i of column
        h + 2 over (h + 2)(h + 1)."""
        return num[h + 2][i], den[h + 2] * (h + 2) * (h + 1)

    out = []
    factors = []
    for u in range(1, k + 1):
        factor = -8 * u**3 + 8 * u**2 * (k + 1) - 4 * k * u - (2 * k + 3)
        factors.append(factor)
        (a, da), (b, db) = omega(2 * k + 3 - u, 4 * k + 4 - 2 * u), omega(u, 2 * u - 2)
        out.append(Fraction(factor * a * b, 2 * da * db * factorial(4 * k + 4 - 2 * u)))
    (a, da), (b, db) = omega(k + 2, 2 * k + 2), omega(k + 1, 2 * k)
    out.append(Fraction(-a * b, 2 * da * db * factorial(2 * k + 2)))
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
    display, factors = _witness_display_form(curve, k)
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
    vectors: tuple[Row, ...]
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
            "basis": [vector_to_json(self.genus, row) for row in self.vectors],
        }


def _restrict_to_functional_kernel(
    domain: tuple[Row, ...],
    values: tuple[Fraction, ...],
    ncols: int,
) -> tuple[Row, ...]:
    """Canonical basis of {sum c_i B_i : sum c_i values_i = 0}.

    Each B_i is taken as the integer row d_i B_i of its entries, of value
    v_i = d_i values_i. With p the first i where v_i != 0, the integer rows
    num(v_p) den(v_j) d_j B_j - num(v_j) den(v_p) d_p B_p (j != p) span the
    cut, and `rref` gives its unique reduced basis; if every value is zero
    the cut is the span of the domain itself.
    """
    scaled = [den * value for (_, den), value in zip(domain, values)]
    rows = [dict(entries) for entries, _ in domain]
    p = next((i for i, v in enumerate(scaled) if v), None)
    if p is not None:
        pivot, v_p = rows[p], scaled[p]
        cut = []
        for j, (v_j, row) in enumerate(zip(scaled, rows)):
            if j != p:
                u_p = v_p.numerator * v_j.denominator
                combined = {c: u_p * x for c, x in row.items()}
                if u_j := v_j.numerator * v_p.denominator:
                    for c, x in pivot.items():
                        combined[c] = combined.get(c, 0) - u_j * x
                cut.append(combined)
        rows = cut
    reduced, _ = rref(_blocks([rows], ncols))
    return reduced


def witness_hyperplane(genus: int, k: int, curve: Curve) -> HyperplaneResult:
    """A_{k,0}: the kernel of the witness functional inside Ker mu_2k.

    The cut is the single row of witness values; that every support
    coordinate then vanishes on the result (the textbook description of
    A_{k,0} by the equations a_{u,2k+3-u} = 0) is asserted as a
    consequence, not imposed, and read off the rows.
    """
    level, values = _witness_values(genus, k, curve)
    vectors = _restrict_to_functional_kernel(
        level.basis, values, len(sym_pairs(genus))
    )
    support = _support(genus, k, 2 * genus - 2 * k - 3)
    pairs = b_pairs(genus)
    support_vanish = not any(pairs[c] in support for entries, _ in vectors for c, _ in entries)
    return HyperplaneResult(
        genus=genus,
        k=k,
        curve=curve.label(),
        basis=tuple(QuadricI2(genus, row) for row in vectors),
        vectors=vectors,
        dimension=len(vectors),
        codimension_ok=len(vectors) == level.dimension - 1,
        support_coordinates_vanish=support_vanish,
    )


class DiagonalResult(Record):
    functional: Functional
    hyperplane: HyperplaneResult
    a00_vectors: tuple[Row, ...]
    a00_dimension: int
    codimension: int

    def to_json(self) -> dict:
        genus = self.functional.genus
        return {
            "functional": self.functional.to_json(),
            "hyperplane": self.hyperplane.to_json(),
            "a00_dimension": self.a00_dimension,
            "codimension": self.codimension,
            "a00_basis": [vector_to_json(genus, row) for row in self.a00_vectors],
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
    The cross terms a direction reads depend only on its support (the
    indices of its nonzero coefficients), so each support's verified tuple
    is kept, keyed by that support; the pure xi^1 directions keep their
    basis count. Only a check that passed is kept: a support or a pure
    xi^1 check that fails is never stored, and raises again on every call.
    """

    def __init__(self, curve: Curve) -> None:
        self.curve = curve
        self._tables: dict[int, tuple | Falsified] = {}
        self._cross: dict[tuple[int, ...], tuple[tuple[int, int, Fraction], ...]] = {}
        self._basis_count: int | None = None

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
        lambda_top^2 times it. A coefficient is a `Fraction`, an `int` or
        a ``"p/q"`` string (`as_rational`); a float or a bool is refused.
        """
        curve = self.curve
        genus = curve.genus
        expected = direction_length(genus)
        direction = tuple(
            c if isinstance(c, Fraction) else as_rational(c) for c in lambdas
        )
        if len(direction) != expected:
            raise InvalidIndex(
                f"direction for genus {genus} needs {expected} odd coefficients"
            )
        present = tuple(idx for idx, c in enumerate(direction) if c)
        if not present:
            raise InvalidIndex("the zero direction has no classification")
        top = present[-1]
        if top == 0:
            if self._basis_count is None:
                family = Pairing.family(
                    (basis_quadric(genus, i, j) for (i, j) in sym_pairs(genus)), curve
                )
                with _licensed():
                    checks = [pairing.rho(1, 1).value for pairing in family]
                if any(checks):
                    raise IdentityFailed(
                        "rho(Q)(xi^1 (.) xi^1) must vanish at a Weierstrass point"
                    )
                self._basis_count = len(checks)
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
                basis_zero_count=self._basis_count,
            )

        witness, pair_value, table = self.table(top - 1)
        cross = self._cross.get(present)
        if cross is None:
            cross = []
            for pos, i in enumerate(present[:-1]):  # (top, top) is the witness value
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
            cross = self._cross[present] = tuple(cross)
        return AsymptoticCertificate(
            genus=genus,
            curve=curve.label(),
            direction=direction,
            verdict="not_asymptotic",
            top_order=2 * top + 1,
            witness=witness,
            witness_pair_value=pair_value,
            total_value=direction[top] ** 2 * pair_value,
            cross_terms=cross,
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
    kernel: tuple[Row, ...]
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
    # P is symmetric: each P_ij, i <= j, is made once and mirrored
    upper = [[_convolve(a, b, n - 1) for b in rows[i:]] for i, a in enumerate(rows)]
    matrix = [[upper[min(i, j)][abs(i - j)] for j in range(genus)] for i in range(genus)]
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


def _product(a: list[int], b: list[int], width: int, va: int = 0, vb: int = 0) -> list[int]:
    """a * b through s^(width-1), both known that far, a 0 below s^va, b below s^vb."""
    a, b = a[va:], b[vb:]
    return [0] * (va + vb) + [_convolve(a, b, n) for n in range(width - va - vb)]


def _combination(terms, width: int) -> list[int]:
    """sum c * series over the (c, series) terms, as one list of `width`."""
    out = [0] * width
    for c, series in terms:
        out = [x + c * y for x, y in zip(out, series)]
    return out


@lru_cache(maxsize=GENERA_KEPT)
def _cross_check_quadrics(genus: int) -> tuple[tuple, tuple, tuple]:
    """The curve-independent half of the cross-check, built once per genus:
    the basis quadrics Q, their labels, and each mu_2(Q) as its nonzero
    integer coefficients (m, numerator) over the denominator of Q's tensor,
    where `mu_coefficients` makes its membership and representative checks."""
    quads = tuple(basis_quadric(genus, i, j) for (i, j) in sym_pairs(genus))
    polys = tuple(tuple((m, c) for m, c in enumerate(mu_coefficients(q, 1)[0]) if c) for q in quads)
    return quads, tuple(q.label() for q in quads), polys


def _first_vanishing(quads, curve: Curve) -> tuple[Fraction, ...]:
    """Each rho(Q)(xi^1 (.) xi^1) = D(2, 0)/2, licensed by D(0, 0) = 0:
    the forced zero if one family scan finds no nonzero entry of total <= 2,
    otherwise each pairing's `rho`, in family order, as on a fresh pairing."""
    family = Pairing.family(quads, curve)
    if _scan(family, curve.jets, 0, 2) is None:
        return (ZERO,) * len(family)
    with _licensed():
        return tuple(pairing.rho(1, 1).value for pairing in family)


def mu2_cross_check(curve: Curve, order: int = 14) -> Mu2CrossCheck:
    """rho(Q)(xi^1 (.) xi^1) = 0 against the x-chart value of mu_2(Q) at p.

    Route one is the licensed derivative-pairing formula on the basis
    quadrics Q_ij, read off one family scan (`_first_vanishing`). Route two
    composes the x-chart representative sum c_m x^m of mu_2(Q) with x, times
    the frame x'^2 (x'/z)^2; it must vanish at p and agree with the sum
    n_ab e_a'' e_b, e_a = x^a x'/z (c_m, n_ab over Q's tensor denominator).

    Every series is even in z and is made in the lift's variable
    s = E w / gh_0^2, w = z^2, from `Jets.lift` (E = `Jets._scale`,
    gh_0 = `Jets._g0`): x = gh_0 s Y, Y in Z[[s]], and R_a = Y^a (sY)',
    whose s^n coefficient the lift reads off the jet recurrence as
    R^(n+a+1)_n, the coefficient of t^n in F(t)^(-(n+a+1)) (see `curve`).
    For every e < cap = (order + 1) // 2 it checks

        sum_m 4 c_m gh_0^(m+2) [s^e] (s^(m+1) Y^m ((sY)')^4)
            = sum_ab n_ab gh_0^(a+b) [s^e] (A_a B_b),

    A_a[e] = (2e+2)(2e+1) R_a[e+1-a], B_b[e] = R_b[e-b] (0 at a negative
    index). This is the w^e coefficient of the x-chart identity times the
    nonzero constant (gh_0^2 / E)^e gh_0^4 / (4 E^3), so each verdict is the
    same; the odd z-coefficients, 0 by construction, are not compared. The
    x side reads Y and (sY)', the z side the rows; the columns x^m * frame
    and the products e_a'' e_b are made once per curve from their valuation,
    all at width cap, except those whose valuation puts them at 0 there.
    `compared_orders` counts z-orders.
    """
    genus = curve.genus
    if order < 2:
        raise IndexOutOfRange(f"x'/z is not known at truncation order {order}")
    if order < 5:
        raise InvalidIndex("cross-check order too small to be meaningful")
    cap = (order + 1) // 2  # s^e is z^(2e), compared for 2e < order
    curve.jets.columns(order + 1)  # checks the odd jet columns this far
    quads, labels, polys = _cross_check_quadrics(genus)
    rho_values = _first_vanishing(quads, curve)
    g0, y, dy, rows = curve.jets.lift(cap + 1)
    # x = gh_0 s Y and x^m * frame, frame = 4 gh_0^2 s (sY)'^4, for every
    # exponent of a mu_2 polynomial (degree <= 2g-2)
    xs = [0] + [g0 * c for c in y[: cap - 1]]
    square = _product(dy, dy, cap - 1)
    columns = [[0] + [4 * g0 * g0 * c for c in _product(square, square, cap - 1)]]
    for m in range(1, 2 * genus - 1):  # x^m * frame has valuation m + 1
        columns.append(_product(columns[-1], xs, cap, m, 1) if m < cap - 1 else [0] * cap)
    # e_a = (gh_0 s)^a R_a through s^cap (up to 2 gh_0 lambda), and e_a''
    evens = [[scale * c for c in ([0] * a + row)[: cap + 1]]
             for a, row in enumerate(rows) for scale in [g0**a]]
    second = [[(2 * e + 2) * (2 * e + 1) * even[e + 1] for e in range(cap)] for even in evens]
    products: dict[tuple[int, int], list[int]] = {}
    vanishes, agree = [], []
    for q, poly in zip(quads, polys):
        terms = []
        for a, b, coeff in q.tensor[0]:
            if a + b <= cap:  # e_a'' e_b has valuation a + b - 1
                if (a, b) not in products:
                    products[(a, b)] = _product(second[a], evens[b], cap, max(a - 1, 0), b)
                terms.append((coeff, products[(a, b)]))
        composite = _combination(((c, columns[m]) for m, c in poly), cap)
        vanishes.append(composite[0] == 0)
        agree.append(composite == _combination(terms, cap))
    return Mu2CrossCheck(
        genus=genus,
        curve=curve.label(),
        quadrics=labels,
        rho_values=rho_values,
        x_chart_vanishes=tuple(vanishes),
        frames_agree=tuple(agree),
        compared_orders=order,
    )
