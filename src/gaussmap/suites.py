"""Theorem verification suites behind the `verify` and `scan` commands.

Each suite recomputes the claims of one statement from scratch at the
requested desk scale and emits one deterministic `VerificationReport`.
Failures are reported as failing items, never masked. A `Falsified`
signal raised by the factorization, isotropy, cross-check, witness,
diagonal or certificate computations becomes the failing item of the
statement it refutes, and so does a failed membership (`NotInKernel`,
`NotInPreviousKernel`): every quadric a suite checks is one it computed
as a kernel member.
"""

from __future__ import annotations

import random
import time

from .curve import Curve, default_curve, random_curve
from .errors import Falsified, NotInKernel, NotInPreviousKernel
from .gaussian import (
    b_support_check,
    factorization_check,
    kernel_dimension_formula,
    kernel_via_equations,
    kernel_via_polynomial_oracle,
    max_level,
)
from .rationals import rat_to_string, random_direction
from .reports import CheckItem, RunConfig, VerificationReport, check
from .rho import (
    Certifier,
    cup_rank,
    diagonal_functional,
    direction_length,
    isotropy_suite,
    mu2_cross_check,
    witness_functional,
)

THEOREM_IDS = ("T3.1", "L3.4", "L6.2", "T6.5", "T6.6", "T6.9", "T6.12", "R4.1")

DEFAULT_RANDOM_CURVES = 3
DEFAULT_DIRECTION_SAMPLES = 100


def _mix_seed(seed: int, genus: int) -> int:
    return seed * 1000003 + genus


def curve_panel(
    genus: int,
    seed: int,
    samples: int,
    explicit: Curve | None = None,
) -> tuple[Curve, ...]:
    """The default curve plus seeded random companions (or one given curve)."""
    if explicit is not None:
        return (explicit,)
    rng = random.Random(_mix_seed(seed, genus))
    return (default_curve(genus),) + tuple(
        random_curve(genus, rng) for _ in range(samples)
    )


_REFUTED = (Falsified, NotInKernel, NotInPreviousKernel)


def _attempt(items: list[CheckItem], label: str, expected: str, compute):
    """compute(), or None once the refutation it raised is a failing item."""
    try:
        return compute()
    except _REFUTED as exc:
        items.append(check(label, expected, str(exc), False))
        return None


def _schiffer_levels(genus: int, k: int | None) -> tuple[int, ...]:
    if k is not None:
        return (k,)
    return tuple(range(0, (genus - 3) // 2 + 1))


# -- individual suites -----------------------------------------------------------


def _suite_rank_law(genus: int, k: int | None) -> list[CheckItem]:
    items = []
    chain = kernel_via_equations(genus)
    levels = chain.levels if k is None else (chain.level(k),)
    for lv in levels:
        expected_rank = 2 * genus - (4 * lv.k + 1)
        expected_dim = kernel_dimension_formula(genus, lv.k)
        items.append(
            check(
                f"g={genus} k={lv.k} rank(mu_{2 * lv.k})",
                str(expected_rank),
                str(lv.rank),
                lv.rank == expected_rank,
            )
        )
        items.append(
            check(
                f"g={genus} k={lv.k} dim Ker mu_{2 * lv.k}",
                str(expected_dim),
                str(lv.dimension),
                lv.dimension == expected_dim,
            )
        )
    if k is None:
        dims = [lv.dimension for lv in chain.levels]
        items.append(
            check(
                f"g={genus} strict kernel nesting",
                "strictly decreasing to 0",
                "->".join(str(d) for d in dims),
                all(a > b for a, b in zip(dims, dims[1:]))
                and dims[-1] == 0,
            )
        )
        terminal = chain.levels[-2].dimension if len(chain.levels) >= 2 else None
        expected_terminal = 1 if genus % 2 == 1 else 3
        items.append(
            check(
                f"g={genus} next-to-last kernel dimension",
                str(expected_terminal),
                str(terminal),
                terminal == expected_terminal,
            )
        )
        agree = all(
            lv.basis == kernel_via_polynomial_oracle(genus, lv.k)
            for lv in chain.levels
        )
        items.append(
            check(
                f"g={genus} equation kernels match the polynomial oracle",
                "identical canonical bases",
                "identical" if agree else "MISMATCH",
                agree,
            )
        )
    return items


def _suite_factorization(
    genus: int, k: int | None, curves: tuple[Curve, ...]
) -> list[CheckItem]:
    # The x-chart identity uses only monomial exponents, so its outcome is
    # the same on every curve of the genus; the label records that it was
    # asked for on each test curve anyway.
    items = []
    chain = kernel_via_equations(genus)
    for level_k in _schiffer_levels(genus, k):
        quads = chain.level(level_k).quadrics
        try:
            results = [factorization_check(q, level_k) for q in quads]
        except _REFUTED as exc:
            ok, got = False, str(exc)
        else:
            constants = {fc.constant for fc in results if fc.constant is not None}
            ok = all(fc.ok for fc in results) and len(constants) <= 1
            constant = next(iter(constants)) if len(constants) == 1 else None
            got = (
                f"{len(results)} basis elements, frame constant "
                f"{rat_to_string(constant) if constant is not None else 'n/a'}"
            )
        for curve in curves:
            items.append(
                check(
                    f"g={genus} k={level_k} factorization on {curve.label()}",
                    "identity with one frame constant",
                    got,
                    ok,
                )
            )
    return items


def _suite_b_support(genus: int, k: int | None) -> list[CheckItem]:
    items = []
    chain = kernel_via_equations(genus)
    for level_k in range(max_level(genus) + 1) if k is None else (k,):
        quads = chain.level(level_k).quadrics
        label = f"g={genus} k={level_k} b-coordinates above sum {2 * genus - 2 * level_k - 3} vanish"
        checks_ = _attempt(items, label, "no offenders", lambda: [b_support_check(q, level_k) for q in quads])
        if checks_ is not None:
            offenders = sum(len(c.offenders) for c in checks_)
            got = f"{len(checks_)} basis elements, {offenders} offenders"
            items.append(check(label, "no offenders", got, offenders == 0))
    return items


def _suite_isotropy(
    genus: int, k: int | None, curves: tuple[Curve, ...]
) -> list[CheckItem]:
    items = []
    for level_k in _schiffer_levels(genus, k):
        for curve in curves:
            vanish = (
                f"g={genus} k={level_k} licensed odd pairs vanish on "
                f"{curve.label()}"
            )
            result = _attempt(
                items, vanish, "zero", lambda: isotropy_suite(genus, level_k, curve)
            )
            if result is None:
                continue
            min_threshold = result.threshold.threshold
            items.append(
                check(
                    f"g={genus} k={level_k} thresholds on {curve.label()}",
                    f">= {4 * level_k + 3}",
                    f"min {min_threshold} over {result.basis_size} basis "
                    "elements",
                    min_threshold >= 4 * level_k + 3,
                )
            )
            nonzero = sum(1 for *_, v in result.pair_values if v)
            items.append(
                check(
                    vanish,
                    "zero",
                    f"{result.evaluations} evaluations, {nonzero} nonzero",
                    nonzero == 0 and result.ok,
                )
            )
    if k is None or k == 0:
        for curve in curves:
            label = (
                f"g={genus} x-chart cross-check of the first vanishing "
                f"on {curve.label()}"
            )
            expected = "both routes vanish and frames agree"
            cc = _attempt(items, label, expected, lambda: mu2_cross_check(curve))
            if cc is None:
                continue
            items.append(
                check(
                    label,
                    expected,
                    f"{len(cc.quadrics)} quadrics, {cc.compared_orders} "
                    "orders compared",
                    cc.ok,
                )
            )
    return items


def _suite_witness(
    genus: int, k: int | None, curves: tuple[Curve, ...]
) -> list[CheckItem]:
    items = []
    for level_k in _schiffer_levels(genus, k):
        for curve in curves:
            label = f"g={genus} k={level_k} on {curve.label()}"
            f = _attempt(
                items,
                f"{label}: witness functional evaluated",
                "licensed pairs, exact identities",
                lambda: witness_functional(genus, level_k, curve),
            )
            if f is None:
                continue
            items.append(
                check(
                    f"{label}: witness functional nonzero",
                    "nonzero",
                    "nonzero" if f.nonzero_on_domain else "zero",
                    f.nonzero_on_domain,
                )
            )
            items.extend(
                _functional_items(
                    f,
                    f"{label}: support in the predicted pairs",
                    f"{label}: all {level_k + 1} support coefficients nonzero",
                    f"{label}: coefficients equal the one-line jet formula",
                )
            )
            factors_odd = all(x % 2 == 1 for x in (f.display_factors or ()))
            items.append(
                check(
                    f"{label}: odd cubic display factors",
                    "all odd integers",
                    str(list(f.display_factors or ())),
                    factors_odd,
                )
            )
            items.append(
                check(
                    f"{label}: display form matches as a functional",
                    "single proportionality constant on the domain",
                    (
                        rat_to_string(f.display_domain_constant)
                        if f.display_domain_constant is not None
                        else "none"
                    ),
                    bool(f.display_proportional_on_domain),
                )
            )
    return items


def _functional_items(
    f, support: str, nonzero: str, closed_form: str
) -> list[CheckItem]:
    """The support, nonzero and closed-form items of a witness or diagonal."""
    contained = f.support_ok and f.reduction_ok
    return [
        check(
            support,
            str([f"{i},{j}" for (i, j) in f.support]),
            "contained" if contained else "NOT",
            contained,
        ),
        check(
            nonzero,
            "nonzero",
            "all nonzero" if f.coefficients_nonzero else "some zero",
            f.coefficients_nonzero,
        ),
        check(
            closed_form,
            "exact equality",
            "equal" if f.closed_form_ok else "UNEQUAL",
            f.closed_form_ok,
        ),
    ]


def _suite_diagonal(
    genus: int, k: int | None, curves: tuple[Curve, ...]
) -> list[CheckItem]:
    items = []
    for level_k in _schiffer_levels(genus, k):
        for curve in curves:
            label = f"g={genus} k={level_k} on {curve.label()}"
            result = _attempt(
                items,
                f"{label}: diagonal evaluation licensed",
                "thresholds extend by two orders",
                lambda: diagonal_functional(genus, level_k, curve),
            )
            if result is None:
                continue
            hyper = result.hyperplane
            f = result.functional
            kernel_dim = kernel_dimension_formula(genus, level_k)
            items.append(
                check(
                    f"{label}: dim A_{{{level_k},0}}",
                    str(kernel_dim - 1),
                    str(hyper.dimension),
                    hyper.codimension_ok,
                )
            )
            items.append(
                check(
                    f"{label}: support coordinates vanish on A_{{{level_k},0}}",
                    "all zero",
                    "zero" if hyper.support_coordinates_vanish else "NONZERO",
                    hyper.support_coordinates_vanish,
                )
            )
            items.extend(
                _functional_items(
                    f,
                    f"{label}: diagonal support in the predicted pairs",
                    f"{label}: present diagonal coefficients nonzero",
                    f"{label}: diagonal coefficients equal the jet formula",
                )
            )
            codim_ok = result.codimension in (0, 1)
            if kernel_dim >= 3:
                codim_ok = result.codimension == 1
                expected = "1 (kernel dimension >= 3)"
            else:
                expected = "0 or 1"
            items.append(
                check(
                    f"{label}: codimension of A_{{{level_k},0,0}}",
                    expected,
                    str(result.codimension),
                    codim_ok,
                )
            )
    return items


def _direction_label(direction) -> str:
    return "(" + ",".join(rat_to_string(c) for c in direction) + ")"


def _certify(
    certifier: Certifier,
    direction,
    expected_verdict: str,
    items: list[CheckItem],
) -> None:
    curve = certifier.curve
    genus = curve.genus
    label = (
        f"g={genus} direction {_direction_label(direction)} on {curve.label()}"
    )
    cert = _attempt(
        items, label, expected_verdict, lambda: certifier.classify(direction)
    )
    if cert is None:
        return
    if cert.verdict == "not_asymptotic":
        got = (
            f"not_asymptotic via {cert.witness.label()}, value "
            f"{rat_to_string(cert.total_value)}"
        )
    else:
        got = f"asymptotic ({cert.basis_zero_count} basis quadrics vanish)"
    items.append(check(label, expected_verdict, got, cert.verdict == expected_verdict))


def _suite_certificates(
    genus: int,
    curves: tuple[Curve, ...],
    samples: int,
    seed: int,
    include_bound: bool = False,
) -> list[CheckItem]:
    items: list[CheckItem] = []
    length = direction_length(genus)
    corner: list[tuple[tuple, str]] = []
    for i in range(length):
        single = tuple(1 if j == i else 0 for j in range(length))
        corner.append(
            (single, "asymptotic" if i == 0 else "not_asymptotic")
        )
    for i in range(length - 1):
        double = tuple(1 if j in (i, i + 1) else 0 for j in range(length))
        corner.append((double, "not_asymptotic"))
    # one per curve and suite call: each level's table is built once
    certifiers = [Certifier(curve) for curve in curves]
    for certifier in certifiers:
        for direction, expected in corner:
            _certify(certifier, direction, expected, items)
    if length < 2:
        # xi^1 spans the direction space, so no direction has top order 3
        # or more, and rejection sampling for one would never end
        items.append(
            check(
                f"g={genus} sampled directions of top order >= 3",
                "none exist: xi^1 spans the direction space",
                "0 sampled",
                True,
            )
        )
        samples = 0
    rng = random.Random(_mix_seed(seed, genus))
    produced = 0
    while produced < samples:
        direction = random_direction(rng, length)
        if max(i for i, c in enumerate(direction) if c) == 0:
            continue
        _certify(certifiers[0], direction, "not_asymptotic", items)
        produced += 1
    if include_bound:
        items.append(
            check(
                f"g={genus} arithmetic bound on totally geodesic dimension "
                "(printed, not searched)",
                "(3g+1)/2 rounded down",
                str((3 * genus + 1) // 2),
                True,
            )
        )
    return items


def _suite_cup(genus: int, curves: tuple[Curve, ...]) -> list[CheckItem]:
    items = []
    for curve in curves:
        for n in range(1, genus + 1):
            result = cup_rank(curve, n)
            items.append(
                check(
                    f"g={genus} n={n} cup rank bound on {curve.label()}",
                    f"rank <= {n} and kernel contains alpha_i with 2i >= {n}",
                    f"rank {result.rank}, kernel dim {len(result.kernel)}",
                    result.rank_bound_ok and result.containment_ok,
                )
            )
    return items


# -- dispatch ---------------------------------------------------------------------


def _report(
    theorem: str,
    k,
    config: RunConfig,
    explicit_curve: Curve | None,
    items: list[CheckItem],
    start: float,
) -> VerificationReport:
    """The report of items computed since `start` (a `perf_counter` time)."""
    return VerificationReport(
        theorem=theorem,
        genus=config.genus_label(),
        k=k,
        curve=(
            explicit_curve.to_json()
            if explicit_curve is not None
            else {"source": config.curve_source}
        ),
        checks=tuple(items),
        seed=config.seed,
        config=config.to_json(),
        timing_seconds=time.perf_counter() - start,
    )


def verify_theorem(
    theorem: str,
    config: RunConfig,
    explicit_curve: Curve | None = None,
) -> VerificationReport:
    """Run one theorem suite across the configured genus range."""
    if theorem not in THEOREM_IDS:
        raise KeyError(theorem)
    seed = config.seed if config.seed is not None else 0
    samples = config.samples
    start = time.perf_counter()
    items: list[CheckItem] = []
    for genus in range(config.genus_min, config.genus_max + 1):
        if theorem == "T3.1":
            items.extend(_suite_rank_law(genus, config.k))
            continue
        if theorem == "L6.2":
            items.extend(_suite_b_support(genus, config.k))
            continue
        if theorem == "T6.12":
            curves = curve_panel(genus, seed, 0, explicit_curve)
            items.extend(
                _suite_certificates(
                    genus,
                    curves,
                    samples if samples is not None
                    else DEFAULT_DIRECTION_SAMPLES,
                    seed,
                )
            )
            continue
        curve_count = samples if samples is not None else DEFAULT_RANDOM_CURVES
        curves = curve_panel(genus, seed, curve_count, explicit_curve)
        if theorem == "L3.4":
            items.extend(_suite_factorization(genus, config.k, curves))
        elif theorem == "T6.5":
            items.extend(_suite_isotropy(genus, config.k, curves))
        elif theorem == "T6.6":
            items.extend(_suite_witness(genus, config.k, curves))
        elif theorem == "T6.9":
            items.extend(_suite_diagonal(genus, config.k, curves))
        elif theorem == "R4.1":
            items.extend(_suite_cup(genus, curves))
    k = config.k if config.k is not None else "all"
    return _report(theorem, k, config, explicit_curve, items, start)


def scan_report(
    config: RunConfig, explicit_curve: Curve | None = None
) -> VerificationReport:
    """Asymptotic-direction scan: corner cases plus seeded random samples."""
    seed = config.seed if config.seed is not None else 0
    samples = (
        config.samples
        if config.samples is not None
        else DEFAULT_DIRECTION_SAMPLES
    )
    start = time.perf_counter()
    items: list[CheckItem] = []
    for genus in range(config.genus_min, config.genus_max + 1):
        length = direction_length(genus)
        items.append(
            check(
                f"g={genus} scanned direction space",
                "invariant Schiffer variations of odd order",
                ", ".join(f"xi^{2 * i + 1}" for i in range(length)),
                True,
            )
        )
        curves = curve_panel(genus, seed, 0, explicit_curve)
        items.extend(
            _suite_certificates(
                genus, curves, samples, seed, include_bound=True
            )
        )
    return _report("T6.12", "all", config, explicit_curve, items, start)
