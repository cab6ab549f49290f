"""Exact second-fundamental-form data on higher Schiffer variations.

Values are stored as the rational multiplier of 2*pi*i.  Evaluation is
licensed by the vanishing threshold of the quadric: all derivative
pairings of lower total order must vanish, otherwise the closed-form
value would depend on the chosen coordinate and BeyondThreshold is
raised instead.
"""

import gc
import inspect
import json
import random
from fractions import Fraction
from functools import reduce
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gaussmap
import gaussmap.rho as rho
import gaussmap.suites as suites
from gaussmap.cli import main
from gaussmap.curve import Jets, canonical_derivatives, default_curve, new_curve, random_curve
from gaussmap.errors import BeyondThreshold, GaussmapError, IdentityFailed, InvalidIndex
from gaussmap.gaussian import (
    KernelLevel,
    b_support_check,
    kernel_dimension_formula,
    kernel_via_equations,
    mu_coefficients,
)
from gaussmap.linalg import row_of
from gaussmap.quadrics import GENERA_KEPT, basis_quadric, quadric_from_vector, sym_pairs
from gaussmap.record import replace
from gaussmap.rho import (
    Certifier,
    Mu2CrossCheck,
    Pairing,
    RhoValue,
    SchifferIndex,
    asymptotic_classify,
    cup_rank,
    derivative_sum,
    diagonal_functional,
    direction_length,
    isotropy_suite,
    mu2_cross_check,
    rho_pair,
    rho_reduction_vector,
    threshold_info,
    witness_functional,
    witness_hyperplane,
)
from gaussmap.rho import (
    _family_threshold,
    _licensed,
    _restrict_to_functional_kernel,
    _witness_values,
)
from gaussmap.rationals import random_direction
from gaussmap.reports import RunConfig
from gaussmap.suites import curve_panel, verify_theorem
from conftest import module_caches
from series_oracle import TruncatedSeries, expand_canonical, poly, x_derivatives, x_of_z
from test_golden import cli_stdout
from test_linalg import naive_kernel, naive_rref, views

F = Fraction

small_rats = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def genus5_kernel_generator():
    return kernel_via_equations(5).level(1).quadrics[0]


# -- Schiffer indices ---------------------------------------------------------------


def test_schiffer_indices_must_be_odd_and_positive():
    assert SchifferIndex(3).n == 3
    for bad in (0, -1, 2, 4):
        with pytest.raises(InvalidIndex):
            SchifferIndex(bad)


# -- derivative pairings -------------------------------------------------------------


def test_pairing_is_symmetric_and_even_supported():
    c = default_curve(4)
    q = basis_quadric(4, 1, 3)
    for h in range(7):
        for l in range(7):
            value = derivative_sum(q, c, h, l)
            assert value == derivative_sum(q, c, l, h)
            if h % 2 or l % 2:
                assert value == 0


@settings(max_examples=10, deadline=None)
@given(
    st.lists(small_rats, min_size=6, max_size=6),
    st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=12
    ),
)
def test_pairing_matrix_equals_the_plain_double_sum(coords, requests):
    # entries asked for in any order, repeated, and with the jet table
    # growing between them, equal sum_ab c_ab g_a^(h)(0) g_b^(l)(0)
    c = random_curve(5, random.Random(11))
    q = quadric_from_vector(5, [F(x) for x in coords])
    tensor = q.sym_tensor()
    table = canonical_derivatives(c, 12)
    pairing = Pairing(q, c)
    for h, l in requests + requests[::-1]:
        expected = sum(
            (
                tensor[a][b] * table[a][h] * table[b][l]
                for a in range(5)
                for b in range(5)
            ),
            F(0),
        )
        assert pairing(h, l) == expected == derivative_sum(q, c, l, h)


def _non_integer_curve(genus, rng, positive):
    """Branch points 0 and 2g+1 distinct non-integer rationals, drawn until
    the sign of G(0) = prod(-t_i), and so of gh_0, is the one asked for."""
    while True:
        points = {F(0)}
        while len(points) < 2 * genus + 2:
            value = F(rng.randint(-40, 40), rng.randint(2, 9))
            if value.denominator > 1:
                points.add(value)
        curve = new_curve(sorted(points, key=lambda t: (t != 0, t)))
        if (curve.g_at_zero() > 0) == positive:
            return curve


def test_a_pairing_family_equals_the_plain_double_sum_to_order_24():
    # several quadrics share the curve's one jet store; every entry through
    # order 24, asked for in a scrambled order, equals
    # sum_ab c_ab g_a^(h)(0) g_b^(l)(0) over the Fraction tensor and table
    rng = random.Random(5)
    for genus, positive in ((4, False), (5, True), (5, False)):
        c = _non_integer_curve(genus, rng, positive)
        coords = [
            [F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in sym_pairs(genus)]
            for _ in range(3)
        ]
        quads = [quadric_from_vector(genus, v) for v in coords]
        quads.append(basis_quadric(genus, 1, genus - 1))
        pairings = Pairing.family(quads, c)
        assert all(p.jets is c.jets for p in pairings)
        table = canonical_derivatives(c, 24)
        cells = [(h, l) for h in range(25) for l in range(25)]
        rng.shuffle(cells)
        for q, pairing in zip(quads, pairings):
            tensor = q.sym_tensor()
            for h, l in cells:
                expected = sum(
                    (
                        tensor[a][b] * table[a][h] * table[b][l]
                        for a in range(genus)
                        for b in range(genus)
                        if tensor[a][b]
                    ),
                    F(0),
                )
                assert pairing(h, l) == expected


def _scan_outcome(pairing, n, r):
    try:
        return pairing.rho(n, r)
    except BeyondThreshold as exc:
        return exc.payload()


def test_threshold_and_rho_do_not_depend_on_the_call_order():
    # rho before threshold, and a small cap after a large one, give what a
    # fresh pairing gives: the watermark never hides or invents an entry
    for genus, seed in ((5, 1), (6, 2), (7, 3)):
        c = random_curve(genus, random.Random(seed))
        quads = [basis_quadric(genus, i, j) for (i, j) in sym_pairs(genus)[:4]]
        quads += kernel_via_equations(genus).level(1).quadrics[:2]
        pairs = ((3, 5), (1, 1), (5, 5), (1, 3), (3, 3))
        for q in quads:
            pairing = Pairing(q, c)
            outcomes = [_scan_outcome(pairing, n, r) for n, r in pairs]
            infos = [pairing.threshold(cap) for cap in (20, 2, 9, 0, 20)]
            for (n, r), outcome in zip(pairs, outcomes):
                assert outcome == _scan_outcome(Pairing(q, c), n, r)
            for cap, info in zip((20, 2, 9, 0, 20), infos):
                assert info == Pairing(q, c).threshold(cap)
            # the other order on the same pairing
            assert [_scan_outcome(pairing, n, r) for n, r in pairs] == outcomes


@pytest.fixture
def odd_column_fault(monkeypatch):
    """The jet store's source gives a nonzero entry in odd column 3."""
    original = Jets._column

    def patched(jets, n):
        column, den = original(jets, n)
        if n == 3:
            column = [7 * x for x in column]
            column[1] += den
            den *= 7
        return column, den

    monkeypatch.setattr(Jets, "_column", patched)


def test_a_nonzero_odd_jet_column_fails_the_pairing(odd_column_fault):
    c = default_curve(4)
    with pytest.raises(IdentityFailed, match="jet column 3"):
        Pairing(basis_quadric(4, 1, 3), c).threshold(6)
    with pytest.raises(IdentityFailed, match="jet column 3"):
        default_curve(4).jets.columns(3)


def test_a_nonzero_odd_jet_column_fails_the_reduction_vector(odd_column_fault):
    # the vector skips odd j, so only the column check can see this
    for genus, n, r in ((4, 3, 1), (5, 3, 3), (7, 5, 3)):
        with pytest.raises(IdentityFailed, match="jet column 3"):
            rho_reduction_vector(default_curve(genus), genus, n, r)


def test_pairing_layer_keeps_no_module_cache_keyed_on_quadrics():
    assert not hasattr(derivative_sum, "cache_info")
    with pytest.raises(InvalidIndex):
        Pairing(basis_quadric(4, 1, 3), default_curve(4))(-1, 2)
    caches = list(module_caches())
    # a new cache must be added here, with the genus bound, or this fails
    assert {c[:2] for c in caches} == {
        ("gaussmap.gaussian", "kernel_via_equations"),
        ("gaussmap.gaussian", "_identity_table"),
        ("gaussmap.gaussian", "_oracle_chain"),
        ("gaussmap.quadrics", "sym_pairs"),
        ("gaussmap.quadrics", "b_pairs"),
        ("gaussmap.rho", "_cross_check_quadrics"),
    }
    for module, name, cache in caches:
        assert cache.cache_parameters()["maxsize"] == GENERA_KEPT, (module, name)
        for param in inspect.signature(cache.__wrapped__).parameters.values():
            assert "QuadricI2" not in str(param.annotation), (module, name)
            assert param.name != "curve", (module, name)
            assert "Curve" not in str(param.annotation), (module, name)


def test_suites_leave_nothing_behind_per_curve():
    # the first run fills what is kept per genus (the kernels), so any
    # growth over the second run is state kept per curve
    def run(theorem, samples, seed):
        config = RunConfig(
            command="verify", genus_min=5, genus_max=5, samples=samples, seed=seed
        )
        assert verify_theorem(theorem, config).passed

    for theorem in ("T6.6", "T6.9"):
        run(theorem, 5, 0)
        gc.collect()
        before = len(gc.get_objects())
        run(theorem, 100, 1)
        gc.collect()
        assert len(gc.get_objects()) - before < 1000, theorem


def fraction_wedge(table, genus, a, b):
    """W(a, b) of each b-coordinate pair (i, j), in `sym_pairs` order.

    The omega-frame function of omega_m coincides with the canonical frame
    function of alpha_{g-m-1} (the model has t * omega_m = alpha_{g-m-1}
    on the nose), so row g-m-1 of the `Fraction` table supplies the jets.
    """
    omega_a = [table[genus - 1 - m][a] for m in range(genus)]
    omega_b = [table[genus - 1 - m][b] for m in range(genus)]
    return [
        omega_a[i] * omega_b[j] - omega_a[j] * omega_b[i]
        for (i, j) in sym_pairs(genus)
    ]


def omega_wronskian_sum(q, curve, a, b):
    """W(a, b): the antisymmetrised omega-pairing, from the canonical table."""
    table = canonical_derivatives(curve, max(a, b))
    wedge = fraction_wedge(table, q.genus, a, b)
    return sum((c * w for c, w in zip(q.b_coords(), wedge) if c), F(0))


def pairing_reduction(q, curve, h, l):
    """D(h, l) recomputed through the product rule in decomposable form.

    This is the identity behind the witness coefficient formulas; it
    expands through the same `_product_rule` as `rho_reduction_vector`.
    """
    terms = rho._product_rule(x_derivatives(curve, max(h, l)), h, l)
    return sum((w * omega_wronskian_sum(q, curve, a, b) for w, a, b in terms), F(0)) / 2


def fraction_reduction_vector(curve, genus, n, r):
    """The `Fraction` route of `rho_reduction_vector`: every j, odd ones
    too, and every W(a, b) from the `Fraction` jet table."""
    m1 = n + r
    a_end = min(n, r)
    sigma = x_derivatives(curve, m1)
    table = canonical_derivatives(curve, m1)
    pairs = sym_pairs(genus)
    vec = dict.fromkeys(pairs, F(0))
    for j in range(a_end):
        w = F(a_end - j, 2 * factorial(j) * factorial(m1 - j))
        for weight, a, b in rho._product_rule(sigma, m1 - j, j):
            for pair, value in zip(pairs, fraction_wedge(table, genus, a, b)):
                if value:
                    vec[pair] += w * weight * value
    return vec


def oracle_curves(genus):
    """The default curve and two seeded random curves."""
    return (
        default_curve(genus),
        random_curve(genus, random.Random(100 + genus)),
        random_curve(genus, random.Random(200 + genus)),
    )


@pytest.mark.parametrize("genus", range(3, 13))
def test_the_reduction_vector_equals_the_fraction_route(genus):
    # keys, their order and values, at both pairs of every level
    for curve in oracle_curves(genus):
        for k in range((genus - 3) // 2 + 1):
            for n, r in ((2 * k + 3, 2 * k + 1), (2 * k + 3, 2 * k + 3)):
                vec = rho_reduction_vector(curve, genus, n, r)
                expected = fraction_reduction_vector(curve, genus, n, r)
                assert list(vec.items()) == list(expected.items()), (genus, k, n, r)


def fraction_route_fields(f, curve):
    """The fields of a `Functional` that its reduction vector decides,
    rebuilt from the `Fraction` route with `Fraction` sums."""
    vec = fraction_reduction_vector(curve, f.genus, *f.pair)
    total = 2 * f.genus - sum(f.pair) // 2 - 1
    coefficients = tuple(vec[p] for p in f.support)

    def value_on(q, pairs):
        return sum((vec[p] * q.b(*p) for p in pairs if vec[p]), F(0))

    return dict(
        coefficients=coefficients,
        support_ok=all(vec[p] == 0 for p in vec if p[0] + p[1] < total),
        coefficients_nonzero=all(coefficients),
        closed_form_ok=coefficients == f.closed_form,
        reduction_ok=all(
            value_on(q, vec) == value == value_on(q, f.support)
            for q, value in zip(f.basis, f.values)
        ),
    )


@pytest.mark.parametrize("genus", range(3, 10))
def test_the_functionals_equal_the_fraction_route(genus):
    for curve in oracle_curves(genus):
        for k in range((genus - 3) // 2 + 1):
            w = witness_functional(genus, k, curve)
            fields = fraction_route_fields(w, curve)
            fields["reduction_ok"] = fields["reduction_ok"] and all(
                b_support_check(q, k).ok for q in w.basis
            )
            assert w == replace(w, **fields), (genus, k)
            d = diagonal_functional(genus, k, curve).functional
            assert d == replace(d, **fraction_route_fields(d, curve))
            # a value off by 1/7 fails the reduction check on both routes
            if d.basis:
                values = (d.values[0] + F(1, 7),) + d.values[1:]
                bad = rho._functional(genus, curve, d.pair, d.domain, d.basis, values)
                assert not bad.reduction_ok
                assert bad == replace(bad, **fraction_route_fields(bad, curve))
            # off the kernel the spillover entries count: the values of the
            # full vector on the basis quadrics Q_ij fail the trimmed check
            quads = tuple(basis_quadric(genus, i, j) for (i, j) in sym_pairs(genus))
            vec = fraction_reduction_vector(curve, genus, *d.pair)
            full = tuple(sum((vec[p] * q.b(*p) for p in vec), F(0)) for q in quads)
            off = rho._functional(genus, curve, d.pair, d.domain, quads, full)
            spill = any(vec[p] for p in vec if p not in d.support)
            assert off.reduction_ok is not spill
            assert off == replace(off, **fraction_route_fields(off, curve))


@settings(max_examples=20, deadline=None)
@given(
    st.lists(small_rats, min_size=6, max_size=6),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
)
def test_pairing_reduction_identity_on_arbitrary_quadrics(coords, hh, ll):
    c = default_curve(5)
    q = quadric_from_vector(5, [F(x) for x in coords])
    h, l = 2 * hh, 2 * ll
    assert pairing_reduction(q, c, h, l) == derivative_sum(q, c, h, l)


def test_pairing_reduction_identity_at_a_nonzero_deep_cell():
    c = default_curve(5)
    q = genus5_kernel_generator()
    value = derivative_sum(q, c, 8, 4)
    assert value != 0
    assert pairing_reduction(q, c, 8, 4) == value


def test_wronskian_sum_is_antisymmetric_in_the_orders():
    c = default_curve(5)
    q = basis_quadric(5, 1, 3)
    assert omega_wronskian_sum(q, c, 4, 6) == -omega_wronskian_sum(q, c, 6, 4)
    assert omega_wronskian_sum(q, c, 4, 4) == 0


# -- thresholds ----------------------------------------------------------------------


def threshold_with_policy(pairing, k):
    """One quadric's threshold scan with the cap 4k+8, raised once to
    2(4k+8): the oracle of the isotropy suite's family scan."""
    cap = 4 * k + 8
    info = pairing.threshold(cap)
    if info.at_cap:
        info = pairing.threshold(2 * cap)
    return info


def test_threshold_of_the_genus_five_kernel_generator():
    c = default_curve(5)
    q = genus5_kernel_generator()
    info = threshold_with_policy(Pairing(q, c), 1)
    assert info.threshold == 7 and not info.at_cap
    h, l, value = info.first_nonzero
    assert (h, l) == (4, 4)
    assert value == F(-1, 585235387438395578087796375552000000000000)


def test_threshold_respects_the_cap_and_flags_it():
    c3 = default_curve(3)
    info = threshold_info(basis_quadric(3, 1, 2), c3, 2)
    assert info.threshold == 2 and info.at_cap and info.first_nonzero is None
    assert Pairing(basis_quadric(5, 1, 2), default_curve(5)).threshold(4).threshold == 3


# -- licensed values -----------------------------------------------------------------


def test_known_values_on_the_genus_three_quadric():
    c = default_curve(3)
    q = basis_quadric(3, 1, 2)
    assert rho_pair(q, c, 1, 1).value == 0
    v = rho_pair(q, c, 1, 3)
    assert v.value == F(-1, 322620641280000)
    assert v.licensing_threshold == 3
    assert v.to_json()["unit"] == "2*pi*i"
    assert rho_pair(q, c, 3, 1).value == v.value


def test_value_beyond_threshold_is_refused_with_the_obstruction():
    c = default_curve(3)
    q = basis_quadric(3, 1, 2)
    with pytest.raises(BeyondThreshold) as excinfo:
        rho_pair(q, c, 3, 3)
    payload = excinfo.value.payload()
    assert payload["error"] == "BeyondThreshold"
    assert payload["first_nonzero"]["h"] == 2
    assert payload["first_nonzero"]["l"] == 2


def test_rho_value_invariant_rejects_unlicensed_construction():
    with pytest.raises(InvalidIndex):
        RhoValue(n=3, r=3, value=F(0), licensing_threshold=3)


def test_even_or_negative_orders_are_rejected():
    c = default_curve(3)
    q = basis_quadric(3, 1, 2)
    for n, r in ((2, 2), (1, 2), (0, 1), (-1, 3)):
        with pytest.raises(InvalidIndex):
            rho_pair(q, c, n, r)


def test_a_second_rho_call_returns_an_equal_value():
    c = default_curve(5)
    q = genus5_kernel_generator()
    pairing = Pairing(q, c)
    first = pairing.rho(3, 5)
    assert pairing.rho(3, 5) == first == Pairing(q, c).rho(3, 5)
    assert pairing.rho(SchifferIndex(3), 5) == first
    assert pairing.rho(5, 3) == Pairing(q, c).rho(5, 3)


def test_a_blocked_pair_raises_on_every_call():
    pairing = Pairing(basis_quadric(3, 1, 2), default_curve(3))
    assert pairing.rho(1, 3).value == F(-1, 322620641280000)
    for _ in range(3):
        with pytest.raises(BeyondThreshold) as excinfo:
            pairing.rho(3, 3)
        assert excinfo.value.payload()["first_nonzero"]["h"] == 2


def test_even_or_negative_orders_are_rejected_once_values_are_kept():
    pairing = Pairing(basis_quadric(3, 1, 2), default_curve(3))
    pairing.rho(1, 1)
    pairing.rho(1, 3)
    for n, r in ((2, 2), (1, 2), (0, 1), (-1, 3), (-1, -1), (3, -1)):
        with pytest.raises(InvalidIndex):
            pairing.rho(n, r)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_zero_verdicts_are_curve_independent(seed):
    curve = random_curve(3, random.Random(seed))
    q = basis_quadric(3, 1, 2)
    assert rho_pair(q, curve, 1, 1).value == 0
    assert rho_pair(q, curve, 1, 3).value != 0


# -- the functional written in reflected coordinates ---------------------------------


def raw_endpoint_sum(q, curve, n, r):
    total = n + r
    acc = F(0)
    for j in range(n):
        d = derivative_sum(q, curve, total - j, j)
        acc += F(n - j) * d / (
            F(1)
            * __import__("math").factorial(j)
            * __import__("math").factorial(total - j)
        )
    return acc


def test_reduction_vector_represents_the_endpoint_formula_on_the_basis():
    genus = 5
    c = default_curve(genus)
    for (n, r) in ((1, 3), (1, 5), (3, 3)):
        vec = rho_reduction_vector(c, genus, n, r)
        for (i, j) in sym_pairs(genus):
            q = basis_quadric(genus, i, j)
            applied = sum(
                coeff * q.b(a, b) for (a, b), coeff in vec.items()
            )
            assert applied == raw_endpoint_sum(q, c, min(n, r), max(n, r))


# -- suites over kernels -------------------------------------------------------------


def test_isotropy_holds_at_small_desk_scale():
    result = isotropy_suite(5, 1, default_curve(5))
    assert result.ok and result.basis_size == 1
    assert result.threshold.threshold == 7
    assert all(v == 0 for (_, _, _, v) in result.pair_values)


def test_isotropy_fails_on_a_short_threshold_or_a_nonzero_pair():
    result = isotropy_suite(5, 1, default_curve(5))
    assert result.pair_values == ()
    short = replace(result.threshold, threshold=4 * result.k + 2)
    assert not replace(result, threshold=short).ok
    # a pair evaluated above the threshold keeps its value: a nonzero one fails
    assert replace(result, pair_values=((0, 3, 3, F(0)),)).ok
    assert not replace(result, pair_values=((0, 3, 3, F(1, 7)),)).ok


@pytest.mark.parametrize("genus", range(3, 10))
def test_the_family_scan_gives_the_least_per_quadric_threshold(genus):
    # the default curve and two seeded panels; the family minimum is the
    # first quadric's own threshold info among those that reach it
    curves = curve_panel(genus, 0, 2) + curve_panel(genus, 7, 2)[1:]
    for curve in curves:
        for k in range((genus - 3) // 2 + 1):
            quads = kernel_via_equations(genus).level(k).quadrics
            oracle = [threshold_with_policy(Pairing(q, curve), k) for q in quads]
            least = min(info.threshold for info in oracle)
            result = isotropy_suite(genus, k, curve)
            assert result.threshold.threshold == least
            assert result.threshold == next(i for i in oracle if i.threshold == least)


def test_a_nonzero_entry_in_a_later_quadric_fails_the_isotropy_item(
    monkeypatch, capsys
):
    # S(4, 2) of the second Ker mu_2 quadric at genus 7 (total 6 <= 4k+2)
    # gains 1/7 while the first quadric's pairings stay exact: the family
    # scan must reach it, and the suite's item must fail
    genus, k = 7, 1
    target = kernel_via_equations(genus).level(k).quadrics[1]
    original = Pairing._sum

    def skewed(self, h, l):
        value = original(self, h, l)
        if self.quadric == target and (h, l) == (4, 2):
            return value + F(1, 7)
        return value

    monkeypatch.setattr(Pairing, "_sum", skewed)
    curve = default_curve(genus)
    pairings = Pairing.family(kernel_via_equations(genus).level(k).quadrics, curve)
    info = _family_threshold(pairings, curve, k)
    assert (info.threshold, info.first_nonzero[:2]) == (5, (4, 2))
    code = main(
        ["verify", "--theorem", "T6.5", "--g", str(genus), "--k", str(k), "--samples", "0"]
    )
    captured = capsys.readouterr()
    assert code == 1 and "Traceback" not in captured.err
    failing = [c["item"] for c in json.loads(captured.out)["checks"] if not c["ok"]]
    assert failing == [f"g=7 k=1 licensed odd pairs vanish on {curve.label()}"]


def test_the_zero_floor_reads_the_jet_store(monkeypatch, capsys):
    # row 3 of jet column 2 gains 1/7, above row 1, the last that the
    # frame functions' orders allow there: S(2, 2) of the first Ker mu_2
    # quadric at genus 7 (least weight 4) now pairs rows 1 and 3, so a
    # floor read off the orders would skip it and hide the fault
    original = Jets._column

    def raised(jets, n):
        column, den = original(jets, n)
        if n == 2:
            column = [7 * x for x in column]
            column[3] += den
            den *= 7
        return column, den

    monkeypatch.setattr(Jets, "_column", raised)
    assert default_curve(7).jets.columns(2)[0][2][3]
    code = main(["verify", "--theorem", "T6.5", "--g", "7", "--k", "1", "--samples", "0"])
    captured = capsys.readouterr()
    assert code == 1 and "Traceback" not in captured.err
    failing = [c["item"] for c in json.loads(captured.out)["checks"] if not c["ok"]]
    assert f"g=7 k=1 licensed odd pairs vanish on {default_curve(7).label()}" in failing


def test_the_isotropy_scans_keep_only_entries_above_the_floor(monkeypatch, capsys):
    # every S(h, l) kept after the T6.5 suite at genus 9 has last nonzero
    # rows of columns h and l summing to at least the quadric's least
    # weight: all other entries are zeros that the floor returns unkept
    made = []
    original = Pairing.__init__

    def recording(self, q, curve):
        original(self, q, curve)
        made.append(self)

    monkeypatch.setattr(Pairing, "__init__", recording)
    assert main(["verify", "--theorem", "T6.5", "--g", "9", "--seed", "0"]) == 0
    capsys.readouterr()

    def last_row(column):
        return max((i for i, x in enumerate(column) if x), default=-1)

    kept = 0
    for pairing in made:
        least = min(a + b for a, b, _ in pairing.quadric.tensor[0])
        num, _ = pairing.jets.columns(-1)
        for h, l in pairing._sums:
            assert last_row(num[h]) + last_row(num[l]) >= least, (h, l)
        kept += len(pairing._sums)
    assert made and kept <= 20


@pytest.mark.parametrize("genus", range(3, 10))
def test_forced_pair_values_equal_fresh_rho_evaluations(genus):
    # the suite counts every pair with n + r <= the family threshold as the
    # forced zero, unevaluated; fresh pairings, with no family scan,
    # evaluate each of them through Pairing.rho to exactly 0
    curves = curve_panel(genus, 0, 2) + curve_panel(genus, 7, 2)[1:]
    for curve in curves:
        for k in range((genus - 3) // 2 + 1):
            result = isotropy_suite(genus, k, curve)
            quads = kernel_via_equations(genus).level(k).quadrics
            pairs = [(n, r) for n in range(1, 4 * k + 4, 2) for r in range(n, 4 * k + 4 - n, 2)]
            assert result.evaluations == len(quads) * len(pairs) == len(quads) * (k + 1) ** 2
            for q in quads:
                fresh = Pairing(q, curve)
                for n, r in pairs:
                    if n + r <= result.threshold.threshold:
                        assert fresh.rho(n, r).value == 0


def test_a_passing_isotropy_level_stores_no_pair_values(monkeypatch, capsys):
    # at genus 9 every level's family threshold reaches 4k+3, so every pair
    # is a forced zero: counted, never evaluated, never kept
    results = []
    original = suites.isotropy_suite

    def recording(genus, k, curve):
        results.append(original(genus, k, curve))
        return results[-1]

    monkeypatch.setattr(suites, "isotropy_suite", recording)
    assert main(["verify", "--theorem", "T6.5", "--g", "9"]) == 0
    capsys.readouterr()
    assert {result.k for result in results} == {0, 1, 2, 3}
    for result in results:
        assert result.ok and result.pair_values == ()
        assert result.evaluations == result.basis_size * (result.k + 1) ** 2


def test_level_quadrics_are_the_basis_vectors_built_once(monkeypatch):
    for genus in range(3, 10):
        for level in kernel_via_equations(genus).levels:
            dim = len(sym_pairs(genus))
            assert level.quadrics == tuple(
                quadric_from_vector(genus, vec) for vec in views(level.basis, dim)
            )
    seen = []
    original = Pairing.family.__func__

    def recorded(cls, quads, curve):
        seen.append(quads)
        return original(cls, quads, curve)

    monkeypatch.setattr(Pairing, "family", classmethod(recorded))
    for _ in range(2):
        config = RunConfig(command="verify", genus_min=7, genus_max=7, samples=0)
        assert verify_theorem("T6.5", config).passed
    for k in (0, 1, 2):
        quads = kernel_via_equations(7).level(k).quadrics
        assert sum(q is quads for q in seen) == 2


def test_the_hyperplane_cut_reads_only_the_witness_values(monkeypatch, capsys):
    def refuse(*args):
        raise RuntimeError("the witness report was built")

    monkeypatch.setattr(rho, "_witness_display_form", refuse)
    monkeypatch.setattr(KernelLevel, "b_support_ok", property(refuse))
    for argv in (
        ("verify", "--theorem", "T6.9", "--g", "3..7"),
        ("scan", "--g", "4..6", "--samples", "3"),
    ):
        assert main(list(argv)) == 0
        assert json.loads(capsys.readouterr().out)["passed"]
    with pytest.raises(RuntimeError, match="witness report"):
        main(["verify", "--theorem", "T6.6", "--g", "4", "--samples", "0"])


def test_witness_functional_on_the_genus_three_quadric():
    c = default_curve(3)
    f = witness_functional(3, 0, c)
    assert set(f.pair) == {1, 3}
    assert f.support == ((1, 2),)
    assert f.values == (F(-1, 322620641280000),)
    assert f.coefficients == (F(1, 322620641280000),)
    assert f.nonzero_on_domain and f.support_ok and f.coefficients_nonzero
    assert f.closed_form_ok and f.reduction_ok
    assert f.display_factors == ()
    assert f.display_domain_constant == 5040
    assert f.display_proportional_on_domain


def test_witness_functional_two_term_support_at_genus_five():
    c = default_curve(5)
    f = witness_functional(5, 1, c)
    assert f.support == ((1, 4), (2, 3))
    assert f.coefficients == (
        F(1, 1011286749493547558935712136953856000000000000),
        F(1, 2022573498987095117871424273907712000000000000),
    )
    assert f.closed_form_ok and f.coefficients_nonzero
    assert f.display_factors == (-1,)
    assert all(x % 2 == 1 for x in f.display_factors)
    assert f.display_proportional_on_domain
    assert f.display_domain_constant == 7983360


def test_witness_hyperplane_cuts_exactly_one_dimension():
    c5 = default_curve(5)
    h = witness_hyperplane(5, 0, c5)
    assert h.dimension == kernel_dimension_formula(5, 0) - 1 == 5
    assert h.codimension_ok and h.support_coordinates_vanish
    h61 = witness_hyperplane(6, 1, default_curve(6))
    assert h61.dimension == 2


def dense_cut(domain, values, ncols):
    """The dense route of the cut: the naive kernel of the one row of
    values, each kernel vector lifted as a plain sum of the domain vectors,
    and the naive RREF of the lifts."""
    if not domain:
        return ()
    lifts = [
        [sum((c * vec[col] for c, vec in zip(coeffs, domain)), F(0))
         for col in range(ncols)]
        for coeffs in naive_kernel([list(values)], len(values))
    ]
    return naive_rref(lifts, ncols)[0]


cut_rats = st.one_of(st.just(F(0)), st.fractions(-20, 20, max_denominator=9))


@st.composite
def cut_cases(draw):
    ncols = draw(st.integers(1, 6))
    n = draw(st.integers(0, 4))
    domain = draw(
        st.lists(
            st.lists(cut_rats, min_size=ncols, max_size=ncols).map(tuple),
            min_size=n,
            max_size=n,
        )
    )
    values = draw(st.lists(cut_rats, min_size=n, max_size=n))
    return tuple(domain), tuple(values), ncols


@settings(max_examples=80, deadline=None)
@given(cut_cases())
@example(((), (), 3))  # an empty domain
@example(  # every value zero
    (((F(1), F(2), F(0)), (F(0), F(1, 3), F(-1)), (F(1), F(0), F(5))), (F(0),) * 3, 3)
)
@example(  # the first nonzero value last
    (((F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))),
     (F(0), F(0), F(-3, 4)), 3)
)
@example(  # mixed denominators and signs
    (((F(1, 2), F(-1, 3)), (F(3, 4), F(5)), (F(-2, 7), F(1))),
     (F(0), F(2, 5), F(-3, 2)), 2)
)
def test_the_integer_cut_equals_the_dense_route(case):
    domain, values, ncols = case
    rows = tuple(map(row_of, domain))
    assert views(_restrict_to_functional_kernel(rows, values, ncols), ncols) == dense_cut(
        domain, values, ncols
    )


def test_kernel_rows_and_quadrics_clear_no_denominators(monkeypatch):
    """From the elimination store to the pairings, a kernel vector, a cut
    and a quadric are integer rows: on the certificate and diagonal paths
    `numerators` clears no denominators of theirs, and neither do the jets,
    the x-jets of the reduction vector or the moduli polynomial: no call is
    left on these paths."""
    callers = []
    original = gaussmap.linalg.numerators

    def counted(values):
        callers.append(inspect.currentframe().f_back.f_code.co_name)
        return original(values)

    modules = (gaussmap.curve, gaussmap.quadrics, rho, gaussmap.linalg)
    for module in modules:
        if hasattr(module, "numerators"):
            monkeypatch.setattr(module, "numerators", counted)
    assert any(hasattr(module, "numerators") for module in modules)
    for argv in (
        ("scan", "--g", "9", "--samples", "100", "--seed", "0"),
        ("verify", "--theorem", "T6.9", "--g", "9", "--seed", "0"),
    ):
        assert cli_stdout(*argv)
    assert not callers, sorted(set(callers))


@pytest.mark.parametrize(
    "genus",
    [*range(3, 10),
     *(pytest.param(g, marks=pytest.mark.frontier) for g in range(10, 13))],
)
def test_hyperplanes_equal_the_dense_route(genus):
    ncols = len(sym_pairs(genus))
    for curve in curve_panel(genus, 3, 1):
        for k in range((genus - 3) // 2 + 1):
            d = diagonal_functional(genus, k, curve)
            _, values = _witness_values(genus, k, curve)
            domain = views(kernel_via_equations(genus).level(k).basis, ncols)
            hyperplane = views(d.hyperplane.vectors, ncols)
            assert hyperplane == dense_cut(domain, values, ncols), (genus, k)
            assert views(d.a00_vectors, ncols) == dense_cut(
                hyperplane, d.functional.values, ncols
            ), (genus, k)


def test_diagonal_functional_and_second_hyperplane():
    d = diagonal_functional(5, 0, default_curve(5))
    assert d.functional.support == ((2, 4),)
    assert d.functional.coefficients_nonzero
    assert d.functional.closed_form_ok
    assert d.codimension == 1
    assert d.a00_dimension == 4
    empty = diagonal_functional(3, 0, default_curve(3))
    assert empty.functional.support == ()
    assert empty.codimension == 0


# -- certificates --------------------------------------------------------------------


def test_direction_length_counts_odd_orders():
    assert [direction_length(g) for g in (3, 4, 5, 6, 9)] == [1, 2, 2, 3, 4]


def test_pure_first_order_direction_is_asymptotic():
    c = default_curve(5)
    cert = asymptotic_classify(c, (F(1), F(0)))
    assert cert.verdict == "asymptotic"
    assert cert.top_order == 1
    assert cert.basis_zero_count == 6
    scaled = asymptotic_classify(c, (F(1, 2), F(0)))
    assert scaled.verdict == "asymptotic"


def test_higher_top_order_direction_carries_a_nonzero_witness():
    c = default_curve(5)
    cert = asymptotic_classify(c, (F(0), F(1)))
    assert cert.verdict == "not_asymptotic"
    assert cert.witness_pair_value == F(
        1, 25334865257073401648822353920000000000
    )
    assert cert.total_value == cert.witness_pair_value
    assert cert.cross_terms == ()
    mixed = asymptotic_classify(c, (F(2), F(-1, 3)))
    assert mixed.verdict == "not_asymptotic"
    assert mixed.total_value == F(1, 9) * cert.witness_pair_value
    assert all(v == 0 for (_, _, v) in mixed.cross_terms)


def test_a_certificate_suite_builds_each_level_once(monkeypatch):
    built = []
    original = rho._diagonal_values

    def counted(genus, k, curve):
        built.append((genus, k))
        return original(genus, k, curve)

    monkeypatch.setattr(rho, "_diagonal_values", counted)
    config = RunConfig(command="verify", genus_min=6, genus_max=7, samples=100)
    assert verify_theorem("T6.12", config).passed
    # one curve per genus, 100 directions each: one build per level
    assert built == [(6, 0), (6, 1), (7, 0), (7, 1)]


def _levels(genus):
    """Each level k that some direction's top order 2k+3 reaches, with the
    pairs (i, j) of its table: 0 <= i <= k, i <= j <= k+1."""
    for k in range(direction_length(genus) - 1):
        yield k, {(i, j) for i in range(k + 1) for j in range(i, k + 2)}


@pytest.mark.parametrize("genus", range(4, 13))
def test_every_level_proves_every_direction_not_asymptotic(genus):
    # the default curve to g=12, two seeded curves to g=9
    seeded = [random_curve(genus, random.Random(s)) for s in (3, 4)] if genus <= 9 else []
    for curve in [default_curve(genus), *seeded]:
        certifier = Certifier(curve)
        for k, pairs in _levels(genus):
            witness, value, cross = certifier.table(k)
            assert set(cross) == pairs and value and witness is not None
            assert certifier.universal(k), (genus, k, curve.label())


def test_a_perturbed_table_entry_fails_the_verdict(monkeypatch):
    original = rho.Certifier._build

    def perturbed(self, k):
        witness, value, cross = original(self, k)
        return witness, value, {**cross, (0, 1): cross[(0, 1)] + F(1, 7)}

    monkeypatch.setattr(rho.Certifier, "_build", perturbed)
    certifier = Certifier(default_curve(6))
    assert [certifier.universal(k) for k, _ in _levels(6)] == [False, False]


def _scan_directions(genus):
    """The sampled directions of `scan --g genus` at the default seed and
    sample count: the draws of top order 3 or more, in order."""
    rng = random.Random(suites._mix_seed(0, genus))
    directions = []
    while len(directions) < suites.DEFAULT_DIRECTION_SAMPLES:
        direction = random_direction(rng, direction_length(genus))
        if max(i for i, c in enumerate(direction) if c):
            directions.append(direction)
    return directions


@pytest.mark.parametrize("genus", range(4, 10))
def test_the_support_memo_is_invisible(genus):
    directions = _scan_directions(genus)
    supports = {tuple(i for i, c in enumerate(d) if c) for d in directions}
    assert len(supports) < len(directions)  # some support is read again
    for curve in (default_curve(genus), random_curve(genus, random.Random(3))):
        shared = Certifier(curve)
        for direction in directions:
            cert = shared.classify(direction)
            fresh = Certifier(curve).classify(direction)
            assert cert == fresh and cert.cross_terms == fresh.cross_terms, direction


def test_a_failing_support_raises_on_every_call(monkeypatch):
    original = rho.Certifier._build

    def perturbed(self, k):
        witness, value, cross = original(self, k)
        if k == 1:
            cross = {**cross, (0, 1): cross[(0, 1)] + F(1, 7)}
        return witness, value, cross

    monkeypatch.setattr(rho.Certifier, "_build", perturbed)
    certifier = Certifier(default_curve(6))
    # top order 5 is level 1; the support (0, 1, 2) reads its pair (0, 1)
    for _ in range(2):
        with pytest.raises(IdentityFailed, match=r"\(xi\^1, xi\^3\)"):
            certifier.classify((F(2), F(-1, 3), F(5)))
    for _ in range(2):  # the support (1, 2) does not read it
        assert certifier.classify((0, F(1, 2), 1)).verdict == "not_asymptotic"


def test_a_failing_pure_first_order_check_raises_on_every_call(monkeypatch):
    original = rho.Pairing.rho

    def perturbed(self, n, r):
        value = original(self, n, r)
        return replace(value, value=value.value + F(1, 7)) if (n, r) == (1, 1) else value

    certifier = Certifier(default_curve(5))
    with monkeypatch.context() as patch:
        patch.setattr(rho.Pairing, "rho", perturbed)
        for _ in range(2):
            with pytest.raises(IdentityFailed, match="must vanish at a Weierstrass point"):
                certifier.classify((1, 0))
    assert certifier.classify((1, 0)).basis_zero_count == 6


@pytest.mark.parametrize("bad", [0.1, 1.0, True, False])
def test_a_float_or_bool_coefficient_is_refused(bad):
    with pytest.raises(InvalidIndex, match="not an exact rational"):
        asymptotic_classify(default_curve(5), (bad, 1))
    with pytest.raises(InvalidIndex, match="not an exact rational"):
        Certifier(default_curve(5)).classify((1, bad))
    exact = asymptotic_classify(default_curve(5), (F(1, 10), 1))
    assert exact.direction == (F(1, 10), F(1))
    assert asymptotic_classify(default_curve(5), ("1/10", 1)) == exact


def test_direction_vector_length_is_validated():
    with pytest.raises(InvalidIndex):
        asymptotic_classify(default_curve(5), (F(1),))


# -- cup products of one higher variation --------------------------------------------


def test_cup_product_ranks_at_genus_five():
    c = default_curve(5)
    assert [cup_rank(c, n).rank for n in range(1, 6)] == [1, 0, 2, 0, 3]
    for n in range(1, 6):
        result = cup_rank(c, n)
        assert result.rank_bound_ok and result.containment_ok
        assert result.predicted_kernel_indices == tuple(
            i for i in range(5) if 2 * i >= n
        )


def test_cup_product_kernel_matches_naive_elimination():
    """The one-elimination kernel against the naive Gauss-Jordan kernel of
    the dense pairing matrix, formed from the `Fraction` jet table by the
    Leibniz rule: (f_i f_j)^(n-1)(0) = sum_c C(n-1, c) f_i^(c) f_j^(n-1-c)."""
    for genus in (5, 7):
        curve = default_curve(genus)
        table = canonical_derivatives(curve, genus)
        for n in range(1, genus + 1):
            dense = [
                [
                    sum(comb(n - 1, c) * a[c] * b[n - 1 - c] for c in range(n))
                    for b in table
                ]
                for a in table
            ]
            result = cup_rank(curve, n)
            assert views(result.kernel, genus) == naive_kernel(dense, genus), (genus, n)
            assert result.rank == genus - len(result.kernel)


def test_cup_product_order_is_validated():
    with pytest.raises(InvalidIndex):
        cup_rank(default_curve(5), 0)


# -- independent chart cross-check ---------------------------------------------------


def fraction_mu2_cross_check(curve, order=14):
    """The cross-check along Fraction series arithmetic: the independent route.

    Composites are built by `TruncatedSeries.scale` and `__add__`, the
    z-chart representative by `__mul__`, with every truncation order from
    the series rules.
    """
    genus = curve.genus
    x = x_of_z(curve, order)
    xprime = x.derivative()
    frame = xprime * xprime * xprime.shift_down(1) * xprime.shift_down(1)
    # x^m * frame for every exponent of a mu_2 polynomial (degree <= 2g-2),
    # so each composite is a combination of these instead of a Horner pass;
    # mu_2 of a basis quadric is never the zero polynomial
    framed = [frame]
    for _ in range(2 * genus - 2):
        framed.append(framed[-1] * x)
    expansions = [
        expand_canonical(curve, i, max(order + 2, 2 * genus + 1))
        for i in range(genus)
    ]
    second = [e.derivative().derivative() for e in expansions]
    products = {}
    labels = []
    rho_values = []
    vanishes = []
    agree = []
    compared = order
    for (i, j) in sym_pairs(genus):
        q = basis_quadric(genus, i, j)
        labels.append(q.label())
        with _licensed():
            rho_values.append(rho_pair(q, curve, 1, 1).value)
        mu2 = poly(*mu_coefficients(q, 1))
        composite = reduce(
            TruncatedSeries.__add__,
            (framed[m].scale(c) for m, c in enumerate(mu2.coeffs) if c),
        )
        zrep = TruncatedSeries.zero(truncation=order)
        for a, b, coeff in (
            (a, b, c)
            for a, row in enumerate(q.sym_tensor())
            for b, c in enumerate(row)
            if c
        ):
            term = products.get((a, b))
            if term is None:
                term = products[(a, b)] = second[a] * expansions[b]
            zrep = zrep + term.scale(coeff)
        limit = min(composite.truncation, zrep.truncation)
        compared = min(compared, limit)
        vanishes.append(composite.coefficient(0) == 0)
        agree.append(
            all(
                composite.coefficient(e) == zrep.coefficient(e)
                for e in range(limit)
            )
        )
    if compared < 5:
        raise InvalidIndex("cross-check order too small to be meaningful")
    return Mu2CrossCheck(
        genus=genus,
        curve=curve.label(),
        quadrics=tuple(labels),
        rho_values=tuple(rho_values),
        x_chart_vanishes=tuple(vanishes),
        frames_agree=tuple(agree),
        compared_orders=compared,
    )


def test_first_vanishing_agrees_between_charts():
    for genus in (3, 5, 8):
        result = mu2_cross_check(default_curve(genus))
        assert result.ok
        assert result.x_chart_vanishes and result.frames_agree
        assert len(result.quadrics) == (genus - 1) * (genus - 2) // 2


@pytest.mark.parametrize("genus", range(3, 10))
def test_cross_check_equals_the_fraction_route(genus):
    curves = curve_panel(genus, 0, 3) + curve_panel(genus, 7, 3)[1:]
    for curve in curves:
        result = mu2_cross_check(curve)
        assert result.ok
        assert result == fraction_mu2_cross_check(curve)


@settings(max_examples=15, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=-60, max_value=60, max_denominator=12).filter(
            lambda t: t != 0
        ),
        min_size=7,
        max_size=9,
        unique=True,
    ).filter(lambda points: len(points) % 2 == 1)
)
def test_cross_check_equals_the_fraction_route_on_rational_branch_points(points):
    curve = new_curve([0, *points])
    assert mu2_cross_check(curve) == fraction_mu2_cross_check(curve)


def test_cross_check_orders_follow_the_fraction_route():
    curve = random_curve(5, random.Random(11))
    for order in range(5, 23):
        result = mu2_cross_check(curve, order)
        assert result.compared_orders == order
        assert result == fraction_mu2_cross_check(curve, order)
    for order in range(5):
        with pytest.raises(GaussmapError) as fast:
            mu2_cross_check(curve, order)
        with pytest.raises(GaussmapError) as slow:
            fraction_mu2_cross_check(curve, order)
        assert type(fast.value) is type(slow.value)


@pytest.mark.parametrize("genus", range(3, 13))
def test_the_cross_check_quadrics_are_the_ker_mu0_basis(genus):
    quads, _, _ = rho._cross_check_quadrics(genus)
    assert kernel_via_equations(genus).level(0).quadrics == quads


@pytest.mark.parametrize("genus", range(3, 10))
def test_cross_check_zeros_equal_fresh_rho_evaluations(genus):
    # route one reads every rho(Q)(xi^1 (.) xi^1) off one family scan as the
    # forced zero; fresh pairings, with no family scan, evaluate each of
    # them through Pairing.rho to exactly 0
    quads, _, _ = rho._cross_check_quadrics(genus)
    curves = curve_panel(genus, 0, 2) + curve_panel(genus, 7, 2)[1:]
    for curve in curves:
        result = mu2_cross_check(curve)
        fresh = tuple(Pairing(q, curve).rho(1, 1).value for q in quads)
        assert result.rho_values == fresh == (0,) * len(quads)


@pytest.fixture
def nonzero_first_vanishing(monkeypatch):
    """S(2, 0) of one genus-5 cross-check quadric gains 1/7: its D(0, 0)
    stays 0, so rho(xi^1 (.) xi^1) is licensed, and D(2, 0)/2 is not 0."""
    target = rho._cross_check_quadrics(5)[0][2]
    original = Pairing._sum

    def skewed(self, h, l):
        value = original(self, h, l)
        return value + F(1, 7) if (h, l) == (2, 0) and self.quadric == target else value

    monkeypatch.setattr(Pairing, "_sum", skewed)
    return target


def test_a_nonzero_first_vanishing_is_a_failing_item(nonzero_first_vanishing, capsys):
    code = main(["verify", "--theorem", "T6.5", "--g", "5", "--samples", "0"])
    captured = capsys.readouterr()
    assert code == 1 and "Traceback" not in captured.err
    failing = [c["item"] for c in json.loads(captured.out)["checks"] if not c["ok"]]
    label = default_curve(5).label()
    assert f"g=5 x-chart cross-check of the first vanishing on {label}" in failing


def test_a_nonzero_first_vanishing_equals_the_fresh_rho_values(nonzero_first_vanishing):
    # the family scan finds the entry, so every value goes through
    # Pairing.rho, exactly as on a fresh pairing of each quadric
    curve = default_curve(5)
    quads, _, _ = rho._cross_check_quadrics(5)
    assert Pairing(nonzero_first_vanishing, curve)(0, 0) == 0
    result = mu2_cross_check(curve)
    fresh = tuple(Pairing(q, curve).rho(1, 1).value for q in quads)
    assert result.rho_values == fresh and not result.ok
    assert [q for q, value in zip(quads, fresh) if value] == [nonzero_first_vanishing]


def skew_lift(monkeypatch, part):
    """Add 1 at s^1 to a copy of one series that `Jets.lift` hands the
    cross-check: Y or (sY)' (read by the x side) or the row R_0 (read by
    the z side, where [s^1] R_0 carries the z^2 coefficient of alpha_0's
    frame function through e_0'' and e_0). The jet store is left as it is."""
    original = Jets.lift

    def skewed(jets, count):
        g0, y, dy, rows = original(jets, count)
        y, dy, rows = list(y), list(dy), [list(row) for row in rows]
        {"Y": y, "(sY)'": dy, "R_0": rows[0]}[part][1] += 1
        return g0, y, dy, rows

    monkeypatch.setattr(Jets, "lift", skewed)


@pytest.fixture
def skewed_expansion(monkeypatch):
    skew_lift(monkeypatch, "R_0")


@pytest.fixture(params=["Y", "(sY)'"])
def skewed_x_side(monkeypatch, request):
    skew_lift(monkeypatch, request.param)


def assert_only_the_frames_disagree():
    result = mu2_cross_check(default_curve(4))
    assert False in result.frames_agree and not result.ok
    assert all(result.x_chart_vanishes) and not any(result.rho_values)


def assert_only_the_cross_check_item_fails(capsys):
    code = main(["verify", "--theorem", "T6.5", "--g", "4", "--samples", "0"])
    captured = capsys.readouterr()
    assert code == 1 and "Traceback" not in captured.err
    failing = [c for c in json.loads(captured.out)["checks"] if not c["ok"]]
    assert [c["item"] for c in failing] == [
        "g=4 x-chart cross-check of the first vanishing on "
        "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]"
    ]


def test_a_skewed_canonical_coefficient_breaks_the_frame_agreement(skewed_expansion):
    assert_only_the_frames_disagree()


def test_a_skewed_canonical_coefficient_is_a_failing_item(skewed_expansion, capsys):
    assert_only_the_cross_check_item_fails(capsys)


def test_a_skewed_x_side_series_breaks_the_frame_agreement(skewed_x_side):
    assert_only_the_frames_disagree()


def test_a_skewed_x_side_series_is_a_failing_item(skewed_x_side, capsys):
    assert_only_the_cross_check_item_fails(capsys)
