"""Local jet expansions at the base Weierstrass point.

The local coordinate is z = y, and x(z) is the even power series solving
x * G(x) = z^2, where G is the branch polynomial with its root at 0
removed.  All expansions are even in z; derivative tables list exact
z-derivatives at 0 with odd columns identically zero.

The program solves x * G(x) = z^2 over the integers by Lagrange inversion,
one recurrence per jet column, with a Horner residual check as the gate.
The independent route kept here is a Fraction Newton iteration with the
row builder x^i * 2 dx/dw; every table must agree with it exactly. The
program keeps no `Fraction` view of its jets: the canonical and x-jet
tables, the omega table and the z-series come from the test-side
`series_oracle`.
A second route, a `Fraction` series inversion of G, checks each jet column
against its Lagrange-inversion closed form.
"""

import json
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaussmap.curve as curve_module
from gaussmap.cli import main
from gaussmap.curve import (
    curve_from_json,
    default_curve,
    new_curve,
    random_curve,
)
from gaussmap.errors import (
    DuplicateBranchPoint,
    FirstBranchPointNotZero,
    IdentityFailed,
    IndexOutOfRange,
    InvalidIndex,
    TooFewBranchPoints,
)
import series_oracle
from series_oracle import (
    TruncatedSeries,
    canonical_derivatives,
    expand_canonical,
    expand_omega,
    omega_derivatives,
    poly,
    x_derivatives,
    x_of_z,
)
from test_golden import cli_stdout

F = Fraction


# -- validation ---------------------------------------------------------------------


def test_curve_construction_validates_branch_points():
    with pytest.raises(FirstBranchPointNotZero):
        new_curve([1, 2, 3, 4, 5, 6, 7, 8])
    with pytest.raises(DuplicateBranchPoint):
        new_curve([0, 1, 1, 3, 4, 5, 6, 7])
    with pytest.raises(TooFewBranchPoints):
        new_curve([0, 1, 2, 3, 4, 5])
    with pytest.raises(InvalidIndex):
        new_curve([0, 1, 2, 3, 4, 5, 6, 7, 8])  # odd count


@pytest.mark.parametrize("form", ["1/2", "2/4", F(1, 2)], ids=str)
def test_a_branch_point_is_refused_in_any_form_of_its_value(form):
    with pytest.raises(DuplicateBranchPoint) as refused:
        new_curve([0, "1/2", 1, 2, 3, 4, form, 5])
    assert str(refused.value) == "branch point 1/2 repeated"


def test_default_curve_has_consecutive_integer_branch_points():
    c = default_curve(4)
    assert c.genus == 4
    assert c.branch_points == tuple(F(i) for i in range(10))


def test_curve_json_round_trip():
    c = default_curve(3)
    assert curve_from_json(c.to_json()) == c
    assert curve_from_json({"branch_points": ["0", "1/2", "-1", "2", "3", "4", "5", "6"]}).genus == 3


def test_a_json_integer_over_the_digit_limit_names_its_length():
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if not limit:
        pytest.skip("this interpreter reads integers of any length")
    text = '{"branch_points": [0, %s, 2, 3, 4, 5, 6, 7]}' % ("1" * (limit + 1))
    with pytest.raises(InvalidIndex, match=f"has {limit + 1} digits, over the limit of {limit}"):
        curve_from_json(text)


def test_random_curve_is_seed_deterministic():
    a = random_curve(4, random.Random(7))
    b = random_curve(4, random.Random(7))
    assert a == b and a.genus == 4


@pytest.mark.parametrize("genus", range(3, 13))
def test_moduli_polynomial_equals_the_product_of_linear_factors(genus):
    for curve in [default_curve(genus)] + [
        random_curve(genus, random.Random(seed)) for seed in range(3)
    ]:
        expected = TruncatedSeries.make((1,), None)
        for t in curve.branch_points[1:]:
            expected = expected * TruncatedSeries.make((-t, 1), None)
        assert poly(*curve.moduli_polynomial()) == expected


def test_a_curve_renders_its_label_once():
    c = random_curve(4, random.Random(2))
    assert c.label() is c.label()
    assert c.label() == "[" + ", ".join(str(t) for t in c.branch_points) + "]"


# -- the defining identity ----------------------------------------------------------


def branch_identity_holds(curve, order=13):
    """x(z) * G(x(z)) == z^2 exactly, coefficient by coefficient."""
    x = x_of_z(curve, order)
    lhs = x * x.compose_poly(poly(*curve.moduli_polynomial()))
    return all(
        lhs.coefficient(i) == (1 if i == 2 else 0)
        for i in range(lhs.truncation)
    )


def test_x_series_satisfies_the_branch_equation():
    assert branch_identity_holds(default_curve(3))


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_x_series_satisfies_the_branch_equation_on_random_curves(seed):
    curve = random_curve(3, random.Random(seed))
    assert branch_identity_holds(curve, order=11)


def test_x_series_leading_term_is_reciprocal_branch_product():
    c = default_curve(3)
    x = x_of_z(c, 6)
    assert x.coefficient(0) == 0 and x.coefficient(1) == 0
    assert x.coefficient(2) == 1 / c.g_at_zero()


def test_x_derivatives_start_with_the_known_second_derivative():
    c = default_curve(3)
    table = x_derivatives(c, 8)
    assert table[0] == 0 and table[1] == 0
    assert table[2] == 2 / c.g_at_zero()
    assert all(table[i] == 0 for i in range(1, 8, 2))


def test_x_derivatives_match_the_series_jets():
    c = default_curve(4)
    table = x_derivatives(c, 10)
    x = x_of_z(c, 11)
    for order in range(11):
        assert table[order] == x.derivative_at_zero(order)


# -- frame functions of the canonical basis -----------------------------------------


def test_canonical_expansions_scale_by_powers_of_x():
    c = default_curve(3)
    base = expand_canonical(c, 0, 13)
    x = x_of_z(c, 13)
    for i in range(1, c.genus):
        expected = base
        for _ in range(i):
            expected = expected * x
        got = expand_canonical(c, i, 13)
        bound = min(expected.truncation, got.truncation)
        assert all(
            got.coefficient(n) == expected.coefficient(n) for n in range(bound)
        )


def test_canonical_expansion_valuation_doubles_the_index():
    c = default_curve(4)
    for i in range(c.genus):
        assert expand_canonical(c, i, 2 * c.genus + 3).valuation() == 2 * i


def test_canonical_expansion_needs_enough_orders():
    c = default_curve(3)
    with pytest.raises(IndexOutOfRange):
        expand_canonical(c, 2, 4)
    with pytest.raises(IndexOutOfRange):
        expand_canonical(c, 3, 20)  # index outside 0..g-1


def test_derivative_table_matches_series_derivatives():
    c = default_curve(3)
    table = canonical_derivatives(c, 10)
    for i in range(c.genus):
        exp = expand_canonical(c, i, 11)
        for order in range(11):
            assert table[i][order] == exp.derivative_at_zero(order)


def test_derivative_table_odd_columns_vanish():
    c = default_curve(5)
    table = canonical_derivatives(c, 12)
    for row in table:
        assert all(row[order] == 0 for order in range(1, 13, 2))


def test_derivative_table_leading_entries_are_nonzero():
    c = default_curve(3)
    table = canonical_derivatives(c, 8)
    for i in range(c.genus):
        assert table[i][2 * i] != 0
        lead = expand_canonical(c, i, 2 * i + 1).coefficient(2 * i)
        assert table[i][2 * i] == math.factorial(2 * i) * lead


def test_twisted_expansion_is_the_double_pole_shift_of_a_canonical_row():
    c = default_curve(4)
    g = c.genus
    for k in range(1, g):
        omega = expand_omega(c, k, 11)
        assert omega.valuation() == 2 * g - 2 * k - 2
        alpha = expand_canonical(c, g - k, 13)
        shifted = alpha.shift_down(2)
        bound = min(shifted.truncation, omega.truncation)
        assert all(
            omega.coefficient(n) == shifted.coefficient(n)
            for n in range(bound)
        )


def test_derivative_tables_are_monotone_in_order():
    c = default_curve(3)
    small = canonical_derivatives(c, 6)
    large = canonical_derivatives(c, 12)
    for i in range(c.genus):
        assert large[i][: len(small[i])] == small[i]


# -- the independent Fraction Newton route --------------------------------------------


def _residual_and_slope(gcoeffs, x, w):
    """x G(x) - w and the Newton slope G(x) + x G'(x) = sum (m+1) g_m x^m at
    x's truncation order, both read off one table of the powers of x."""
    order = x.truncation
    powers = [TruncatedSeries.make((Fraction(1),), order)]
    for _ in gcoeffs:
        powers.append((powers[-1] * x).truncate(order))
    residual = (
        TruncatedSeries.make(
            [sum(c * p.coeffs[e] for c, p in zip(gcoeffs, powers[1:])) for e in range(order)],
            order,
        )
        - w.truncate(order)
    )
    slope = TruncatedSeries.make(
        [
            sum((m + 1) * c * p.coeffs[e] for m, (c, p) in enumerate(zip(gcoeffs, powers)))
            for e in range(order)
        ],
        order,
    )
    return residual, slope


def _x_series_w(curve, order_w):
    """Solve X(w) * G(X(w)) = w by Newton iteration, in the variable w = z^2.

    The seed w/G(0) is correct through order 2 and Newton doubles the
    number of correct coefficients each round; the residual is asserted
    to vanish identically at the working order before returning.
    """
    gcoeffs = poly(*curve.moduli_polynomial()).coeffs
    w = TruncatedSeries.monomial(1, 1, truncation=order_w)
    x = TruncatedSeries.make((Fraction(0), 1 / curve.g_at_zero()), 2)
    correct = 2
    while correct < order_w:
        correct = min(2 * correct, order_w)
        x = TruncatedSeries.make(x.coeffs, correct)
        residual, slope = _residual_and_slope(gcoeffs, x, w)
        x = (x - residual * slope.inverse(correct)).truncate(correct)
    final, _ = _residual_and_slope(gcoeffs, x, w)
    if not final.is_zero_to_truncation():
        raise IndexOutOfRange("local solve failed to converge at the working order")
    return x


def _canonical_rows_w(x, genus, order_w):
    """w-expansions of the canonical frame functions x^i x'/z, i = 0..g-1,
    from the solved series x, known through w-order order_w + 1.

    In w-form: x'/z = 2 dX/dw, so row i is X^i * 2X'(w), made as X times
    row i-1. Row i has exact w-valuation i (z-valuation 2i), which is
    asserted.
    """
    row = x.derivative().scale(2).truncate(order_w)
    rows = []
    for i in range(genus):
        if row.valuation() != i:
            raise IndexOutOfRange(
                f"canonical function {i} has unexpected vanishing order"
            )
        rows.append(row)
        row = (row * x).truncate(order_w)
    return tuple(rows)


def _oracle_jets(series_w, max_order):
    return tuple(
        Fraction(0) if h % 2 else series_w.coefficient(h // 2) * math.factorial(h)
        for h in range(max_order + 1)
    )


def assert_jets_match_oracle(curve, order_w):
    """x, canonical and omega jet tables equal the Newton route's at w-order order_w."""
    genus = curve.genus
    top = 2 * order_w - 2
    # One solve serves both tables: its coefficients are unique, and its
    # residual check at the larger order implies the one at order_w. Every
    # row's w-valuation (at most genus) must be visible at the rows' order.
    rows_order = max(order_w, genus + 2)
    x = _x_series_w(curve, rows_order + 1)
    rows = _canonical_rows_w(x, genus, rows_order)
    assert x_derivatives(curve, top) == _oracle_jets(x.truncate(order_w), top)
    assert canonical_derivatives(curve, top) == tuple(
        _oracle_jets(row, top) for row in rows
    )
    assert omega_derivatives(curve, top - 2) == tuple(
        _oracle_jets(rows[genus - k].shift_down(1), top - 2)
        for k in range(1, genus)
    )


@pytest.mark.parametrize("genus", range(3, 13))
def test_jets_equal_the_newton_route_at_w_order_26(genus):
    assert_jets_match_oracle(default_curve(genus), 26)
    assert_jets_match_oracle(random_curve(genus, random.Random(genus)), 26)


_branch_point = st.fractions(min_value=-60, max_value=60, max_denominator=12).filter(
    lambda t: t != 0
)


@settings(max_examples=20, deadline=None)
@given(st.lists(_branch_point, min_size=7, max_size=9, unique=True).filter(
    lambda points: len(points) % 2 == 1
))
def test_jets_equal_the_newton_route_on_rational_branch_points(points):
    curve = new_curve([0, *points])
    assert_jets_match_oracle(curve, 9)


@pytest.mark.parametrize(
    "make", [lambda: default_curve(5), lambda: random_curve(6, random.Random(3))]
)
def test_a_larger_order_extends_the_tables_of_a_smaller_one(make):
    curve = make()
    canonical_derivatives(curve, 9)
    x_derivatives(curve, 6)
    expand_omega(curve, curve.genus - 1, 3)
    assert canonical_derivatives(curve, 40) == canonical_derivatives(make(), 40)
    assert x_derivatives(curve, 44) == x_derivatives(make(), 44)
    assert omega_derivatives(curve, 36) == omega_derivatives(make(), 36)
    assert x_of_z(curve, 31) == x_of_z(make(), 31)


def _leaves(value):
    """The values inside nested tuples, lists and dicts."""
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from _leaves(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _leaves(item)
    else:
        yield value


def test_the_jet_state_holds_integers_only():
    curve = random_curve(5, random.Random(4))
    x_derivatives(curve, 12)
    canonical_derivatives(curve, 12)
    omega_derivatives(curve, 12)
    x_of_z(curve, 13)
    expand_canonical(curve, 2, 13)
    expand_omega(curve, 2, 13)
    leaves = list(_leaves(vars(curve.jets)))
    assert leaves and all(type(v) is int for v in leaves)
    assert not any(isinstance(v, Fraction) for v in leaves)


def test_the_suites_read_no_fraction_jet_view(monkeypatch):
    """The `Fraction` views of the jets live in `series_oracle` and stay off
    the computing paths: no gaussmap module binds one, and with each raising
    wherever it is bound, the witness and factorization runs print the same
    bytes."""
    runs = (
        ("verify", "--theorem", "T6.9", "--g", "9", "--seed", "0"),
        ("verify", "--theorem", "L3.4", "--g", "9"),
    )
    views = ("canonical_derivatives", "x_derivatives", "omega_derivatives")

    def refused(*args):
        raise AssertionError("a Fraction jet view was read")

    def package_modules():
        return [m for name, m in sys.modules.items() if name.split(".")[0] == "gaussmap"]

    with monkeypatch.context() as patch:
        for module in [series_oracle, *package_modules()]:
            for view in views:
                if getattr(module, view, None) is getattr(series_oracle, view):
                    patch.setattr(module, view, refused)
        assert series_oracle.canonical_derivatives is refused
        patched = [cli_stdout(*argv) for argv in runs]
    assert patched == [cli_stdout(*argv) for argv in runs]
    assert not [(m, view) for m in package_modules() for view in views if hasattr(m, view)]
    assert "gaussmap.series" not in sys.modules


_HENSEL_WEIGHTS = curve_module._hensel_weights


def _bumped_weights(ghat):
    weights = list(_HENSEL_WEIGHTS(ghat))
    weights[1] += 1
    return tuple(weights)


def test_a_wrong_hensel_weight_fails_the_residual_check(monkeypatch):
    monkeypatch.setattr(curve_module, "_hensel_weights", _bumped_weights)
    with pytest.raises(IdentityFailed, match="x \\* G\\(x\\) = z\\^2 fails at z\\^4"):
        canonical_derivatives(default_curve(3), 8)


def test_a_wrong_hensel_weight_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(curve_module, "_hensel_weights", _bumped_weights)
    code = main(["verify", "--theorem", "R4.1", "--g", "3"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("gaussmap: falsified: x * G(x) = z^2 fails")
    assert "Traceback" not in err


def _bumped_last_weight(ghat):
    weights = list(_HENSEL_WEIGHTS(ghat))
    weights[-1] += 1
    return tuple(weights)


def test_a_wrong_last_hensel_weight_fails_the_x_chart_item(monkeypatch, capsys):
    """c_(2g+1) is first read by Y_(2g+1), and at g=3 only the x-chart
    cross-check reads that far (z^16): the residual check reaches it there."""
    monkeypatch.setattr(curve_module, "_hensel_weights", _bumped_last_weight)
    code = main(["verify", "--theorem", "T6.5", "--g", "3"])
    captured = capsys.readouterr()
    assert code == 1 and "Traceback" not in captured.err
    failing = [c for c in json.loads(captured.out)["checks"] if not c["ok"]]
    assert failing and all(
        c["item"].startswith("g=3 x-chart cross-check of the first vanishing on ")
        and c["got"].startswith("x * G(x) = z^2 fails at z^16")
        for c in failing
    )


def test_every_order_read_is_checked_once(monkeypatch):
    """The residual check runs at each order a column or the lift reads,
    once, and at no order beyond."""
    checked = []
    original = curve_module.Jets._check

    def counted(jets, n):
        checked.append(n)
        return original(jets, n)

    monkeypatch.setattr(curve_module.Jets, "_check", counted)
    jets = default_curve(4).jets
    jets.columns(10)
    assert checked == list(range(6))
    jets.columns(7)
    jets.lift(3)
    assert checked == list(range(6))
    jets.lift(9)
    assert checked == list(range(9))


# -- the Lagrange-inversion closed form of a jet column -------------------------------


def _inverse_powers(coeffs, length):
    """G^(-1) .. G^(-length) through t^(length-1), in Fractions: G^(-1) by
    plain series inversion, each next power as a product with it."""
    inverse = []
    for j in range(length):
        known = sum(coeffs[l] * inverse[j - l] for l in range(1, min(j, len(coeffs) - 1) + 1))
        inverse.append(((1 if j == 0 else 0) - known) / coeffs[0])
    powers = [inverse]
    while len(powers) < length:
        last = powers[-1]
        powers.append(
            [sum(last[a] * inverse[j - a] for a in range(j + 1)) for j in range(length)]
        )
    return powers


@pytest.mark.parametrize("genus", range(3, 9))
def test_jet_columns_equal_the_lagrange_inversion_closed_form(genus):
    """By Lagrange inversion of x G(x) = w, row i of the canonical table at
    z^(2m) (jet 2m over (2m)!) is 2 [t^(m-i)] G(t)^(-(m+1)), and 0 for i > m."""
    top = 12
    points = [0] + [F((-1) ** i * (3 * i + 1), i + 1) for i in range(1, 2 * genus + 2)]
    for curve in (default_curve(genus), new_curve(points)):
        ghat, scale = curve.moduli_polynomial()
        powers = _inverse_powers([F(c, scale) for c in ghat], top + 1)
        table = canonical_derivatives(curve, 2 * top)
        for m in range(top + 1):
            assert [row[2 * m] / math.factorial(2 * m) for row in table] == [
                2 * powers[m][m - i] if i <= m else 0 for i in range(genus)
            ]
