"""Tests for the closed-form algebra module.

The radical and kernel identities are polynomial in the diagonal-marker
sample, so vanishing at the four pinned samples to a healthy order in
t = x^2 is the verification strategy throughout; the column-convex and
directed closed forms are checked against the exhaustive generator,
which was itself validated cell by cell.
"""

import math
import random
import re
from fractions import Fraction

import pytest

import reference_series

from dcpoly import brute, closedform, layered, ratios
from dcpoly.closedform import (
    column_convex_gf,
    directed_series,
    kernel_residuals,
    radicals,
    roots,
    ternary_count,
)
from dcpoly.ratios import column_convex_perimeter_counts, ratio_table
from dcpoly.series import XSeries

D_SAMPLES = (Fraction(1), Fraction(1, 2), Fraction(2), Fraction(3))

KNOWN_COLUMN_CONVEX = {4: 1, 6: 2, 8: 7, 10: 28, 12: 122, 14: 558, 16: 2641}


def test_kernel_radical_leading_terms():
    # in t = x^2: 1 - t^2 - t^3
    value = radicals(1, 3).kernel.value
    assert value == XSeries.from_terms({0: 1, 2: -1, 3: -1}, 3)


def test_kernel_radical_collapses_without_marker():
    value = radicals(0, 8).kernel.value
    assert value == XSeries.from_terms({0: 1, 2: -1}, 8)


@pytest.mark.parametrize("n", (6, 15, 30))
def test_the_kernel_functions_return_series_through_t_to_the_n(n):
    """radicals, roots and kernel_residuals take a t-order and return
    every series through t^n, not through x^n."""
    found = [
        *(s for radical in radicals(2, n) for s in radical),
        *roots(2, n),
        *kernel_residuals(2, n),
    ]
    assert len(found) == 6 + 3 + 10
    assert {s.order for s in found} == {n}


def test_nested_radical_constant_term():
    assert radicals(1, 0).nested.value.coefficient(0) == 3


@pytest.mark.parametrize("d", D_SAMPLES)
def test_radicals_square_back(d):
    triple = radicals(d, 24)
    for radical in triple:
        assert radical.value * radical.value == radical.radicand


def _factors(d, n):
    """The quadratic and the quartic kernel factor at marker d, through t^n."""
    return ([closedform._at(c, d, n) for c in f] for f in (closedform._QUADRATIC, closedform._QUARTIC))


def test_quadratic_factor_at_unit_sample():
    # in t = x^2: 1 - (1 + t^2 - t^3) z + t^2 z^2
    quadratic, _ = _factors(1, 4)
    assert quadratic == [
        XSeries.one(4),
        XSeries.from_terms({3: 1, 2: -1, 0: -1}, 4),
        XSeries.from_terms({2: 1}, 4),
    ]


def test_kernel_factors_take_the_marker_itself():
    # the quadratic's z^1 term is -1 - t^2 + e t^3 at marker e, not at e^2
    z1 = closedform._QUADRATIC[1]
    assert closedform._at(z1, 2, 4).coefficient(3) == 2
    third = Fraction(1, 3)
    assert closedform._at(z1, third, 4).coefficient(3) == third


def _fraction_at(table, d, n):
    """The reference for ``_at``: each coefficient summed as Fractions."""
    d = Fraction(d)
    terms = {k: sum(c * d**j for j, c in row.items()) for k, row in table.items()}
    return XSeries.from_terms(terms, n)


@pytest.mark.parametrize("seed", range(6))
def test_the_table_evaluator_matches_fraction_sums(seed):
    """Random tables of t-degree up to 8 and e-degree up to 2, read through
    and past their top t-degree, at samples of either sign and q > 1."""
    rng = random.Random(seed)
    table = {
        k: {j: rng.randint(-50, 50) for j in rng.sample(range(3), rng.randint(1, 3))}
        for k in rng.sample(range(9), rng.randint(1, 9))
    }
    for d in (Fraction(-7, 3), Fraction(5, 4), Fraction(-1, 6), Fraction(-4), Fraction(2)):
        for n in (0, max(table) - 1, max(table), 12):
            assert closedform._at(table, d, max(n, 0)) == _fraction_at(table, d, max(n, 0))


@pytest.mark.parametrize("d", D_SAMPLES)
def test_the_swing_table_is_its_factored_product(d):
    """swing^2 = d(1 - t)^2 (1 + t)(4 + d + (4 - 3d)t + 4d t^2), built here
    as a product of series, against the expanded table."""
    xs = XSeries.from_terms
    factored = (
        xs({0: d, 1: -2 * d, 2: d}, 8) * xs({0: 1, 1: 1}, 8) * xs({0: 4 + d, 1: 4 - 3 * d, 2: 4 * d}, 8)
    )
    assert closedform._at(closedform._SWING_SQUARED, d, 8) == factored


@pytest.mark.parametrize("d", (1, 2, 3, -3, 5))
def test_the_quadratic_root_is_the_catalan_sum_in_one_over_b(d):
    """At marker d the series root of 1 - b z + t^2 z^2, b = 1 + t^2 - d t^3,
    is the sum of C_(k-1) t^(2k-2) b^(1-2k) over k >= 1, so at integer d
    every coefficient is an integer."""
    n = 20
    over_b = XSeries.one(n).divide(XSeries.from_terms({0: 1, 2: 1, 3: -d}, n))
    total, power = XSeries.zero(n), over_b
    for k in range(1, n // 2 + 2):
        term = power * XSeries.from_terms({2 * k - 2: math.comb(2 * k - 2, k - 1) // k}, n)
        total, power = total + term, power * over_b * over_b
    root = roots(d, n).quadratic
    assert root == total
    assert all(c.denominator == 1 for c in root.coeff_list())


def test_quadratic_root_constant_term():
    assert roots(1, 8).quadratic.coefficient(0) == 1


def test_roots_require_nonzero_sample():
    with pytest.raises(ValueError, match=r"d=0 .*\(1 - z\)\^3 \(1 - t\^2 z\)\^3.* z=1$"):
        roots(0, 8)
    # the reason holds: at marker 0 the quadratic factor is (1 - z)(1 - t^2 z)
    # and the quartic its square
    quadratic, quartic = _factors(0, 8)
    square = [XSeries.zero(8)] * 5
    for i, a in enumerate(quadratic):
        for j, b in enumerate(quadratic):
            square[i + j] = square[i + j] + a * b
    assert quadratic == [
        XSeries.one(8), XSeries.from_terms({0: -1, 2: -1}, 8), XSeries.from_terms({2: 1}, 8)
    ]
    assert square == quartic


def test_radicals_reject_minus_two_naming_the_sample():
    # the nested radicand's constant term is (d+2)^2; naming it beats the
    # series layer's "constant term 0 is not a positive rational square"
    with pytest.raises(ValueError, match=r"d=-2 .*\(d\+2\)\^2"):
        radicals(-2, 8)


@pytest.mark.parametrize("order", (23, 24))
@pytest.mark.parametrize("d", D_SAMPLES)
def test_x_reading_matches_the_fraction_loops_in_x(d, order):
    """closedform runs its algebra in t = x^2; this route stays in x, with
    literal x-polynomials and the Fraction loops of reference_series, and
    reads closedform's t-series in x through reference_series.at_square."""
    in_x = reference_series.at_square
    xs = XSeries.from_terms
    kernel = xs({0: 1, 4: -2, 6: -2 * d, 8: 1, 10: -2 * d, 12: d * d}, order)
    base = xs(
        {0: 1, 2: -4 - 4 * d, 4: 6 + 8 * d, 6: -4 - 2 * d, 8: 1 - 4 * d, 10: 2 * d, 12: d * d},
        order,
    )
    nested_plain = xs(
        {
            0: 2 + 4 * d + d * d,
            2: -4 * d - 4 * d * d,
            4: -4 + 6 * d * d,
            8: 2 + 4 * d - 7 * d * d,
            10: 4 * d + 4 * d * d,
            12: 2 * d * d,
        },
        order,
    )
    nested_base = reference_series.mul(
        xs({0: 2, 2: 4, 4: 2, 6: 2 * d}, order), reference_series.sqrt(base)
    )
    nested = reference_series._minus(nested_plain, nested_base, -1)
    for radical, radicand in zip(radicals(d, order // 2), (kernel, base, nested)):
        assert in_x(radical.radicand, order) == radicand
        assert in_x(radical.value, order) == reference_series.sqrt(radicand)

    high = order + 4
    discriminant = xs({0: 1, 4: -2, 6: -2 * d, 8: 1, 10: -2 * d, 12: d * d}, high)
    numerator = reference_series._minus(
        xs({0: 1, 4: 1, 6: -d}, high), reference_series.sqrt(discriminant)
    )
    quadratic = reference_series.divide(numerator, xs({4: 2}, high))
    assert quadratic.order == order
    assert in_x(roots(d, order // 2).quadratic, order) == quadratic


@pytest.mark.parametrize("order", (16, 17, 60))
@pytest.mark.parametrize(
    "d", (1, Fraction(1, 2), Fraction(3, 2), -1, 5, Fraction(1, 3), Fraction(21, 10))
)
def test_quartic_roots_are_the_small_roots_of_their_quadratics(d, order):
    """Each of the two series roots is the small root of
    x^4 z^2 - (aux/2) z + 1 for one aux = shape +- swing, and each of those
    quadratics has exactly one series root; so the quadratic z^2 - s z + p
    the roots span is the monic factor with series coefficients of the
    product of the two.  The product is expanded here in x, rationally,
    through aux+ + aux- = 2 shape and aux+ aux- = shape^2 - swing^2, from
    shape and swing^2 typed in x; the Fraction loops of reference_series
    divide it by z^2 - s z + p, with s and p from roots(d) read in x, and
    the remainder must vanish."""
    xs = XSeries.from_terms
    d = Fraction(d)
    mul, minus = reference_series.mul, reference_series._minus
    shape = xs({0: 2 + d, 2: -2 * d, 4: 2 + d, 6: 2 * d}, order)
    swing_squared = mul(
        xs({0: d, 2: -2 * d, 4: d}, order),
        mul(xs({0: 1, 2: 1}, order), xs({0: 4 + d, 2: 4 - 3 * d, 4: 4 * d}, order)),
    )
    middle = minus(mul(shape, shape), swing_squared)
    middle = minus(xs({4: 2}, order), mul(middle, xs({0: Fraction(-1, 4)}, order)))
    # descending in z: x^8, -x^4 shape, middle, -shape, 1
    work = [
        xs({8: 1}, order), mul(shape, xs({4: -1}, order)), middle,
        minus(XSeries.zero(order), shape), XSeries.one(order),
    ]
    found = roots(d, order // 2)
    total, product = (reference_series.at_square(s, order) for s in found[1:])
    for i in range(3):
        work[i + 1] = minus(work[i + 1], mul(work[i], total), -1)
        work[i + 2] = minus(work[i + 2], mul(work[i], product))
    assert work[3].is_zero() and work[4].is_zero()


@pytest.mark.parametrize("order", (16, 17, 60))
@pytest.mark.parametrize(
    "d", (Fraction(1, 2), Fraction(4, 3), Fraction(-9, 2), Fraction(-16, 3))
)
def test_the_quartic_root_sum_and_product_match_the_roots_themselves(d, order):
    """Where d(4 + d) is a rational square, the quartic's two series roots
    are rational too: each is the small root (aux - alpha)/(4x^4) of
    x^4 z^2 - (aux/2) z + 1, aux = shape +- swing and alpha the square
    root of aux^2 - 16x^4 with alpha(0) = aux(0).  Here they are built one
    by one in x with the Fraction loops of reference_series, and their
    sum and product are read against roots(d), which takes both from the
    nested radical.  Below d = -4 both aux(0) are negative, and so is
    the branch of the nested radical that roots must take."""
    xs = XSeries.from_terms
    high = order + 4
    swing_squared = reference_series.mul(
        xs({0: d, 2: -2 * d, 4: d}, high),
        reference_series.mul(xs({0: 1, 2: 1}, high), xs({0: 4 + d, 2: 4 - 3 * d, 4: 4 * d}, high)),
    )
    swing = reference_series.sqrt(swing_squared)
    shape = xs({0: 2 + d, 2: -2 * d, 4: 2 + d, 6: 2 * d}, high)
    small = []
    for sign in (1, -1):
        aux = reference_series._minus(shape, swing, -sign)
        alpha = reference_series.sqrt(
            reference_series._minus(reference_series.mul(aux, aux), xs({4: 16}, high))
        )
        if aux.coefficient(0) < 0:
            alpha = reference_series._minus(XSeries.zero(high), alpha)
        small.append(
            reference_series.divide(reference_series._minus(aux, alpha), xs({4: 4}, high))
        )
    got = roots(d, order // 2)
    in_x = reference_series.at_square
    assert in_x(got.quartic_sum, order) == reference_series._minus(small[0], small[1], -1)
    assert in_x(got.quartic_product, order) == reference_series.mul(*small)


@pytest.mark.parametrize("order", (12, 16, 17, 60))
@pytest.mark.parametrize("d", D_SAMPLES)
def test_kernel_residuals_vanish(d, order):
    residuals = kernel_residuals(d, order)
    assert len(residuals) == 10
    assert all(residual.is_zero() for residual in residuals)


@pytest.mark.parametrize("d", D_SAMPLES)
def test_quartic_pair_remainder_vanishes(d):
    residuals = kernel_residuals(d, 12)
    assert residuals.remainder_z1.is_zero()
    assert residuals.remainder_z0.is_zero()


@pytest.mark.parametrize("d", D_SAMPLES + (Fraction(-3), Fraction(-5, 2)))
def test_symmetric_identities_hold(d):
    """The identities in the symmetric functions aux+ + aux- = 2 shape,
    aux+ aux- = shape^2 - swing^2 and those of alpha+-."""
    residuals = kernel_residuals(d, 12)
    assert residuals.discriminant.is_zero()
    assert residuals.quartic_middle.is_zero()
    assert residuals.nested_rational.is_zero()
    assert residuals.nested_base.is_zero()
    # the product of the quartic's series roots is a unit: constant term 1
    assert roots(d, 12).quartic_product.coefficient(0) == 1


@pytest.mark.parametrize("r", (1, Fraction(1, 2)))
def test_column_convex_variants_agree(r):
    series = [column_convex_gf(v, r, 24) for v in ("ratio", "nested", "split")]
    assert series[0] == series[1] == series[2]


@pytest.mark.parametrize("order", (80, 81))
@pytest.mark.parametrize("r", (1, Fraction(1, 2), 2, Fraction(3, 5), -2))
def test_split_form_equals_the_other_two_at_high_order(r, order):
    """The split form builds its second radical by negating the odd
    coefficients of the first; that symmetry must hold at every r, and
    at an odd order, where the top coefficient is odd."""
    split = column_convex_gf("split", r, order)
    assert split == column_convex_gf("ratio", r, order) == column_convex_gf("nested", r, order)


def test_column_convex_counts_match_exhaustive():
    counts = column_convex_perimeter_counts(16)
    assert counts == KNOWN_COLUMN_CONVEX
    assert counts == brute.column_convex_counts(16)
    assert column_convex_perimeter_counts(40) == brute.column_convex_counts(40)


@pytest.mark.parametrize("order", (200, 201))
def test_integer_counts_equal_the_split_series(order):
    """The integer route and the rational split form agree coefficient by
    coefficient, at an odd order too, where ``verify`` may call it."""
    series = column_convex_gf("split", 1, order)
    expected = {k: int(c) for k, c in enumerate(series.coeff_list()) if c}
    assert all(c.denominator == 1 for c in series.coeff_list())
    assert column_convex_perimeter_counts(order) == expected


@pytest.mark.parametrize(
    "k, bump, detail",
    [
        (3, 1, "768/2^10 at x^4"),
        (7, 1, "7077888/2^20 at x^8"),
        (39, 1, "/2^100 at x^40"),
        # an integral but negative count
        (3, 8, "count -1 at x^4"),
    ],
)
def test_a_mistyped_radicand_raises(monkeypatch, k, bump, detail):
    def bumped(order):
        f = radicand(order)
        f[k] += bump
        return f

    radicand = ratios._radicand
    monkeypatch.setattr(ratios, "_radicand", bumped)
    with pytest.raises(ArithmeticError, match="impossible .*" + re.escape(detail)):
        column_convex_perimeter_counts(40)


def test_integer_square_root_division_is_checked_not_floored(monkeypatch):
    """Every division of the square root's recurrence is exact; a radicand
    with constant term 9, whose root 3 + ... has no integer coefficients
    over s_0 = 1, makes the first one inexact, which raises instead of
    flooring."""
    def mistyped(order):
        return [9] + radicand(order)[1:]

    radicand = ratios._radicand
    monkeypatch.setattr(ratios, "_radicand", mistyped)
    with pytest.raises(ArithmeticError, match="inexact division .* x\\^1$"):
        column_convex_perimeter_counts(8)


def convolution_root(f):
    """The reference: s_k = (4^k f_k - sum_{0<j<k} s_j s_(k-j)) / 2, the
    halving checked, for s_k / 4^k the coefficients of sqrt(f)."""
    s = [1]
    for k in range(1, len(f)):
        twice = (f[k] << 2 * k) - sum(s[j] * s[k - j] for j in range(1, k))
        assert twice % 2 == 0
        s.append(twice // 2)
    return s


@pytest.mark.parametrize(
    "order, bumps",
    [(order, {}) for order in (1, 2, 5, 40, 160, 400)]
    + [(40, {3: 1}), (40, {7: 1, 8: -3}), (40, {2: 5, 39: 1})],
)
def test_square_root_by_its_ode_equals_the_convolution(order, bumps):
    """The seven-term recurrence of the linear ODE of sqrt(f) gives the
    coefficients of the k-term convolution at every order, and, read off
    the radicand, also for a changed one, whose numerator f(1 - x^2)
    runs to high degree."""
    f = ratios._radicand(order)
    for k, bump in bumps.items():
        f[k] += bump
    assert ratios._scaled_root(f) == convolution_root(f)


@pytest.mark.parametrize("variant", ("ratio", "nested", "split"))
def test_column_convex_leading_terms(variant):
    series = column_convex_gf(variant, 1, 6)
    assert series == XSeries.from_terms({4: 1, 6: 2}, 6)


def test_column_convex_rejects_unknown_variant():
    with pytest.raises(ValueError):
        column_convex_gf("other", 1, 8)


def test_directed_series_matches_ternary_formula():
    series = directed_series(15)
    assert all(
        series.coefficient(k) == ternary_count(k) for k in range(1, 16)
    )
    assert series.coefficient(0) == 0


def test_directed_series_matches_exhaustive():
    series = directed_series(4)
    assert brute.directed_counts_by_diagonals(4) == {
        k: int(series.coefficient(k)) for k in range(1, 5)
    }


def test_ternary_count_prefix():
    assert [ternary_count(k) for k in range(1, 6)] == [1, 3, 12, 55, 273]


def test_round_half_even_rendering():
    decimal = ratios._decimal
    assert decimal(1, 8, 4) == "0.1250"
    assert decimal(100005, 100000, 4) == "1.0000"
    assert decimal(100015, 100000, 4) == "1.0002"
    assert decimal(-1, 8, 4) == "-0.1250"
    assert decimal(5, 2, 0) == "2"
    assert decimal(7, 2, 0) == "4"
    assert decimal(3, 1, 4) == decimal(6, 2, 4) == "3.0000"
    assert decimal(-2, 1, 0) == decimal(-4, 2, 0) == "-2"


def test_ratio_text_depends_only_on_the_ratio(monkeypatch):
    """Each ratio is rendered from its two counts as they stand; scaling
    both by 3 leaves every rendered ratio unchanged."""
    reduced = ratio_table(40)
    for module, name in ((layered, "perimeter_counts"), (ratios, "column_convex_perimeter_counts")):
        counts = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda n, counts=counts: {k: 3 * c for k, c in counts(n).items()}
        )
    unreduced = ratio_table(40)
    assert [row.column_convex for row in unreduced] == [3 * row.column_convex for row in reduced]
    assert [row.ratio for row in unreduced] == [row.ratio for row in reduced]


def test_ratio_table_published_prefix():
    rows = ratio_table(16)
    ratios = {row.perimeter: row.ratio for row in rows}
    assert ratios == {
        4: "1.0000",
        6: "1.0000",
        8: "1.0000",
        10: "1.0000",
        12: "1.0000",
        14: "1.0036",
        16: "1.0088",
    }
    by_perimeter = {row.perimeter: row for row in rows}
    assert by_perimeter[14].column_convex == 558
    assert by_perimeter[14].diagonally_convex == 556


def test_ratio_table_rejects_odd_bound():
    with pytest.raises(ValueError):
        ratio_table(15)
