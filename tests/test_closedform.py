"""Tests for the closed-form algebra module.

The radical and kernel identities are polynomial in the diagonal-marker
sample, so vanishing at the four pinned samples to a healthy x-order is
the verification strategy throughout; the column-convex and directed
closed forms are checked against the exhaustive generator, which was
itself validated cell by cell.
"""

import re
from fractions import Fraction

import pytest

import reference_series

from dcpoly import brute, closedform, layered, ratios
from dcpoly.closedform import (
    column_convex_gf,
    column_convex_perimeter_counts,
    directed_series,
    kernel_residuals,
    kernel_sextic,
    radicals,
    ratio_table,
    roots,
    ternary_count,
)
from dcpoly.series import XSeries

D_SAMPLES = (Fraction(1), Fraction(1, 2), Fraction(2), Fraction(3))

KNOWN_COLUMN_CONVEX = {4: 1, 6: 2, 8: 7, 10: 28, 12: 122, 14: 558, 16: 2641}


def test_kernel_radical_leading_terms():
    value = radicals(1, 6).kernel.value
    assert value == XSeries.from_terms({0: 1, 4: -1, 6: -1}, 6)


def test_kernel_radical_collapses_without_marker():
    value = radicals(0, 16).kernel.value
    assert value == XSeries.from_terms({0: 1, 4: -1}, 16)


def test_nested_radical_constant_term():
    assert radicals(1, 0).nested.value.coefficient(0) == 3


@pytest.mark.parametrize("d", D_SAMPLES)
def test_radicals_square_back(d):
    triple = radicals(d, 24)
    for radical in triple:
        assert radical.value * radical.value == radical.radicand


def test_quadratic_factor_at_unit_sample():
    # in t = x^2: 1 - (1 + t^2 - t^3) z + t^2 z^2
    factors = closedform._kernel_factors(1, 4)
    assert factors.quadratic == (
        XSeries.one(4),
        XSeries.from_terms({3: 1, 2: -1, 0: -1}, 4),
        XSeries.from_terms({2: 1}, 4),
    )


def test_plain_factor_boundary_terms():
    # x^0, x^20 and x^22 are t^0, t^10 and t^11
    plain = closedform._kernel_factors(2, 12).plain
    assert plain.coefficient(0) == -1
    assert plain.coefficient(10) == 1
    assert plain.coefficient(11) == 4


@pytest.mark.parametrize("d", (1, 2, 3))
def test_kernel_sextic_has_integer_coefficients(d):
    for coeff_series in kernel_sextic(d, 20):
        assert all(c.denominator == 1 for c in coeff_series.coeff_list())


def test_quadratic_root_constant_term():
    assert roots(1, 8).quadratic.coefficient(0) == 1


def test_roots_require_nonzero_sample():
    with pytest.raises(ValueError):
        roots(0, 8)


def test_radicals_reject_minus_two_naming_the_sample():
    # the nested radicand's constant term is (d+2)^2; naming it beats the
    # series layer's "constant term 0 is not a positive rational square"
    with pytest.raises(ValueError, match=r"d=-2 .*\(d\+2\)\^2"):
        radicals(-2, 8)


def test_quartic_roots_live_in_expected_extension():
    # 4 + (1/2)^2 = 17/4; the root's constant term is 2/aux(0), with
    # aux(0) = (9 + sqrt 17)/4, which is (9 - sqrt 17)/8
    root = roots(Fraction(1, 2), 8).quartic_plus
    assert root.disc == 17
    assert (root.a.coefficient(0), root.b.coefficient(0)) == (Fraction(9, 8), Fraction(-1, 8))


@pytest.mark.parametrize("order", (23, 24))
@pytest.mark.parametrize("d", D_SAMPLES)
def test_x_reading_matches_the_fraction_loops_in_x(d, order):
    """closedform runs its algebra in t = x^2; this route stays in x, with
    literal x-polynomials and the Fraction loops of reference_series."""
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
    for radical, radicand in zip(radicals(d, order), (kernel, base, nested)):
        assert radical.radicand == radicand
        assert radical.value == reference_series.sqrt(radicand)

    e, high = d * d, order + 4
    discriminant = xs({0: 1, 4: -2, 6: -2 * e, 8: 1, 10: -2 * e, 12: e * e}, high)
    numerator = reference_series._minus(
        xs({0: 1, 4: 1, 6: -e}, high), reference_series.sqrt(discriminant)
    )
    quadratic = reference_series.divide(numerator, xs({4: 2}, high))
    assert quadratic.order == order
    assert roots(d, order).quadratic == quadratic


@pytest.mark.parametrize("d", D_SAMPLES)
def test_quartic_minus_is_the_conjugate_of_quartic_plus(d):
    r = roots(d, 16)
    assert not r.quartic_plus.b.is_zero()
    assert r.quartic_minus.a == r.quartic_plus.a
    assert r.quartic_minus.b == -r.quartic_plus.b


@pytest.mark.parametrize("order", (16, 17))
@pytest.mark.parametrize("d", D_SAMPLES)
def test_kernel_residuals_vanish(d, order):
    residuals = kernel_residuals(d, order)
    assert len(residuals) == 7
    assert all(residual.is_zero() for residual in residuals)


@pytest.mark.parametrize("d", D_SAMPLES)
def test_quartic_pair_remainder_vanishes(d):
    residuals = kernel_residuals(d, 12)
    assert residuals.remainder_z1.is_zero()
    assert residuals.remainder_z0.is_zero()


@pytest.mark.parametrize("d", D_SAMPLES)
def test_symmetric_identities_hold(d):
    residuals = kernel_residuals(d, 12)
    assert residuals.root_sum.is_zero()
    assert residuals.reciprocal_sum.is_zero()


@pytest.mark.parametrize("r", (1, Fraction(1, 2)))
def test_column_convex_variants_agree(r):
    series = [column_convex_gf(v, r, 24) for v in ("ratio", "nested", "split")]
    assert series[0] == series[1] == series[2]


@pytest.mark.parametrize("order", (80, 81))
@pytest.mark.parametrize("r", (1, Fraction(1, 2), 2))
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


def test_integer_square_root_halving_is_checked_not_floored(monkeypatch):
    """Every numerator the integer recurrence halves is even; an odd one,
    here from a convolution off by one, raises instead of flooring."""
    monkeypatch.setattr(ratios, "mul", lambda x, y: x * y + 1)
    with pytest.raises(ArithmeticError, match="odd numerator .* x\\^2"):
        column_convex_perimeter_counts(8)


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
