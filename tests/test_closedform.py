"""Tests for the closed-form algebra module.

The radical and kernel identities are polynomial in the diagonal-marker
sample, so vanishing at the four pinned samples to a healthy order in
t = x^2 is the verification strategy throughout; the column-convex and
directed closed forms are checked against the exhaustive generator,
which was itself validated cell by cell.
"""

import math
import re
from fractions import Fraction

import pytest

import reference_series

from dcpoly import brute, closedform, layered, ratios
from dcpoly.closedform import (
    column_convex_gf,
    directed_series,
    kernel_residuals,
    kernel_sextic,
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
    """radicals, roots, kernel_sextic and kernel_residuals take a t-order
    and return every series through t^n, not through x^n."""
    found = [
        *(s for radical in radicals(2, n) for s in radical),
        *(s for s in roots(2, n) if isinstance(s, XSeries)),
        *kernel_sextic(2, n),
        *kernel_residuals(2, n),
    ]
    assert len(found) == 6 + 3 + 7 + 10
    assert {s.order for s in found} == {n}


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


def test_kernel_factors_take_the_marker_itself():
    # the quadratic's z^1 term is -1 - t^2 + e t^3 at marker e, not at e^2
    assert closedform._kernel_factors(2, 4).quadratic[1].coefficient(3) == 2
    third = Fraction(1, 3)
    assert closedform._kernel_factors(third, 4).quadratic[1].coefficient(3) == third


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
    # 4 + (1/2)^2 = 17/4; the (+) root's constant term is 2/aux(0), with
    # aux(0) = (9 + sqrt 17)/4, which is (9 - sqrt 17)/8
    r = roots(Fraction(1, 2), 8)
    assert r.disc == 17
    assert (r.quartic_a.coefficient(0), r.quartic_b.coefficient(0)) == (
        Fraction(9, 8), Fraction(-1, 8)
    )


def test_quartic_roots_are_rational_where_four_plus_d_squared_is_a_square():
    # 4 + (3/2)^2 = 25/4: D = 25 stays unfolded, and a +- 5b are two
    # distinct rational series, each a root of the quartic
    r = roots(Fraction(3, 2), 8)
    assert r.disc == 25
    quartic = closedform._kernel_factors(Fraction(9, 4), 8).quartic
    for sign in (1, -1):
        root = r.quartic_a + r.quartic_b * (5 * sign)
        assert closedform._eval_z_poly(quartic, root).is_zero()
    assert not r.quartic_b.is_zero()


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

    e, high = d * d, order + 4
    discriminant = xs({0: 1, 4: -2, 6: -2 * e, 8: 1, 10: -2 * e, 12: e * e}, high)
    numerator = reference_series._minus(
        xs({0: 1, 4: 1, 6: -e}, high), reference_series.sqrt(discriminant)
    )
    quadratic = reference_series.divide(numerator, xs({4: 2}, high))
    assert quadratic.order == order
    assert in_x(roots(d, order // 2).quadratic, order) == quadratic


@pytest.mark.parametrize("order", (16, 17, 60))
@pytest.mark.parametrize(
    "d", (1, Fraction(1, 2), Fraction(3, 2), -1, 5, Fraction(1, 3), Fraction(21, 10))
)
def test_quartic_roots_are_the_small_roots_of_their_quadratics(d, order):
    """Each quartic root is the small root of x^4 z^2 - (aux/2) z + 1, with
    aux = shape +- d(1 - x^2) sqrt(inner): here it is taken in x over
    Q(sqrt D) by the Fraction loops of reference_series, not denested.
    At d = 3/2 and 21/10, D = 25 and 841 are squares, and both routes
    keep them unfolded.  The roots, in t = x^2, are read in x."""
    xs = XSeries.from_terms
    d = Fraction(d)
    e, high = d * d, order + 4
    disc = (4 + e).numerator
    # sqrt(inner) = sqrt(4 + e) * u = sqrt(D) * u / q for d = p/q
    inner = reference_series.mul(
        xs({0: 1, 2: 1}, high), xs({0: 4 + e, 2: 4 - 3 * e, 4: 4 * e}, high)
    )
    u = reference_series.sqrt(reference_series.mul(inner, xs({0: 1 / (4 + e)}, high)))
    swing = reference_series.mul(xs({0: d / d.denominator, 2: -d / d.denominator}, high), u)
    shape = xs({0: 2 + e, 2: -2 * e, 4: 2 + e, 6: 2 * e}, high)
    got = roots(d, order // 2)
    got_a, got_b = (reference_series.at_square(s, order) for s in got[1:3])
    for sign in (1, -1):
        aux = (shape, reference_series.mul(swing, xs({0: sign}, high)), disc)
        square_a, square_b, _ = reference_series.surd_mul(aux, aux)
        radicand = (reference_series._minus(square_a, xs({4: 16}, high)), square_b, disc)
        s = reference_series.surd_sqrt(radicand, (aux[0].coefficient(0), aux[1].coefficient(0)))
        small = [
            reference_series.divide(reference_series._minus(p, q), xs({4: 4}, high))
            for p, q in zip(aux[:2], s[:2])
        ]
        assert (got_a, got_b * sign, got.disc) == (*small, disc)


@pytest.mark.parametrize("d", D_SAMPLES)
def test_quartic_minus_is_the_conjugate_of_quartic_plus(d):
    # q+- = a +- b*sqrt(D) with D = 4 + d^2 times the square of d's
    # denominator, not a square here: two distinct conjugates
    r = roots(d, 16)
    assert r.disc == (4 + d * d).numerator
    assert math.isqrt(r.disc) ** 2 != r.disc
    assert not r.quartic_b.is_zero()


@pytest.mark.parametrize("order", (12, 16, 17, 60))
@pytest.mark.parametrize("d", D_SAMPLES)
def test_kernel_residuals_vanish(d, order):
    residuals = kernel_residuals(d, order)
    assert len(residuals) == 10
    assert all(residual.is_zero() for residual in residuals)


def _quartic_at_its_roots(d, n):
    """The quartic at a +- b*sqrt(D) as (A, B), through t^n: a Horner pass
    over Q(sqrt D) with reference_series.surd_mul, where kernel_residuals
    reads A and B off the remainder of its division instead."""
    d = Fraction(d)
    _, a, b, disc = roots(d, n)
    quartic = closedform._kernel_factors(d * d, n).quartic
    value = (quartic[-1], XSeries.zero(n), disc)
    for c in reversed(quartic[:-1]):
        real, surd, _ = reference_series.surd_mul(value, (a, b, disc))
        value = (real + c, surd, disc)
    return value[:2]


# at 3/2, 21/10 and -3/2, D = 25, 841 and 25 are squares; x-order 200 is left
# out, as the Horner pass alone takes up to a second there
@pytest.mark.parametrize("order", (12, 61))
@pytest.mark.parametrize(
    "d",
    (1, Fraction(1, 2), 2, 3, Fraction(3, 2), Fraction(21, 10), -1, Fraction(-3, 2)),
)
def test_the_quartic_at_its_roots_matches_a_horner_pass_over_q_sqrt_d(monkeypatch, d, order):
    """A and B agree with the oracle on the real factors, where both vanish,
    and with the z^2 coefficient of the quartic bumped at t^6 (x^12), as in
    the quartic-factor plant of the verify tests, where neither does; there
    they take r1 and r0 each in its own place.  Both run through
    t^(order // 2), as the kernel suite does at ``order``."""
    n = order // 2
    real = closedform._kernel_factors

    def bumped(e, n):
        factors = real(e, n)
        quartic = list(factors.quartic)
        quartic[2] = quartic[2] + XSeries.from_terms({6: 1}, n)
        return factors._replace(quartic=tuple(quartic))

    for factors in (real, bumped):
        monkeypatch.setattr(closedform, "_kernel_factors", factors)
        residuals = kernel_residuals(d, n)
        got = (residuals.quartic_rational, residuals.quartic_surd)
        assert got == _quartic_at_its_roots(d, n)
        assert all(part.is_zero() == (factors is real) for part in got)


@pytest.mark.parametrize("c", (Fraction(1, 2), 3))
def test_the_sign_of_the_sample_only_swaps_the_quartic_labels(monkeypatch, c):
    """The radicals run at marker c, but the factors, roots and identities
    at c^2, where the sign of c only negates b in the roots a +- b*sqrt(D),
    which swaps the (+) and (-) roots, and so negates the sqrt(D) part B
    of the quartic at them.  With a quartic coefficient bumped at t^3 the
    root residuals are nonzero, so the sign is also seen on series that
    are not all zero."""
    at_c, at_minus_c = roots(c, 16), roots(-c, 16)
    assert at_minus_c == at_c._replace(quartic_b=-at_c.quartic_b)
    real = closedform._kernel_factors

    def bumped(e, n):
        factors = real(e, n)
        quartic = list(factors.quartic)
        quartic[2] = quartic[2] + XSeries.from_terms({3: 1}, n)
        return factors._replace(quartic=tuple(quartic))

    for factors in (real, bumped):
        monkeypatch.setattr(closedform, "_kernel_factors", factors)
        at_c, at_minus_c = kernel_residuals(c, 16), kernel_residuals(-c, 16)
        negated = at_c._replace(quartic_surd=-at_c.quartic_surd)
        assert at_minus_c[3:] == negated[3:]
    assert not at_c.quartic_surd.is_zero()


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
    # the reciprocal sum is checked times q+ q- = a^2 - D b^2, a unit:
    # constant term 1
    r = roots(d, 12)
    product = r.quartic_a * r.quartic_a - r.quartic_b * r.quartic_b * r.disc
    assert product.coefficient(0) == 1


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
