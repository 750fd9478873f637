"""Closed-form algebra behind the perimeter generating functions.

The layered iteration and the exhaustive generator count shapes
directly.  This module carries the third, purely algebraic route and
the identities that tie all routes together:

* three nested square roots whose squares are explicit polynomials in
  the diagonal marker and the perimeter variable;
* the kernel of the size-marked functional equation, factored into a
  quadratic in z and a quartic in z, together with the series root of
  the quadratic and the sum and product of the quartic's two series
  roots;
* the identities they satisfy: ``kernel_residuals`` returns all ten
  residuals of one sample: each radical's value^2 - radicand, the
  quadratic factor at its root, four polynomial identities that tie
  the transcribed factors to the transcribed radicals, and the
  remainder of the quartic modulo the quadratic its two series roots
  span;
* three printed shapes of the column-convex perimeter series, all equal
  as formal series but arranged around different radicals;
* the algebraic fixed point counting directed shapes by diagonals, with
  the matching binomial formula.

The column-convex counts and the ratio table live in ``ratios``, which
runs the split form at r = 1 in integers.

Every perimeter is even, so the radicals, the kernel and its roots are
series in t = x^2: the kernel functions take a t-order n and return
series through t^n, with half the terms an x-series would carry and
fewer bits per coefficient.  A t^k coefficient counts perimeter 2k;
``verify`` is the one reader that names it x^(2k).  The column-convex
forms stay in x; the split one has odd powers.

The diagonal marker d enters every formula polynomially, so identities
are verified at several rational sample values rather than symbolically;
vanishing at four samples to high order leaves no room for a wrong
transcription.  Each kernel polynomial is typed once, as an integer
table {t-degree: {e-degree: int}} in the marker e and t: the kernel and
base radicands, the nested radicand's rational part and base
coefficient, the quartic roots' shape and swing^2, and the z-coefficients
of both factors; b of the quadratic factor is read off its z^1 entry.
``_at`` reads a table at e = d = p/q as integer numerators over q^2.
All arithmetic is exact, runs over Q and takes the sample d itself as
the marker.  The quartic's two series roots need
sqrt(d(4 + d)) in their constant terms, so they are never built: every
identity uses them through their sum and product, which the nested
radical gives as rational series.
"""

import math
from fractions import Fraction
from typing import NamedTuple

from .series import XSeries


class Radical(NamedTuple):
    """A verified square root: ``value`` squares back to ``radicand``."""

    value: XSeries
    radicand: XSeries


class RadicalTriple(NamedTuple):
    """The three nested radicals of the diagonally convex series.

    ``kernel`` is the square root of the quadratic-factor discriminant,
    ``base`` the innermost free-standing radical, and ``nested`` the
    outer radical whose radicand contains ``base``.
    """

    kernel: Radical
    base: Radical
    nested: Radical


class KernelRoots(NamedTuple):
    """The kernel's series roots at sample d, in t = x^2, as rational series.

    ``quadratic`` is the series root of the quadratic factor.  The
    quartic factor is (t^2 z^2 - (aux+/2) z + 1)(t^2 z^2 - (aux-/2) z + 1)
    with aux+- = shape +- swing, and the small root of each quadratic is
    a power series.  ``quartic_sum`` and ``quartic_product`` are the sum
    s and the product p of those two roots, read off the nested radical
    N, the mean of the two square roots in the roots' formulas:
    s = (shape - N)/(2t^2) and p = 2s/(shape + N).
    """

    quadratic: XSeries
    quartic_sum: XSeries
    quartic_product: XSeries


class KernelResiduals(NamedTuple):
    """Every residual the kernel suite checks at one sample d, in report
    order, each a series in t = x^2 that is zero when the identities hold.

    ``kernel``, ``base`` and ``nested`` are value^2 - radicand for the
    radicals of :func:`radicals`.  ``quadratic`` is the quadratic factor
    Q2 at its series root.  The next four tie the factors to the
    radicals, with swing^2 = d(1 - t)^2 inner and the nested radicand
    N0 + c*sqrt(base):

    * ``discriminant``: the kernel radicand minus Q2[1]^2 - 4 Q2[0] Q2[2];
    * ``quartic_middle``: 4 Q4[2] - (8t^2 + shape^2 - swing^2), the z^2
      coefficient of the quartic Q4 as the product of its two
      aux-labelled quadratics;
    * ``nested_rational``: 2 N0 - (shape^2 + swing^2 - 16t^2);
    * ``nested_base``: (shape^2 + swing^2 - 16t^2)^2 - 4 shape^2 swing^2
      - 4 c^2 base.

    The last two say that N^2 = ((alpha+ + alpha-)/2)^2 with
    alpha+-^2 = aux+-^2 - 16t^2, which makes N the mean that
    :class:`KernelRoots` reads s and p off.  ``remainder_z1`` and
    ``remainder_z0`` are r1 and r0 of Q4 modulo z^2 - s z + p, the
    quadratic whose roots are the quartic's two series roots.
    """

    kernel: XSeries
    base: XSeries
    nested: XSeries
    quadratic: XSeries
    discriminant: XSeries
    quartic_middle: XSeries
    nested_rational: XSeries
    nested_base: XSeries
    remainder_z1: XSeries
    remainder_z0: XSeries


CC_VARIANTS = ("ratio", "nested", "split")


_MINUS_TWO = "the sample d=-2 zeroes the nested radicand's constant term (d+2)^2"


# the kernel's polynomials in the marker e and t = x^2, each read at a sample
# by _at; the kernel radicand is b^2 - 4t^2, the quadratic factor's discriminant
_KERNEL_RADICAND = {0: {0: 1}, 2: {0: -2}, 3: {1: -2}, 4: {0: 1}, 5: {1: -2}, 6: {2: 1}}
_BASE_RADICAND = {
    0: {0: 1}, 1: {0: -4, 1: -4}, 2: {0: 6, 1: 8}, 3: {0: -4, 1: -2}, 4: {0: 1, 1: -4},
    5: {1: 2}, 6: {2: 1},
}
# the nested radicand N0 + c*sqrt(base): its rational part N0 and coefficient c
_NESTED_RATIONAL = {
    0: {0: 2, 1: 4, 2: 1}, 1: {1: -4, 2: -4}, 2: {0: -4, 2: 6}, 4: {0: 2, 1: 4, 2: -7},
    5: {1: 4, 2: 4}, 6: {2: 2},
}
_NESTED_COEFFICIENT = {0: {0: 2}, 1: {0: 4}, 2: {0: 2}, 3: {1: 2}}
# the rational part of both quartic roots' auxiliary series, and the square
# e(1 - t)^2 (1 + t)(4 + e + (4 - 3e)t + 4e t^2) of their irrational part
_SHAPE = {0: {0: 2, 1: 1}, 1: {1: -2}, 2: {0: 2, 1: 1}, 3: {1: 2}}
_SWING_SQUARED = {0: {1: 4, 2: 1}, 1: {2: -4}, 2: {1: -8, 2: 6}, 4: {1: 4, 2: -7}, 5: {2: 4}}
# the kernel's two factors, ascending in z: 1 - b z + t^2 z^2, b = 1 + t^2 - e t^3,
# and the quartic, palindromic up to powers of t^2
_QUADRATIC = ({0: {0: 1}}, {0: {0: -1}, 2: {0: -1}, 3: {1: 1}}, {2: {0: 1}})
_QUARTIC = (
    {0: {0: 1}},
    {0: {0: -2, 1: -1}, 1: {1: 2}, 2: {0: -2, 1: -1}, 3: {1: -2}},
    {0: {0: 1}, 1: {1: -2}, 2: {0: 4, 1: 4}, 4: {0: 1}, 5: {1: 2}, 6: {2: 1}},
    {2: {0: -2, 1: -1}, 3: {1: 2}, 4: {0: -2, 1: -1}, 5: {1: -2}},
    {4: {0: 1}},
)


def kernel_sample(d):
    """The sample ``d`` as a ``Fraction``, checked for the kernel path.

    At d = 0 the kernel factors multiply to (1 - z)^3 (1 - t^2 z)^3, so
    every series root is z = 1, and at d = -2 the nested radical is no
    series; both raise ``ValueError``.
    """
    d = Fraction(d)
    if d == 0:
        raise ValueError(
            "the diagonal-marker sample must be nonzero: at d=0 the kernel factors "
            "multiply to (1 - z)^3 (1 - t^2 z)^3, so every series root is z=1"
        )
    if d == -2:
        raise ValueError(_MINUS_TWO)
    return d


def _at(table, d, n):
    """The polynomial ``table``, {t-degree: {e-degree: int}} with e-degree
    at most 2, at the marker e = d, in t through t^n: for d = p/q the t^k
    coefficient is the integer sum of c p^j q^(2 - j) over q^2, filled
    only through the table's top t-degree."""
    p, q = d.numerator, d.denominator
    scales = (q * q, p * q, p * p)
    nums = [0] * (min(max(table), n) + 1)
    for k, row in table.items():
        if k <= n:
            nums[k] = sum(c * scales[j] for j, c in row.items())
    return XSeries(nums, n, q * q)


def radicals(d, n):
    """The three nested radicals at diagonal-marker sample ``d``, in
    t = x^2 through t^n.

    Each returned pair carries the square root and the polynomial it
    squares back to; for the outer radical the radicand itself contains
    the middle one.  All three constant terms are rational squares, so
    the values are honest rational series with positive constant terms;
    the outer one, (d + 2)^2, is 0 at d = -2, which raises ``ValueError``.
    """
    d = Fraction(d)
    if d == -2:
        raise ValueError(_MINUS_TWO)
    kernel, base = _at(_KERNEL_RADICAND, d, n), _at(_BASE_RADICAND, d, n)
    base_value = base.sqrt()
    nested = _at(_NESTED_RATIONAL, d, n) + _at(_NESTED_COEFFICIENT, d, n) * base_value
    return RadicalTriple(
        Radical(kernel.sqrt(), kernel), Radical(base_value, base), Radical(nested.sqrt(), nested)
    )


def _quadratic_root(d, n, kernel):
    """The series root (b - sqrt(b^2 - 4t^2))/(2t^2) of the quadratic
    factor 1 - b z + t^2 z^2 through t^n, b = -Q2[1], from the kernel
    radical ``kernel`` through t^(n + 2)."""
    numerator = -_at(_QUADRATIC[1], d, n + 2) - kernel
    return numerator.shift_down(2) * Fraction(1, 2)


def _roots(d, n, high):
    """:func:`roots` at a checked sample, off the radicals ``high`` through t^(n + 2)."""
    nested = -high.nested.value if d < -2 else high.nested.value
    shape = _at(_SHAPE, d, n + 2)
    quartic_sum = (shape - nested).shift_down(2) * Fraction(1, 2)
    quadratic = _quadratic_root(d, n, high.kernel.value)
    return KernelRoots(quadratic, quartic_sum, (quartic_sum * 2).divide(shape + nested))


def roots(d, n):
    """The series root of the quadratic kernel factor and the sum and
    product of the quartic's two series roots, at sample ``d``, in
    t = x^2 through t^n.

    Everything is computed at two extra t-orders of precision and divided
    by t^2, and the leading cancellation down to t^2 is enforced, so a
    transcription error surfaces as a ``ValuationError`` instead of a
    silently wrong series.  The nested radical N enters with the branch
    whose constant term is 2 + d, negative below d = -2; then
    shape - N starts at t^2 and shape + N at 2(2 + d), a unit.  The
    samples 0 and -2 raise ``ValueError`` (see :func:`kernel_sample`).
    """
    return _roots(kernel_sample(d), n, radicals(d, n + 2))


def _eval_z_poly(coeffs, z):
    """Evaluate an ascending z-coefficient list at a series value."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * z + c
    return acc


def kernel_residuals(d, n, high=None):
    """The ten residual series of :class:`KernelResiduals` at sample ``d``,
    in t = x^2 through t^n, all at the marker d itself and over Q.

    The radicals ``high`` run through t^(n + 2), where the roots need
    them, are built here unless given, and are truncated to t^n for
    their own checks.  The quartic is divided by z^2 - s z + p, s and p
    the sum and product of its series roots (see :func:`roots`), and the
    remainder r1*z + r0 is checked; the complementary roots live in the
    quotient, times t^4 so that their poles never appear.  All ten
    vanish on a faithful transcription.
    """
    d = kernel_sample(d)
    if high is None:
        high = radicals(d, n + 2)
    triple = RadicalTriple(*(Radical(*(s.truncate(n) for s in radical)) for radical in high))
    squares = [radical.value * radical.value - radical.radicand for radical in triple]
    quadratic, quartic = ([_at(c, d, n) for c in factor] for factor in (_QUADRATIC, _QUARTIC))
    quadratic_root, quartic_sum, quartic_product = _roots(d, n, high)
    work = quartic[::-1]
    for i in range(3):
        lead = work[i]
        work[i + 1] = work[i + 1] + lead * quartic_sum
        work[i + 2] = work[i + 2] - lead * quartic_product
    shape, swing_squared, rational, coefficient = (
        _at(table, d, n) for table in (_SHAPE, _SWING_SQUARED, _NESTED_RATIONAL, _NESTED_COEFFICIENT)
    )
    shape_squared, t_squared = shape * shape, XSeries.from_terms({2: 1}, n)
    # twice the nested radicand's rational part, shape^2 + swing^2 - 16t^2
    twice_rational = shape_squared + swing_squared - t_squared * 16
    return KernelResiduals(
        *squares,
        _eval_z_poly(quadratic, quadratic_root),
        triple.kernel.radicand - (quadratic[1] * quadratic[1] - quadratic[0] * quadratic[2] * 4),
        quartic[2] * 4 - (t_squared * 8 + shape_squared - swing_squared),
        rational * 2 - twice_rational,
        twice_rational * twice_rational
        - shape_squared * swing_squared * 4
        - coefficient * coefficient * triple.base.radicand * 4,
        work[3],
        work[4],
    )


def _cc_frame(r, order):
    """Shared pieces for the column-convex variants: y^2 and 1 - y^2."""
    y_squared = XSeries.from_terms({2: r * r}, order)
    return y_squared, XSeries.one(order) - y_squared


def _cc_ratio(r, order):
    y_squared, co = _cc_frame(r, order)
    palindrome_a = XSeries.from_terms({0: 42, 2: -10}, order)
    ell = (
        palindrome_a
        + XSeries.from_terms({0: -84, 2: 28}, order) * y_squared
        + palindrome_a * y_squared * y_squared
    )
    palindrome_d = XSeries.from_terms({0: 18, 2: -2}, order)
    delta = (
        palindrome_d
        + XSeries.from_terms({0: -36, 2: 5}, order) * y_squared
        + palindrome_d * y_squared * y_squared
    )
    palindrome_r = XSeries.from_terms({0: 1, 2: -2, 4: 1}, order)
    inner = (
        palindrome_r
        + XSeries.from_terms({0: -2, 2: -12, 4: -2}, order) * y_squared
        + palindrome_r * y_squared * y_squared
    )
    middle = inner.sqrt()
    outer = (
        XSeries.from_terms({0: 2, 2: 2}, order) * co * co + (co * middle) * 2
    ).sqrt()
    numerator = (
        ell
        - (co * middle) * 6
        - XSeries.from_terms({0: 17, 2: -1}, order) * co * outer
        - middle * outer
    )
    return (co * numerator).divide(delta * 8)


def _cc_nested(r, order):
    """The outer radical sqrt(1 + x^2 + inner) is sqrt(2) v with v rational
    of constant term 1, so 2 sqrt(2) / (3 sqrt(2) - sqrt(2) v) = 2 / (3 - v)."""
    _, co = _cc_frame(r, order)
    corner = XSeries.from_terms({4: 16 * r * r}, order).divide(co * co)
    inner = (XSeries.from_terms({0: 1, 2: -2, 4: 1}, order) - corner).sqrt()
    v = ((XSeries.from_terms({0: 1, 2: 1}, order) + inner) * Fraction(1, 2)).sqrt()
    fraction_part = XSeries.from_terms({0: 2}, order).divide(XSeries.from_terms({0: 3}, order) - v)
    return co * (XSeries.one(order) - fraction_part)


def _cc_split(r, order):
    """The split form: left = sqrt(1 - 2x + x^2 - corner) and
    right = sqrt(1 + 2x + x^2 + corner).  ``corner`` = 4r^2 x^3/(1 - r^2 x^2)
    is odd in x, so right(x) = left(-x) for every r: the second radical
    is the first with its odd coefficients negated."""
    y_squared, co = _cc_frame(r, order)
    corner = XSeries.from_terms({3: 4 * r * r}, order).divide(co)
    left = (XSeries.from_terms({0: 1, 1: -2, 2: 1}, order) - corner).sqrt()
    odd_negated = [-c if k % 2 else c for k, c in enumerate(left.nums)]
    right = XSeries(odd_negated, left.order, left.den, left.lam)
    fraction_part = XSeries.from_terms({0: 4}, order).divide(
        XSeries.from_terms({0: 6}, order) - left - right
    )
    return co * (XSeries.one(order) - fraction_part)


def column_convex_gf(variant, r, order):
    """Closed-form perimeter series for column-convex polyominoes.

    ``r`` is the vertical-to-horizontal marker ratio: each vertical edge
    pair carries weight r, so at r = 1 the coefficient of x^n counts
    shapes of total perimeter n.  The three variants are equal as formal
    series and differ only in how the radicals are arranged:

    * ``"ratio"``   - one rational prefactor and two stacked radicals;
    * ``"nested"``  - one radical inside another; the outer one is sqrt(2)
      times a rational series, and sqrt(2) cancels, so it runs over Q;
    * ``"split"``   - two independent radicals, the cheapest at large orders.
    """
    r = Fraction(r)
    if variant == "ratio":
        return _cc_ratio(r, order)
    if variant == "nested":
        return _cc_nested(r, order)
    if variant == "split":
        return _cc_split(r, order)
    raise ValueError("unknown column-convex variant %r" % (variant,))


def ternary_count(k):
    """Number of directed shapes with k diagonals, in closed form.

    The count is the Fuss-Catalan number binomial(3k+1, k)/(3k+1), an
    integer for every k >= 0.
    """
    if k < 0:
        raise ValueError("diagonal count must be nonnegative")
    return math.comb(3 * k + 1, k) // (3 * k + 1)


def directed_series(order):
    """Series counting directed shapes by diagonals, via its fixed point.

    The series E satisfies E = d(E+1)^3 with d marking diagonals; plain
    iteration from zero gains one correct coefficient per pass and is
    run to an exact fixed point.  Coefficient k equals
    :func:`ternary_count` (k) for every k >= 1.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    marker = XSeries.from_terms({1: 1}, order)
    one = XSeries.one(order)
    current = XSeries.zero(order)
    for _ in range(order + 2):
        bump = current + one
        nxt = marker * bump * bump * bump
        if nxt == current:
            return current
        current = nxt
    raise RuntimeError("directed fixed point failed to stabilize")
