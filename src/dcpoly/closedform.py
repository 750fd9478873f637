"""Closed-form algebra behind the perimeter generating functions.

The layered iteration and the exhaustive generator count shapes
directly.  This module carries the third, purely algebraic route and
the identities that tie all routes together:

* three nested square roots whose squares are explicit polynomials in
  the diagonal marker and the perimeter variable;
* the kernel of the size-marked functional equation, factored into a
  quadratic in z and a quartic in z, together with the three factor
  roots that are genuine power series;
* the identities those roots satisfy: each annihilates its factor, the
  two quartic roots span a quadratic that divides the quartic, and their
  sum and reciprocal sum match the nested radical; ``kernel_residuals``
  returns all ten residuals of one sample: these seven, from one set of
  roots, after each radical's value^2 - radicand;
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
transcription.  All arithmetic is exact and runs over Q.  Only the
quartic kernel roots, through sqrt(4 + d^2), have irrational constant
terms: they are a +- b*sqrt(D) with a and b rational series, built by
denesting the square root over Q(sqrt D) in their quadratic formula
into two rational square roots.  Every identity uses them only through
a, b, their rational sum 2a and their norm a^2 - D b^2: divided by the
quadratic z^2 - 2a z + (a^2 - D b^2) that both roots annihilate, the
quartic leaves a remainder r1 z + r0, so at a +- b*sqrt(D) it is
A +- B*sqrt(D) with A = r1 a + r0 and B = r1 b rational.  Both roots
annihilate it exactly when A = B = 0, so the two root residuals are the
rational series A and B, and the irrational part is checked, never
assumed.
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


class KernelFactors(NamedTuple):
    """Kernel of the functional equation, split into its two factors.

    ``quadratic`` and ``quartic`` are polynomials in z with power-series
    coefficients, given as ascending coefficient lists.
    """

    quadratic: "tuple[XSeries, ...]"
    quartic: "tuple[XSeries, ...]"


class KernelRoots(NamedTuple):
    """The kernel roots that are power series in t = x^2.

    ``quadratic`` is the series root of the quadratic factor.  The two
    series roots of the quartic factor are quartic_a +- quartic_b*sqrt(disc),
    labelled (+) and (-) by the sign in front of the auxiliary radical in
    the series aux of :func:`roots`: the quartic splits into two quadratics
    in z, one per sign, and each series root solves
    t^2 z^2 - (aux/2) z + 1 = 0 with its sign's aux.  ``quartic_a`` and
    ``quartic_b`` are rational series; for d = p/q in lowest terms,
    4 + d^2 = m/q^2 and ``disc`` is the integer m, kept as it is even
    where it is a perfect square.  The roots at sample d solve the
    factors at marker d^2; the sign of d only negates ``quartic_b``,
    which swaps the (+) and (-) roots.
    """

    quadratic: XSeries
    quartic_a: XSeries
    quartic_b: XSeries
    disc: int


class KernelResiduals(NamedTuple):
    """Every residual the kernel suite checks at one sample, in report order,
    each a series in t = x^2.

    ``kernel``, ``base`` and ``nested`` are value^2 - radicand for the
    radicals of :func:`radicals` at the sample d itself; the other seven
    are at marker d^2.  ``quadratic`` is the quadratic factor at its
    series root.  The quartic factor at its roots q+- = a +- b*sqrt(D)
    is A +- B*sqrt(D), and ``quartic_rational`` and ``quartic_surd`` are
    A and B: both roots annihilate the quartic exactly when both vanish,
    whether D is a square or not.  ``remainder_z1`` and ``remainder_z0``
    are the coefficients r1 and r0 of the quartic factor modulo the
    monic quadratic whose roots are its two series roots; that quadratic
    vanishes at both, so A = r1*a + r0 and B = r1*b.  The remainders and
    the two sum identities see the roots only through their sum 2a and
    product a^2 - D b^2.
    ``root_sum`` and ``reciprocal_sum`` compare the sum of those roots
    and the sum of their reciprocals with their expressions through the
    outer nested radical at d^2; the root sum compares the denested
    alpha of :func:`roots` with the transcribed nested radical.  The
    reciprocal sum is checked times the product of the roots, a unit
    (constant term 1), so it needs no division and vanishes exactly
    when the quotient identity does.  Every field is the zero series
    when the identities hold.
    """

    kernel: XSeries
    base: XSeries
    nested: XSeries
    quadratic: XSeries
    quartic_rational: XSeries
    quartic_surd: XSeries
    remainder_z1: XSeries
    remainder_z0: XSeries
    root_sum: XSeries
    reciprocal_sum: XSeries


CC_VARIANTS = ("ratio", "nested", "split")


def _kernel_radicand(d, n):
    """Square of the kernel radical, the quadratic-factor discriminant, in t."""
    return XSeries.from_terms({0: 1, 2: -2, 3: -2 * d, 4: 1, 5: -2 * d, 6: d * d}, n)


def _outer_radicals(d, n):
    """The base and nested radicals of :func:`radicals`, without the kernel one."""
    d = Fraction(d)
    if d == -2:
        raise ValueError("the sample d=-2 zeroes the nested radicand's constant term (d+2)^2")
    base_radicand = XSeries.from_terms(
        {0: 1, 1: -(4 + 4 * d), 2: 6 + 8 * d, 3: -(4 + 2 * d), 4: 1 - 4 * d, 5: 2 * d, 6: d * d}, n
    )
    base_value = base_radicand.sqrt()
    nested_radicand = (
        XSeries.from_terms(
            {
                0: 2 + 4 * d + d * d, 1: -(4 * d + 4 * d * d), 2: -4 + 6 * d * d,
                4: 2 + 4 * d - 7 * d * d, 5: 4 * d + 4 * d * d, 6: 2 * d * d,
            },
            n,
        )
        + XSeries.from_terms({0: 2, 1: 4, 2: 2, 3: 2 * d}, n) * base_value
    )
    return Radical(base_value, base_radicand), Radical(nested_radicand.sqrt(), nested_radicand)


def radicals(d, n):
    """The three nested radicals at diagonal-marker sample ``d``, in
    t = x^2 through t^n.

    Each returned pair carries the square root and the polynomial it
    squares back to; for the outer radical the radicand itself contains
    the middle one.  All three constant terms are rational squares, so
    the values are honest rational series; the outer one, (d + 2)^2, is
    0 at d = -2, which raises ``ValueError``.
    """
    base, nested = _outer_radicals(d, n)
    kernel_radicand = _kernel_radicand(Fraction(d), n)
    return RadicalTriple(Radical(kernel_radicand.sqrt(), kernel_radicand), base, nested)


def _kernel_factors(e, n):
    """The factored kernel at diagonal marker ``e``, in t = x^2 through t^n.

    The full kernel is the product of the two returned factors.  The
    z-coefficient lists are ascending; the quartic is palindromic up to
    powers of t^2, which is what makes its series roots come in the two
    aux-labelled pairs of :func:`roots`.  The public callers pass the
    square of their sample.
    """
    quadratic = (
        XSeries.one(n),
        XSeries.from_terms({3: e, 2: -1, 0: -1}, n),
        XSeries.from_terms({2: 1}, n),
    )
    quartic = (
        XSeries.one(n),
        XSeries.from_terms({3: -2 * e, 2: -(e + 2), 1: 2 * e, 0: -(e + 2)}, n),
        XSeries.from_terms({6: e * e, 5: 2 * e, 4: 1, 2: 4 * e + 4, 1: -2 * e, 0: 1}, n),
        XSeries.from_terms({5: -2 * e, 4: -(e + 2), 3: 2 * e, 2: -(e + 2)}, n),
        XSeries.from_terms({4: 1}, n),
    )
    return KernelFactors(quadratic, quartic)


def kernel_sextic(d, n):
    """The expanded kernel at marker d^2 for sample ``d``: ascending
    z-coefficients of quadratic*quartic, in t = x^2 through t^n.

    For integer samples ``d`` every coefficient must be an integer, a
    cheap transcription check on both factors at once.
    """
    factors = _kernel_factors(d * d, n)
    zero = XSeries.zero(n)
    product = [zero] * (len(factors.quadratic) + len(factors.quartic) - 1)
    for i, a in enumerate(factors.quadratic):
        for j, b in enumerate(factors.quartic):
            product[i + j] = product[i + j] + a * b
    return product


def _shape(e, n):
    """The rational part (2 + e) - 2e t + (2 + e) t^2 + 2e t^3 of both
    quartic roots' auxiliary series, at e = d^2, in t = x^2 through t^n."""
    return XSeries.from_terms({0: 2 + e, 1: -2 * e, 2: 2 + e, 3: 2 * e}, n)


def roots(d, n):
    """Power-series roots of the kernel factors at sample ``d``, in t = x^2
    through t^n.

    The quadratic factor has exactly one root that is a power series
    (the other has a pole at t = 0); the quartic has two, one for each
    sign of the auxiliary radical.  Every root is computed from its
    quadratic formula at two extra t-orders of precision, and the leading
    cancellation down to t^2 is enforced, so a transcription error
    surfaces as a ValuationError instead of a silently wrong series.  The
    quartic roots a +- b*sqrt(D) are built over Q: the square root over
    Q(sqrt D) in their formula is denested into two rational square
    roots, and the result holds a, b and D, D unfolded even where it is a
    perfect square.  The roots solve the factors at marker d^2, and
    ``roots(-d, n)`` is ``roots(d, n)`` with ``quartic_b`` negated: d
    enters only through e = d^2 and the sign of the swing term
    d(1 - t)sqrt(inner), inner a polynomial in t and e.
    """
    d = Fraction(d)
    if d == 0:
        raise ValueError("the diagonal-marker sample must be nonzero")
    e = d * d
    high = n + 2
    discriminant_root = _kernel_radicand(e, high).sqrt()
    numerator = XSeries.from_terms({0: 1, 2: 1, 3: -e}, high) - discriminant_root
    quadratic_root = numerator.shift_down(2) * Fraction(1, 2)

    # sqrt(inner) = sqrt(4 + e) * u with u rational, as inner / (4 + e) has
    # constant term 1; with d = p/q, 4 + e = D/q^2, so the swing term
    # d(1 - t) sqrt(inner) of aux = shape +- swing is sigma*sqrt(D)
    inner = XSeries.from_terms({0: 1, 1: 1}, high) * XSeries.from_terms(
        {0: 4 + e, 1: 4 - 3 * e, 2: 4 * e}, high
    )
    u = (inner * (1 / (4 + e))).sqrt()
    disc = (4 + e).numerator
    shape = _shape(e, high)
    sigma = XSeries.from_terms({0: d, 1: -d}, high) * u * Fraction(1, d.denominator)
    # sqrt(aux^2 - 16t^2) = alpha +- beta*sqrt(D), denested: with
    # aux^2 - 16t^2 = real +- cross*sqrt(D), alpha^2 + D beta^2 = real and
    # 2 alpha beta = cross, so alpha^2 is the root of constant term (2 + e)^2
    # of y^2 - real*y + D cross^2/4; real^2 - D cross^2 has constant term 16
    real = shape * shape + sigma * sigma * disc - XSeries.from_terms({2: 16}, high)
    cross = shape * sigma * 2
    alpha = ((real + (real * real - cross * cross * disc).sqrt()) * Fraction(1, 2)).sqrt()
    beta = cross.divide(alpha * 2)
    a = (shape - alpha).shift_down(2) * Fraction(1, 4)
    b = (sigma - beta).shift_down(2) * Fraction(1, 4)
    return KernelRoots(quadratic_root, a, b, disc)


def _eval_z_poly(coeffs, z):
    """Evaluate an ascending z-coefficient list at a series value."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * z + c
    return acc


def kernel_residuals(d, n):
    """The ten residual series of :class:`KernelResiduals` at sample ``d``,
    in t = x^2 through t^n.

    The three radicals square back at marker d.  The kernel factors, their
    series roots and the outer nested radical are built once at marker
    e = d^2, so the sign of d only negates ``quartic_surd``.  The quartic
    roots a +- b*sqrt(D) enter the division and the sum identities
    through their rational sum 2a and product a^2 - D b^2.  The division
    leaves the remainder r1*z + r0, so the quartic at both roots is
    A +- B*sqrt(D) with A = r1*a + r0 and B = r1*b, D unfolded even where
    it is a square; A and B are checked.  All vanish on a faithful
    transcription.
    """
    d = Fraction(d)
    e = d * d
    squares = [radical.value * radical.value - radical.radicand for radical in radicals(d, n)]
    factors = _kernel_factors(e, n)
    quadratic_root, a, b, disc = roots(d, n)
    root_sum, root_product = a * 2, a * a - b * b * disc
    # divide the quartic by z^2 - root_sum*z + root_product, leaving the
    # remainder r1*z + r0 in work[3:]; the complementary roots live in the
    # quotient, times t^4 so that their poles never appear
    work = list(reversed(factors.quartic))
    for i in range(3):
        lead = work[i]
        work[i + 1] = work[i + 1] + lead * root_sum
        work[i + 2] = work[i + 2] - lead * root_product
    r1, r0 = work[3], work[4]
    nested = _outer_radicals(e, n + 2)[1].value
    shape = _shape(e, n + 2)
    return KernelResiduals(
        *squares,
        _eval_z_poly(factors.quadratic, quadratic_root),
        # the divisor vanishes at a +- b*sqrt(D), so the quartic there is
        # r1*(a +- b*sqrt(D)) + r0 = A +- B*sqrt(D)
        r1 * a + r0,
        r1 * b,
        r1,
        r0,
        # 2a = (shape - alpha)/(2t^2), so this is (nested - alpha)/(2t^2)
        root_sum - (shape - nested).shift_down(2) * Fraction(1, 2),
        # 1/q+ + 1/q- = (q+ + q-)/(q+ q-), times the unit q+ q-
        root_sum - root_product * (shape + nested) * Fraction(1, 2),
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
