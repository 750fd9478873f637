"""Closed-form algebra behind the perimeter generating functions.

The layered iteration and the exhaustive generator count shapes
directly.  This module carries the third, purely algebraic route and
the identities that tie all routes together:

* three nested square roots whose squares are explicit polynomials in
  the diagonal marker and the perimeter variable;
* the kernel of the size-marked functional equation, factored into an
  x-only polynomial, a quadratic in z, and a quartic in z, together
  with the three factor roots that are genuine power series;
* the identities those roots satisfy: each annihilates its factor, the
  two quartic roots span a quadratic that divides the quartic, and their
  sum and reciprocal sum match the nested radical; ``kernel_residuals``
  returns all seven residuals of one sample from one set of roots, and
  ``radical_residuals`` the three value^2 - radicand residuals of the
  radicals, squared in t = x^2;
* three printed shapes of the column-convex perimeter series, all equal
  as formal series but arranged around different radicals;
* the algebraic fixed point counting directed shapes by diagonals, with
  the matching binomial formula.

The column-convex counts and the ratio table live in ``ratios``, which
runs the split form at r = 1 in integers; they are re-exported here,
and ``ratios`` loads only when one of them is first looked up.

Every perimeter is even, so the radicals, the kernel and its roots are
series in t = x^2.  The kernel algebra runs in t, in private functions
with half the terms and fewer bits per coefficient; the public
functions keep their x-orders and read each t-result back in x through
``at_square``.  The column-convex forms stay in x; the split one has
odd powers.

The diagonal marker d enters every formula polynomially, so identities
are verified at several rational sample values rather than symbolically;
vanishing at four samples to high x-order leaves no room for a wrong
transcription.  All arithmetic is exact.  Roots whose constant terms are
irrational are ``SurdSeries`` pairs a + b*sqrt(D) of rational series; an
identity about them holds only when both parts vanish, so the irrational
part is checked, never assumed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .series import SurdSeries, XSeries

# re-exported from ratios, which is imported on first use (see __getattr__)
_FROM_RATIOS = ("RatioRow", "column_convex_perimeter_counts", "ratio_table")


def __getattr__(name):
    if name in _FROM_RATIOS:
        from . import ratios
        return getattr(ratios, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


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
    """Kernel of the functional equation, split into its three factors.

    ``plain`` involves only x and therefore contributes no roots in z;
    ``quadratic`` and ``quartic`` are polynomials in z with power-series
    coefficients, given as ascending coefficient lists.
    """

    plain: XSeries
    quadratic: "tuple[XSeries, ...]"
    quartic: "tuple[XSeries, ...]"


class KernelRoots(NamedTuple):
    """The kernel roots that are power series in x.

    ``quadratic`` is the series root of the quadratic factor;
    ``quartic_plus`` and ``quartic_minus`` are the two series roots of
    the quartic factor, labelled by the sign in front of the auxiliary
    radical in the series aux of ``_roots``: the quartic splits into two
    quadratics in z, one per sign, and each series root solves
    x^4 z^2 - (aux/2) z + 1 = 0 with its sign's aux.  Both roots are
    ``SurdSeries`` over Q(sqrt D): for d = p/q in lowest terms,
    4 + d^2 = m/q^2 and D = m, or D = 1 when m is a perfect square.
    """

    quadratic: XSeries
    quartic_plus: SurdSeries
    quartic_minus: SurdSeries


class KernelResiduals(NamedTuple):
    """Residuals of the kernel-root identities at one sample.

    ``quadratic``, ``quartic_plus`` and ``quartic_minus`` are the kernel
    factors evaluated at their series roots.  ``remainder_z1`` and
    ``remainder_z0`` are the coefficients of the quartic factor modulo
    the monic quadratic whose roots are its two series roots.
    ``root_sum`` and ``reciprocal_sum`` compare the sum of those roots
    and the sum of their reciprocals with their expressions through the
    outer nested radical at d^2, where the irrational parts cancel.
    Every field is the zero series when the identities hold.
    """

    quadratic: XSeries
    quartic_plus: SurdSeries
    quartic_minus: SurdSeries
    remainder_z1: SurdSeries
    remainder_z0: SurdSeries
    root_sum: SurdSeries
    reciprocal_sum: SurdSeries


CC_VARIANTS = ("ratio", "nested", "split")


def _in_x(value, order):
    """A result of the t-level algebra read at t = x^2 through x^order,
    series by series, keeping its (named) tuple or list shape."""
    if isinstance(value, (XSeries, SurdSeries)):
        return value.at_square(order)
    fields = [_in_x(v, order) for v in value]
    return value._make(fields) if hasattr(value, "_make") else type(value)(fields)


def _kernel_radicand(d, n):
    """Square of the kernel radical, the quadratic-factor discriminant, in t."""
    return XSeries.from_terms({0: 1, 2: -2, 3: -2 * d, 4: 1, 5: -2 * d, 6: d * d}, n)


def _outer_radicals(d, n):
    """The base and nested radicals of :func:`_radicals`, without the kernel one."""
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


def _radicals(d, n):
    """:func:`radicals` in t = x^2, through t^n."""
    base, nested = _outer_radicals(d, n)
    kernel_radicand = _kernel_radicand(Fraction(d), n)
    return RadicalTriple(Radical(kernel_radicand.sqrt(), kernel_radicand), base, nested)


def radicals(d, order):
    """The three nested radicals at diagonal-marker sample ``d``.

    Each returned pair carries the square root and the polynomial it
    squares back to; for the outer radical the radicand itself contains
    the middle one.  All three constant terms are rational squares, so
    the values are honest rational series; the outer one, (d + 2)^2, is
    0 at d = -2, which raises ``ValueError``.
    """
    return _in_x(_radicals(d, order // 2), order)


def radical_residuals(d, order):
    """value^2 - radicand for each radical of :func:`radicals` at sample
    ``d``, as a ``RadicalTriple`` of residual series that all vanish.

    The squares are taken in t = x^2, with half the terms of the
    x-series, and each residual is read back in x through ``order``, so
    a wrong t^j coefficient shows at x^(2j).
    """
    triple = _radicals(d, order // 2)
    return _in_x(RadicalTriple._make(r.value * r.value - r.radicand for r in triple), order)


def _kernel_factors(d, n):
    """The factored kernel at diagonal-marker sample ``d``, in t = x^2
    through t^n.

    The full kernel is the product of the three returned factors.  The
    z-coefficient lists are ascending; the quartic is palindromic up to
    powers of t^2, which is what makes its series roots come in the two
    aux-labelled pairs of :func:`roots`.
    """
    d = Fraction(d)
    e = d * d
    plain = XSeries.from_terms(
        {
            11: e, 10: 1, 9: -4 * e, 8: -(2 * e + 5), 7: e * e * e + 2 * e * e + 6 * e,
            6: e * e + 6 * e + 10, 5: -(4 * e * e + 4 * e), 4: -(e * e + 6 * e + 10),
            3: 2 * e * e + e, 2: 2 * e + 5, 0: -1,
        },
        n,
    )
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
    return KernelFactors(plain, quadratic, quartic)


def kernel_sextic(d, order):
    """The expanded kernel: ascending z-coefficients of plain*quad*quartic.

    For integer samples ``d`` every coefficient must be an integer, a
    cheap transcription check on all three factors at once.
    """
    n = order // 2
    factors = _kernel_factors(d, n)
    zero = XSeries.zero(n)
    product = [zero] * (len(factors.quadratic) + len(factors.quartic) - 1)
    for i, a in enumerate(factors.quadratic):
        for j, b in enumerate(factors.quartic):
            product[i + j] = product[i + j] + a * b
    return _in_x([factors.plain * c for c in product], order)


def _shape(e, n):
    """The rational part (2 + e) - 2e t + (2 + e) t^2 + 2e t^3 of both
    quartic roots' auxiliary series, at e = d^2, in t = x^2 through t^n."""
    return XSeries.from_terms({0: 2 + e, 1: -2 * e, 2: 2 + e, 3: 2 * e}, n)


def _roots(d, n):
    """:func:`roots` in t = x^2, through t^n."""
    d = Fraction(d)
    if d == 0:
        raise ValueError("the diagonal-marker sample must be nonzero")
    e = d * d
    high = n + 2
    discriminant_root = _kernel_radicand(e, high).sqrt()
    numerator = XSeries.from_terms({0: 1, 2: 1, 3: -e}, high) - discriminant_root
    quadratic_root = numerator.shift_down(2) * Fraction(1, 2)

    # sqrt(inner) = sqrt(4 + e) * u with u rational, as inner / (4 + e) has
    # constant term 1; with d = p/q, 4 + e = m/q^2 and sqrt(4 + e) =
    # sqrt(m)/q, or isqrt(m)/q * sqrt(1) when m is a perfect square
    inner = XSeries.from_terms({0: 1, 1: 1}, high) * XSeries.from_terms(
        {0: 4 + e, 1: 4 - 3 * e, 2: 4 * e}, high
    )
    u = (inner * (1 / (4 + e))).sqrt()
    m = (4 + e).numerator
    r = math.isqrt(m)
    disc, scale = (1, r) if r * r == m else (m, 1)
    w = SurdSeries(XSeries.zero(high), u * Fraction(scale, d.denominator), disc)
    shape = _shape(e, high)
    swing = XSeries.from_terms({0: d, 1: -d}, high) * w
    quartic_roots = []
    for aux in (shape + swing, shape - swing):
        radicand = aux * aux - XSeries.from_terms({2: 16}, high)
        s = radicand.sqrt((aux.a.coefficient(0), aux.b.coefficient(0)))
        quartic_roots.append((aux - s).shift_down(2) * Fraction(1, 4))
    return KernelRoots(quadratic_root, *quartic_roots)


def roots(d, order):
    """Power-series roots of the kernel factors at sample ``d``.

    The quadratic factor has exactly one root that is a power series
    (the other has a pole at x = 0); the quartic has two, one for each
    sign of the auxiliary radical.  Every root is computed in t = x^2
    from its quadratic formula at two extra t-orders (four in x) of
    precision, and the leading cancellation down to x^4 is enforced, so
    a transcription error surfaces as a ValuationError instead of a
    silently wrong series.
    """
    return _in_x(_roots(d, order // 2), order)


def _eval_z_poly(coeffs, z):
    """Evaluate an ascending z-coefficient list at a series value."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * z + c
    return acc


def kernel_residuals(d, order):
    """Every kernel-root identity at sample ``d``, from one set of roots.

    Builds the kernel factors, their series roots and the outer nested
    radical at d^2 once, and returns the seven residual series of
    :class:`KernelResiduals`; all vanish through the requested order on
    a faithful transcription.
    """
    d = Fraction(d)
    e = d * d
    n = order // 2
    factors = _kernel_factors(d, n)
    r = _roots(d, n)
    root_sum = r.quartic_plus + r.quartic_minus
    root_product = r.quartic_plus * r.quartic_minus
    # divide the quartic by z^2 - root_sum*z + root_product; the
    # complementary roots live in the quotient, times x^8 so that their
    # poles never appear
    work = list(reversed(factors.quartic))
    for i in range(3):
        lead = work[i]
        work[i + 1] = work[i + 1] + lead * root_sum
        work[i + 2] = work[i + 2] - lead * root_product
    nested = _outer_radicals(e, n + 2)[1].value
    shape = _shape(e, n + 2)
    residuals = KernelResiduals(
        _eval_z_poly(factors.quadratic, r.quadratic),
        _eval_z_poly(factors.quartic, r.quartic_plus),
        _eval_z_poly(factors.quartic, r.quartic_minus),
        work[3],
        work[4],
        root_sum - (shape - nested).shift_down(2) * Fraction(1, 2),
        # 1/q+ + 1/q- = (q+ + q-)/(q+ q-)
        root_sum.divide(root_product) - (shape + nested) * Fraction(1, 2),
    )
    return _in_x(residuals, order)


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
    y_squared, co = _cc_frame(r, order)
    corner = XSeries.from_terms({4: 16 * r * r}, order).divide(co * co)
    inner = (XSeries.from_terms({0: 1, 2: -2, 4: 1}, order) - corner).sqrt()
    zero = XSeries.zero(order)
    root_two = SurdSeries(zero, XSeries.one(order), 2)
    outer = SurdSeries(XSeries.from_terms({0: 1, 2: 1}, order) + inner, zero, 2).sqrt((0, 1))
    fraction_part = (root_two * 2).divide(root_two * 3 - outer)
    full = co * (1 - fraction_part)
    if not full.b.is_zero():
        raise ArithmeticError(
            "irrational part of the nested column-convex form did not cancel"
        )
    return full.a


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
    * ``"nested"``  - one radical inside another, evaluated over Q(sqrt 2)
      as a ``SurdSeries``, whose irrational part must vanish (checked);
    * ``"split"``   - two independent radicals and rational arithmetic
      only, the cheapest shape for large orders.
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

    The count is binomial(3k+1, k)/(3k+1); the division is checked to be
    exact.
    """
    if k < 0:
        raise ValueError("diagonal count must be nonnegative")
    quotient, remainder = divmod(math.comb(3 * k + 1, k), 3 * k + 1)
    if remainder:
        raise ArithmeticError("ternary formula failed to divide at k=%d" % (k,))
    return quotient


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
    from .layered import NonConvergenceError
    raise NonConvergenceError("directed fixed point failed to stabilize")
