"""Series arithmetic one rational coefficient at a time, as a test reference.

``dcpoly.series`` keeps each series as integer numerators over a
den*lam^k scale and multiplies by Kronecker substitution.  This module
runs the schoolbook recurrences on ``fractions.Fraction`` coefficients
instead, so the two share nothing beyond the ``XSeries`` constructor and
``coeff_list``, which here only carry coefficient lists in and out.
The kernel algebra of ``dcpoly.closedform`` runs in t = x^2; ``at_square``
spreads its results into x for the reference routes that stay in x.
The error types and the places they are raised match ``dcpoly.series``.

``surd_mul`` and ``surd_sqrt`` work over Q(sqrt D), which the library
never does: it builds the quartic kernel roots by denesting their
square root into rational ones, and these take that root directly.  A
value a + b*sqrt(D) over Q(sqrt D) is the tuple (a, b, D) of two
``XSeries`` and the integer D.
"""

from fractions import Fraction

from dcpoly.series import (
    NonDivisibleError,
    NonSquareConstantError,
    XSeries,
    ZeroValuationError,
    _rational_sqrt,
)


def mul(a, b):
    """Product truncated at the smaller order."""
    n = min(a.order, b.order)
    x, y = a.coeff_list(), b.coeff_list()
    out = [Fraction(0)] * (n + 1)
    for i in range(n + 1):
        if x[i] == 0:
            continue
        for j in range(n + 1 - i):
            if y[j] != 0:
                out[i + j] += x[i] * y[j]
    return XSeries(out, n)


def divide(num, den):
    """Exact quotient num/den; the order drops by den's valuation."""
    n = min(num.order, den.order)
    x, y = num.coeff_list(), den.coeff_list()
    v = next((k for k, c in enumerate(y) if c != 0), None)
    if v is None or v > n:
        raise ZeroValuationError("division by a series that is zero through its order")
    for k in range(min(v, num.order + 1)):
        if x[k] != 0:
            raise NonDivisibleError("numerator has x^%d but denominator starts at x^%d" % (k, v))
    out = []
    for k in range(n - v + 1):
        acc = x[k + v]
        for j in range(k):
            acc -= out[j] * y[k - j + v]
        out.append(acc / y[v])
    return XSeries(out, n - v)


def sqrt(s):
    """Square root with a positive rational constant term."""
    c = s.coeff_list()
    root = _rational_sqrt(c[0])
    if not root:
        raise NonSquareConstantError("constant term %s is not a positive rational square" % c[0])
    out = [root]
    for n in range(1, s.order + 1):
        acc = c[n]
        for k in range(1, n):
            acc -= out[k] * out[n - k]
        out.append(acc / (2 * root))
    return XSeries(out, s.order)


def at_square(t_series, order):
    """f(t) read as f(x^2) through x^order: t^j at x^(2j), 0 at odd degrees."""
    c = t_series.coeff_list()
    return XSeries([0 if k % 2 else c[k // 2] for k in range(order + 1)], order)


def _minus(a, b, scale=1):
    """a - scale*b, truncated at the smaller order."""
    n = min(a.order, b.order)
    return XSeries([u - scale * v for u, v in zip(a.coeff_list()[: n + 1], b.coeff_list())], n)


def surd_mul(x, y):
    """x*y over Q(sqrt D): (a + b*sqrt D)(c + e*sqrt D) = ac + D*be + (ae + bc)*sqrt D."""
    (a, b, disc), (c, e, _) = x, y
    return _minus(mul(a, c), mul(b, e), -disc), _minus(mul(a, e), mul(b, c), -1), disc


def surd_sqrt(s, root0):
    """Square root over Q(sqrt D) whose constant term is p + q*sqrt(D)."""
    p, q = Fraction(root0[0]), Fraction(root0[1])
    s_a, s_b, disc = s
    a, b = s_a.coeff_list(), s_b.coeff_list()
    if (p * p + disc * q * q, 2 * p * q) != (a[0], b[0]):
        raise ValueError("root0 does not square to the constant term")
    twice_norm = 2 * (p * p - disc * q * q)
    inv_p, inv_q = p / twice_norm, -q / twice_norm
    ra, rb = [p], [q]
    for n in range(1, s_a.order + 1):
        acc_a, acc_b = a[n], b[n]
        for k in range(1, n):
            acc_a -= ra[k] * ra[n - k] + disc * rb[k] * rb[n - k]
            acc_b -= ra[k] * rb[n - k] + rb[k] * ra[n - k]
        ra.append(acc_a * inv_p + disc * acc_b * inv_q)
        rb.append(acc_a * inv_q + acc_b * inv_p)
    return XSeries(ra, s_a.order), XSeries(rb, s_a.order), disc
