"""Series arithmetic one rational coefficient at a time, as a test reference.

``dcpoly.series`` keeps each series as integer numerators over a
den*lam^k scale and multiplies by Kronecker substitution.  This module
runs the schoolbook recurrences on ``fractions.Fraction`` coefficients
instead, so the two share nothing beyond the ``XSeries`` constructor and
``coeff_list``, which here only carry coefficient lists in and out.
The kernel algebra of ``dcpoly.closedform`` runs in t = x^2; ``at_square``
spreads its results into x for the reference routes that stay in x.
The error types and the places they are raised match ``dcpoly.series``.
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

