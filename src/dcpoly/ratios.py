"""Column-convex counts by perimeter, and their ratio table, in integers.

The counts are ``closedform``'s split form at r = 1, whose radicand is
f = 1 - 2x + x^2 - 4x^3/(1 - x^2).  left = sqrt(f) has x^k coefficient
s_k / 4^k, with s_0 = 1 and (the halving is checked)

    s_k = (4^k f_k - sum_{0<j<k} s_j s_(k-j)) / 2.

right(x) = left(-x), so left + right = 2E(t), E the even part of left
and t = x^2, and F = 4 / (6 - 2E) = 1 / (1 - h), h_j = s_(2j) / (2 * 16^j).
So F_j = phi_j / 32^j, with phi_0 = 1 and

    phi_j = sum_{0<i<=j} s_(2i) * 2^(i-1) * phi_(j-i),

and G = (1 - t)(1 - F) counts (32 phi_(j-1) [j > 1] - phi_j) / 32^j
shapes at x^(2j); a fractional or negative count, or one below x^4,
raises ``ArithmeticError``.  No ``series`` or ``fractions`` is needed;
``closedform`` re-exports these names.
"""

from operator import mul
from typing import NamedTuple


class RatioRow(NamedTuple):
    """One row of the count comparison table."""

    perimeter: int
    column_convex: int
    diagonally_convex: int
    ratio: str


def _radicand(order):
    """The integer coefficients of f = 1 - 2x + x^2 - 4x^3/(1 - x^2) through x^order."""
    return [1, -2, 1][: order + 1] + [-4 * (k % 2) for k in range(3, order + 1)]


def column_convex_perimeter_counts(max_perimeter):
    """Column-convex counts by perimeter from the split form at r = 1, by
    the integer recurrences above; an impossible count, the sign of a
    transcription error, raises ``ArithmeticError``."""
    f = _radicand(max_perimeter)
    s = [1]
    for k in range(1, len(f)):
        twice = (f[k] << 2 * k) - sum(map(mul, s[1:k], s[k - 1 : 0 : -1]))
        if twice & 1:
            raise ArithmeticError("odd numerator in the square-root recurrence at x^%d" % k)
        s.append(twice >> 1)
    weights = [s[2 * i] << i - 1 for i in range(1, (len(s) + 1) // 2)]
    phi = [1]
    for j in range(1, len(weights) + 1):
        phi.append(sum(map(mul, weights[:j], phi[j - 1 :: -1])))
    counts = {}
    for j in range(1, len(phi)):
        numerator = (phi[j - 1] << 5 if j > 1 else 0) - phi[j]
        count, remainder = divmod(numerator, 1 << 5 * j)
        if remainder or count < 0 or (count and j == 1):
            raise ArithmeticError("impossible count %s at x^%d in the column-convex series" % (
                "%d/2^%d" % (numerator, 5 * j) if remainder else count, 2 * j))
        if count:
            counts[2 * j] = count
    return counts


def _decimal(numerator, denominator, places):
    """numerator / denominator (> 0) to ``places`` decimals, ties to even;
    the text depends only on the ratio, reduced or not."""
    sign = "-" if numerator < 0 else ""
    scale = 10**places
    units, remainder = divmod(abs(numerator) * scale, denominator)
    # up past half, or at half to an even last digit
    units += 2 * remainder + (units & 1) > denominator
    whole, frac = divmod(units, scale)
    return sign + ("%d.%0*d" % (whole, places, frac) if places else str(whole))


def ratio_table(max_perimeter):
    """Rows comparing column-convex to diagonally convex counts: for every
    even perimeter from 4 to ``max_perimeter``, both exact counts and
    their ratio to four decimal places, ties to even."""
    if max_perimeter < 4 or max_perimeter % 2:
        raise ValueError("perimeter bound must be an even number, at least 4")
    from .layered import perimeter_counts
    straight = perimeter_counts(max_perimeter)
    convex = column_convex_perimeter_counts(max_perimeter)
    return [
        RatioRow(n, convex[n], straight[n], _decimal(convex[n], straight[n], 4))
        for n in range(4, max_perimeter + 1, 2)
    ]
