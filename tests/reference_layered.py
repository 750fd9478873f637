"""The layered transfer on dict-of-terms polynomials, as a test reference.

``dcpoly.layered`` runs its transfer on packed integers.  This module
runs the same transfer term by term on ``BiPoly`` coefficients, with d
as a real variable, so the two share no arithmetic beyond the tail
operators of ``ZPolySeries``, which ``test_series`` checks against
their rational forms.
"""

from dcpoly.layered import GFTriple
from dcpoly.series import BiPoly, ZPolySeries


def zpoly_add(s, t):
    order = min(s.order, t.order)
    zero = BiPoly.zero(order)
    a, b = s.z_coeffs(), t.z_coeffs()
    n = max(len(a), len(b))
    return ZPolySeries(
        [(a[m] if m < len(a) else zero) + (b[m] if m < len(b) else zero) for m in range(n)],
        order,
    )


def monomial_scaled(series, coeff, kd, kx, dz):
    """Multiply by coeff * d^kd * x^kx * z^dz."""
    order = series.order
    out = [BiPoly.zero(order)] * dz
    for poly in series.z_coeffs():
        out.append(
            BiPoly({(ad + kd, ax + kx): coeff * v for (ad, ax), v in poly.terms.items()}, order)
        )
    return ZPolySeries(out, order)


def empty_triple(order, track_diagonals=True):
    zero = ZPolySeries.zero(order)
    return GFTriple(zero, zero, zero, order, track_diagonals)


def triple_add(p, q):
    return GFTriple(
        zpoly_add(p.two_nose, q.two_nose),
        zpoly_add(p.one_nose, q.one_nose),
        zpoly_add(p.zero_nose, q.zero_nose),
        p.order,
        p.track_diagonals,
    )


def times_geometric(series):
    """Multiply by 1/(1 - x^4 z) through out_m = s_m + x^4 out_{m-1}."""
    order = series.order
    coeffs = series.z_coeffs()
    out = []
    carry = BiPoly.zero(order)
    while len(out) < len(coeffs) or not carry.is_zero():
        if len(out) < len(coeffs):
            carry = carry + coeffs[len(out)]
        out.append(carry)
        carry = BiPoly({(kd, kx + 4): v for (kd, kx), v in carry.terms.items()}, order)
    return ZPolySeries(out, order)


def constant_step(order, track_diagonals):
    """T(0): the shapes with exactly two diagonals."""
    dd = 2 if track_diagonals else 0
    geo = times_geometric(ZPolySeries([BiPoly.monomial(1, 0, 0, order)], order))
    return GFTriple(
        monomial_scaled(geo, 1, dd, 8, 2),
        monomial_scaled(geo, 2, dd, 6, 1),
        monomial_scaled(geo, 1, dd, 8, 1),
        order,
        track_diagonals,
    )


def linear_step(triple):
    """L(F): append one diagonal to every shape counted by F, term by term."""
    du = 1 if triple.track_diagonals else 0
    a_two, b_one, c_zero = triple.two_nose, triple.one_nose, triple.zero_nose

    t1_a, t1_b, t1_c = a_two.tail_sum(), b_one.tail_sum(), c_zero.tail_sum()
    t2_a, t2_b, t2_c = a_two.tail_weighted(), b_one.tail_weighted(), c_zero.tail_weighted()
    geo2_a = times_geometric(times_geometric(a_two))
    geo_b = times_geometric(b_one)
    geo_t1a = times_geometric(t1_a)
    geo_t1b = times_geometric(t1_b)

    def total(*terms):
        acc = ZPolySeries.zero(triple.order)
        for series, coeff, kx, dz in terms:
            acc = zpoly_add(acc, monomial_scaled(series, coeff, du, kx, dz))
        return acc

    new_two = total((geo2_a, 1, 4, 1), (geo_b, 1, 4, 1), (c_zero, 1, 4, 1))
    new_one = total(
        (geo_t1a, 2, 2, 1), (geo2_a, 2, 6, 1), (geo_t1b, 1, 2, 1),
        (t1_b, 1, 2, 1), (geo_b, 1, 6, 1), (t1_c, 2, 2, 1),
    )
    new_zero = total(
        (t2_a, 1, 0, 0), (geo_t1a, 2, 4, 1), (geo2_a, 1, 8, 1),
        (t2_b, 1, 0, 0), (geo_t1b, 1, 4, 1), (t2_c, 1, 0, 0),
    )
    return GFTriple(new_two, new_one, new_zero, triple.order, triple.track_diagonals)


def rhs_step(triple):
    """One whole transfer step T(F) = T(0) + L(F)."""
    return triple_add(constant_step(triple.order, triple.track_diagonals), linear_step(triple))
