"""The layered transfer on dict-of-terms polynomials, as a test reference.

``dcpoly.layered`` solves its equation one power of x^2 at a time, at
a number d or on packed integers.  This module iterates the same
transfer term by term and imports nothing from ``dcpoly``.
A class is a plain dict {(d_degree, x_degree, z_degree): coefficient}
without zero entries, with d a real variable (or always 0 when d is
collapsed), truncated at x-degree ``order``.  A triple is the tuple
(two-nose, one-nose, zero-nose).  The tail operators follow their
defining sums term by term, not the suffix-sum recurrences of the engine.
"""


def _collect(pairs):
    out = {}
    for key, v in pairs:
        out[key] = out.get(key, 0) + v
    return {key: v for key, v in out.items() if v}


def add(*series):
    return _collect(item for s in series for item in s.items())


def monomial_scaled(series, coeff, kd, kx, dz, order):
    """Multiply by coeff * d^kd * x^kx * z^dz, dropping x-degrees past ``order``."""
    return _collect(
        ((ad + kd, ax + kx, m + dz), coeff * v)
        for (ad, ax, m), v in series.items()
        if ax + kx <= order
    )


def tail_sum(series):
    """z^m coefficient becomes sum_{k>m} s_k."""
    return _collect(
        ((kd, kx, m), v) for (kd, kx, k), v in series.items() for m in range(k)
    )


def tail_weighted(series):
    """z^m coefficient becomes sum_{k>m} (k-m) s_k, for m >= 1."""
    return _collect(
        ((kd, kx, m), (k - m) * v) for (kd, kx, k), v in series.items() for m in range(1, k)
    )


def times_geometric(series, order):
    """Multiply by 1/(1 - x^4 z) through out_m = s_m + x^4 out_{m-1}."""
    layers = {}
    for (kd, kx, m), v in series.items():
        layers.setdefault(m, {})[kd, kx] = v
    out, carry, m = {}, {}, 0
    while m <= max(layers, default=-1) or carry:
        carry = add(carry, layers.get(m, {}))
        out.update(((kd, kx, m), v) for (kd, kx), v in carry.items())
        carry = {(kd, kx + 4): v for (kd, kx), v in carry.items() if kx + 4 <= order}
        m += 1
    return out


def empty_triple():
    return ({}, {}, {})


def constant_step(order, track_diagonals):
    """T(0): the shapes with exactly two diagonals."""
    dd = 2 if track_diagonals else 0
    geo = times_geometric({(0, 0, 0): 1}, order)
    return (
        monomial_scaled(geo, 1, dd, 8, 2, order),
        monomial_scaled(geo, 2, dd, 6, 1, order),
        monomial_scaled(geo, 1, dd, 8, 1, order),
    )


def linear_step(triple, order, track_diagonals):
    """L(F): append one diagonal to every shape counted by F, term by term."""
    du = 1 if track_diagonals else 0
    a_two, b_one, c_zero = triple

    t1_a, t1_b, t1_c = tail_sum(a_two), tail_sum(b_one), tail_sum(c_zero)
    t2_a, t2_b, t2_c = tail_weighted(a_two), tail_weighted(b_one), tail_weighted(c_zero)
    geo2_a = times_geometric(times_geometric(a_two, order), order)
    geo_b = times_geometric(b_one, order)
    geo_t1a = times_geometric(t1_a, order)
    geo_t1b = times_geometric(t1_b, order)

    def total(*terms):
        return add(
            *(monomial_scaled(series, coeff, du, kx, dz, order) for series, coeff, kx, dz in terms)
        )

    new_two = total((geo2_a, 1, 4, 1), (geo_b, 1, 4, 1), (c_zero, 1, 4, 1))
    new_one = total(
        (geo_t1a, 2, 2, 1), (geo2_a, 2, 6, 1), (geo_t1b, 1, 2, 1),
        (t1_b, 1, 2, 1), (geo_b, 1, 6, 1), (t1_c, 2, 2, 1),
    )
    new_zero = total(
        (t2_a, 1, 0, 0), (geo_t1a, 2, 4, 1), (geo2_a, 1, 8, 1),
        (t2_b, 1, 0, 0), (geo_t1b, 1, 4, 1), (t2_c, 1, 0, 0),
    )
    return new_two, new_one, new_zero


def rhs_step(triple, order, track_diagonals):
    """One whole transfer step T(F) = T(0) + L(F)."""
    return tuple(
        add(p, q)
        for p, q in zip(
            constant_step(order, track_diagonals),
            linear_step(triple, order, track_diagonals),
        )
    )
