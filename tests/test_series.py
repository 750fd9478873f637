"""Tests for the exact series domains.

The tail operators are checked against an independent expansion of their
rational forms, done here with plain prefix sums so that the module under
test never certifies itself:

    (S(1) - S(z))/(1 - z)  has z^m coefficient  S(1) - (s_0 + ... + s_m)
    multiplying by 1/(1-z)   <=>  prefix sums
    multiplying by 1/(1-z)^2 <=>  prefix sums weighted by (m - j + 1)
"""

import random
from fractions import Fraction

import pytest

from reference_layered import times_geometric, zpoly_add

from dcpoly.layered import Slots, _times_geometric
from dcpoly.series import (
    BiPoly,
    NonDivisibleError,
    NonSquareConstantError,
    SurdSeries,
    ValuationError,
    XSeries,
    ZeroValuationError,
    ZPolySeries,
)


def xs(terms, order):
    return XSeries.from_terms(terms, order)


# ---------------------------------------------------------------- oracles

def geom_mul(coeffs, order):
    """Multiply a z-coefficient list by 1/(1-z), truncated at z^order."""
    out, acc = [], None
    for m in range(order + 1):
        t = coeffs[m] if m < len(coeffs) else None
        if acc is None:
            acc = t
        elif t is not None:
            acc = acc + t
        out.append(acc)
    return out


def geom2_mul(coeffs, order):
    """Multiply a z-coefficient list by 1/(1-z)^2, truncated at z^order."""
    return geom_mul(geom_mul(coeffs, order), order)


def times(c, poly):
    """An integer multiple of a BiPoly."""
    return BiPoly({k: c * v for k, v in poly.terms.items()}, poly.trunc)


def rational_form_tail_sum(s, order):
    """Expand (S(1)-S(z))/(1-z) to z^order from the coefficient list of S."""
    s1 = sum(s[1:], s[0])
    diff = [s1 - s[0]] + [times(-1, c) for c in s[1:]]
    return geom_mul(diff, order)


def rational_form_tail_weighted(s, order):
    """Expand z(S'(1)-S(1))/(1-z) - z^2 S(1)/(1-z)^2 + z S(z)/(1-z)^2."""
    s1 = sum(s[1:], s[0])
    zero = s[0] - s[0]
    ds1 = sum((times(k, c) for k, c in enumerate(s[1:], 1)), zero)
    t1 = geom_mul([zero, ds1 - s1], order)
    t2 = geom2_mul([zero, zero, zero - s1], order)
    t3 = geom2_mul([zero] + list(s), order)
    return [a + b + c for a, b, c in zip(t1, t2, t3)]


def zpoly(coeff_lists, order):
    """ZPolySeries from a list of {(kd,kx): int} dicts, one per z power."""
    return ZPolySeries([BiPoly(t, order) for t in coeff_lists], order)


# ---------------------------------------------------------------- XSeries

def test_xseries_construction_and_truncation():
    s = xs({0: 1, 2: 5, 7: 3}, 4)
    assert s.order == 4
    assert s.coefficient(2) == 5
    assert s.coefficient(4) == 0
    with pytest.raises(ValueError):
        s.coefficient(5)


def test_ring_ops_use_minimum_order():
    a = xs({0: 1, 1: 1}, 6)
    b = xs({0: 1}, 3)
    assert (a + b).order == 3
    assert (a * b).order == 3


def test_geometric_inverse():
    one = XSeries.one(5)
    den = xs({0: 1, 1: -1}, 5)
    assert one.divide(den).coeff_list() == [1, 1, 1, 1, 1, 1]


def test_divide_with_valuation_cancellation():
    num = xs({2: 1, 3: 1}, 6)
    den = xs({2: 1}, 6)
    q = num.divide(den)
    assert q.order == 4
    assert q.coeff_list() == [1, 1, 0, 0, 0]


def test_divide_rejects_impossible_cancellation():
    num = xs({3: 1}, 10)
    den = xs({4: 1}, 10)
    with pytest.raises(NonDivisibleError):
        num.divide(den)


def test_divide_by_zero_series():
    with pytest.raises(ZeroValuationError):
        xs({0: 1}, 5).divide(XSeries.zero(5))


def test_divide_round_trip_randomized():
    rng = random.Random(11)
    for _ in range(25):
        a = XSeries([Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(21)], 20)
        b = XSeries([Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(21)], 20)
        if b.coefficient(0) == 0:
            b = b + XSeries.one(20)
        if b.coefficient(0) == 0:
            continue
        assert (a * b).divide(b) == a


def test_sqrt_of_one_minus_four_x():
    # frozen from the square-back oracle: (1-2x-2x^2-4x^3)^2 = 1-4x to x^3
    s = xs({0: 1, 1: -4}, 3)
    r = s.sqrt()
    assert r.coeff_list() == [1, -2, -2, -4]
    assert r * r == s


def test_sqrt_round_trip_randomized():
    rng = random.Random(12)
    for _ in range(25):
        c = [Fraction(rng.randint(1, 6) ** 2)] + [
            Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(20)
        ]
        s = XSeries(c, 20)
        r = s.sqrt()
        assert r * r == s
        assert r.coefficient(0) > 0


def test_sqrt_rejects_non_square_constant():
    with pytest.raises(NonSquareConstantError):
        xs({0: 2, 1: 1}, 4).sqrt()
    with pytest.raises(NonSquareConstantError):
        xs({0: -1}, 4).sqrt()
    with pytest.raises(NonSquareConstantError):
        xs({1: 1}, 4).sqrt()


def test_monomial_division():
    s = xs({4: 1, 5: 1}, 9)
    t = s.shift_down(4)
    assert t.order == 5
    assert t.coeff_list() == [1, 1, 0, 0, 0, 0]
    with pytest.raises(ValuationError):
        xs({3: 1}, 9).shift_down(4)


# ---------------------------------------------------------------- SurdSeries

def surd(a_terms, b_terms, disc, order):
    return SurdSeries(xs(a_terms, order), xs(b_terms, order), disc)


def assert_parts(value, a_terms, b_terms):
    assert value.a == xs(a_terms, value.a.order)
    assert value.b == xs(b_terms, value.b.order)


def test_surd_series_field_arithmetic():
    s5 = surd({}, {0: 1}, 5, 3)
    assert_parts((1 + s5) * (1 - s5), {0: -4}, {})
    assert_parts(surd({0: 2}, {0: 1}, 5, 3) * surd({0: -2}, {0: 1}, 5, 3), {0: 1}, {})
    assert_parts(s5 * s5, {0: 5}, {})
    assert_parts(Fraction(1, 2) * s5 + s5, {}, {0: Fraction(3, 2)})
    assert_parts(s5.conjugate(), {}, {0: -1})
    assert_parts(surd({0: 1}, {}, 5, 3).divide(surd({0: 2}, {0: 1}, 5, 3)), {0: -2}, {0: 1})
    assert s5.norm() == xs({0: -5}, 3)
    assert_parts(xs({1: 1}, 3) - s5, {1: 1}, {0: -1})


def test_surd_series_mismatched_discriminants_rejected():
    with pytest.raises(ValueError):
        surd({}, {0: 1}, 5, 3) + surd({}, {0: 1}, 2, 3)
    with pytest.raises(ValueError):
        surd({}, {0: 1}, 5, 3) * surd({}, {0: 1}, 2, 3)


def test_surd_series_sqrt_with_pure_surd_root():
    # sqrt(2 + 2x) with constant root sqrt(2): equals sqrt(2)*(1+x)^(1/2)
    rad = surd({0: 2, 1: 2}, {}, 2, 6)
    r = rad.sqrt((0, 1))
    assert (r * r - rad).is_zero()
    assert_parts(r.truncate(1), {}, {0: 1, 1: Fraction(1, 2)})
    with pytest.raises(ValueError):
        rad.sqrt((1, 0))


def test_surd_series_sqrt_with_mixed_root_squares_back():
    # (3 + sqrt 5)^2 = 14 + 6 sqrt 5
    rad = surd({0: 14, 1: 1, 3: -2}, {0: 6, 2: Fraction(1, 3)}, 5, 12)
    r = rad.sqrt((3, 1))
    assert (r * r - rad).is_zero()


def test_surd_series_divide_round_trip():
    rng = random.Random(17)
    for _ in range(10):
        num = surd({k: rng.randint(-5, 5) for k in range(8)},
                   {k: rng.randint(-5, 5) for k in range(8)}, 13, 7)
        den = surd({0: rng.randint(1, 4), 1: rng.randint(-5, 5), 4: 2},
                   {0: rng.randint(-4, 4), 2: rng.randint(-5, 5)}, 13, 7)
        q = num.divide(den)
        assert q.a.order == 7
        assert (q * den - num).is_zero()


def test_surd_series_over_a_square_discriminant_is_rational():
    one = surd({0: 1}, {0: 2, 1: 1}, 1, 4)
    assert_parts(one, {0: 3, 1: 1}, {})


# ---------------------------------------------------------------- BiPoly

def test_bipoly_arithmetic_and_truncation():
    p = BiPoly({(1, 2): 3, (0, 0): 1}, 4)
    q = BiPoly({(1, 2): 1}, 4)
    assert (p * q).terms == {(2, 4): 3, (1, 2): 1}
    assert (p * p).terms == {(0, 0): 1, (1, 2): 6, (2, 4): 9}
    assert (p - p).is_zero()


def test_ring_axioms_randomized():
    rng = random.Random(13)

    def rand_bipoly():
        terms = {}
        for _ in range(rng.randint(0, 6)):
            terms[(rng.randint(0, 3), rng.randint(0, 8))] = rng.randint(-5, 5)
        return BiPoly(terms, 8)

    for _ in range(40):
        a, b, c = rand_bipoly(), rand_bipoly(), rand_bipoly()
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a + (b + c) == (a + b) + c


# ------------------------------------------------------------ tail operators

def test_tail_sum_on_cube():
    S = zpoly([{}, {}, {}, {(0, 0): 1}], 8)
    out = S.tail_sum()
    assert [c.terms for c in out.z_coeffs()] == [{(0, 0): 1}, {(0, 0): 1}, {(0, 0): 1}]


def test_tail_weighted_on_cube():
    # frozen from the rational-form oracle: 2z + z^2
    S = zpoly([{}, {}, {}, {(0, 0): 1}], 8)
    out = S.tail_weighted()
    assert [c.terms for c in out.z_coeffs()] == [{}, {(0, 0): 2}, {(0, 0): 1}]


def test_tail_weighted_kills_constants_and_degree_one():
    assert zpoly([{(0, 0): 1}], 8).tail_weighted().is_zero()
    assert zpoly([{}, {(1, 2): 7}], 8).tail_weighted().is_zero()


def test_eval_at_one():
    S = zpoly([{}, {(0, 0): 2}, {}, {(1, 4): 1}], 8)
    assert S.eval_at_one().terms == {(0, 0): 2, (1, 4): 1}


def _random_zpoly(rng, deg, order):
    rows = []
    for _ in range(deg + 1):
        terms = {}
        for _ in range(rng.randint(0, 4)):
            terms[(rng.randint(0, 2), rng.randint(0, order))] = rng.randint(-4, 4)
        rows.append(terms)
    return zpoly(rows, order)


def test_tail_operators_match_rational_forms_to_order_40():
    rng = random.Random(14)
    for _ in range(30):
        S = _random_zpoly(rng, rng.randint(0, 12), 10)
        s = list(S.z_coeffs())
        want1 = rational_form_tail_sum(s, 40)
        want2 = rational_form_tail_weighted(s, 40)
        got1 = list(S.tail_sum().z_coeffs())
        got2 = list(S.tail_weighted().z_coeffs())
        for m in range(41):
            g1 = got1[m] if m < len(got1) else None
            g2 = got2[m] if m < len(got2) else None
            assert (want1[m].is_zero() if g1 is None else want1[m] == g1)
            assert (want2[m].is_zero() if g2 is None else want2[m] == g2)


def test_tail_operators_are_linear():
    rng = random.Random(15)
    for _ in range(20):
        S = _random_zpoly(rng, rng.randint(0, 9), 10)
        T = _random_zpoly(rng, rng.randint(0, 9), 10)
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)

        def combo(s, t):
            return zpoly_add(_scaled(s, a), _scaled(t, b))

        assert combo(S, T).tail_sum() == combo(S.tail_sum(), T.tail_sum())
        assert combo(S, T).tail_weighted() == combo(S.tail_weighted(), T.tail_weighted())


def _scaled(series, c):
    return ZPolySeries([times(c, p) for p in series.z_coeffs()], series.order)


def test_geometric_kernel_against_direct_convolution():
    """Once and twice, the packed recurrence equals the product with
    sum x^(4j) z^j, and so does the dict-of-terms reference."""
    rng = random.Random(16)
    order = 12
    slots = Slots(order)
    kernel = [BiPoly({(0, 4 * j): 1}, order) for j in range(order // 4 + 1)]

    def convolve(sc):
        out = []
        for m in range(len(sc) + len(kernel) - 1):
            want = BiPoly({}, order)
            for i, si in enumerate(sc):
                if 0 <= m - i < len(kernel):
                    want = want + si * kernel[m - i]
            out.append(want)
        return ZPolySeries(out, order)

    def pack(series):
        return [
            sum(v << slots.width * (kx // 2) for (_, kx), v in p.terms.items())
            for p in series.z_coeffs()
        ]

    def unpack(packed):
        return ZPolySeries(
            [BiPoly({(0, kx): v for kx, v in slots.unpack(c).items()}, order) for c in packed],
            order,
        )

    for _ in range(30):
        rows = [
            {(0, 2 * rng.randint(0, order // 2)): rng.randint(1, 9) for _ in range(rng.randint(0, 4))}
            for _ in range(rng.randint(1, 6))
        ]
        series = zpoly(rows, order)
        once = convolve(list(series.z_coeffs()))
        assert unpack(_times_geometric(pack(series), slots)) == once
        assert times_geometric(series) == once
        twice = convolve(list(once.z_coeffs()))
        packed_twice = _times_geometric(_times_geometric(pack(series), slots), slots)
        assert unpack(packed_twice) == twice
        assert times_geometric(times_geometric(series)) == twice
