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
from itertools import accumulate

import pytest

import reference_series
from reference_layered import times_geometric

from dcpoly import series
from dcpoly.layered import Slots, _linear_step, _tail_sum, _tail_weighted
from dcpoly.series import (
    NonDivisibleError,
    NonSquareConstantError,
    SurdSeries,
    ValuationError,
    XSeries,
    ZeroValuationError,
)


def xs(terms, order):
    return XSeries.from_terms(terms, order)


# ---------------------------------------------------------------- oracles

def geom_mul(coeffs, order):
    """Multiply a z-coefficient list by 1/(1-z), truncated at z^order."""
    return list(accumulate(list(coeffs[: order + 1]) + [0] * (order + 1 - len(coeffs))))


def geom2_mul(coeffs, order):
    """Multiply a z-coefficient list by 1/(1-z)^2, truncated at z^order."""
    return geom_mul(geom_mul(coeffs, order), order)


def rational_form_tail_sum(s, order):
    """Expand (S(1)-S(z))/(1-z) to z^order from the coefficient list of S."""
    diff = [sum(s) - s[0]] + [-c for c in s[1:]]
    return geom_mul(diff, order)


def rational_form_tail_weighted(s, order):
    """Expand z(S'(1)-S(1))/(1-z) - z^2 S(1)/(1-z)^2 + z S(z)/(1-z)^2."""
    s1 = sum(s)
    ds1 = sum(k * c for k, c in enumerate(s))
    t1 = geom_mul([0, ds1 - s1], order)
    t2 = geom2_mul([0, 0, -s1], order)
    t3 = geom2_mul([0] + list(s), order)
    return [a + b + c for a, b, c in zip(t1, t2, t3)]


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
    assert r.a.is_zero()
    assert [r.b.coefficient(k) for k in range(3)] == [1, Fraction(1, 2), Fraction(-1, 8)]
    with pytest.raises(ValueError):
        rad.sqrt((1, 0))


def test_surd_series_sqrt_with_mixed_root_squares_back():
    # (3 + sqrt 5)^2 = 14 + 6 sqrt 5
    rad = surd({0: 14, 1: 1, 3: -2}, {0: 6, 2: Fraction(1, 3)}, 5, 12)
    r = rad.sqrt((3, 1))
    assert (r * r - rad).is_zero()


def test_surd_series_over_a_square_discriminant_is_rational():
    one = surd({0: 1}, {0: 2, 1: 1}, 1, 4)
    assert_parts(one, {0: 3, 1: 1}, {})


def test_a_zero_value_over_a_square_discriminant_is_zero():
    # 5 - sqrt(25) = 0, and so is its square
    zero = SurdSeries(XSeries([5], 2), XSeries([-1], 2), 25)
    assert zero.disc == 1
    assert zero.is_zero()
    assert (zero * zero).is_zero()


@pytest.mark.parametrize("root", (2, 3))
def test_pairs_over_a_square_discriminant_equal_their_rational_folds(root):
    rng = random.Random(root)
    a, b = _random_series(rng, 10), _random_series(rng, 10)
    pair = SurdSeries(a, b, root * root)
    assert pair.disc == 1
    assert pair.a == a + b * root
    assert pair.b.is_zero()


def test_product_and_sqrt_over_disc_nine_match_the_same_work_over_q():
    rng = random.Random(9)
    a, b, c, e = (_random_series(rng, 12) for _ in range(4))
    product = SurdSeries(a, b, 9) * SurdSeries(c, e, 9)
    assert (product.disc, product.a, product.b.is_zero()) == (1, (a + b * 3) * (c + e * 3), True)
    # a + 3b = 4 + 12x + 12x^2, whose root over Q has constant term 2
    radicand = SurdSeries(xs({0: 4, 1: 12, 2: 9}, 12), xs({2: 1}, 12), 9)
    root = radicand.sqrt((2, 0))
    assert (root.disc, root.a, root.b.is_zero()) == (1, xs({0: 4, 1: 12, 2: 12}, 12).sqrt(), True)


# ------------------------------------------ against the Fraction reference

def _rational(rng):
    return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 7, 25)))


def _rescaled_copy(s, rng):
    """The same value as s, usually on another den*lam^k scale: dividing
    by g after multiplying by g runs the reciprocal of g, whose scale
    grows by g's constant term."""
    g = XSeries([rng.choice((-3, 2, 5, Fraction(2, 3))), rng.randint(-4, 4), 1], s.order)
    return (s * g).divide(g) if rng.random() < 0.7 else s


def _random_series(rng, order, valuation=0, lead=None):
    coeffs = [0] * valuation + [lead if lead is not None else _rational(rng) or 1]
    coeffs += [_rational(rng) for _ in range(order)]
    return _rescaled_copy(XSeries(coeffs, order), rng)


def _same(got, want):
    assert got.order == want.order
    assert got == want
    assert got.coeff_list() == want.coeff_list()


def test_mul_matches_reference_with_mixed_scales_and_orders():
    rng = random.Random(21)
    scales = set()
    for _ in range(40):
        a = _random_series(rng, rng.randint(0, 24), rng.randint(0, 2), rng.choice((None, -5)))
        b = _random_series(rng, rng.randint(0, 24))
        scales.add((a.lam > 1, a.lam != b.lam))
        _same(a * b, reference_series.mul(a, b))
        _same(a * a, reference_series.mul(a, a))
        c = _rational(rng)
        _same(a * c, reference_series.mul(a, XSeries([c], a.order)))
    assert (True, True) in scales and (False, False) in scales


def test_divide_matches_reference_with_valuation_and_negative_leads():
    rng = random.Random(22)
    for _ in range(40):
        v = rng.randint(0, 3)
        den = _random_series(rng, rng.randint(v, 24), v, rng.choice((None, -1, -7, Fraction(-3, 4))))
        num = _random_series(rng, rng.randint(v, 24), v + rng.randint(0, 2))
        _same(num.divide(den), reference_series.divide(num, den))


def test_sqrt_matches_reference_on_rescaled_inputs():
    rng = random.Random(23)
    for _ in range(40):
        root = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        s = _random_series(rng, rng.randint(0, 24), 0, root * root)
        _same(s.sqrt(), reference_series.sqrt(s))


def _random_surd(rng, disc, order, root0):
    p, q = root0
    a = [p * p + disc * q * q] + [_rational(rng) for _ in range(order)]
    b = [2 * p * q] + [_rational(rng) for _ in range(order)]
    return SurdSeries(_rescaled_copy(XSeries(a, order), rng), XSeries(b, order), disc)


def _same_surd(got, want):
    assert got.disc == want.disc
    _same(got.a, want.a)
    _same(got.b, want.b)


def test_surd_sqrt_matches_reference_for_either_sign_of_the_norm():
    rng = random.Random(24)
    signs = set()
    for _ in range(40):
        disc = rng.choice((2, 3, 5, 13))
        root0 = (_rational(rng), _rational(rng) or 1)
        signs.add(root0[0] ** 2 > disc * root0[1] ** 2)
        s = _random_surd(rng, disc, rng.randint(0, 20), root0)
        _same_surd(s.sqrt(root0), reference_series.surd_sqrt(s, root0))
    assert signs == {False, True}


def test_surd_mul_matches_reference_with_rational_parts_scales_and_orders():
    """Two nonzero irrational parts take the three-product path, a zero one
    on either side the direct products; both against the reference."""
    rng = random.Random(27)
    seen = set()
    for _ in range(60):
        disc = rng.choice((2, 5, 13))
        pairs = []
        for _ in range(2):
            order = rng.randint(0, 20)
            rational = rng.random() < 0.3
            b = XSeries.zero(order) if rational else _random_series(rng, order, rng.randint(0, 2))
            pairs.append(SurdSeries(_random_series(rng, order, rng.randint(0, 2)), b, disc))
        x, y = pairs
        seen.add((x.b.is_zero(), y.b.is_zero()))
        seen.add(("scales differ", len({s.lam for s in (x.a, x.b, y.a, y.b)}) > 1))
        seen.add(("dens differ", len({s.den for s in (x.a, x.b, y.a, y.b)}) > 1))
        seen.add(("orders differ", x.a.order != y.a.order))
        _same_surd(x * y, reference_series.surd_mul(x, y))
        _same_surd(x * x, reference_series.surd_mul(x, x))
    assert {(False, False), (False, True), (True, False), (True, True)} <= seen
    assert {("scales differ", True), ("dens differ", True), ("orders differ", True)} <= seen
    assert ("orders differ", False) in seen


def test_discriminant_one_folds_in_sqrt():
    rng = random.Random(26)
    for _ in range(10):
        # over disc 1 the constant term p^2 may be split between the parts
        p, split = Fraction(rng.randint(-6, 6) or 1, 5), _rational(rng)
        s = SurdSeries(
            _random_series(rng, 12, 0, p * p - split), _random_series(rng, 12, 0, split), 1
        )
        root0 = (p, 0)
        got = s.sqrt(root0)
        assert got.b.is_zero()
        _same_surd(got, reference_series.surd_sqrt(s, root0))


@pytest.mark.parametrize(
    "call",
    [
        lambda m: m.divide(xs({0: 1}, 5), XSeries.zero(5)),
        lambda m: m.divide(xs({0: 1}, 4), xs({5: 1}, 9)),
        lambda m: m.divide(xs({3: 1}, 10), xs({4: -2, 5: 1}, 10)),
        lambda m: m.sqrt(xs({0: 2, 1: 1}, 4)),
        lambda m: m.sqrt(xs({0: Fraction(-4, 9)}, 4)),
        lambda m: m.sqrt(xs({1: 1}, 4)),
        lambda m: m.surd_sqrt(surd({0: 6}, {0: 2}, 5, 4), (2, 1)),
        lambda m: m.surd_sqrt(surd({1: 1}, {2: 1}, 5, 4), (0, 0)),
    ],
    ids=[
        "divide-by-zero", "valuation-past-order", "non-divisible",
        "non-square", "negative", "zero-constant",
        "surd-wrong-root", "surd-zero-constant",
    ],
)
def test_each_error_path_matches_reference(call):
    class Series:
        divide = staticmethod(XSeries.divide)
        sqrt = staticmethod(XSeries.sqrt)
        surd_sqrt = staticmethod(SurdSeries.sqrt)

    with pytest.raises(Exception) as want:
        call(reference_series)
    with pytest.raises(type(want.value)):
        call(Series)


def test_two_representations_of_one_series_compare_equal():
    s = xs({0: 1, 1: 1, 3: Fraction(-2, 3)}, 12)
    root = s.sqrt()
    square = root * root
    assert (square.lam, square.den) != (s.lam, s.den)
    assert square == s and s == square
    assert square.coeff_list() == s.coeff_list()
    assert square != s + xs({12: 1}, 12)
    assert XSeries.one(12) != XSeries.one(11)


def test_scale_reduction_returns_integer_roots_to_lam_one():
    # sqrt(1 - 4x) and 1/(1 - x) have integer coefficients
    assert xs({0: 1, 1: -4}, 30).sqrt().lam == 1
    assert XSeries.one(30).divide(xs({0: 1, 1: -1}, 30)).lam == 1
    # 1/(3 - x) = sum x^k / 3^(k+1) keeps the 3
    assert XSeries.one(30).divide(xs({0: 3, 1: -1}, 30)).lam == 3


def test_unscaling_stops_at_the_rest_of_lam_and_keeps_primes_past_the_sieve():
    # 4 * 1999: 2 twice, then 1999, the last prime the trial division tries
    lam = 4 * 1999
    moved = series._unscaled([1, 5 * lam, 7 * lam**2], 1, lam, 2)
    assert (moved.nums, moved.lam) == ((1, 5, 7), 1)
    # 2003 is prime and above the sieve, so it stays in lam
    kept = series._unscaled([1, 2003, 2003**2], 1, 2003, 2)
    assert (kept.nums, kept.lam) == ((1, 2003, 2003**2), 2003)
    assert kept.coeff_list() == [1, 1, 1]
    # 2, 3 and 7 divide every numerator as often as they must and move;
    # 5 does not, and 2003 is past the sieve
    lam = 2 * 3 * 5 * 7 * 2003
    moved = series._unscaled([1, 42, 42**2 * 11], 1, lam, 2)
    assert (moved.nums, moved.lam) == ((1, 1, 11), 5 * 2003)


def _assert_read_at_square(t_series, x_series, order):
    """x_series is t_series at t = x^2: t^j at x^(2j), zero at odd x-degrees."""
    assert x_series.order == order
    for k in range(order + 1):
        assert x_series.coefficient(k) == (t_series.coefficient(k // 2) if k % 2 == 0 else 0)


def _t_series():
    """sqrt(1 + t) and a root over Q(sqrt 2), both to t^10."""
    return xs({0: 1, 1: 1}, 10).sqrt(), surd({0: 3, 1: 1}, {0: 2, 1: -1}, 2, 10).sqrt((1, 1))


@pytest.mark.parametrize("order", (15, 20, 21))
def test_at_square_reads_a_t_series_in_x(order):
    # both keep powers of 2 in lam, so the t^j numerator must gain lam^j
    # on its way to x^(2j)
    real, pair = _t_series()
    assert real.lam > 1 and pair.a.lam > 1
    _assert_read_at_square(real, real.at_square(order), order)
    wide = pair.at_square(order)
    assert wide.disc == 2
    _assert_read_at_square(pair.a, wide.a, order)
    _assert_read_at_square(pair.b, wide.b, order)


def test_at_square_refuses_orders_the_t_series_does_not_carry():
    for value in _t_series():
        value.at_square(21)
        with pytest.raises(ValueError):
            value.at_square(22)


def test_square_root_halving_is_checked_not_floored(monkeypatch):
    """Every numerator the recurrence halves is even; an odd one, here from
    a convolution off by one per nonzero term, raises instead of flooring.
    (In the surd case the x^1 root numerator is rational: (3 + sqrt 5) *
    conjugate(6 + 2 sqrt 5) = 8.)"""
    monkeypatch.setattr(series, "mul", lambda x, y: x * y + (x != 0))
    with pytest.raises(ArithmeticError, match="odd numerator .* x\\^2"):
        xs({0: 1, 1: 1}, 4).sqrt()
    with pytest.raises(ArithmeticError, match="odd numerator .* x\\^2"):
        surd({0: 6, 1: 3}, {0: 2, 1: 1}, 5, 4).sqrt((1, 1))


# ------------------------------------------------------------ tail operators
# ``dcpoly.layered`` applies them to z-lists of packed ints; they are
# linear, so random integers of either sign stand for any packed entries

def test_tail_sum_on_cube():
    assert _tail_sum([0, 0, 0, 1]) == [1, 1, 1]


def test_tail_weighted_on_cube():
    # frozen from the rational-form oracle: 2z + z^2
    assert _tail_weighted([0, 0, 0, 1]) == [0, 2, 1]


def test_tail_weighted_kills_constants_and_degree_one():
    assert not any(_tail_weighted([1]))
    assert not any(_tail_weighted([0, 7]))


def _random_zlist(rng, deg):
    bound = rng.choice((9, 2**80))
    return [rng.randint(-bound, bound) for _ in range(deg + 1)]


def _padded(values, size):
    return list(values) + [0] * (size - len(values))


def test_tail_operators_match_rational_forms_to_order_40():
    rng = random.Random(14)
    for _ in range(30):
        s = _random_zlist(rng, rng.randint(0, 12))
        before = list(s)
        assert _padded(_tail_sum(s), 41) == rational_form_tail_sum(s, 40)
        assert _padded(_tail_weighted(s), 41) == rational_form_tail_weighted(s, 40)
        assert s == before


def test_tail_operators_are_linear():
    rng = random.Random(15)
    for _ in range(20):
        s, t = (_random_zlist(rng, rng.randint(0, 9)) for _ in range(2))
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)

        def combo(p, q):
            n = max(len(p), len(q))
            return [a * u + b * v for u, v in zip(_padded(p, n), _padded(q, n))]

        for op in (_tail_sum, _tail_weighted):
            assert op(combo(s, t)) == combo(op(s), op(t))


def test_geometric_kernel_against_direct_convolution():
    """Once and twice, the kernel inside the packed step equals the
    product with sum x^(4j) z^j, and so does the dict-of-terms reference.
    From a delta with only B (or only A) the step's two-nose output is
    x^4 z K B (or x^4 z K^2 A), read here with the x^4 z taken off.
    Every term x^kx z^m has kx >= 2m, as in the frame of the layered
    steps at k = 0, where it is stored kx/2 - m slots up."""
    rng = random.Random(16)
    order = 12
    slots = Slots(order)

    def convolve(terms):
        out = {}
        for (kd, kx, m), v in terms.items():
            for j in range((order - kx) // 4 + 1):
                key = (kd, kx + 4 * j, m + j)
                out[key] = out.get(key, 0) + v
        return out

    def pack(terms):
        packed = [0] * (max(m for _, _, m in terms) + 1) if terms else []
        for (_, kx, m), v in terms.items():
            packed[m] += v << slots.width * (kx // 2 - m)
        return packed

    def kernel(terms, power):
        # entry j of the output stands at offset k + 1 + j = 1 + j
        delta = ([], pack(terms), []) if power == 1 else (pack(terms), [], [])
        two = _linear_step(delta, 0, slots)[0]
        return {
            (0, kx + 2 * j - 2, j - 1): c
            for j, v in enumerate(two)
            for kx, c in slots.unpack(v).items()
        }

    def fits(terms):
        return {key: v for key, v in terms.items() if key[1] + 4 <= order}

    for _ in range(30):
        terms = {}
        for m in range(rng.randint(1, 6)):
            for _ in range(rng.randint(0, 4)):
                terms[0, 2 * rng.randint(m, order // 2), m] = rng.randint(1, 9)
        once = convolve(terms)
        assert kernel(terms, 1) == fits(once)
        assert times_geometric(terms, order) == once
        twice = convolve(once)
        assert kernel(terms, 2) == fits(twice)
        assert times_geometric(times_geometric(terms, order), order) == twice

