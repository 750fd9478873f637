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
from dcpoly.layered import _tail_sum
from dcpoly.series import (
    NonDivisibleError,
    NonSquareConstantError,
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


@pytest.mark.parametrize(
    "call",
    [
        lambda m: m.divide(xs({0: 1}, 5), XSeries.zero(5)),
        lambda m: m.divide(xs({0: 1}, 4), xs({5: 1}, 9)),
        lambda m: m.divide(xs({3: 1}, 10), xs({4: -2, 5: 1}, 10)),
        lambda m: m.sqrt(xs({0: 2, 1: 1}, 4)),
        lambda m: m.sqrt(xs({0: Fraction(-4, 9)}, 4)),
        lambda m: m.sqrt(xs({1: 1}, 4)),
    ],
    ids=[
        "divide-by-zero", "valuation-past-order", "non-divisible",
        "non-square", "negative", "zero-constant",
    ],
)
def test_each_error_path_matches_reference(call):
    class Series:
        divide = staticmethod(XSeries.divide)
        sqrt = staticmethod(XSeries.sqrt)

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


def test_square_root_halving_is_checked_not_floored(monkeypatch):
    """Every numerator the recurrence halves is even; an odd one, here from
    a convolution off by one per nonzero term, raises instead of flooring."""
    monkeypatch.setattr(series, "mul", lambda x, y: x * y + (x != 0))
    with pytest.raises(ArithmeticError, match="odd numerator .* degree 2$"):
        xs({0: 1, 1: 1}, 4).sqrt()


# ------------------------------------------------------------ tail operators
# ``dcpoly.layered`` applies them to z-lists of packed ints; they are
# linear, so random integers of either sign stand for any packed entries


def _tail_weighted(series):
    """T2 as the solve forms it: the suffix sums of the suffix sums, whose
    z^m coefficient is the sum of (k - m) s_k over k > m, from z^1 on."""
    return [0] + _tail_sum(_tail_sum(series))

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
    """Once and twice, the reference kernel equals the product with
    sum x^(4j) z^j, and so does the solve's recurrence P(n, m) = F(n, m) +
    P(n - 2, m - 1), here on the t-degree n = kx/2 of each term."""
    rng = random.Random(16)
    order = 12

    def convolve(terms):
        out = {}
        for (kd, kx, m), v in terms.items():
            for j in range((order - kx) // 4 + 1):
                key = (kd, kx + 4 * j, m + j)
                out[key] = out.get(key, 0) + v
        return out

    def recurrence(terms):
        # d-degree 0 throughout; x^kx is t^(kx/2), so t^(n - 2) is x^(kx - 4)
        out = {}
        for kx in range(0, order + 1, 2):
            for m in range(order + 1):
                v = terms.get((0, kx, m), 0) + out.get((0, kx - 4, m - 1), 0)
                if v:
                    out[0, kx, m] = v
        return out

    for _ in range(30):
        terms = {}
        for m in range(rng.randint(1, 6)):
            for _ in range(rng.randint(0, 4)):
                terms[0, 2 * rng.randint(m, order // 2), m] = rng.randint(1, 9)
        once = convolve(terms)
        assert times_geometric(terms, order) == once
        assert recurrence(terms) == once
        twice = convolve(once)
        assert times_geometric(times_geometric(terms, order), order) == twice
        assert recurrence(once) == twice
