"""Exact truncated-series arithmetic used throughout the package.

One series type covers the closed-form algebra: ``XSeries``, a power
series in one variable, truncated at a fixed order, with rational
coefficients.  Division and square root are exact and refuse to proceed
when the leading terms make the result leave the ring.

The layered iteration needs no series type: it runs on packed integers in
``dcpoly.layered``.

An ``XSeries`` is fraction-free: coefficient k is nums[k] / (den * lam^k)
with integer numerators, positive integers den and lam, and den divided
by gcd(den, *nums) after every operation.  A product brings both sides
to the scale lcm(lam_a, lam_b) and multiplies once, as big integers
(Kronecker substitution).  Reciprocals and square roots run integer
recurrences whose scale grows each step; after them every prime p < 2000
of lam with p^k | nums[k] for all k moves back into the numerators.
``Fraction`` appears only where coefficients come in or go out.
"""

from fractions import Fraction
from itertools import accumulate
from math import gcd, isqrt, lcm, prod
from operator import add, mul


class ValuationError(ValueError):
    """A shift or division needs more leading zeros than the series has."""


class ZeroValuationError(ValuationError):
    """Division by a series that is zero through its whole truncation."""


class NonDivisibleError(ValueError):
    """Low-order terms do not cancel, so the quotient is not a series."""


class NonSquareConstantError(ValueError):
    """The constant term has no exact square root in the coefficient field."""


def _rational_sqrt(value):
    """Exact square root of a nonnegative rational, or None."""
    if value >= 0 and all(isqrt(v) ** 2 == v for v in (value.numerator, value.denominator)):
        return Fraction(isqrt(value.numerator), isqrt(value.denominator))


# the primes below 2000, which _unscaled tries on lam, by a sieve, and their product
_SIEVE = bytearray([0, 0]) + bytearray([1]) * 1998
for _p in range(2, 45):
    _SIEVE[_p * _p :: _p] = bytes(len(range(_p * _p, 2000, _p)))
_PRIMES = [p for p, prime in enumerate(_SIEVE) if prime]
_PRIMORIAL = prod(_PRIMES)


def _rescaled(nums, r, first=1):
    """nums[k] * first * r^k: the same coefficients over a den ``first``
    times larger and a lam r times larger."""
    if r == first == 1:
        return nums
    return list(map(mul, nums, accumulate([first] + [r] * (len(nums) - 1), mul)))


def _unscaled(nums, den, lam, order):
    """The series nums[k] / (den * lam^k) for nonzero integers den and lam.

    Their signs move into the numerators, and so does every prime p < 2000
    of lam with p^k | nums[k] for all k; only the primes in
    gcd(lam, _PRIMORIAL) are tried.
    """
    nums = _rescaled(nums, -1 if lam < 0 else 1, -1 if den < 0 else 1)
    den, lam = abs(den), abs(lam)
    small = gcd(lam, _PRIMORIAL)  # the product of the primes below 2000 that divide lam
    for p in _PRIMES:
        if small == 1:
            break
        if small % p:
            continue
        small //= p
        while lam % p == 0:
            powers = _rescaled([1] * len(nums), p)
            if any(c % q for c, q in zip(nums, powers)):
                break
            nums, lam = [c // q for c, q in zip(nums, powers)], lam // p
    return XSeries(nums, order, den, lam)


def _product(a, b, size):
    """The first ``size`` coefficients of the product of two integer lists.

    Kronecker substitution: each list, without trailing zeros, is packed
    into one integer, a coefficient plus 2^(W-1) in every W-bit slot.  W
    exceeds by one the bits any |coefficient| of the product below
    x^size can have, so no kept slot carries; higher slots may, which
    only adds a multiple of 2^(W*size) before the mask.
    """
    a, b = (s[: next((k + 1 for k in range(min(len(s), size) - 1, -1, -1) if s[k]), 0)]
            for s in (a, b))
    if not a or not b:
        return [0] * size
    # a[i] meets b[j] only for j <= size - 1 - i: b's widest entry up to there
    b_top = list(accumulate(map(int.bit_length, b), max))
    reach = [b_top[-1]] * (size - len(b) + 1) + b_top[-2::-1]
    bits = max(map(add, map(int.bit_length, a), reach))
    width = (bits + min(len(a), len(b)).bit_length()) // 8 + 1
    bias = 1 << 8 * width - 1
    offset = bias.to_bytes(width, "little")

    def pack(values):
        joined = b"".join([(c + bias).to_bytes(width, "little") for c in values])
        return int.from_bytes(joined, "little") - int.from_bytes(offset * len(values), "little")

    used, packed = min(size, len(a) + len(b) - 1), pack(a)
    packed = packed * (packed if a == b else pack(b)) + int.from_bytes(offset * used, "little")
    data = (packed & (1 << 8 * width * used) - 1).to_bytes(width * used, "little")
    out = [int.from_bytes(data[i : i + width], "little") - bias for i in range(0, len(data), width)]
    return out + [0] * (size - used)


def _aligned(a, b, common_den=False):
    """[x, y, den, lam, n]: the numerators of a and b to the smaller order n
    on the scale lam = lcm(lam_a, lam_b), and over den = lcm(den_a, den_b)
    if ``common_den`` is set (else den is None)."""
    n, lam = min(a.order, b.order), lcm(a.lam, b.lam)
    den = lcm(a.den, b.den) if common_den else None
    nums = [_rescaled(s.nums[: n + 1], lam // s.lam, den // s.den if den else 1) for s in (a, b)]
    return nums + [den, lam, n]


def _unit_root(fa, lam):
    """sqrt(F / F_0) for F_k = fa[k] / lam^k.

    With the content of F removed, N = F_0 is an integer, and the x^n
    coefficient is S_n / (4N*lam)^n, with S_0 = 1 and

        S_n = (4^n N^(n-1) F_n - sum_{0<k<n} S_k S_(n-k)) / 2,

    which is an integer by induction; the halving checks it.
    """
    content = gcd(*fa)
    fa = [c // content for c in fa]
    scale = 4 * fa[0]
    sa, power = [1], 4
    for n in range(1, len(fa)):
        twice = power * fa[n] - sum(map(mul, sa[1:n], sa[n - 1 : 0 : -1]))
        if twice & 1:
            raise ArithmeticError("odd numerator in the square-root recurrence at x^%d" % n)
        sa.append(twice >> 1)
        power *= scale
    return _unscaled(sa, 1, scale * lam, len(fa) - 1)


class XSeries:
    """Truncated power series sum_{k<=order} c_k x^k with rational coefficients.

    Coefficients come in as ints or Fractions and are kept as
    nums[k] / (den * lam^k); equality compares values.  Binary
    operations truncate to the smaller of the two orders, so a value
    never claims more precision than both inputs carry.
    """

    __slots__ = ("nums", "den", "lam", "order")

    def __init__(self, coeffs, order, den=None, lam=1):
        """``coeffs`` are ints or Fractions, or, with positive ``den`` and
        ``lam`` given, the integer numerators of c_k = coeffs[k] / (den * lam^k)."""
        if order < 0:
            raise ValueError("order must be nonnegative")
        nums = coeffs[: order + 1]
        if den is None:
            den = lcm(*(c.denominator for c in nums))
            nums = [c.numerator * (den // c.denominator) for c in nums]
        g = gcd(den, *nums) if den != 1 else 1
        if g != 1:
            nums, den = [c // g for c in nums], den // g
        self.nums = tuple(nums) + (0,) * (order + 1 - len(nums))
        self.den, self.lam, self.order = den, lam, order

    @classmethod
    def from_terms(cls, terms, order):
        coeffs = [0] * (order + 1)
        for k, v in terms.items():
            if 0 <= k <= order:
                coeffs[k] = v
        return cls(coeffs, order)

    @classmethod
    def zero(cls, order):
        return cls([], order)

    @classmethod
    def one(cls, order):
        return cls([1], order)

    def coefficient(self, k):
        if k < 0 or k > self.order:
            raise ValueError("coefficient x^%d beyond truncation order %d" % (k, self.order))
        return Fraction(self.nums[k], self.den * self.lam**k)

    def coeff_list(self):
        scales = _rescaled([1] * len(self.nums), self.lam, self.den)
        return [Fraction(c, scale) for c, scale in zip(self.nums, scales)]

    def valuation(self):
        return next((k for k, c in enumerate(self.nums) if c), None)

    def is_zero(self):
        return not any(self.nums)

    def truncate(self, new_order):
        if new_order > self.order:
            raise ValueError("cannot extend a truncated series")
        return XSeries(self.nums[: new_order + 1], new_order, self.den, self.lam)

    def _plus(self, other, sign):
        x, y, den, lam, n = _aligned(self, other, True)
        return XSeries([p + sign * q for p, q in zip(x, y)], n, den, lam)

    def __add__(self, other):
        return self._plus(other, 1) if isinstance(other, XSeries) else NotImplemented

    def __sub__(self, other):
        return self._plus(other, -1) if isinstance(other, XSeries) else NotImplemented

    def __neg__(self):
        return XSeries([-c for c in self.nums], self.order, self.den, self.lam)

    def __mul__(self, other):
        if isinstance(other, XSeries):
            x, y, _, lam, n = _aligned(self, other)
            return XSeries(_product(x, y, n + 1), n, self.den * other.den, lam)
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            nums = [c * q.numerator for c in self.nums]
            return XSeries(nums, self.order, self.den * q.denominator, self.lam)
        return NotImplemented

    __rmul__ = __mul__

    def divide(self, den):
        """Exact quotient self/den; the order drops by den's valuation v.

        It is self / x^v times the reciprocal of den / x^v (see
        ``_reciprocal``).
        """
        if not isinstance(den, XSeries):
            raise TypeError("divide expects an XSeries denominator")
        v, reciprocal = _reciprocal(den, min(self.order, den.order))
        lead = self.valuation()
        if lead is not None and lead < v:
            raise NonDivisibleError("numerator has x^%d but denominator starts at x^%d" % (lead, v))
        return self.shift_down(v).truncate(reciprocal.order) * reciprocal

    def shift_down(self, k):
        """Divide by x^k; the first k coefficients must vanish."""
        if k < 0:
            raise ValueError("shift amount must be nonnegative")
        if k > self.order:
            raise ValuationError("cannot shift past the truncation order")
        j = self.valuation()
        if j is not None and j < k:
            raise ValuationError("nonzero coefficient at x^%d blocks division by x^%d" % (j, k))
        return XSeries(self.nums[k:], self.order - k, self.den * self.lam**k, self.lam)

    def sqrt(self):
        """Exact square root, the branch with a positive constant term.

        The constant term must be a positive rational square.  This is
        the root of the constant term times ``_unit_root`` of the
        numerators.
        """
        root = _rational_sqrt(Fraction(self.nums[0], self.den))
        if not root:
            raise NonSquareConstantError(
                "constant term %s is not a positive rational square" % (self.coefficient(0),)
            )
        return _unit_root(self.nums, self.lam) * root

    def __eq__(self, other):
        if not isinstance(other, XSeries):
            return NotImplemented
        x, y = _aligned(self, other, True)[:2]
        return self.order == other.order and list(x) == list(y)

    def __repr__(self):
        parts = [
            "%s*x^%d" % (c, k) for k, c in enumerate(self.coeff_list()) if c != 0
        ]
        return "XSeries(%s; order=%d)" % (" + ".join(parts) or "0", self.order)


def _reciprocal(den, n):
    """(v, r): the valuation v of den, and r = x^v / den through x^(n - v).

    On the numerators b of den / x^v the x^k coefficient of r is
    T_k / b_0^(k+1) with T_0 = 1 and T_k = -sum_{0<j<=k} b_j b_0^(j-1) T_(k-j),
    so its scale grows by b_0.
    """
    v = den.valuation()
    if v is None or v > n:
        raise ZeroValuationError("division by a series that is zero through its order")
    den = den.shift_down(v).truncate(n - v)
    b = den.nums
    weights, t = _rescaled(b[1:], b[0]), [den.den]
    for k in range(1, n - v + 1):
        t.append(-sum(map(mul, weights[:k], reversed(t))))
    return v, _unscaled(t, b[0], den.lam * b[0], n - v)
