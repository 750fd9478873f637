"""Exact truncated-series arithmetic used throughout the package.

Two series types cover the closed-form algebra:

* ``XSeries``: a power series in one variable, truncated at a fixed order,
  with rational coefficients.  Division and square root are exact and
  refuse to proceed when the leading terms make the result leave the
  ring.

* ``SurdSeries``: a pair a + b*sqrt(D) of ``XSeries``, for the roots
  whose constant terms are irrational.  It adds, multiplies, divides
  through the rational norm a^2 - D*b^2, and takes square roots from
  a given constant root.  An identity over Q(sqrt D) holds only when
  both parts vanish, so the irrational part is always checked.  Two
  pairs with nonzero irrational parts multiply in three products on one
  scale, ac, be and (a + b)(c + e), as ac + D*be + ((a + b)(c + e) - ac
  - be)*sqrt(D); division takes the norm's reciprocal once for both parts.

The layered iteration needs neither: it runs on packed integers in
``dcpoly.layered``.

An ``XSeries`` is fraction-free: coefficient k is nums[k] / (den * lam^k)
with integer numerators, positive integers den and lam, and den divided
by gcd(den, *nums) after every operation.  A product brings both sides
to the scale lcm(lam_a, lam_b) and multiplies once, as big integers
(Kronecker substitution).  Reciprocals and square roots run integer
recurrences whose scale grows each step; after them every prime p < 2000
of lam with p^k | nums[k] for all k moves back into the numerators.  The
square root of a rational series runs only the rational half of its
recurrence.
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


def _aligned(a, b, common_den=False, lam=None):
    """[x, y, den, lam, n]: the numerators of a and b to the smaller order n
    on the scale ``lam`` (by default lcm(lam_a, lam_b), else a multiple
    of it), and over den = lcm(den_a, den_b) if ``common_den`` is set
    (else den is None)."""
    n, lam = min(a.order, b.order), lam or lcm(a.lam, b.lam)
    den = lcm(a.den, b.den) if common_den else None
    nums = [_rescaled(s.nums[: n + 1], lam // s.lam, den // s.den if den else 1) for s in (a, b)]
    return nums + [den, lam, n]


def _unit_root(fa, fb, disc, lam):
    """sqrt(F / F_0) for F_k = (fa[k] + fb[k]*sqrt(disc)) / lam^k, as a pair
    whose irrational part is None when every fb[k] is 0.

    With the content of F removed, c = conjugate(F_0) (or 1 if F_0 is
    rational) makes N = F_0*c an integer, and F_n / F_0 = h_n / N with
    h_n = F_n*c.  The x^n coefficient is S_n / (4N*lam)^n, with S_0 = 1 and

        S_n = (4^n N^(n-1) h_n - sum_{0<k<n} S_k S_(n-k)) / 2,

    whose parts are even by induction; the halving checks it.  A
    rational F has a rational root, so only the rational half of the
    recurrence runs.
    """
    content = gcd(*fa, *fb)
    fa, fb = [c // content for c in fa], [c // content for c in fb]
    ca, cb = (fa[0], -fb[0]) if fb[0] else (1, 0)
    scale = 4 * (fa[0] * ca + disc * fb[0] * cb)
    surd = any(fb)
    sa, sb, power = [1], [0], 4
    for n in range(1, len(fa)):
        conv_a = sum(map(mul, sa[1:n], sa[n - 1 : 0 : -1]))
        twice_a, twice_b = power * (fa[n] * ca + disc * fb[n] * cb) - conv_a, 0
        if surd:
            twice_a -= disc * sum(map(mul, sb[1:n], sb[n - 1 : 0 : -1]))
            conv_b = 2 * sum(map(mul, sa[1:n], sb[n - 1 : 0 : -1]))
            twice_b = power * (fb[n] * ca + fa[n] * cb) - conv_b
        if (twice_a | twice_b) & 1:
            raise ArithmeticError("odd numerator in the square-root recurrence at x^%d" % n)
        sa.append(twice_a >> 1)
        sb.append(twice_b >> 1)
        power *= scale
    order, lam = len(fa) - 1, scale * lam
    return _unscaled(sa, 1, lam, order), (_unscaled(sb, 1, lam, order) if surd else None)


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

    def at_square(self, order):
        """This series f(t) read as f(x^2), through x^order.

        The t^j coefficient nums[j] / (den * lam^j) lands at x^(2j),
        whose numerator on the same den and lam is nums[j] * lam^j; every
        odd slot is 0.  Needs self.order >= order // 2.
        """
        if order // 2 > self.order:
            raise ValueError("x^%d needs t-order %d, not %d" % (order, order // 2, self.order))
        nums = [0] * (order + 1)
        nums[::2] = _rescaled(self.nums[: order // 2 + 1], self.lam)
        return XSeries(nums, order, self.den, self.lam)

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
        return _over(self, *_reciprocal(den, min(self.order, den.order)))

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

        The constant term must be a positive rational square.  A root
        whose constant term is irrational lives over Q(sqrt D) and is
        taken by :meth:`SurdSeries.sqrt` instead.  This is the root of
        the constant term times ``_unit_root`` of the numerators.
        """
        root = _rational_sqrt(Fraction(self.nums[0], self.den))
        if not root:
            raise NonSquareConstantError(
                "constant term %s is not a positive rational square" % (self.coefficient(0),)
            )
        return _unit_root(self.nums, [0] * len(self.nums), 1, self.lam)[0] * root

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


def _over(num, v, reciprocal):
    """num / x^v times ``reciprocal``, a quotient by a series of valuation v."""
    lead = num.valuation()
    if lead is not None and lead < v:
        raise NonDivisibleError("numerator has x^%d but denominator starts at x^%d" % (lead, v))
    return num.shift_down(v).truncate(reciprocal.order) * reciprocal


class SurdSeries:
    """Truncated series a + b*sqrt(disc) over the real quadratic field Q(sqrt disc).

    ``a`` and ``b`` are rational ``XSeries`` of one order and ``disc`` is
    a positive integer.  In ``+``, ``-`` and ``*`` an ``XSeries`` or a
    rational reads as (x, 0); pairs over two discriminants do not mix.
    Since sqrt(1) = 1, a pair over ``disc`` 1 folds ``b`` into ``a``.
    """

    __slots__ = ("a", "b", "disc")

    def __init__(self, a, b, disc):
        if disc <= 0 or a.order != b.order:
            raise ValueError("a pair needs a positive discriminant and parts of one order")
        if disc == 1:
            a, b = a + b, XSeries.zero(a.order)
        self.a, self.b, self.disc = a, b, disc

    def _lift(self, other):
        if isinstance(other, SurdSeries):
            if other.disc != self.disc:
                raise ValueError("cannot mix sqrt(%d) with sqrt(%d)" % (self.disc, other.disc))
            return other
        if isinstance(other, (int, Fraction)):
            other = XSeries([other], self.a.order)
        if not isinstance(other, XSeries):
            raise TypeError("cannot combine a SurdSeries with %s" % type(other).__name__)
        return SurdSeries(other, XSeries.zero(other.order), self.disc)

    def __add__(self, other):
        other = self._lift(other)
        return SurdSeries(self.a + other.a, self.b + other.b, self.disc)

    __radd__ = __add__

    def __neg__(self):
        return SurdSeries(-self.a, -self.b, self.disc)

    def __sub__(self, other):
        return self + -self._lift(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, XSeries)):
            return SurdSeries(self.a * other, self.b * other, self.disc)
        other = self._lift(other)
        a, b, c, e = self.a, self.b, other.a, other.b
        if b.is_zero() or e.is_zero():
            return SurdSeries(a * c + b * e * self.disc, a * e + b * c, self.disc)
        # three products on one scale: ae + bc = (a + b)(c + e) - ac - be
        lam = lcm(a.lam, b.lam, c.lam, e.lam)
        a, b, left_den, _, n = _aligned(a, b, True, lam)
        c, e, right_den, _, m = _aligned(c, e, True, lam)
        n = min(n, m)
        ac, be, cross = (
            _product(x, y, n + 1)
            for x, y in ((a, c), (b, e), (list(map(add, a, b)), list(map(add, c, e))))
        )
        den = left_den * right_den
        return SurdSeries(
            XSeries([p + self.disc * q for p, q in zip(ac, be)], n, den, lam),
            XSeries([r - p - q for p, q, r in zip(ac, be, cross)], n, den, lam),
            self.disc,
        )

    __rmul__ = __mul__

    def conjugate(self):
        return SurdSeries(self.a, -self.b, self.disc)

    def norm(self):
        """a^2 - disc*b^2, the rational series self * conjugate(self)."""
        return self.a * self.a - self.b * self.b * self.disc

    def divide(self, den):
        """Exact quotient self/den: times conjugate(den), then both parts
        times the one reciprocal of the rational norm(den), whose
        valuation the order loses."""
        num = self * den.conjugate()
        v, reciprocal = _reciprocal(den.norm(), num.a.order)
        return SurdSeries(_over(num.a, v, reciprocal), _over(num.b, v, reciprocal), self.disc)

    def sqrt(self, root0):
        """Exact square root whose constant term is ``root0``.

        ``root0`` is a pair (p, q) of rationals meaning p + q*sqrt(disc)
        that squares to the constant term.  The root is root0 times
        ``_unit_root`` u + w*sqrt(disc) of the numerators of both parts
        over one scale, taken as rational multiples of u and w.
        """
        p, q = Fraction(root0[0]), Fraction(root0[1])
        disc = self.disc
        if (p * p + disc * q * q, 2 * p * q) != (self.a.coefficient(0), self.b.coefficient(0)):
            raise ValueError("root0 does not square to the constant term")
        if p * p == disc * q * q:
            raise ZeroDivisionError("the constant term has norm zero")
        fa, fb, _, lam, _ = _aligned(self.a, self.b, True)
        u, w = _unit_root(fa, fb, disc, lam)
        if w is None:
            return SurdSeries(u * p, u * q, disc)
        return SurdSeries(u * p + w * (disc * q), u * q + w * p, disc)

    def shift_down(self, k):
        return SurdSeries(self.a.shift_down(k), self.b.shift_down(k), self.disc)

    def at_square(self, order):
        """Both parts read at t = x^2 through x^order (see XSeries.at_square)."""
        return SurdSeries(self.a.at_square(order), self.b.at_square(order), self.disc)

    def valuation(self):
        found = [v for v in (self.a.valuation(), self.b.valuation()) if v is not None]
        return min(found, default=None)

    def is_zero(self):
        return self.a.is_zero() and self.b.is_zero()

    def coefficient(self, k):
        """The x^k coefficient as text naming both parts: ``a + b*sqrt(disc)``."""
        return "%s + %s*sqrt(%d)" % (self.a.coefficient(k), self.b.coefficient(k), self.disc)

