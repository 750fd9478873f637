"""Exact truncated-series arithmetic used throughout the package.

Four series types cover every computation here:

* ``XSeries``: a power series in one variable, truncated at a fixed order,
  with rational coefficients.  Division and square root are exact and
  refuse to proceed when the leading terms make the result leave the
  ring.

* ``SurdSeries``: a pair a + b*sqrt(D) of ``XSeries``, for the roots
  whose constant terms are irrational.  It adds, multiplies, divides
  through the rational norm a^2 - D*b^2, and takes square roots from
  a given constant root.  An identity over Q(sqrt D) holds only when
  both parts vanish, so the irrational part is always checked.

* ``BiPoly``: a polynomial in two variables ``d`` (diagonal marker) and
  ``x`` (perimeter marker) with integer coefficients, truncated in
  the ``x`` degree.

* ``ZPolySeries``: a polynomial in a third variable ``z`` whose
  coefficients are ``BiPoly`` values.  The layered iteration runs on
  packed integers and returns its generating functions in this shape,
  with ``z`` marking cells on the active diagonal.  The shape carries
  evaluation at z = 1 and the two tail operators

      tail_sum:      z^m  |->  sum of coefficients s_k with k > m,
      tail_weighted: z^m  |->  sum of (k - m) s_k with k > m (m >= 1),

  which are finite sums here, computed by suffix-sum recurrences, so
  the substitution never divides by ``z``.
"""

from fractions import Fraction
from math import isqrt


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
    num, den = value.numerator, value.denominator
    if num < 0:
        return None
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    return Fraction(rn, rd)


class XSeries:
    """Truncated power series sum_{k<=order} c_k x^k with rational coefficients.

    Binary operations truncate to the smaller of the two orders, so a
    value never claims more precision than both inputs carry.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order):
        if order < 0:
            raise ValueError("order must be nonnegative")
        padded = list(coeffs[: order + 1])
        padded.extend([Fraction(0)] * (order + 1 - len(padded)))
        self.coeffs = tuple(
            Fraction(c) if isinstance(c, int) else c for c in padded
        )
        self.order = order

    @classmethod
    def from_terms(cls, terms, order):
        coeffs = [Fraction(0)] * (order + 1)
        for k, v in terms.items():
            if 0 <= k <= order:
                coeffs[k] = Fraction(v) if isinstance(v, int) else v
        return cls(coeffs, order)

    @classmethod
    def zero(cls, order):
        return cls([], order)

    @classmethod
    def one(cls, order):
        return cls([Fraction(1)], order)

    def coefficient(self, k):
        if k < 0 or k > self.order:
            raise ValueError("coefficient x^%d beyond truncation order %d" % (k, self.order))
        return self.coeffs[k]

    def coeff_list(self):
        return list(self.coeffs)

    def valuation(self):
        for k, c in enumerate(self.coeffs):
            if c != 0:
                return k
        return None

    def is_zero(self):
        return self.valuation() is None

    def truncate(self, new_order):
        if new_order > self.order:
            raise ValueError("cannot extend a truncated series")
        return XSeries(self.coeffs[: new_order + 1], new_order)

    def __add__(self, other):
        if not isinstance(other, XSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return XSeries(
            [self.coeffs[k] + other.coeffs[k] for k in range(n + 1)], n
        )

    def __sub__(self, other):
        if not isinstance(other, XSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return XSeries(
            [self.coeffs[k] - other.coeffs[k] for k in range(n + 1)], n
        )

    def __neg__(self):
        return XSeries([-c for c in self.coeffs], self.order)

    def __mul__(self, other):
        if isinstance(other, XSeries):
            n = min(self.order, other.order)
            out = [Fraction(0)] * (n + 1)
            for i, a in enumerate(self.coeffs[: n + 1]):
                if a == 0:
                    continue
                for j in range(n + 1 - i):
                    b = other.coeffs[j]
                    if b != 0:
                        out[i + j] = out[i + j] + a * b
            return XSeries(out, n)
        if isinstance(other, (int, Fraction)):
            return XSeries([c * other for c in self.coeffs], self.order)
        return NotImplemented

    __rmul__ = __mul__

    def divide(self, den):
        """Exact quotient self/den; the order drops by den's valuation."""
        if not isinstance(den, XSeries):
            raise TypeError("divide expects an XSeries denominator")
        n = min(self.order, den.order)
        v = den.valuation()
        if v is None or v > n:
            raise ZeroValuationError("division by a series that is zero through its order")
        for k in range(min(v, self.order + 1)):
            if self.coeffs[k] != 0:
                raise NonDivisibleError(
                    "numerator has x^%d but denominator starts at x^%d" % (k, v)
                )
        m = n - v
        lead = den.coeffs[v]
        out = []
        for k in range(m + 1):
            acc = self.coeffs[k + v]
            for j in range(k):
                acc = acc - out[j] * den.coeffs[k - j + v]
            out.append(acc / lead)
        return XSeries(out, m)

    def shift_down(self, k):
        """Divide by x^k; the first k coefficients must vanish."""
        if k < 0:
            raise ValueError("shift amount must be nonnegative")
        if k > self.order:
            raise ValuationError("cannot shift past the truncation order")
        for j in range(k):
            if self.coeffs[j] != 0:
                raise ValuationError("nonzero coefficient at x^%d blocks division by x^%d" % (j, k))
        return XSeries(self.coeffs[k:], self.order - k)

    def sqrt(self):
        """Exact square root, the branch with a positive constant term.

        The constant term must be a positive rational square.  A root
        whose constant term is irrational lives over Q(sqrt D) and is
        taken by :meth:`SurdSeries.sqrt` instead.
        """
        root = _rational_sqrt(self.coeffs[0])
        if not root:
            raise NonSquareConstantError(
                "constant term %s is not a positive rational square" % (self.coeffs[0],)
            )
        out = [root]
        twice = 2 * root
        for n in range(1, self.order + 1):
            acc = self.coeffs[n]
            for k in range(1, n):
                acc = acc - out[k] * out[n - k]
            out.append(acc / twice)
        return XSeries(out, self.order)

    def __eq__(self, other):
        if not isinstance(other, XSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __repr__(self):
        parts = [
            "%s*x^%d" % (c, k) for k, c in enumerate(self.coeffs) if c != 0
        ]
        return "XSeries(%s; order=%d)" % (" + ".join(parts) or "0", self.order)


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
        return SurdSeries(a * c + b * e * self.disc, a * e + b * c, self.disc)

    __rmul__ = __mul__

    def conjugate(self):
        return SurdSeries(self.a, -self.b, self.disc)

    def norm(self):
        """a^2 - disc*b^2, the rational series self * conjugate(self)."""
        return self.a * self.a - self.b * self.b * self.disc

    def divide(self, den):
        """Exact quotient self/den: times conjugate(den), then both parts
        divided by the rational norm(den), whose valuation the order loses."""
        num = self * den.conjugate()
        norm = den.norm()
        return SurdSeries(num.a.divide(norm), num.b.divide(norm), self.disc)

    def sqrt(self, root0):
        """Exact square root whose constant term is ``root0``.

        ``root0`` is a pair (p, q) of rationals meaning p + q*sqrt(disc)
        that squares to the constant term.  The recurrence divides by
        2*root0 as a product with conjugate(root0) / (2 * norm(root0)).
        """
        p, q = Fraction(root0[0]), Fraction(root0[1])
        disc = self.disc
        if (p * p + disc * q * q, 2 * p * q) != (self.a.coeffs[0], self.b.coeffs[0]):
            raise ValueError("root0 does not square to the constant term")
        twice_norm = 2 * (p * p - disc * q * q)
        inv_p, inv_q = p / twice_norm, -q / twice_norm
        ra, rb = [p], [q]
        for n in range(1, self.a.order + 1):
            acc_a, acc_b = self.a.coeffs[n], self.b.coeffs[n]
            for k in range(1, n):
                acc_a -= ra[k] * ra[n - k] + disc * rb[k] * rb[n - k]
                acc_b -= ra[k] * rb[n - k] + rb[k] * ra[n - k]
            ra.append(acc_a * inv_p + disc * acc_b * inv_q)
            rb.append(acc_a * inv_q + acc_b * inv_p)
        return SurdSeries(XSeries(ra, self.a.order), XSeries(rb, self.a.order), disc)

    def shift_down(self, k):
        return SurdSeries(self.a.shift_down(k), self.b.shift_down(k), self.disc)

    def truncate(self, new_order):
        return SurdSeries(self.a.truncate(new_order), self.b.truncate(new_order), self.disc)

    def valuation(self):
        found = [v for v in (self.a.valuation(), self.b.valuation()) if v is not None]
        return min(found, default=None)

    def is_zero(self):
        return self.a.is_zero() and self.b.is_zero()

    def coefficient(self, k):
        """The x^k coefficient as text naming both parts: ``a + b*sqrt(disc)``."""
        return "%s + %s*sqrt(%d)" % (self.a.coefficient(k), self.b.coefficient(k), self.disc)


class BiPoly:
    """Integer polynomial in d and x, truncated at x-degree ``trunc``.

    Terms live in a dict keyed by ``(d_degree, x_degree)``.  The product
    drops any term whose x-degree exceeds the truncation.
    """

    __slots__ = ("terms", "trunc")

    def __init__(self, terms, trunc):
        self.trunc = trunc
        self.terms = {
            k: v for k, v in terms.items() if v != 0 and k[1] <= trunc
        }

    @classmethod
    def zero(cls, trunc):
        return cls({}, trunc)

    @classmethod
    def monomial(cls, coeff, kd, kx, trunc):
        return cls({(kd, kx): coeff}, trunc)

    def is_zero(self):
        return not self.terms

    def _plus(self, other, sign):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + sign * v
        return BiPoly(out, min(self.trunc, other.trunc))

    def __add__(self, other):
        return self._plus(other, 1) if isinstance(other, BiPoly) else NotImplemented

    def __sub__(self, other):
        return self._plus(other, -1) if isinstance(other, BiPoly) else NotImplemented

    @staticmethod
    def _mul_into(acc, aterms, bterms, trunc):
        if len(aterms) > len(bterms):
            aterms, bterms = bterms, aterms
        for (ad, ax), av in aterms.items():
            for (bd, bx), bv in bterms.items():
                x = ax + bx
                if x > trunc:
                    continue
                key = (ad + bd, x)
                acc[key] = acc.get(key, 0) + av * bv

    def __mul__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        trunc = min(self.trunc, other.trunc)
        acc = {}
        BiPoly._mul_into(acc, self.terms, other.terms, trunc)
        return BiPoly(acc, trunc)

    def x_counts(self):
        """Collapse d: map each x-degree to the sum of its coefficients."""
        out = {}
        for (_, kx), v in self.terms.items():
            out[kx] = out.get(kx, 0) + v
        return {k: v for k, v in out.items() if v}

    def __eq__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.trunc == other.trunc and self.terms == other.terms

    def __repr__(self):
        parts = [
            "%d*d^%d*x^%d" % (v, kd, kx)
            for (kd, kx), v in sorted(self.terms.items())
        ]
        return "BiPoly(%s; trunc=%d)" % (" + ".join(parts) or "0", self.trunc)


class ZPolySeries:
    """Polynomial in z with BiPoly coefficients, stored densely in z.

    Trailing zero coefficients are stripped so that equality is canonical.
    ``order`` is the shared x-truncation of the coefficients.
    """

    __slots__ = ("zc", "order")

    def __init__(self, z_coeff_list, order):
        zc = list(z_coeff_list)
        while zc and zc[-1].is_zero():
            zc.pop()
        self.zc = tuple(zc)
        self.order = order

    @classmethod
    def zero(cls, order):
        return cls([], order)

    def z_coeffs(self):
        return self.zc

    def is_zero(self):
        return not self.zc

    def tail_sum(self):
        """z^m coefficient becomes sum_{k>m} s_k, for m = 0..D-1."""
        out = []
        acc = BiPoly.zero(self.order)
        for poly in reversed(self.zc[1:]):
            acc = acc + poly
            out.append(acc)
        return ZPolySeries(out[::-1], self.order)

    def tail_weighted(self):
        """z^m coefficient becomes sum_{k>m} (k-m) s_k, for m >= 1.

        The sum over k > m of (k - m) s_k is the sum over i >= m of the
        tail sums at i, so this is z times tail_sum applied twice.
        """
        twice = self.tail_sum().tail_sum()
        return ZPolySeries([BiPoly.zero(self.order)] + list(twice.zc), self.order)

    def eval_at_one(self):
        """Substitute z = 1, collapsing to a single BiPoly."""
        acc = BiPoly.zero(self.order)
        for b in self.zc:
            acc = acc + b
        return acc

    def __eq__(self, other):
        if not isinstance(other, ZPolySeries):
            return NotImplemented
        return self.order == other.order and self.zc == other.zc

    def __repr__(self):
        return "ZPolySeries(z-degree=%d, order=%d)" % (len(self.zc) - 1, self.order)
