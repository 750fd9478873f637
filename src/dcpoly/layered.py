"""Layered functional-equation iteration for diagonally convex polyominoes.

A diagonally convex polyomino is built one diagonal at a time: each
occupied diagonal carries a single contiguous run of cells, and the run
on the next diagonal must keep the shape edge-connected.  The three
generating functions tracked here split the shapes with at least two
diagonals by how the final run sits against the run before it, through
its two nose cells (see ``counts.NoseClass``):

    two_nose   -- the final run covers both nose cells,
    one_nose   -- exactly one of them,
    zero_nose  -- neither (the run hangs between or inside the old one).

Each series lives in ``ZPolySeries`` form: x marks perimeter, d marks
occupied diagonals, and z marks the cells on the final diagonal.  One
transfer step appends a diagonal to every shape by summing, over every
way of placing a new run, the perimeter growth 4b - 2a for a run of b
new cells sharing a contacts with the old run.  Grouping those sums by
nose class turns the transfer into a fixed combination of the tail
operators and the rational kernel 1/(1 - x^4 z), applied to a series
by the recurrence out_m = s_m + x^4 out_{m-1}.  The transfer is
affine, T(F) = T(0) + L(F): T(0) counts the two-diagonal shapes and L
adds one diagonal.  So the fixed point is built one diagonal at a
time, delta_0 = T(0) and delta_{t+1} = L(delta_t), summed until a
delta vanishes, which the x-truncation guarantees because every extra
diagonal adds perimeter.
"""

from dataclasses import dataclass

from .counts import CountTable, NoseClass
from .series import BiPoly, ZPolySeries


class NonConvergenceError(RuntimeError):
    """The iteration failed to reach its fixed point within the bound."""


class InvariantError(RuntimeError):
    """An iterate violated a structural property every census series has."""


@dataclass(frozen=True)
class GFTriple:
    """The three nose-class generating functions at one iteration stage."""

    two_nose: ZPolySeries
    one_nose: ZPolySeries
    zero_nose: ZPolySeries
    order: int
    track_diagonals: bool

    @classmethod
    def empty(cls, order, track_diagonals=True):
        zero = ZPolySeries.zero(order)
        return cls(zero, zero, zero, order, track_diagonals)

    def classes(self):
        return (
            (NoseClass.TWO, self.two_nose),
            (NoseClass.ONE, self.one_nose),
            (NoseClass.ZERO, self.zero_nose),
        )

    def is_zero(self):
        return all(series.is_zero() for _, series in self.classes())

    def __add__(self, other):
        return GFTriple(
            self.two_nose + other.two_nose,
            self.one_nose + other.one_nose,
            self.zero_nose + other.zero_nose,
            self.order,
            self.track_diagonals,
        )


def _times_geometric(series):
    """Multiply by the run-extension kernel 1/(1 - x^4 z).

    Runs out_m = s_m + x^4 out_{m-1} until the x-truncation clears it.
    """
    order = series.order
    coeffs = series.z_coeffs()
    out = []
    carry = BiPoly.zero(order)
    while len(out) < len(coeffs) or not carry.is_zero():
        if len(out) < len(coeffs):
            carry = carry + coeffs[len(out)]
        out.append(carry)
        carry = carry.mul_monomial(1, 0, 4)
    return ZPolySeries(out, order)


def _constant_step(order, track_diagonals):
    """T(0): the shapes with exactly two diagonals."""
    dd = 2 if track_diagonals else 0
    geo = _times_geometric(ZPolySeries([BiPoly.monomial(1, 0, 0, order)], order))
    return GFTriple(
        geo.monomial_scaled(1, dd, 8, 2),
        geo.monomial_scaled(2, dd, 6, 1),
        geo.monomial_scaled(1, dd, 8, 1),
        order,
        track_diagonals,
    )


def _linear_step(triple):
    """L(F): append one diagonal to every shape counted by F.

    The new-run sums over (overlap, length) decompose, class by class,
    into tail operators of the old series times monomials and the
    kernel 1/(1 - x^4 z), applied once or twice.  Every term carries
    one factor of d: shapes with k diagonals map to k + 1.
    """
    du = 1 if triple.track_diagonals else 0
    a_two, b_one, c_zero = triple.two_nose, triple.one_nose, triple.zero_nose

    t1_a = a_two.tail_sum()
    t1_b = b_one.tail_sum()
    t1_c = c_zero.tail_sum()
    t2_a = a_two.tail_weighted()
    t2_b = b_one.tail_weighted()
    t2_c = c_zero.tail_weighted()

    geo2_a = _times_geometric(_times_geometric(a_two))
    geo_b = _times_geometric(b_one)
    geo_t1a = _times_geometric(t1_a)
    geo_t1b = _times_geometric(t1_b)

    new_two = (
        geo2_a.monomial_scaled(1, du, 4, 1)
        + geo_b.monomial_scaled(1, du, 4, 1)
        + c_zero.monomial_scaled(1, du, 4, 1)
    )
    new_one = (
        geo_t1a.monomial_scaled(2, du, 2, 1)
        + geo2_a.monomial_scaled(2, du, 6, 1)
        + geo_t1b.monomial_scaled(1, du, 2, 1)
        + t1_b.monomial_scaled(1, du, 2, 1)
        + geo_b.monomial_scaled(1, du, 6, 1)
        + t1_c.monomial_scaled(2, du, 2, 1)
    )
    new_zero = (
        t2_a.monomial_scaled(1, du, 0, 0)
        + geo_t1a.monomial_scaled(2, du, 4, 1)
        + geo2_a.monomial_scaled(1, du, 8, 1)
        + t2_b.monomial_scaled(1, du, 0, 0)
        + geo_t1b.monomial_scaled(1, du, 4, 1)
        + t2_c.monomial_scaled(1, du, 0, 0)
    )
    return GFTriple(new_two, new_one, new_zero, triple.order, triple.track_diagonals)


def rhs_step(triple):
    """One transfer step T(F) = T(0) + L(F): rebuild the triple from F.

    ``solve`` applies the two parts of the affine step separately.
    """
    return _constant_step(triple.order, triple.track_diagonals) + _linear_step(triple)


def check_invariants(triple):
    """Structural checks every genuine census iterate satisfies.

    Raises ``InvariantError`` on the first violation: counts must be
    positive; a shape in these classes has at least two diagonals, at
    least one cell on the final diagonal (two for the two-nose class),
    perimeter at least 2*diagonals + 2, and a final diagonal of at most
    (perimeter - 2)/2 cells.
    """
    min_z = {NoseClass.TWO: 2, NoseClass.ONE: 1, NoseClass.ZERO: 1}
    for cls, series in triple.classes():
        for m, poly in enumerate(series.z_coeffs()):
            if poly.is_zero():
                continue
            if m < min_z[cls]:
                raise InvariantError(
                    "%s series has a z^%d term below its minimum run" % (cls.value, m)
                )
            for (kd, kx), v in poly.terms.items():
                if v <= 0:
                    raise InvariantError(
                        "nonpositive count %d at d^%d x^%d z^%d in %s"
                        % (v, kd, kx, m, cls.value)
                    )
                if kx < 6:
                    raise InvariantError("perimeter %d below any two-diagonal shape" % kx)
                if 2 * m > kx - 2:
                    raise InvariantError(
                        "final run %d too long for perimeter %d" % (m, kx)
                    )
                if triple.track_diagonals and (kd < 2 or kx < 2 * kd + 2):
                    raise InvariantError(
                        "diagonal count %d inconsistent with perimeter %d" % (kd, kx)
                    )


def solve(order, track_diagonals=True):
    """Sum the census one diagonal at a time until nothing is left to add.

    Starting from the two-diagonal shapes delta_0 = T(0), each
    delta_{t+1} = L(delta_t), so delta_t holds exactly the shapes with
    t + 2 diagonals and the fixed point of ``rhs_step`` is the sum of
    the deltas.  A shape with k diagonals has perimeter at least 2k + 2,
    so the x-truncation makes some delta zero within the loop's bound.
    Every partial sum is checked with ``check_invariants``.
    """
    if order < 4:
        raise ValueError("order must be at least 4 to see any polyomino")
    delta = _constant_step(order, track_diagonals)
    total = GFTriple.empty(order, track_diagonals)
    for _ in range(order + 2):
        if delta.is_zero():
            return total
        total = total + delta
        check_invariants(total)
        delta = _linear_step(delta)
    raise NonConvergenceError("no fixed point within %d steps" % (order + 2))


def total_gf(triple):
    """Perimeter-by-diagonals polynomial for the full family.

    Adds the single cell (one diagonal, perimeter 4) to the three
    multi-diagonal classes evaluated at z = 1.
    """
    du = 1 if triple.track_diagonals else 0
    acc = BiPoly.monomial(1, du, 4, triple.order)
    for _, series in triple.classes():
        acc = acc + series.eval_at_one()
    return acc


def perimeter_counts(order):
    """Counts of diagonally convex polyominoes for each perimeter <= order.

    Runs the iteration with the diagonal marker collapsed, which keeps
    the polynomials one-dimensional and is markedly faster at large
    truncations.
    """
    triple = solve(order, track_diagonals=False)
    out = total_gf(triple).x_counts()
    return {pe: out[pe] for pe in sorted(out)}


def nose_breakdown(order):
    """Perimeter counts split by nose class, from the symbolic run."""
    triple = solve(order, track_diagonals=True)
    return {
        cls: dict(sorted(series.eval_at_one().x_counts().items()))
        for cls, series in triple.classes()
    }


def joint_table(triple):
    """Full census table keyed like the exhaustive generator's output."""
    if not triple.track_diagonals:
        raise ValueError("joint table needs the diagonal-tracking run")
    table = CountTable()
    table.add(4, 1, None, 1)
    for cls, series in triple.classes():
        for m, poly in enumerate(series.z_coeffs()):
            for (kd, kx), v in poly.terms.items():
                table.add(kx, kd, cls, m, v)
    return table


def two_nose_identity_residuals(triple):
    """Residuals of the linear relation tying the three classes together.

    At z = 1 the two-nose series satisfies

        A * (1 - (2 + d) x^4 + x^8)
            = d x^4 (1 - x^4) * (d x^4 + B + (1 - x^4) C)

    with A, B, C the two-, one-, zero-nose series.  The relation is
    sometimes quoted with d^2 in place of every d; that variant fails
    already at its lowest term.  Returns the pair of residuals
    (matching convention, squared-marker variant): the first must be
    identically zero, the second must not.
    """
    if not triple.track_diagonals:
        raise ValueError("the identity lives in the diagonal-tracking variables")
    order = triple.order
    a_two = triple.two_nose.eval_at_one()
    b_one = triple.one_nose.eval_at_one()
    c_zero = triple.zero_nose.eval_at_one()

    def residual(k):
        # k = 1 uses d, k = 2 uses d^2 throughout
        left = a_two * BiPoly(
            {(0, 0): 1, (0, 4): -2, (k, 4): -1, (0, 8): 1}, order
        )
        inner = BiPoly.monomial(1, k, 4, order) + b_one + (
            BiPoly({(0, 0): 1, (0, 4): -1}, order) * c_zero
        )
        right = BiPoly({(k, 4): 1, (k, 8): -1}, order) * inner
        return left - right

    return residual(1), residual(2)
