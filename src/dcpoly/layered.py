"""Layered functional-equation solve for diagonally convex polyominoes.

A diagonally convex polyomino is built one diagonal at a time: each
occupied diagonal carries a single contiguous run of cells, and the run
on the next diagonal must keep the shape edge-connected.  The three
generating functions tracked here split the shapes with at least two
diagonals by how the final run sits against the run before it, through
its two nose cells, each class keyed by the label the census prints
(see ``counts``):

    "two"   -- the final run covers both nose cells,
    "one"   -- exactly one of them,
    "zero"  -- neither (the run hangs between or inside the old one).

In each series x marks perimeter, d marks occupied diagonals, and z
marks the cells on the final diagonal.  Appending a diagonal sums, over
every way of placing a new run, the perimeter growth 4b - 2a for a run
of b new cells sharing a contacts with the old run; grouped by nose
class, the sums are a fixed combination of the tail operators T1, T2
(z^m of T1 F sums F_k over k > m, of T2 F sums (k - m) F_k) and the
kernel K = 1/(1 - t^2 z), t = x^2, as every perimeter is even:

    A = d^2 t^4 z^2 K + d t^2 z (K^2 A + K B + C)
    B = 2d^2 t^3 z K + d (t z K T1P + t z T1Q + 2t^3 z K^2 A + t^3 z K B)
    C = d^2 t^4 z K + d (T2(A + B + C) + t^2 z K T1P + t^4 z K^2 A)

with A, B, C the three classes, P = 2A + B and Q = B + 2C.  The d^2
terms count the two-diagonal shapes; each other term appends a diagonal.

``_solve`` solves it one power of t at a time, as in Flajolet &
Sedgewick, *Analytic Combinatorics*, I.6, through t^N, N = order // 2
(an odd order reads the counts of order - 1).  Only T2 reads the degree
being solved, at larger powers of z, so A and B come first and C from
its top power of z down.  A product with K is K F(n, m) = F(n, m) +
K F(n - 2, m - 1), no term reads back more than four degrees, and each
count costs a few big-int adds: O(N^2) in all.  A shape with k
diagonals and m cells on its final diagonal has a bounding box with
width + height >= k + m (a cell of the first diagonal and the two ends
of the final run are that far apart), so its perimeter is at least
2(k + m), a bound some shape reaches at every k: the row at t^n has no
entry past z^(n - 2), and z^(n - 1), one past it, must be zero.

The solve reads d one of two ways.  At a number d, an int or a
``Fraction``, it multiplies by d: ``class_counts``, and the readers
that sum d away, ``perimeter_counts`` and ``marginals`` by perimeter or
by noses.  At d = 2^W (``_packed``) each count is its polynomial in d,
Kronecker-packed: slot k, bits kW up to (k + 1)W, holds the coefficient
of d^k, and a multiplication by d is a left shift by W bits.  The
readers that keep d, ``marginals(order, "diagonals")``, ``joint_table``
and ``two_nose_identity_residuals``, unpack the slots, none of which
carries (see ``_slot_bits``).  No result needs ``series``.
"""

from collections import deque
from functools import partial
from itertools import accumulate, chain, repeat, zip_longest
from operator import add, mul

CLASS_ORDER = ("two", "one", "zero")
MIN_Z = {"two": 2, "one": 1, "zero": 1}


class InvariantError(RuntimeError):
    """A count violated a structural property every census series has."""


def _slot_bits(order):
    """Value bits v and guard bits g of one d-slot at truncation ``order``.

    Value bits.  Weigh each coefficient by x^perimeter z^run with
    x = 2^(-3/2) and z = 4.  Then T1 gains at most 1/(z - 1) = 1/3, T2
    z/(z - 1)^2 = 4/9 and K 1/(1 - x^4 z) = 16/15, so every column of the
    3x3 matrix of class-to-class gains of appending a diagonal sums to at
    most 841/900.  The two-diagonal shapes weigh 7/320, so all shapes
    weigh less than (7/320)/(1 - 841/900) < 1/2, and every count at
    perimeter p is below 2^(3p/2)/2, each d-slot of it, and each slot of
    a reader's sum of the counts of one perimeter.  The four sums the
    two-nose residuals unpack at t^n add counts of perimeters 2n down to
    2n - 12, each at most twice, so each is below 2^(3n) <= 2^v.

    No intermediate carries.  One at t^n is P = 2A + B, Q = B + 2C, a T1 row
    or K product, T2's suffix sums of A + B + C or their suffix sums, or a
    partial sum of a row, at most the row.  P and Q weigh at most
    2(A + B + C) < 1, T1 of either less than 1/3, its K product 16/45 and
    K^2 A (16/15)^2/2 < 1, so each slot is below 2^(3n) <= 2^v.  Guard bits
    keep a fault exact until it is seen: each slot of an intermediate at t^n
    sums checked slots of lower degrees, or for T2 slots of t^n at higher
    powers of z, with multiplicities adding up to about 2n^2 < (order + 4)^2
    <= 2^g.  So the first entry, in the order the solve computes them, with
    a slot of 2^v or more holds it exactly and sets a guard bit.
    With a sign bit, W = v + g + 1 rounded up to 64 bits, and a negative
    slot borrows from the one above it, which sets its guard bits.
    """
    return 3 * order // 2, 2 * (order + 4).bit_length()


def _top(order):
    """N = order // 2, the highest power of t within ``order``."""
    if order < 4:
        raise ValueError("order must be at least 4 to see any polyomino")
    return order // 2


def _tail_sum(series):
    """z^m coefficient becomes sum_{k>m} s_k, for m = 0..D-1: the suffix sums."""
    return list(accumulate(reversed(series[1:])))[::-1]


# the equation of the module docstring, class by class: the constant term
# d^2 c t^a z^b K as (c, a, b), and each other term d c t^a z F as (c, a, F),
# F a row of ``_solve``; T2(A + B + C), of t-power 0, has its own z; and each
# T1 row, T1 of a weighted sum p F + q G of two classes, as ((p, F), (q, G))
_CONSTANT = {"two": (1, 4, 2), "one": (2, 3, 1), "zero": (1, 4, 1)}
_EQUATION = {
    "two": ((1, 2, "KKA"), (1, 2, "KB"), (1, 2, "C")),
    "one": ((1, 1, "KT1P"), (1, 1, "T1Q"), (2, 3, "KKA"), (1, 3, "KB")),
    "zero": ((1, 0, "T2S"), (1, 2, "KT1P"), (1, 4, "KKA")),
}
_TAILS = {"T1P": ((2, "A"), (1, "B")), "T1Q": ((1, "B"), (2, "C"))}
# (K F, F) for each row K F, built after its F
_KERNEL_PRODUCTS = (("KA", "A"), ("KKA", "KA"), ("KB", "B"), ("KT1P", "T1P"))
# how many degrees back a later degree reads each row: a term of t-power a
# reads its row a back, and a K product its own row two back
_READS = [(power, name) for terms in _EQUATION.values() for _, power, name in terms if power]
_READS += [(2, product) for product, _ in _KERNEL_PRODUCTS]
_DEPTH = {name: max(power for power, read in _READS if read == name) for _, name in _READS}


def _lower_terms(cls, window, n, times):
    """Entries z^0..z^(n - 1) at t^n of the terms of class ``cls`` that read
    lower degrees, from the rows held in ``window``, times d:
    a row of degree j has at most j entries, so the sums stop short of z^n."""
    # a term of coefficient c adds its row c times
    rows = [window[name][-power] for c, power, name in _EQUATION[cls] if power for _ in range(c)]
    out = [0, *map(sum, zip_longest(*rows, fillvalue=0))]
    out += [0] * (n - len(out))
    c, a, b = _CONSTANT[cls]
    if n >= a and not (n - a) % 2:
        out[b + (n - a) // 2] += times(c)
    return out if times(1) == 1 else list(map(times, out))


def _check_row(cls, n, row, positive):
    """Raise ``InvariantError`` on an entry of class ``cls`` at t^n below its
    minimum run, at z^(n - 1), one past its support, or negative at d > 0."""
    low = MIN_Z[cls]
    if any(row[:low]) or row[n - 1] or positive and min(row) < 0:
        m = next(m for m, v in enumerate(row) if positive and v < 0 or v and not low <= m < n - 1)
        raise InvariantError("a count at x^%d z^%d in %s is negative or outside its support"
                             % (2 * n, m, cls))


def _solve(order, times):
    """Yield (n, (A, B, C)) for n = 2..order // 2: the rows over z at t^n
    at the d ``times`` multiplies by, each past ``_check_row`` and the
    consumer's own check before anything reads it.  The window holds each
    row that a later degree reads for the ``_DEPTH`` degrees it is read back."""
    positive = times(1) > 0
    same = sum(c for c, power, _ in _EQUATION["zero"] if not power)
    window = {name: deque([()] * depth, maxlen=depth) for name, depth in _DEPTH.items()}
    for n in range(2, _top(order) + 1):
        a, b, c = (_lower_terms(cls, window, n, times) for cls in CLASS_ORDER)
        s1 = s2 = 0  # suffix sums of S = A + B + C, and T2(S) = suffix sums of those
        for m in range(n - 1, 0, -1):
            c[m] += times(same * s2)
            s1 += a[m] + b[m] + c[m]
            s2 += s1
        for cls, row in zip(CLASS_ORDER, (a, b, c)):
            _check_row(cls, n, row, positive)
        yield n, (a, b, c)
        rows = dict(A=a, B=b, C=c)
        for tail, ((p, f), (q, g)) in _TAILS.items():
            rows[tail] = _tail_sum([p * x + q * y for x, y in zip(rows[f], rows[g])])
        for product, factor in _KERNEL_PRODUCTS:  # K F(n, m) = F(n, m) + K F(n - 2, m - 1)
            before = chain((0,), window[product][-2], repeat(0))
            rows[product] = list(map(add, rows[factor], before))
        for name, held in window.items():
            held.append(rows[name])


def class_counts(order, d=1):
    """{class: {perimeter: count}} through perimeter ``order``, each count
    weighted by d^(diagonals) at the number ``d`` (an int or a ``Fraction``):
    class "none" is the single cell, d at perimeter 4, and the nose classes
    leave zero counts out."""
    out = {"none": {4: d}, **{cls: {} for cls in CLASS_ORDER}}
    for n, rows in _solve(order, partial(mul, d)):
        for cls, row in zip(CLASS_ORDER, rows):
            if total := sum(row):
                out[cls][2 * n] = total
    return out


def _check_slots(cls, n, row, width, guard):
    """Raise ``InvariantError`` on a W-bit slot of an entry of class ``cls``
    at t^n that sets a ``guard`` bit, as a negative slot does by borrowing,
    or that is nonzero outside d^2..d^(n - m) at z^m; name its d-degree."""
    low = (1 << 2 * width) - 1
    for m, v in enumerate(row):
        top = width * (n - m + 1)
        if bad := v & guard or v & low | v >> top << top:
            what = ("is negative or overflows its slot" if v & guard
                    else "lies outside d^2..d^%d" % (n - m))
            raise InvariantError("a count at x^%d d^%d z^%d in %s %s"
                                 % (2 * n, ((bad & -bad).bit_length() - 1) // width, m, cls, what))


def _packed(order):
    """Yield (n, (A, B, C), unpack): ``_solve`` at d = 2^W (see ``_slot_bits``),
    each row past ``_check_slots`` with guard bits v up to W of each slot.
    ``unpack`` reads a checked entry, or a sum of the entries of one degree,
    as {d-degree: nonzero count}, and raises if a slot sets a guard bit."""
    value, guard_bits = _slot_bits(order)
    width = -(-(value + guard_bits + 1) // 64) * 64
    size, top = width // 8, _top(order)
    guard = ((1 << width) - (1 << value)) * (((1 << width * (top + 1)) - 1) // ((1 << width) - 1))

    def unpack(v):
        if v & guard:
            raise InvariantError("a perimeter count overflows its slot")
        data = v.to_bytes(-(-v.bit_length() // width) * size, "little")
        counts = (int.from_bytes(data[i : i + size], "little") for i in range(0, len(data), size))
        return {k: c for k, c in enumerate(counts) if c}

    for n, rows in _solve(order, lambda v: v << width):
        for cls, row in zip(CLASS_ORDER, rows):
            _check_slots(cls, n, row, width, guard)
        yield n, rows, unpack


def marginals(order, by):
    """Counts through perimeter ``order`` for ``by`` in perimeter, diagonals
    or noses, keyed as ``CountTable.project`` keys perimeter, (perimeter,
    diagonals) or (perimeter, nose), with nose "none" for the single cell.
    By perimeter and by noses they are ``class_counts`` at d = 1; by
    diagonals, the packed solve's checked sum of each degree's entries."""
    if by == "perimeter":
        return perimeter_counts(order)
    if by == "noses":
        return {(kx, cls): v for cls, counts in class_counts(order).items()
                for kx, v in counts.items()}
    if by != "diagonals":
        raise ValueError("unknown marginal %r" % (by,))
    out = {(4, 1): 1}  # the single cell: perimeter 4, one diagonal
    for n, rows, unpack in _packed(order):
        out.update(((2 * n, k), v) for k, v in unpack(sum(map(sum, rows))).items())
    return out


def perimeter_counts(order, d=1):
    """Counts of diagonally convex polyominoes for each perimeter <= order,
    each weighted by d^(diagonals) (see ``class_counts``)."""
    classes = class_counts(order, d).values()
    return {kx: sum(counts.get(kx, 0) for counts in classes) for kx in range(4, order + 1, 2)}


def joint_table(order):
    """Full census table keyed like the exhaustive generator's output, each
    checked entry of the packed solve unpacked once straight into the
    table's dict, whose first key is the single cell (one diagonal,
    perimeter 4)."""
    from .counts import CountTable
    # every (kx, k, cls, m) key comes from one entry's slot, so none repeats
    table = CountTable({(4, 1, "none", 1): 1})
    for n, rows, unpack in _packed(order):
        for cls, row in zip(CLASS_ORDER, rows):
            for m, v in enumerate(row):
                table.update(((2 * n, k, cls, m), c) for k, c in unpack(v).items())
    return table


def two_nose_identity_residuals(order):
    """Residuals of the linear relation tying the three classes together.

    At z = 1 the two-nose series satisfies

        A * (1 - (2 + d) x^4 + x^8)
            = d x^4 (1 - x^4) * (d x^4 + B + (1 - x^4) C)

    with A, B, C the two-, one-, zero-nose series through perimeter
    ``order``.  The relation is sometimes quoted with d^2 in place of
    every d; that variant fails already at its lowest term.  Returns the
    pair of residuals (matching convention, squared-marker variant) as
    {(d_degree, x_degree): coefficient} dicts without zero terms: the
    first must be empty, the second must not.

    Grouped by powers of d, with A_n, B_n, C_n the class sums at t^n,
    t = x^2, and zero below t^2, the residual at t^n is

        (A_n + A_(n-4)) - 2A_(n-2)
          + d^k ((B_(n-4) + 2C_(n-4)) - (A_(n-2) + B_(n-2) + C_(n-2) + C_(n-6)))

    plus d^(2k) at t^6, minus d^(2k) at t^4, with k = 1 for the matching
    convention and k = 2 for the variant: four sums, unpacked once for both.
    """
    held = deque([(0, 0, 0)] * 6, maxlen=7)  # class sums at t^(n - 6)..t^n
    residuals = ({}, {})
    for n, rows, unpack in _packed(order):
        held.append(tuple(map(sum, rows)))
        (a, _, _), _, (a2, b2, c2), _, (a4, b4, c4), _, (_, _, c6) = reversed(held)
        sums = unpack(a + a4), unpack(2 * a2), unpack(b4 + 2 * c4), unpack(a2 + b2 + c2 + c6)
        for k, out in zip((1, 2), residuals):
            terms = {2 * k: {4: -1, 6: 1}.get(n, 0)}
            for sign, shift, part in zip((1, -1, 1, -1), (0, 0, k, k), sums):
                for kd, v in part.items():
                    terms[kd + shift] = terms.get(kd + shift, 0) + sign * v
            out.update(((kd, 2 * n), v) for kd, v in terms.items() if v)
    return residuals
