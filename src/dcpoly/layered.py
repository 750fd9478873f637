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

In each series x marks perimeter, d marks occupied diagonals, and z
marks the cells on the final diagonal.  One transfer step appends a
diagonal to every shape by summing, over every way of placing a new
run, the perimeter growth 4b - 2a for a run of b new cells sharing a
contacts with the old run.  Grouping those sums by nose class turns the
transfer into a fixed combination of the tail operators and the
rational kernel 1/(1 - x^4 z).  The transfer is affine, T(F) = T(0) + L(F):
T(0) counts the two-diagonal shapes and L adds one diagonal.  T(0) is
itself L of the lone cell, filed as a one-nose run of one cell (every
two-diagonal shape is that cell with one diagonal appended), so the
engine has one transfer map.  The fixed point is built one diagonal at
a time, delta_2 = T(0) = L(lone cell) and delta_{k+1} = L(delta_k),
summed until a delta vanishes, which the x-truncation guarantees
because every extra diagonal adds perimeter.

Every term of L carries one factor of d and T(0) carries d^2, so
delta_k, the shapes with k diagonals, has d-degree k and the steps never
touch d: tracking it only decides the d-row a delta is summed into.  The
steps run on packed integers (Kronecker substitution).  A class is a
list over z of Python ints, and slot j of each int holds the coefficient
of x^(2j), since every perimeter is even.  A multiple of x^(2j) is then
a shift by j slots, and a sum of polynomials is one integer sum.

The frame.  A shape with k diagonals and m cells on its final diagonal
has a bounding box with width + height >= k + m (a cell of the first
diagonal and the two ends of the final run are that far apart), so its
perimeter is at least 2(k + m), a bound some shape reaches at every k.
The steps store the z^m entry of delta_k divided by x^(2(k + m)), at
frame offset k + m, cut at ``order`` by ``Slots.masks[k + m]``.

One step is one backward pass, for the tail operators, and one fused
forward pass over z that carries three kernel products and writes
entry m + 1 of all three classes (see ``_linear_step``).  With d
collapsed, ``solve`` sums the deltas of ``SUM_BLOCK`` steps in a frame
anchored at the block's first step, so a delta entry is added at the
width of its block, not of the full row, and each block is shifted
into the row once.

``solve`` returns the packed sum itself, and every result is read
from it: ``marginals(order, by)`` unpacks only the sum of every z-entry
(by perimeter), of each class (by nose, d collapsed) or of each d-row
(by diagonals); ``joint_table`` unpacks each (class, d-row, z) int once;
``two_nose_identity_residuals`` unpacks each (class, d-row) sum at
z = 1.  No result needs ``dcpoly.series``.
"""

from itertools import repeat
from typing import NamedTuple

from .counts import CountTable, NoseClass

CLASS_ORDER = (NoseClass.TWO, NoseClass.ONE, NoseClass.ZERO)
MIN_Z = {NoseClass.TWO: 2, NoseClass.ONE: 1, NoseClass.ZERO: 1}

# the lone cell as delta_1 in the frame: a one-nose z^1 entry, x^4 over x^(2(1 + 1))
LONE_CELL = ([], [0, 1], [])

# with d collapsed, the deltas of this many steps are summed in a frame
# anchored at the block's first step before one full-width shift
SUM_BLOCK = 8


class NonConvergenceError(RuntimeError):
    """The iteration failed to reach its fixed point within the bound."""


class InvariantError(RuntimeError):
    """An iterate violated a structural property every census series has."""


def _slot_bits(order):
    """Value bits and guard bits of one slot at truncation ``order``.

    Value bits.  Weigh each coefficient by x^perimeter z^run with
    x = 2^(-3/2) and z = 4.  Then tail_sum gains at most 1/(z - 1),
    tail_weighted z/(z - 1)^2 and the kernel 1/(1 - x^4 z), so every
    column of L's 3x3 matrix of class-to-class gains sums to at most
    841/900.  T(0) weighs 7/320, so all deltas together weigh less than
    (7/320)/(1 - 841/900) < 1/2, and every count at perimeter p is
    below 2^(3p/2)/2.

    Guard bits.  In one step, each slot of every intermediate sums slots
    of the previous delta.  The framed step is the same map re-indexed
    (a framed slot holds the same count, k + m slots lower), so the
    multiplicities add up to at most 3D(D+1)/2 + 3D(J+1) + (J+1)(J+2)/2
    < (order + 4)^2, where D = order/2 bounds the final run and
    J = order/4 the kernel's reach.  So if a delta's slots are below
    2^value_bits, nothing in the next step carries into a neighbouring
    slot, and a slot that outgrows its value bits sets a guard bit.
    """
    return 3 * order // 2, 2 * (order + 4).bit_length()


class Slots:
    """Layout of packed x-polynomials: one slot per even x-degree 0..order.
    ``masks[j]`` keeps the order/2 + 1 - j slots of an entry at frame
    offset j, whose slot i holds the coefficient of x^(2(j + i))."""

    def __init__(self, order):
        value_bits, guard_bits = _slot_bits(order)
        self.width = width = value_bits + guard_bits
        self.masks = [(1 << width * j) - 1 for j in range(order // 2 + 1, 0, -1)]
        repunit = self.masks[0] // ((1 << width) - 1)
        self.guard = (((1 << guard_bits) - 1) << value_bits) * repunit

    def unpack(self, v):
        """The nonzero slots of v as {x-degree: coefficient}, in degree order."""
        out = {}
        _unpack_into(out, v, self.width, 0)
        return out


def _unpack_into(out, v, width, kx):
    """Add the nonzero slots of v to ``out``, slot 0 at x-degree ``kx``.
    Above 16 slots v is split into its low and high halves, low first,
    so each bit is shifted O(log slots) times, not once per slot."""
    half = -(-v.bit_length() // width) // 2
    if half > 8:
        _unpack_into(out, v & (1 << width * half) - 1, width, kx)
        _unpack_into(out, v >> width * half, width, kx + 2 * half)
        return
    slot = (1 << width) - 1
    while v:
        if v & slot:
            out[kx] = v & slot
        v >>= width
        kx += 2


class PackedSum(NamedTuple):
    """``rows[c][kd][m]``: the d^kd z^m coefficient of class ``CLASS_ORDER[c]``."""

    slots: Slots
    track_diagonals: bool
    rows: tuple


def _add(p, q):
    if len(p) < len(q):
        p, q = q, p
    return [u + v for u, v in zip(p, q)] + p[len(q):]


def _tail_sum(series, shift=0):
    """z^m coefficient becomes sum_{k>m} s_k x^(2(k-m-1)), for m = 0..D-1,
    with x^2 a shift by ``shift`` bits (at 0, the plain suffix sums)."""
    out = series[1:]
    for m in range(len(out) - 2, -1, -1):
        out[m] += out[m + 1] << shift
    return out


def _tail_weighted(series, shift=0):
    """z^m coefficient becomes sum_{k>m} (k-m) s_k, for m >= 1, in the same
    frame as ``_tail_sum``: the doubled tail sum, moved up one z-index."""
    return [0] + _tail_sum(_tail_sum(series, shift), shift)


def _linear_step(delta, k, slots):
    """L(F) in the frame: append one diagonal to shapes with ``k`` diagonals.

    The new-run sums over (overlap, length) decompose, class by class,
    into the tail operators T1 ``_tail_sum`` and T2 ``_tail_weighted``
    of the old series, the kernel K = 1/(1 - x^4 z), applied once or
    twice, and monomials x^a z.  In the frame, where z^m of F stands at
    offset k + m and of L(F) at k + 1 + m, x^a z becomes x^(a-4) w, with
    w the shift by one z-index, and x^2 z T1 becomes w T1, as T1 lands
    one offset above its input; K steps x^2 per z-index:

        two  = w(K^2 A + K B + C)
        one  = w(K T1(2A + B) + T1(B + 2C)) + x^2 w(2 K^2 A + K B)
        zero = T2(A + B + C) + x^2 w K T1(2A + B) + x^4 w K^2 A

    No shift is negative, so an entry may be cut at any offset it later
    reaches: K's z^m reaches L(F) only through w, at offset k + 2 + m or
    above.  The caller adds the factor d that every term carries.

    One backward pass builds U = T1(2A + B), S = T1(B + 2C) and
    T2(A + B + C): U + S = 2 T1(A + B + C) as integers, so T2's inner
    tail sum is (U + S) >> 1 and its outer one runs a step behind.  One
    forward pass over m carries three kernel products, each cut at
    masks[k + 2 + m], P = K A, Q = K(P + B) and Z = K(U + x^2 P), the
    K T1(2A + B) + x^2 K^2 A above, and writes entry m + 1 of each class:
    two = Q + C, one = Z + S + x^2 Q, zero = T2(A + B + C) + x^2 Z.
    """
    masks, width = slots.masks[k + 2:], slots.width
    n = max(len(masks) + 1, *map(len, delta))
    a, b, c = (series + [0] * (n - len(series)) for series in delta)
    tail_u, tail_s, tail_v = [0] * n, [0] * n, [0] * n
    u = s = t = 0
    for m in range(n - 1, 0, -1):
        u = (u << width) + 2 * a[m] + b[m]
        s = (s << width) + b[m] + 2 * c[m]
        tail_u[m - 1], tail_s[m - 1], tail_v[m - 1] = u, s, t
        t = (t << width) + ((u + s) >> 1)
    two, one, zero = [0], [0], [0]
    p = q = z = 0
    for m, mask in enumerate(masks):
        p = ((p << width) + a[m]) & mask
        z = (tail_u[m] + ((p + z) << width)) & mask
        q = (q + p + b[m]) & mask
        two.append((q + c[m]) & mask)
        q <<= width
        one.append((z + tail_s[m] + q) & mask)
        zero.append((tail_v[m] + (z << width)) & mask)
    for out in (two, one, zero):
        while out and not out[-1]:
            out.pop()
    return two, one, zero


def _check_counts(cls, kd, series, slots):
    """Raise ``InvariantError`` on a nonzero entry below the minimum run of
    ``cls``, or on a negative count or an overflow: v < 0 or a guard bit set.

    One OR over the entries is negative exactly when some entry is, and
    meets the guard exactly when a nonnegative entry does; only a tripped
    test walks the entries, to name the first offender."""
    acc = 0
    for v in series:
        acc |= v
    if acc >= 0 and not acc & slots.guard and not any(series[:MIN_Z[cls]]):
        return
    for m, v in enumerate(series):
        if v and m < MIN_Z[cls]:
            raise InvariantError(
                "%s series has a z^%d term below its minimum run" % (cls.value, m)
            )
        if v < 0 or v & slots.guard:
            raise InvariantError(
                "a count at d^%d z^%d in %s is negative or overflows its slot"
                % (kd, m, cls.value)
            )


def check_invariants(packed):
    """Structural checks every genuine census series satisfies.

    Checks every d-row of every class and raises ``InvariantError`` on
    the first violation.  Each rule is a mask test on the packed ints:
    every slot holds a count in [0, 2^value_bits); a shape in these
    classes has at least two diagonals, at least one cell on the final
    diagonal (two for the two-nose class), perimeter at least
    2*diagonals + 2, and a final diagonal of at most (perimeter - 2)/2
    cells.  The stronger bound 2(diagonals + final run) holds by
    construction in ``solve``'s frame.
    """
    slots, track = packed.slots, packed.track_diagonals
    for cls, drows in zip(CLASS_ORDER, packed.rows):
        for kd, row in enumerate(drows):
            _check_counts(cls, kd, row, slots)
            for m, v in enumerate(row):
                low = max(3, m + 1, kd + 1 if track else 0)
                if v and (v & ((1 << slots.width * low) - 1) or (track and kd < 2)):
                    kx = 2 * (((v & -v).bit_length() - 1) // slots.width)
                    if kx < 6:
                        raise InvariantError("perimeter %d below any two-diagonal shape" % kx)
                    if 2 * m > kx - 2:
                        raise InvariantError("final run %d too long for perimeter %d" % (m, kx))
                    raise InvariantError(
                        "diagonal count %d inconsistent with perimeter %d" % (kd, kx)
                    )


def solve(order, track_diagonals=True):
    """The three nose-class series through perimeter ``order``, as a
    ``PackedSum`` summed one diagonal at a time (all in d-row 0 when
    ``track_diagonals`` is false).

    From the two-diagonal shapes delta_2 = T(0) = L(lone cell), each
    delta_{k+1} = L(delta_k) holds the shapes with k + 1 diagonals, and
    the fixed point of T is their sum.  The steps run in the frame of the module
    docstring, z^m of delta_k divided by x^(2(k + m)); each delta passes
    ``_check_counts`` before the next step reads it.  A block of steps
    from ``base`` (one step with d tracked, ``SUM_BLOCK`` with d
    collapsed) is summed with delta_k shifted up k - base slots, and the
    block is shifted up base + m slots into its d-row once.  The sum
    passes ``check_invariants`` once: by ``_slot_bits`` it cannot carry
    between slots, so its guard bits cover the deltas' too.
    """
    if order < 4:
        raise ValueError("order must be at least 4 to see any polyomino")
    slots = Slots(order)
    width, span = slots.width, 1 if track_diagonals else SUM_BLOCK
    total = PackedSum(slots, track_diagonals, ([], [], []))
    block, base = [[], [], []], 2
    delta = _linear_step(LONE_CELL, 1, slots)
    for k in range(2, order + 4):
        done = not any(delta)
        if k == base + span or done and k > base:
            kd = base if track_diagonals else 0
            for drows, series in zip(total.rows, block):
                drows.extend([] for _ in range(kd + 1 - len(drows)))
                drows[kd] = _add(drows[kd], [v << width * (base + m) for m, v in enumerate(series)])
            block, base = [[], [], []], k
        if done:
            check_invariants(total)
            return total
        for c, (cls, series) in enumerate(zip(CLASS_ORDER, delta)):
            _check_counts(cls, k if track_diagonals else 0, series, slots)
            block[c] = _add(block[c], [v << width * (k - base) for v in series])
        delta = _linear_step(delta, k, slots)
    raise NonConvergenceError("no fixed point within %d steps" % (order + 2))


def _unpack_checked(slots, acc):
    """Unpack a sum of checked values; fewer than 2^guard_bits of them
    cannot carry between slots, so an overflow sets a guard bit."""
    if acc & slots.guard:
        raise InvariantError("a perimeter count overflows its slot")
    return slots.unpack(acc)


def marginals(order, by):
    """Counts through perimeter ``order`` for ``by`` in perimeter, diagonals
    or noses, keyed as ``CountTable.project`` keys perimeter, (perimeter,
    diagonals) or (perimeter, nose), with nose None for the single cell.
    Each key group is one sum of at most 3(order/2 + 1) + 1 < 2^guard_bits
    checked values."""
    if by not in ("perimeter", "diagonals", "noses"):
        raise ValueError("unknown marginal %r" % (by,))
    packed = solve(order, track_diagonals=by == "diagonals")
    slots, rows = packed.slots, packed.rows
    single = 1 << 2 * slots.width  # the single cell: x^4, one diagonal
    if by == "perimeter":
        sums = {None: single + sum(sum(row) for drows in rows for row in drows)}
    elif by == "noses":
        sums = {None: single}
        sums.update(zip(CLASS_ORDER, (sum(map(sum, drows)) for drows in rows)))
    else:  # every class has the same d-rows, and rows 0 and 1 are empty
        sums = {kd: sum(map(sum, kd_rows)) for kd, kd_rows in enumerate(zip(*rows))}
        sums[1] = single
    out = {}
    for group, acc in sums.items():
        for kx, v in _unpack_checked(slots, acc).items():
            out[kx if by == "perimeter" else (kx, group)] = v
    return out


def perimeter_counts(order):
    """Counts of diagonally convex polyominoes for each perimeter <= order."""
    return marginals(order, "perimeter")


def joint_table(order):
    """Full census table keyed like the exhaustive generator's output.

    Unpacks each (class, d-row, z) int of the diagonal-tracking run once
    straight into the table's dict, whose first key is the single cell
    (one diagonal, perimeter 4).
    """
    packed = solve(order)
    # every (kx, kd, cls, m) key comes from one int's slot, so none repeats
    table = CountTable({(4, 1, None, 1): 1})
    for cls, drows in zip(CLASS_ORDER, packed.rows):
        for kd, row in enumerate(drows):
            for m, v in enumerate(row):
                slots = packed.slots.unpack(v)
                table.update(zip(zip(slots, repeat(kd), repeat(cls), repeat(m)), slots.values()))
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

    Expanded, the residual is

        A (1 - 2x^4 - d x^4 + x^8) - d x^4 (1 - x^4) B
            - d x^4 (1 - 2x^4 + x^8) C - d^2 x^8 (1 - x^4),

    a signed sum of copies of A, B, C and 1 shifted by monomials, each
    truncated at x^order.
    """
    packed = solve(order)
    a, b, c = (
        {(kd, kx): v for kd, row in enumerate(drows)
         for kx, v in _unpack_checked(packed.slots, sum(row)).items()}
        for drows in packed.rows
    )

    def residual(k):
        # k = 1 uses d, k = 2 uses d^2 throughout
        out = {}
        for series, shifts in (
            (a, ((0, 0, 1), (0, 4, -2), (k, 4, -1), (0, 8, 1))),
            (b, ((k, 4, -1), (k, 8, 1))),
            (c, ((k, 4, -1), (k, 8, 2), (k, 12, -1))),
            ({(0, 0): 1}, ((2 * k, 8, -1), (2 * k, 12, 1))),
        ):
            for sd, sx, sign in shifts:
                for (kd, kx), v in series.items():
                    if kx + sx <= order:
                        key = (kd + sd, kx + sx)
                        out[key] = out.get(key, 0) + sign * v
        return {key: v for key, v in out.items() if v}

    return residual(1), residual(2)
