"""Layered functional-equation iteration for diagonally convex polyominoes.

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
summed over the layers the truncation keeps: a shape with k diagonals
has perimeter at least 2(k + 1), so with N = order // 2 they are
k = 2..N - 1, a count of steps known before the run starts.

Every term of L carries one factor of d and T(0) carries d^2, so
delta_k, the shapes with k diagonals, has d-degree k and the steps never
touch d: tracking it only decides the d-row a delta is summed into.  The
steps run on packed integers (Kronecker substitution).  A class is a
list over z of Python ints.  With t = x^2 (every perimeter is even) and
N = order // 2, slot s of each int holds the coefficient of t^(N - s),
anchored at 2N, so an odd order reads the counts of order - 1.  A
multiple of t is a right shift by one slot, which drops what passes the
order, and every entry of every delta stands on the same slots: a sum
of polynomials, or of a class over z, is one integer sum.  A shape with
k diagonals and m cells on its final diagonal has a bounding box with
width + height >= k + m (a cell of the first diagonal and the two ends
of the final run are that far apart), so its perimeter is at least
2(k + m), a bound some shape reaches at every k: delta_k has no entry
past z^(N - k), and its z^m entry no slot past N - k - m, a support the
check of each delta holds it to.  The slots widen with the deltas (see
``Slots``): a step whose input slots are below 2^v grows them by less
than g guard bits, so at a width of v + g + 1 bits its output cannot
carry, and its top bit is set only by a borrow from a negative slot.
The check of each delta tells whether it still fits in v bits; if not,
it is repacked.

``_deltas`` yields each checked delta_k, and every result folds the
stream its own way: ``marginals(order, by)`` and ``two_nose_identity_residuals``
add the entries of each class of each delta into one packed int per group
(perimeter, nose class, d-row, or class and d-row), each unpacked once;
``joint_table`` unpacks each entry into its table.  No result needs ``series``.
"""

from functools import reduce
from itertools import chain, repeat
from operator import or_, rshift

CLASS_ORDER = ("two", "one", "zero")
MIN_Z = {"two": 2, "one": 1, "zero": 1}

# bits a widening adds, a multiple of 64 for _repack: perimeter_counts(160) took
# 1.38 / 1.14 / 1.10 times as long with 16 / 32 / 128 (2 vCPUs, Python 3.11)
STEP = 64


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
    of the previous delta, and the multiplicities add up to at most
    3D(D+1)/2 + 3D(J+1) + (J+1)(J+2)/2 < (order + 4)^2, where D = order/2
    bounds the final run and J = order/4 the kernel's reach.  So if a
    delta's slots are below 2^v, the next delta's are below 2^(v + guard
    bits), and a slot that outgrows v bits sets a guard bit.
    """
    return 3 * order // 2, 2 * (order + 4).bit_length()


class Slots:
    """Layout of one run's packed ints: slot s of ``width`` bits holds the
    coefficient of t^(top - s), s = 0..top.  The width is the bits asked
    for rounded up to ``STEP``, and a slot has ``value_bits``: the rest
    after the guard bits and a sign bit, but no more than the ``bound`` of
    ``_slot_bits``.  ``spill`` marks the bits at or above the value bits;
    ``guard`` the sign bit and the bits at or above ``bound``, which no
    checked count, nor a sum of fewer than 2^guard_bits of them, may set.
    Once the value bits reach ``bound`` a slot that spills sets a guard bit,
    so the check raises before it would ask for a wider slot."""

    def __init__(self, order):
        if order < 4:
            raise ValueError("order must be at least 4 to see any polyomino")
        self.top = order // 2
        self.bound, self.guard_bits = _slot_bits(order)
        self._lay_out(self.guard_bits + 2)

    def _lay_out(self, bits):
        self.width = width = -(-bits // STEP) * STEP
        self.value_bits = min(width - self.guard_bits - 1, self.bound)
        repunit = ((1 << width * (self.top + 1)) - 1) // ((1 << width) - 1)
        self.spill = ((1 << width) - (1 << self.value_bits)) * repunit
        self.guard = ((1 << width) - (1 << min(self.bound, width - 1))) * repunit

    def widen(self):
        """Widen the slots and return the old width.  A checked delta has slots
        below 2^(width - 1) and 2^bound, so they fit the new value bits."""
        old = self.width
        self._lay_out(old + self.guard_bits)
        return old

    def unpack(self, v):
        """{x-degree: coefficient} of v's nonzero slots in degree order, slot s
        at x-degree 2(top - s).  v's big-endian bytes start at its highest slot,
        the lowest degree, so ``width // 8`` bytes at a time read the slots in
        ascending degree."""
        size = self.width // 8
        count = -(-v.bit_length() // self.width)
        data = v.to_bytes(size * count, "big")
        out, kx = {}, 2 * (self.top - count + 1)
        for i in range(0, size * count, size):
            coefficient = int.from_bytes(data[i : i + size], "big")
            if coefficient:
                out[kx] = coefficient
            kx += 2
        return out


def _repack(v, old, new):
    """v >= 0 with its slots widened from ``old`` to ``new`` bits, both multiples of 64."""
    size, grown = old // 64, new // 64
    count = -(-v.bit_length() // old)
    src = memoryview(v.to_bytes(8 * count * size, "little")).cast("Q")
    dst = bytearray(8 * count * grown)
    out = memoryview(dst).cast("Q")
    for j in range(size):
        out[j::grown] = src[j::size]
    return int.from_bytes(dst, "little")


def _tail_sum(series):
    """z^m coefficient becomes sum_{k>m} s_k, for m = 0..D-1: the suffix sums."""
    out = series[1:]
    for m in range(len(out) - 2, -1, -1):
        out[m] += out[m + 1]
    return out


def _tail_weighted(series):
    """z^m coefficient becomes sum_{k>m} (k-m) s_k, for m >= 1: the doubled
    tail sum, moved up one z-index."""
    return [0] + _tail_sum(_tail_sum(series))


def _linear_step(delta, k, slots):
    """L(F): append one diagonal to shapes with ``k`` diagonals.

    The new-run sums over (overlap, length) decompose, class by class,
    into the tail operators T1 ``_tail_sum`` and T2 ``_tail_weighted``
    of the old series, the kernel K = 1/(1 - t^2 z), applied once or
    twice, and monomials t^j z:

        two  = t^2 z (K^2 A + K B + C)
        one  = t z (K T1(2A + B) + T1(B + 2C)) + t^3 z (2 K^2 A + K B)
        zero = T2(A + B + C) + t^2 z K T1(2A + B) + t^4 z K^2 A

    One backward pass builds U = T1(2A + B), S = T1(B + 2C) and
    V = T2(A + B + C): U + S = 2 T1(A + B + C), so T2's inner tail sum
    is (U + S) >> 1 and its outer one runs a step behind.  One forward
    pass over m, each t a right shift, carries P = K A, Q = K(P + B) and
    Z = K(U + t^2 P) as P <- A_m + t^2 P, Q <- P + B_m + t^2 Q and
    Z <- U_m + t^2 (P + Z), and writes entry m + 1 of each class:
    two = t^2 (Q + C_m), one = t (Z + S_m + t^2 Q), zero = V_(m+1) + t^2 Z,
    through z^(N - k - 1), the last of delta_(k+1).  No input, checked or
    the lone cell, has an entry past z^(N - k).  No slot carries, so
    t^2 (P + Z) is t^2 P + t^2 Z, and each t^2 is taken once.  The caller
    adds the factor d that every term carries."""
    width, shift = slots.width, 2 * slots.width
    n = slots.top - k + 1
    a, b, c = (series + [0] * (n - len(series)) for series in delta)
    tail_u, tail_s, tail_v = [0] * n, [0] * n, [0] * n
    u = s = v = 0
    for m in range(n - 1, 0, -1):
        u += 2 * a[m] + b[m]
        s += b[m] + 2 * c[m]
        tail_u[m - 1], tail_s[m - 1], tail_v[m - 1] = u, s, v
        v += (u + s) >> 1
    two, one, zero = [0], [0], [0]
    ps = qs = zs = 0
    for am, bm, cm, um, sm, vm in zip(a[: n - 2], b, c, tail_u, tail_s, tail_v):
        ps = (p := am + ps) >> shift
        zs = (z := um + ps + zs) >> shift
        qs = (q := p + bm + qs) >> shift
        two.append(q + cm >> shift)
        one.append(z + sm + qs >> width)
        zero.append(vm + zs)
    for out in (two, one, zero):
        while out and not out[-1]:
            out.pop()
    return two, one, zero


def _limits(cls, k, slots):
    """Shifts that leave each entry of class ``cls`` of delta_k zero, z^0 on,
    without end: width (N - k - m + 1) at z^m, whose perimeter is at least
    2(k + m), and 0 below the minimum run of ``cls`` or past z^(N - k)."""
    low, width = MIN_Z[cls], slots.width
    return chain(repeat(0, low), range(width * (slots.top - k + 1 - low), 0, -width), repeat(0))


def _check_counts(cls, k, series, slots):
    """Raise ``InvariantError`` on an entry of delta_k outside its support
    (see ``_limits``), negative, or with a guard bit set; otherwise return
    whether a slot spills past the value bits.  A negative entry shifts to
    -1, so one pass of shifts and one OR against ``spill`` see every fault;
    only a tripped test walks the entries, to name the first offender."""
    # entries narrow as m grows, so the running OR starts narrow
    spills = reduce(or_, reversed(series), 0) & slots.spill
    if not spills and not any(map(rshift, series, _limits(cls, k, slots))):
        return False
    for m, (v, limit) in enumerate(zip(series, _limits(cls, k, slots))):
        if v and m < MIN_Z[cls]:
            raise InvariantError("%s series has a z^%d term below its minimum run" % (cls, m))
        if v < 0 or v & slots.guard:
            raise InvariantError("a count at d^%d z^%d in %s is negative or overflows its slot"
                                 % (k, m, cls))
        if v >> limit:
            raise InvariantError("a count at d^%d z^%d in %s lies below perimeter %d"
                                 % (k, m, cls, 2 * (k + m)))
    return True


def _deltas(slots):
    """Yield (k, delta_k) for the layers k = 2..N - 1 within the order,
    N = ``slots.top``: delta_k = L(delta_(k-1)) holds the shapes with k
    diagonals, from the lone cell delta_1, and T's fixed point is their sum.
    All three classes pass ``_check_counts``, even after one spills, before
    the delta is yielded or read; a spill widens ``slots`` and repacks it."""
    # delta_1, the lone cell, filed as a one-nose z^1 entry x^4 = t^2
    delta = ([], [0, 1 << slots.width * (slots.top - 2)], [])
    for k in range(2, slots.top):
        delta = _linear_step(delta, k - 1, slots)
        if any([_check_counts(cls, k, v, slots) for cls, v in zip(CLASS_ORDER, delta)]):
            old = slots.widen()
            delta = tuple([_repack(v, old, slots.width) for v in series] for series in delta)
        yield k, delta


def _grouped(order, group):
    """{group(k, cls): {x-degree: count}} over each class of each delta:
    the entries of each class of each delta are added into one int per
    group, repacked when the stream widens and unpacked once.  A slot of
    a group sums at most 3(order/2 + 1)^2 checked values, fewer than
    (order + 4)^2, so it cannot carry, and an overflow sets a guard bit."""
    slots = Slots(order)
    width, sums = slots.width, {}
    for k, delta in _deltas(slots):
        if width != slots.width:
            sums = {key: _repack(acc, width, slots.width) for key, acc in sums.items()}
            width = slots.width
        for cls, series in zip(CLASS_ORDER, delta):
            key = group(k, cls)
            sums[key] = sums.get(key, 0) + sum(series)
    if any(acc & slots.guard for acc in sums.values()):
        raise InvariantError("a perimeter count overflows its slot")
    return {key: slots.unpack(acc) for key, acc in sums.items()}


def marginals(order, by):
    """Counts through perimeter ``order`` for ``by`` in perimeter, diagonals
    or noses, keyed as ``CountTable.project`` keys perimeter, (perimeter,
    diagonals) or (perimeter, nose), with nose "none" for the single cell.
    Every key but the single cell's is read from one guard-checked sum
    (see ``_grouped``): of all deltas by perimeter, of one class of all
    deltas by nose, or of all classes of one delta by diagonals."""
    groups = {"perimeter": (lambda k, cls: None, 4), "noses": (lambda k, cls: cls, (4, "none")),
              "diagonals": (lambda k, cls: k, (4, 1))}
    if by not in groups:
        raise ValueError("unknown marginal %r" % (by,))
    group, single = groups[by]
    out = {single: 1}  # the single cell: perimeter 4, one diagonal
    for key, counts in _grouped(order, group).items():
        for kx, v in counts.items():
            out[kx if by == "perimeter" else (kx, key)] = v
    return out


def perimeter_counts(order):
    """Counts of diagonally convex polyominoes for each perimeter <= order."""
    return marginals(order, "perimeter")


def joint_table(order):
    """Full census table keyed like the exhaustive generator's output.

    Unpacks each checked entry of each delta once, at the width it was
    yielded at, straight into the table's dict, whose first key is the
    single cell (one diagonal, perimeter 4)."""
    from .counts import CountTable
    slots = Slots(order)
    # every (kx, k, cls, m) key comes from one entry's slot, so none repeats
    table = CountTable({(4, 1, "none", 1): 1})
    for k, delta in _deltas(slots):
        for cls, series in zip(CLASS_ORDER, delta):
            for m, v in enumerate(series):
                counts = slots.unpack(v)
                table.update(zip(zip(counts, repeat(k), repeat(cls), repeat(m)), counts.values()))
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

    Expanded, the residual is A (1 - 2x^4 - d x^4 + x^8) - d x^4 (1 - x^4) B
    - d x^4 (1 - 2x^4 + x^8) C - d^2 x^8 (1 - x^4), a signed sum of copies
    of A, B, C and 1 shifted by monomials, each truncated at x^order.
    """
    classes = {cls: {} for cls in CLASS_ORDER}
    for (cls, kd), counts in _grouped(order, lambda k, cls: (cls, k)).items():
        classes[cls].update(((kd, kx), v) for kx, v in counts.items())
    a, b, c = classes.values()

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
