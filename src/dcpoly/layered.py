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
frame offset k + m, cut at ``order`` by ``Slots.masks[k + m]``.  So no
entry can hold a perimeter below 6, a final run longer than
(perimeter - 4)/2 or more diagonals than (perimeter - 2)/2 allows, and
none of these needs a check of its own.

One step is one backward pass, for the tail operators, and one fused
forward pass over z that carries three kernel products and writes
entry m + 1 of all three classes (see ``_linear_step``).

``_deltas`` yields each delta_k once it has passed ``_check_counts``,
and every result folds the stream its own way, keeping only what it
reports: ``marginals(order, by)`` and ``two_nose_identity_residuals``
sum each class of each delta over z and add it into one packed int per
group (perimeter, nose class, d-row, or class and d-row), each unpacked
once; ``joint_table`` unpacks each framed entry straight into its
table.  No result needs ``dcpoly.series``.
"""

from itertools import repeat

from .counts import CountTable

CLASS_ORDER = ("two", "one", "zero")
MIN_Z = {"two": 2, "one": 1, "zero": 1}

# the lone cell as delta_1 in the frame: a one-nose z^1 entry, x^4 over x^(2(1 + 1))
LONE_CELL = ([], [0, 1], [])


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
        if order < 4:
            raise ValueError("order must be at least 4 to see any polyomino")
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
                "%s series has a z^%d term below its minimum run" % (cls, m)
            )
        if v < 0 or v & slots.guard:
            raise InvariantError(
                "a count at d^%d z^%d in %s is negative or overflows its slot"
                % (kd, m, cls)
            )


def _deltas(order, slots):
    """Yield (k, delta_k) for k = 2, 3, ... until a delta vanishes.

    From the two-diagonal shapes delta_2 = T(0) = L(lone cell), each
    delta_{k+1} = L(delta_k) holds the shapes with k + 1 diagonals, and
    the fixed point of T is their sum.  A delta is a triple of classes
    in the frame of the module docstring, z^m of delta_k divided by
    x^(2(k + m)), and each class passes ``_check_counts`` before it is
    yielded or the next step reads it.
    """
    delta = _linear_step(LONE_CELL, 1, slots)
    for k in range(2, order + 4):
        if not any(delta):
            return
        for cls, series in zip(CLASS_ORDER, delta):
            _check_counts(cls, k, series, slots)
        yield k, delta
        delta = _linear_step(delta, k, slots)
    raise NonConvergenceError("no fixed point within %d steps" % (order + 2))


def _unpack_checked(slots, acc):
    """Unpack a sum of checked values; fewer than 2^guard_bits of them
    cannot carry between slots, so an overflow sets a guard bit."""
    if acc & slots.guard:
        raise InvariantError("a perimeter count overflows its slot")
    return slots.unpack(acc)


def _grouped(order, group):
    """{group(k, cls): {x-degree: count}} over each class of each delta.

    Each class of delta_k is summed over z by Horner's rule, its z^m
    entry m slots up, then shifted up k slots, where it stands, and added
    into one int per group, unpacked once.  A slot of a group sums at
    most 3(order/2 + 1)^2 checked values, fewer than (order + 4)^2, which
    ``_slot_bits`` keeps within 2^guard_bits.
    """
    slots = Slots(order)
    width = slots.width
    sums = {}
    for k, delta in _deltas(order, slots):
        for cls, series in zip(CLASS_ORDER, delta):
            acc = 0
            for v in reversed(series):
                acc = (acc << width) + v
            key = group(k, cls)
            sums[key] = sums.get(key, 0) + (acc << width * k)
    return {key: _unpack_checked(slots, acc) for key, acc in sums.items()}


def marginals(order, by):
    """Counts through perimeter ``order`` for ``by`` in perimeter, diagonals
    or noses, keyed as ``CountTable.project`` keys perimeter, (perimeter,
    diagonals) or (perimeter, nose), with nose "none" for the single cell.
    Every key but the single cell's is read from one guard-checked sum
    (see ``_grouped``) of at most 3(order/2 + 1)^2 < 2^guard_bits checked
    values: all deltas by perimeter, one class of all deltas by nose, or
    all classes of one delta by diagonals."""
    if by == "perimeter":
        group, single = (lambda k, cls: None), 4
    elif by == "noses":
        group, single = (lambda k, cls: cls), (4, "none")
    elif by == "diagonals":
        group, single = (lambda k, cls: k), (4, 1)
    else:
        raise ValueError("unknown marginal %r" % (by,))
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

    Unpacks each checked entry of each delta once, slot 0 at the x-degree
    2(k + m) of its frame offset, straight into the table's dict, whose
    first key is the single cell (one diagonal, perimeter 4).
    """
    slots = Slots(order)
    # every (kx, k, cls, m) key comes from one entry's slot, so none repeats
    table = CountTable({(4, 1, "none", 1): 1})
    for k, delta in _deltas(order, slots):
        for cls, series in zip(CLASS_ORDER, delta):
            for m, v in enumerate(series):
                counts = {}
                _unpack_into(counts, v, slots.width, 2 * (k + m))
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

    Expanded, the residual is

        A (1 - 2x^4 - d x^4 + x^8) - d x^4 (1 - x^4) B
            - d x^4 (1 - 2x^4 + x^8) C - d^2 x^8 (1 - x^4),

    a signed sum of copies of A, B, C and 1 shifted by monomials, each
    truncated at x^order.
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
