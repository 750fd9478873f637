"""Tests for the layered fixed-point iteration.

The order-8 fixed point is small enough to verify against a census done
by hand: nine shapes have perimeter at most 8, and each lands in one
nose class with known diagonal and final-run statistics.
"""

import random
from fractions import Fraction

import pytest
from reference_layered import empty_triple, rhs_step

from dcpoly import brute, layered
from dcpoly.counts import NoseClass
from dcpoly.layered import (
    InvariantError,
    NonConvergenceError,
    check_invariants,
    joint_table,
    marginals,
    perimeter_counts,
    solve,
    two_nose_identity_residuals,
)

KNOWN_PREFIX = {4: 1, 6: 2, 8: 7, 10: 28, 12: 122, 14: 556, 16: 2618}


def unpacked(packed):
    """Each class of a packed sum as {(d_degree, x_degree, z_degree): coefficient}."""
    return tuple(
        {
            (kd, kx, m): c
            for kd, row in enumerate(drows)
            for m, v in enumerate(row)
            for kx, c in packed.slots.unpack(v).items()
        }
        for drows in packed.rows
    )


def perimeter_totals(classes):
    """Counts by perimeter of the single cell and every class term."""
    totals = {4: 1}
    for series in classes:
        for (_, kx, _), v in series.items():
            totals[kx] = totals.get(kx, 0) + v
    return totals


def test_fixed_point_at_order_eight_matches_hand_census():
    assert unpacked(solve(8)) == (
        {(2, 8, 2): 1},
        {(2, 6, 1): 2, (3, 8, 1): 4},
        {(2, 8, 1): 1, (3, 8, 1): 1},
    )


def test_total_gf_at_order_eight():
    """The whole family's generating function, perimeter by diagonals."""
    assert marginals(8, "diagonals") == {(4, 1): 1, (6, 2): 2, (8, 2): 2, (8, 3): 5}


def test_perimeter_counts_known_values():
    assert perimeter_counts(16) == KNOWN_PREFIX


def test_collapsed_run_agrees_with_symbolic_run():
    for order in (14, 40, 80):
        symbolic = joint_table(order).by_perimeter()
        collapsed = perimeter_counts(order)
        assert collapsed == {k: symbolic[k] for k in sorted(symbolic)}


def test_nose_breakdown_at_order_eight():
    assert marginals(8, "noses") == {
        (4, None): 1,
        (8, NoseClass.TWO): 1,
        (6, NoseClass.ONE): 2,
        (8, NoseClass.ONE): 4,
        (8, NoseClass.ZERO): 2,
    }


PROJECTED_FIELDS = {
    "perimeter": ("perimeter",),
    "diagonals": ("perimeter", "diagonals"),
    "noses": ("perimeter", "nose"),
}


@pytest.mark.parametrize("order", [4, 5, 8, 16, 40, 64])
def test_marginals_equal_the_joint_table_projections(order):
    table = joint_table(order)
    for by, fields in PROJECTED_FIELDS.items():
        assert marginals(order, by) == table.project(*fields)


def test_marginals_reject_an_unknown_statistic():
    with pytest.raises(ValueError, match="unknown marginal"):
        marginals(8, "last_run")


def test_joint_table_projects_to_perimeter_counts():
    table = joint_table(12)
    assert table.by_perimeter() == {k: v for k, v in KNOWN_PREFIX.items() if k <= 12}
    # every multi-diagonal key carries a real nose class
    for (pe, di, nose, la) in table:
        assert (nose is None) == (di == 1)
        assert la >= 1 and pe >= 2 * di + 2


@pytest.mark.parametrize(
    "make_table, max_diagonals",
    [
        pytest.param(lambda: brute.generate(24), 11, id="generate-24"),
        pytest.param(lambda: joint_table(60), 29, id="joint-table-60"),
    ],
)
def test_perimeter_is_at_least_twice_diagonals_plus_final_run(make_table, max_diagonals):
    """The premise of ``solve``'s frame, read off finished tables: a shape
    with k diagonals and m cells on its final diagonal has perimeter at
    least 2(k + m), and some shape reaches the bound at every k."""
    tight = set()
    for (pe, di, _, la) in make_table():
        assert pe >= 2 * (di + la)
        if pe == 2 * (di + la):
            tight.add(di)
    assert tight == set(range(1, max_diagonals + 1))


def test_two_nose_identity_distinguishes_conventions():
    matching, squared = two_nose_identity_residuals(12)
    assert matching == {}
    assert squared
    # the variant with squared markers misses already at its lowest term
    low = min(squared, key=lambda k: (k[1], k[0]))
    assert low[1] == 8


def _product(p, q, order):
    out = {}
    for (pd, px), u in p.items():
        for (qd, qx), v in q.items():
            if px + qx <= order:
                out[pd + qd, px + qx] = out.get((pd + qd, px + qx), 0) + u * v
    return out


@pytest.mark.parametrize("order", [8, 12, 20, 40])
def test_two_nose_residuals_equal_the_polynomial_products(order):
    """The shifted sums are the two sides of the relation multiplied out
    in full, with A, B and C read at z = 1 from the joint table."""
    at_one = {cls: {} for cls in layered.CLASS_ORDER}
    for (kx, kd, cls, _), v in joint_table(order).items():
        if cls is not None:
            at_one[cls][kd, kx] = at_one[cls].get((kd, kx), 0) + v
    a, b, c = (at_one[cls] for cls in layered.CLASS_ORDER)
    for k, residual in zip((1, 2), two_nose_identity_residuals(order)):
        left = _product(a, {(0, 0): 1, (0, 4): -2, (k, 4): -1, (0, 8): 1}, order)
        inner = dict(b)
        inner[k, 4] = inner.get((k, 4), 0) + 1
        for key, v in _product(c, {(0, 0): 1, (0, 4): -1}, order).items():
            inner[key] = inner.get(key, 0) + v
        for key, v in _product({(k, 4): 1, (k, 8): -1}, inner, order).items():
            left[key] = left.get(key, 0) - v
        assert residual == {key: v for key, v in left.items() if v}


def test_iterates_grow_monotonically(monkeypatch):
    """Every packed partial sum equals the reference engine's iterate T^t(0),
    and the first step, from the lone cell, gives T(0)."""
    seen = []
    real_step = layered._linear_step

    def record(delta, k, slots):
        seen.append((k, delta, slots))
        return real_step(delta, k, slots)

    monkeypatch.setattr(layered, "_linear_step", record)
    for track_diagonals in (True, False):
        seen.clear()
        solve(16, track_diagonals)
        # the lone cell, one nonempty delta per diagonal count 2..7, then an empty one
        assert [k for k, _, _ in seen] == [1, 2, 3, 4, 5, 6, 7]
        assert seen[0][1] == ([], [0, 1], [])
        # its output is delta_2, so the first comparison below checks it
        # against the reference's two-diagonal iterate T(0)
        del seen[0]
        rows = ([], [], [])
        reference = empty_triple()
        counts = []
        for k, delta, slots in seen:
            # unframe: z^m of delta_k stands k + m slots low
            kd = k if track_diagonals else 0
            for drows, series in zip(rows, delta):
                drows.extend([] for _ in range(kd + 1 - len(drows)))
                shifted = [v << slots.width * (k + m) for m, v in enumerate(series)]
                drows[kd] = layered._add(drows[kd], shifted)
            partial = unpacked(layered.PackedSum(slots, track_diagonals, rows))
            reference = rhs_step(reference, 16, track_diagonals)
            assert partial == reference
            counts.append(perimeter_totals(partial))
        assert rhs_step(reference, 16, track_diagonals) == reference
        for earlier, later in zip(counts, counts[1:]):
            for pe, v in earlier.items():
                assert later.get(pe, 0) >= v


def test_solve_rejects_tiny_order():
    with pytest.raises(ValueError):
        solve(2)


def test_convergence_error_is_exported():
    assert issubclass(NonConvergenceError, RuntimeError)


def naive_fixed_point(order, track_diagonals):
    """Reference: iterate the whole transfer from zero until it stops changing."""
    triple = empty_triple()
    for _ in range(order + 2):
        nxt = rhs_step(triple, order, track_diagonals)
        if nxt == triple:
            return triple
        triple = nxt
    raise AssertionError("reference iteration did not converge")


@pytest.mark.parametrize(
    "order, track_diagonals",
    [(o, t) for o in (4, 5, 8, 16, 30) for t in (True, False)] + [(60, False)],
)
def test_solve_matches_naive_fixed_point(order, track_diagonals):
    assert unpacked(solve(order, track_diagonals)) == naive_fixed_point(order, track_diagonals)


def test_perimeter_counts_sum_the_packed_classes():
    assert perimeter_counts(200) == perimeter_totals(unpacked(solve(200, False)))


def _corrupted(track_diagonals, cls, kd, m, change):
    """A valid packed partial sum with one int changed by ``change``."""
    packed = layered.solve(16, track_diagonals)
    check_invariants(packed)
    drows = packed.rows[layered.CLASS_ORDER.index(cls)]
    drows.extend([] for _ in range(kd + 1 - len(drows)))
    drows[kd].extend([0] * (m + 1 - len(drows[kd])))
    drows[kd][m] = change(drows[kd][m], packed.slots.width)
    return packed


def _plus_slot(j):
    return lambda v, width: v + (1 << j * width)


@pytest.mark.parametrize(
    "track, cls, kd, m, change, message",
    [
        # a two-nose shape needs two cells on its final diagonal
        pytest.param(False, NoseClass.TWO, 0, 1, _plus_slot(5), "below its minimum run", id="min-run"),
        pytest.param(True, NoseClass.TWO, 3, 1, _plus_slot(5), "below its minimum run", id="min-run-d"),
        # taking 1 from an empty slot borrows from the slot above it
        pytest.param(False, NoseClass.ONE, 0, 1, lambda v, w: v - 1, "negative", id="borrow"),
        pytest.param(True, NoseClass.ZERO, 3, 1, lambda v, w: v - (1 << 2 * w), "negative", id="borrow-d"),
        pytest.param(True, NoseClass.ONE, 4, 2, lambda v, w: -1, "negative", id="negative-d"),
        pytest.param(False, NoseClass.ONE, 0, 1, _plus_slot(2), "perimeter 4 below", id="perimeter"),
        pytest.param(True, NoseClass.ONE, 2, 1, _plus_slot(2), "perimeter 4 below", id="perimeter-d"),
        pytest.param(False, NoseClass.ZERO, 0, 3, _plus_slot(3), "final run 3 too long", id="run"),
        pytest.param(True, NoseClass.ZERO, 2, 3, _plus_slot(3), "final run 3 too long", id="run-d"),
        pytest.param(True, NoseClass.ONE, 4, 1, _plus_slot(4), "diagonal count 4", id="diagonals"),
        pytest.param(True, NoseClass.ZERO, 1, 1, _plus_slot(5), "diagonal count 1", id="one-diagonal"),
    ],
)
def test_each_invariant_fires_on_one_corrupted_slot(track, cls, kd, m, change, message):
    packed = _corrupted(track, cls, kd, m, change)
    with pytest.raises(InvariantError, match=message):
        check_invariants(packed)


@pytest.mark.parametrize("track_diagonals", [False, True])
def test_each_step_checks_its_new_row_and_catches_a_corrupted_slot(monkeypatch, track_diagonals):
    """Every delta is checked before the next step reads it, and a
    borrow planted in the delta of five-diagonal shapes stops ``solve``."""
    checked = []
    real_check, real_step = layered._check_counts, layered._linear_step

    def record(cls, kd, series, slots):
        checked.append(kd)
        real_check(cls, kd, series, slots)

    monkeypatch.setattr(layered, "_check_counts", record)
    monkeypatch.setattr(layered, "check_invariants", lambda packed: None)
    solve(16, track_diagonals)
    assert checked == [k if track_diagonals else 0 for k in range(2, 8) for _ in range(3)]

    def corrupting(delta, k, slots):
        two, one, zero = real_step(delta, k, slots)
        if k + 1 == 5:
            one = one + [0] * (2 - len(one))
            one[1] -= (one[1] & ((1 << slots.width) - 1)) + 1
        return two, one, zero

    checked.clear()
    monkeypatch.setattr(layered, "_linear_step", corrupting)
    with pytest.raises(InvariantError, match="negative"):
        solve(16, track_diagonals)
    assert checked[-1] == (5 if track_diagonals else 0)


def _check_counts_by_entry(cls, kd, series, slots):
    """The per-entry loop: the first offender in z-order, its minimum run
    tested before its sign and guard bits."""
    for m, v in enumerate(series):
        if v and m < layered.MIN_Z[cls]:
            raise InvariantError(
                "%s series has a z^%d term below its minimum run" % (cls.value, m)
            )
        if v < 0 or v & slots.guard:
            raise InvariantError(
                "a count at d^%d z^%d in %s is negative or overflows its slot"
                % (kd, m, cls.value)
            )


def _raised(check, *args):
    try:
        check(*args)
    except InvariantError as error:
        return str(error)
    return None


@pytest.mark.parametrize("fault", ["negative", "guard", "min-run"])
@pytest.mark.parametrize("cls", layered.CLASS_ORDER)
def test_one_pass_check_names_the_same_offender_as_the_entry_loop(cls, fault):
    """One kind of fault planted in a real delta, where it can, at two
    entries, raises the per-entry loop's message for the first offender."""
    slots = layered.Slots(24)
    delta = layered._linear_step(layered._linear_step(layered.LONE_CELL, 1, slots), 2, slots)
    clean = list(delta[layered.CLASS_ORDER.index(cls)])
    assert _raised(layered._check_counts, cls, 3, clean, slots) is None
    first = layered.MIN_Z[cls] + 1
    assert len(clean) > first + 1
    guard_bit = 1 << slots.width + layered._slot_bits(24)[0]
    # minus 2^(frame bits): negative, with the guard bits of every slot clear
    borrow = 1 << slots.width * len(slots.masks)
    plants = {
        "negative": [(first, lambda v: v - borrow), (first + 1, lambda v: v - borrow)],
        "guard": [(first, lambda v: v | guard_bit), (first + 1, lambda v: v | guard_bit)],
        "min-run": [(layered.MIN_Z[cls] - 1, lambda v: 1)],
    }[fault]
    series = list(clean)
    for m, change in plants:
        series[m] = change(series[m])
    message = _raised(_check_counts_by_entry, cls, 3, series, slots)
    assert message is not None
    assert _raised(layered._check_counts, cls, 3, series, slots) == message
    assert ("z^%d" % plants[0][0]) in message


@pytest.mark.parametrize("order", [16, 40, 200])
def test_unpack_by_halving_equals_the_shift_loop(order):
    """Ints with empty low, middle and top slots, one that fills the
    frame, and one-slot ints unpack as the slot-by-slot shift does."""
    slots = layered.Slots(order)
    width, n = slots.width, order // 2 + 1

    def shift_loop(v):
        out, kx = {}, 0
        while v:
            if v & (1 << width) - 1:
                out[kx] = v & (1 << width) - 1
            v >>= width
            kx += 2
        return out

    rng = random.Random(order)
    full = [rng.randrange(1, 1 << width - 1) for _ in range(n)]
    cases = [
        full,
        [0] * (n // 3) + full[n // 3:],
        full[: n // 3] + [0] * (n // 3) + full[2 * (n // 3):],
        full[: n // 2] + [0] * (n - n // 2),
        [0] * (n - 1) + [5],
        [7],
        [rng.choice((0, 0, 1, 2 ** 20)) for _ in range(n)],
    ]
    for slot_values in cases:
        v = sum(c << width * i for i, c in enumerate(slot_values))
        assert list(slots.unpack(v).items()) == list(shift_loop(v).items())
        assert slots.unpack(v) == {2 * i: c for i, c in enumerate(slot_values) if c}
    assert slots.unpack(0) == {}


def test_too_narrow_slot_raises_instead_of_wrapping(monkeypatch):
    monkeypatch.setattr(
        layered, "_slot_bits", lambda order: (12, 2 * (order + 4).bit_length())
    )
    for track_diagonals in (False, True):
        with pytest.raises(InvariantError, match="overflows its slot"):
            solve(40, track_diagonals)
    with pytest.raises(InvariantError, match="overflows its slot"):
        perimeter_counts(40)
    for by in ("noses", "diagonals"):
        with pytest.raises(InvariantError, match="overflows"):
            marginals(40, by)


def test_a_total_that_outgrows_its_slot_raises(monkeypatch):
    """At 60 every class coefficient fits in 64 bits but some totals do not."""
    monkeypatch.setattr(
        layered, "_slot_bits", lambda order: (64, 2 * (order + 4).bit_length())
    )
    solve(60, False)
    with pytest.raises(InvariantError, match="perimeter count overflows"):
        perimeter_counts(60)


@pytest.mark.parametrize("by, value_bits", [("noses", 63), ("diagonals", 61)])
def test_a_marginal_that_outgrows_its_slot_raises(monkeypatch, by, value_bits):
    """At 60 every class coefficient of the run fits in ``value_bits`` but
    some of the sums this marginal adds do not."""
    monkeypatch.setattr(
        layered, "_slot_bits", lambda order: (value_bits, 2 * (order + 4).bit_length())
    )
    layered.solve(60, by == "diagonals")
    with pytest.raises(InvariantError, match="perimeter count overflows"):
        marginals(60, by)


def test_a_sum_over_diagonals_that_outgrows_its_slot_raises(monkeypatch):
    """At 60 every delta fits in 61 bits but some of their sums with d
    collapsed do not, so only the check of the returned sum sees it."""
    monkeypatch.setattr(
        layered, "_slot_bits", lambda order: (61, 2 * (order + 4).bit_length())
    )
    solve(60, True)
    with pytest.raises(InvariantError, match="d\\^0 .* overflows its slot"):
        solve(60, False)


def test_value_bits_rest_on_a_contraction():
    """The bound stated in ``_slot_bits``, at x^2 = 1/8 and z = 4."""
    x2, z = Fraction(1, 8), Fraction(4)
    x4, x6, x8 = x2**2, x2**3, x2**4
    geo = 1 / (1 - x4 * z)
    tail1, tail2 = 1 / (z - 1), z / (z - 1) ** 2
    from_two = (
        x4 * z * geo**2
        + 2 * x2 * z * geo * tail1 + 2 * x6 * z * geo**2
        + tail2 + 2 * x4 * z * geo * tail1 + x8 * z * geo**2
    )
    from_one = (
        x4 * z * geo
        + x2 * z * geo * tail1 + x2 * z * tail1 + x6 * z * geo
        + tail2 + x4 * z * geo * tail1
    )
    from_zero = x4 * z + 2 * x2 * z * tail1 + tail2
    gain = max(from_two, from_one, from_zero)
    first = x8 * z**2 * geo + 2 * x6 * z * geo + x8 * z * geo
    assert (gain, first) == (Fraction(841, 900), Fraction(7, 320))
    assert first / (1 - gain) < Fraction(1, 2)
    for pe, count in perimeter_counts(200).items():
        assert count < 2 ** (3 * pe // 2) // 2


@pytest.mark.parametrize("order", [8, 40, 120])
def test_one_step_gain_fits_the_guard_bits(order):
    """With every input slot 1, each output slot is the step's total
    multiplicity; the input is the widest delta, two diagonals."""
    slots = layered.Slots(order)
    ones = [mask // ((1 << slots.width) - 1) for mask in slots.masks[2:]]
    delta = (ones, ones, ones)
    gains = [
        max(slots.unpack(v).values(), default=0)
        for series in layered._linear_step(delta, 2, slots)
        for v in series
    ]
    assert max(gains) < (order + 4) ** 2 <= 2 ** layered._slot_bits(order)[1]
