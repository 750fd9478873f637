"""Tests for the layered functional-equation solve.

The order-8 fixed point is small enough to verify against a census done
by hand: nine shapes have perimeter at most 8, and each lands in one
nose class with known diagonal and final-run statistics.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from reference_layered import add, empty_triple, rhs_step

import dcpoly
from dcpoly import brute, layered
from dcpoly.layered import (
    InvariantError,
    joint_table,
    marginals,
    perimeter_counts,
    two_nose_identity_residuals,
)

KNOWN_PREFIX = {4: 1, 6: 2, 8: 7, 10: 28, 12: 122, 14: 556, 16: 2618}


def slot_width(order):
    """W, the bits of one d-slot of the packed solve: the value and guard
    bits of ``_slot_bits`` and a sign bit, rounded up to 64 bits."""
    return -(-(sum(layered._slot_bits(order)) + 1) // 64) * 64


def unpacked(order, track_diagonals=True):
    """Each class of the packed solve as {(d_degree, x_degree, z_degree):
    coefficient}, every entry unpacked as it is yielded; d_degree 0 with d
    collapsed."""
    total = empty_triple()
    for n, rows, unpack in layered._packed(order):
        for terms, row in zip(total, rows):
            for m, v in enumerate(row):
                for k, c in unpack(v).items():
                    key = (k if track_diagonals else 0, 2 * n, m)
                    terms[key] = terms.get(key, 0) + c
    return total


def packed_classes(order, d=1):
    """The packed solve laid out as ``class_counts`` lays out its counts:
    each class's checked sum at each perimeter, its d-slots weighted by d^k."""
    out = {"none": {4: d}, **{cls: {} for cls in layered.CLASS_ORDER}}
    for n, rows, unpack in layered._packed(order):
        for cls, row in zip(layered.CLASS_ORDER, rows):
            if total := sum(c * d**k for k, c in unpack(sum(row)).items()):
                out[cls][2 * n] = total
    return out


# the readers of the packed solve, which see a fault planted in it
PACKED_READERS = {
    "diagonals": lambda order: marginals(order, "diagonals"),
    "joint": joint_table,
    "two-nose": two_nose_identity_residuals,
}

# every public reader; by perimeter and by noses they solve at d = 1
READERS = {
    "perimeter": perimeter_counts,
    "noses": lambda order: marginals(order, "noses"),
    **PACKED_READERS,
}


def perimeter_totals(classes):
    """Counts by perimeter of the single cell and every class term."""
    totals = {4: 1}
    for series in classes:
        for (_, kx, _), v in series.items():
            totals[kx] = totals.get(kx, 0) + v
    return totals


def test_fixed_point_at_order_eight_matches_hand_census():
    assert unpacked(8) == (
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
        (4, "none"): 1,
        (8, "two"): 1,
        (6, "one"): 2,
        (8, "one"): 4,
        (8, "zero"): 2,
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
        assert (nose == "none") == (di == 1)
        assert la >= 1 and pe >= 2 * di + 2


@pytest.mark.parametrize(
    "make_table, max_diagonals",
    [
        pytest.param(lambda: brute.generate(24), 11, id="generate-24"),
        pytest.param(lambda: joint_table(60), 29, id="joint-table-60"),
    ],
)
def test_perimeter_is_at_least_twice_diagonals_plus_final_run(make_table, max_diagonals):
    """The premise of the support the solve holds each row to (no d-degree
    past n - m at t^n z^m), read off finished tables: a shape with k
    diagonals and m cells on its final diagonal has perimeter at least
    2(k + m), and some shape reaches the bound at every k."""
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
        if cls != "none":
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


def test_iterates_grow_monotonically():
    """Restricted to d-degrees up to k, the packed solve equals the reference
    engine's iterate T^(k-1)(0), the shapes of 2..k diagonals, per d-row
    with d tracked and over every d-row with d collapsed; its counts grow
    with k, and at k = 16 // 2 - 1 the reference is at its fixed point."""
    solved = unpacked(16)
    for track_diagonals in (True, False):
        reference = empty_triple()
        counts = []
        for k in range(2, 8):
            reference = rhs_step(reference, 16, track_diagonals)
            upto = tuple(
                add(*({(kd if track_diagonals else 0, kx, m): v}
                      for (kd, kx, m), v in terms.items() if kd <= k))
                for terms in solved
            )
            assert upto == reference
            counts.append(perimeter_totals(upto))
        assert rhs_step(reference, 16, track_diagonals) == reference
        for earlier, later in zip(counts, counts[1:]):
            for pe, v in earlier.items():
                assert later.get(pe, 0) >= v


def test_solve_rejects_tiny_order():
    for read in (*READERS.values(), layered.class_counts):
        for order in (2, -3):
            with pytest.raises(ValueError, match="at least 4"):
                read(order)


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
    [(o, t) for o in (4, 5, 6, 7, 8, 16, 30) for t in (True, False)] + [(60, False)],
)
def test_solve_matches_naive_fixed_point(order, track_diagonals):
    """Every (d, x, z) entry of the packed solve against the dict-of-terms
    transfer of ``reference_layered``, transcribed on its own."""
    assert unpacked(order, track_diagonals) == naive_fixed_point(order, track_diagonals)


def test_perimeter_counts_sum_the_packed_classes():
    assert perimeter_counts(200) == perimeter_totals(unpacked(200, False))


def _planted_row(monkeypatch, cls, n, change):
    """Make the lower-degree part of class ``cls`` at t^n go through
    ``change(row, width)``, width W on the packed solve and 0 at d = 1.
    T2 adds to the zero-nose row afterwards, except from z^(n - 2) up."""
    real = layered._lower_terms

    def planted(which, window, degree, times):
        row = real(which, window, degree, times)
        if (which, degree) == (cls, n):
            change(row, times(1).bit_length() - 1)
        return row

    monkeypatch.setattr(layered, "_lower_terms", planted)


def _plant(monkeypatch, n, cls, m, change):
    """Make the z^m entry of class ``cls`` at t^n ``change(v, width)``."""
    def entry(row, width):
        row[m] = change(row[m], width)

    _planted_row(monkeypatch, cls, n, entry)


def _plus_slot(j):
    return lambda v, width: v + (1 << j * width)


def _borrow(j):
    """Take one more than slot j holds, so the slot borrows from above it;
    at d = 1, one more than the count."""
    def change(v, width):
        held = v >> j * width & (1 << width) - 1 if width else v
        return v - (held + 1 << j * width)

    return change


@pytest.mark.parametrize(
    "cls, n, m, change, message",
    [
        # the plain cases plant at a low degree, the "-d" cases at a later one
        # a two-nose shape needs two cells on its final diagonal
        pytest.param("two", 4, 1, _plus_slot(2), "x\\^8 z\\^1 in two is negative or outside",
                     id="min-run"),
        pytest.param("two", 7, 1, _plus_slot(5), "x\\^14 z\\^1 in two is negative or outside",
                     id="min-run-d"),
        pytest.param("one", 5, 1, _borrow(2), "x\\^10 d\\^2 z\\^1 in one is negative or overflows",
                     id="borrow"),
        pytest.param("one", 7, 2, _borrow(3), "x\\^14 d\\^3 z\\^2 in one is negative or overflows",
                     id="borrow-d"),
        pytest.param("one", 6, 2, lambda v, w: -1, "x\\^12 z\\^2 in one is negative or outside",
                     id="negative-d"),
        # a shape with 5 diagonals and 2 final cells has perimeter at least 14
        pytest.param("one", 6, 2, _plus_slot(5), "x\\^12 d\\^5 z\\^2 in one lies outside d\\^2..d\\^4",
                     id="floor-d"),
        # every shape the equation counts has at least two diagonals
        pytest.param("one", 5, 1, _plus_slot(1), "x\\^10 d\\^1 z\\^1 in one lies outside d\\^2..d\\^4",
                     id="one-diagonal"),
        # the row at t^5 has no entry past z^3
        pytest.param("zero", 5, 4, _plus_slot(3), "x\\^10 z\\^4 in zero is negative or outside",
                     id="past-end-d"),
    ],
)
def test_each_invariant_fires_on_one_corrupted_slot(monkeypatch, cls, n, m, change, message):
    """A fault planted in one entry of one row stops every reader of the
    packed solve.  The final-run and diagonal-count bounds of a finished
    table are read off the tables (see
    ``test_perimeter_is_at_least_twice_diagonals_plus_final_run``)."""
    _plant(monkeypatch, n, cls, m, change)
    for read in PACKED_READERS.values():
        with pytest.raises(InvariantError, match=message):
            read(16)


@pytest.mark.parametrize("track_diagonals", [False, True])
def test_each_step_checks_its_new_row_and_catches_a_corrupted_slot(monkeypatch, track_diagonals):
    """Every degree's rows are checked before the next degree is solved, at
    d = 1 by ``_check_row`` and on the packed solve by ``_check_slots`` too;
    the last degree, 16 // 2, is checked and solved no further; and a borrow
    planted at t^7 stops the run there."""
    read = READERS["diagonals" if track_diagonals else "perimeter"]
    events = []
    # the position of the degree n among each function's arguments
    for name, at in (("_lower_terms", 2), ("_check_row", 1), ("_check_slots", 1)):
        def record(*args, name=name, at=at, real=getattr(layered, name)):
            events.append((name, args[at]))
            return real(*args)

        monkeypatch.setattr(layered, name, record)
    read(16)
    checks = ["_lower_terms", "_check_row"] + ["_check_slots"] * track_diagonals
    assert events == [(name, n) for n in range(2, 9) for name in checks for _ in range(3)]

    events.clear()
    _plant(monkeypatch, 7, "one", 1, _borrow(5))
    with pytest.raises(InvariantError, match="negative"):
        read(16)
    assert events[-1] == (checks[-1], 7)


@pytest.mark.parametrize("read", READERS.values(), ids=READERS)
def test_every_reader_names_the_diagonal_count_of_a_bad_delta(monkeypatch, read):
    """Summed over d or not, an error names the perimeter and final run of
    a bad count, and with d kept its diagonal count too."""
    _plant(monkeypatch, 7, "one", 1, _borrow(5))
    with pytest.raises(InvariantError, match="x\\^14 (d\\^5 )?z\\^1 in one is negative") as error:
        read(16)
    assert ("d^5" in str(error.value)) == (read in PACKED_READERS.values())


def _check_by_entry(cls, n, row, order):
    """The rules of ``_check_row`` and then ``_check_slots``, entry by entry
    and slot by slot: no entry negative, below the minimum run or past
    z^(n - 2); no slot of v or more bits, the value bits of ``_slot_bits``;
    none nonzero outside d^2..d^(n - m) at z^m."""
    width, value = slot_width(order), layered._slot_bits(order)[0]
    for m, v in enumerate(row):
        if v < 0 or v and not layered.MIN_Z[cls] <= m < n - 1:
            raise InvariantError("a count at x^%d z^%d in %s is negative or outside its support"
                                 % (2 * n, m, cls))
    for m, v in enumerate(row):
        slots = []
        while v:
            slots.append(v & (1 << width) - 1)
            v >>= width
        for k, slot in enumerate(slots):
            if slot >> value:
                raise InvariantError("a count at x^%d d^%d z^%d in %s is negative or overflows"
                                     " its slot" % (2 * n, k, m, cls))
        for k, slot in enumerate(slots):
            if slot and not 2 <= k <= n - m:
                raise InvariantError("a count at x^%d d^%d z^%d in %s lies outside d^2..d^%d"
                                     % (2 * n, k, m, cls, n - m))


def _raised(check, *args):
    try:
        check(*args)
    except InvariantError as error:
        return str(error)
    return None


@pytest.mark.parametrize("fault", ["negative", "guard", "min-run", "floor", "past-end"])
@pytest.mark.parametrize("cls", layered.CLASS_ORDER)
def test_one_pass_check_names_the_same_offender_as_the_entry_loop(cls, fault):
    """One kind of fault planted in a real row, where it can, at two
    entries: the checks the packed solve runs, ``_check_row`` and then one
    pass of ``_check_slots`` over the entries, raise the entry-by-entry
    rules' message for the first offender."""
    order, n = 24, 12
    width, value = slot_width(order), layered._slot_bits(order)[0]
    guard = ((1 << width) - (1 << value)) * ((1 << width * (n + 1)) - 1) // ((1 << width) - 1)

    def checks(row):
        layered._check_row(cls, n, row, True)
        layered._check_slots(cls, n, row, width, guard)

    rows = next(rows for degree, rows, _ in layered._packed(order) if degree == n)
    clean = list(rows[layered.CLASS_ORDER.index(cls)])
    assert _raised(checks, clean) is None
    first = layered.MIN_Z[cls] + 1
    assert len(clean) > first + 1
    plants = {
        # minus 2^(bits of all n + 1 slots): negative
        "negative": [(m, lambda v: v - (1 << width * (n + 1))) for m in (first, first + 1)],
        # a guard bit of slot 2
        "guard": [(m, lambda v: v | 1 << 2 * width + value) for m in (first, first + 1)],
        "min-run": [(layered.MIN_Z[cls] - 1, lambda v: 1)],
        # the first slot past d^(n - m) at z^m
        "floor": [(m, lambda v, m=m: v | 1 << width * (n - m + 1)) for m in (first, first + 1)],
        # z^(n - 1), one past the support, and the entry past it
        "past-end": [(n - 1, lambda v: 1), (n, lambda v: 1)],
    }[fault]
    series = clean + [0] * (n + 1 - len(clean))
    for m, change in plants:
        series[m] = change(series[m])
    message = _raised(_check_by_entry, cls, n, series, order)
    assert message is not None
    assert _raised(checks, series) == message
    assert ("z^%d" % plants[0][0]) in message


@pytest.mark.parametrize("order", [16, 40, 200])
def test_unpack_by_halving_equals_the_shift_loop(order):
    """At the packed width, ints with empty low, middle and top slots, one
    that fills every slot, and one-slot ints unpack as the slot-by-slot
    shift does, slot k at d-degree k, in ascending degree."""
    width, value = slot_width(order), layered._slot_bits(order)[0]
    unpack = next(layered._packed(order))[2]
    n = order // 2 + 1

    def shift_loop(v):
        out, k = {}, 0
        while v:
            if v & (1 << width) - 1:
                out[k] = v & (1 << width) - 1
            v >>= width
            k += 1
        return out

    rng = random.Random(order)
    full = [rng.randrange(1, 1 << value) for _ in range(n)]
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
        assert list(unpack(v).items()) == list(shift_loop(v).items())
        assert unpack(v) == {i: c for i, c in enumerate(slot_values) if c}
    assert unpack(0) == {}


def test_too_narrow_slot_raises_instead_of_wrapping(monkeypatch):
    monkeypatch.setattr(
        layered, "_slot_bits", lambda order: (12, 2 * (order + 4).bit_length())
    )
    for read in PACKED_READERS.values():
        with pytest.raises(InvariantError, match="overflows its slot"):
            read(40)


def test_a_total_that_outgrows_its_slot_raises():
    """``unpack`` reads a sum whose slots stay below 2^v, the value bits,
    and raises on one that reaches it, in any slot."""
    value = layered._slot_bits(60)[0]
    width, unpack = slot_width(60), next(layered._packed(60))[2]
    assert unpack((1 << value) - 1 << 3 * width) == {3: (1 << value) - 1}
    for k in (0, 3, 60 // 2):
        with pytest.raises(InvariantError, match="perimeter count overflows"):
            unpack(1 << k * width + value)


@pytest.mark.parametrize("by, value_bits", [("noses", 63), ("diagonals", 61)])
def test_a_marginal_that_outgrows_its_slot_raises(monkeypatch, by, value_bits):
    """Every entry of the packed solve fits in ``value_bits``, at 62 for the
    sums by nose class that the two-nose residuals unpack and at 60 for
    the sums of all classes that the marginal by diagonals unpacks, so the
    joint table, which sums nothing, passes, but some of those sums do not."""
    order, read = {"noses": (62, two_nose_identity_residuals),
                   "diagonals": (60, PACKED_READERS["diagonals"])}[by]
    monkeypatch.setattr(
        layered, "_slot_bits", lambda order: (value_bits, 2 * (order + 4).bit_length())
    )
    joint_table(order)
    with pytest.raises(InvariantError, match="perimeter count overflows"):
        read(order)


def test_a_slot_past_the_value_bits_raises_below_the_cap(monkeypatch):
    """A slot planted at 2^v, past the value bits but below the slot's top
    bit, stops the run at the entry it was planted in, before a later
    degree reads it."""
    value = layered._slot_bits(60)[0]
    _plant(monkeypatch, 4, "one", 1, lambda v, width: v + (1 << 2 * width + value))
    with pytest.raises(InvariantError, match="x\\^8 d\\^2 z\\^1 in one is negative or overflows"):
        marginals(60, "diagonals")


PEAK_RSS = """
import resource, sys
from dcpoly import layered
layered.marginals(400, "diagonals")
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(peak // 1024 if sys.platform == "darwin" else peak)
"""


def test_diagonals_marginal_at_400_runs_in_bounded_memory():
    """The packed solve keeps the rows of only the four degrees below the
    one it solves, and of those only the rows a later degree reads, not A,
    B or T1A; the run by diagonals keeps one checked sum per degree.  So a
    fresh process peaks under 100 MB at perimeter 400, where each row of
    the top degree holds about 200 ints of up to 200 slots of 640 bits."""
    env = dict(os.environ)
    src = str(Path(dcpoly.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS], env=env, capture_output=True, text=True, check=True
    )
    assert int(proc.stdout) < 100 * 1024  # ru_maxrss in KiB


def _recording_window(monkeypatch, seen):
    """Record (n - 1, row) for every row of degree n - 1 the solve keeps,
    T1 rows and K products among them, as degree n reads its window."""
    real = layered._lower_terms

    def lower(cls, window, n, times):
        if cls == layered.CLASS_ORDER[0]:
            seen.extend((n - 1, row) for row in window[-1].values())
        return real(cls, window, n, times)

    monkeypatch.setattr(layered, "_lower_terms", lower)


def test_value_bits_rest_on_a_contraction(monkeypatch):
    """The bound stated in ``_slot_bits``, at x^2 = 1/8 and z = 4, holds the
    counts through 200 and every T1 row and K product the solve keeps: an
    entry at t^n is below 2^(3n), at d = 1 as each of its d-slots is."""
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
    seen = []
    _recording_window(monkeypatch, seen)
    for pe, count in perimeter_counts(200).items():
        assert count < 2 ** (3 * pe // 2) // 2
    assert {n for n, _ in seen} == set(range(2, 200 // 2))
    assert all(v < 2 ** (3 * n) for n, row in seen for v in row)


@pytest.mark.parametrize("order", [8, 40, 120])
def test_one_step_gain_fits_the_guard_bits(monkeypatch, order):
    """With every checked entry 1 at d = 1, each entry of an intermediate
    counts the entries it sums, at least the multiplicity of each of its
    d-slots: the T1 rows and K products a degree reads, the sum of its
    lower-degree terms, and T2's 3 (j - m) for each of A, B, C at z^j,
    j > m, of the degree itself.  They add up to less than (order + 4)^2."""
    seen, widest = [], []
    _recording_window(monkeypatch, seen)
    real = layered._lower_terms

    def lower(cls, window, n, times):
        out = real(cls, window, n, times)
        widest.append(max(out) + (3 * (n - 1) * (n - 2) // 2 if cls == "zero" else 0))
        return out

    monkeypatch.setattr(layered, "_lower_terms", lower)
    for n, rows in layered._solve(order, lambda v: v):
        for cls, row in zip(layered.CLASS_ORDER, rows):
            row[:] = [int(layered.MIN_Z[cls] <= m <= n - 2) for m in range(n)]
    widest += [v for _, row in seen for v in row]
    assert max(widest) < (order + 4) ** 2 <= 2 ** layered._slot_bits(order)[1]


@pytest.mark.parametrize("order", [5, 17, 41, 61])
def test_every_reader_at_an_odd_order_reads_the_order_below(order):
    """The solve runs through t^(order // 2), so at an odd order each reader
    returns what it returns at order - 1, key for key and in the same order."""
    for name, read in READERS.items():
        assert repr(read(order)) == repr(read(order - 1)), name


@pytest.mark.parametrize("order", [8, 40, 64, 160, 200])
def test_value_bits_stop_at_the_bound(order):
    """A slot of the packed solve has W bits, a multiple of 64 with room for
    the value bits, the bound of ``_slot_bits``, the guard bits and a sign
    bit: ``unpack`` reads slot k as d^k up to the value bits and raises at
    them, and a slot may reach W - 1 bits below the next."""
    value, guard_bits = layered._slot_bits(order)
    width = slot_width(order)
    assert width % 64 == 0 and value + guard_bits + 1 <= width < value + guard_bits + 65
    unpack = next(layered._packed(order))[2]
    assert unpack((1 << value) - 1 << width) == {1: (1 << value) - 1}
    with pytest.raises(InvariantError, match="overflows"):
        unpack(1 << width + value)
    with pytest.raises(InvariantError, match="overflows"):
        unpack((1 << width - 1) << width)


@pytest.mark.parametrize("order", list(range(4, 65)) + [160, 200])
def test_stream_runs_over_the_layers_within_the_order(order):
    """The packed solve's stream of rows runs over t^n for n = 2..N,
    N = order // 2; a shape with k diagonals has perimeter at least
    2(k + 1), and at t^n the rows hold exactly the d-degrees 2..n - 1,
    each with some shape."""
    degrees = [(n, sorted(unpack(sum(map(sum, rows))))) for n, rows, unpack in
               layered._packed(order)]
    assert degrees == [(n, list(range(2, n))) for n in range(2, order // 2 + 1)]


@pytest.mark.parametrize("order", [4, 5, 6, 7])
def test_the_shortest_streams_equal_the_reference(order):
    """Below perimeter 8 the packed solve has no shape (orders 4 and 5) or
    only the two-diagonal shapes (6 and 7), and the readers equal the
    reference transfer."""
    assert any(map(any, unpacked(order))) == (order >= 6)
    for track_diagonals in (True, False):
        reference = naive_fixed_point(order, track_diagonals)
        assert unpacked(order, track_diagonals) == reference
    assert perimeter_counts(order) == perimeter_totals(reference)
    assert joint_table(order).project("perimeter", "diagonals") == marginals(order, "diagonals")


@pytest.mark.parametrize("order", list(range(4, 65)) + [160, 400])
def test_the_fixed_d_solve_equals_the_stream_at_d_one(order):
    """By class, by noses and by perimeter, key for key and in the same key
    order, the solve at d = 1 equals the packed solve's stream of rows with
    the d-slots of each class summed."""
    packed = packed_classes(order)
    assert repr(layered.class_counts(order)) == repr(packed)
    by_nose = {(kx, cls): v for cls, counts in packed.items() for kx, v in counts.items()}
    assert list(marginals(order, "noses").items()) == list(by_nose.items())
    assert list(perimeter_counts(order).items()) == [
        (kx, sum(counts.get(kx, 0) for counts in packed.values()))
        for kx in range(4, order + 1, 2)
    ]


def weighted_by_diagonals(order, d):
    """{perimeter: count} of marginals by diagonals, each count times d^k."""
    totals = {}
    for (kx, k), v in marginals(order, "diagonals").items():
        totals[kx] = totals.get(kx, 0) + v * d**k
    return totals


@pytest.mark.parametrize("d", [2, Fraction(1, 2), -1, Fraction(5, 3)], ids=str)
def test_the_fixed_d_solve_equals_the_weighted_stream(d):
    """Through 120, each class at d equals the packed solve's d-slots of
    that class weighted by d^k, and the totals weight marginals by
    diagonals."""
    assert layered.class_counts(120, d) == packed_classes(120, d)
    assert perimeter_counts(120, d) == weighted_by_diagonals(120, d)


BUMPS = [("constant", cls) for cls in layered.CLASS_ORDER] + [
    (cls, i) for cls in layered.CLASS_ORDER for i in range(len(layered._EQUATION[cls]))
]


@pytest.mark.parametrize("table, key", BUMPS, ids=["%s-%s" % bump for bump in BUMPS])
def test_every_transcribed_term_plus_one_raises_or_breaks_equality(monkeypatch, table, key):
    """Each class's constant term, and each of its terms, with its
    coefficient plus 1, either stops the solve or moves a count through 40."""
    expected = marginals(40, "noses")
    if table == "constant":
        c, a, b = layered._CONSTANT[key]
        monkeypatch.setitem(layered._CONSTANT, key, (c + 1, a, b))
    else:
        terms = list(layered._EQUATION[table])
        c, power, name = terms[key]
        terms[key] = (c + 1, power, name)
        monkeypatch.setitem(layered._EQUATION, table, tuple(terms))
    try:
        counts = marginals(40, "noses")
    except InvariantError:
        return
    assert counts != expected


def _add(m, v):
    def change(row, width):
        row[m] += v
    return change


@pytest.mark.parametrize("cls", layered.CLASS_ORDER)
@pytest.mark.parametrize(
    "change, message",
    [
        # at t^9 the support ends at z^7, and z^8 is one past it
        pytest.param(_add(8, 1), "x\\^18 z\\^8 in %s", id="past-support"),
        # T2 carries a negative zero-nose count down to z^1
        pytest.param(_add(3, -10**9), "x\\^18 z\\^[13] in %s", id="negative"),
    ],
)
def test_a_planted_count_stops_the_fixed_d_solve(monkeypatch, cls, change, message):
    """A count planted at t^9 one past the support, z^(n - 1), or a
    negative one at d = 1, stops every reader of the solve."""
    _planted_row(monkeypatch, cls, 9, change)
    for read in (perimeter_counts, lambda order: marginals(order, "noses")):
        with pytest.raises(InvariantError, match=message % cls + " is negative or outside"):
            read(24)


def test_a_planted_two_nose_run_of_one_cell_stops_the_solve(monkeypatch):
    _planted_row(monkeypatch, "two", 9, _add(1, 1))
    with pytest.raises(InvariantError, match="x\\^18 z\\^1 in two is negative or outside"):
        perimeter_counts(24)


def test_a_negative_count_passes_at_a_negative_d(monkeypatch):
    """Below d = 0 the weighted counts may be negative, so only the support
    is held; the planted count then moves the totals."""
    expected = weighted_by_diagonals(24, -1)
    _planted_row(monkeypatch, "one", 9, _add(3, -10**9))
    assert perimeter_counts(24, -1) != expected


def test_the_solve_keeps_four_earlier_degrees_of_rows(monkeypatch):
    """Beside the degree being solved, the window holds the rows of the
    four below it, and every read of a lower degree lands in it: no term
    reads further back than t^4."""
    assert max(power for terms in layered._EQUATION.values() for _, power, _ in terms) == 4
    real = layered._lower_terms
    sizes = []

    def seen(cls, window, n, times):
        sizes.append(len(window))
        return real(cls, window, n, times)

    monkeypatch.setattr(layered, "_lower_terms", seen)
    perimeter_counts(40)
    assert set(sizes) == {4}
