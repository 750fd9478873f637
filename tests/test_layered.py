"""Tests for the layered fixed-point iteration.

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


def delta_terms(k, delta, slots, track_diagonals=True):
    """Each class of delta_k as {(d_degree, x_degree, z_degree): coefficient},
    d_degree k, or 0 with d collapsed; every entry of every delta stands on
    the same top-anchored slots, at the width the stream has when it yields
    the delta."""
    kd = k if track_diagonals else 0
    return tuple(
        {
            (kd, kx, m): c
            for m, v in enumerate(series)
            for kx, c in slots.unpack(v).items()
        }
        for series in delta
    )


def unpacked(order, track_diagonals=True):
    """Each class of the fixed point, the delta stream summed over k, each
    delta unpacked as it is yielded."""
    slots = layered.Slots(order)
    total = empty_triple()
    for k, delta in layered._deltas(slots):
        for terms, new in zip(total, delta_terms(k, delta, slots, track_diagonals)):
            for key, c in new.items():
                terms[key] = terms.get(key, 0) + c
    return total


def stream_fold(group):
    """The delta stream summed by ``group(k, cls)``, as ``_grouped`` sums it."""
    return lambda order: layered._grouped(order, group)


# the readers that run the delta stream, and so see a fault planted in it;
# "perimeter" and "noses" fold it over every diagonal count, the widest sums
# _grouped is asked for (verify's fixedd suite reads the fold by noses)
STREAM_READERS = {
    "perimeter": stream_fold(lambda k, cls: None),
    "noses": stream_fold(lambda k, cls: cls),
    "diagonals": lambda order: marginals(order, "diagonals"),
    "joint": joint_table,
    "two-nose": two_nose_identity_residuals,
}

# every public reader; by perimeter and by noses they solve at fixed d
READERS = {
    **STREAM_READERS,
    "perimeter": perimeter_counts,
    "noses": lambda order: marginals(order, "noses"),
}

# the public readers and the two stream folds they do not cover
ALL_READERS = {
    **READERS,
    "stream-perimeter": STREAM_READERS["perimeter"],
    "stream-noses": STREAM_READERS["noses"],
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
    """The premise of the steps' loop bound (delta_k has no entry past
    z^(order/2 - k)), read off finished tables: a shape with k diagonals and
    m cells on its final diagonal has perimeter at least 2(k + m), and some
    shape reaches the bound at every k."""
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


def test_iterates_grow_monotonically(monkeypatch):
    """Summed through each k, the delta stream equals the reference
    engine's iterate T^(k-1)(0), per d-row with d tracked and over every
    d-row with d collapsed, the first step, from the lone cell, gives
    T(0), and the last delta, of N - 1 diagonals, leaves the reference
    at its fixed point."""
    seen = []
    real_step = layered._linear_step

    def record(delta, k, slots):
        seen.append((k, delta))
        return real_step(delta, k, slots)

    monkeypatch.setattr(layered, "_linear_step", record)
    slots = layered.Slots(16)
    deltas = list(layered._deltas(slots))
    # the lone cell and one delta per diagonal count 2..6, which steps to
    # the last, of 7 = 16 // 2 - 1 diagonals; the stream runs at its widest
    # width from the start, where the value bits reach the bound, so every
    # delta unpacks at the width the run ends with
    assert [k for k, _ in seen] == [1, 2, 3, 4, 5, 6]
    assert slots.value_bits == slots.bound
    # x^4 = t^2 of the lone cell stands at slot 16 // 2 - 2
    assert seen[0][1] == ([], [0, 1 << slots.width * (16 // 2 - 2)], [])
    # its output is delta_2, so the first comparison below checks it
    # against the reference's two-diagonal iterate T(0)
    assert [k for k, _ in deltas] == [2, 3, 4, 5, 6, 7]
    for track_diagonals in (True, False):
        partial = empty_triple()
        reference = empty_triple()
        counts = []
        for k, delta in deltas:
            new = delta_terms(k, delta, slots, track_diagonals)
            partial = tuple(map(add, partial, new))
            reference = rhs_step(reference, 16, track_diagonals)
            assert partial == reference
            counts.append(perimeter_totals(partial))
        assert rhs_step(reference, 16, track_diagonals) == reference
        for earlier, later in zip(counts, counts[1:]):
            for pe, v in earlier.items():
                assert later.get(pe, 0) >= v


def test_solve_rejects_tiny_order():
    for read in ALL_READERS.values():
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
    assert unpacked(order, track_diagonals) == naive_fixed_point(order, track_diagonals)


def test_perimeter_counts_sum_the_packed_classes():
    assert perimeter_counts(200) == perimeter_totals(unpacked(200, False))


def _plant(monkeypatch, target, cls, m, change):
    """Make the step that yields delta_``target`` change its ``cls`` entry
    z^m by ``change(v, width)`` before handing it on."""
    real_step = layered._linear_step
    c = layered.CLASS_ORDER.index(cls)

    def corrupting(delta, k, slots):
        out = list(real_step(delta, k, slots))
        if k + 1 == target:
            series = out[c] + [0] * (m + 1 - len(out[c]))
            series[m] = change(series[m], slots.width)
            out[c] = series
        return tuple(out)

    monkeypatch.setattr(layered, "_linear_step", corrupting)


def _plus_slot(j):
    return lambda v, width: v + (1 << j * width)


def _borrow(j):
    """Take one more than slot j holds, so the slot borrows from above it."""
    return lambda v, width: v - ((v >> j * width & (1 << width) - 1) + 1 << j * width)


@pytest.mark.parametrize(
    "cls, k, m, change, message",
    [
        # the plain cases plant into delta_2, the first step's output, and
        # the "-d" cases into a later delta
        # a two-nose shape needs two cells on its final diagonal
        pytest.param("two", 2, 1, _plus_slot(5), "two series has a z\\^1 term below", id="min-run"),
        pytest.param("two", 3, 1, _plus_slot(5), "two series has a z\\^1 term below", id="min-run-d"),
        pytest.param("one", 2, 1, _borrow(0), "d\\^2 z\\^1 in one is negative", id="borrow"),
        pytest.param("zero", 3, 1, _borrow(2), "d\\^3 z\\^1 in zero is negative", id="borrow-d"),
        pytest.param("one", 4, 2, lambda v, w: -1, "d\\^4 z\\^2 in one is negative", id="negative-d"),
        # a shape with 4 diagonals and 2 final cells has perimeter at least
        # 12, and at order 16 slot 3 holds perimeter 10
        pytest.param(
            "one", 4, 2, _plus_slot(3), "d\\^4 z\\^2 in one lies below perimeter 12", id="floor-d"
        ),
        # delta_3 has no entry past z^(16 // 2 - 3)
        pytest.param(
            "zero", 3, 6, _plus_slot(0), "d\\^3 z\\^6 in zero lies below perimeter 18",
            id="past-end-d",
        ),
    ],
)
def test_each_invariant_fires_on_one_corrupted_slot(monkeypatch, cls, k, m, change, message):
    """A fault planted in one entry of one delta stops every reader.  The
    final-run and diagonal-count bounds of a finished table are read off
    the tables (see ``test_perimeter_is_at_least_twice_diagonals_plus_final_run``)."""
    _plant(monkeypatch, k, cls, m, change)
    for read in STREAM_READERS.values():
        with pytest.raises(InvariantError, match=message):
            read(16)


@pytest.mark.parametrize("track_diagonals", [False, True])
def test_each_step_checks_its_new_row_and_catches_a_corrupted_slot(monkeypatch, track_diagonals):
    """Every delta is checked, with its diagonal count, before the next
    step reads it, on the run folded by perimeter as on the run by
    diagonals; the last delta, of 16 // 2 - 1 diagonals, is checked and
    stepped no further; and a borrow planted in the delta of five-diagonal
    shapes stops the run."""
    read = STREAM_READERS["diagonals" if track_diagonals else "perimeter"]
    events = []
    real_check, real_step = layered._check_counts, layered._linear_step

    def check(cls, kd, series, slots):
        events.append(("check", kd))
        real_check(cls, kd, series, slots)

    def step(delta, k, slots):
        events.append(("step", k))
        return real_step(delta, k, slots)

    monkeypatch.setattr(layered, "_check_counts", check)
    monkeypatch.setattr(layered, "_linear_step", step)
    read(16)
    assert events == [
        event for k in range(2, 8) for event in [("step", k - 1)] + [("check", k)] * 3
    ]

    events.clear()
    _plant(monkeypatch, 5, "one", 1, _borrow(0))
    with pytest.raises(InvariantError, match="negative"):
        read(16)
    assert events[-1] == ("check", 5)


@pytest.mark.parametrize("read", STREAM_READERS.values(), ids=STREAM_READERS)
def test_every_reader_names_the_diagonal_count_of_a_bad_delta(monkeypatch, read):
    """Summed over d or not, an error names the delta a fault sits in."""
    _plant(monkeypatch, 5, "one", 1, _borrow(0))
    with pytest.raises(InvariantError, match="d\\^5 z\\^1 in one is negative"):
        read(16)


def _check_counts_by_entry(cls, kd, series, slots):
    """The per-entry loop: the first offender in z-order, its minimum run
    tested before its sign and guard bits, and these before its support:
    a shape with kd diagonals and m cells on its final diagonal has
    perimeter at least 2(kd + m), so no slot past order // 2 - kd - m."""
    for m, v in enumerate(series):
        if v and m < layered.MIN_Z[cls]:
            raise InvariantError(
                "%s series has a z^%d term below its minimum run" % (cls, m)
            )
        if v < 0 or v & slots.guard:
            raise InvariantError(
                "a count at d^%d z^%d in %s is negative or overflows its slot"
                % (kd, m, cls)
            )
        if v and v.bit_length() > slots.width * (slots.top - kd - m + 1):
            raise InvariantError(
                "a count at d^%d z^%d in %s lies below perimeter %d"
                % (kd, m, cls, 2 * (kd + m))
            )


def _raised(check, *args):
    try:
        check(*args)
    except InvariantError as error:
        return str(error)
    return None


@pytest.mark.parametrize("fault", ["negative", "guard", "min-run", "floor", "past-end"])
@pytest.mark.parametrize("cls", layered.CLASS_ORDER)
def test_one_pass_check_names_the_same_offender_as_the_entry_loop(cls, fault):
    """One kind of fault planted in a real delta, where it can, at two
    entries, raises the per-entry loop's message for the first offender."""
    slots = layered.Slots(24)
    lone_cell = ([], [0, 1 << slots.width * (24 // 2 - 2)], [])
    delta = layered._linear_step(layered._linear_step(lone_cell, 1, slots), 2, slots)
    clean = list(delta[layered.CLASS_ORDER.index(cls)])
    assert _raised(layered._check_counts, cls, 3, clean, slots) is None
    first = layered.MIN_Z[cls] + 1
    assert len(clean) > first + 1
    # at 24 the stream starts at its widest width, where the value bits
    # reach the bound of _slot_bits and the guard begins at them
    assert slots.value_bits == slots.bound
    guard_bit = 1 << slots.width + layered._slot_bits(24)[0]
    # minus 2^(bits of all 24 // 2 + 1 slots): negative, with the guard bits
    # of every slot clear
    borrow = 1 << slots.width * (24 // 2 + 1)

    # the lowest slot past the support of entry m of delta_3, at perimeter
    # 2(3 + m) - 2, and the first entry past z^(24 // 2 - 3)
    def floor(m):
        return lambda v: v | 1 << slots.width * (24 // 2 - 3 - m + 1)

    end = 24 // 2 - 3 + 1
    plants = {
        "negative": [(first, lambda v: v - borrow), (first + 1, lambda v: v - borrow)],
        "guard": [(first, lambda v: v | guard_bit), (first + 1, lambda v: v | guard_bit)],
        "min-run": [(layered.MIN_Z[cls] - 1, lambda v: 1)],
        "floor": [(first, floor(first)), (first + 1, floor(first + 1))],
        "past-end": [(end, lambda v: 1), (end + 1, lambda v: 1)],
    }[fault]
    series = clean + [0] * (end + 2 - len(clean))
    for m, change in plants:
        series[m] = change(series[m])
    message = _raised(_check_counts_by_entry, cls, 3, series, slots)
    assert message is not None
    assert _raised(layered._check_counts, cls, 3, series, slots) == message
    assert ("z^%d" % plants[0][0]) in message


def widths(slots):
    """Lay ``slots`` out at each width its stream may use, narrowest first:
    it widens only while the value bits are below the bound."""
    yield slots.width
    while slots.value_bits < slots.bound:
        slots.widen()
        yield slots.width


@pytest.mark.parametrize("order", [16, 40, 200])
def test_unpack_by_halving_equals_the_shift_loop(order):
    """At every width of the stream, ints with empty low, middle and top
    slots, one that fills every slot, and one-slot ints unpack as the
    slot-by-slot shift does, slot s at x-degree 2(order // 2 - s), in
    ascending degree."""
    slots = layered.Slots(order)
    n = order // 2 + 1
    for width in widths(slots):

        def shift_loop(v):
            out, kx = {}, 2 * (n - 1)
            while v:
                if v & (1 << width) - 1:
                    out[kx] = v & (1 << width) - 1
                v >>= width
                kx -= 2
            return dict(reversed(out.items()))

        rng = random.Random(order + width)
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
            assert slots.unpack(v) == {2 * (n - 1 - i): c for i, c in enumerate(slot_values) if c}
        assert slots.unpack(0) == {}


def test_too_narrow_slot_raises_instead_of_wrapping(monkeypatch):
    monkeypatch.setattr(
        layered, "_slot_bits", lambda order: (12, 2 * (order + 4).bit_length())
    )
    for read in STREAM_READERS.values():
        with pytest.raises(InvariantError, match="is negative or overflows its slot"):
            read(40)


def test_a_total_that_outgrows_its_slot_raises(monkeypatch):
    """At 60 every class coefficient fits in 64 bits but some totals of
    the stream folded by perimeter do not."""
    monkeypatch.setattr(
        layered, "_slot_bits", lambda order: (64, 2 * (order + 4).bit_length())
    )
    joint_table(60)
    with pytest.raises(InvariantError, match="perimeter count overflows"):
        STREAM_READERS["perimeter"](60)


@pytest.mark.parametrize("by, value_bits", [("noses", 63), ("diagonals", 61)])
def test_a_marginal_that_outgrows_its_slot_raises(monkeypatch, by, value_bits):
    """At 60 every class coefficient of the run fits in ``value_bits`` but
    some of the sums of the stream folded by this marginal do not."""
    monkeypatch.setattr(
        layered, "_slot_bits", lambda order: (value_bits, 2 * (order + 4).bit_length())
    )
    joint_table(60)
    with pytest.raises(InvariantError, match="perimeter count overflows"):
        STREAM_READERS[by](60)


def test_a_sum_over_diagonals_that_outgrows_its_slot_raises(monkeypatch):
    """At 60 every delta entry fits in 61 bits, so the joint table, which
    sums nothing, passes, but some sums over the diagonal count do not,
    and the guard check of the perimeter sum sees it."""
    monkeypatch.setattr(
        layered, "_slot_bits", lambda order: (61, 2 * (order + 4).bit_length())
    )
    joint_table(60)
    with pytest.raises(InvariantError, match="perimeter count overflows"):
        STREAM_READERS["perimeter"](60)


PEAK_RSS = """
import resource, sys
from dcpoly import layered
layered.marginals(400, "diagonals")
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(peak // 1024 if sys.platform == "darwin" else peak)
"""


def test_diagonals_marginal_at_400_runs_in_bounded_memory():
    """Each reader folds each delta as it comes, so the run by diagonals
    keeps one int per d-row, not one per (class, d-row, z): a fresh
    process peaks under 100 MB at perimeter 400."""
    env = dict(os.environ)
    src = str(Path(dcpoly.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS], env=env, capture_output=True, text=True, check=True
    )
    assert int(proc.stdout) < 100 * 1024  # ru_maxrss in KiB


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
    multiplicity; the input is the widest delta, two diagonals, with every
    slot its z^m entry may fill (degrees 2(2 + m) and up) set, at the
    narrowest width the stream uses."""
    slots = layered.Slots(order)
    top, width = order // 2, slots.width
    assert slots.value_bits < slots.bound or order == 8

    def ones(count):
        return ((1 << width * count) - 1) // ((1 << width) - 1)

    entries = [ones(top - 2 - m + 1) for m in range(top - 1)]
    assert slots.unpack(entries[0]) == {kx: 1 for kx in range(4, 2 * top + 1, 2)}
    delta = (entries, entries, entries)
    gains = [
        max(slots.unpack(v).values(), default=0)
        for series in layered._linear_step(delta, 2, slots)
        for v in series
    ]
    assert max(gains) < (order + 4) ** 2 <= 2 ** layered._slot_bits(order)[1]


@pytest.mark.parametrize("order", [5, 17, 41, 61])
def test_every_reader_at_an_odd_order_reads_the_order_below(order):
    """The slots are anchored at x^(2 (order // 2)), so at an odd order each
    reader returns what it returns at order - 1, key for key and in the
    same order; so does the fixed-d solve, which reads t^(order // 2)."""
    for name, read in ALL_READERS.items():
        assert repr(read(order)) == repr(read(order - 1)), name


def test_stream_widens_from_below_the_cap_and_each_delta_fits_its_width():
    """At 160 the stream starts with value bits below the bound and widens
    at least once, each time by a multiple of STEP bits and only from value
    bits below the bound, and every yielded delta's slots lie below the
    value bits of the width it is yielded at."""
    slots = layered.Slots(160)
    seen = [(slots.width, slots.value_bits)]
    for _, delta in layered._deltas(slots):
        if slots.width != seen[-1][0]:
            seen.append((slots.width, slots.value_bits))
        for series in delta:
            for v in series:
                assert max(slots.unpack(v).values(), default=0) < 1 << slots.value_bits
    assert len(seen) > 1
    assert seen == sorted(seen)
    assert all(width % layered.STEP == 0 for width, _ in seen)
    assert all(value_bits < slots.bound for _, value_bits in seen[:-1])


@pytest.mark.parametrize("order", [8, 40, 64, 160, 200])
def test_value_bits_stop_at_the_bound(order):
    """Each width's value bits leave room for the guard bits and a sign bit
    and reach no further than the bound.  Once they reach it, the spill and
    guard masks are one, so a slot that would ask for a wider slot trips
    the guard instead, and the slots widen no further."""
    slots = layered.Slots(order)
    for width in widths(slots):
        assert slots.value_bits + slots.guard_bits + 1 <= width
        assert slots.value_bits <= slots.bound
        assert slots.spill & slots.guard == slots.guard
        assert (slots.spill == slots.guard) == (slots.value_bits == slots.bound)


@pytest.mark.parametrize(
    "order, width", [(40, 64), (64, 128), (160, 256), (200, 256), (320, 448)]
)
def test_the_stream_ends_at_the_widths_it_needs(order, width):
    """The widths the stream ends at: at 64 the value bits reach the bound,
    and elsewhere the counts stop the widening below it."""
    slots = layered.Slots(order)
    for _ in layered._deltas(slots):
        pass
    assert slots.width == width


def _counted_steps(monkeypatch):
    calls = []
    real_step = layered._linear_step

    def counted(delta, k, slots):
        calls.append(k)
        return real_step(delta, k, slots)

    monkeypatch.setattr(layered, "_linear_step", counted)
    return calls


@pytest.mark.parametrize("order", list(range(4, 65)) + [160, 200])
def test_stream_runs_over_the_layers_within_the_order(monkeypatch, order):
    """A shape with k diagonals has perimeter at least 2(k + 1), so the
    stream yields exactly delta_k for k = 2..N - 1, N = order // 2, each
    with some shape, from max(N - 2, 0) steps, the first from the lone cell."""
    calls = _counted_steps(monkeypatch)
    top = order // 2
    deltas = list(layered._deltas(layered.Slots(order)))
    assert [k for k, _ in deltas] == list(range(2, top))
    assert all(any(delta) for _, delta in deltas)
    assert calls == list(range(1, top - 1))
    assert len(calls) == max(top - 2, 0)


@pytest.mark.parametrize("order", [4, 5, 6, 7])
def test_the_shortest_streams_equal_the_reference(order):
    """Below perimeter 8 the stream has no delta (orders 4 and 5) or only
    delta_2 (6 and 7), and the readers equal the reference transfer."""
    assert len(list(layered._deltas(layered.Slots(order)))) == (order >= 6)
    for track_diagonals in (True, False):
        reference = naive_fixed_point(order, track_diagonals)
        assert unpacked(order, track_diagonals) == reference
    assert perimeter_counts(order) == perimeter_totals(reference)
    assert joint_table(order).project("perimeter", "diagonals") == marginals(order, "diagonals")


def _first_widening(order):
    slots = layered.Slots(order)
    start = slots.width
    return next(k for k, _ in layered._deltas(slots) if slots.width != start)


@pytest.mark.parametrize("cls", layered.CLASS_ORDER)
@pytest.mark.parametrize("after", [0, 1])
def test_a_corrupted_slot_at_a_widening_raises(monkeypatch, after, cls):
    """A borrow planted in any class of the delta that makes the stream
    widen (checked at the old width, where it sets a slot's sign bit, even
    when another class spills) or of the first delta computed at the new
    width stops the run as anywhere else.  At 200 the first widening comes
    from the one-nose class, so the zero-nose class is checked after a spill."""
    k = _first_widening(200) + after
    _plant(monkeypatch, k, cls, 2, _borrow(0))
    with pytest.raises(InvariantError, match="d\\^%d z\\^2 in %s is negative" % (k, cls)):
        marginals(200, "diagonals")


def test_repack_keeps_every_slot():
    """Widened, an int unpacks to the same slots, in every width step of
    the stream at 200."""
    slots = layered.Slots(200)
    rng = random.Random(200)
    old = slots.width
    while slots.value_bits < slots.bound:
        v = sum(rng.randrange(1 << slots.value_bits) << old * i for i in range(rng.randint(0, 101)))
        before = slots.unpack(v)
        slots.widen()
        assert slots.unpack(layered._repack(v, old, slots.width)) == before
        old = slots.width


def test_a_slot_past_the_value_bits_raises_below_the_cap(monkeypatch):
    """While the value bits are below the bound, the guard holds the bits at
    or above the bound of ``_slot_bits`` too, so a slot planted past them
    but below the sign bit stops the run at the delta it was planted in,
    before a widening could take it in.  At 60 with a bound of 52 bits the
    stream starts at 64 bits and widens once, to 128 bits, where the value
    bits reach the bound."""
    monkeypatch.setattr(
        layered, "_slot_bits", lambda order: (52, 2 * (order + 4).bit_length())
    )
    _plant(monkeypatch, 3, "one", 1, lambda v, width: v + (1 << 62))
    with pytest.raises(InvariantError, match="d\\^3 z\\^1 in one is negative or overflows"):
        marginals(60, "diagonals")


def stream_by_perimeter(order):
    """{perimeter: count} of the delta stream, the single cell included."""
    return {4: 1, **stream_fold(lambda k, cls: None)(order).get(None, {})}


def stream_by_nose(order):
    """{(perimeter, nose): count} of the delta stream, the single cell included."""
    out = {(4, "none"): 1}
    for cls, counts in stream_fold(lambda k, cls: cls)(order).items():
        out.update(((kx, cls), v) for kx, v in counts.items())
    return out


@pytest.mark.parametrize("order", list(range(4, 65)) + [160, 400])
def test_the_fixed_d_solve_equals_the_stream_at_d_one(order):
    """By perimeter and by noses, key for key and in the same key order."""
    assert list(perimeter_counts(order).items()) == list(stream_by_perimeter(order).items())
    assert list(marginals(order, "noses").items()) == list(stream_by_nose(order).items())


def weighted_by_diagonals(order, d):
    """{perimeter: count} of marginals by diagonals, each count times d^k."""
    totals = {}
    for (kx, k), v in marginals(order, "diagonals").items():
        totals[kx] = totals.get(kx, 0) + v * d**k
    return totals


@pytest.mark.parametrize("d", [2, Fraction(1, 2), -1, Fraction(5, 3)], ids=str)
def test_the_fixed_d_solve_equals_the_weighted_stream(d):
    """Through 120, each class at d equals the stream's d-rows of that
    class weighted by d^k, and the totals weight marginals by diagonals."""
    expected = {"none": {4: d}}
    for (cls, k), counts in stream_fold(lambda k, cls: (cls, k))(120).items():
        weighted = expected.setdefault(cls, {})
        for kx, v in counts.items():
            weighted[kx] = weighted.get(kx, 0) + v * d**k
    assert layered.class_counts(120, d) == {
        cls: {kx: v for kx, v in counts.items() if v} for cls, counts in expected.items()
    }
    assert perimeter_counts(120, d) == weighted_by_diagonals(120, d)


BUMPS = [("constant", cls) for cls in layered.CLASS_ORDER] + [
    (cls, i) for cls in layered.CLASS_ORDER for i in range(len(layered._EQUATION[cls]))
]


@pytest.mark.parametrize("table, key", BUMPS, ids=["%s-%s" % bump for bump in BUMPS])
def test_every_transcribed_term_plus_one_raises_or_breaks_equality(monkeypatch, table, key):
    """Each class's constant term, and each of its terms, with its
    coefficient plus 1, either stops the solve or moves a count through 40."""
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
    assert counts != stream_by_nose(40)


def _planted_row(monkeypatch, cls, n, change):
    """Make the lower-degree part of class ``cls`` at t^n go through ``change``."""
    real = layered._lower_terms

    def planted(which, window, degree, d):
        row = real(which, window, degree, d)
        if (which, degree) == (cls, n):
            change(row)
        return row

    monkeypatch.setattr(layered, "_lower_terms", planted)


def _add(m, v):
    def change(row):
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
    _planted_row(monkeypatch, "one", 9, _add(3, -10**9))
    assert perimeter_counts(24, -1) != weighted_by_diagonals(24, -1)


def test_the_solve_keeps_four_earlier_degrees_of_rows(monkeypatch):
    """Beside the degree being solved, the window holds the rows of the
    four below it, and every read of a lower degree lands in it: no term
    reads further back than t^4."""
    assert max(power for terms in layered._EQUATION.values() for _, power, _ in terms) == 4
    real = layered._lower_terms
    sizes = []

    def seen(cls, window, n, d):
        sizes.append(len(window))
        return real(cls, window, n, d)

    monkeypatch.setattr(layered, "_lower_terms", seen)
    perimeter_counts(40)
    assert set(sizes) == {4}
