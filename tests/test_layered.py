"""Tests for the layered fixed-point iteration.

The order-8 fixed point is small enough to verify against a census done
by hand: nine shapes have perimeter at most 8, and each lands in one
nose class with known diagonal and final-run statistics.
"""

import pytest

from dcpoly.counts import NoseClass
from dcpoly.layered import (
    GFTriple,
    NonConvergenceError,
    check_invariants,
    joint_table,
    nose_breakdown,
    perimeter_counts,
    rhs_step,
    solve,
    total_gf,
    two_nose_identity_residuals,
)

KNOWN_PREFIX = {4: 1, 6: 2, 8: 7, 10: 28, 12: 122, 14: 556, 16: 2618}


def terms_by_z(series):
    return [poly.terms for poly in series.z_coeffs()]


def test_fixed_point_at_order_eight_matches_hand_census():
    t = solve(8)
    assert terms_by_z(t.two_nose) == [{}, {}, {(2, 8): 1}]
    assert terms_by_z(t.one_nose) == [{}, {(2, 6): 2, (3, 8): 4}]
    assert terms_by_z(t.zero_nose) == [{}, {(2, 8): 1, (3, 8): 1}]


def test_total_gf_at_order_eight():
    acc = total_gf(solve(8))
    assert acc.terms == {(1, 4): 1, (2, 6): 2, (2, 8): 2, (3, 8): 5}


def test_perimeter_counts_known_values():
    assert perimeter_counts(16) == KNOWN_PREFIX


def test_collapsed_run_agrees_with_symbolic_run():
    order = 14
    symbolic = total_gf(solve(order, track_diagonals=True)).x_counts()
    collapsed = perimeter_counts(order)
    assert collapsed == {k: symbolic[k] for k in sorted(symbolic)}


def test_nose_breakdown_at_order_eight():
    assert nose_breakdown(8) == {
        NoseClass.TWO: {8: 1},
        NoseClass.ONE: {6: 2, 8: 4},
        NoseClass.ZERO: {8: 2},
    }


def test_joint_table_projects_to_perimeter_counts():
    table = joint_table(solve(12))
    assert table.by_perimeter() == {k: v for k, v in KNOWN_PREFIX.items() if k <= 12}
    # every multi-diagonal key carries a real nose class
    for (pe, di, nose, la) in table.counts:
        assert (nose is None) == (di == 1)
        assert la >= 1 and pe >= 2 * di + 2


def test_two_nose_identity_distinguishes_conventions():
    matching, squared = two_nose_identity_residuals(solve(12))
    assert matching.is_zero()
    assert not squared.is_zero()
    # the variant with squared markers misses already at its lowest term
    low = min(squared.terms, key=lambda k: (k[1], k[0]))
    assert low[1] == 8


def test_iterates_grow_monotonically():
    prev = GFTriple.empty(10)
    seen = []
    for _ in range(6):
        nxt = rhs_step(prev)
        check_invariants(nxt)
        seen.append(total_gf(nxt).x_counts())
        prev = nxt
    for earlier, later in zip(seen, seen[1:]):
        for pe, v in earlier.items():
            assert later.get(pe, 0) >= v


def test_solve_rejects_tiny_order():
    with pytest.raises(ValueError):
        solve(2)


def test_convergence_error_is_exported():
    assert issubclass(NonConvergenceError, RuntimeError)


def naive_fixed_point(order, track_diagonals):
    """Reference: iterate the whole transfer from zero until it stops changing."""
    triple = GFTriple.empty(order, track_diagonals)
    for _ in range(order + 2):
        nxt = rhs_step(triple)
        if nxt == triple:
            return triple
        triple = nxt
    raise AssertionError("reference iteration did not converge")


@pytest.mark.parametrize(
    "order, track_diagonals",
    [(o, t) for o in (4, 5, 8, 16, 30) for t in (True, False)] + [(60, False)],
)
def test_solve_matches_naive_fixed_point(order, track_diagonals):
    assert solve(order, track_diagonals) == naive_fixed_point(order, track_diagonals)
