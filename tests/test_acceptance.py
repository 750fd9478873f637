"""Acceptance criteria for the whole package, one test per criterion.

Every published quantity is pinned here as a frozen literal and checked
against the engine that recomputes it; where two engines cover the same
ground they are compared key for key.  Run with ``pytest -v`` to get
one PASS/FAIL line per criterion.
"""

import contextlib
import io
import random
from fractions import Fraction

import pytest

from dcpoly import brute, cli, layered
from dcpoly.closedform import (
    CC_VARIANTS,
    column_convex_gf,
    directed_series,
    kernel_residuals,
    radicals,
    roots,
    ternary_count,
)
from dcpoly.ratios import ratio_table
from dcpoly.series import XSeries

# Diagonally convex counts for perimeters 4, 6, ..., 40.
KNOWN_DCP = [
    1, 2, 7, 28, 122, 556, 2618, 12634, 62128, 310212, 1568495, 8014742,
    41323641, 214719610, 1123244757, 5910863420, 31268459118, 166185855552,
    886961294034,
]

# Column-convex counts for perimeters 4, 6, ..., 40.
KNOWN_CC = [
    1, 2, 7, 28, 122, 558, 2641, 12822, 63501, 319554, 1629321, 8399092,
    43701735, 229211236, 1210561517, 6432491192, 34364148528, 184463064936,
    994430028087,
]

KNOWN_RATIOS = {
    4: "1.0000", 6: "1.0000", 8: "1.0000", 10: "1.0000", 12: "1.0000",
    14: "1.0036", 16: "1.0088", 36: "1.0990", 38: "1.1100", 40: "1.1212",
}

KNOWN_STRETCH_RATIOS = {196: "2.5646", 198: "2.5922", 200: "2.6201"}

D_SAMPLES = (Fraction(1), Fraction(1, 2), Fraction(2), Fraction(3))


@pytest.fixture(scope="module")
def symbolic40():
    return layered.joint_table(40)


@pytest.fixture(scope="module")
def census24():
    return brute.generate(24)


def test_criterion_01_layered_series_matches_published_counts(symbolic40):
    found = symbolic40.by_perimeter()
    expected = dict(zip(range(4, 41, 2), KNOWN_DCP))
    assert found == expected
    print("PASS criterion 1: layered iteration reproduces all 19 published counts")


def test_criterion_02_exhaustive_census_matches_published_counts(census24):
    found = census24.by_perimeter()
    expected = dict(zip(range(4, 25, 2), KNOWN_DCP[:11]))
    assert found == expected
    print("PASS criterion 2: exhaustive census matches the published counts to 24")


def test_criterion_03_layered_and_exhaustive_censuses_agree(census24):
    expected = layered.joint_table(16)
    found = census24.restrict_perimeter(16)
    assert expected == found
    print("PASS criterion 3: joint census tables identical through perimeter 16")


def test_criterion_04_column_convex_closed_forms_match_published_counts():
    expected = dict(zip(range(4, 41, 2), KNOWN_CC))
    at_unit = {}
    for variant in CC_VARIANTS:
        series = column_convex_gf(variant, 1, 40)
        found = {n: series.coefficient(n) for n in range(4, 41, 2)}
        assert found == expected, variant
        at_unit[variant] = series
    assert at_unit["ratio"] == at_unit["nested"] == at_unit["split"]
    halves = [column_convex_gf(v, Fraction(1, 2), 40) for v in CC_VARIANTS]
    assert halves[0] == halves[1] == halves[2]
    print("PASS criterion 4: all three closed forms give the published counts")


def test_criterion_05_exhaustive_column_convex_matches_closed_form():
    expected = dict(zip(range(4, 17, 2), KNOWN_CC[:7]))
    assert brute.column_convex_counts(16) == expected
    print("PASS criterion 5: exhaustive column-convex counts match through 16")


@pytest.mark.slow
def test_criterion_06_ratio_table_matches_published_decimals():
    ratios = {row.perimeter: row.ratio for row in ratio_table(40)}
    for n, expected in KNOWN_RATIOS.items():
        assert ratios[n] == expected, n
    stretch = {row.perimeter: row.ratio for row in ratio_table(200)}
    for n, expected in KNOWN_STRETCH_RATIOS.items():
        assert stretch[n] == expected, n
    print("PASS criterion 6: ratio decimals match, including the order-200 rows")


def test_criterion_07_kernel_roots_annihilate_their_factors():
    for d in D_SAMPLES:
        for residual in kernel_residuals(d, 30):
            assert residual.is_zero(), d
        # roots() divides out x^4 only after checking the numerator's
        # leading coefficients vanish, so a root reaching this point
        # carries no negative exponents by construction.
        found = roots(d, 30)
        assert found.quadratic.order == 30
    print("PASS criterion 7: kernel root and symmetric identities hold to order 30")


def test_criterion_08_two_nose_relation_pins_the_marker_convention():
    matching, squared = layered.two_nose_identity_residuals(20)
    assert matching == {}
    assert squared
    lowest = min(kx for _, kx in squared)
    assert lowest == 8
    print("PASS criterion 8: the relation holds plain and fails squared at x^8")


def test_criterion_09_directed_counts_match_binomial_formula():
    series = directed_series(15)
    for k in range(1, 16):
        assert series.coefficient(k) == ternary_count(k), k
    assert brute.directed_counts_by_diagonals(4) == {1: 1, 2: 3, 3: 12, 4: 55}
    print("PASS criterion 9: directed counts match the formula and the census")


def test_criterion_10_radicals_square_back_to_their_radicands():
    for d in (1, 2):
        for radical in radicals(d, 40):
            assert radical.value * radical.value == radical.radicand, d
    print("PASS criterion 10: all three radicals square back at order 40")


def test_criterion_11_property_suites_hold(census24):
    rng = random.Random(2026)

    # Series square root and division invert exactly.
    base = XSeries(
        [Fraction(3)]
        + [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(30)],
        30,
    )
    assert (base * base).sqrt() == base
    denominator = XSeries(
        [Fraction(2)]
        + [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(30)],
        30,
    )
    assert (base * denominator).divide(denominator) == base

    # Tail operators agree with their rational forms through z-order 40.
    series = [rng.randint(-5, 5) << rng.randint(0, 120) for _ in range(41)]
    suffix = []
    acc = sum(series)
    for m in range(len(series) - 1):
        acc = acc - series[m]
        suffix.append(acc)
    assert layered._tail_sum(series) == suffix
    # T2, whose z^m coefficient sums (k - m) s_k over k > m, as the solve
    # forms it: the suffix sums of the suffix sums, from z^1 on
    doubled = layered._tail_sum(layered._tail_sum(series))
    assert doubled == [
        sum((k - m) * series[k] for k in range(m + 1, len(series)))
        for m in range(1, len(series) - 1)
    ]

    # The census below a perimeter does not depend on the bound.
    assert census24.restrict_perimeter(14) == brute.generate(14)

    # The b-file text format round-trips the full census.
    written = io.StringIO()
    with contextlib.redirect_stdout(written):
        assert cli.main(["census", "--max-perimeter", "24", "--format", "bfile"]) == 0
    assert cli.parse_bfile(written.getvalue()) == census24.by_perimeter()
    print("PASS criterion 11: algebra, determinism, and format properties hold")
