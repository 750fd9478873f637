"""Tests for the joint census container."""

import gc

import pytest

from dcpoly import brute, layered
from dcpoly.counts import CountTable

NOSE_LABELS = ("none", "one", "two", "zero")


def small_census():
    """The nine shapes with perimeter at most 8, classified by hand."""
    return CountTable({
        (4, 1, "none", 1): 1,                  # single cell
        (6, 2, "one", 1): 2,                   # both dominoes
        (8, 2, "two", 2): 1,                   # bent tromino opening up-right
        (8, 3, "one", 1): 4,                   # straight trominoes and two bends
        (8, 2, "zero", 1): 1,                  # bent tromino opening down-left
        (8, 3, "zero", 1): 1,                  # the 2x2 square
    })


def test_total_and_by_perimeter():
    t = small_census()
    assert sum(t.values()) == 10
    assert t.by_perimeter() == {4: 1, 6: 2, 8: 7}


def test_project_single_and_multiple_fields():
    t = small_census()
    assert t.project("nose") == {"none": 1, "one": 6, "two": 1, "zero": 2}
    assert t.project("perimeter", "diagonals") == {
        (4, 1): 1,
        (6, 2): 2,
        (8, 2): 2,
        (8, 3): 5,
    }
    with pytest.raises(ValueError):
        t.project("area")


def test_restrict_perimeter():
    t = small_census()
    r = t.restrict_perimeter(6)
    assert type(r) is CountTable
    assert r.by_perimeter() == {4: 1, 6: 2}
    assert sum(t.values()) == 10  # original untouched


def test_equality_is_by_content():
    assert small_census() == small_census()
    other = small_census()
    other[(4, 1, "none", 1)] += 1
    assert small_census() != other


def test_sorted_orders_census_keys_and_projections_by_fields_then_nose_label():
    noses = ["zero", "none", "two", "one"]
    keys = [(p, 2, n, 1) for p in (10, 8) for n in noses]
    assert sorted(keys) == [(p, 2, n, 1) for p in (8, 10) for n in NOSE_LABELS]
    table = CountTable(dict.fromkeys(keys, 1))
    assert sorted(table.project("perimeter", "nose")) == [(p, n) for p in (8, 10) for n in NOSE_LABELS]
    assert sorted(table.project("nose")) == list(NOSE_LABELS)


@pytest.mark.parametrize("census", [layered.joint_table, brute.generate], ids=["layered", "brute"])
def test_census_keys_hold_only_ints_and_a_label_and_escape_the_cycle_collector(census):
    """Keys of atomic values are untracked at the next collection, so
    filling a large table never makes the collector walk its keys."""
    table = census(24)
    gc.collect()
    assert [key for key in table if gc.is_tracked(key)] == []
    for key in table:
        perimeter, diagonals, nose, last_run = key
        assert type(perimeter) is type(diagonals) is type(last_run) is int
        assert nose in NOSE_LABELS
