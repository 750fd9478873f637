"""Tests for the joint census container."""

import pickle

import pytest

from dcpoly.counts import CountTable, NoseClass, sortable_key


def small_census():
    """The nine shapes with perimeter at most 8, classified by hand."""
    t = CountTable()
    t.add(4, 1, None, 1)                       # single cell
    t.add(6, 2, NoseClass.ONE, 1, 2)           # both dominoes
    t.add(8, 2, NoseClass.TWO, 2)              # bent tromino opening up-right
    t.add(8, 3, NoseClass.ONE, 1, 4)           # straight trominoes and two bends
    t.add(8, 2, NoseClass.ZERO, 1)             # bent tromino opening down-left
    t.add(8, 3, NoseClass.ZERO, 1)             # the 2x2 square
    return t


def test_add_accumulates_and_cancels():
    t = CountTable()
    t.add(6, 2, NoseClass.ONE, 1, 2)
    t.add(6, 2, NoseClass.ONE, 1, 3)
    assert t.counts == {(6, 2, NoseClass.ONE, 1): 5}
    t.add(6, 2, NoseClass.ONE, 1, -5)
    assert len(t) == 0


def test_total_and_by_perimeter():
    t = small_census()
    assert t.total() == 10
    assert t.by_perimeter() == {4: 1, 6: 2, 8: 7}


def test_project_single_and_multiple_fields():
    t = small_census()
    assert t.project("nose") == {None: 1, NoseClass.ONE: 6, NoseClass.TWO: 1, NoseClass.ZERO: 2}
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
    assert r.by_perimeter() == {4: 1, 6: 2}
    assert t.total() == 10  # original untouched


def test_equality_is_by_content():
    assert small_census() == small_census()
    other = small_census()
    other.add(4, 1, None, 1)
    assert small_census() != other


def test_a_nose_class_found_by_value_or_unpickled_keys_the_same_entry():
    table = {NoseClass.ONE: 1}
    assert table[NoseClass("one")] == 1
    assert table[pickle.loads(pickle.dumps(NoseClass.ONE))] == 1
    assert NoseClass.ONE in table and NoseClass.TWO not in table


def test_sortable_key_orders_any_projection_by_fields_then_nose_label():
    assert sortable_key(8) == (8,)
    assert sortable_key((8, NoseClass.ZERO)) == (8, "zero")
    assert sortable_key((4, 1, None, 1)) == (4, 1, "none", 1)
    noses = [None, NoseClass.ZERO, NoseClass.TWO, NoseClass.ONE]
    keys = [(p, n) for p in (10, 8) for n in noses]
    assert sorted(keys, key=sortable_key) == [
        (p, n) for p in (8, 10) for n in (None, NoseClass.ONE, NoseClass.TWO, NoseClass.ZERO)
    ]
