"""Tests for the exhaustive generator.

The reference here is a cell-set oracle that knows nothing about runs:
it grows every fixed polyomino up to five cells by adding one adjacent
cell at a time, deduplicates by translation, filters the diagonally
convex ones, and reads every statistic straight off the cell set.
"""

import pytest

from dcpoly.brute import (
    DcpShape,
    UndefinedForSingleDiagonal,
    column_convex_counts,
    directed_counts_by_diagonals,
    generate,
    iter_shapes,
)
from dcpoly.counts import CountTable, NoseClass
from dcpoly.layered import joint_table


# ---------------------------------------------------------------- oracle

def normalized(cells):
    mi = min(i for i, _ in cells)
    mj = min(j for _, j in cells)
    return frozenset((i - mi, j - mj) for i, j in cells)


def fixed_polyominoes(max_cells):
    """Every fixed polyomino with at most max_cells cells, once each."""
    level = {frozenset({(0, 0)})}
    yield from level
    for _ in range(max_cells - 1):
        grown = set()
        for shape in level:
            for i, j in shape:
                for cell in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                    if cell not in shape:
                        grown.add(normalized(shape | {cell}))
        yield from grown
        level = grown


def diagonal_runs(cells):
    """Run intervals by diagonal, or None if any diagonal has a gap."""
    by_diag = {}
    for i, j in cells:
        by_diag.setdefault(i + j, []).append(i)
    diags = sorted(by_diag)
    if diags != list(range(diags[0], diags[-1] + 1)):
        return None
    runs = []
    for t in diags:
        cols = sorted(by_diag[t])
        if cols != list(range(cols[0], cols[-1] + 1)):
            return None
        runs.append((cols[0], cols[-1]))
    return runs


def perimeter_of(cells):
    adjacent = sum(((i + 1, j) in cells) + ((i, j + 1) in cells) for i, j in cells)
    return 4 * len(cells) - 2 * adjacent


def is_column_convex(cells):
    by_col = {}
    for i, j in cells:
        by_col.setdefault(i, set()).add(j)
    return all(
        rows == set(range(min(rows), max(rows) + 1)) for rows in by_col.values()
    )


def oracle_table(max_cells):
    table = CountTable()
    for cells in fixed_polyominoes(max_cells):
        runs = diagonal_runs(cells)
        if runs is None:
            continue
        if len(runs) == 1:
            nose = None
        else:
            (lo, hi), (lo2, hi2) = runs[-2], runs[-1]
            hits = (1 if lo2 <= lo <= hi2 else 0) + (1 if lo2 <= hi + 1 <= hi2 else 0)
            nose = {0: NoseClass.ZERO, 1: NoseClass.ONE, 2: NoseClass.TWO}[hits]
        table.add(perimeter_of(cells), len(runs), nose, runs[-1][1] - runs[-1][0] + 1)
    return table


def table_from_shapes(shapes):
    table = CountTable()
    for s in shapes:
        nose = None if s.diagonal_count() == 1 else s.nose_class()
        table.add(s.perimeter(), s.diagonal_count(), nose, s.last_run_length())
    return table


# ----------------------------------------------------------------- tests

def test_tiny_census_by_hand():
    table = generate(8)
    want = CountTable()
    want.add(4, 1, None, 1)
    want.add(6, 2, NoseClass.ONE, 1, 2)
    want.add(8, 2, NoseClass.TWO, 2)
    want.add(8, 3, NoseClass.ONE, 1, 4)
    want.add(8, 2, NoseClass.ZERO, 1)
    want.add(8, 3, NoseClass.ZERO, 1)
    assert table == want


def test_generator_agrees_with_cell_set_oracle():
    small = [s for s in iter_shapes(12) if s.cell_count() <= 5]
    assert table_from_shapes(small) == oracle_table(5)


def test_generate_matches_layered_joint_table():
    for bound in (16, 40):
        assert generate(bound) == joint_table(bound)


def test_shape_statistics_match_walk_tallies():
    assert table_from_shapes(iter_shapes(12)) == generate(12)


def test_shapes_are_valid_and_distinct():
    texts = set()
    for shape in iter_shapes(14):
        assert shape.is_connected()
        assert shape.is_diagonally_convex()
        assert 4 <= shape.perimeter() <= 14
        texts.add(shape.canonical_text())
    assert len(texts) == generate(14).total()


def test_generate_is_independent_of_bound():
    assert generate(24).restrict_perimeter(20) == generate(20)


def test_nose_class_needs_two_diagonals():
    single = DcpShape.from_intervals([(0, 0)])
    with pytest.raises(UndefinedForSingleDiagonal):
        single.nose_class()


def test_is_directed_by_hand():
    staircase = DcpShape.from_intervals([(0, 0), (1, 1), (2, 2)])
    assert staircase.is_directed()
    wide_start = DcpShape.from_intervals([(0, 1), (1, 1)])
    assert not wide_start.is_directed()
    hanging_top = DcpShape.from_intervals([(0, 0), (0, 1), (0, 0)])
    assert hanging_top.is_directed()
    backslide = DcpShape.from_intervals([(1, 1), (0, 1)])
    assert not backslide.is_directed()


def test_directed_counts_small_depths():
    assert directed_counts_by_diagonals(5) == {1: 1, 2: 3, 3: 12, 4: 55, 5: 273}


def test_directed_counts_match_filtered_generator():
    by_diag = {}
    for shape in iter_shapes(14):
        k = shape.diagonal_count()
        if k <= 3 and shape.is_directed():
            by_diag[k] = by_diag.get(k, 0) + 1
    assert by_diag == directed_counts_by_diagonals(3)


def test_column_convex_prefix_diverges_at_fourteen():
    assert column_convex_counts(14) == {4: 1, 6: 2, 8: 7, 10: 28, 12: 122, 14: 558}
    assert generate(14).by_perimeter()[14] == 556


def test_column_convex_against_cell_set_oracle():
    want = {}
    for cells in fixed_polyominoes(6):
        pe = perimeter_of(cells)
        if pe <= 10 and is_column_convex(cells):
            want[pe] = want.get(pe, 0) + 1
    assert column_convex_counts(10) == dict(sorted(want.items()))
