"""Tests for the exhaustive generator.

The reference here is a cell-set oracle that knows nothing about runs:
it grows every fixed polyomino up to nine cells by adding one adjacent
cell at a time, deduplicates by translation, filters the diagonally
convex ones, and reads every statistic straight off the cell set.  A
polyomino of perimeter p has at most floor(p^2/16) cells (Harary and
Harborth, "Extremal animals", 1976), so nine cells reach every shape
of perimeter at most 12.  A second reference, the block-id frontier
rule, rechecks the census's three-int frontier state child by child.
"""

import pytest

from dcpoly import brute
from dcpoly.brute import column_convex_counts, directed_counts_by_diagonals, generate
from dcpoly.closedform import ternary_count
from dcpoly.counts import CountTable
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


def is_directed(cells):
    """True when one cell on the lowest diagonal reaches every cell by
    north and east steps inside the shape."""
    seen = set()
    frontier = [min(cells, key=sum)]
    while frontier:
        i, j = frontier.pop()
        if (i, j) in seen or (i, j) not in cells:
            continue
        seen.add((i, j))
        frontier.extend([(i + 1, j), (i, j + 1)])
    return len(seen) == len(cells)


def cells_of_runs(runs):
    """Cell set of (lo, hi) column runs on diagonals 0, 1, ...; a cell at
    column c on diagonal t sits at row t - c."""
    return frozenset(
        (c, t - c) for t, (lo, hi) in enumerate(runs) for c in range(lo, hi + 1)
    )


NOSE_BY_COUNT = {0: "zero", 1: "one", 2: "two"}


def oracle_table(shapes):
    table = CountTable()
    for cells in shapes:
        runs = diagonal_runs(cells)
        if runs is None:
            continue
        if len(runs) == 1:
            nose = "none"
        else:
            (lo, hi), (lo2, hi2) = runs[-2], runs[-1]
            hits = (1 if lo2 <= lo <= hi2 else 0) + (1 if lo2 <= hi + 1 <= hi2 else 0)
            nose = NOSE_BY_COUNT[hits]
        key = (perimeter_of(cells), len(runs), nose, runs[-1][1] - runs[-1][0] + 1)
        table[key] = table.get(key, 0) + 1
    return table


def overlap(a1, b1, a2, b2):
    return max(0, min(b1, b2) - max(a1, a2) + 1)


def block_ids(state):
    """Block id per cell of a (left, mid, right) frontier, left to right."""
    left, mid, right = state
    return tuple(range(left)) + (left,) * mid + tuple(range(left + 1, left + 1 + right))


def block_id_children(classes, budget):
    """One-diagonal extensions of a frontier given as block ids per cell.

    Every offset of every run is tried, and a run is kept when the set
    of blocks it touches is all of them.  Returns (dpe, b, classes2,
    nose) tuples sorted by (dpe, b), the order in which the walk reads
    ``brute._children``.
    """
    width = len(classes)
    nblocks = len(set(classes))
    out = []
    for b in range(1, width + budget // 4 + 1):
        for rel in range(1 - b, width + 1):
            hi = rel + b - 1
            # old cell j is touched iff the new run covers column j or j+1
            reached = {classes[j] for j in range(max(0, rel - 1), min(width - 1, hi) + 1)}
            if len(reached) < nblocks:
                continue
            a = overlap(rel, hi, 0, width - 1) + overlap(rel - 1, hi - 1, 0, width - 1)
            dpe = 4 * b - 2 * a
            if dpe > budget:
                continue
            left = max(0, -rel)
            right = max(0, hi - width)
            classes2 = block_ids((left, b - left - right, right))
            hits = (1 if rel <= 0 <= hi else 0) + (1 if rel <= width <= hi else 0)
            out.append((dpe, b, classes2, NOSE_BY_COUNT[hits]))
    out.sort(key=lambda c: (c[0], c[1]))
    return out


@pytest.fixture(scope="module")
def perimeter_twelve():
    """Every fixed polyomino of perimeter at most 12, by the area bound."""
    return [cells for cells in fixed_polyominoes(9) if perimeter_of(cells) <= 12]


# ----------------------------------------------------------------- tests

def test_tiny_census_by_hand():
    table = generate(8)
    assert table == {
        (4, 1, "none", 1): 1,
        (6, 2, "one", 1): 2,
        (8, 2, "two", 2): 1,
        (8, 3, "one", 1): 4,
        (8, 2, "zero", 1): 1,
        (8, 3, "zero", 1): 1,
    }


def test_generator_agrees_with_cell_set_oracle(perimeter_twelve):
    assert oracle_table(perimeter_twelve) == generate(12)


def test_reach_rule_matches_block_id_rule(monkeypatch):
    seen = []
    children = brute._children

    def recording(state, budget):
        seen.append((state, budget))
        return children(state, budget)

    monkeypatch.setattr(brute, "_children", recording)
    generate(40)
    # one state per partition: a one-cell middle block folds into the
    # singletons, so the walk visits as many states as block-id tuples
    assert len(seen) == 175
    assert len({block_ids(state) for state, _ in seen}) == 175
    for state, budget in seen:
        # the walk sorts each state's children by step, stably
        got = sorted(children(state, budget), key=lambda child: child[0])
        want = block_id_children(block_ids(state), budget)
        assert [(dpe, sum(state2), block_ids(state2)) for dpe, state2, _, _ in got] == [
            (dpe, b, classes2) for dpe, b, classes2, _ in want
        ], state
        # only a child with no singletons is a polyomino, and only it is tagged
        assert [tag for _, _, _, tag in got] == [
            (nose, b) if len(set(classes2)) == 1 else None for _, b, classes2, nose in want
        ], state
        assert all(ways == 1 for _, _, ways, _ in got)


def test_generate_matches_layered_joint_table():
    for bound in (16, 40):
        assert generate(bound) == joint_table(bound)


def test_generate_is_independent_of_bound():
    assert generate(24).restrict_perimeter(20) == generate(20)


def test_is_directed_by_hand():
    staircase = cells_of_runs([(0, 0), (1, 1), (2, 2)])
    assert is_directed(staircase)
    wide_start = cells_of_runs([(0, 1), (1, 1)])
    assert not is_directed(wide_start)
    hanging_top = cells_of_runs([(0, 0), (0, 1), (0, 0)])
    assert is_directed(hanging_top)
    backslide = cells_of_runs([(1, 1), (0, 1)])
    assert not is_directed(backslide)


def test_directed_counts_small_depths():
    assert directed_counts_by_diagonals(5) == {1: 1, 2: 3, 3: 12, 4: 55, 5: 273}


def test_directed_counts_match_filtered_generator():
    # a directed shape's k-th diagonal has at most k cells, so three
    # diagonals hold at most six
    by_diag = {}
    for cells in fixed_polyominoes(6):
        runs = diagonal_runs(cells)
        if runs is not None and len(runs) <= 3 and is_directed(cells):
            by_diag[len(runs)] = by_diag.get(len(runs), 0) + 1
    assert by_diag == directed_counts_by_diagonals(3)


def test_directed_counts_match_the_ternary_formula():
    assert directed_counts_by_diagonals(15) == {k: ternary_count(k) for k in range(1, 16)}


def test_the_smallest_bounds_hold_no_shape_or_one():
    assert generate(2) == {}
    assert column_convex_counts(2) == {}
    assert directed_counts_by_diagonals(0) == {}
    assert generate(4) == {(4, 1, "none", 1): 1}
    assert column_convex_counts(4) == {4: 1}
    assert directed_counts_by_diagonals(1) == {1: 1}


def test_column_convex_prefix_diverges_at_fourteen():
    assert column_convex_counts(14) == {4: 1, 6: 2, 8: 7, 10: 28, 12: 122, 14: 558}
    assert generate(14).by_perimeter()[14] == 556


def test_column_convex_against_cell_set_oracle(perimeter_twelve):
    want = {}
    for cells in perimeter_twelve:
        if is_column_convex(cells):
            pe = perimeter_of(cells)
            want[pe] = want.get(pe, 0) + 1
    assert column_convex_counts(12) == dict(sorted(want.items()))
