"""Exhaustive generation of diagonally convex polyominoes.

A diagonally convex polyomino meets every diagonal i + j = t in one
contiguous run of cells, and its occupied diagonals form an interval,
so listing the run intervals diagonal by diagonal describes each shape
exactly once.  The subtlety is connectivity: cells on a common diagonal
are never edge-adjacent to each other, and a cell on the next diagonal
at column c touches only the cells at columns c and c - 1 of the run
below it.  A growing prefix of runs can therefore fall into several
pieces that a later run reconnects, and a piece with no cell on the
newest run is lost for good.

The frontier is the partition of the newest run's cells into connected
blocks of the prefix.  Extending by a new run merges every block it
touches, spawns a singleton block for each new cell hanging past the
old run, and is discarded when some old block is left untouched.  So
every partition is left singletons, one merged block, right singletons,
and the state is the three ints (left, mid, right); a run of
singletons is (width - 1, 1, 0), so each partition has one state.
Blocks are intervals in order, and a run touches an interval of old
cells, so it reaches every block exactly when it reaches the end of
the first and the start of the last.  A prefix is a polyomino exactly
when left == right == 0.  Perimeter is carried incrementally: a run
of b cells sharing a edges with the run below adds 4b - 2a.  Its
b - left - right touching cells share two edges each, except that a
cell at column 0 or at the old width shares one, and those cells are
its noses; so the run adds 4 (left + right) + 2 noses.

Few distinct states occur, and how a prefix can grow depends only on
its state and perimeter.  ``generate`` therefore counts as a transfer
matrix, one diagonal at a time: each layer maps (state, perimeter) to
the number of prefixes in it, and each entry is extended once for all
of them.  The tests recheck the census against an enumeration of raw
cell sets that shares no code with this machine, and the reach rule
against the per-block test it replaces.

The module also enumerates two reference families: chains of runs that
can only keep or extend their window by one (the directed shapes,
counted by diagonals, shape by shape) and column-convex polyominoes
(contiguous vertical runs overlapping their neighbor), counted by
perimeter with the column width as the layer state.
"""

from .counts import CountTable

_NOSE_BY_COUNT = ("zero", "one", "two")


def _children(memo, state, budget):
    """Sorted one-diagonal extensions of a frontier state.

    A child is a run of b cells whose lowest column sits at offset
    ``rel`` from the old run's lowest column.  Only the offsets that
    reach the end of the first block and the start of the last, which
    are exactly those that touch every block, are tried.  Children are
    returned as (dpe, b, state2, nose) tuples sorted by the perimeter
    increase dpe, so a walk can stop at its budget.
    """
    cached = memo.get(state)
    if cached is not None:
        return cached
    left, mid, right = state
    width = left + mid + right
    first_end = 0 if left else mid - 1
    last_start = width - 1 if right else left
    out = []
    for b in range(1, width + budget // 4 + 1):
        # new cell c touches old cells c - 1 and c
        for rel in range(last_start + 1 - b, first_end + 2):
            hi = rel + b - 1
            left2 = max(0, -rel)
            right2 = max(0, hi - width)
            noses = (rel <= 0) + (hi >= width)
            dpe = 4 * (left2 + right2) + 2 * noses
            if dpe > budget:
                continue
            mid2 = b - left2 - right2
            state2 = (left2, mid2, right2) if mid2 > 1 else (b - 1, 1, 0)
            out.append((dpe, b, state2, _NOSE_BY_COUNT[noses]))
    out.sort(key=lambda c: (c[0], c[1]))
    memo[state] = out
    return out


def generate(max_perimeter):
    """Census of all diagonally convex polyominoes up to a perimeter.

    Returns a ``CountTable`` keyed by (perimeter, diagonals, nose,
    last_run).  Prefixes with the same frontier state (left, mid,
    right) and perimeter have the same completions, so each layer of
    the count is a map from (state, perimeter) to the number of
    prefixes with that many diagonals in it.  Every entry is extended
    once by its memoised children, its multiplicity passed on to the
    next layer and, for a child with no singletons, to the tally; the
    count stops at the first empty layer.
    """
    tally = {}
    if max_perimeter >= 4:
        tally[(4, 1, "none", 1)] = 1
    budget = max_perimeter - 4
    memo = {}
    # a first run of s cells is s singletons
    layer = {((s - 1, 1, 0), 4 * s): 1 for s in range(1, max_perimeter // 4 + 1)}
    depth = 1
    while layer:
        depth += 1
        following = {}
        for (state, pe), count in layer.items():
            for dpe, b, state2, nose in _children(memo, state, budget):
                pe2 = pe + dpe
                if pe2 > max_perimeter:
                    break
                if state2[0] == state2[2] == 0:
                    key = (pe2, depth, nose, b)
                    tally[key] = tally.get(key, 0) + count
                entry = (state2, pe2)
                following[entry] = following.get(entry, 0) + count
        layer = following
    return CountTable(tally)


def directed_counts_by_diagonals(max_diagonals):
    """Exhaustive count of directed shapes with up to so many diagonals.

    Directed means every run fits inside the window of the one below it
    extended one column to the right, starting from a single cell; each
    new cell then has a predecessor to the south or west.  The walk is
    explicit, so keep the depth small; the count grows geometrically.
    """
    out = {}

    def walk(width, depth):
        out[depth] = out.get(depth, 0) + 1
        if depth == max_diagonals:
            return
        for rel in range(0, width + 1):
            for b in range(1, width - rel + 2):
                walk(b, depth + 1)

    if max_diagonals >= 1:
        walk(1, 1)
    return dict(sorted(out.items()))


def column_convex_counts(max_perimeter):
    """Perimeter census of column-convex polyominoes.

    Columns are contiguous vertical runs; adjacent columns must share at
    least one row.  A column of b cells overlapping its neighbor in v
    rows adds 2b + 2 - 2v to the perimeter, which is always positive,
    so the count ends once every prefix has passed the bound.  How a
    prefix grows depends only on its last column's width and its
    perimeter, so each layer maps that pair to a number of prefixes and
    is extended once per entry, one column at a time.  Offsets that give
    a child the same width and perimeter step are merged into one child
    with a multiplicity.
    """
    counts = {}
    if max_perimeter < 4:
        return counts
    budget = max_perimeter - 4
    memo = {}

    def children(width):
        cached = memo.get(width)
        if cached is not None:
            return cached
        ways = {}
        for b in range(1, width + (budget - 2) // 2 + 2):
            for rel in range(1 - b, width):
                v = min(width - 1, rel + b - 1) - max(0, rel) + 1
                dpe = 2 * b + 2 - 2 * v
                if dpe <= budget:
                    ways[(dpe, b)] = ways.get((dpe, b), 0) + 1
        out = sorted((dpe, b, n) for (dpe, b), n in ways.items())
        memo[width] = out
        return out

    layer = {}
    for s in range(1, (max_perimeter - 2) // 2 + 1):
        pe = 2 * s + 2
        counts[pe] = 1
        layer[(s, pe)] = 1
    while layer:
        following = {}
        for (width, pe), count in layer.items():
            for dpe, b, ways in children(width):
                pe2 = pe + dpe
                if pe2 > max_perimeter:
                    break
                counts[pe2] = counts.get(pe2, 0) + count * ways
                following[(b, pe2)] = following.get((b, pe2), 0) + count * ways
        layer = following
    return dict(sorted(counts.items()))
