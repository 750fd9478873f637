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
its state and its cost so far.  One transfer walk, ``_walk``, serves
three families, one layer per diagonal or column: each layer maps
(state, cost) to the number of prefixes in it, and each entry is
extended once for all of them.  ``generate`` walks the frontier states
by perimeter; ``column_convex_counts`` walks column-convex polyominoes
(contiguous vertical runs overlapping their neighbor) with the column
width as the state; ``directed_counts_by_diagonals`` walks the directed
shapes, chains of runs that can only keep or extend their window by
one, with the run width as the state and one diagonal as the cost.
The tests recheck the census against an enumeration of raw cell sets
that shares no code with this machine, and the reach rule against the
per-block test it replaces.
"""

from operator import itemgetter

from .counts import CountTable

_NOSE_BY_COUNT = ("zero", "one", "two")
_STEP = itemgetter(0)


def _walk(first, children, limit):
    """Transfer count of prefixes grown one layer at a time up to a cost.

    ``first`` lists the one-layer prefixes and ``children(state)`` the
    ways to extend a prefix in that state, both as (step, state2, ways,
    tag): the cost added, the new state and how many distinct new runs
    give that pair.  Each layer maps (state, cost) to a count, and each
    entry is extended once by its state's memoised children, sorted by
    step so the walk can stop at ``limit``; count * ways passes to the
    next layer and, when the tag is not None, to the tally at (cost,
    depth, *tag).  The walk stops at the first empty layer.
    """
    tally, memo = {}, {None: sorted(first, key=_STEP)}
    layer, depth = {(None, 0): 1}, 0
    while layer:
        depth += 1
        following = {}
        for (state, cost), count in layer.items():
            kids = memo.get(state)
            if kids is None:
                kids = memo[state] = sorted(children(state), key=_STEP)
            for step, state2, ways, tag in kids:
                cost2 = cost + step
                if cost2 > limit:
                    break
                n = count * ways
                if tag is not None:
                    key = (cost2, depth, tag)
                    tally[key] = tally.get(key, 0) + n
                entry = (state2, cost2)
                following[entry] = following.get(entry, 0) + n
        layer = following
    return {(cost, depth, *tag): count for (cost, depth, tag), count in tally.items()}


def _children(state, budget):
    """One-diagonal extensions of a frontier state, in the walk's form.

    A child is a run of b cells whose lowest column sits at offset
    ``rel`` from the old run's lowest column.  Only the offsets that
    reach the end of the first block and the start of the last, which
    are exactly those that touch every block, are tried, by increasing
    b.  Each child is (dpe, state2, 1, tag): dpe is the perimeter
    increase, and the tag is (nose, b) when the child has no singletons,
    so it is a polyomino, and None otherwise.
    """
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
            tag = None if left2 or right2 else (_NOSE_BY_COUNT[noses], b)
            out.append((dpe, state2, 1, tag))
    return out


def generate(max_perimeter):
    """Census of all diagonally convex polyominoes up to a perimeter.

    Returns a ``CountTable`` keyed by (perimeter, diagonals, nose,
    last_run).  Prefixes with the same frontier state (left, mid,
    right) and perimeter have the same completions, so the census is a
    walk over (state, perimeter); a first run of s cells is s
    singletons, and only the lone cell is a polyomino.
    """
    budget = max_perimeter - 4
    first = [
        (4 * s, (s - 1, 1, 0), 1, ("none", 1) if s == 1 else None)
        for s in range(1, max_perimeter // 4 + 1)
    ]
    return CountTable(_walk(first, lambda state: _children(state, budget), max_perimeter))


def directed_counts_by_diagonals(max_diagonals):
    """Exhaustive count of directed shapes with up to so many diagonals.

    Directed means every run fits inside the window of the one below it
    extended one column to the right, starting from a single cell; each
    new cell then has a predecessor to the south or west.  How a chain
    grows depends only on its last run's width w, and a run of b cells
    fits over it in w + 2 - b ways, so the count is a walk over the width
    with one diagonal per step, polynomial in the depth.
    """
    tally = _walk(
        [(1, 1, 1, ())],
        lambda width: [(1, b, width + 2 - b, ()) for b in range(1, width + 2)],
        max_diagonals,
    )
    return {depth: count for (_, depth), count in tally.items()}


def column_convex_counts(max_perimeter):
    """Perimeter census of column-convex polyominoes.

    Columns are contiguous vertical runs; adjacent columns must share at
    least one row.  A column of b cells overlapping its neighbor in v
    rows adds 2b + 2 - 2v to the perimeter, which is always positive,
    so the walk ends once every prefix has passed the bound.  How a
    prefix grows depends only on its last column's width and its
    perimeter, so the census is a walk over that pair, one column at a
    time.  Offsets that give a child the same width and perimeter step
    are merged into one child with a multiplicity.
    """
    budget = max_perimeter - 4

    def children(width):
        ways = {}
        for b in range(1, width + (budget - 2) // 2 + 2):
            for rel in range(1 - b, width):
                v = min(width - 1, rel + b - 1) - max(0, rel) + 1
                dpe = 2 * b + 2 - 2 * v
                if dpe <= budget:
                    ways[(dpe, b)] = ways.get((dpe, b), 0) + 1
        return [(dpe, b, n, ()) for (dpe, b), n in ways.items()]

    first = [(2 * s + 2, s, 1, ()) for s in range(1, (max_perimeter - 2) // 2 + 1)]
    counts = {}
    for (pe, _), count in _walk(first, children, max_perimeter).items():
        counts[pe] = counts.get(pe, 0) + count
    return dict(sorted(counts.items()))
