"""Joint census tables for convex polyomino families.

Both the layered iteration and the exhaustive generator can report the
same joint statistic per shape, so their outputs meet in one table,
a ``dict`` subclass from key to count, and compare key by key as
plain dicts do.  A key is the tuple

    (perimeter, diagonals, nose, last_run)

where ``diagonals`` counts the occupied diagonals, ``last_run`` the
cells on the final diagonal, and ``nose`` classifies how the final
diagonal's run sits against the previous one: the run before it has an
uppermost cell and a rightmost cell, and the two lattice cells that
extend them (directly above the uppermost, directly right of the
rightmost) are the run's noses.  The nose entry is the label the
output prints: ``"two"``, ``"one"`` or ``"zero"``, how many of those
two cells the final run occupies, or ``"none"`` for a single cell,
which has no previous diagonal.  Keys and their projections therefore
sort with ``sorted()``, the labels as none < one < two < zero.
"""


class CountTable(dict):
    """Multiset of shapes: a dict from (perimeter, diagonals, nose,
    last_run) to the number of shapes with that key."""

    FIELDS = ("perimeter", "diagonals", "nose", "last_run")

    def project(self, *fields):
        """Marginal counts over a subset of the key fields.

        With one field the result is keyed by scalars, otherwise by
        tuples in the order requested.
        """
        idx = []
        for f in fields:
            if f not in self.FIELDS:
                raise ValueError("unknown field %r" % (f,))
            idx.append(self.FIELDS.index(f))
        out = {}
        for key, count in self.items():
            k = key[idx[0]] if len(idx) == 1 else tuple(key[i] for i in idx)
            out[k] = out.get(k, 0) + count
        return out

    def by_perimeter(self):
        return self.project("perimeter")

    def restrict_perimeter(self, max_perimeter):
        return CountTable({k: v for k, v in self.items() if k[0] <= max_perimeter})
