"""Joint census tables for convex polyomino families.

Both the layered iteration and the exhaustive generator can report the
same joint statistic per shape, so their outputs meet in one container
and can be compared key by key.  A key is the tuple

    (perimeter, diagonals, nose, last_run)

where ``diagonals`` counts the occupied diagonals, ``last_run`` the
cells on the final diagonal, and ``nose`` classifies how the final
diagonal's run sits against the previous one: the run before it has an
uppermost cell and a rightmost cell, and the two lattice cells that
extend them (directly above the uppermost, directly right of the
rightmost) are the run's noses.  The class records how many of those
two cells the final run actually occupies.  A single cell has no
previous diagonal, so its nose entry is ``None``.
"""

import enum


class NoseClass(enum.Enum):
    """How many nose cells the last diagonal's run occupies."""

    TWO = "two"
    ONE = "one"
    ZERO = "zero"

    # members are singletons compared by identity, so the C hash agrees with ==
    __hash__ = object.__hash__


def nose_label(nose):
    """Stable text for a nose entry, usable as a sort and output key."""
    return "none" if nose is None else nose.value


def sortable_key(key):
    """Total order for census keys and their projections: the fields in
    order, the nose by its label.  A one-field projection's scalar key
    orders as a one-tuple."""
    fields = key if type(key) is tuple else (key,)
    return tuple([f if type(f) is int else nose_label(f) for f in fields])


class CountTable:
    """Multiset of shapes keyed by (perimeter, diagonals, nose, last_run)."""

    FIELDS = ("perimeter", "diagonals", "nose", "last_run")

    def __init__(self, counts=None):
        self.counts = dict(counts) if counts else {}

    def add(self, perimeter, diagonals, nose, last_run, count=1):
        if count == 0:
            return
        key = (perimeter, diagonals, nose, last_run)
        new = self.counts.get(key, 0) + count
        if new:
            self.counts[key] = new
        else:
            del self.counts[key]

    def items(self):
        return self.counts.items()

    def total(self):
        return sum(self.counts.values())

    def __len__(self):
        return len(self.counts)

    def __eq__(self, other):
        if not isinstance(other, CountTable):
            return NotImplemented
        return self.counts == other.counts

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
        for key, count in self.counts.items():
            k = key[idx[0]] if len(idx) == 1 else tuple(key[i] for i in idx)
            out[k] = out.get(k, 0) + count
        return out

    def by_perimeter(self):
        return self.project("perimeter")

    def restrict_perimeter(self, max_perimeter):
        return CountTable(
            {k: v for k, v in self.counts.items() if k[0] <= max_perimeter}
        )

    def __repr__(self):
        return "CountTable(%d keys, %d shapes)" % (len(self.counts), self.total())
