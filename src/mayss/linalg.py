"""Exact linear algebra over F_p: rank and membership.

A MatrixFp stores only its columns, each a dict {row: residue} with residues
in [1, p), which is the form d1 matrices are built in and eliminated on;
to_rows() derives the dense rows, which the benchmark's tracer
(bench/tracing.py) reads for its cell and nonzero counts.  Both operations
run one sparse elimination on a copy of the columns, reduced one by one
against the pivots found so far.  A pivot is keyed by its lead (lowest) row
and kept unscaled, as its entries below the lead and the inverse of its
lead entry: a reduction drops the lead, which cancels, and subtracts the
rest times (entry at the lead) * inverse.  So a reduction only moves the
lead of the column being reduced downward.  A target in the same sparse
form lies in the column span exactly when it reduces to zero against
those pivots.  Operations never mutate their inputs.

The pivots restricted to their lead rows form an invertible triangular
matrix, so the column span projects isomorphically onto the coordinates of
the lead rows: every vector has exactly one element of the span that agrees
with it there.  rank reports those rows on request, which is what clearing
needs (see pages.e2_dimension).

The elimination fixes its order once, before it starts (a static order
after Markowitz, 1957).  Rows are relabelled by ascending count of entries,
and columns are reduced in ascending count of entries.  A pivot then leads
at its sparsest row, so the rows it adds to a later column are rows that few
columns share, and short columns become pivots before long ones.  On the
cleared d1 blocks of the four dense second-page queries of the benchmark, a
few percent nonzero, the pivots hold 20,674 nonzeros, leads included, in
this order and 38,987 in the given one, from 20,720 input nonzeros.
in_span maps its target through the same relabel; a target with an entry
on a row that no column touches is outside the span.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import chain

Pivots = dict[int, tuple[dict[int, int], int]]   # lead: (entries below it, 1 / lead entry)


class MatrixFp(namedtuple("MatrixFp", "modulus rows cols columns")):
    """An F_modulus matrix of rows x cols, stored by column: columns[c] is
    column c as {row: residue in [1, modulus)}."""

    __slots__ = ()

    def to_rows(self) -> list[list[int]]:
        out = [[0] * self.cols for _ in range(self.rows)]
        for c, col in enumerate(self.columns):
            for r, v in col.items():
                out[r][c] = v
        return out


def _reduce(vec: dict[int, int], pivots: Pivots, p: int) -> int | None:
    """Reduce vec in place against the pivots; its lead row left, or None."""
    while vec:
        lead = min(vec)
        piv = pivots.get(lead)
        if piv is None:
            return lead
        col, inv = piv
        f = vec.pop(lead) * inv % p   # the lead cancels exactly
        for k, v in col.items():
            w = (vec.get(k, 0) - f * v) % p
            if w:
                vec[k] = w
            else:
                vec.pop(k, None)
    return None


def _eliminate(m: MatrixFp) -> tuple[dict[int, int], Pivots]:
    """The row relabel {row: new row} of the rows some column touches, and
    the pivots, keyed by their leads' new rows.

    Rows are relabelled by ascending count of entries, ties in the order the
    columns first touch them, and columns are reduced in ascending count of
    entries, ties in the given order.
    """
    p = m.modulus
    count = Counter(chain.from_iterable(m.columns))
    relabel = {r: k for k, r in enumerate(sorted(count, key=count.__getitem__))}
    pivots: Pivots = {}
    for col in sorted(m.columns, key=len):
        col = {relabel[r]: v for r, v in col.items()}   # a copy: _reduce works in place
        lead = _reduce(col, pivots, p)
        if lead is not None:
            pivots[lead] = (col, pow(col.pop(lead), -1, p))
    return relabel, pivots


def rank(m: MatrixFp, leads: set[int] | None = None) -> int:
    """The rank of m.  When leads is given, the row of m at which each pivot
    leads is added to it; the column span projects isomorphically onto the
    coordinates of those rows (module docstring)."""
    relabel, pivots = _eliminate(m)
    if leads is not None:
        row = list(relabel)   # relabel numbers its rows in insertion order
        leads.update(row[k] for k in pivots)
    return len(pivots)


def in_span(m: MatrixFp, v: dict[int, int]) -> bool:
    """Whether the sparse target {row: residue in [1, p)} is a combination
    of the columns of m."""
    relabel, pivots = _eliminate(m)
    if any(r not in relabel for r in v):   # a row no column touches
        return False
    return _reduce({relabel[r]: x for r, x in v.items()}, pivots, m.modulus) is None
