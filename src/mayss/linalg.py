"""Exact linear algebra over F_p: rank and membership.

A MatrixFp stores only its columns, each a dict {row: residue} with residues
in [1, p), which is the form d1 matrices are built in and eliminated on;
to_rows() derives the dense rows, which the benchmark's tracer
(bench/tracing.py) reads for its cell and nonzero counts.  Both operations
run one sparse elimination on a copy of the columns, reduced one by one in
the given order against the pivots found so far.  A pivot is keyed by its
lead (highest) row and kept unscaled, as its entries on earlier rows and
the inverse of its lead entry: a reduction drops the lead, which cancels,
and subtracts the rest times (entry at the lead) * inverse.  So a reduction
only moves the lead of the column being reduced to an earlier row.
Operations never mutate their inputs.

Each pivot is nonzero at its lead and zero on every later row, so the
pivots restricted to their lead rows form an invertible triangular matrix,
and the column span projects isomorphically onto the coordinates of the
lead rows: every vector has exactly one element of the span that agrees
with it there.  rank reports those rows on request, which is what clearing
needs (see pages.e2_dimension).  A nonzero vector of the span has its
highest row at a lead, the highest among the pivots in its combination, so
a target lies in the span exactly when it reduces to zero; a target with an
entry on a row that no column touches stops there, as no pivot leads there.

The order costs nothing to fix: past its seeded rows, d1_matrix numbers
rows in the order its columns first touch them, so the highest row of a
column is often one that no earlier column touches (1,579 of the 1,978
nonzero cycle columns of the blocks below), and the pivots stay sparse.
On the cleared d1 blocks of the four dense second-page queries of the
benchmark, a few percent nonzero, the pivots hold 21,416 nonzeros, leads
included, from 20,994 input nonzeros, against 42,800 with the lead at the
lowest row.
"""

from __future__ import annotations

from collections import namedtuple

Pivots = dict[int, tuple[dict[int, int], int]]   # lead: (entries on earlier rows, 1 / lead entry)


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
        lead = max(vec)
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


def _eliminate(m: MatrixFp) -> Pivots:
    """The pivots of m's columns, reduced in the given order, keyed by their
    leads."""
    p = m.modulus
    pivots: Pivots = {}
    for col in m.columns:
        col = dict(col)   # a copy: _reduce works in place
        lead = _reduce(col, pivots, p)
        if lead is not None:
            pivots[lead] = (col, pow(col.pop(lead), -1, p))
    return pivots


def rank(m: MatrixFp, leads: set[int] | None = None) -> int:
    """The rank of m.  When leads is given, the row of m at which each pivot
    leads is added to it; the column span projects isomorphically onto the
    coordinates of those rows (module docstring)."""
    pivots = _eliminate(m)
    if leads is not None:
        leads.update(pivots)
    return len(pivots)


def in_span(m: MatrixFp, v: dict[int, int]) -> bool:
    """Whether the sparse target {row: residue in [1, p)} is a combination
    of the columns of m."""
    return _reduce(dict(v), _eliminate(m), m.modulus) is None
