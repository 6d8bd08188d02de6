"""Exact linear algebra over F_p: rank and membership.

A MatrixFp stores only its columns, each a dict {row: residue} with residues
in [1, p), which is the form d1 matrices are built in and eliminated on;
to_rows() derives the dense rows, which the benchmark's tracer
(bench/tracing.py) reads for its cell and nonzero counts; no cache text is
written from them any more.  Both operations run one sparse elimination on
a copy of the columns, reduced one by one against the pivots found so far,
each pivot keyed by its lead (lowest) row and scaled to lead coefficient 1.
A pivot's entries all lie at or below its lead row, so a reduction only
moves the lead of the column being reduced downward.  A target in the same
sparse form lies in the column span exactly when it reduces to zero against
those pivots.  Operations never mutate their inputs.

The pivots restricted to their lead rows form a unit triangular matrix, so
the column span projects isomorphically onto the coordinates of the lead
rows: every vector has exactly one element of the span that agrees with it
there.  rank reports those rows on request, which is what clearing needs
(see pages.e2_dimension).

The elimination fixes its order once, before it starts (a static order
after Markowitz, 1957).  Rows are relabelled by ascending count of entries,
and columns are reduced in ascending count of entries.  A pivot then leads
at its sparsest row, so the rows it adds to a later column are rows that few
columns share, and short columns become pivots before long ones.  On the d1
blocks of the dense second-page benchmark, a few percent nonzero, the pivots
hold 22,384 nonzeros in this order and 40,402 in the given one, from 25,098
input nonzeros.  in_span maps its target through the same relabel; a target
with an entry on a row that no column touches is outside the span.
"""

from __future__ import annotations

from collections import namedtuple


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


def _axpy(y: dict[int, int], f: int, x: dict[int, int], p: int) -> None:
    """y -= f * x in place, dropping entries that cancel."""
    for k, v in x.items():
        w = (y.get(k, 0) - f * v) % p
        if w:
            y[k] = w
        else:
            y.pop(k, None)


def _reduce(vec: dict[int, int], pivots: dict[int, dict[int, int]], p: int) -> int | None:
    """Reduce vec in place against the pivots; its lead row left, or None."""
    while vec:
        lead = min(vec)
        piv = pivots.get(lead)
        if piv is None:
            return lead
        _axpy(vec, vec[lead], piv, p)
    return None


def _eliminate(m: MatrixFp) -> tuple[dict[int, int], dict[int, dict[int, int]]]:
    """The row relabel {row: new row} of the rows some column touches, and
    the pivots {lead new row: column scaled to lead coefficient 1}.

    Rows are relabelled by ascending count of entries, ties in the order the
    columns first touch them, and columns are reduced in ascending count of
    entries, ties in the given order.
    """
    p = m.modulus
    count: dict[int, int] = {}
    for col in m.columns:
        for r in col:
            count[r] = count.get(r, 0) + 1
    relabel = {r: k for k, r in enumerate(sorted(count, key=count.__getitem__))}
    pivots: dict[int, dict[int, int]] = {}
    for col in sorted(m.columns, key=len):
        col = {relabel[r]: v for r, v in col.items()}   # a copy: _reduce works in place
        lead = _reduce(col, pivots, p)
        if lead is not None:
            inv = pow(col[lead], -1, p)
            pivots[lead] = {k: v * inv % p for k, v in col.items()}
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
