"""Exact linear algebra over F_p: rank and membership.

A MatrixFp keeps its entries row-major, which is the form the disk cache
writes.  Every operation runs one sparse elimination on its columns: each
column is a dict {row: residue}, reduced left to right against the pivots
found so far, each pivot keyed by its lead (lowest) row and scaled to lead
coefficient 1.  A pivot's entries all lie at or below its lead row, so a
reduction only moves the lead of the column being reduced downward.
d1 matrices are a few percent nonzero, so the columns stay short.

A target vector that reduces to zero gives a solution supported on the
pivot columns, the same one reduced row echelon form yields.  Operations
never mutate their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Sequence

from .errors import ParameterError


@dataclass(frozen=True)
class MatrixFp:
    modulus: int
    rows: int
    cols: int
    entries: tuple[int, ...]  # row-major, residues in [0, modulus)

    def row(self, r: int) -> tuple[int, ...]:
        return self.entries[r * self.cols:(r + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(r)) for r in range(self.rows)]


def matrix_from_rows(rows: Sequence[Sequence[int]], p: int, cols: int | None = None) -> MatrixFp:
    if p < 2:
        raise ParameterError("modulus must be at least 2, got %d" % p)
    nrows = len(rows)
    if cols is None:
        if nrows == 0:
            raise ParameterError("cannot infer column count of an empty matrix")
        cols = len(rows[0])
    flat = []
    for r in rows:
        if len(r) != cols:
            raise ParameterError("ragged rows: expected %d columns, got %d" % (cols, len(r)))
        flat.extend(v % p for v in r)
    return MatrixFp(modulus=p, rows=nrows, cols=cols, entries=tuple(flat))


def _columns(m: MatrixFp) -> list[dict[int, int]]:
    out: list[dict[int, int]] = [{} for _ in range(m.cols)]
    entries = m.entries
    for k in compress(range(len(entries)), entries):
        r, c = divmod(k, m.cols)
        out[c][r] = entries[k]
    return out


def _axpy(y: dict[int, int], f: int, x: dict[int, int], p: int) -> None:
    """y -= f * x in place, dropping entries that cancel."""
    for k, v in x.items():
        w = (y.get(k, 0) - f * v) % p
        if w:
            y[k] = w
        else:
            y.pop(k, None)


def _reduce(vec: dict[int, int], combo: dict[int, int] | None, pivots: dict, p: int) -> int | None:
    """Reduce vec in place against the pivots, applying the same steps to
    combo when given; the lead row left, or None when vec reduced to zero."""
    while vec:
        lead = min(vec)
        piv = pivots.get(lead)
        if piv is None:
            return lead
        f = vec[lead]
        _axpy(vec, f, piv[0], p)
        if combo is not None:
            _axpy(combo, f, piv[1], p)
    return None


def _eliminate(m: MatrixFp, track: bool) -> dict:
    """Pivots {lead row: (column, combination)}; when track is set, each
    combination is the set of original columns that sums to its column."""
    p = m.modulus
    pivots: dict[int, tuple[dict[int, int], dict[int, int] | None]] = {}
    for c, col in enumerate(_columns(m)):
        combo = {c: 1} if track else None
        lead = _reduce(col, combo, pivots, p)
        if lead is None:
            continue
        inv = pow(col[lead], -1, p)
        pivots[lead] = ({k: v * inv % p for k, v in col.items()},
                        {k: v * inv % p for k, v in combo.items()} if track else None)
    return pivots


def rank(m: MatrixFp) -> int:
    return len(_eliminate(m, track=False))


def in_span(m: MatrixFp, v: Sequence[int]) -> tuple[int, ...] | None:
    """Solve m @ c = v; returns one coefficient vector, or None if unsolvable."""
    if len(v) != m.rows:
        raise ParameterError("vector length %d does not match %d rows" % (len(v), m.rows))
    p = m.modulus
    pivots = _eliminate(m, track=True)
    # reducing v to zero leaves v + m @ combo = 0
    combo: dict[int, int] = {}
    if _reduce({r: x % p for r, x in enumerate(v) if x % p}, combo, pivots, p) is not None:
        return None
    sol = [0] * m.cols
    for k, x in combo.items():
        sol[k] = -x % p
    return tuple(sol)
