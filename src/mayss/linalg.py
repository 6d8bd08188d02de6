"""Exact linear algebra over F_p: rank and membership.

A MatrixFp stores only its columns, each a dict {row: residue} with residues
in [1, p), which is the form d1 matrices are built in and eliminated on;
to_rows() derives the dense rows, from which the disk cache writes its text
form.  Every operation runs one sparse elimination on a copy of the columns,
reduced left to right against the pivots found so far, each pivot keyed by
its lead (lowest) row and scaled to lead coefficient 1.  A pivot's entries all lie at or below its lead row, so a
reduction only moves the lead of the column being reduced downward.
d1 matrices are a few percent nonzero, so the columns stay short.

A target vector that reduces to zero gives a solution supported on the
pivot columns, the same one reduced row echelon form yields.  Operations
never mutate their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ParameterError


@dataclass(frozen=True)
class MatrixFp:
    modulus: int
    rows: int
    cols: int
    columns: tuple[dict[int, int], ...]  # column c as {row: residue in [1, modulus)}

    def to_rows(self) -> list[list[int]]:
        out = [[0] * self.cols for _ in range(self.rows)]
        for c, col in enumerate(self.columns):
            for r, v in col.items():
                out[r][c] = v
        return out


def matrix_from_rows(rows: Sequence[Sequence[int]], p: int, cols: int | None = None) -> MatrixFp:
    if p < 2:
        raise ParameterError("modulus must be at least 2, got %d" % p)
    if cols is None:
        if not rows:
            raise ParameterError("cannot infer column count of an empty matrix")
        cols = len(rows[0])
    columns: list[dict[int, int]] = [{} for _ in range(cols)]
    for r, row in enumerate(rows):
        if len(row) != cols:
            raise ParameterError("ragged rows: expected %d columns, got %d" % (cols, len(row)))
        for c, v in enumerate(row):
            v %= p
            if v:
                columns[c][r] = v
    return MatrixFp(modulus=p, rows=len(rows), cols=cols, columns=tuple(columns))


def _columns(m: MatrixFp) -> list[dict[int, int]]:
    # _reduce works in place, so eliminate on copies
    return [dict(col) for col in m.columns]


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
