"""Exact linear algebra over F_p: rank and membership.

A MatrixFp stores only its columns, each a dict {row: residue} with residues
in [1, p), which is the form d1 matrices are built in and eliminated on;
to_rows() derives the dense rows, from which the disk cache writes its text
form.  Both operations run one sparse elimination on a copy of the columns,
reduced left to right against the pivots found so far, each pivot keyed by
its lead (lowest) row and scaled to lead coefficient 1.  A pivot's entries
all lie at or below its lead row, so a reduction only moves the lead of the
column being reduced downward.  d1 matrices are a few percent nonzero, so
the columns stay short.  A target in the same sparse form lies in the
column span exactly when it reduces to zero against those pivots.
Operations never mutate their inputs.
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


def _eliminate(m: MatrixFp) -> dict[int, dict[int, int]]:
    """Pivots {lead row: column scaled to lead coefficient 1}."""
    p = m.modulus
    pivots: dict[int, dict[int, int]] = {}
    for col in m.columns:
        col = dict(col)   # _reduce works in place
        lead = _reduce(col, pivots, p)
        if lead is not None:
            inv = pow(col[lead], -1, p)
            pivots[lead] = {k: v * inv % p for k, v in col.items()}
    return pivots


def rank(m: MatrixFp) -> int:
    return len(_eliminate(m))


def in_span(m: MatrixFp, v: dict[int, int]) -> bool:
    """Whether the sparse target {row: residue in [1, p)} is a combination
    of the columns of m."""
    return _reduce(dict(v), _eliminate(m), m.modulus) is None
