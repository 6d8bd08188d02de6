"""Persistent cache for enumerated bases and differential matrices.

Layout: one file per entry under <root>/<engine version>/, so a version bump
invalidates everything at once.  Each file repeats version and query in a
header that loads verify.  Writes go to a temp file in the same directory
followed by an atomic rename; unreadable or mismatched entries are treated
as absent.  Only library callers that pass a cache use it: the command line
keeps no disk cache.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
from pathlib import Path

from .algebra import parse_element
from .enumeration import BidegreeBasis
from .grading import PrimeContext
from .linalg import MatrixFp, matrix_from_rows

ENGINE_VERSION = "0.1.0"

_MAGIC = "mayss-cache"


class ResultCache:
    """File-backed store keyed by (kind, p, s, t, weight)."""

    def __init__(self, root: Path | str):
        self.root = Path(root) / ENGINE_VERSION

    # -- paths and atomic IO ------------------------------------------------

    def _path(self, kind: str, p: int, s: int, t: int, u) -> Path:
        uu = "all" if u is None else str(u)
        return self.root / ("%s_p%d_s%d_t%d_u%s.txt" % (kind, p, s, t, uu))

    def _write(self, path: Path, lines: list[str]) -> None:
        tmp = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=".tmp-")
            with os.fdopen(fd, "w") as fh:
                fh.write("\n".join(lines) + "\n")
            os.replace(tmp, path)
        except OSError:
            # a cache that cannot write is just a cache miss later
            if tmp is not None:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)

    def _read(self, path: Path, header: str) -> list[str] | None:
        try:
            lines = path.read_text().splitlines()
        except OSError:
            return None
        if len(lines) < 2 or lines[0] != "%s %s" % (_MAGIC, ENGINE_VERSION) or lines[1] != header:
            return None
        return lines[2:]

    # -- bases --------------------------------------------------------------

    def _basis_header(self, p: int, s: int, t: int) -> str:
        return "basis p=%d s=%d t=%d u=all" % (p, s, t)

    def load_basis(self, ctx: PrimeContext, s: int, t: int) -> BidegreeBasis | None:
        body = self._read(self._path("basis", ctx.p, s, t, None),
                          self._basis_header(ctx.p, s, t))
        if body is None:
            return None
        monomials = []
        try:
            for line in body:
                if not line:
                    continue
                terms = parse_element(line, ctx).terms
                if len(terms) != 1:
                    return None
                (mon, coeff), = terms.items()
                if coeff != 1 or (mon.tridegree.s, mon.tridegree.t) != (s, t):
                    return None
                monomials.append(mon)
        except Exception:
            return None
        return BidegreeBasis.from_monomials(ctx, s, t, monomials)

    def store_basis(self, basis: BidegreeBasis) -> None:
        lines = ["%s %s" % (_MAGIC, ENGINE_VERSION),
                 self._basis_header(basis.p, basis.s, basis.t)]
        lines.extend(mon.render() or "1" for mon in basis.monomials)
        self._write(self._path("basis", basis.p, basis.s, basis.t, None), lines)

    # -- matrices -----------------------------------------------------------

    def _matrix_header(self, p: int, s: int, t: int, u: int) -> str:
        return "d1mat p=%d s=%d t=%d u=%d" % (p, s, t, u)

    def load_matrix(self, ctx: PrimeContext, s: int, t: int, u: int,
                    cols: int) -> MatrixFp | None:
        """The stored d1 matrix of a block with `cols` domain monomials.

        Rows are image monomials, so their count is an output of the build,
        not checked here; an entry whose rows were numbered otherwise, or
        padded with zero rows, has the same rank."""
        body = self._read(self._path("d1mat", ctx.p, s, t, u),
                          self._matrix_header(ctx.p, s, t, u))
        if body is None:
            return None
        try:
            nrows, ncols = (int(v) for v in body[0].split())
            if ncols != cols:
                return None
            data = [[int(v) for v in line.split()] for line in body[1:1 + nrows]]
            if len(data) != nrows or any(len(r) != ncols for r in data):
                return None
            return matrix_from_rows(data, ctx.p, cols=ncols)
        except (ValueError, IndexError):
            return None

    def store_matrix(self, ctx: PrimeContext, s: int, t: int, u: int, m: MatrixFp) -> None:
        lines = ["%s %s" % (_MAGIC, ENGINE_VERSION),
                 self._matrix_header(ctx.p, s, t, u),
                 "%d %d" % (m.rows, m.cols)]
        lines.extend(" ".join(map(str, row)) for row in m.to_rows())
        self._write(self._path("d1mat", ctx.p, s, t, u), lines)
