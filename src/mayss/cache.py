"""Persistent cache for enumerated bases.

Only bases are stored and read.  pages.e2_dimension clears each weight
block by its boundary's pivots before it builds the block's d1 matrix, and
a cleared matrix is not the block's matrix, so no matrix is cached.
load_matrix and store_matrix remain, unused by the engine, because the
benchmark's tracer (bench/tracing.py) wraps them.

Layout: one file per entry under <root>/<engine version>/, so a version bump
invalidates everything at once.  Each file repeats version and query in a
header that loads verify.  Writes go to a temp file in the same directory
followed by an atomic rename; unreadable or mismatched entries are treated
as absent.  Only library callers that pass a cache use it: the command line
keeps no disk cache.

A basis entry holds one line per monomial, in search order: its packed key
in hex (Python converts no int past 4300 digits to decimal) and its weight.
Keys are on the shared layout of a search of the entry's filtration alone
(enumeration._tables) and load onto that same layout object.  A key that is
negative, runs past the universe, holds an exterior exponent above 1 or
does not add up to (s, t, weight), or a repeated key, makes the entry a
miss, so every key loaded is a distinct monomial of the bidegree.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
from pathlib import Path

from .enumeration import BidegreeBasis, Layout, _carry_feasible, _tables
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
        except (OSError, UnicodeDecodeError):
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
        try:
            rows = [line.split() for line in body]
            keys = tuple(int(key, 16) for key, _ in rows)
            weights = tuple(int(u) for _, u in rows)
        except ValueError:
            return None
        if not keys:
            return BidegreeBasis(ctx.p, s, t, Layout((), (s + 1).bit_length()), (), ())
        if not _carry_feasible(t, s, -1, ctx):   # no monomial has this bidegree
            return None
        layout = _tables(ctx, t, s)[0]
        held = 0
        for key in keys:
            held |= key
        # held < 0 when a key is; an exterior exponent above 1 sets a bit
        # above its field's lowest
        if (held < 0 or held.bit_length() > len(layout.universe) * layout.width
                or held & layout.exterior * ((1 << layout.width) - 2)
                or len(set(keys)) < len(keys)):
            return None
        degree = {k: layout.universe[k].tridegree(ctx) for k, _ in layout.fields(held)}
        for key, u in zip(keys, weights):
            fields = [(degree[k], e) for k, e in layout.fields(key)]
            if (sum(d.s * e for d, e in fields), sum(d.t * e for d, e in fields),
                    sum(d.u * e for d, e in fields)) != (s, t, u):
                return None
        return BidegreeBasis(ctx.p, s, t, layout, keys, weights)

    def store_basis(self, ctx: PrimeContext, basis: BidegreeBasis) -> None:
        # an empty basis builds no universe
        keys = basis.keys and _tables(ctx, basis.t, basis.s)[0].repack(basis.keys, basis.layout)
        lines = ["%s %s" % (_MAGIC, ENGINE_VERSION),
                 self._basis_header(basis.p, basis.s, basis.t)]
        lines.extend("%x %d" % row for row in zip(keys, basis.weights))
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
