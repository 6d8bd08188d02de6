"""Persistent cache for enumerated bases.

Only bases are stored and read.  pages.e2_dimension clears each weight
block by its boundary's pivots before it builds the block's d1 matrix, and
a cleared matrix is not the block's matrix, so no matrix is cached and no
matrix entry format exists.  load_matrix (always a miss) and store_matrix
(writes nothing) are no-ops, kept only for the benchmark's tracer
(bench/tracing.py), which wraps them.

Layout: one file per entry under <root>/<engine version>/, so a version bump
invalidates everything at once.  A file is named by a fixed-length digest
of its query, short whatever t, and repeats version and query in a header
that loads verify.  Writes go to a temp file in the same directory followed
by an atomic rename; unreadable or mismatched entries are treated as
absent.  Only library callers that pass a cache use it: the command line
keeps no disk cache.

A basis entry records its monomial count, then holds one line per
monomial, in search order: its packed key in hex (Python converts no int
past 4300 digits to decimal) and its weight.  Keys are on the universe of
the entry's degree at the field width of its filtration (enumeration.
_tables) and load onto that same layout object.  A body of any other
length than the count, a key that is negative, runs past the universe,
holds an exterior exponent above 1 or does not add up to (s, t, weight),
or a repeated key, makes the entry a miss, so every basis loaded is the
whole basis stored.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
import zlib
from pathlib import Path

from .enumeration import EMPTY_LAYOUT, BidegreeBasis, _carry_failure, _tables
from .grading import PrimeContext

ENGINE_VERSION = "0.1.0"

_MAGIC = "mayss-cache"


def _header(p: int, s: int, t: int) -> str:
    """The query line of the basis entry of (s, t)."""
    return "basis p=%d s=%d t=%d u=all" % (p, s, t)


class ResultCache:
    """File-backed store of bases keyed by (p, s, t)."""

    def __init__(self, root: Path | str):
        self.root = Path(root) / ENGINE_VERSION

    # -- paths and atomic IO ------------------------------------------------

    def _path(self, header: str) -> Path:
        # Two checksums make a 64-bit digest; hashlib would load OpenSSL, a
        # few MB, into every process that imports the package.  Two queries
        # of one name only evict each other: the header tells them apart.
        query = header.encode()
        return self.root / ("basis_%08x%08x.txt" % (zlib.crc32(query), zlib.adler32(query)))

    def _write(self, header: str, body: list[str]) -> None:
        path = self._path(header)
        lines = ["%s %s" % (_MAGIC, ENGINE_VERSION), header] + body
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

    def _read(self, header: str) -> list[str] | None:
        try:
            lines = self._path(header).read_text().splitlines()
        except (OSError, UnicodeDecodeError):
            return None
        if len(lines) < 2 or lines[0] != "%s %s" % (_MAGIC, ENGINE_VERSION) or lines[1] != header:
            return None
        return lines[2:]

    # -- bases --------------------------------------------------------------

    def load_basis(self, ctx: PrimeContext, s: int, t: int) -> BidegreeBasis | None:
        body = self._read(_header(ctx.p, s, t))
        if not body:   # absent, or without its count
            return None
        try:
            if int(body[0]) != len(body) - 1:   # lines lost or added
                return None
            rows = [line.split() for line in body[1:]]
            keys = tuple(int(key, 16) for key, _ in rows)
            weights = tuple(int(u) for _, u in rows)
        except ValueError:
            return None
        if not keys:
            return BidegreeBasis(ctx.p, s, t, EMPTY_LAYOUT, (), ())
        if _carry_failure(t, s, 0, ctx) is not None:   # no monomial has this bidegree
            return None
        layout = _tables(ctx, t, s)[0]
        held = 0
        for key in keys:
            held |= key
        # held < 0 when a key is; an exterior exponent above 1 sets a bit
        # above its field's lowest
        if (held < 0 or held.bit_length() > layout.size * layout.width
                or held & layout.exterior * ((1 << layout.width) - 2)
                or len(set(keys)) < len(keys)):
            return None
        degree = {k: layout.generator(k).tridegree(ctx) for k, _ in layout.fields(held)}
        for key, u in zip(keys, weights):
            fields = [(degree[k], e) for k, e in layout.fields(key)]
            if (sum(d.s * e for d, e in fields), sum(d.t * e for d, e in fields),
                    sum(d.u * e for d, e in fields)) != (s, t, u):
                return None
        return BidegreeBasis(ctx.p, s, t, layout, keys, weights)

    def store_basis(self, ctx: PrimeContext, basis: BidegreeBasis) -> None:
        # an empty basis builds no universe
        keys = basis.keys and _tables(ctx, basis.t, basis.s)[0].repack(basis.keys, basis.layout)
        self._write(_header(basis.p, basis.s, basis.t),
                    ["%d" % len(keys)] + ["%x %d" % row for row in zip(keys, basis.weights)])

    # -- matrices: no-ops that bench/tracing.py wraps (ROADMAP item 4) ------

    def load_matrix(self, ctx: PrimeContext, s: int, t: int, u: int, cols: int) -> None:
        return None

    def store_matrix(self, ctx: PrimeContext, s: int, t: int, u: int, m) -> None:
        pass
