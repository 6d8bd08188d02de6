import os
import threading
import time

import pytest

from helpers import matrix_from_rows
from mayss import ResultCache, a, b, e2_dimension, enumerate_basis, h
from mayss import cache as cache_module
from mayss import enumeration
from mayss.cache import ENGINE_VERSION, _header
from mayss.enumeration import clear_memo


def test_basis_roundtrip(ctx5, tmp_path):
    cache = ResultCache(tmp_path)
    clear_memo()
    basis = enumerate_basis(ctx5, 2, 49, cache=cache)
    clear_memo()
    loaded = cache.load_basis(ctx5, 2, 49)
    assert loaded is not None
    assert [m.render() for m in loaded.monomials] == [m.render() for m in basis.monomials]
    clear_memo()


def test_empty_basis_roundtrip(ctx5, tmp_path):
    cache = ResultCache(tmp_path)
    clear_memo()
    basis = enumerate_basis(ctx5, 3, 1, cache=cache)
    assert basis.dimension == 0
    clear_memo()
    loaded = cache.load_basis(ctx5, 3, 1)
    assert loaded is not None and loaded.dimension == 0
    clear_memo()


def test_missing_entry_is_a_miss(ctx5, tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.load_basis(ctx5, 9, 999) is None


def test_corrupted_entries_are_misses(ctx5, tmp_path):
    cache = ResultCache(tmp_path)
    clear_memo()
    enumerate_basis(ctx5, 2, 49, cache=cache)
    clear_memo()
    (entry,) = list((tmp_path / ENGINE_VERSION).glob("basis_*"))
    for garbage in ("", "not a cache file\n", "mayss-cache 9.9.9\nbasis p=5 s=2 t=49 u=all\n"):
        entry.write_text(garbage)
        assert cache.load_basis(ctx5, 2, 49) is None
    entry.write_bytes(b"\xff\xfe not UTF-8\n")
    assert cache.load_basis(ctx5, 2, 49) is None
    # mismatched header (wrong query on the second line)
    entry.write_text("mayss-cache %s\nbasis p=5 s=2 t=50 u=all\n" % ENGINE_VERSION)
    assert cache.load_basis(ctx5, 2, 49) is None
    header = "mayss-cache %s\nbasis p=5 s=2 t=49 u=all\n" % ENGINE_VERSION
    entry.write_text(header + "2\n401 4\n104 4\n")
    assert cache.load_basis(ctx5, 2, 49).keys == (0x401, 0x104)
    # a line that is not a key and a weight
    entry.write_text(header + "2\n401 4\nnot a key\n")
    assert cache.load_basis(ctx5, 2, 49) is None
    # a(0)^9 on fields of width 2: the exponent overflows into a(1)'s field
    # and reads as a(0) a(1)^2, of another bidegree
    entry.write_text(header + "2\n401 4\n9 9\n")
    assert cache.load_basis(ctx5, 2, 49) is None
    # no count, or a count that is not a number
    entry.write_text(header)
    assert cache.load_basis(ctx5, 2, 49) is None
    entry.write_text(header + "two\n401 4\n104 4\n")
    assert cache.load_basis(ctx5, 2, 49) is None


def _write_entry(cache, s, t, lines):
    """A basis entry of (s, t) at p = 5 with a valid header, the count of
    the given body lines and those lines."""
    header = _header(5, s, t)
    path = cache._path(header)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("mayss-cache %s\n%s\n%d\n%s" % (
        ENGINE_VERSION, header, len(lines), "".join(line + "\n" for line in lines)))


def _hostile(ctx5, case):
    """(s, t, body lines) of an entry: the true one of (2, 49) for "good",
    else one that must load as a miss.  Each of those passes the checks the
    loader runs before the one it targets, so it reaches its own check."""
    lay = enumeration._tables(ctx5, 49, 2)[0]
    good = ["%x 4" % lay.pack([(a(0), 1), (h(2, 0), 1)]), "%x 4" % lay.pack([(a(1), 1), (h(1, 1), 1)])]
    if case == "good":
        return 2, 49, good
    if case == "exterior square":
        # h(1,0)^2 has the tridegree (2, 16, 2) of its factors, and (2, 16)
        # passes the root carry test
        return 2, 16, ["%x 2" % enumeration._tables(ctx5, 16, 2)[0].pack([(h(1, 0), 2)])]
    if case == "field past the universe":
        return 2, 49, good + ["%x 4" % (1 << (lay.size * lay.width))]
    if case == "key of another s":
        # a(2), of (1, 49, 5), and a(0) a(2), of (2, 50, 6), pack on the
        # layout of (2, 49), each with its own weight
        return 2, 49, good + ["%x 5" % lay.pack([(a(2), 1)])]
    if case == "key of another t":
        return 2, 49, good + ["%x 6" % lay.pack([(a(0), 1), (a(2), 1)])]
    if case == "weight disagrees with its key":
        return 2, 49, good[:1] + [good[1].replace(" 4", " 5")]
    if case == "duplicate key":
        return 2, 49, good + good[:1]
    if case == "negative key":
        # minus the key of b(1,0), the last generator: read field by field,
        # it holds b(1,0)^3 and then all-ones fields past the universe
        return 2, 49, good + ["-%x 4" % lay.pack([(b(1, 0), 1)])]
    if case == "non-hex token":
        return 2, 49, good + ["4g1 4"]
    if case == "old text format":
        return 2, 49, ["a(0) h(2,0)", "a(1) h(1,1)"]
    assert case == "5000-digit hex key"
    return 2, 49, good + ["f" * 5000 + " 4"]


@pytest.mark.parametrize("case", [
    "exterior square", "field past the universe", "key of another s", "key of another t",
    "weight disagrees with its key", "duplicate key", "negative key", "non-hex token",
    "old text format", "5000-digit hex key"])
def test_hostile_entries_are_misses(ctx5, tmp_path, case):
    cache = ResultCache(tmp_path)
    clear_memo()
    _write_entry(cache, *_hostile(ctx5, "good"))
    assert cache.load_basis(ctx5, 2, 49).keys == enumerate_basis(ctx5, 2, 49).keys
    s, t, lines = _hostile(ctx5, case)
    _write_entry(cache, s, t, lines)
    start = time.perf_counter()
    assert cache.load_basis(ctx5, s, t) is None
    assert time.perf_counter() - start < 1.0
    clear_memo()


@pytest.mark.parametrize("s, t", [(2, 49), (12, 3000)])
def test_an_entry_with_a_line_removed_is_a_miss(ctx5, tmp_path, s, t):
    # No key check can see a missing key; the recorded count does.  Before
    # it, a dropped line loaded as a smaller basis, which failed the next
    # query or gave it a wrong dimension.
    cold = e2_dimension(ctx5, s, t).blocks
    clear_memo()
    cache = ResultCache(tmp_path)
    enumerate_basis(ctx5, s, t, cache=cache)
    entry = cache._path(_header(5, s, t))
    lines = entry.read_text().splitlines(keepends=True)
    assert len(lines) == 3 + enumerate_basis(ctx5, s, t).dimension
    for k in range(len(lines)):
        entry.write_text("".join(lines[:k] + lines[k + 1:]))
        assert cache.load_basis(ctx5, s, t) is None, k
    # the count line, the first and the last monomial
    for k in (2, 3, len(lines) - 1):
        entry.write_text("".join(lines[:k] + lines[k + 1:]))
        clear_memo()
        assert e2_dimension(ctx5, s, t, cache=cache).blocks == cold, k
    clear_memo()


def test_huge_degree_entries_build_no_universe(ctx5, tmp_path, monkeypatch):
    # A universe at t = 10^3999 would take one step per tower index.  An
    # empty entry loads on the empty layout; a non-empty one of a bidegree
    # with no monomials is a miss, both before any universe is built.
    cache = ResultCache(tmp_path)
    clear_memo()

    def refuse(*args):
        raise AssertionError("a universe was built")

    for module, name in ((enumeration, "_tables"), (cache_module, "_tables"),
                         (enumeration, "_generator_rows")):
        monkeypatch.setattr(module, name, refuse)
    t = 10**3999
    _write_entry(cache, 4, t, [])
    basis = cache.load_basis(ctx5, 4, t)
    assert basis.dimension == 0 and basis.keys == ()
    assert basis.layout is enumeration.EMPTY_LAYOUT
    assert enumeration._carry_failure(t, 1, 0, ctx5) is not None
    _write_entry(cache, 1, t, ["1 1"])
    assert cache.load_basis(ctx5, 1, t) is None
    # named by a digest of the query, not by t's 4000 digits
    assert all(len(entry.name) < 100 for entry in cache.root.iterdir())


def test_keys_past_4300_decimal_digits_roundtrip(ctx5, tmp_path):
    # a(0) h(120,0) sits near the end of a universe of 14,521 generators,
    # as wide as that of verify main at n = 120, so its key is past what
    # Python converts to decimal; the entry holds it in hex.
    s, t = 2, 2 * 5**120 - 1
    cache = ResultCache(tmp_path)
    clear_memo()
    searched = enumerate_basis(ctx5, s, t, cache=cache)
    assert max(searched.keys) >= 10**4300
    clear_memo()
    loaded = cache.load_basis(ctx5, s, t)
    assert (loaded.keys, loaded.weights) == (searched.keys, searched.weights)
    assert loaded.layout is enumeration._search(ctx5, s, s, t)[s].layout
    clear_memo()


def test_matrix_methods_store_and_load_nothing(ctx5, tmp_path):
    # no matrix entry format exists: the two names stay for the tracer only
    cache = ResultCache(tmp_path)
    cache.store_matrix(ctx5, 3, 49, 3, matrix_from_rows([[4, 1]], 5))
    assert list(tmp_path.rglob("*")) == []
    assert cache.load_matrix(ctx5, 3, 49, 3, 2) is None


def test_version_prefix_in_layout(ctx5, tmp_path):
    cache = ResultCache(tmp_path)
    clear_memo()
    enumerate_basis(ctx5, 2, 49, cache=cache)
    clear_memo()
    assert (tmp_path / ENGINE_VERSION).is_dir()
    # no stray temp files survive a completed write
    assert not list((tmp_path / ENGINE_VERSION).glob(".tmp-*"))


def test_unwritable_root_degrades_to_miss(ctx5, tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file where the directory should go")
    cache = ResultCache(blocker)
    clear_memo()
    basis = enumerate_basis(ctx5, 2, 49, cache=cache)  # must not raise
    assert basis.dimension == 2
    clear_memo()
    assert cache.load_basis(ctx5, 2, 49) is None


def test_concurrent_writers_leave_a_valid_entry(ctx5, tmp_path):
    cache = ResultCache(tmp_path)
    clear_memo()
    basis = enumerate_basis(ctx5, 2, 49)
    clear_memo()

    def writer():
        for _ in range(30):
            cache.store_basis(ctx5, basis)

    threads = [threading.Thread(target=writer) for _ in range(4)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    loaded = cache.load_basis(ctx5, 2, 49)
    assert loaded is not None and loaded.dimension == 2


def test_failed_replace_leaves_no_temp_file(ctx5, tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    clear_memo()
    basis = enumerate_basis(ctx5, 2, 49)
    clear_memo()

    def failing_replace(src, dst):
        raise OSError("simulated rename failure")

    monkeypatch.setattr(os, "replace", failing_replace)
    cache.store_basis(ctx5, basis)  # must not raise
    assert not list((tmp_path / ENGINE_VERSION).glob(".tmp-*"))
    assert cache.load_basis(ctx5, 2, 49) is None


@pytest.mark.parametrize("held", [1, 2, 3])
def test_second_page_query_fills_the_bases_a_cache_lacks(ctx5, tmp_path, held):
    # the query reads the bases of s - 1 and s; a stored basis of s + 1 stays
    cache = ResultCache(tmp_path)
    clear_memo()
    enumerate_basis(ctx5, held, 49, cache=cache)
    clear_memo()
    res = e2_dimension(ctx5, 2, 49, cache=cache)
    assert (res.e1_dim, res.cycle_dim, res.boundary_dim, res.e2_dim) == (2, 1, 1, 0)
    assert [(bl.u, bl.e1_dim, bl.e2_dim) for bl in res.blocks] == [(4, 2, 0)]
    kept = sorted({1, 2, held})
    memoized = {s: enumerate_basis(ctx5, s, 49) for s in kept}
    clear_memo()
    for s in kept:
        stored = cache.load_basis(ctx5, s, 49)
        assert stored is not None and stored.monomials == memoized[s].monomials, s
        assert stored.monomials == enumerate_basis(ctx5, s, 49).monomials, s
    if held != 3:
        assert cache.load_basis(ctx5, 3, 49) is None
    clear_memo()


def test_roundtrip_gives_equal_monomials_and_blocks(ctx5, tmp_path, monkeypatch):
    # The cache holds bases only: a cleared matrix is not its block's
    # matrix, so none is stored.  A loaded basis holds the keys, in order,
    # and the very layout of a search of its one filtration.  At s = 8 the
    # two bases share one layout; at s = 7 the fields of s - 1 are narrower
    # (3 bits against 4), so the window search's basis of 6 is repacked
    # before it is stored, and e2_dimension maps the cycle keys onto the
    # boundary's layout.
    t = 130194
    real_search = enumeration._search
    for s in (8, 7):
        clear_memo()
        cache = ResultCache(tmp_path / str(s))
        cold = e2_dimension(ctx5, s, t, cache=cache)
        searched = {f: enumerate_basis(ctx5, f, t).monomials for f in (s - 1, s)}
        assert sorted(cache.root.iterdir()) == sorted(
            cache._path(_header(5, f, t)) for f in (s - 1, s))
        clear_memo()
        for f in (s - 1, s):
            loaded = cache.load_basis(ctx5, f, t)
            single = real_search(ctx5, f, f, t)[f]
            assert loaded.monomials == searched[f], (s, f)
            assert (loaded.keys, loaded.weights) == (single.keys, single.weights), (s, f)
            assert loaded.layout is single.layout, (s, f)
        # both bases from the cache
        monkeypatch.setattr(enumeration, "_search", None)
        assert e2_dimension(ctx5, s, t, cache=cache).blocks == cold.blocks, s
        widths = [enumerate_basis(ctx5, f, t).layout.width for f in (s - 1, s)]
        assert widths == ([4, 4] if s == 8 else [3, 4]), s
        assert (enumerate_basis(ctx5, s - 1, t).layout is enumerate_basis(ctx5, s, t).layout) \
            == (s == 8), s
        # one basis searched, the other from the cache
        for f in (s - 1, s):
            clear_memo()
            monkeypatch.setattr(enumeration, "_search", real_search)
            enumerate_basis(ctx5, f, t)
            monkeypatch.setattr(enumeration, "_search", None)
            assert e2_dimension(ctx5, s, t, cache=cache).blocks == cold.blocks, (s, f)
        monkeypatch.setattr(enumeration, "_search", real_search)
    clear_memo()
