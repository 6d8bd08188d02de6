import os
import threading

import pytest

from helpers import codomain_matrix
from mayss import ResultCache, e2_dimension, enumerate_basis
from mayss import enumeration
from mayss.cache import ENGINE_VERSION
from mayss.differential import d1_matrix
from mayss.enumeration import clear_memo
from mayss.linalg import matrix_from_rows, rank


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
    # mismatched header (wrong query on the second line)
    entry.write_text("mayss-cache %s\nbasis p=5 s=2 t=50 u=all\n" % ENGINE_VERSION)
    assert cache.load_basis(ctx5, 2, 49) is None
    # unparseable body
    entry.write_text("mayss-cache %s\nbasis p=5 s=2 t=49 u=all\nnot a monomial\n" % ENGINE_VERSION)
    assert cache.load_basis(ctx5, 2, 49) is None
    # a monomial of another bidegree, whose exponents could overflow a field
    entry.write_text("mayss-cache %s\nbasis p=5 s=2 t=49 u=all\na(1) h(1,1)\na(0)^9\n"
                     % ENGINE_VERSION)
    assert cache.load_basis(ctx5, 2, 49) is None


def test_matrix_roundtrip_and_dimension_check(ctx5, tmp_path):
    cache = ResultCache(tmp_path)
    m = matrix_from_rows([[4, 1]], 5)
    cache.store_matrix(ctx5, 3, 49, 3, m)
    got = cache.load_matrix(ctx5, 3, 49, 3, 2)
    assert got == m
    # a caller expecting another column count must get a miss, not a wrong matrix
    assert cache.load_matrix(ctx5, 3, 49, 3, 3) is None
    zero = matrix_from_rows([], 5, cols=3)
    cache.store_matrix(ctx5, 1, 8, 1, zero)
    back = cache.load_matrix(ctx5, 1, 8, 1, 3)
    assert back is not None and back.rows == 0 and back.cols == 3
    # a ragged row, or fewer rows than the entry declares, is a miss too
    (entry,) = list((tmp_path / ENGINE_VERSION).glob("d1mat_p5_s3_*"))
    header = "mayss-cache %s\nd1mat p=5 s=3 t=49 u=3\n" % ENGINE_VERSION
    for body in ("1 2\n4\n", "2 2\n4 1\n"):
        entry.write_text(header + body)
        assert cache.load_matrix(ctx5, 3, 49, 3, 2) is None, body


def test_codomain_numbered_matrix_entry_gives_the_same_rank(ctx5, tmp_path):
    # An entry whose rows follow an enumerated codomain, with zero rows for
    # the codomain monomials no image reaches, loads with the same rank.
    domain = enumerate_basis(ctx5, 6, 130194, u=50)
    codomain = enumerate_basis(ctx5, 7, 130194, u=49).monomials
    built = d1_matrix(domain, ctx5)
    old = codomain_matrix(domain, codomain, ctx5)
    assert old.rows > built.rows and old.to_rows() != built.to_rows()
    cache = ResultCache(tmp_path)
    cache.store_matrix(ctx5, 6, 130194, 50, old)
    got = cache.load_matrix(ctx5, 6, 130194, 50, domain.dimension)
    assert got == old
    assert rank(got) == rank(built) > 0
    clear_memo()


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
            cache.store_basis(basis)

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
    cache.store_basis(basis)  # must not raise
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
    # matrix, so none is stored.  A loaded basis has a layout of its own,
    # onto which e2_dimension maps the other basis's keys.
    s, t = 8, 130194
    cache = ResultCache(tmp_path)
    cold = e2_dimension(ctx5, s, t, cache=cache)
    searched = {f: enumerate_basis(ctx5, f, t).monomials for f in (s - 1, s)}
    assert sorted(entry.name for entry in (tmp_path / ENGINE_VERSION).iterdir()) == [
        "basis_p5_s%d_t%d_uall.txt" % (f, t) for f in (s - 1, s)]
    clear_memo()
    for f in (s - 1, s):
        assert cache.load_basis(ctx5, f, t).monomials == searched[f], f
    # both bases from the cache
    real_search = enumeration._search
    monkeypatch.setattr(enumeration, "_search", None)
    assert e2_dimension(ctx5, s, t, cache=cache).blocks == cold.blocks
    assert enumerate_basis(ctx5, s - 1, t).layout is not enumerate_basis(ctx5, s, t).layout
    # one basis searched, the other from the cache
    for f in (s - 1, s):
        clear_memo()
        monkeypatch.setattr(enumeration, "_search", real_search)
        enumerate_basis(ctx5, f, t)
        monkeypatch.setattr(enumeration, "_search", None)
        assert e2_dimension(ctx5, s, t, cache=cache).blocks == cold.blocks, f
