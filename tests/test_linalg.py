import copy

import pytest

from helpers import (dense_in_span, dense_rank, mat_vec, matrix_from_rows, span_rank, span_vectors,
                     transpose)
from mayss.errors import ParameterError
from mayss.linalg import MatrixFp, in_span, rank


def sparse(v):
    """A dense target vector in the sparse form in_span takes."""
    return {r: x for r, x in enumerate(v) if x}


def random_matrix(rng, p, max_dim=4):
    nrows = rng.randrange(0, max_dim + 1)
    ncols = rng.randrange(1, max_dim + 1)
    rows = [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
    return matrix_from_rows(rows, p, cols=ncols)


def test_rank_matches_brute_force_span(rng):
    for p in (5, 7):
        for _ in range(60):
            m = random_matrix(rng, p)
            assert rank(m) == span_rank(m.to_rows(), p)


def test_every_column_combination_is_a_member(rng):
    for p in (5, 7):
        for _ in range(40):
            m = random_matrix(rng, p, max_dim=3)
            coeffs = [rng.randrange(p) for _ in range(m.cols)]
            assert in_span(m, sparse(mat_vec(m, coeffs)))


def test_in_span_rejects_non_members(rng):
    for p in (5, 7):
        for _ in range(40):
            m = random_matrix(rng, p, max_dim=3)
            cols = transpose(m).to_rows()
            reachable = span_vectors(cols, p) if cols else {(0,) * m.rows}
            # hunt for a vector outside the column span (exists unless onto)
            found = None
            for _ in range(60):
                cand = tuple(rng.randrange(p) for _ in range(m.rows))
                if cand not in reachable:
                    found = list(cand)
                    break
            if found is None:
                continue
            assert not in_span(m, sparse(found))


def test_matrix_from_rows_validates():
    with pytest.raises(ParameterError):
        matrix_from_rows([[1, 2], [3]], 5)
    with pytest.raises(ParameterError):
        matrix_from_rows([], 5)  # cannot infer column count
    with pytest.raises(ParameterError):
        matrix_from_rows([[1]], 1)
    m = matrix_from_rows([], 5, cols=3)
    assert m.rows == 0 and m.cols == 3
    # entries reduced mod p
    assert matrix_from_rows([[7, -1]], 5).to_rows() == [[2, 4]]


def test_degenerate_shapes():
    p = 5
    # no rows: the empty vector is the image of zero
    m0 = matrix_from_rows([], p, cols=3)
    assert rank(m0) == 0
    assert in_span(m0, {})
    # no columns: only the zero vector is reachable
    m1 = matrix_from_rows([[], []], p, cols=0)
    assert rank(m1) == 0
    assert in_span(m1, {})
    assert not in_span(m1, {0: 1})


def test_mat_vec_shapes_and_values():
    m = matrix_from_rows([[1, 2], [3, 4]], 5)
    assert mat_vec(m, [1, 1]) == (3, 2)
    with pytest.raises(ParameterError):
        mat_vec(m, [1, 1, 1])


def test_transpose_involution(rng):
    for _ in range(20):
        m = random_matrix(rng, 5)
        t = transpose(m)
        assert t.rows == m.cols and t.cols == m.rows
        assert transpose(t) == m
        assert rank(t) == rank(m)


def test_rank_known_values():
    p = 5
    assert rank(matrix_from_rows([[4, 1]], p)) == 1
    assert rank(matrix_from_rows([[1, 2], [2, 4]], p)) == 1
    assert rank(matrix_from_rows([[1, 0], [0, 1]], p)) == 2
    assert rank(matrix_from_rows([[0, 0]], p)) == 0


def _oracle_cases(rng, p):
    """Random matrices of assorted shapes and densities, plus edge cases."""
    yield matrix_from_rows([], p, cols=0)
    yield matrix_from_rows([], p, cols=4)
    yield matrix_from_rows([[], [], []], p, cols=0)
    yield matrix_from_rows([[0] * 5 for _ in range(4)], p)
    yield matrix_from_rows([[rng.randrange(p) for _ in range(7)]], p)
    yield matrix_from_rows([[rng.randrange(p)] for _ in range(7)], p)
    yield matrix_from_rows([[1 if r == c else 0 for c in range(6)] for r in range(6)], p)
    # upper triangular with a nonzero diagonal: full rank
    yield matrix_from_rows([[rng.randrange(1, p) if r == c else
                             (rng.randrange(p) if c > r else 0) for c in range(8)]
                            for r in range(8)], p)
    for _ in range(80):
        nrows, ncols = rng.randrange(1, 13), rng.randrange(1, 13)
        density = rng.choice((0.1, 0.3, 1.0))
        rows = [[rng.randrange(1, p) if rng.random() < density else 0
                 for _ in range(ncols)] for _ in range(nrows)]
        if rng.random() < 0.3 and nrows > 1:
            # a dependent row: a combination of two others
            i, j = rng.randrange(nrows), rng.randrange(nrows)
            rows[0] = [(2 * x + 3 * y) % p for x, y in zip(rows[i], rows[j])]
        yield matrix_from_rows(rows, p, cols=ncols)


@pytest.mark.parametrize("p", [5, 7, 13])
def test_sparse_elimination_matches_dense_oracle(rng, p):
    for m in _oracle_cases(rng, p):
        assert rank(m) == dense_rank(m)
        for _ in range(3):
            coeffs = [rng.randrange(p) for _ in range(m.cols)]
            member = list(mat_vec(m, coeffs))
            other = [rng.randrange(p) for _ in range(m.rows)]
            for v in (member, other, [0] * m.rows):
                assert in_span(m, sparse(v)) == (dense_in_span(m, v) is not None)


def test_matrix_from_rows_roundtrip_stores_only_nonzero_residues(rng):
    for p in (5, 7, 13):
        for m in _oracle_cases(rng, p):
            rows = m.to_rows()
            assert matrix_from_rows(rows, p, cols=m.cols) == m
            assert all(1 <= v < p for col in m.columns for v in col.values())
            assert all(0 <= r < m.rows for col in m.columns for r in col)
        raw = [[rng.randrange(-3 * p, 3 * p) for _ in range(6)] for _ in range(5)]
        m = matrix_from_rows(raw, p)
        assert m.to_rows() == [[v % p for v in row] for row in raw]
        assert sum(len(col) for col in m.columns) == sum(1 for row in raw for v in row if v % p)


@pytest.mark.parametrize("p", [5, 7, 13])
def test_operations_never_mutate_their_input(rng, p):
    for m in _oracle_cases(rng, p):
        before = copy.deepcopy(m.columns)
        rank(m)
        assert m.columns == before
        v = list(mat_vec(m, [rng.randrange(p) for _ in range(m.cols)]))
        in_span(m, sparse(v))
        in_span(m, sparse([rng.randrange(p) for _ in range(m.rows)]))
        assert m.columns == before


def _permuted(m, row_perm, col_perm, extra_cols=0):
    """m with row r moved to row_perm[r], column c to col_perm[c], and
    extra_cols zero columns at the positions col_perm leaves free."""
    columns = [{} for _ in range(m.cols + extra_cols)]
    for c, col in enumerate(m.columns):
        columns[col_perm[c]] = {row_perm[r]: v for r, v in col.items()}
    return MatrixFp(modulus=m.modulus, rows=m.rows, cols=len(columns), columns=tuple(columns))


@pytest.mark.parametrize("p", [5, 7, 13])
def test_elimination_order_does_not_change_rank_or_membership(rng, p):
    # the elimination relabels rows and reorders columns by their counts; the
    # answers must not depend on how the input numbers its rows and columns
    for m in _oracle_cases(rng, p):
        want = dense_rank(m)
        targets = [list(mat_vec(m, [rng.randrange(p) for _ in range(m.cols)])),
                   [rng.randrange(p) for _ in range(m.rows)], [0] * m.rows]
        members = [dense_in_span(m, v) is not None for v in targets]
        for _ in range(4):
            row_perm = rng.sample(range(m.rows), m.rows)
            extra = rng.randrange(3)
            col_perm = rng.sample(range(m.cols + extra), m.cols)
            pm = _permuted(m, row_perm, col_perm, extra)
            assert rank(pm) == want
            for v, member in zip(targets, members):
                moved = {row_perm[r]: x for r, x in enumerate(v) if x}
                assert in_span(pm, moved) == member


def test_elimination_with_tied_counts(rng):
    # every row and every column holds the same number of entries: the
    # order is decided by ties alone
    p = 7
    for n in range(1, 9):
        for width in range(1, min(n, 3) + 1):
            rows = [[rng.randrange(1, p) if (c - r) % n < width else 0 for c in range(n)]
                    for r in range(n)]
            m = matrix_from_rows(rows, p)
            assert rank(m) == dense_rank(m)
            for _ in range(5):
                v = [rng.randrange(p) for _ in range(n)]
                assert in_span(m, sparse(v)) == (dense_in_span(m, v) is not None)


def test_target_on_a_row_no_column_touches(rng):
    p = 5
    for _ in range(40):
        nrows, ncols = rng.randrange(2, 8), rng.randrange(1, 8)
        empty = rng.randrange(nrows)
        rows = [[0 if r == empty else rng.randrange(p) for _ in range(ncols)]
                for r in range(nrows)]
        m = matrix_from_rows(rows, p)
        member = list(mat_vec(m, [rng.randrange(p) for _ in range(ncols)]))
        assert in_span(m, sparse(member))
        member[empty] = rng.randrange(1, p)
        assert dense_in_span(m, member) is None
        assert not in_span(m, sparse(member))
    # a row past every entry, and past the matrix
    m = matrix_from_rows([[1, 0], [0, 1], [0, 0]], p)
    assert in_span(m, {0: 2, 1: 3}) and not in_span(m, {0: 2, 2: 1})
    assert not in_span(m, {5: 1})
