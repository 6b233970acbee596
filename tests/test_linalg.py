from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diadeform.errors import MixedFields, ShapeMismatch
from diadeform.fields import PrimeField, QQ
from diadeform.linalg import Matrix

F7 = PrimeField(7)


def qmat(rows):
    return Matrix(QQ, len(rows), len(rows[0]), rows)


small = st.integers(-6, 6)


def matrices(field=QQ, max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(small, min_size=c, max_size=c),
                min_size=r, max_size=r).map(
                    lambda rows: Matrix(field, r, c, rows))))


def test_construction_and_indexing():
    m = qmat([[1, 2], [3, 4]])
    assert m[0, 1] == Fraction(2)
    assert m.rows == 2 and m.cols == 2
    assert m.transpose()[1, 0] == Fraction(2)


def test_shape_checks():
    a = qmat([[1, 2]])
    b = qmat([[1], [2]])
    with pytest.raises(ShapeMismatch):
        a + b
    with pytest.raises(ShapeMismatch):
        b * b


def test_field_checks():
    a = qmat([[1]])
    b = Matrix(F7, 1, 1, [[1]])
    with pytest.raises(MixedFields):
        a + b


def test_rank_examples():
    assert qmat([[1, 2], [2, 4]]).rank() == 1
    assert qmat([[1, 2], [3, 4]]).rank() == 2
    assert Matrix.zero(QQ, 3, 2).rank() == 0
    assert Matrix.identity(QQ, 4).rank() == 4


def test_kernel_examples():
    k = qmat([[1, 2], [2, 4]]).kernel_basis()
    assert len(k) == 1
    v = k[0]
    assert v[0] + 2 * v[1] == QQ.zero


def test_solve_exact():
    m = qmat([[2, 1], [1, 3]])
    b = (Fraction(5), Fraction(10))
    x = m.solve(b)
    assert m.apply(x) == b
    assert x == (Fraction(1), Fraction(3))


def test_solve_inconsistent():
    m = qmat([[1, 1], [1, 1]])
    assert m.solve((Fraction(0), Fraction(1))) is None


def test_solve_underdetermined():
    m = qmat([[1, 1]])
    b = (Fraction(3),)
    x = m.solve(b)
    assert m.apply(x) == b


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_nullity(m):
    assert m.rank() + len(m.kernel_basis()) == m.cols


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_annihilated(m):
    z = tuple([QQ.zero] * m.rows)
    for v in m.kernel_basis():
        assert m.apply(v) == z


@settings(max_examples=60, deadline=None)
@given(matrices(), st.lists(small, min_size=1, max_size=4))
def test_solve_roundtrip(m, coords):
    # build a consistent right-hand side, then solve it back
    x = tuple(QQ.from_int(coords[i % len(coords)]) for i in range(m.cols))
    b = m.apply(x)
    y = m.solve(b)
    assert y is not None
    assert m.apply(y) == b


@settings(max_examples=40, deadline=None)
@given(matrices(F7, 3))
def test_rank_nullity_gf(m):
    assert m.rank() + len(m.kernel_basis()) == m.cols


def test_transpose_rank_invariant():
    m = qmat([[1, 2, 3], [4, 5, 6]])
    assert m.rank() == m.transpose().rank()


def test_block():
    a = qmat([[1], [2]])
    b = qmat([[3], [4]])
    c = Matrix.block(QQ, 3, 2, [(0, 0, a), (1, 1, -b)])
    assert c == qmat([[1, 0], [2, -3], [0, -4]])
    assert c.dense_rows()[2] == (QQ.zero, QQ.from_int(-4))


# -- differential check against a dense Gauss-Jordan reference ----------


def dense_rref(field, rows, cols):
    """Reduced row echelon form of dense rows and its pivot columns."""
    m, pivots = [list(r) for r in rows], []
    for c in range(cols):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = field.inv(m[r][c])
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def dense_kernel(field, rows, cols):
    m, pivots = dense_rref(field, rows, cols)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [field.zero] * cols
        v[fc] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(tuple(v))
    return basis


def dense_solve(field, rows, cols, b):
    m, pivots = dense_rref(field, [list(r) + [x] for r, x in zip(rows, b)],
                           cols + 1)
    if cols in pivots:
        return None
    x = [field.zero] * cols
    for r, pc in enumerate(pivots):
        x[pc] = m[r][cols]
    return tuple(x)


sparse_small = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 5])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([QQ, F7]), st.integers(0, 6), st.integers(0, 6),
       st.data())
def test_elimination_matches_dense_reference(field, r, c, data):
    ints = data.draw(st.lists(st.lists(sparse_small, min_size=c, max_size=c),
                              min_size=r, max_size=r))
    rows = [[field.from_int(x) for x in row] for row in ints]
    m = Matrix(field, r, c, rows)
    # alternate consistent and (mostly) inconsistent right-hand sides, and
    # repeat them, so that a factorization polluted by one solve would show
    rhs = []
    for _ in range(3):
        x = data.draw(st.lists(sparse_small, min_size=c, max_size=c))
        rhs.append(m.apply(tuple(field.from_int(v) for v in x)))
        rhs.append(tuple(field.from_int(v) for v in data.draw(
            st.lists(sparse_small, min_size=r, max_size=r))))
    for b in rhs + rhs:
        assert m.solve(b) == dense_solve(field, rows, c, b)
    assert m.rank() == len(dense_rref(field, rows, c)[1])
    assert m.kernel_basis() == dense_kernel(field, rows, c)
    for b in rhs:
        assert m.solve(b) == dense_solve(field, rows, c, b)
