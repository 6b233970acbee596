from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import SeriesRing, mat_add, mat_block, mat_mul, mat_neg

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


def _rank(m):
    """m's rank, or the error its elimination raises: K[t]/(t^{N+1}) has
    no division."""
    try:
        return m.rank()
    except TypeError as exc:
        return str(exc)


@pytest.mark.parametrize("field", [QQ, F7, SeriesRing(QQ, 2)], ids=repr)
def test_cancelled_and_explicit_zeros_are_not_stored(field):
    # entries that cancel before they reach the constructor, and zeros
    # given to the constructor (also through the dense block and negation
    # references) or to from_columns, leave no zero entry and no empty
    # column in the column store, on scalars with and without a truth
    # value
    x, z = field.from_int, field.zero

    def mat(rows):
        return Matrix(field, len(rows), len(rows[0]), rows)

    a = mat([[1, 0, 2], [0, -3, 1]])
    a_data = {0: {0: x(1)}, 1: {1: x(-3)}, 2: {0: x(2), 1: x(1)}}
    cases = [
        (a, a_data),
        (mat_add(a, mat_neg(a)), {}),
        # rows 0 and 2 of column 0 cancel, then all of column 0
        (mat_mul(mat([[1, 1], [1, 2], [2, 2]]), mat([[1, 1], [-1, 0]])),
         {0: {1: x(-1)}, 1: {0: x(1), 1: x(1), 2: x(2)}}),
        (mat_mul(mat([[1, 1], [2, 2]]), mat([[1, 1], [-1, 0]])),
         {1: {0: x(1), 1: x(2)}}),
        (mat_mul(mat([[1, 1], [1, 2]]), mat([[1], [-1]])), {0: {1: x(-1)}}),
        (mat_neg(a), {0: {0: x(-1)}, 1: {1: x(3)}, 2: {0: x(-2), 1: x(-1)}}),
        (mat_neg(Matrix.zero(field, 2, 3)), {}),
        (Matrix.from_columns(field, 2, 3, {0: {0: z, 1: x(0)}, 1: {},
                                           2: {0: x(5), 1: z}}),
         {2: {0: x(5)}}),
        (mat_block(field, 4, 5, [(0, 0, a), (2, 3, mat([[0, 0]])),
                                 (3, 3, Matrix.zero(field, 1, 2))]),
         a_data),
    ]
    for got, data in cases:
        want = Matrix.from_columns(field, got.rows, got.cols, data)
        assert all(col and all(v != z for v in col.values())
                   for col in got._cols.values())
        assert got._cols.keys() == data.keys()
        assert got == want and hash(got) == hash(want)
        assert got.is_zero() == want.is_zero() == (not data)
        assert _rank(got) == _rank(want)


def test_construction_and_indexing():
    m = qmat([[1, 2], [3, 4]])
    assert m[0, 1] == Fraction(2)
    assert m.rows == 2 and m.cols == 2
    assert m.dense_columns()[1] == (Fraction(2), Fraction(4))


def test_shape_checks():
    for rows, cols, entries in ((2, 2, [[1, 2]]), (1, 2, [[1, 2, 3]]),
                                (2, 2, [[1, 2], [3]])):
        with pytest.raises(ShapeMismatch):
            Matrix(QQ, rows, cols, entries)
    a = qmat([[1, 2]])
    with pytest.raises(ShapeMismatch):
        a.apply((1,))
    with pytest.raises(ShapeMismatch):
        a.solve((1, 2))


def test_field_checks():
    # an entry of another field is refused at construction, and so is a
    # right-hand side of another field
    with pytest.raises(MixedFields):
        Matrix(QQ, 1, 1, [[F7.from_int(1)]])
    with pytest.raises(MixedFields):
        Matrix(F7, 1, 2, [[1, Fraction(1, 2)]])
    with pytest.raises(MixedFields):
        qmat([[1]]).solve((F7.from_int(1),))


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
    # a zero row makes no pivot and elimination skips it; b must still
    # vanish there, before and after a rank query
    for ranked in (False, True):
        m = qmat([[1, 0], [0, 0], [1, 1]])
        if ranked:
            assert m.rank() == 2
        assert m.solve((1, 1, 1)) is None
        assert m.solve((1, 0, 3)) == (1, 2)


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


@pytest.mark.parametrize("data", [{5: {7: 1}}, {0: {2: 1}}, {0: {-1: 1}},
                                  {-1: {0: 1}}], ids=repr)
def test_sparse_rejects_entries_outside_the_matrix(data):
    # a misplaced block must fail, not change a rank
    with pytest.raises(ShapeMismatch, match="outside 2x2"):
        Matrix.from_columns(QQ, 2, 2, data)


def test_transpose_rank_invariant():
    m = qmat([[1, 2, 3], [4, 5, 6]])
    assert m.rank() == qmat([[1, 4], [2, 5], [3, 6]]).rank() == 2


def test_block():
    # the dense block and negation references of the block-matrix tests
    a = qmat([[1], [2]])
    b = qmat([[3], [4]])
    c = mat_block(QQ, 3, 2, [(0, 0, a), (1, 1, mat_neg(b))])
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


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([QQ, F7]), st.integers(0, 6), st.integers(0, 6),
       st.data())
def test_rank_and_solve_agree_in_either_order(field, r, c, data):
    # rank reads the pivots and solve also expands through the recorded
    # operations; in either order the answers are the reference's, and
    # the elimination runs once: it inverts each pivot once, and nothing
    # else inverts
    ints = data.draw(st.lists(st.lists(sparse_small, min_size=c, max_size=c),
                              min_size=r, max_size=r))
    rows = [[field.from_int(x) for x in row] for row in ints]
    b = tuple(field.from_int(v) for v in data.draw(
        st.lists(sparse_small, min_size=r, max_size=r)))
    expected = {"rank": len(dense_rref(field, rows, c)[1]),
                "solve": dense_solve(field, rows, c, b)}
    inv, calls = type(field).inv, []

    def counted(self, x):
        calls.append(x)
        return inv(self, x)

    for order in (("rank", "solve"), ("solve", "rank")):
        m, calls[:] = Matrix(field, r, c, rows), []
        with mock.patch.object(type(field), "inv", counted):
            for query in order + order:
                got = m.rank() if query == "rank" else m.solve(b)
                assert got == expected[query], (order, query)
        assert len(calls) == expected["rank"], order



# -- tall and wide shapes, as the coboundary matrices are ----------------

F2 = PrimeField(2)
SCALARS = {
    QQ: [0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-1, 2),
         Fraction(2, 3)],
    F2: [F2.from_int(x) for x in (0, 0, 1)],
    F7: [F7.from_int(x) for x in (0, 0, 0, 1, -1, 2, -3, 5)],
}
tall_or_wide = st.one_of(st.tuples(st.integers(0, 40), st.integers(0, 6)),
                         st.tuples(st.integers(0, 6), st.integers(0, 40)))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([QQ, F2, F7]), tall_or_wide, st.data())
def test_tall_and_wide_shapes_match_dense_reference(field, shape, data):
    # up to 40x6 and 6x40, with non-integral rationals: rank, solve on
    # repeated consistent and inconsistent right-hand sides, and the kernel
    # are the dense reference's, and in either query order each pivot is
    # inverted once, by the one elimination
    r, c = shape
    scalar = st.sampled_from(SCALARS[field])
    rows = data.draw(st.lists(st.lists(scalar, min_size=c, max_size=c),
                              min_size=r, max_size=r))
    rhs = []
    for _ in range(2):
        x = data.draw(st.lists(scalar, min_size=c, max_size=c))
        rhs.append(Matrix(field, r, c, rows).apply(tuple(x)))
        rhs.append(tuple(data.draw(st.lists(scalar, min_size=r,
                                            max_size=r))))
    rank = len(dense_rref(field, rows, c)[1])
    kernel = dense_kernel(field, rows, c)
    solutions = [dense_solve(field, rows, c, b) for b in rhs]
    inv, calls = type(field).inv, []

    def counted(self, x):
        calls.append(x)
        return inv(self, x)

    for order in (("rank", "solve", "kernel"), ("solve", "kernel", "rank")):
        m, calls[:] = Matrix(field, r, c, rows), []
        with mock.patch.object(type(field), "inv", counted):
            for query in order + order:
                if query == "solve":
                    for b, want in zip(rhs + rhs, solutions + solutions):
                        assert m.solve(b) == want, (order, b)
                elif query == "rank":
                    assert m.rank() == rank, order
                else:
                    assert m.kernel_basis() == kernel, order
        assert len(calls) == rank, order
