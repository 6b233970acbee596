import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (Series, SeriesRing, change_basis, coefficient_sides,
                      dense_axiom_violations, dense_morphism_violations,
                      mirror, mult_dialgebra, random_frame, zero_dialgebra)

from diadeform.dialgebra import (AXIOMS, Dialgebra, DialgebraMorphism,
                                 Representation, _contract, adjoint_rep,
                                 axiom_violations, check_dialgebra,
                                 check_morphism, check_representation,
                                 flat_products, morphism_violations,
                                 pullback_rep)
from diadeform.errors import ShapeMismatch
from diadeform.fields import QQ, PrimeField
from diadeform.linalg import Matrix
from diadeform.models import bundled_model_names, load_bundled_model
from diadeform.trees import ProductLabel

L, R = ProductLabel.LEFT, ProductLabel.RIGHT


def test_zero_dialgebra_valid():
    for dim in (1, 2, 3):
        assert check_dialgebra(zero_dialgebra(dim)).valid


def test_mult_dialgebra_valid():
    d = mult_dialgebra()
    assert check_dialgebra(d).valid
    assert d.left[0][0] == (QQ.one,)
    assert d.right[0][0] == (QQ.one,)


def test_invalid_products_reported():
    # x -| y = y on a 1-dim space fails the first axiom
    t = [[[QQ.one]]]
    z = [[[QQ.zero]]]
    bad = Dialgebra(1, QQ, left=t, right=z)
    report = check_dialgebra(bad)
    assert not report.valid
    assert report.violations


def _brute_force_valid(lval, rval):
    """Directly test the five defining identities of a 1-dim structure
    with x -| y = l*xy and x |- y = r*xy, on the basis element."""
    l, r = lval, rval
    # all five identities reduce to scalar equations in l and r
    eqs = [
        l * l - l * l,        # (x -| y) -| z = x -| (y -| z)
        l * l - l * r,        # x -| (y -| z) = x -| (y |- z)
        r * l - l * r,        # (x |- y) -| z = x |- (y -| z)
        l * r - r * r,        # (x -| y) |- z = (x |- y) |- z
        r * r - r * r,        # x |- (y |- z) = (x |- y) |- z
    ]
    return all(e == 0 for e in eqs)


def test_dim1_grid_matches_brute_force():
    # enumerate all 1-dim structures with coefficients in {-1, 0, 1}
    for l, r in itertools.product((-1, 0, 1), repeat=2):
        d = Dialgebra(1, QQ, left=[[[QQ.from_int(l)]]],
                      right=[[[QQ.from_int(r)]]])
        assert check_dialgebra(d).valid == _brute_force_valid(l, r)


def test_a_dialgebra_is_its_own_adjoint_representation(all_dialgebras):
    for tag, d in all_dialgebras:
        assert adjoint_rep(d) is d, tag
        assert d.dialgebra is d and d.module_dim == d.dim, tag
        assert d.act_dl is d.act_ld is d.left, tag
        assert d.act_dr is d.act_rd is d.right, tag


def test_adjoint_rep_valid(all_dialgebras):
    for tag, d in all_dialgebras:
        rep = adjoint_rep(d)
        assert check_representation(d, rep).valid, tag


def test_pullback_rep_valid(all_morphisms):
    for tag, psi in all_morphisms:
        rep = pullback_rep(psi)
        assert check_representation(psi.source, rep).valid, tag
        assert rep.module_dim == psi.target.dim


def test_bundled_dialgebras_valid(all_dialgebras):
    for tag, d in all_dialgebras:
        assert check_dialgebra(d).valid, tag


def test_bundled_morphisms_valid(all_morphisms):
    for tag, psi in all_morphisms:
        assert check_morphism(psi).valid, tag


def test_morphism_violation_detected():
    d = mult_dialgebra()
    z = zero_dialgebra(1)
    # the identity matrix is not a morphism K -> Z
    bad = DialgebraMorphism(d, z, Matrix.identity(QQ, 1))
    assert not check_morphism(bad).valid


def test_morphism_compose_and_apply():
    d = mult_dialgebra()
    ident = DialgebraMorphism.identity(d)
    v = (QQ.one,)
    assert ident(v) == v


def test_noncommutative_example(bundled_models):
    d = bundled_models["dim2"].dialgebras["P2"]
    # e0 -| e1 != e1 -| e0
    assert d.left[0][1] != d.left[1][0]
    assert check_dialgebra(d).valid


# -- differential check against a basis-vector reference ------------------
#
# The reference evaluates every product the way the checkers once did:
# basis vectors pushed through a dense bilinear product.  Vectors are
# typed, ("D", coords) in the dialgebra or ("M", coords) in the module, so
# one side evaluation serves the dialgebra and the representation axioms.
# Over the series ring K[t]/(t^{N+1}) of the tests, the library's checkers
# take only a field, so there the graded checkers run on the constants
# read order by order over K, against the reference on the series.

RING = SeriesRing(QQ, 2)
FIELDS = (QQ, PrimeField(7), RING)
BUNDLED = [load_bundled_model(name) for name in bundled_model_names()]


def _bilinear(tensor, zero, va, vb):
    """Apply a structure tensor T[i][j][k] to coordinate vectors."""
    out = [zero] * len(tensor[0][0])
    for i, a in enumerate(va):
        for j, b in enumerate(vb):
            if a != zero and b != zero:
                for k, x in enumerate(tensor[i][j]):
                    out[k] = out[k] + a * b * x
    return tuple(out)


def _basis(field, kind, n, i):
    return kind, tuple(field.one if j == i else field.zero for j in range(n))


def _ref_product(d, rep, label, a, b):
    (ka, va), (kb, vb) = a, b
    left = label is L
    if ka == kb == "D":
        tensor = d.tensor(label)
    elif ka == "D":
        tensor = rep.act_dl if left else rep.act_dr
    else:
        tensor = rep.act_ld if left else rep.act_rd
    kind = "D" if ka == kb == "D" else "M"
    return kind, _bilinear(tensor, d.field.zero, va, vb)


def _ref_side(d, rep, side, outer, inner, x, y, z):
    if side == "R":
        return _ref_product(d, rep, outer, x,
                            _ref_product(d, rep, inner, y, z))
    return _ref_product(d, rep, outer, _ref_product(d, rep, inner, x, y), z)


def _ref_axioms(d, rep, kinds):
    """Violations of the five axioms on the basis triples of given kinds."""
    dims = [d.dim if k == "D" else rep.module_dim for k in kinds]
    out = []
    for num, (lhs, rhs) in enumerate(AXIOMS, start=1):
        for ijk in itertools.product(*map(range, dims)):
            args = [_basis(d.field, k, n, i)
                    for k, n, i in zip(kinds, dims, ijk)]
            lv = _ref_side(d, rep, *lhs, *args)[1]
            rv = _ref_side(d, rep, *rhs, *args)[1]
            if lv != rv:
                out.append((num,) + ijk + (lv, rv))
    return tuple(out)


def ref_check_representation(d, rep):
    return tuple((v[0], slot) + v[1:]
                 for slot, kinds in zip("xyz", ("MDD", "DMD", "DDM"))
                 for v in _ref_axioms(d, rep, kinds))


def ref_check_morphism(psi):
    d, e, f = psi.source, psi.target, psi.field
    out = []
    for label in (L, R):
        for i, j in itertools.product(range(d.dim), repeat=2):
            x, y = _basis(f, "D", d.dim, i), _basis(f, "D", d.dim, j)
            lhs = psi(_ref_product(d, None, label, x, y)[1])
            rhs = _ref_product(e, None, label, ("D", psi(x[1])),
                               ("D", psi(y[1])))[1]
            if lhs != rhs:
                out.append((label, i, j, lhs, rhs))
    return tuple(out)


def ref_pullback_tensors(psi):
    """(act_dl, act_dr, act_ld, act_rd): psi(e_i) o m_u and m_u o psi(e_i)."""
    d, e, f = psi.source, psi.target, psi.field
    images = [psi(_basis(f, "D", d.dim, i)[1]) for i in range(d.dim)]
    units = [_basis(f, "D", e.dim, u)[1] for u in range(e.dim)]
    tensors = (e.left, e.right)
    return (tuple(tuple(tuple(_bilinear(t, f.zero, a, m) for m in units)
                        for a in images) for t in tensors)
            + tuple(tuple(tuple(_bilinear(t, f.zero, m, a) for a in images)
                          for m in units) for t in tensors))


def _into(field, x):
    """A rational structure constant of a bundled model, read in field."""
    if field is RING:
        return Series(RING, (x, QQ.zero, QQ.zero))
    return field.from_int(x.numerator) * field.inv(
        field.from_int(x.denominator))


def scalars(field):
    ints = st.sampled_from((0, -1, 1, 2))
    if field is RING:
        return st.tuples(ints, ints, ints).map(
            lambda cs: Series(RING, [QQ.from_int(c) for c in cs]))
    return ints.map(field.from_int)


def tensors(field, a, b, c):
    return st.lists(st.lists(st.lists(scalars(field), min_size=c,
                                      max_size=c),
                             min_size=b, max_size=b), min_size=a, max_size=a)


def _scaled(field, d, c):
    """d read in field with both products times c: valid if d is, as the
    axioms are quadratic."""
    def scale(t):
        return [[[c * _into(field, x) for x in row] for row in block]
                for block in t]
    return Dialgebra(d.dim, field, scale(d.left), scale(d.right))


@st.composite
def dialgebras(draw, field):
    """Random structure constants (mostly invalid) or a scaled bundled
    dialgebra (valid)."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 3))
        return Dialgebra(n, field, draw(tensors(field, n, n, n)),
                         draw(tensors(field, n, n, n)))
    d = draw(st.sampled_from([d for m in BUNDLED
                              for d in m.dialgebras.values()]))
    return _scaled(field, d, draw(scalars(field)))


@st.composite
def morphisms(draw, field):
    """A random, zero or identity matrix between drawn dialgebras, or a
    bundled morphism between its ends scaled by one scalar (valid)."""
    kind = draw(st.sampled_from(("random", "zero", "identity", "bundled")))
    if kind == "bundled":
        psi = draw(st.sampled_from([p for m in BUNDLED
                                    for p in m.morphisms.values()]))
        c = draw(scalars(field))
        return DialgebraMorphism(
            _scaled(field, psi.source, c), _scaled(field, psi.target, c),
            [[_into(field, x) for x in row]
             for row in psi.matrix.dense_rows()])
    src = draw(dialgebras(field))
    if kind == "identity":
        return DialgebraMorphism.identity(src)
    tgt = draw(dialgebras(field))
    if kind == "zero":
        return DialgebraMorphism(src, tgt,
                                 Matrix.zero(field, tgt.dim, src.dim))
    return DialgebraMorphism(src, tgt,
                             draw(tensors(field, 1, tgt.dim, src.dim))[0])


@st.composite
def representations(draw, field):
    """The adjoint or a pullback representation, or random actions."""
    kind = draw(st.sampled_from(("adjoint", "pullback", "random")))
    if kind == "pullback":
        psi = draw(morphisms(field))
        return psi.source, pullback_rep(psi)
    d = draw(dialgebras(field))
    if kind == "adjoint":
        return d, adjoint_rep(d)
    m = draw(st.integers(1, 2))
    return d, Representation(d, m, draw(tensors(field, d.dim, m, m)),
                             draw(tensors(field, d.dim, m, m)),
                             draw(tensors(field, m, d.dim, m)),
                             draw(tensors(field, m, d.dim, m)))


def _matches(report, want):
    return report.violations == want and report.valid == (not want)


def _by_order(ring, scalars):
    """The t^0..t^N coefficients of series scalars, one list per order."""
    return [[x.c[n] for x in scalars] for n in range(ring.order + 1)]


def graded_axioms(d):
    """``axiom_violations`` on a dialgebra over the series ring, its
    constants read order by order over K."""
    ring = d.field
    return axiom_violations(ring.field, d.dim,
                            _by_order(ring, flat_products(d)), ring.order)


def graded_morphism(psi):
    """``morphism_violations`` on a map of dialgebras over the series ring,
    its matrix and both ends' constants read order by order over K."""
    ring, mat = psi.field, psi.matrix
    psis = [Matrix(ring.field, mat.rows, mat.cols,
                   [_by_order(ring, row)[n] for row in mat.dense_rows()])
            for n in range(ring.order + 1)]
    return morphism_violations(ring.field, psis,
                               _by_order(ring, flat_products(psi.source)),
                               _by_order(ring, flat_products(psi.target)),
                               ring.order)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(dialgebras))
def test_check_dialgebra_matches_reference(d):
    want = _ref_axioms(d, None, "DDD")
    if isinstance(d.field, SeriesRing):
        assert graded_axioms(d) == coefficient_sides(want)
    else:
        assert _matches(check_dialgebra(d), want)


# check_representation is check_dialgebra on the square-zero extension
# D + M, which takes only a field; its graded form is the dialgebra case
@settings(max_examples=80, deadline=None)
@given(st.sampled_from((QQ, PrimeField(7))).flatmap(representations))
def test_check_representation_matches_reference(d_rep):
    d, rep = d_rep
    assert _matches(check_representation(d, rep),
                    ref_check_representation(d, rep))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(morphisms))
def test_check_morphism_and_pullback_match_reference(psi):
    # the library's pullback_rep takes a field, as check_representation
    # does; over K[t]/(t^{N+1}) the graded morphism check covers the
    # graded pull-back
    want = ref_check_morphism(psi)
    if isinstance(psi.field, SeriesRing):
        assert graded_morphism(psi) == coefficient_sides(want)
        return
    assert _matches(check_morphism(psi), want)
    rep = pullback_rep(psi)
    assert ((rep.act_dl, rep.act_dr, rep.act_ld, rep.act_rd)
            == ref_pullback_tensors(psi))


# -- the term-major checker against the dense one it replaced -------------

DENSE_FIELDS = (QQ, PrimeField(2), PrimeField(3), PrimeField(7),
                SeriesRing(QQ, 2), SeriesRing(PrimeField(3), 1))


def _sparse_scalar(field, rng):
    """A seeded scalar, zero half of the time; over K[t]/(t^{N+1}) one
    such draw per coefficient."""
    if isinstance(field, SeriesRing):
        return Series(field, [_sparse_scalar(field.field, rng)
                              for _ in range(field.order + 1)])
    return field.from_int(rng.choice((0, 0, 0, 1, -1, 2)))


def _valid_structures(field, rng):
    """Every bundled dialgebra read in the field and its mirror, in a
    random frame over a field; over a series ring, with both products
    times a random series, as the axioms are quadratic."""
    base = field.field if isinstance(field, SeriesRing) else field
    for name in bundled_model_names():
        for d in load_bundled_model(name,
                                    field_override=base).dialgebras.values():
            for x in (d, mirror(d)):
                if base is field:
                    yield change_basis(x, *random_frame(field, x.dim, rng))
                else:
                    c = _sparse_scalar(field, rng)
                    yield Dialgebra(x.dim, field, *(
                        [[[c * Series(field, (v,) + (base.zero,)
                                      * field.order) for v in row]
                          for row in block] for block in t]
                        for t in (x.left, x.right)))


@pytest.mark.parametrize("field", DENSE_FIELDS, ids=repr)
def test_check_dialgebra_matches_the_dense_checker(field):
    # every violation, (axiom, i, j, k, lv, rv) with both sides, in the
    # dense checker's order, on seeded random structures of dimensions
    # 1-3 (mostly invalid) and on valid ones
    rng = random.Random(1700)
    cases = list(_valid_structures(field, rng))
    for _ in range(150):
        n = rng.randint(1, 3)
        left, right = ([[[_sparse_scalar(field, rng) for _ in range(n)]
                         for _ in range(n)] for _ in range(n)]
                       for _ in range(2))
        cases.append(Dialgebra(n, field, left, right))
    valid = 0
    for d in cases:
        want = dense_axiom_violations(d)
        if isinstance(field, SeriesRing):
            assert graded_axioms(d) == coefficient_sides(want), d
        else:
            report = check_dialgebra(d)
            assert report.violations == want, d
            assert report.valid == (not want)
        valid += not want
    assert len(cases) - 150 <= valid < len(cases)


@pytest.mark.parametrize("field", (QQ, PrimeField(2), PrimeField(7)),
                         ids=repr)
def test_check_morphism_matches_the_dense_checker(field):
    # every violation, (label, i, j, lv, rv) with both sides, in the dense
    # checker's order: on every bundled morphism read in the field and on
    # 50 seeded maps between random structures of dimensions 1-3, one in
    # five an identity (valid), the others random matrices (mostly invalid)
    rng = random.Random(1800)
    cases = [psi for name in bundled_model_names()
             for psi in load_bundled_model(
                 name, field_override=field).morphisms.values()]

    def structure():
        n = rng.randint(1, 3)
        return Dialgebra(n, field, *([[[_sparse_scalar(field, rng)
                                        for _ in range(n)] for _ in range(n)]
                                      for _ in range(n)] for _ in range(2)))
    for k in range(50):
        src = structure()
        if k % 5 == 0:
            cases.append(DialgebraMorphism.identity(src))
            continue
        tgt = structure()
        cases.append(DialgebraMorphism(src, tgt, [
            [_sparse_scalar(field, rng) for _ in range(src.dim)]
            for _ in range(tgt.dim)]))
    valid = 0
    for psi in cases:
        report, want = check_morphism(psi), dense_morphism_violations(psi)
        assert report.violations == want, psi
        assert report.valid == (not want)
        valid += report.valid
    assert 7 + 10 <= valid < len(cases)


def test_axiom_violations_refuses_orders_above_the_top():
    zero = [QQ.zero, QQ.zero]
    assert axiom_violations(QQ, 1, [zero, zero], 1) == ()
    with pytest.raises(ShapeMismatch):
        axiom_violations(QQ, 1, [zero, zero], 0)


def _contract_by_divmod(terms, maps, size, inner, top):
    """``_contract`` as it located each coefficient before its index
    table: by two divmods of the flat index."""
    span = len(maps) * inner
    out = [[0] * (len(terms[0]) // span * size * inner)
           for _ in range(top + 1)]
    for a, flat in enumerate(terms):
        for idx, c in enumerate(flat):
            if c:
                outer, rest = divmod(idx, span)
                u, r = divmod(rest, inner)
                for i, x, b in maps[u]:
                    if a + b <= top:
                        out[a + b][outer * size * inner + r + i * inner] += (
                            c * x)
    return out


@pytest.mark.parametrize("source, target, inner, outer",
                         [(1, 1, 1, 1), (2, 3, 1, 2), (3, 2, 2, 3),
                          (2, 2, 4, 2), (3, 1, 3, 1)])
def test_contract_matches_the_divmod_reference(source, target, inner, outer):
    rng = random.Random(source * 100 + inner * 10 + outer)
    top = 2
    maps = [[(i, rng.randint(-2, 2), b) for b in range(top + 1)
             for i in range(target) if rng.random() < 0.6]
            for _ in range(source)]
    terms = [[rng.choice((0, 0, 1, -3)) for _ in range(outer * source
                                                       * inner)]
             for _ in range(top + 1)]
    assert (_contract(terms, maps, target, inner, top)
            == _contract_by_divmod(terms, maps, target, inner, top))
