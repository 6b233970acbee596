import itertools

from hypothesis import given, settings, strategies as st

from conftest import mult_dialgebra, zero_dialgebra

from diadeform.dialgebra import (AXIOMS, Dialgebra, DialgebraMorphism,
                                 Representation, adjoint_rep,
                                 check_dialgebra, check_morphism,
                                 check_representation, pullback_rep)
from diadeform.fields import QQ, PrimeField, Series, SeriesRing
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


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(dialgebras))
def test_check_dialgebra_matches_reference(d):
    assert _matches(check_dialgebra(d), _ref_axioms(d, None, "DDD"))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(representations))
def test_check_representation_matches_reference(d_rep):
    d, rep = d_rep
    assert _matches(check_representation(d, rep),
                    ref_check_representation(d, rep))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(morphisms))
def test_check_morphism_and_pullback_match_reference(psi):
    assert _matches(check_morphism(psi), ref_check_morphism(psi))
    rep = pullback_rep(psi)
    assert ((rep.act_dl, rep.act_dr, rep.act_ld, rep.act_rd)
            == ref_pullback_tensors(psi))
