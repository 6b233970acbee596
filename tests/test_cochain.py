import itertools
import random

import pytest

from conftest import (change_basis, mirror, mult_dialgebra, random_frame,
                      tagged, zero_dialgebra)

from diadeform.cochain import (COORDINATE_BUDGET, Cochain, coboundary,
                               coboundary_matrix, cohomology_dim, cy_dim,
                               flat_offset, product_cochain, random_cochain)
from diadeform.dialgebra import (Dialgebra, DialgebraMorphism,
                                 Representation, adjoint_rep,
                                 check_dialgebra, check_morphism,
                                 pullback_rep)
from diadeform.errors import CapExceeded, ShapeMismatch
from diadeform.fields import QQ, GFElement, PrimeField
from diadeform.linalg import Matrix
from diadeform.models import load_bundled_model
from diadeform.morphism_complex import MorphismComplex
from diadeform.trees import ProductLabel, catalan, tree_plan

LEFT = ProductLabel.LEFT


def test_cy_dim():
    d = zero_dialgebra(2)
    rep = adjoint_rep(d)
    for n in range(4):
        assert cy_dim(d, rep, n) == catalan(n) * 2 ** n * 2 if n else 2
    k = mult_dialgebra()
    krep = adjoint_rep(k)
    assert [cy_dim(k, krep, n) for n in range(5)] == [1, 1, 2, 5, 14]


def test_degree0_coboundary_on_mult():
    # for the multiplication structure the degree-0 formula
    # a -| m  -  m |- a  vanishes identically
    d = mult_dialgebra()
    rep = adjoint_rep(d)
    c = Cochain(0, d, rep, [QQ.one])
    assert coboundary(c).is_zero()


def test_degree0_coboundary_formula():
    # the degree-0 formula is m |-> (a |-> a -| m - m |- a); probe it on
    # a raw structure with left = multiplication and right = 0, where
    # the two terms cannot cancel
    d = Dialgebra(1, QQ, left=[[[QQ.one]]], right=[[[QQ.zero]]])
    rep = adjoint_rep(d)
    c = Cochain(0, d, rep, [QQ.one])
    g = coboundary(c)
    assert g.value(0, (0,)) == (QQ.one,)


def test_coboundary_squares_to_zero(rng, all_dialgebras):
    for tag, d in all_dialgebras:
        rep = adjoint_rep(d)
        for n in range(0, 3):
            c = random_cochain(d, rep, n, rng)
            assert coboundary(coboundary(c)).is_zero(), (tag, n)


def test_adjoint_complex_matches_an_explicit_representation(
        bundled_models, gf7_models):
    # CY*(D,D) with D as its own module against a Representation that
    # holds D's products as four separately coerced action tensors
    rng = random.Random(16)
    for models in (bundled_models, gf7_models):
        for tag, d in tagged(models, "dialgebras"):
            rep = Representation(d, d.dim, d.left, d.right, d.left, d.right)
            for n in range(4):
                c = random_cochain(d, d, n, rng)
                assert coboundary(c).coeffs == coboundary(
                    Cochain(n, d, rep, c.coeffs)).coeffs, (tag, n)
                assert coboundary_matrix(d, d, n) \
                    == coboundary_matrix(d, rep, n), (tag, n)
                assert cohomology_dim(d, d, n) \
                    == cohomology_dim(d, rep, n), (tag, n)


def coboundary_cases(bundled_models, gf7_models):
    """(tag, D, M) over QQ and GF(7): every bundled dialgebra's adjoint
    representation and every bundled morphism's pullback representation,
    whose dialgebra and module dims differ (emb: 1 and 2, proj: 2 and 1).
    proj's actions are zero, so one more case has every action constant
    nonzero: P2 in the basis e, e + f, where x -| y = s(y) x and
    x |- y = s(x) y, pulled back to K along the sum of coordinates s."""
    cases = []
    for models in (bundled_models, gf7_models):
        cases += [(tag, d, adjoint_rep(d))
                  for tag, d in tagged(models, "dialgebras")]
        cases += [(tag + "*", psi.source, pullback_rep(psi))
                  for tag, psi in tagged(models, "morphisms")]
        k = models["dim2"].dialgebras["K"]
        one, zero = k.field.one, k.field.zero
        unit = [[one, zero], [zero, one]]
        d = Dialgebra(2, k.field, [[row, row] for row in unit], [unit, unit])
        s = DialgebraMorphism(d, k, [[one, one]])
        assert check_dialgebra(d) and check_morphism(s)
        cases.append(("sum*", d, pullback_rep(s)))
    return cases


def test_elementwise_matches_matrix(rng, bundled_models, gf7_models):
    # the elementwise formula and the assembled matrix sum and write the
    # same terms in different arithmetic; they must agree on random input
    for tag, d, rep in coboundary_cases(bundled_models, gf7_models):
        for n in range(0, 5):
            c = random_cochain(d, rep, n, rng)
            mat = coboundary_matrix(d, rep, n)
            assert mat.apply(c.coeffs) == coboundary(c).coeffs, (tag, n)


def reference_coboundary_matrix(d, rep, n):
    """The matrix of delta assembled row by row, one row block per tree
    and multi-index, with every column offset computed by ``flat_offset``
    from the multi-index: an index computation independent of the term
    plan that both coboundary paths read."""
    z = d.field.zero
    mdim, ddim = rep.module_dim, d.dim
    data = {}
    row = 0

    def add(i, j, val):
        r = data.setdefault(i, {})
        r[j] = r[j] + val if j in r else val

    for faces, labels in tree_plan(n + 1):
        first = rep.act_dl if labels[0] is LEFT else rep.act_dr
        products = [d.tensor(label) for label in labels[1:-1]]
        last = rep.act_ld if labels[-1] is LEFT else rep.act_rd
        for multi in itertools.product(range(ddim), repeat=n + 1):
            col = flat_offset(faces[0], multi[1:], ddim, mdim)
            for u, block in enumerate(first[multi[0]]):
                for w in range(mdim):
                    if block[w] != z:
                        add(row + w, col + u, block[w])
            for i in range(1, n + 1):
                prod = products[i - 1][multi[i - 1]][multi[i]]
                for k in range(ddim):
                    if prod[k] == z:
                        continue
                    col = flat_offset(faces[i],
                                      multi[:i - 1] + (k,) + multi[i + 1:],
                                      ddim, mdim)
                    c = prod[k] if i % 2 == 0 else -prod[k]
                    for w in range(mdim):
                        add(row + w, col + w, c)
            col = flat_offset(faces[n + 1], multi[:n], ddim, mdim)
            for u in range(mdim):
                block = last[u][multi[n]]
                for w in range(mdim):
                    if block[w] != z:
                        add(row + w, col + u,
                            block[w] if n % 2 else -block[w])
            row += mdim
    return Matrix.sparse(d.field, cy_dim(d, rep, n + 1), cy_dim(d, rep, n),
                         data)


def test_matrix_matches_row_by_row_reference(bundled_models, gf7_models):
    # the term plan's offset tables against a second derivation of every
    # index, in degrees 0-4 within the coordinate budget
    for tag, d, rep in coboundary_cases(bundled_models, gf7_models):
        for n in range(0, 5):
            if cy_dim(d, rep, n + 1) > COORDINATE_BUDGET:
                continue
            assert (coboundary_matrix(d, rep, n)
                    == reference_coboundary_matrix(d, rep, n)), (tag, n)


@pytest.mark.parametrize("p", [2, 7, 32003])
def test_coboundary_commutes_with_reduction_mod_p(p, bundled_models):
    # delta over GF(p) of an integer cochain is the QQ delta of the same
    # integers, reduced mod p: the bundled structure constants are integers
    gf = PrimeField(p)
    for name, model in bundled_models.items():
        gf_model = load_bundled_model(name, field_override=gf)
        for key, d in model.dialgebras.items():
            dp = gf_model.dialgebras[key]
            rep, rep_p = adjoint_rep(d), adjoint_rep(dp)
            rng = random.Random(p)
            for n in range(3):
                ints = [rng.randint(-10 ** 5, 10 ** 5)
                        for _ in range(cy_dim(d, rep, n))]
                over_qq = coboundary(Cochain(n, d, rep, ints)).coeffs
                over_gf = coboundary(Cochain(n, dp, rep_p,
                                             map(gf.from_int, ints))).coeffs
                assert all(type(x) is int for x in over_qq)
                assert over_gf == tuple(map(gf.from_int, over_qq)), (key, n)


def test_gf_coboundary_does_no_element_arithmetic(monkeypatch):
    # the elementwise path sums lifted numbers: a GF(p) coboundary makes no
    # GFElement sum, difference, product or negation, also on emb's
    # pullback representation, whose action tensors are not D's products
    gf = PrimeField(32003)
    model = load_bundled_model("dim2", field_override=gf)
    d, emb = model.dialgebras["P2"], model.morphisms["emb"]
    rng = random.Random(7)
    cochains = [random_cochain(d, adjoint_rep(d), 2, rng),
                random_cochain(emb.source, pullback_rep(emb), 3, rng)]
    expected = [coboundary_matrix(c.dialgebra, c.rep, c.degree).apply(c.coeffs)
                for c in cochains]
    calls = []

    def counted(name, method):
        def wrapper(*args):
            calls.append(name)
            return method(*args)
        return wrapper

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__neg__"):
        monkeypatch.setattr(GFElement, name,
                            counted(name, getattr(GFElement, name)))
    got = [coboundary(c) for c in cochains]
    monkeypatch.undo()
    assert calls == []
    for g, coeffs in zip(got, expected):
        assert g.coeffs == coeffs and not g.is_zero()


def test_vec_unvec_roundtrip(rng):
    d = zero_dialgebra(2)
    rep = adjoint_rep(d)
    c = random_cochain(d, rep, 2, rng)
    assert Cochain(2, d, rep, c.coeffs) == c


def test_cohomology_mult_vanishes():
    d = mult_dialgebra()
    rep = adjoint_rep(d)
    assert cohomology_dim(d, rep, 1) == 0
    assert cohomology_dim(d, rep, 2) == 0


def test_cohomology_zero_dialgebra():
    # with zero products every cochain is a cocycle and only 0 is a
    # coboundary, so HY^n is the full cochain space
    d = zero_dialgebra(1)
    rep = adjoint_rep(d)
    assert cohomology_dim(d, rep, 1) == 1
    assert cohomology_dim(d, rep, 2) == 2
    assert cohomology_dim(d, rep, 3) == 5


def test_mirror_leaves_cohomology_unchanged(all_dialgebras):
    dims = {}
    for tag, d in all_dialgebras:
        op = mirror(d)
        assert check_dialgebra(op).valid, tag
        dims[tag] = [cohomology_dim(d, adjoint_rep(d), n) for n in range(4)]
        assert [cohomology_dim(op, adjoint_rep(op), n)
                for n in range(4)] == dims[tag], tag
    assert dims["dim2.P2"] == [2, 2, 0, 0]


def test_change_of_basis_leaves_cohomology_unchanged(all_dialgebras):
    rng = random.Random(2024)
    dims = {}
    for tag, d in all_dialgebras:
        moved = change_basis(d, *random_frame(d.field, d.dim, rng))
        assert check_dialgebra(moved).valid, tag
        dims[tag] = [cohomology_dim(d, adjoint_rep(d), n) for n in range(4)]
        assert [cohomology_dim(moved, adjoint_rep(moved), n)
                for n in range(4)] == dims[tag], tag
        if tag == "dim2.P2":
            assert moved != d
    assert dims["dim2.P2"] == [2, 2, 0, 0]


def test_cohomology_dim2_example():
    d = load_bundled_model("dim2").dialgebras["P2"]
    rep = adjoint_rep(d)
    assert cohomology_dim(d, rep, 2) == 0
    assert cohomology_dim(d, rep, 3) == 0


def test_product_cochain_values():
    d = mult_dialgebra()
    c = product_cochain(d)
    # position 0 holds the left product, position 1 the right product
    assert c.value(0, (0, 0)) == d.left[0][0]
    assert c.value(1, (0, 0)) == d.right[0][0]


def test_cochain_arithmetic(rng):
    d = zero_dialgebra(2)
    rep = adjoint_rep(d)
    a = random_cochain(d, rep, 2, rng)
    b = random_cochain(d, rep, 2, rng)
    assert (a + b) - b == a
    assert (a - a).is_zero()
    assert (-a) + a == (a - a)


def test_incompatible_cochains_rejected(rng):
    d = zero_dialgebra(2)
    rep = adjoint_rep(d)
    a = random_cochain(d, rep, 1, rng)
    b = random_cochain(d, rep, 2, rng)
    with pytest.raises(ShapeMismatch):
        a + b


def test_coboundary_respects_cap(rng):
    d = zero_dialgebra(1)
    rep = adjoint_rep(d)
    c = random_cochain(d, rep, 5, rng)
    with pytest.raises(CapExceeded):
        coboundary(c)
    # both paths reach the cap and agree there, and neither goes past it;
    # nor do the push-forward and pull-back of a morphism complex
    k = mult_dialgebra()
    rep = adjoint_rep(k)
    c = random_cochain(k, rep, 4, rng)
    dc = coboundary(c)
    assert coboundary_matrix(k, rep, 4).apply(c.coeffs) == dc.coeffs
    assert len(list(dc.nonzero_values())) == sum(
        1 for x in dc.coeffs if x != QQ.zero)
    with pytest.raises(CapExceeded, match="coboundary would exceed"):
        coboundary(dc)
    with pytest.raises(CapExceeded, match="matrix would exceed tree cap 5"):
        coboundary_matrix(k, rep, 5)
    cx = MorphismComplex(DialgebraMorphism.identity(k))
    xi = random_cochain(k, cx.D, 6, rng)
    pi = random_cochain(k, cx.E, 6, rng)
    for over_cap in (lambda: cx.push_matrix(6),
                     lambda: cx.pull_matrix(6),
                     lambda: cx.push_forward(xi),
                     lambda: cx.pull_back(pi)):
        with pytest.raises(CapExceeded, match="tree degree 6 exceeds cap 5"):
            over_cap()


def test_coboundary_paths_respect_the_coordinate_budget():
    # CY^3 of an 8-dim dialgebra has 20480 coordinates and CY^4 has 458752,
    # over the budget: both paths refuse before building anything
    d = zero_dialgebra(8)
    rep = adjoint_rep(d)
    assert cy_dim(d, rep, 3) <= COORDINATE_BUDGET < cy_dim(d, rep, 4)
    c = Cochain.zero(3, d, rep)
    with pytest.raises(CapExceeded, match="budget"):
        coboundary(c)
    with pytest.raises(CapExceeded, match="budget"):
        coboundary_matrix(d, rep, 3)
    with pytest.raises(CapExceeded, match="budget"):
        MorphismComplex(DialgebraMorphism.identity(d)).matrix(3)
    assert coboundary(Cochain.zero(2, d, rep)).is_zero()

