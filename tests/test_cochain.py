import random

import pytest

from conftest import (change_basis, mirror, mult_dialgebra, random_cochain,
                      random_frame, tagged, zero_dialgebra)

from diadeform.cochain import (COORDINATE_BUDGET, Cochain, coboundary,
                               coboundary_matrix, cohomology_dim, cy_dim,
                               product_cochain)
from diadeform.dialgebra import (DialgebraMorphism, adjoint_rep,
                                 check_dialgebra)
from diadeform.errors import CapExceeded, ShapeMismatch
from diadeform.fields import QQ
from diadeform.morphism_complex import MorphismComplex
from diadeform.trees import catalan


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
    from diadeform.dialgebra import Dialgebra
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


def test_elementwise_matches_matrix(rng, all_dialgebras, gf7_models):
    # the hand-rolled elementwise formula and the assembled matrix are
    # independent implementations; they must agree on random input
    for tag, d in all_dialgebras + tagged(gf7_models, "dialgebras"):
        rep = adjoint_rep(d)
        for n in range(0, 3):
            c = random_cochain(d, rep, n, rng)
            mat = coboundary_matrix(d, rep, n)
            assert mat.apply(c.coeffs) == coboundary(c).coeffs, (tag, n)


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
    from diadeform.models import load_bundled_model
    d = load_bundled_model("dim2").dialgebras["P2"]
    rep = adjoint_rep(d)
    assert cohomology_dim(d, rep, 2) == 0
    assert cohomology_dim(d, rep, 3) == 0


def test_product_cochain_values():
    d = mult_dialgebra()
    c = product_cochain(d)
    e = (QQ.one,)
    # position 0 holds the left product, position 1 the right product
    assert c.evaluate(0, (e, e)) == d.left[0][0]
    assert c.evaluate(1, (e, e)) == d.right[0][0]


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
    xi = random_cochain(k, cx.rep_d, 6, rng)
    pi = random_cochain(k, cx.rep_e, 6, rng)
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

