import random
import weakref

import pytest

from conftest import (change_basis, mirror, mult_dialgebra, random_cochain,
                      random_frame, tagged)

from diadeform.cochain import Cochain, coboundary, coboundary_matrix, cy_dim
from diadeform.dialgebra import (DialgebraMorphism, adjoint_rep,
                                 check_morphism)
from diadeform.errors import ShapeMismatch
from diadeform.fields import QQ, PrimeField
from diadeform.models import bundled_model_names, load_bundled_model
from diadeform.morphism_complex import (MorphismCochain, MorphismComplex,
                                        complex_of)


def random_mc(cx, n, rng):
    return MorphismCochain(random_cochain(cx.D, cx.rep_d, n, rng),
                           random_cochain(cx.E, cx.rep_e, n, rng),
                           random_cochain(cx.D, cx.rep_de, n - 1, rng))


@pytest.fixture(scope="module")
def complexes(all_morphisms):
    return [(tag, MorphismComplex(psi)) for tag, psi in all_morphisms]


@pytest.fixture(scope="module")
def gf7_complexes(gf7_models):
    return [("gf7 " + tag, MorphismComplex(psi))
            for tag, psi in tagged(gf7_models, "morphisms")]


def test_dims(complexes):
    for tag, cx in complexes:
        assert cx.dim(0) == 0, tag
        for n in (1, 2, 3):
            expected = (cy_dim(cx.D, cx.rep_d, n)
                        + cy_dim(cx.E, cx.rep_e, n)
                        + cy_dim(cx.D, cx.rep_de, n - 1))
            assert cx.dim(n) == expected, tag


def test_coboundary_squares_to_zero(rng, complexes):
    for tag, cx in complexes:
        for n in (1, 2):
            mc = random_mc(cx, n, rng)
            assert cx.coboundary(cx.coboundary(mc)).is_zero(), (tag, n)


def test_third_block_formula(rng, complexes):
    # delta(xi; pi; phi) third block is push(xi) - pull(pi) - delta(phi)
    for tag, cx in complexes:
        mc = random_mc(cx, 2, rng)
        out = cx.coboundary(mc)
        assert out.xi == coboundary(mc.xi), tag
        assert out.pi == coboundary(mc.pi), tag
        expected = (cx.push_forward(mc.xi) - cx.pull_back(mc.pi)
                    - coboundary(mc.phi))
        assert out.phi == expected, tag


def test_elementwise_matches_matrix(rng, complexes, gf7_complexes):
    for tag, cx in complexes + gf7_complexes:
        for n in (1, 2):
            mc = random_mc(cx, n, rng)
            assert (cx.matrix(n).apply(cx.vec(mc))
                    == cx.vec(cx.coboundary(mc))), (tag, n)


def test_push_pull_match_matrices(rng, complexes):
    for tag, cx in complexes:
        for n in (1, 2):
            xi = random_cochain(cx.D, cx.rep_d, n, rng)
            pi = random_cochain(cx.E, cx.rep_e, n, rng)
            assert (cx.push_matrix(n).apply(xi.coeffs)
                    == cx.push_forward(xi).coeffs), tag
            assert (cx.pull_matrix(n).apply(pi.coeffs)
                    == cx.pull_back(pi).coeffs), tag


def test_vec_unvec_roundtrip(rng, complexes):
    for tag, cx in complexes:
        mc = random_mc(cx, 2, rng)
        assert cx.unvec(2, cx.vec(mc)) == mc, tag


def test_cohomology_identity_morphisms(bundled_models):
    cx = MorphismComplex(bundled_models["mult1"].morphisms["id"])
    assert [cx.cohomology_dim(n) for n in (1, 2, 3)] == [1, 0, 0]
    cx = MorphismComplex(bundled_models["zero1"].morphisms["id"])
    assert [cx.cohomology_dim(n) for n in (1, 2, 3)] == [2, 2, 5]
    cx = MorphismComplex(bundled_models["dim2"].morphisms["id"])
    assert [cx.cohomology_dim(n) for n in (1, 2, 3)] == [4, 0, 0]


def test_mirror_leaves_morphism_cohomology_unchanged(complexes):
    # psi is also a morphism D^op -> E^op, with the same matrix
    dims = {}
    for tag, cx in complexes:
        op = DialgebraMorphism(mirror(cx.D), mirror(cx.E), cx.psi.matrix,
                               name=cx.psi.name)
        assert check_morphism(op).valid, tag
        dims[tag] = [cx.cohomology_dim(n) for n in (1, 2)]
        op_cx = MorphismComplex(op)
        assert [op_cx.cohomology_dim(n) for n in (1, 2)] == dims[tag], tag
    assert dims["zero2.proj"] == [4, 10]


def test_change_of_basis_leaves_morphism_cohomology_unchanged(complexes):
    # with D and E rewritten by P_D and P_E, psi' = P_E psi P_D^-1
    rng = random.Random(2024)
    dims = {}
    for tag, cx in complexes:
        p_d, p_d_inv = random_frame(cx.field, cx.D.dim, rng)
        p_e, p_e_inv = random_frame(cx.field, cx.E.dim, rng)
        moved = DialgebraMorphism(change_basis(cx.D, p_d, p_d_inv),
                                  change_basis(cx.E, p_e, p_e_inv),
                                  p_e * cx.psi.matrix * p_d_inv,
                                  name=cx.psi.name)
        assert check_morphism(moved).valid, tag
        dims[tag] = [cx.cohomology_dim(n) for n in (1, 2)]
        moved_cx = MorphismComplex(moved)
        assert [moved_cx.cohomology_dim(n)
                for n in (1, 2)] == dims[tag], tag
    assert dims["zero2.proj"] == [4, 10]


def test_normalize_1cochain(rng, complexes):
    # normalization zeroes the connecting block without changing the
    # coboundary, so cocycles stay cocycles
    for tag, cx in complexes:
        mc = random_mc(cx, 1, rng)
        nm = cx.normalize_1cochain(mc)
        assert nm.phi.is_zero(), tag
        assert cx.coboundary(mc) == cx.coboundary(nm), tag


def test_cochain_block_shape_checked(rng, complexes):
    tag, cx = complexes[0]
    with pytest.raises(ShapeMismatch):
        MorphismCochain(random_cochain(cx.D, cx.rep_d, 1, rng),
                        random_cochain(cx.E, cx.rep_e, 2, rng),
                        random_cochain(cx.D, cx.rep_de, 0, rng))


def test_complex_of_is_shared_while_held():
    psi = DialgebraMorphism.identity(mult_dialgebra())
    cx = complex_of(psi)
    assert complex_of(psi) is cx and cx.psi is psi
    assert complex_of(DialgebraMorphism.identity(cx.D)) is not cx


def test_complex_of_is_freed_with_its_last_holder():
    # the memo keeps no complex, or its matrices, alive by itself
    psi = DialgebraMorphism.identity(mult_dialgebra())
    cx = complex_of(psi)
    cx.matrix(2)
    ref = weakref.ref(cx)
    del cx
    assert ref() is None
    assert complex_of(psi).cohomology_dim(2) == 0


def test_rank_over_qq_and_prime_fields():
    # an integer matrix reduced mod p can only lose rank, and keeps it for
    # a prime that divides none of the minors deciding the rank
    fields = (QQ, PrimeField(32003), PrimeField(2), PrimeField(3))
    by_field = [{name: load_bundled_model(name, field_override=f)
                 for name in bundled_model_names()} for f in fields]

    def ranks(models):
        out = []
        for name, model in sorted(models.items()):
            for d in model.dialgebras.values():
                out += [coboundary_matrix(d, adjoint_rep(d), n).rank()
                        for n in range(4)]
            if name in ("mult1", "dim2"):
                for psi in model.morphisms.values():
                    cx = MorphismComplex(psi)
                    out += [cx.matrix(n).rank() for n in (1, 2)]
        return out

    qq, generic, gf2, gf3 = map(ranks, by_field)
    assert generic == qq
    assert all(a <= b for a, b in zip(gf2, qq))
    assert all(a <= b for a, b in zip(gf3, qq))
