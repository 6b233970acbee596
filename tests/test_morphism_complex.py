import itertools
import random
import weakref

import pytest

from conftest import (change_basis, mat_mul, mirror, mult_dialgebra,
                      randint_sequence, random_frame, reference_delta,
                      tagged, zero_dialgebra)

from diadeform import dialgebra, morphism_complex
from diadeform.cochain import (COORDINATE_BUDGET, coboundary,
                               coboundary_matrix, cy_dim, random_cochain)
from diadeform.dialgebra import (Dialgebra, DialgebraMorphism, adjoint_rep,
                                 check_morphism, pullback_rep)
from diadeform.errors import CapExceeded, ShapeMismatch
from diadeform.fields import QQ, PrimeField
from diadeform.linalg import Matrix
from diadeform.models import bundled_model_names, load_bundled_model
from diadeform.morphism_complex import (MorphismCochain, MorphismComplex,
                                        complex_of)
from diadeform.trees import enumerate_trees


@pytest.fixture(scope="module")
def complexes(all_morphisms):
    return [(tag, MorphismComplex(psi)) for tag, psi in all_morphisms]


@pytest.fixture(scope="module")
def gf7_complexes(gf7_models):
    return [("gf7 " + tag, MorphismComplex(psi))
            for tag, psi in tagged(gf7_models, "morphisms")]


def test_random_cochains_draw_in_flat_order(complexes):
    # one draw per coordinate, xi then pi then phi: vec's (xi | pi | phi)
    for tag, cx in complexes:
        rng = random.Random(5)
        mc = cx.random_cochain(2, rng)
        ints, state = randint_sequence(5, -3, 3, cx.dim(2))
        assert cx.vec(mc) == tuple(map(cx.field.from_int, ints)), tag
        assert rng.getstate() == state, tag


def test_dims(complexes):
    for tag, cx in complexes:
        assert cx.dim(0) == 0, tag
        for n in (1, 2, 3):
            expected = (cy_dim(cx.D, cx.D, n)
                        + cy_dim(cx.E, cx.E, n)
                        + cy_dim(cx.D, cx.rep_de, n - 1))
            assert cx.dim(n) == expected, tag


def test_coboundary_squares_to_zero(rng, complexes):
    for tag, cx in complexes:
        for n in (1, 2):
            mc = cx.random_cochain(n, rng)
            assert cx.coboundary(cx.coboundary(mc)).is_zero(), (tag, n)


def test_third_block_formula(rng, complexes, gf7_complexes):
    # delta(xi; pi; phi) third block is push(xi) - pull(pi) - delta(phi)
    for tag, cx in complexes + gf7_complexes:
        mc = cx.random_cochain(2, rng)
        out = cx.coboundary(mc)
        assert out.xi == coboundary(mc.xi), tag
        assert out.pi == coboundary(mc.pi), tag
        expected = (cx.push_forward(mc.xi) - cx.pull_back(mc.pi)
                    - coboundary(mc.phi))
        assert out.phi == expected, tag


def test_elementwise_matches_matrix(rng, complexes, gf7_complexes):
    for tag, cx in complexes + gf7_complexes:
        for n in (1, 2):
            mc = cx.random_cochain(n, rng)
            assert (cx.matrix(n).apply(cx.vec(mc))
                    == cx.vec(cx.coboundary(mc))), (tag, n)


@pytest.mark.parametrize("p", [2, 7, 32003])
def test_coboundary_commutes_with_reduction_mod_p(p, bundled_models):
    # as for CY*(D,M): the GF(p) delta of an integer morphism cochain is
    # the QQ delta reduced mod p (degree 0 is the zero module)
    gf = PrimeField(p)
    for name, model in bundled_models.items():
        gf_model = load_bundled_model(name, field_override=gf)
        for key, psi in model.morphisms.items():
            cx = MorphismComplex(psi)
            cx_p = MorphismComplex(gf_model.morphisms[key])
            rng = random.Random(p)
            for n in (1, 2):
                ints = [rng.randint(-10 ** 5, 10 ** 5)
                        for _ in range(cx.dim(n))]
                over_qq = cx.vec(cx.coboundary(cx.unvec(n, ints)))
                over_gf = cx_p.vec(cx_p.coboundary(
                    cx_p.unvec(n, tuple(map(gf.from_int, ints)))))
                assert all(type(x) is int for x in over_qq)
                assert over_gf == tuple(map(gf.from_int, over_qq)), (key, n)


def test_delta_matches_its_dense_block_reference(complexes, gf7_complexes):
    # the one-table assembly against the five blocks assembled on their
    # own and placed densely, on every bundled morphism, identities among
    # them, over QQ and GF(7); neither stores a zero entry
    for tag, cx in complexes + gf7_complexes:
        z = cx.field.zero
        for n in range(4):
            got = cx.matrix(n)
            assert got == reference_delta(cx, n), (tag, n)
            blocks = [got, coboundary_matrix(cx.D, cx.D, n)]
            if n:
                blocks.append(coboundary_matrix(cx.D, cx.rep_de, n - 1))
            assert not any(x == z for m in blocks for _, _, x in m.entries())


def test_delta_checks_every_block_before_it_allocates(monkeypatch):
    # psi: Z1 -> Z8 between zero dialgebras: delta^3's D block is small and
    # its E block is over the coordinate budget, so matrix(3) refuses
    # before it sizes the table or writes a block
    psi = DialgebraMorphism(zero_dialgebra(1), zero_dialgebra(8, "Z8"),
                            [[0]] * 8)
    cx = MorphismComplex(psi)
    assert (cy_dim(cx.D, cx.D, 4) < COORDINATE_BUDGET
            < cy_dim(cx.E, cx.E, 4))
    calls = []
    monkeypatch.setattr(MorphismComplex, "dim",
                        lambda self, n: calls.append(("dim", n)))
    monkeypatch.setattr(morphism_complex, "write_coboundary_matrix",
                        lambda *args: calls.append("write"))
    with pytest.raises(CapExceeded, match="CY\\^4 has 458752 coordinates"):
        cx.matrix(3)
    assert calls == []


def test_push_pull_match_matrices(rng, complexes):
    for tag, cx in complexes:
        for n in (1, 2):
            xi = random_cochain(cx.D, cx.D, n, rng)
            pi = random_cochain(cx.E, cx.E, n, rng)
            assert (cx.push_matrix(n).apply(xi.coeffs)
                    == cx.push_forward(xi).coeffs), tag
            assert (cx.pull_matrix(n).apply(pi.coeffs)
                    == cx.pull_back(pi).coeffs), tag


def _push_reference(cx, xi):
    """(psi.xi)(y; a) = psi(xi(y; a)), from the dense matrix of psi."""
    f, psi = cx.field, cx.psi.matrix
    out = []
    for t in range(len(enumerate_trees(xi.degree))):
        for a in itertools.product(range(cx.D.dim), repeat=xi.degree):
            v = xi.value(t, a)
            out += [sum((psi[w, u] * v[u] for u in range(cx.D.dim)), f.zero)
                    for w in range(cx.E.dim)]
    return out


def _pull_reference(cx, pi):
    """(pi.psi)(y; a_1..a_n) = sum over b of prod_i psi[b_i, a_i] pi(y; b)."""
    f, psi, n = cx.field, cx.psi.matrix, pi.degree
    out = []
    for t in range(len(enumerate_trees(n))):
        for a in itertools.product(range(cx.D.dim), repeat=n):
            v = [f.zero] * cx.E.dim
            for b in itertools.product(range(cx.E.dim), repeat=n):
                c = f.one
                for bi, ai in zip(b, a):
                    c = c * psi[bi, ai]
                v = [x + c * y for x, y in zip(v, pi.value(t, b))]
            out += v
    return out


def _reference_complexes(all_morphisms):
    """Every bundled morphism; a change of basis P2 -> P2' whose matrix
    has no zero entry; Z2 -> Z2 by [[7, 1], [2, 7]] over QQ and GF(7),
    where its diagonal vanishes."""
    out = [(tag, MorphismComplex(psi)) for tag, psi in all_morphisms]
    p2 = load_bundled_model("dim2").dialgebras["P2"]
    p, p_inv = random_frame(QQ, 2, random.Random(3))
    assert all(x != 0 for row in p.dense_rows() for x in row)
    out.append(("P2 -> P2'", MorphismComplex(
        DialgebraMorphism(p2, change_basis(p2, p, p_inv), p))))
    for f in (QQ, PrimeField(7)):
        z2 = Dialgebra(2, f, name="Z2")
        m = Matrix(f, 2, 2, [[f.from_int(7), f.one], [f.from_int(2),
                                                      f.from_int(7)]])
        out.append(("Z2 %r" % f, MorphismComplex(
            DialgebraMorphism(z2, z2, m))))
    return out


def test_push_pull_match_their_definitions(rng, all_morphisms,
                                          gf7_complexes):
    # degrees 1-3 on every case, and degree 4 where psi widens (emb,
    # dim D < dim E) and where it narrows (proj, dim D > dim E)
    for tag, cx in _reference_complexes(all_morphisms) + gf7_complexes:
        assert check_morphism(cx.psi), tag
        wide = tag.split()[-1] in ("dim2.emb", "zero2.proj")
        for n in (1, 2, 3, 4) if wide else (1, 2, 3):
            xi = random_cochain(cx.D, cx.D, n, rng)
            pi = random_cochain(cx.E, cx.E, n, rng)
            assert list(cx.push_forward(xi).coeffs) == _push_reference(
                cx, xi), (tag, n)
            assert list(cx.pull_back(pi).coeffs) == _pull_reference(
                cx, pi), (tag, n)


def test_vec_unvec_roundtrip(rng, complexes):
    for tag, cx in complexes:
        mc = cx.random_cochain(2, rng)
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
                                  mat_mul(mat_mul(p_e, cx.psi.matrix),
                                          p_d_inv),
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
        mc = cx.random_cochain(1, rng)
        nm = cx.normalize_1cochain(mc)
        assert nm.phi.is_zero(), tag
        assert cx.coboundary(mc) == cx.coboundary(nm), tag


def test_cochain_block_shape_checked(rng, complexes):
    tag, cx = complexes[0]
    with pytest.raises(ShapeMismatch):
        MorphismCochain(random_cochain(cx.D, cx.D, 1, rng),
                        random_cochain(cx.E, cx.E, 2, rng),
                        random_cochain(cx.D, cx.rep_de, 0, rng))


def test_complex_reads_psi_once(monkeypatch, all_morphisms):
    # one graded map of psi gives rep_de and both paths of the third block
    graded_map, calls = dialgebra._graded_map, []

    def counted(field, mats):
        calls.append(len(mats))
        return graded_map(field, mats)

    for module in (dialgebra, morphism_complex):
        monkeypatch.setattr(module, "_graded_map", counted)
    built = []
    for tag, psi in all_morphisms:
        calls.clear()
        built.append((tag, psi, MorphismComplex(psi)))
        assert calls == [1], tag
    monkeypatch.undo()
    for tag, psi, cx in built:
        assert cx.rep_de == pullback_rep(psi), tag


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
