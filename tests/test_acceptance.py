"""Acceptance suite: ten exact criteria, one printed PASS/FAIL line each.

All checks run over exact field arithmetic; every equality below is
zero-tolerance.  Run with ``pytest -s tests/test_acceptance.py`` to see
the per-criterion lines as they complete.
"""

import itertools
import random

import pytest

from conftest import int_deformation

from diadeform.cochain import coboundary, cohomology_dim, random_cochain
from diadeform.deformation import (TruncatedDeformation, apply_formal_iso,
                                   extend_step, infinitesimal,
                                   leading_cocycle_check, obstruction,
                                   obstruction_certificate,
                                   random_deformation, random_formal_iso,
                                   rigidity_probe, trivialize_step,
                                   verify_deformation)
from diadeform.dialgebra import adjoint_rep
from diadeform.fields import QQ
from diadeform.morphism_complex import complex_of
from diadeform.selftest import run_selftest
from diadeform.trees import catalan, enumerate_trees, face

SEED = 987654321


def _report(num, label, ok):
    print("\nCRITERION %2d (%s): %s" % (num, label,
                                        "PASS" if ok else "FAIL"))
    assert ok, "criterion %d (%s) failed" % (num, label)


@pytest.fixture(scope="module")
def complexes(all_morphisms):
    return [(tag, complex_of(psi)) for tag, psi in all_morphisms]


def test_criterion_1_tree_calculus():
    ok = [catalan(m) for m in range(1, 6)] == [1, 2, 5, 14, 42]
    ok = ok and all(len(enumerate_trees(m)) == catalan(m)
                    for m in range(1, 6))
    for m in range(2, 6):
        for y in enumerate_trees(m):
            for i in range(m + 1):
                for j in range(i + 1, m + 1):
                    ok = ok and (face(face(y, j), i)
                                 == face(face(y, i), j - 1))
    _report(1, "tree calculus", ok)


def test_criterion_2_coboundary_squares_to_zero(all_dialgebras, complexes):
    rng = random.Random(SEED)
    ok = True
    for tag, d in all_dialgebras:
        rep = adjoint_rep(d)
        for n in range(0, 4):
            for _ in range(100):
                c = random_cochain(d, rep, n, rng)
                ok = ok and coboundary(coboundary(c)).is_zero()
    for tag, cx in complexes:
        for n in range(1, 4):
            for _ in range(100):
                mc = cx.random_cochain(n, rng)
                ok = ok and cx.coboundary(cx.coboundary(mc)).is_zero()
    _report(2, "coboundary squares to zero", ok)


def test_criterion_3_leading_coefficient_cocycle(complexes, bundled_models):
    rng = random.Random(SEED + 3)
    ok = True
    for tag, cx in complexes:
        for _ in range(50):
            th = random_deformation(cx.psi, 2, rng)
            ok = ok and verify_deformation(th).valid
            ok = ok and leading_cocycle_check(th).passed
    # closed-form check on the zero line: an order-1 deformation of the
    # identity is valid exactly when the two first-order products agree
    psi = bundled_models["zero1"].morphisms["id"]
    for l, r, lp, rp, s in itertools.product((-1, 0, 1), repeat=5):
        th = int_deformation(psi, [[l, r]], [[lp, rp]], [[[s]]])
        expected = (l == lp and r == rp)
        ok = ok and verify_deformation(th).valid == expected
    _report(3, "leading coefficients are 2-cocycles", ok)


def test_criterion_4_obstruction_is_cocycle(complexes):
    rng = random.Random(SEED + 4)
    ok = True
    for tag, cx in complexes:
        for order in (1, 2, 3, 4):
            th = random_deformation(cx.psi, order, rng)
            if th.order < 1:
                continue
            ob = obstruction(th)
            ok = ok and cx.coboundary(ob.cochain).is_zero()
    _report(4, "obstructions are 3-cocycles", ok)


def test_criterion_5_extension_biconditional(complexes, bundled_models):
    rng = random.Random(SEED + 5)
    ok = True
    # (i) every successful extension step re-verifies at the next order
    for tag, cx in complexes:
        for _ in range(5):
            th = random_deformation(cx.psi, 1, rng)
            if th.order < 1:
                continue
            nxt = extend_step(th)
            if nxt is not None:
                ok = ok and nxt.order == th.order + 1
                ok = ok and verify_deformation(nxt).valid
    # (ii) on the zero line, extension past order 1 works exactly when
    # the two first-order product coefficients coincide, and the blocked
    # certificate exhibits l(l-r) and r(l-r) as the nonzero tree values
    psi = bundled_models["zero1"].morphisms["id"]
    cx = complex_of(psi)
    for l, r in itertools.product((-2, -1, 0, 1, 2), repeat=2):
        th = int_deformation(psi, [[l, r]], [[l, r]], [[[0]]])
        nxt = extend_step(th)
        ok = ok and (nxt is not None) == (l == r)
        if l != r:
            ob = obstruction(th)
            values = [ob.cochain.xi.value(t, (0, 0, 0))[0]
                      for t in range(5)]
            expected = sorted([QQ.zero, QQ.zero, QQ.zero,
                               QQ.from_int(l * (l - r)),
                               QQ.from_int(r * (l - r))])
            ok = ok and sorted(values) == expected
            cert = obstruction_certificate(ob, cx)
            ok = ok and "not a coboundary" in cert
    _report(5, "extension iff obstruction bounds", ok)


def test_criterion_6_equivalent_infinitesimals(complexes):
    rng = random.Random(SEED + 6)
    ok = True
    for tag, cx in complexes:
        psi = cx.psi
        for _ in range(50):
            th = random_deformation(psi, 1, rng)
            if th.order < 1:
                th = TruncatedDeformation.trivial(psi, 1)
            iso = random_formal_iso(psi, 1, rng)
            transported = apply_formal_iso(th, iso)
            diff = infinitesimal(th) - infinitesimal(transported)
            ok = ok and diff == cx.coboundary(iso.beta(1))
    _report(6, "transported infinitesimals differ by a coboundary", ok)


def test_criterion_7_rigidity_of_the_multiplication_line(bundled_models):
    th = bundled_models["mult1"].deformations["oneplus"]
    iso, result = trivialize_step(th)
    ok = all(result.theta(k).is_zero()
             for k in range(1, result.order + 1))
    report = rigidity_probe(th.psi, order=4)
    ok = ok and report.hy2_dim == 0
    ok = ok and report.trivialized_samples == 5
    _report(7, "multiplication line is rigid", ok)


def test_criterion_8_vanishing_transfers_to_the_morphism(complexes):
    ok = True
    for tag, cx in complexes:
        for n in (2, 3):
            hy_d = cohomology_dim(cx.D, cx.D, n)
            hy_e = cohomology_dim(cx.E, cx.E, n)
            hy_de = cohomology_dim(cx.D, cx.rep_de, n - 1)
            if hy_d == hy_e == hy_de == 0:
                ok = ok and cx.cohomology_dim(n) == 0
    _report(8, "vanishing pieces force vanishing morphism cohomology", ok)


def test_criterion_9_cohomology_regressions(bundled_models):
    k = bundled_models["mult1"].dialgebras["K"]
    krep = adjoint_rep(k)
    z = bundled_models["zero1"].dialgebras["Z"]
    zrep = adjoint_rep(z)
    ok = (cohomology_dim(k, krep, 1) == 0
          and cohomology_dim(k, krep, 2) == 0
          and cohomology_dim(z, zrep, 2) == 2)
    _report(9, "cohomology regressions", ok)


def test_criterion_10_selftest_determinism():
    def capture():
        lines = []
        run_selftest(lambda name, okk, detail:
                     lines.append("%s %s %s" % (name, okk, detail)))
        return "\n".join(lines)

    first = capture()
    second = capture()
    ok = first == second and first
    ok = bool(ok) and "False" not in first
    _report(10, "selftest reports are byte-identical", ok)
