"""The bundled invariant suite behind the `selftest` CLI command.

Runs the structural identities (simplicial identities, delta^2 = 0, the
cocycle properties, the extension biconditional, equivalence transport, and
trivialization) on every bundled model with a fixed random seed, emitting
one deterministic PASS/FAIL line per check.
"""

import random

from .cochain import Cochain, coboundary, cy_dim
from .deformation import (FormalIso, MorphismCochain, TruncatedDeformation,
                          apply_formal_iso, cocycle_check, extend_step,
                          infinitesimal, leading_cocycle_check,
                          matrix_to_cochain1, obstruction,
                          random_deformation, trivialize_step,
                          verify_deformation)
from .dialgebra import adjoint_rep, check_dialgebra, check_morphism
from .errors import NotACoboundary
from .linalg import Matrix
from .models import bundled_model_names, load_bundled_model
from .morphism_complex import MorphismComplex
from .trees import catalan, enumerate_trees, face

SELFTEST_SEED = 20240517


def _random_cochain(d, rep, n, rng):
    f = d.field
    return Cochain(n, d, rep,
                   [f.from_int(rng.randint(-3, 3))
                    for _ in range(cy_dim(d, rep, n))])


def _random_mc(cx, n, rng):
    return MorphismCochain(_random_cochain(cx.D, cx.rep_d, n, rng),
                           _random_cochain(cx.E, cx.rep_e, n, rng),
                           _random_cochain(cx.D, cx.rep_de, n - 1, rng))


def run_selftest(emit, samples=5):
    """Run every check; emit(name, ok, detail) per check.  Returns bool."""
    rng = random.Random(SELFTEST_SEED)
    all_ok = True

    def check(name, ok, detail=""):
        nonlocal all_ok
        all_ok = all_ok and bool(ok)
        emit(name, bool(ok), detail)

    # tree calculus
    ok = all(len(enumerate_trees(m)) == catalan(m) for m in range(1, 6))
    check("trees.catalan", ok)
    ok = True
    for m in range(2, 6):
        for y in enumerate_trees(m):
            for i in range(m + 1):
                for j in range(i + 1, m + 1):
                    if face(face(y, j), i) != face(face(y, i), j - 1):
                        ok = False
    check("trees.simplicial", ok)

    for model_name in bundled_model_names():
        model = load_bundled_model(model_name)
        tag = model_name

        for name, d in model.dialgebras.items():
            check("%s.dialgebra.%s.axioms" % (tag, name),
                  check_dialgebra(d).valid)
            rep = adjoint_rep(d)
            ok = True
            for n in range(0, 3):
                for _ in range(samples):
                    c = _random_cochain(d, rep, n, rng)
                    if not coboundary(coboundary(c)).is_zero():
                        ok = False
            check("%s.dialgebra.%s.delta2" % (tag, name), ok)

        for name, psi in model.morphisms.items():
            check("%s.morphism.%s.preserves" % (tag, name),
                  check_morphism(psi).valid)
            cx = MorphismComplex(psi)
            ok = True
            for n in (1, 2):
                for _ in range(samples):
                    mc = _random_mc(cx, n, rng)
                    if not cx.coboundary(cx.coboundary(mc)).is_zero():
                        ok = False
            check("%s.morphism.%s.mor_delta2" % (tag, name), ok)

            # leading coefficient of a valid deformation is a 2-cocycle,
            # and its obstruction is a 3-cocycle
            ok_lead = ok_ob = ok_ext = True
            for _ in range(samples):
                th = random_deformation(psi, 3, rng, cx)
                if not verify_deformation(th):
                    ok_lead = False
                    continue
                if not leading_cocycle_check(th, cx).passed:
                    ok_lead = False
                if th.order >= 1:
                    ob = obstruction(th, cx)
                    if not cocycle_check(cx, ob.cochain, ob.order).passed:
                        ok_ob = False
                    nxt = extend_step(th, cx)
                    if nxt is not None and not verify_deformation(nxt):
                        ok_ext = False
            check("%s.morphism.%s.leading_cocycle" % (tag, name), ok_lead)
            check("%s.morphism.%s.obstruction_cocycle" % (tag, name), ok_ob)
            check("%s.morphism.%s.extension_valid" % (tag, name), ok_ext)

            # equivalence transport: infinitesimals differ by the
            # coboundary of the linear iso coefficients
            ok = True
            f = psi.field
            for _ in range(samples):
                th = random_deformation(psi, 2, rng, cx)
                if th.order < 1:
                    th = TruncatedDeformation.trivial(psi, 1)
                nd, ne = psi.source.dim, psi.target.dim
                phd = [Matrix.identity(f, nd)] + [
                    Matrix(f, nd, nd,
                           [[f.from_int(rng.randint(-2, 2))
                             for _ in range(nd)] for _ in range(nd)])
                    for _ in range(th.order)]
                phe = [Matrix.identity(f, ne)] + [
                    Matrix(f, ne, ne,
                           [[f.from_int(rng.randint(-2, 2))
                             for _ in range(ne)] for _ in range(ne)])
                    for _ in range(th.order)]
                iso = FormalIso(psi, phd, phe)
                tht = apply_formal_iso(th, iso)
                if not verify_deformation(tht):
                    ok = False
                    continue
                beta = MorphismCochain(
                    matrix_to_cochain1(phd[1], cx.D, cx.rep_d),
                    matrix_to_cochain1(phe[1], cx.E, cx.rep_e),
                    Cochain.zero(0, cx.D, cx.rep_de))
                diff = infinitesimal(th, cx) - infinitesimal(tht, cx)
                if cx.vec(diff) != cx.vec(cx.coboundary(beta)):
                    ok = False
            check("%s.morphism.%s.equivalence_transport" % (tag, name), ok)

            # trivialization kills the leading order when it applies
            ok = True
            for _ in range(samples):
                th = random_deformation(psi, 3, rng, cx)
                lead = th.leading_order()
                if lead is None:
                    continue
                try:
                    _, res = trivialize_step(th, cx)
                except NotACoboundary:
                    continue  # legitimately not trivializable
                if any(not res.theta(k, cx).is_zero()
                       for k in range(1, lead + 1)):
                    ok = False
            check("%s.morphism.%s.trivialize_step" % (tag, name), ok)

        for name, th in model.deformations.items():
            report = verify_deformation(th)
            check("%s.deformation.%s.verify" % (tag, name), report.valid,
                  "" if report else report.failing_identity)

    return all_ok
