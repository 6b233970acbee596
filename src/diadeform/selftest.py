"""The bundled invariant suite behind the `selftest` CLI command.

Runs the structural identities (simplicial identities, delta^2 = 0, the
cocycle properties, the extension biconditional, equivalence transport, and
trivialization) on every bundled model with a fixed random seed, emitting
one deterministic PASS/FAIL line per check.
"""

import random

from .cochain import coboundary, random_cochain
from .deformation import (TruncatedDeformation, apply_formal_iso,
                          cocycle_check, extend_step, infinitesimal,
                          leading_cocycle_check, obstruction,
                          random_deformation, random_formal_iso,
                          trivialize_step, verify_deformation)
from .dialgebra import check_dialgebra, check_morphism
from .errors import NotACoboundary
from .models import bundled_model_names, load_bundled_model
from .morphism_complex import complex_of
from .trees import catalan, enumerate_trees, face

SELFTEST_SEED = 20240517
SAMPLES = 5  # per sampled check


def run_selftest(emit):
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
    check("trees.simplicial", all(
        face(face(y, j), i) == face(face(y, i), j - 1)
        for m in range(2, 6) for y in enumerate_trees(m)
        for i in range(m + 1) for j in range(i + 1, m + 1)))

    for model_name in bundled_model_names():
        model = load_bundled_model(model_name)
        tag = model_name

        for name, d in model.dialgebras.items():
            check("%s.dialgebra.%s.axioms" % (tag, name),
                  check_dialgebra(d).valid)
            # a list, not a generator: every sample is drawn even after a
            # failure, so the later checks see the same rng
            ok = all([coboundary(coboundary(random_cochain(d, d, n, rng)))
                      .is_zero() for n in range(3) for _ in range(SAMPLES)])
            check("%s.dialgebra.%s.delta2" % (tag, name), ok)

        for name, psi in model.morphisms.items():
            check("%s.morphism.%s.preserves" % (tag, name),
                  check_morphism(psi).valid)
            cx = complex_of(psi)
            ok = all([cx.coboundary(cx.coboundary(cx.random_cochain(n, rng)))
                      .is_zero() for n in (1, 2) for _ in range(SAMPLES)])
            check("%s.morphism.%s.mor_delta2" % (tag, name), ok)

            # leading coefficient of a valid deformation is a 2-cocycle,
            # and its obstruction is a 3-cocycle
            ok_lead = ok_ob = ok_ext = True
            for _ in range(SAMPLES):
                th = random_deformation(psi, 3, rng)
                if not verify_deformation(th):
                    ok_lead = False
                    continue
                if not leading_cocycle_check(th).passed:
                    ok_lead = False
                if th.order >= 1:
                    ob = obstruction(th)
                    if not cocycle_check(cx, ob.cochain, ob.order).passed:
                        ok_ob = False
                    nxt = extend_step(th)
                    if nxt is not None and not verify_deformation(nxt):
                        ok_ext = False
            check("%s.morphism.%s.leading_cocycle" % (tag, name), ok_lead)
            check("%s.morphism.%s.obstruction_cocycle" % (tag, name), ok_ob)
            check("%s.morphism.%s.extension_valid" % (tag, name), ok_ext)

            # equivalence transport: infinitesimals differ by the
            # coboundary of the linear iso coefficients
            ok = True
            for _ in range(SAMPLES):
                th = random_deformation(psi, 2, rng)
                if th.order < 1:
                    th = TruncatedDeformation.trivial(psi, 1)
                iso = random_formal_iso(psi, th.order, rng)
                tht = apply_formal_iso(th, iso)
                if not verify_deformation(tht):
                    ok = False
                    continue
                diff = infinitesimal(th) - infinitesimal(tht)
                if cx.vec(diff) != cx.vec(cx.coboundary(iso.beta(1))):
                    ok = False
            check("%s.morphism.%s.equivalence_transport" % (tag, name), ok)

            # trivialization kills the leading order when it applies
            ok = True
            for _ in range(SAMPLES):
                th = random_deformation(psi, 3, rng)
                lead = th.leading_order()
                if lead is None:
                    continue
                try:
                    _, res = trivialize_step(th)
                except NotACoboundary:
                    continue  # legitimately not trivializable
                if any(not res.theta(k).is_zero()
                       for k in range(1, lead + 1)):
                    ok = False
            check("%s.morphism.%s.trivialize_step" % (tag, name), ok)

        for name, th in model.deformations.items():
            report = verify_deformation(th)
            check("%s.deformation.%s.verify" % (tag, name), report.valid,
                  "" if report else report.failing_identity)

    return all_ok
