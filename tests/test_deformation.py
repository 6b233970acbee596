import random

import pytest

from conftest import int_deformation, randint_sequence

from diadeform import deformation, morphism_complex
from diadeform.cochain import Cochain, product_cochain
from diadeform.deformation import (FormalIso, TruncatedDeformation,
                                   apply_formal_iso, cocycle_check,
                                   extend_step, extend_to_order,
                                   infinitesimal, leading_cocycle_check,
                                   obstruction, random_cocycle,
                                   random_deformation, random_formal_iso,
                                   rigidity_probe, trivialize_step,
                                   unipotent_inverse, verify_deformation)
from diadeform.dialgebra import (Dialgebra, DialgebraMorphism,
                                 check_dialgebra, check_morphism)
from diadeform.errors import (BaseMismatch, CapExceeded, IndexOutOfRange,
                              InvalidDeformation, NonIdentityConstantTerm,
                              NotACoboundary, OrderMismatch, OrderTooLow)
from diadeform.fields import QQ, PrimeField, Series, SeriesRing
from diadeform.linalg import Matrix
from diadeform.models import load_bundled_model
from diadeform.morphism_complex import complex_of


def z_family(psi, l, r, lp, rp, s):
    """Order-1 deformation of the identity on the 1-dim zero dialgebra:
    first-order products (l, r) on the source, (lp, rp) on the target,
    first-order morphism coefficient s."""
    return int_deformation(psi, [[l, r]], [[lp, rp]], [[[s]]])


@pytest.fixture(scope="module")
def zsetup(bundled_models):
    psi = bundled_models["zero1"].morphisms["id"]
    return psi, complex_of(psi)


@pytest.fixture(scope="module")
def ksetup(bundled_models):
    psi = bundled_models["mult1"].morphisms["id"]
    return psi, complex_of(psi)


def test_bundled_deformations_valid(bundled_models):
    for model in bundled_models.values():
        for th in model.deformations.values():
            assert verify_deformation(th), th


def test_z_family_validity(zsetup):
    psi, _ = zsetup
    assert verify_deformation(z_family(psi, 1, -1, 1, -1, 2))
    report = verify_deformation(z_family(psi, 1, -1, 1, 0, 2))
    assert not report
    assert report.first_failing_order == 1
    assert "morphism equation" in report.failing_identity


def test_trivial_deformation(zsetup):
    psi, _ = zsetup
    th = TruncatedDeformation.trivial(psi, 3)
    assert th.order == 3
    assert verify_deformation(th)
    for k in range(1, 4):
        assert th.theta(k).is_zero()


def test_trivial_pads_the_lift_of_its_base(all_morphisms):
    # trivial(psi, k) is the order-0 deformation lifted to order k
    for tag, psi in all_morphisms:
        for k in range(4):
            th = TruncatedDeformation.trivial(psi, k)
            lifted = TruncatedDeformation.from_lift(
                psi, *TruncatedDeformation.trivial(psi).lift(k))
            assert (th.fd, th.fe, th.psis) == (
                lifted.fd, lifted.fe, lifted.psis), (tag, k)


def test_base_mismatch_rejected(zsetup, ksetup):
    psi, cx = zsetup
    d = psi.source
    wrong = Cochain(2, d, cx.D, [QQ.one, QQ.one])
    with pytest.raises(BaseMismatch):
        TruncatedDeformation(psi, [wrong], [product_cochain(psi.target)],
                             [psi.matrix])
    with pytest.raises(BaseMismatch):
        TruncatedDeformation(psi, [product_cochain(d)],
                             [product_cochain(psi.target)],
                             [Matrix.zero(QQ, 1, 1)])


def test_infinitesimal(zsetup):
    psi, cx = zsetup
    th = z_family(psi, 1, -1, 1, -1, 0)
    theta1 = infinitesimal(th)
    assert theta1 == th.theta(1)
    assert cx.coboundary(theta1).is_zero()
    with pytest.raises(OrderTooLow):
        infinitesimal(TruncatedDeformation.trivial(psi))


def test_leading_cocycle_detects_failure(zsetup):
    psi, _ = zsetup
    # on the zero dialgebra the third coboundary block reduces to xi - pi,
    # so unequal first-order products give a non-cocycle leading term
    th = z_family(psi, 1, 0, 0, 0, 0)
    report = leading_cocycle_check(th)
    assert not report.passed
    assert report.leading_order == 1
    assert report.residual_location == "phi block, tree [21], indices (0, 0)"


def test_leading_cocycle_skips_zero_orders(zsetup):
    psi, cx = zsetup
    th = TruncatedDeformation.trivial(psi, 1)
    th = th.extended_with(cx.zero(2))  # order 2, still all zero
    report = leading_cocycle_check(th)
    assert report.passed and report.leading_order is None


def test_obstruction_values_z(zsetup):
    psi, cx = zsetup
    l, r, s = 1, -1, 2
    th = z_family(psi, l, r, l, r, s)
    ob = obstruction(th)
    # composition square: l(l-r) on [213], r(l-r) on [312], 0 elsewhere
    expected = [0, l * (l - r), 0, r * (l - r), 0]
    got = [ob.cochain.xi.value(t, (0, 0, 0))[0] for t in range(5)]
    assert got == [QQ.from_int(v) for v in expected]
    assert ob.cochain.pi == ob.cochain.xi
    # morphism block: s*l on the left slot, s*r on the right slot
    assert ob.cochain.phi.value(0, (0, 0)) == (QQ.from_int(s * l),)
    assert ob.cochain.phi.value(1, (0, 0)) == (QQ.from_int(s * r),)
    assert cocycle_check(cx, ob.cochain, ob.order).passed


def test_obstruction_vanishes_when_equal(zsetup):
    psi, _ = zsetup
    th = z_family(psi, 2, 2, 2, 2, 0)
    assert obstruction(th).is_zero()


def test_extend_step_blocked(zsetup):
    psi, _ = zsetup
    assert extend_step(z_family(psi, 1, -1, 1, -1, 0)) is None


def test_extend_step_succeeds(zsetup):
    psi, _ = zsetup
    nxt = extend_step(z_family(psi, 2, 2, 2, 2, 1))
    assert nxt is not None
    assert nxt.order == 2
    assert verify_deformation(nxt)


def test_extend_to_order(zsetup):
    psi, _ = zsetup
    good = extend_to_order(z_family(psi, 1, 1, 1, 1, 0), 4)
    assert good.succeeded and good.reached == 4
    blocked = extend_to_order(z_family(psi, 1, -1, 1, -1, 0), 3)
    assert not blocked.succeeded
    assert blocked.reached == 1
    assert "not a coboundary" in blocked.certificate
    assert "[213]" in blocked.certificate and "[312]" in blocked.certificate


def test_blocked_extension_computes_its_obstruction_once(monkeypatch):
    # a deformation keeps its residuals, so the counting tests parse their
    # own model: one from the shared fixture may have been checked already
    th = load_bundled_model("zero1").deformations["theta_blocked"]
    passes = []
    residuals = deformation._residuals
    monkeypatch.setattr(deformation, "_residuals",
                        lambda *args: passes.append(args) or residuals(*args))
    report = extend_to_order(th, 2)
    assert not report.succeeded
    assert "not a coboundary" in report.certificate
    assert len(passes) == 1  # verify and the obstruction read one pass


def test_extension_is_verified_once(monkeypatch):
    th = load_bundled_model("zero1").deformations["theta_eq"]
    passes = []
    residuals = deformation._residuals
    monkeypatch.setattr(deformation, "_residuals",
                        lambda *args: passes.append(args) or residuals(*args))
    report = extend_to_order(th, 4)
    assert report.succeeded and report.reached == 4
    # one pass per deformation: th's serves its check and its obstruction,
    # each extension's its obstruction (validating it), the last one's
    # the final check
    assert [t.order for (t,) in passes] == [1, 2, 3, 4]


def test_blocked_extension_reports_its_own_hy3(bundled_models):
    report = extend_to_order(
        bundled_models["zero1"].deformations["theta_blocked"], 3)
    assert report.reached == 1 and not report.succeeded
    assert report.hy3_dim == 5 and report.guaranteed is False
    assert "not a coboundary" in report.certificate


@pytest.mark.parametrize("name, run", [
    ("zero1", lambda m: extend_to_order(m.deformations["theta_eq"], 4)),
    ("mult1", lambda m: rigidity_probe(m.morphisms["id"], order=3)),
    ("dim2", lambda m: rigidity_probe(m.morphisms["emb"], order=2))])
def test_delta_blocks_are_assembled_once_per_call(monkeypatch, name, run):
    # every step of one call reads the same complex, so each block of the
    # two delta matrices it needs is assembled once, and an identity
    # morphism assembles CY(D,D) once for its D and E blocks: 4 blocks,
    # against 6 for dim2's emb; a freshly parsed model shares no complex
    # with other tests
    model = load_bundled_model(name)
    built = []
    assemble = morphism_complex.coboundary_matrix
    monkeypatch.setattr(morphism_complex, "coboundary_matrix",
                        lambda d, rep, n: built.append((d, rep, n))
                        or assemble(d, rep, n))
    run(model)
    assert len(built) == (6 if name == "dim2" else 4)
    keys = [(id(d), id(rep), n) for d, rep, n in built]
    assert len(set(keys)) == len(keys)


@pytest.mark.parametrize("target", [2, 3])
def test_bad_solution_is_caught(zsetup, monkeypatch, target):
    # a solver that adds a non-cocycle to each solution: the extension is
    # invalid at its top order, whether it is the last one (final check)
    # or the next step's obstruction reads it
    psi, cx = zsetup
    coords = [QQ.zero] * cx.dim(2)
    coords[0] = QQ.one
    not_a_cocycle = cx.unvec(2, tuple(coords))
    assert not cx.coboundary(not_a_cocycle).is_zero()
    solve = deformation._solve

    def bad_solve(cx, n, b, label):
        x, ranks = solve(cx, n, b, label)
        return x + not_a_cocycle, ranks
    monkeypatch.setattr(deformation, "_solve", bad_solve)
    th = z_family(psi, 1, 1, 1, 1, 0)
    with pytest.raises(InvalidDeformation,
                       match="solved extension failed re-verification"):
        extend_to_order(th, target)
    with pytest.raises(InvalidDeformation,
                       match="solved extension failed re-verification"):
        extend_step(th)


def test_obstruction_rejects_an_invalid_deformation(zsetup):
    psi, _ = zsetup
    th = z_family(psi, 1, -1, 1, 0, 2)
    with pytest.raises(InvalidDeformation):
        obstruction(th)
    with pytest.raises(InvalidDeformation):
        extend_step(th)


def test_trivialize_rejects_an_invalid_deformation(ksetup):
    # oneplus with an order-2 left product of 5 on D: valid through
    # order 1, so its leading coefficient alone looks trivializable
    psi, _ = ksetup
    th = int_deformation(psi, [[1, 1], [5, 0]], [[1, 1], [0, 0]],
                         [[[0]], [[0]]])
    with pytest.raises(InvalidDeformation) as caught:
        trivialize_step(th)
    assert str(caught.value) \
        == "axiom 2 for f_D at order 2, triple (0, 0, 0): (11) != (6)"


# a known defect: today this returns the order-1 coefficient
@pytest.mark.xfail(strict=True, reason="infinitesimal does not validate"
                   " its deformation: the check cost the deformation"
                   " workload about a fifth of its median job time")
def test_infinitesimal_rejects_an_invalid_deformation(ksetup):
    # the same deformation: its order-1 coefficient alone is a cocycle
    psi, _ = ksetup
    th = int_deformation(psi, [[1, 1], [5, 0]], [[1, 1], [0, 0]],
                         [[[0]], [[0]]])
    with pytest.raises(InvalidDeformation) as caught:
        infinitesimal(th)
    assert str(caught.value) \
        == "axiom 2 for f_D at order 2, triple (0, 0, 0): (11) != (6)"


@pytest.mark.parametrize("target", [1, 2])
def test_invalid_input_is_no_failed_reverification(zsetup, target):
    psi, _ = zsetup
    th = z_family(psi, 1, -1, 1, 0, 2)
    # the input is reported as it is, not as a bad solved extension
    with pytest.raises(InvalidDeformation) as caught:
        extend_to_order(th, target)
    assert str(caught.value) \
        == "morphism equation (r) at order 1, pair (0, 0): (-1) != (0)"


def test_nonzero_values_walks_the_blocks_in_order(zsetup):
    psi, cx = zsetup
    ob = obstruction(z_family(psi, 1, -1, 1, -1, 2))
    got = [(name, tree.index, multi, v)
           for name, tree, multi, v in ob.cochain.nonzero_values(
               ("D", "E", "psi"))]
    two, minus_two = (QQ.from_int(2),), (QQ.from_int(-2),)
    assert got == [("D", 1, (0, 0, 0), two), ("D", 3, (0, 0, 0), minus_two),
                   ("E", 1, (0, 0, 0), two), ("E", 3, (0, 0, 0), minus_two),
                   ("psi", 0, (0, 0), two), ("psi", 1, (0, 0), minus_two)]
    assert list(cx.zero(2).nonzero_values()) == []


def test_extend_to_order_below_the_deformation_order(zsetup):
    psi, _ = zsetup
    th = z_family(psi, 1, 1, 1, 1, 0)  # order 1
    with pytest.raises(IndexOutOfRange, match="below the deformation"):
        extend_to_order(th, 0)
    same = extend_to_order(th, 1)
    assert same.succeeded and same.deformation is th


def test_extension_guaranteed_flag(ksetup):
    psi, _ = ksetup
    th = TruncatedDeformation.trivial(psi, 1)
    report = extend_to_order(th, 3)
    assert report.hy3_dim == 0
    assert report.guaranteed
    assert report.reached == 3


def _unpadded_report(th):
    """The report on the residuals of the unpadded lift, computed here."""
    d_t, e_t, psi_t = th.lift(0)
    return deformation._first_failure(
        th, check_dialgebra(d_t).violations,
        check_dialgebra(e_t).violations, check_morphism(psi_t).violations)


def _golden(th):
    report = verify_deformation(th)
    assert not report
    assert report == _unpadded_report(th)
    return report.first_failing_order, report.failing_identity


def test_verify_reports_as_on_the_unpadded_lift(bundled_models, gf7_models,
                                                zsetup, ksetup):
    # verify_deformation reads the residuals of the lift padded by one
    # order; their coefficients through order N are the unpadded lift's
    cases = [th for models in (bundled_models, gf7_models)
             for model in models.values()
             for th in model.deformations.values()]
    cases += [z_family(zsetup[0], 1, -1, 1, 0, 2),
              int_deformation(ksetup[0], [[1, 1], [5, 0]], [[1, 1], [0, 0]],
                              [[[0]], [[0]]])]
    assert any(not verify_deformation(th) for th in cases)
    for th in cases:
        assert verify_deformation(th) == _unpadded_report(th), th


def q(*values):
    """A coordinate tuple of integers as reports print it: "(a, b)"."""
    return "(%s)" % ", ".join(str(v) for v in values)


def test_verify_golden_axiom_failures(bundled_models):
    k = bundled_models["mult1"].morphisms["id"]
    assert _golden(int_deformation(k, [[1, 2]], [[1, 1]], [[[0]]])) == (
        1, "axiom 2 for f_D at order 1, triple (0, 0, 0): %s != %s"
        % (q(2), q(3)))
    assert _golden(int_deformation(k, [[1, 1]], [[2, 3]], [[[0]]])) == (
        1, "axiom 2 for f_E at order 1, triple (0, 0, 0): %s != %s"
        % (q(4), q(5)))
    # the lowest failing order wins over the f_D-before-f_E order
    assert _golden(int_deformation(k, [[0, 0], [1, 2]], [[1, 2], [0, 0]],
                                   [[[0]], [[0]]])) == (
        1, "axiom 2 for f_E at order 1, triple (0, 0, 0): %s != %s"
        % (q(2), q(3)))
    # f_D and f_E both fail at order 2 on the zero line; f_D is reported
    z = bundled_models["zero1"].morphisms["id"]
    assert _golden(int_deformation(z, [[1, -1], [0, 0]], [[1, -1], [0, 0]],
                                   [[[0]], [[0]]])) == (
        2, "axiom 2 for f_D at order 2, triple (0, 0, 0): %s != %s"
        % (q(1), q(-1)))
    p2 = bundled_models["dim2"].morphisms["id"]
    one = [0] * 16
    one[6] = 1  # e_1 -| e_1 gains e_0
    zero = [0] * 16
    expected = ("axiom 1 for %s at order 1, triple (0, 1, 1): "
                + "%s != %s" % (q(1, 0), q(0, 0)))
    assert _golden(int_deformation(p2, [one], [one], [[[0, 1], [0, 0]]])) == (
        1, expected % "f_D")
    assert _golden(int_deformation(p2, [zero], [one], [[[0, 0], [0, 0]]])) == (
        1, expected % "f_E")


def test_verify_golden_morphism_failures(bundled_models):
    z = bundled_models["zero1"].morphisms["id"]
    assert _golden(int_deformation(z, [[1, 2]], [[5, 2]], [[[0]]])) == (
        1, "morphism equation (l) at order 1, pair (0, 0): %s != %s"
        % (q(1), q(5)))
    assert _golden(int_deformation(z, [[1, 2]], [[1, 3]], [[[0]]])) == (
        1, "morphism equation (r) at order 1, pair (0, 0): %s != %s"
        % (q(2), q(3)))


def test_verify_golden_over_gf(bundled_models):
    k = load_bundled_model("mult1", field_override=PrimeField(7)) \
        .morphisms["id"]
    assert _golden(int_deformation(k, [[3, 3]], [[3, 3]], [[[5]]])) == (
        1, "morphism equation (l) at order 1, pair (0, 0): (1) != (6)")


def _inverse_coefficients(series):
    """Coefficients of the inverse of 1 + sum_k series[k] t^k, order by
    order: inv_k = -sum_{i=1..k} series[i] inv_{k-i}."""
    f = series[0].field
    n = series[0].rows
    inv = [Matrix.identity(f, n)]
    for k in range(1, len(series)):
        acc = Matrix.zero(f, n, n)
        for i in range(1, k + 1):
            acc = acc + series[i] * inv[k - i]
        inv.append(-acc)
    return inv


def test_transport_round_trip(all_morphisms):
    rng = random.Random(2718)
    for tag, psi in all_morphisms:
        th = random_deformation(psi, 2, rng)
        iso = random_formal_iso(psi, th.order, rng)
        back = FormalIso(psi, _inverse_coefficients(iso.phi_d),
                         _inverse_coefficients(iso.phi_e))
        out = apply_formal_iso(apply_formal_iso(th, iso), back)
        assert (out.fd, out.fe, out.psis) == (th.fd, th.fe, th.psis), tag


def test_series_inverse():
    rng = random.Random(7)
    n = 2
    ring = SeriesRing(QQ, 4)
    series = [Matrix.identity(QQ, n)] + [
        Matrix(QQ, n, n, [[QQ.from_int(rng.randint(-3, 3))
                           for _ in range(n)] for _ in range(n)])
        for _ in range(4)]
    phi = Matrix(ring, n, n, [[Series(ring, [m[r, c] for m in series])
                               for c in range(n)] for r in range(n)])
    inv = unipotent_inverse(phi)
    # the product of the series with its inverse is 1 + O(t^5)
    assert phi * inv == Matrix.identity(ring, n)
    assert inv * phi == Matrix.identity(ring, n)
    expected = _inverse_coefficients(series)
    for r in range(n):
        for c in range(n):
            assert inv[r, c].c == tuple(m[r, c] for m in expected)


def test_series_ring_has_no_division():
    ring = SeriesRing(QQ, 2)
    one = ring.one
    assert one * one == one and one - one == ring.zero
    assert ring.from_int(3) == Series(ring, [QQ.from_int(3), 0, 0])
    with pytest.raises(TypeError):
        Matrix(ring, 1, 1, [[one]]).rank()


def test_apply_identity_iso(zsetup):
    psi, _ = zsetup
    th = z_family(psi, 1, 2, 1, 2, 3)
    out = apply_formal_iso(th, FormalIso.identity(psi, 1))
    assert out.fd == th.fd and out.fe == th.fe and out.psis == th.psis


def test_iso_of_another_morphism(bundled_models):
    model = bundled_models["mult1"]
    th = model.deformations["oneplus"]
    assert model.isos["scale"].psi is th.psi
    with pytest.raises(BaseMismatch):
        apply_formal_iso(th, FormalIso.identity(model.morphisms["zero"], 1))


def test_apply_iso_preserves_validity(bundled_models, rng):
    psi = bundled_models["dim2"].morphisms["id"]
    th = random_deformation(psi, 2, rng)
    iso = random_formal_iso(psi, th.order, rng)
    assert verify_deformation(apply_formal_iso(th, iso))


def test_iso_order_mismatch(zsetup):
    psi, _ = zsetup
    th = z_family(psi, 1, 1, 1, 1, 0)
    with pytest.raises(OrderMismatch):
        apply_formal_iso(th, FormalIso.identity(psi, 3))


def test_iso_requires_identity_constant_term(zsetup):
    psi, _ = zsetup
    two = Matrix(QQ, 1, 1, [[QQ.from_int(2)]])
    with pytest.raises(NonIdentityConstantTerm):
        FormalIso(psi, [two], [two])


def test_trivialize_oneplus(bundled_models):
    th = bundled_models["mult1"].deformations["oneplus"]
    iso, result = trivialize_step(th)
    for k in range(1, result.order + 1):
        assert result.theta(k).is_zero()


def test_trivialize_rejects_noncoboundary(zsetup):
    psi, _ = zsetup
    th = z_family(psi, 1, 1, 1, 1, 0)
    with pytest.raises(NotACoboundary) as exc:
        trivialize_step(th)
    assert "rank" in exc.value.certificate


def test_rigidity_probe_mult(ksetup):
    psi, _ = ksetup
    report = rigidity_probe(psi, order=3)
    assert report.hy2_dim == 0
    assert report.verdict.startswith("rigid")
    assert report.trivialized_samples == 5


def test_rigidity_probe_undecided(zsetup):
    psi, _ = zsetup
    report = rigidity_probe(psi, order=2)
    assert report.hy2_dim == 2
    assert "not decided" in report.verdict


def test_rigidity_probe_checks_source_and_target():
    # B fails axiom 2 (left 0 0 0 1, right 0); the zero map Z -> B is a
    # morphism, so only the target's axioms can reject it
    b = Dialgebra(1, QQ, left=[[[QQ.one]]], name="B")
    z = Dialgebra(1, QQ, name="Z")
    for psi, role in ((DialgebraMorphism.identity(b), "source"),
                      (DialgebraMorphism(z, b, Matrix.zero(QQ, 1, 1)),
                       "target")):
        assert check_morphism(psi)
        with pytest.raises(InvalidDeformation,
                           match="^%s B is not a dialgebra: axiom 2 fails"
                                 " on triple \\(0, 0, 0\\)$" % role):
            rigidity_probe(psi)


def test_sample_order_above_the_cap_raises(ksetup):
    psi, _ = ksetup
    cap = deformation.ORDER_CAP
    above = "order %d exceeds cap %d" % (cap + 1, cap)
    with pytest.raises(CapExceeded, match="sample " + above):
        rigidity_probe(psi, order=cap + 1)
    with pytest.raises(CapExceeded, match="target " + above):
        random_deformation(psi, cap + 1, random.Random(0))
    assert random_deformation(psi, cap, random.Random(0)).order == cap


def test_random_cocycle_in_kernel(zsetup, rng):
    psi, cx = zsetup
    for n in (1, 2):
        c = random_cocycle(cx, n, rng)
        assert cx.coboundary(c).is_zero()


def test_random_cocycle_draws_once_per_kernel_vector(zsetup):
    psi, cx = zsetup
    rng = random.Random(11)
    c = random_cocycle(cx, 2, rng)
    basis = cx.matrix(2).kernel_basis()
    ints, state = randint_sequence(11, -3, 3, len(basis))
    assert cx.vec(c) == tuple(sum((x * v[i] for x, v in zip(ints, basis)),
                                  QQ.zero) for i in range(cx.dim(2)))
    assert rng.getstate() == state


def test_random_formal_iso_draws_d_then_e(bundled_models):
    # emb: K -> P2, so the source and target blocks differ in size
    psi = bundled_models["dim2"].morphisms["emb"]
    rng = random.Random(3)
    iso = random_formal_iso(psi, 2, rng)
    ints, state = randint_sequence(3, -2, 2, 2 * (1 + 4))
    assert [x for series in (iso.phi_d, iso.phi_e) for m in series[1:]
            for row in m.dense_rows() for x in row] == ints
    assert rng.getstate() == state
    assert iso.phi_d[0] == Matrix.identity(QQ, 1)
    assert iso.phi_e[0] == Matrix.identity(QQ, 2)


def test_random_deformation_valid(all_morphisms, rng):
    for tag, psi in all_morphisms:
        th = random_deformation(psi, 2, rng)
        assert verify_deformation(th), tag


@pytest.mark.parametrize("order", [1, 2])
def test_random_deformation_verifies_what_it_returns(ksetup, monkeypatch,
                                                     order):
    # with a sampler that returns a non-cocycle, the deformation built is
    # invalid, and random_deformation must say so instead of returning it
    psi, cx = ksetup
    coords = [QQ.zero] * cx.dim(2)
    coords[0] = QQ.one
    not_a_cocycle = cx.unvec(2, tuple(coords))
    assert not cx.coboundary(not_a_cocycle).is_zero()
    monkeypatch.setattr(deformation, "random_cocycle",
                        lambda cx, n, rng: not_a_cocycle)
    with pytest.raises(InvalidDeformation):
        random_deformation(psi, order, random.Random(0))
