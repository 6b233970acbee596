import random

import pytest

from conftest import (coefficient_sides, dense_axiom_violations,
                      dense_morphism_violations, from_lift, int_deformation,
                      lift, lift_apply_formal_iso, mat_add, mat_mul, mat_neg,
                      randint_sequence, succeeded)

from diadeform import deformation, dialgebra, morphism_complex
from diadeform.cochain import Cochain, product_cochain
from diadeform.deformation import (FormalIso, TruncatedDeformation,
                                   apply_formal_iso, cocycle_check,
                                   extend_step, extend_to_order,
                                   infinitesimal, leading_cocycle_check,
                                   obstruction, random_cocycle,
                                   random_deformation, random_formal_iso,
                                   rigidity_probe, trivialize_step,
                                   verify_deformation)
from diadeform.dialgebra import (Dialgebra, DialgebraMorphism,
                                 Representation, check_morphism)
from diadeform.errors import (BaseMismatch, CapExceeded, FieldMismatch,
                              IndexOutOfRange, InvalidDeformation,
                              NonIdentityConstantTerm, NotACoboundary,
                              OrderMismatch, OrderTooLow, ShapeMismatch)
from diadeform.fields import QQ, PrimeField
from diadeform.linalg import Matrix
from diadeform.models import bundled_model_names, load_bundled_model
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
            lifted = from_lift(psi, *lift(TruncatedDeformation.trivial(psi),
                                          k))
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
    assert succeeded(good) and good.reached == 4
    blocked = extend_to_order(z_family(psi, 1, -1, 1, -1, 0), 3)
    assert not succeeded(blocked)
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
    assert not succeeded(report)
    assert "not a coboundary" in report.certificate
    assert len(passes) == 1  # verify and the obstruction read one pass


def test_extension_is_verified_once(monkeypatch):
    th = load_bundled_model("zero1").deformations["theta_eq"]
    passes = []
    residuals = deformation._residuals
    monkeypatch.setattr(deformation, "_residuals",
                        lambda *args: passes.append(args) or residuals(*args))
    report = extend_to_order(th, 4)
    assert succeeded(report) and report.reached == 4
    # one pass per deformation: th's serves its check and its obstruction,
    # each extension's its obstruction (validating it), the last one's
    # the final check
    assert [t.order for (t,) in passes] == [1, 2, 3, 4]


def test_blocked_extension_reports_its_own_hy3(bundled_models):
    report = extend_to_order(
        bundled_models["zero1"].deformations["theta_blocked"], 3)
    assert report.reached == 1 and not succeeded(report)
    assert report.hy3_dim == 5 and report.guaranteed is False
    assert "not a coboundary" in report.certificate


@pytest.mark.parametrize("name, run", [
    ("zero1", lambda m: extend_to_order(m.deformations["theta_eq"], 4)),
    ("mult1", lambda m: rigidity_probe(m.morphisms["id"], order=3)),
    ("dim2", lambda m: rigidity_probe(m.morphisms["emb"], order=2))])
def test_delta_blocks_are_assembled_once_per_call(monkeypatch, name, run):
    # every step of one call reads the same complex, so each coboundary
    # block of the two delta matrices it needs is written once, and an
    # identity morphism writes CY(D,D) once for its D and E blocks: 4
    # blocks, against 6 for dim2's emb; a freshly parsed model shares no
    # complex with other tests
    model = load_bundled_model(name)
    built = []
    write = morphism_complex.write_coboundary_matrix

    def counted(rows, r0, c0, sign, d, rep, n):
        built.append((d, rep, n))
        write(rows, r0, c0, sign, d, rep, n)
    monkeypatch.setattr(morphism_complex, "write_coboundary_matrix", counted)
    run(model)
    assert len(built) == (6 if name == "dim2" else 4)
    keys = [(id(d), id(rep), n) for d, rep, n in built]
    assert len(set(keys)) == len(keys)


def test_extension_from_order_zero(ksetup):
    # at order 0 the obstruction is 0, so one step extends by a zero
    # coefficient
    psi, _ = ksetup
    nxt = extend_step(TruncatedDeformation.trivial(psi))
    assert nxt.order == 1 and nxt.leading_order() is None


def test_extension_checks_its_start(bundled_models):
    # a sample of a map that is no morphism is refused at every order, as
    # an invalid start and not as a failed re-verification
    model = bundled_models["mult1"]
    k = model.dialgebras["K"]
    z = Dialgebra(1, QQ, name="Z")
    psi = DialgebraMorphism(k, z, Matrix(QQ, 1, 1, [[1]]))
    assert not check_morphism(psi)
    for order in (0, 2):
        with pytest.raises(InvalidDeformation) as info:
            random_deformation(psi, order, random.Random(0))
        assert "re-verification" not in str(info.value)


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
    assert succeeded(same) and same.deformation is th


def test_extension_guaranteed_flag(ksetup):
    psi, _ = ksetup
    th = TruncatedDeformation.trivial(psi, 1)
    report = extend_to_order(th, 3)
    assert report.hy3_dim == 0
    assert report.guaranteed
    assert report.reached == 3


def lift_residuals(th, pad):
    """The residuals as they were computed before they went order by order
    over K, kept as a reference: the dense axiom and morphism checkers
    over K[t]/(t^{N+1+pad}), on the lift, each side read as coefficient
    tuples."""
    d_t, e_t, psi_t = lift(th, pad)
    return tuple(map(coefficient_sides, (
        dense_axiom_violations(d_t), dense_axiom_violations(e_t),
        dense_morphism_violations(psi_t))))


def _unpadded_report(th):
    """The report on the residuals of the unpadded lift, computed here."""
    return deformation._first_failure(th, *lift_residuals(th, 0))


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


def _residual_cases():
    """Every bundled deformation, random deformations of orders 1-3 of
    every bundled morphism, over QQ and GF(7), and two invalid ones."""
    cases = []
    for field in (None, PrimeField(7)):
        for name in bundled_model_names():
            model = load_bundled_model(name, field_override=field)
            cases += model.deformations.values()
            rng = random.Random(17)
            cases += [random_deformation(psi, order, rng)
                      for psi in model.morphisms.values()
                      for order in (1, 2, 3)]
    mult1, zero1 = (load_bundled_model(name).morphisms["id"]
                    for name in ("mult1", "zero1"))
    # the mult1 variant with fD 2 l 0 0 0 5, and a morphism failure
    cases += [int_deformation(mult1, [[1, 1], [5, 0]], [[1, 1], [0, 0]],
                              [[[0]], [[0]]]),
              int_deformation(zero1, [[1, -1]], [[1, 0]], [[[2]]])]
    return cases


def test_residuals_match_the_lift():
    # every violation, order by order over K, equals the one the dense
    # checkers find on the lift padded by one order: which triples and
    # pairs, in which order, and both sides through t^{N+1}
    cases = _residual_cases()
    want = [lift_residuals(th, 1) for th in cases]
    got = [deformation._residuals(th) for th in cases]
    for th, g, w in zip(cases, got, want):
        assert g == w, th
    # the cases reach every part: axiom violations of D and E (at the
    # obstruction order at least), morphism violations, invalid ones
    assert all(any(w[part] for w in want) for part in range(3))
    assert sum(not verify_deformation(th) for th in cases) == 2


def test_an_endomorphism_is_checked_once(monkeypatch, bundled_models):
    # rigidity_probe checks an endomorphism's dialgebra as its source only
    checked = []
    check = deformation.check_dialgebra
    monkeypatch.setattr(deformation, "check_dialgebra",
                        lambda d: checked.append(d) or check(d))
    dim2 = bundled_models["dim2"]
    rigidity_probe(dim2.morphisms["id"], order=0)
    assert checked == [dim2.dialgebras["P2"]]
    checked.clear()
    rigidity_probe(dim2.morphisms["emb"], order=0)
    assert checked == [dim2.dialgebras["K"], dim2.dialgebras["P2"]]


def test_construction_builds_no_product_cochain(monkeypatch, zsetup):
    # the order-0 coefficients are compared with the model's structure
    # constants as they are
    th = z_family(zsetup[0], 1, 1, 1, 1, 0)
    monkeypatch.setattr(deformation, "product_cochain", None)
    nxt = th.extended_with(zsetup[1].zero(2))
    assert from_lift(th.psi, *lift(nxt)).fd == nxt.fd


def test_order_zero_products_need_the_model_as_module(zsetup):
    # a cochain with the model's products on another module of the same
    # size is no order-0 coefficient, as before
    psi, _ = zsetup
    d = psi.source
    other = Representation(d, 1, d.left, d.right, d.left, d.right)
    base = Cochain(2, d, other, product_cochain(d).coeffs)
    with pytest.raises(BaseMismatch):
        TruncatedDeformation(psi, [base], [product_cochain(psi.target)],
                             [psi.matrix])


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
            acc = mat_add(acc, mat_mul(series[i], inv[k - i]))
        inv.append(mat_neg(acc))
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


def _transport_cases():
    """(deformation, formal isomorphism) pairs over QQ and GF(7): random
    deformations of orders 1-3 of every bundled morphism and every bundled
    deformation, each with a random formal isomorphism of its order."""
    cases = []
    for field in (None, PrimeField(7)):
        rng = random.Random(31)
        for name in bundled_model_names():
            model = load_bundled_model(name, field_override=field)
            ths = [random_deformation(psi, order, rng)
                   for psi in model.morphisms.values() for order in (1, 2, 3)]
            ths += model.deformations.values()
            cases += [(th, random_formal_iso(th.psi, th.order, rng))
                      for th in ths]
    return cases


def test_transport_matches_the_lift():
    # order by order over K, transport equals conjugation of the lift over
    # K[t]/(t^{N+1}), coefficient by coefficient
    cases = _transport_cases()
    assert len(cases) == 48
    moved = 0
    for th, iso in cases:
        got = apply_formal_iso(th, iso)
        want = lift_apply_formal_iso(th, iso)
        assert (got.fd, got.fe, got.psis) == (want.fd, want.fe, want.psis), th
        moved += (got.fd, got.fe, got.psis) != (th.fd, th.fe, th.psis)
    assert moved > 24


def _coefficient_matrices(field, graded, order):
    """The coefficients of a graded map (``dialgebra._graded_map``) of a
    square matrix series as matrices, once its rows and its columns are
    checked to list the same entries, each list by increasing order."""
    rows, cols = graded
    by_rows = sorted((b, u, s, x) for u, row in enumerate(rows)
                     for s, x, b in row)
    by_cols = sorted((b, u, s, x) for s, col in enumerate(cols)
                     for u, x, b in col)
    assert by_rows == by_cols
    assert len({e[:3] for e in by_rows}) == len(by_rows)
    for entries in rows + cols:
        assert [b for _, _, b in entries] == sorted(b for _, _, b in entries)
    n = len(rows)
    dense = [[[field.zero] * n for _ in range(n)] for _ in range(order + 1)]
    for b, u, s, x in by_rows:
        dense[b][u][s] = field.reduce(x)
    return [Matrix(field, n, n, m) for m in dense]


def test_series_inverse():
    # Phi Psi = Psi Phi = I through t^N, read coefficient by coefficient
    rng = random.Random(7)
    n, order = 2, 4
    for field in (QQ, PrimeField(7)):
        phi = [Matrix.identity(field, n)] + [
            Matrix(field, n, n, [[field.from_int(rng.randint(-3, 3))
                                  for _ in range(n)] for _ in range(n)])
            for _ in range(order)]
        psi = _coefficient_matrices(field, deformation._inverse(
            field, dialgebra._graded_map(field, phi), order), order)
        assert psi[0] == Matrix.identity(field, n)
        for k in range(order + 1):
            want = Matrix.identity(field, n) if k == 0 else \
                Matrix.zero(field, n, n)
            for x, y in ((phi, psi), (psi, phi)):
                acc = Matrix.zero(field, n, n)
                for i in range(k + 1):
                    acc = mat_add(acc, mat_mul(x[i], y[k - i]))
                assert acc == want, (field, k)
        assert psi == _inverse_coefficients(phi)


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


def test_deformation_checks_its_coefficients(bundled_models):
    # every coefficient of psi_t must be a dim E x dim D matrix over psi's
    # field
    psi = bundled_models["mult1"].morphisms["id"]
    fd, fe = ([product_cochain(x), Cochain.zero(2, x, x)]
              for x in (psi.source, psi.target))
    for psi1, error in ((Matrix(PrimeField(7), 1, 1, [[3]]), FieldMismatch),
                        (Matrix.zero(QQ, 1, 2), ShapeMismatch)):
        with pytest.raises(error):
            TruncatedDeformation(psi, fd, fe, [psi.matrix, psi1])


def test_iso_checks_its_coefficients(bundled_models):
    # phi_D's coefficients must be dim D x dim D, phi_E's dim E x dim E,
    # both over psi's field, the constant terms included
    psi = bundled_models["zero2"].morphisms["id2"]
    gf7 = PrimeField(7)
    ident = Matrix.identity(QQ, 2)
    for phi_d, phi_e, error in (
            ([ident, Matrix.zero(QQ, 3, 3)], [ident, ident], ShapeMismatch),
            ([ident, ident], [ident, Matrix.zero(QQ, 2, 3)], ShapeMismatch),
            ([Matrix.identity(QQ, 3)], [ident], ShapeMismatch),
            ([ident, Matrix.zero(gf7, 2, 2)], [ident, ident], FieldMismatch),
            ([ident], [Matrix.identity(gf7, 2)], FieldMismatch)):
        with pytest.raises(error):
            FormalIso(psi, phi_d, phi_e)


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
