import itertools
import operator
import random
from fractions import Fraction

import pytest

from conftest import (change_basis, mirror, mult_dialgebra, random_frame,
                      tagged, zero_dialgebra)

from diadeform import cochain, fields
from diadeform.cochain import (COORDINATE_BUDGET, Cochain, _coeffs,
                               coboundary, coboundary_matrix, cohomology_dim,
                               cy_dim, flat_offset, product_cochain,
                               random_cochain)
from diadeform.dialgebra import (Dialgebra, DialgebraMorphism,
                                 Representation, adjoint_rep,
                                 check_dialgebra, check_morphism,
                                 pullback_rep)
from diadeform.errors import CapExceeded, IndexOutOfRange, ShapeMismatch
from diadeform.fields import QQ, GFElement, PrimeField
from diadeform.linalg import Matrix
from diadeform.models import load_bundled_model
from diadeform.morphism_complex import MorphismComplex
from diadeform.trees import (ProductLabel, catalan, enumerate_trees,
                             tree_plan)

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
    # same terms in different arithmetic; they must agree on random input,
    # and the formula also with the reference, which reads no term plan
    # (every case is within the coordinate budget: the matrix checks it)
    for tag, d, rep in coboundary_cases(bundled_models, gf7_models):
        for n in range(0, 5):
            c = random_cochain(d, rep, n, rng)
            mat = coboundary_matrix(d, rep, n)
            delta_c = coboundary(c).coeffs
            assert mat.apply(c.coeffs) == delta_c, (tag, n)
            assert (reference_coboundary_matrix(d, rep, n).apply(c.coeffs)
                    == delta_c), (tag, n)


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
        c = data.setdefault(j, {})
        c[i] = c[i] + val if i in c else val

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
    return Matrix.from_columns(d.field, cy_dim(d, rep, n + 1),
                               cy_dim(d, rep, n), data)


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
    # the elementwise paths sum lifted numbers: over GF(p) a coboundary,
    # also on emb's pullback representation, whose action tensors are not
    # D's products, the push-forward and pull-back of CY*(psi,psi) along
    # id and emb, and pullback_rep make no GFElement sum, difference,
    # product or negation
    gf = PrimeField(32003)
    model = load_bundled_model("dim2", field_override=gf)
    d, psi_id, emb = (model.dialgebras["P2"], model.morphisms["id"],
                      model.morphisms["emb"])
    rng = random.Random(7)
    cochains = [random_cochain(d, adjoint_rep(d), 2, rng),
                random_cochain(emb.source, pullback_rep(emb), 3, rng)]
    expected = [coboundary_matrix(c.dialgebra, c.rep, c.degree).apply(c.coeffs)
                for c in cochains]
    complexes = [MorphismComplex(psi) for psi in (psi_id, emb)]
    pairs = [(random_cochain(cx.D, cx.D, 3, rng),
              random_cochain(cx.E, cx.E, 3, rng)) for cx in complexes]
    for cx, (xi, pi) in zip(complexes, pairs):
        expected += [cx.push_matrix(3).apply(xi.coeffs),
                     cx.pull_matrix(3).apply(pi.coeffs)]
    emb_rep = pullback_rep(emb)
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
    for cx, (xi, pi) in zip(complexes, pairs):
        got += [cx.push_forward(xi), cx.pull_back(pi)]
    reps = [pullback_rep(psi) for psi in (psi_id, emb)]
    monkeypatch.undo()
    assert calls == []
    for g, coeffs in zip(got, expected):
        assert g.coeffs == coeffs and not g.is_zero()
    assert (reps[0].act_dl, reps[0].act_dr, reps[0].act_ld,
            reps[0].act_rd) == (d.left, d.right, d.left, d.right)
    assert reps[1] == emb_rep


def test_second_coboundary_makes_no_element(monkeypatch):
    # over GF(p) a coboundary keeps the residues it computes and makes no
    # scalar until its coefficients are read: neither coboundary of
    # delta(delta c) makes a GFElement, on CY*(D,D) and on CY*(psi,psi)
    gf = PrimeField(32003)
    model = load_bundled_model("dim2", field_override=gf)
    d = model.dialgebras["P2"]
    cx = MorphismComplex(model.morphisms["id"])
    rng = random.Random(11)
    cases = [(coboundary, random_cochain(d, d, 2, rng)),
             (cx.coboundary, cx.random_cochain(1, rng))]
    made, gf_element = [], fields._gf

    def counted(p, v):
        made.append(v)
        return gf_element(p, v)

    monkeypatch.setattr(fields, "_gf", counted)
    onces = [delta(c) for delta, c in cases]
    twice = [delta(once) for (delta, _), once in zip(cases, onces)]
    assert all(t.is_zero() for t in twice)
    assert not any(once.is_zero() for once in onces)
    # nor do sums, differences, negation, equality and hashing on them
    for once in onces:
        double = once + once
        assert double - once == once and double != once
        assert (-once + once).is_zero() and not (-once).is_zero()
        assert hash(double - once) == hash(once)
    monkeypatch.undo()
    assert made == []


def test_value_checks_its_indices():
    # value reads one coordinate tuple; a tree or basis index out of range
    # or a multi-index of the wrong length is an error, not another value
    d = load_bundled_model("dim2").dialgebras["P2"]
    c = random_cochain(d, d, 2, random.Random(24))
    for t, multi in itertools.product(range(catalan(2)),
                                      itertools.product(range(d.dim),
                                                        repeat=2)):
        off = flat_offset(t, multi, d.dim, d.dim)
        assert c.value(t, multi) == c.coeffs[off:off + d.dim]
    for t, multi in ((0, (0, 3)), (5, (0, 0)), (2, (0, 0)), (-1, (0, 0)),
                     (0, (0, -1)), (0, (2, 0)), (0, (0,)), (0, (0, 0, 0)),
                     (0, ())):
        with pytest.raises(IndexOutOfRange):
            c.value(t, multi)


def _computed_cochains(field):
    """(name, make): make() computes a cochain from plain numbers, on
    CY*(D,D), on emb's pullback representation and in CY*(psi,psi); the
    names ending in "zero" compute a delta(delta c)."""
    model = load_bundled_model("dim2", field_override=field)
    d, emb = model.dialgebras["P2"], model.morphisms["emb"]
    cx = MorphismComplex(emb)
    rng = random.Random(field.name)
    c = random_cochain(d, d, 2, rng)
    e = random_cochain(emb.source, pullback_rep(emb), 2, rng)
    mc = cx.random_cochain(2, rng)
    return [("CY(D,D)", lambda: coboundary(c)),
            ("CY(D,D) zero", lambda: coboundary(coboundary(c))),
            ("pullback rep", lambda: coboundary(e)),
            ("push-forward", lambda: cx.push_forward(mc.xi)),
            ("pull-back", lambda: cx.pull_back(mc.pi)),
            ("third block", lambda: cx.coboundary(mc).phi),
            ("third block zero",
             lambda: cx.coboundary(cx.coboundary(mc)).phi)]


@pytest.mark.parametrize("p", [2, 7, 32003])
def test_residue_cochains_behave_as_their_coefficients(p):
    # a cochain computed over GF(p) keeps residues only; every operation
    # on it gives what it gives on the cochain built from its coefficients
    field = PrimeField(p)
    zero_tests = set()
    for name, make in _computed_cochains(field):
        def fresh():
            r = make()
            with pytest.raises(AttributeError):  # no coefficients yet
                _coeffs(r)
            return r

        r = fresh()
        full = Cochain(r.degree, r.dialgebra, r.rep, r.coeffs)
        coeffs = full.coeffs
        assert r.residues == tuple(x.v for x in coeffs), name
        assert all(type(x) is GFElement and field.owns(x) for x in coeffs)
        # the field's shared zero is the only residue made once for all
        assert all(x is field.zero for x in coeffs if not x), name
        assert fresh().coeffs == coeffs, name
        assert fresh() == full and full == fresh() and fresh() == fresh()
        assert hash(fresh()) == hash(full), name
        assert fresh().is_zero() == full.is_zero() == name.endswith("zero")
        zero_tests.add(full.is_zero())
        assert list(fresh().nonzero_values()) == list(full.nonzero_values())
        places = list(itertools.product(
            range(catalan(r.degree)),
            itertools.product(range(r.dialgebra.dim), repeat=r.degree)))
        r = fresh()
        assert ([r.value(*place) for place in places]
                == [full.value(*place) for place in places]), name
        # arithmetic on residues gives what it gives on the scalars
        for op in (operator.add, operator.sub):
            want = tuple(map(op, coeffs, coeffs))
            for a, b in ((fresh(), fresh()), (fresh(), full),
                         (full, fresh()), (full, full)):
                got = op(a, b)
                built = Cochain(r.degree, r.dialgebra, r.rep, want)
                assert got == built and hash(got) == hash(built), (name, op)
                assert got.coeffs == want, (name, op)
        assert (-fresh()).coeffs == tuple(-x for x in coeffs), name
    assert zero_tests == {False, True}


def test_qq_coboundaries_keep_their_numbers(monkeypatch):
    # over QQ the plain numbers are the coefficients: a computed cochain
    # holds the very ints the coboundary summed, as one tuple that is both
    # its coeffs and its residues
    summed = []

    def recorded(f):
        summed.append(values_of(f))
        return summed[-1]

    values_of = cochain._coboundary_values
    monkeypatch.setattr(cochain, "_coboundary_values", recorded)
    for name, make in _computed_cochains(QQ):
        r = make()
        coeffs = _coeffs(r)
        assert r.residues is coeffs, name
        assert all(type(x) is int for x in coeffs), name
        if name.startswith("CY(D,D)") or name == "pullback rep":
            assert len(coeffs) == len(summed[-1]), name
            assert all(a is b for a, b in zip(coeffs, summed[-1])), name
        # so is a QQ cochain from the public constructor
        built = Cochain(r.degree, r.dialgebra, r.rep, coeffs)
        assert built.residues is built.coeffs is coeffs, name


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(7),
                                   PrimeField(32003)])
def test_zero_tests_agree_with_equality(field):
    # is_zero tests the residues and nonzero_values counts the field's
    # zero; both find every zero, such as a GFElement(p, 0) made directly,
    # the zero of a second PrimeField(p) or a Fraction(0) among int zeros,
    # and a cochain kept as residues agrees
    if field == QQ:
        zeros, nonzero = [0, Fraction(0), Fraction(0, 5)], [1, Fraction(-1, 2)]
    else:
        p = field.p
        zeros = [field.zero, GFElement(p, 0), PrimeField(p).zero]
        nonzero = [field.one, GFElement(p, p - 1)]
    d, n, rng = Dialgebra(2, field), 2, random.Random(field.name)
    size, m = cy_dim(d, d, n), d.dim
    places = [(tree.index, multi) for tree in enumerate_trees(n)
              for multi in itertools.product(range(d.dim), repeat=n)]
    cochains = ([[rng.choice(zeros) for _ in range(size)] for _ in range(8)]
                + [[rng.choice(zeros * 3 + nonzero) for _ in range(size)]
                   for _ in range(24)]
                + [[nonzero[-1] if j == i else field.zero
                    for j in range(size)] for i in range(size)])
    for coeffs in cochains:
        values = [tuple(coeffs[i:i + m]) for i in range(0, size, m)]
        for c in (Cochain(n, d, d, coeffs),
                  cochain._of_numbers(n, d, d, map(field.lift, coeffs))):
            assert c.is_zero() == all(x == field.zero for x in coeffs)
            assert ([(t.index, multi, v)
                     for t, multi, v in c.nonzero_values()]
                    == [place + (v,) for place, v in zip(places, values)
                        if not all(x == field.zero for x in v)])
    assert 8 <= sum(Cochain(n, d, d, c).is_zero() for c in cochains) < 32


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

