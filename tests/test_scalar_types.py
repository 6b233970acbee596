"""The type of a rational scalar does not change any result.

QQ makes an integral scalar a plain int and any other a Fraction.  Each
computation below runs twice, on inputs built as ints and on the same
inputs built as Fractions, and the results must be equal; the two CLI
reports that print scalars must be byte-identical on both builds.
"""

import random
import re
from fractions import Fraction

import pytest

from diadeform import fields
from diadeform.cli import main
from diadeform.cochain import Cochain, coboundary, coboundary_matrix, cy_dim
from diadeform.deformation import (obstruction, random_deformation,
                                   verify_deformation)
from diadeform.dialgebra import adjoint_rep
from diadeform.errors import InvalidDeformation
from diadeform.fields import QQ, Rationals
from diadeform.linalg import Matrix
from diadeform.modelfile import parse_model
from diadeform.models import bundled_model_names, bundled_model_text
from diadeform.morphism_complex import MorphismComplex, complex_of

TOKENS = ("0", "0", "0", "1", "-1", "2", "-3", "1/2", "-2/3")


def _as_fraction(text):
    return Fraction(*fields._parse_ratio(text, "rational"))


def build(text, as_fractions):
    """A scalar token as QQ reads it, or as a Fraction."""
    return _as_fraction(text) if as_fractions else QQ.parse(text)


def _scale_products(text, keywords):
    """The model with the values of the given coefficient keywords halved:
    with both product keywords of a model, every object stays valid, as
    the axioms are quadratic and the morphism equation linear in them."""
    def halve(match):
        return "%s%s" % (match.group(1), Fraction(match.group(2)) / 2)
    return re.sub(r"(?m)^(\s*(?:%s) .* )(\S+)$" % "|".join(keywords),
                  halve, text)


MODELS = {name: bundled_model_text(name) for name in bundled_model_names()}
MODELS.update({"%s_halved" % name: _scale_products(text, ("left", "right",
                                                          "fD", "fE"))
               for name, text in list(MODELS.items())})
MODELS["mult1_lopsided"] = _scale_products(MODELS["mult1"], ("left", "fD"))


def _parse(text, as_fractions, monkeypatch):
    if not as_fractions:
        return parse_model(text)
    with monkeypatch.context() as patch:
        patch.setattr(Rationals, "parse",
                      lambda self, token: _as_fraction(token))
        return parse_model(text)


def _assert_pivot_vectors_canonical(m):
    for vec in m._eliminate()[0].values():
        for x in vec.values():
            assert not (isinstance(x, Fraction) and x.denominator == 1), vec


def test_inverse_is_integral_when_it_can_be():
    assert QQ.inv(2) == Fraction(1, 2)
    assert type(QQ.inv(-1)) is int and QQ.inv(-1) == -1
    third = Fraction(1, 3)
    assert type(QQ.inv(third)) is int and QQ.inv(third) == 3
    assert QQ.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)
    f7 = fields.PrimeField(7)
    assert f7.inv(f7.from_int(3)) == f7.from_int(5)


@pytest.mark.parametrize("seed", range(8))
def test_elimination_ignores_the_scalar_type(seed):
    rng = random.Random(seed)
    r, c = rng.randint(1, 7), rng.randint(1, 7)
    tokens = [[rng.choice(TOKENS) for _ in range(c)] for _ in range(r)]
    x = [rng.choice(TOKENS) for _ in range(c)]
    results = []
    for as_fractions in (False, True):
        # a zero last row makes b_bad, which is 1 there, inconsistent
        rows = [[build(t, as_fractions) for t in row] for row in tokens]
        m = Matrix(QQ, r + 1, c, rows + [[QQ.zero] * c])
        b_ok = m.apply(tuple(build(t, as_fractions) for t in x))
        b_bad = b_ok[:-1] + (QQ.one,)
        got = (m.rank(), m.kernel_basis(), m.solve(b_ok), m.solve(b_bad))
        assert got[2] is not None and m.apply(got[2]) == b_ok
        assert got[3] is None
        _assert_pivot_vectors_canonical(m)
        results.append(got)
    assert results[0] == results[1]


def _computations(model, as_fractions, seed):
    """What the workbench computes from a model and seeded cochains."""
    rng = random.Random(seed)

    def coords(size):
        return tuple(build(rng.choice(TOKENS), as_fractions)
                     for _ in range(size))

    out = []
    for d in model.dialgebras.values():
        rep = adjoint_rep(d)
        for n in range(3):
            mat = coboundary_matrix(d, rep, n)
            c = Cochain(n, d, rep, coords(cy_dim(d, rep, n)))
            out += [mat, mat.rank(), coboundary(c).coeffs]
            _assert_pivot_vectors_canonical(mat)
    for psi in model.morphisms.values():
        cx = complex_of(psi)
        for n in (1, 2):
            mat = cx.matrix(n)
            out += [mat, mat.rank(), mat.kernel_basis()]
            _assert_pivot_vectors_canonical(mat)
        out.append(cx.vec(cx.coboundary(cx.unvec(2, coords(cx.dim(2))))))
        try:
            th = random_deformation(psi, 2, random.Random(seed))
            out += [[c.coeffs for c in th.fd + th.fe], th.psis]
        except InvalidDeformation as exc:  # the lopsided model's
            out.append(str(exc))
    for th in model.deformations.values():
        report = verify_deformation(th)
        out.append(report)
        if report and th.order >= 1:
            out.append(MorphismComplex(th.psi).vec(obstruction(th).cochain))
    return out


@pytest.mark.parametrize("name", sorted(MODELS))
def test_computations_ignore_the_scalar_type(name, monkeypatch):
    as_int = _parse(MODELS[name], False, monkeypatch)
    as_fraction = _parse(MODELS[name], True, monkeypatch)
    assert all(type(x) is Fraction
               for psi in as_fraction.morphisms.values()
               for row in psi.matrix.dense_rows() for x in row if x)
    assert _computations(as_int, False, 1) \
        == _computations(as_fraction, True, 1)


@pytest.mark.parametrize("name", sorted(set(MODELS) - set(bundled_model_names())))
def test_lifted_coboundary_matches_the_matrix_on_rationals(name):
    # on the non-integral models the elementwise path sums Fractions, the
    # matrix path multiplies the same scalars: the two must agree
    model = parse_model(MODELS[name])
    rng = random.Random(3)

    def coords(size):
        return tuple(QQ.parse(rng.choice(TOKENS)) for _ in range(size))

    for d in model.dialgebras.values():
        rep = adjoint_rep(d)
        for n in range(4):
            c = Cochain(n, d, rep, coords(cy_dim(d, rep, n)))
            assert (coboundary(c).coeffs
                    == coboundary_matrix(d, rep, n).apply(c.coeffs)), n
    for psi in model.morphisms.values():
        cx = MorphismComplex(psi)
        for n in (1, 2):
            v = coords(cx.dim(n))
            assert (cx.vec(cx.coboundary(cx.unvec(n, v)))
                    == cx.matrix(n).apply(v)), n


def _fraction_build(patch):
    """QQ building every scalar as a Fraction, integral or not."""
    patch.setattr(Rationals, "zero", Fraction(0))
    patch.setattr(Rationals, "one", Fraction(1))
    patch.setattr(Rationals, "from_int", lambda self, n: Fraction(n))
    patch.setattr(Rationals, "parse", lambda self, token: _as_fraction(token))
    patch.setattr(Rationals, "inv", lambda self, x: 1 / Fraction(x))


def _reports(tmp_path, name, capsys):
    path = tmp_path / ("%s.dl" % name)
    path.write_text(MODELS[name])
    out = []
    for fmt in ("text", "records"):
        argvs = [["check", str(path)]] + [
            ["deform-verify", str(path), "--deformation", th]
            for th in parse_model(MODELS[name]).deformations]
        for argv in argvs:
            code = main(["--format", fmt] + argv)
            captured = capsys.readouterr()
            out.append((argv[0], fmt, code, captured.out, captured.err))
    return out


@pytest.mark.parametrize("name", sorted(MODELS))
def test_reports_ignore_the_scalar_type(name, tmp_path, capsys,
                                        monkeypatch):
    as_int = _reports(tmp_path, name, capsys)
    with monkeypatch.context() as patch:
        _fraction_build(patch)
        assert type(QQ.parse("2")) is Fraction
        as_fraction = _reports(tmp_path, name, capsys)
    assert as_int == as_fraction
