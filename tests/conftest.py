import itertools
import random

import pytest

from diadeform.cochain import Cochain, product_cochain
from diadeform.deformation import TruncatedDeformation
from diadeform.dialgebra import (AXIOMS, Dialgebra, DialgebraMorphism,
                                 _combine, adjoint_rep)
from diadeform.fields import QQ, PrimeField
from diadeform.linalg import Matrix
from diadeform.models import bundled_model_names, load_bundled_model


def zero_dialgebra(dim, name="Z"):
    return Dialgebra(dim, QQ, name=name)


def mult_dialgebra(name="K"):
    # 1-dim, both products = ordinary multiplication
    one = [[[QQ.one]]]
    return Dialgebra(1, QQ, left=one, right=one, name=name)


def int_deformation(psi, fds, fes, ss):
    """A deformation of psi from flat integer coefficient lists, one list
    per order >= 1: fds/fes hold 2-cochain coordinates, ss matrix rows."""
    f = psi.field
    d, e = psi.source, psi.target
    ints = lambda xs: [f.from_int(x) for x in xs]
    return TruncatedDeformation(
        psi,
        [product_cochain(d)] + [Cochain(2, d, adjoint_rep(d), ints(c))
                                for c in fds],
        [product_cochain(e)] + [Cochain(2, e, adjoint_rep(e), ints(c))
                                for c in fes],
        [psi.matrix] + [Matrix(f, e.dim, d.dim, [ints(r) for r in s])
                        for s in ss])


def dense_axiom_violations(d):
    """The axiom checker as it was before it went term-major, kept as a
    reference: for each axiom and basis triple, both sides by dense
    contractions of D's tensors, x o (y . z) from inner[j][k] and the rows
    outer[i][s], (x . y) o z from inner[i][j] and the rows outer[s][k]."""
    z = d.field.zero
    violations = []
    for num, axiom in enumerate(AXIOMS, start=1):
        for i, j, k in itertools.product(range(d.dim), repeat=3):
            lv, rv = (
                _combine(z, d.tensor(inner)[j][k], d.tensor(outer)[i])
                if side == "R" else
                _combine(z, d.tensor(inner)[i][j],
                         [row[k] for row in d.tensor(outer)])
                for side, outer, inner in axiom)
            if lv != rv:
                violations.append((num, i, j, k, lv, rv))
    return tuple(violations)


def randint_sequence(seed, lo, hi, count):
    """A fresh rng's first count randint(lo, hi) draws, and its state."""
    ref = random.Random(seed)
    return [ref.randint(lo, hi) for _ in range(count)], ref.getstate()


@pytest.fixture
def rng():
    return random.Random(12345)


@pytest.fixture(scope="session")
def bundled_models():
    return {name: load_bundled_model(name) for name in bundled_model_names()}


@pytest.fixture(scope="session")
def gf7_models():
    return {name: load_bundled_model(name, field_override=PrimeField(7))
            for name in bundled_model_names()}


def tagged(models, kind):
    """(model.name, object) for every dialgebra or morphism of the models."""
    return [("%s.%s" % (mname, name), obj)
            for mname, model in models.items()
            for name, obj in getattr(model, kind).items()]


@pytest.fixture(scope="session")
def all_dialgebras(bundled_models):
    return tagged(bundled_models, "dialgebras")


@pytest.fixture(scope="session")
def all_morphisms(bundled_models):
    return tagged(bundled_models, "morphisms")


def mirror(d):
    """D^op: x -|' y = y |- x and x |-' y = y -| x."""
    def swap(t):
        return [[t[j][i] for j in range(d.dim)] for i in range(d.dim)]
    return Dialgebra(d.dim, d.field, swap(d.right), swap(d.left),
                     name=d.name + "^op")


def random_frame(field, n, rng):
    """A seeded invertible integer n x n matrix P and its inverse."""
    ident = Matrix.identity(field, n)
    while True:
        p = Matrix(field, n, n, [[field.from_int(rng.randint(-2, 2))
                                  for _ in range(n)] for _ in range(n)])
        if p.rank() == n:
            # column j of P^-1 solves P x = e_j
            inv_cols = [p.solve(e) for e in ident.dense_rows()]
            return p, Matrix(field, n, n, inv_cols).transpose()


def change_basis(d, p, p_inv):
    """D rewritten by P, straight from the definition: for both products,
    T'(x, y) = P T(P^-1 x, P^-1 y), with T(u, v) = sum u_a v_b T[a][b]."""
    n, z = d.dim, d.field.zero
    cols = p_inv.transpose().dense_rows()  # P^-1 e_i

    def rewrite(t):
        out = [[None] * n for _ in range(n)]
        for i, j in itertools.product(range(n), repeat=2):
            v = [z] * n
            for a, b, k in itertools.product(range(n), repeat=3):
                v[k] = v[k] + cols[i][a] * cols[j][b] * t[a][b][k]
            out[i][j] = p.apply(v)
        return out
    return Dialgebra(n, d.field, rewrite(d.left), rewrite(d.right),
                     name=d.name + "'")


@pytest.fixture
def zd1():
    return zero_dialgebra(1)


@pytest.fixture
def mult():
    return mult_dialgebra()


@pytest.fixture
def mult_id(mult):
    return DialgebraMorphism.identity(mult)


@pytest.fixture
def zd1_id(zd1):
    return DialgebraMorphism.identity(zd1)
