import itertools
import random
from dataclasses import dataclass

import pytest

from diadeform.cochain import Cochain, coboundary_matrix, product_cochain
from diadeform.deformation import TruncatedDeformation
from diadeform.dialgebra import (AXIOMS, LEFT, RIGHT, Dialgebra,
                                 DialgebraMorphism, adjoint_rep,
                                 flat_products)
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


def mat_add(a, b):
    """a + b, entry by entry: a dense reference for matrix sums."""
    assert a.field == b.field and (a.rows, a.cols) == (b.rows, b.cols)
    return Matrix(a.field, a.rows, a.cols,
                  [[a[i, j] + b[i, j] for j in range(a.cols)]
                   for i in range(a.rows)])


def mat_neg(a):
    """-a, entry by entry: a dense reference for negation."""
    return Matrix(a.field, a.rows, a.cols,
                  [[-x for x in row] for row in a.dense_rows()])


def mat_block(field, rows, cols, placements):
    """The rows x cols matrix with each block of (r0, c0, block) placed at
    offset (r0, c0), zero elsewhere: a dense reference for block matrices;
    the blocks must not overlap."""
    grid = [[field.zero] * cols for _ in range(rows)]
    for r0, c0, blk in placements:
        for i, row in enumerate(blk.dense_rows()):
            grid[r0 + i][c0:c0 + blk.cols] = row
    return Matrix(field, rows, cols, grid)


def reference_delta(cx, n):
    """The matrix of delta: CY^n(psi,psi) -> CY^{n+1}(psi,psi) built
    densely from its five blocks, each assembled on its own: delta_D,
    delta_E, psi.xi, -pi.psi and -delta phi.  Degree 0 is the zero
    module, so delta^0 has no columns."""
    if n <= 0:
        return Matrix.zero(cx.field, cx.dim(1), 0)
    dd = coboundary_matrix(cx.D, cx.D, n)
    de = coboundary_matrix(cx.E, cx.E, n)
    r2, c2 = dd.rows + de.rows, dd.cols + de.cols
    return mat_block(cx.field, cx.dim(n + 1), cx.dim(n), [
        (0, 0, dd), (dd.rows, dd.cols, de), (r2, 0, cx.push_matrix(n)),
        (r2, dd.cols, mat_neg(cx.pull_matrix(n))),
        (r2, c2, mat_neg(coboundary_matrix(cx.D, cx.rep_de, n - 1)))])


def mat_mul(a, b):
    """a b, entry by entry from the definition: a dense reference for
    matrix products."""
    assert a.field == b.field and a.cols == b.rows
    return Matrix(a.field, a.rows, b.cols,
                  [[sum((a[i, k] * b[k, j] for k in range(a.cols)),
                        a.field.zero) for j in range(b.cols)]
                   for i in range(a.rows)])


def _combine(zero, coeffs, rows):
    """sum_s coeffs[s] * rows[s] on coordinate vectors, skipping zero
    coefficients: the dense contraction of the references below."""
    out = None
    for c, row in zip(coeffs, rows):
        if c != zero:
            out = ([c * x for x in row] if out is None
                   else [o + c * x for o, x in zip(out, row)])
    return (zero,) * len(rows[0]) if out is None else tuple(out)


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


def dense_morphism_violations(psi):
    """The morphism checker as it was before it went graded, kept as a
    reference: for each label and basis pair, psi(e_i o e_j) by applying
    psi's matrix and psi(e_i) o psi(e_j) by dense contractions of E's
    tensors with psi's columns."""
    d, e = psi.source, psi.target
    violations = []
    for label, table in zip((LEFT, RIGHT), image_products(e, psi.matrix)):
        for i in range(d.dim):
            for j in range(d.dim):
                lhs = psi(d.tensor(label)[i][j])
                if lhs != table[i][j]:
                    violations.append((label, i, j, lhs, table[i][j]))
    return tuple(violations)


def image_products(e, matrix):
    """The tables psi(e_i) o psi(e_j) of E, for -| and for |-, where the
    linear map psi into E is given by its matrix: the pulled-back action
    psi(e_i) o m contracted with the column psi(e_j)."""
    z = e.field.zero
    cols = matrix.dense_columns()

    def on_left(t):  # T'[i][u] = sum_s psi[s,i] * T[s][u]
        return [[_combine(z, c, [block[u] for block in t])
                 for u in range(len(t))] for c in cols]

    return tuple([[_combine(z, cj, block) for cj in cols]
                  for block in on_left(t)]
                 for t in (e.left, e.right))


# -- the truncated power-series ring K[t]/(t^{N+1}), kept as a reference --
#
# The library reads every identity on a deformation one t-coefficient at a
# time over K.  The references below compute the same identities as they
# once were: on dialgebras and morphisms whose scalars are truncated power
# series, through the generic dense checkers and matrix arithmetic.


class Series:
    """A truncated power series c_0 + c_1 t + ... + c_N t^N over a field.

    The coefficients are exact and products are truncated at t^N.  There
    is no division: eliminating a matrix over the ring fails loudly.
    """

    __slots__ = ("ring", "c")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.c = tuple(coeffs)

    def __add__(self, other):
        return Series(self.ring, [a + b for a, b in zip(self.c, other.c)])

    def __sub__(self, other):
        return Series(self.ring, [a - b for a, b in zip(self.c, other.c)])

    def __neg__(self):
        return Series(self.ring, [-a for a in self.c])

    def __mul__(self, other):
        n = len(self.c)
        out = [self.ring.field.zero] * n
        theirs = [(j, b) for j, b in enumerate(other.c) if b]
        for i, a in enumerate(self.c):
            if a:
                for j, b in theirs:
                    if i + j < n:
                        out[i + j] = out[i + j] + a * b
        return Series(self.ring, out)

    def __eq__(self, other):
        return isinstance(other, Series) and self.c == other.c

    def __hash__(self):
        return hash(self.c)


@dataclass(frozen=True)
class SeriesRing:
    """Ring descriptor for K[t]/(t^{N+1}) over a base field K."""

    field: object
    order: int

    @property
    def zero(self):
        return self.from_int(0)

    @property
    def one(self):
        return self.from_int(1)

    def from_int(self, n):
        return Series(self, [self.field.from_int(n)]
                      + [self.field.zero] * self.order)

    def inv(self, x):
        raise TypeError("K[t]/(t^%d) is not a field: no division"
                        % (self.order + 1))

    def owns(self, x):
        return isinstance(x, Series) and x.ring == self


def coefficient_sides(violations):
    """Violations whose two sides are tuples of series, with each series
    read as the tuple of its coefficients, as the library reports them."""
    return tuple(v[:-2] + tuple(tuple(x.c for x in side) for side in v[-2:])
                 for v in violations)


def _rows(flat, width):
    return [flat[i:i + width] for i in range(0, len(flat), width)]


def _lift(ring, flats):
    """Series whose t^n coefficients are flats[n], zero above the last."""
    pad = (ring.field.zero,) * ring.order
    return [Series(ring, (col + pad)[:ring.order + 1]) for col in zip(*flats)]


def _lift_matrix(ring, ms):
    """The matrix sum_n ms[n] t^n over the series ring."""
    flat = _lift(ring, [sum(m.dense_rows(), ()) for m in ms])
    return Matrix(ring, ms[0].rows, ms[0].cols, _rows(flat, ms[0].cols))


def _lift_products(ring, d, fs):
    """The dialgebra on D's space with products sum_n fs[n] t^n; the flat
    coordinates of a product 2-cochain are its left, then right tensor."""
    blocks = _rows(_rows(_lift(ring, [f.coeffs for f in fs]), d.dim), d.dim)
    return Dialgebra(d.dim, ring, blocks[:d.dim], blocks[d.dim:],
                     basis_names=d.basis_names, name=d.name)


def lift(th, pad=0):
    """(D_t, E_t, psi_t) of a deformation over K[t]/(t^{N+1+pad}), zero
    above order N."""
    ring = SeriesRing(th.field, th.order + pad)
    d_t = _lift_products(ring, th.psi.source, th.fd)
    e_t = _lift_products(ring, th.psi.target, th.fe)
    return d_t, e_t, DialgebraMorphism(
        d_t, e_t, _lift_matrix(ring, th.psis), name=th.psi.name)


def from_lift(psi, d_t, e_t, psi_t):
    """The deformation of psi whose lift is (D_t, E_t, psi_t)."""
    d, e = psi.source, psi.target
    fd, fe = flat_products(d_t), flat_products(e_t)
    m = sum(psi_t.matrix.dense_rows(), ())
    orders = range(d_t.field.order + 1)
    return TruncatedDeformation(
        psi,
        [Cochain(2, d, d, [x.c[n] for x in fd]) for n in orders],
        [Cochain(2, e, e, [x.c[n] for x in fe]) for n in orders],
        [Matrix(psi.field, e.dim, d.dim, _rows([x.c[n] for x in m], d.dim))
         for n in orders])


def unipotent_inverse(phi):
    """The inverse of a square matrix over K[t]/(t^{N+1}) with identity
    constant term: sum_{k <= N} (I - phi)^k, as (I - phi)^{N+1} = 0."""
    ident = Matrix.identity(phi.field, phi.rows)
    nilpotent = mat_add(ident, mat_neg(phi))
    inv = power = ident
    for _ in range(phi.field.order):
        power = mat_mul(power, nilpotent)
        inv = mat_add(inv, power)
    return inv


def _conjugate(d_t, phi, inv):
    """The lifted dialgebra with products phi f(inv x, inv y)."""
    left, right = ([[phi.apply(v) for v in row] for row in table]
                   for table in image_products(d_t, inv))
    return Dialgebra(d_t.dim, d_t.field, left, right,
                     basis_names=d_t.basis_names, name=d_t.name)


def lift_apply_formal_iso(th, iso):
    """Transport as it was before it went order by order, kept as a
    reference: over K[t]/(t^{N+1}), f'(x, y) = Phi f(Phi^-1 x, Phi^-1 y)
    on D and on E, and psi' = Phi_E psi Phi_D^-1, on the lift."""
    d_t, e_t, psi_t = lift(th)
    phi_d = _lift_matrix(d_t.field, iso.phi_d)
    phi_e = _lift_matrix(d_t.field, iso.phi_e)
    inv_d = unipotent_inverse(phi_d)
    new_d = _conjugate(d_t, phi_d, inv_d)
    new_e = _conjugate(e_t, phi_e, unipotent_inverse(phi_e))
    return from_lift(
        th.psi, new_d, new_e,
        DialgebraMorphism(new_d, new_e,
                          mat_mul(mat_mul(phi_e, psi_t.matrix), inv_d)))


def succeeded(report):
    """Whether an ``ExtensionReport`` reached its target order."""
    return report.reached >= report.target


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
            return p, Matrix.from_columns(field, n, n, {
                j: dict(enumerate(col)) for j, col in enumerate(inv_cols)})


def change_basis(d, p, p_inv):
    """D rewritten by P, straight from the definition: for both products,
    T'(x, y) = P T(P^-1 x, P^-1 y), with T(u, v) = sum u_a v_b T[a][b]."""
    n, z = d.dim, d.field.zero
    cols = p_inv.dense_columns()  # P^-1 e_i

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
