"""Finite-dimensional dialgebras, representations, and morphisms.

All objects carry exact structure constants over a common field.  Axiom
checking iterates every basis triple; bilinearity makes this complete.
There is no general product API: each axiom side, pulled-back action
and image product psi(e_i) o psi(e_j) is one contraction (``_combine``)
of structure constants read by index with a coordinate vector.
"""

import itertools
from dataclasses import dataclass

from .errors import FieldMismatch, ShapeMismatch
from .fields import QQ
from .linalg import Matrix, _coerce
from .trees import ProductLabel

LEFT = ProductLabel.LEFT
RIGHT = ProductLabel.RIGHT

# The five dialgebra axioms, each an equality of two bracketed triple
# products.  "R" means x o (y o z), "L" means (x o y) o z; the pair is
# (outer product, inner product).
#   1: x -|(y -| z)  = (x -| y) -| z
#   2: (x -| y) -| z = x -|(y |- z)
#   3: (x |- y) -| z = x |-(y -| z)
#   4: (x -| y) |- z = x |-(y |- z)
#   5: x |-(y |- z)  = (x |- y) |- z
AXIOMS = (
    (("R", LEFT, LEFT), ("L", LEFT, LEFT)),
    (("L", LEFT, LEFT), ("R", LEFT, RIGHT)),
    (("L", LEFT, RIGHT), ("R", RIGHT, LEFT)),
    (("L", RIGHT, LEFT), ("R", RIGHT, RIGHT)),
    (("R", RIGHT, RIGHT), ("L", RIGHT, RIGHT)),
)


def _check_tensor(field, tensor, d1, d2, d3, what):
    if len(tensor) != d1:
        raise ShapeMismatch("%s: expected %d slices" % (what, d1))
    out = []
    for block in tensor:
        if len(block) != d2:
            raise ShapeMismatch("%s: expected %d rows" % (what, d2))
        rows = []
        for row in block:
            if len(row) != d3:
                raise ShapeMismatch("%s: expected %d entries" % (what, d3))
            rows.append(tuple(_coerce(field, x) for x in row))
        out.append(tuple(rows))
    return tuple(out)


def _combine(zero, coeffs, rows):
    """sum_s coeffs[s] * rows[s] on coordinate vectors, skipping zero
    coefficients: the contraction behind every product evaluation."""
    out = None
    for c, row in zip(coeffs, rows):
        if c != zero:
            out = ([c * x for x in row] if out is None
                   else [o + c * x for o, x in zip(out, row)])
    return (zero,) * len(rows[0]) if out is None else tuple(out)


@dataclass(frozen=True)
class Report:
    valid: bool
    violations: tuple = ()

    def __bool__(self):
        return self.valid


class Dialgebra:
    """A dialgebra given by left/right structure tensors on a fixed basis.

    left[i][j][k] is the coefficient of e_k in e_i -| e_j, and right the
    same for |-.
    """

    __slots__ = ("name", "dim", "field", "left", "right", "basis_names")

    def __init__(self, dim, field=QQ, left=None, right=None,
                 basis_names=None, name="D"):
        if dim < 1:
            raise ShapeMismatch("dialgebra dimension must be >= 1")
        z = field.zero
        zero_tensor = [[[z] * dim for _ in range(dim)] for _ in range(dim)]
        left = left if left is not None else zero_tensor
        right = right if right is not None else zero_tensor
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "left",
                           _check_tensor(field, left, dim, dim, dim, "left"))
        object.__setattr__(self, "right",
                           _check_tensor(field, right, dim, dim, dim, "right"))
        if basis_names is None:
            basis_names = tuple("e%d" % i for i in range(dim))
        object.__setattr__(self, "basis_names", tuple(basis_names))

    def __setattr__(self, name, value):
        raise AttributeError("Dialgebra is immutable")

    def __eq__(self, other):
        return (isinstance(other, Dialgebra) and self.dim == other.dim
                and self.field == other.field and self.left == other.left
                and self.right == other.right)

    def __hash__(self):
        return hash((self.dim, self.field, self.left, self.right))

    def __repr__(self):
        return "Dialgebra(%s, dim=%d)" % (self.name, self.dim)

    def tensor(self, label):
        return self.left if label is LEFT else self.right


@dataclass(frozen=True)
class Representation:
    """A module over a dialgebra, given by four action tensors.

    act_dl[i][u][w]: coefficient of m_w in e_i -| m_u  (left action, -|)
    act_dr[i][u][w]: e_i |- m_u
    act_ld[u][i][w]: m_u -| e_i
    act_rd[u][i][w]: m_u |- e_i
    """

    dialgebra: Dialgebra
    module_dim: int
    act_dl: tuple
    act_dr: tuple
    act_ld: tuple
    act_rd: tuple

    def __post_init__(self):
        d, m, f = self.dialgebra.dim, self.module_dim, self.dialgebra.field
        object.__setattr__(self, "act_dl",
                           _check_tensor(f, self.act_dl, d, m, m, "act_dl"))
        object.__setattr__(self, "act_dr",
                           _check_tensor(f, self.act_dr, d, m, m, "act_dr"))
        object.__setattr__(self, "act_ld",
                           _check_tensor(f, self.act_ld, m, d, m, "act_ld"))
        object.__setattr__(self, "act_rd",
                           _check_tensor(f, self.act_rd, m, d, m, "act_rd"))


class DialgebraMorphism:
    """A linear map psi: D -> E, stored as a target_dim x source_dim matrix."""

    __slots__ = ("name", "source", "target", "matrix", "_complex")

    def __init__(self, source, target, matrix, name="psi"):
        if source.field != target.field:
            raise FieldMismatch("morphism source and target fields differ")
        if not isinstance(matrix, Matrix):
            matrix = Matrix(source.field, target.dim, source.dim, matrix)
        if (matrix.rows, matrix.cols) != (target.dim, source.dim):
            raise ShapeMismatch("morphism matrix must be %dx%d"
                                % (target.dim, source.dim))
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "_complex", None)  # see complex_of

    def __setattr__(self, name, value):
        raise AttributeError("DialgebraMorphism is immutable")

    @property
    def field(self):
        return self.source.field

    def __call__(self, va):
        return self.matrix.apply(va)

    def __repr__(self):
        return "DialgebraMorphism(%s: %s -> %s)" % (
            self.name, self.source.name, self.target.name)

    @classmethod
    def identity(cls, d, name="id"):
        return cls(d, d, Matrix.identity(d.field, d.dim), name=name)


def check_dialgebra(d):
    """All five axioms on all basis triples; violations carry both sides.

    On (e_i, e_j, e_k), x o (y . z) contracts y . z = inner[j][k] with the
    rows outer[i][s], and (x . y) o z contracts x . y = inner[i][j] with
    the rows outer[s][k]."""
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
    return Report(not violations, tuple(violations))


def check_representation(d, rep):
    """The fifteen module axioms: each of the five with M in one slot.

    They are the axioms of the square-zero extension D + M (products of D,
    the four actions, M M = 0) on the triples with M in exactly one slot.
    """
    if rep.dialgebra != d:
        raise ShapeMismatch("representation is not over the given dialgebra")
    n, m = d.dim, rep.module_dim
    z = d.field.zero

    def extended(product, act_dm, act_md):
        t = [[[z] * (n + m) for _ in range(n + m)] for _ in range(n + m)]
        for i in range(n):
            for j in range(n):
                t[i][j][:n] = product[i][j]
            for u in range(m):
                t[i][n + u][n:] = act_dm[i][u]
                t[n + u][i][n:] = act_md[u][i]
        return t

    ext = Dialgebra(n + m, d.field, extended(d.left, rep.act_dl, rep.act_ld),
                    extended(d.right, rep.act_dr, rep.act_rd))
    violations = []
    for num, i, j, k, lv, rv in check_dialgebra(ext).violations:
        in_m = [x >= n for x in (i, j, k)]
        if in_m.count(True) == 1:
            local = tuple(x - n if x >= n else x for x in (i, j, k))
            violations.append((num, "xyz"[in_m.index(True)]) + local
                              + (lv[n:], rv[n:]))
    violations.sort(key=lambda v: v[1])  # by slot, then axiom and triple
    return Report(not violations, tuple(violations))


def check_morphism(psi):
    """Both product-preservation identities on all basis pairs:
    psi(e_i o e_j) == psi(e_i) o psi(e_j)."""
    d, e = psi.source, psi.target
    if d.field != e.field:
        raise FieldMismatch("source and target fields differ")
    violations = []
    for label, table in zip((LEFT, RIGHT), image_products(psi)):
        for i in range(d.dim):
            for j in range(d.dim):
                lhs = psi(d.tensor(label)[i][j])
                if lhs != table[i][j]:
                    violations.append((label, i, j, lhs, table[i][j]))
    return Report(not violations, tuple(violations))


def adjoint_rep(d):
    """D as a representation of itself: all four actions are the products."""
    return Representation(d, d.dim, d.left, d.right, d.left, d.right)


def _on_left(t, cols, z):
    """The pulled-back action psi(e_i) o m of a product tensor T of E:
    T'[i][u] = sum_s psi[s,i] * T[s][u], for each column psi(e_i)."""
    return [[_combine(z, c, [block[u] for block in t]) for u in range(len(t))]
            for c in cols]


def pullback_rep(psi):
    """The target of a morphism as a representation of the source.

    a o m := psi(a) o m and m o a := m o psi(a), for both products: each
    action contracts E's tensor with the column psi(e_i).
    """
    e, z = psi.target, psi.field.zero
    cols = psi.matrix.transpose().dense_rows()

    def on_right(t):  # T'[u][i] = sum_s psi[s,i] * T[u][s]
        return [[_combine(z, c, t[u]) for c in cols] for u in range(e.dim)]

    return Representation(psi.source, e.dim, _on_left(e.left, cols, z),
                          _on_left(e.right, cols, z), on_right(e.left),
                          on_right(e.right))


def image_products(psi):
    """The tables psi(e_i) o psi(e_j) for -| and for |-, contracting the
    pulled-back action psi(e_i) o m with the column psi(e_j).  Only the
    two left actions are read, so no representation is built."""
    z = psi.field.zero
    cols = psi.matrix.transpose().dense_rows()
    return tuple([[_combine(z, cj, block) for cj in cols]
                  for block in _on_left(t, cols, z)]
                 for t in (psi.target.left, psi.target.right))
