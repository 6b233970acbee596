"""Finite-dimensional dialgebras, representations, and morphisms.

All objects carry exact structure constants over a common field.  Axiom
checking covers every basis triple; bilinearity makes this complete.  It
runs term-major over the nonzero structure constants, graded by order in
t (``axiom_sides``): each of the eight bracketed triple composites of the
five axioms is built once, a constant of order a times one of order b
adding into order a + b, up to a top order.  The morphism equations are
graded the same way (``morphism_sides``): psi_t f_D is the push-forward
of D's products along psi_t and f_E(psi_t, psi_t) the pull-back of E's,
each one contraction of the nonzero coefficients of a graded linear map
with a graded tensor (``_contract``).  Both return each identity's two
sides as flat lists, each coordinate's t-coefficients in a row, and
``_violations`` reads one order of one identity as report records.  A
dialgebra or a morphism over K is the one-order case, and a
deformation's residuals and its transport are the same contractions of
its coefficients.  The actions of D on E pulled back along psi are the
one-order pull-backs of E's products in the first and in the second
argument.
"""

import itertools
from collections import namedtuple
from functools import lru_cache

from .errors import FieldMismatch, ShapeMismatch
from .fields import QQ, unchanged
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
# each side of each axiom as (L-bracketed, outer |-, inner |-), and the
# eight distinct composites that the axioms compare
_ROLES = tuple(tuple((side == "L", outer is RIGHT, inner is RIGHT)
                     for side, outer, inner in axiom) for axiom in AXIOMS)
_COMPOSITES = tuple(dict.fromkeys(side for axiom in _ROLES
                                  for side in axiom))
# each axiom as the indices of its two sides in _COMPOSITES
_AXIOM_SIDES = tuple(tuple(map(_COMPOSITES.index, axiom))
                     for axiom in _ROLES)


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


class Report(namedtuple("Report", "valid violations", defaults=((),))):
    """An axiom check's verdict; true when valid."""

    __slots__ = ()

    def __bool__(self):
        return self.valid


class Dialgebra:
    """A dialgebra given by left/right structure tensors on a fixed basis.

    left[i][j][k] is the coefficient of e_k in e_i -| e_j, and right the
    same for |-.  It is also D as a representation of itself, so CY*(D,D)
    takes D for both arguments.
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

    # D is its own adjoint representation: the module is D, and the actions
    # a o m and m o a are D's products, read as the Representation fields
    dialgebra = property(lambda self: self)
    module_dim = property(lambda self: self.dim)
    act_dl = act_ld = property(lambda self: self.left)
    act_dr = act_rd = property(lambda self: self.right)


class Representation(namedtuple(
        "Representation",
        "dialgebra module_dim act_dl act_dr act_ld act_rd")):
    """A module over a dialgebra, given by four action tensors.

    act_dl[i][u][w]: coefficient of m_w in e_i -| m_u  (left action, -|)
    act_dr[i][u][w]: e_i |- m_u
    act_ld[u][i][w]: m_u -| e_i
    act_rd[u][i][w]: m_u |- e_i

    The tensors are checked against the dimensions and coerced into the
    dialgebra's field on construction.
    """

    __slots__ = ()

    def __new__(cls, dialgebra, module_dim, act_dl, act_dr, act_ld, act_rd):
        d, m, f = dialgebra.dim, module_dim, dialgebra.field
        return super().__new__(
            cls, dialgebra, module_dim,
            _check_tensor(f, act_dl, d, m, m, "act_dl"),
            _check_tensor(f, act_dr, d, m, m, "act_dr"),
            _check_tensor(f, act_ld, m, d, m, "act_ld"),
            _check_tensor(f, act_rd, m, d, m, "act_rd"))


class DialgebraMorphism:
    """A linear map psi: D -> E, stored as a target_dim x source_dim matrix."""

    __slots__ = ("name", "source", "target", "matrix", "_complex")

    def __init__(self, source, target, matrix, name="psi"):
        if source.field != target.field:
            raise FieldMismatch("morphism source and target fields differ")
        if not isinstance(matrix, Matrix):
            matrix = Matrix(source.field, target.dim, source.dim, matrix)
        elif matrix.field != source.field:
            raise FieldMismatch("morphism matrix must lie over %r"
                                % source.field)
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


def flat_products(d):
    """D's structure constants in the flat order of a product 2-cochain:
    the left tensor, then the right, each [i][j][k] row-major."""
    chain = itertools.chain.from_iterable
    return tuple(chain(chain(chain((d.left, d.right)))))


def _violations(lhs, rhs, keys, block):
    """One order of one identity as report records: for each key, in
    order, the next ``block`` coordinates of both sides, as key + (lv, rv)
    where they differ.  The callers read only sides that differ."""
    return [key + (tuple(lhs[lo:lo + block]), tuple(rhs[lo:lo + block]))
            for key, lo in zip(keys, range(0, len(lhs), block))
            if lhs[lo:lo + block] != rhs[lo:lo + block]]


@lru_cache(maxsize=None)
def _places(n, width):
    """Where the constant at each flat index of a product 2-cochain goes in
    ``axiom_sides``, before its order is added: (label, s * width,
    then the output offset as the inner product of an R and an L
    composite, then the list slot and the output offset as their outer
    product).  The output strides of (i, j, k, w) are n^3 * width,
    n^2 * width, n * width and width."""
    s_k = n * width
    s_j, s_i = n * s_k, n * n * s_k
    # as e_i o e_j = c e_k: y o z with (y, z, s) = (i, j, k), x o y with
    # (x, y, s) = (i, j, k), x o s with (x, s, w) = (i, j, k), s o z with
    # (s, z, w) = (i, j, k)
    return tuple((label, k * width, i * s_j + j * s_k, i * s_i + j * s_j,
                  (label * n + j) * width, i * s_i + k * width,
                  (label * n + i) * width, j * s_k + k * width)
                 for label, i, j, k in itertools.product(range(2),
                                                         *[range(n)] * 3))


def axiom_sides(field, dim, flats, top):
    """The two sides of each of the five axioms for the products
    sum_n flats[n] t^n through t^top, as a pair of flat lists per axiom
    over (i, j, k, w), each coordinate's coefficients t^0..t^top in a row.

    flats[n], n <= top, holds the t^n structure constants over the field
    in the flat order of a product 2-cochain: the left tensor, then the
    right, each [i][j][k] row-major.  Each composite is one contraction
    over the nonzero constants as plain numbers (``field.lift``): on
    (e_i, e_j, e_k), x o (y . z) takes each constant of y . z =
    inner[j][k] into the rows outer[i][s], and (x . y) o z each constant
    of x . y = inner[i][j] into the rows outer[s][k], a constant of order
    a times one of order b adding into order a + b <= top.  Each of the
    eight composites is one such list, reduced once (``field.reduce``),
    and the axioms share them.  At top 0 a side is the list of its
    coordinates.
    """
    n, width = dim, top + 1
    if len(flats) > width:
        raise ShapeMismatch("%d orders of constants, more than t^%d"
                            % (len(flats), top))
    reduce = field.reduce
    s_k = n * width  # the output stride of k; w's is width
    # the constants as inner products, per side (R, L) and label:
    # (s * width, offset + order, c, order); as outer products, per side,
    # in one list per (label, s, order): (offset + order, c)
    inner = (r_in, l_in) = ([], []), ([], [])
    outer = (r_out, l_out) = tuple([[] for _ in range(2 * s_k)]
                                   for _ in range(2))
    places = _places(n, width)
    for order, flat in enumerate(_lifted(field, flats)):
        for idx, c in enumerate(flat):
            if c:
                label, sw, r_at, l_at, r_slot, r_to, l_slot, l_to = \
                    places[idx]
                r_in[label].append((sw, r_at + order, c, order))
                l_in[label].append((sw, l_at + order, c, order))
                r_out[r_slot + order].append((r_to + order, c))
                l_out[l_slot + order].append((l_to + order, c))
    size = n ** 3 * s_k
    sides = []
    for l_side, out_right, in_right in _COMPOSITES:
        ins, outs = inner[l_side][in_right], outer[l_side]
        first = out_right * s_k
        out = [0] * size
        for sw, base, a, p in ins:
            lo = first + sw
            for terms in outs[lo:lo + width - p]:
                for off, b in terms:
                    out[base + off] += a * b
        sides.append(out if reduce is unchanged else list(map(reduce, out)))
    return tuple([(sides[lkey], sides[rkey]) for lkey, rkey in _AXIOM_SIDES])


def check_dialgebra(d):
    """All five axioms on all basis triples, as (axiom, i, j, k, lv, rv)
    by axiom, then by triple, where the sides differ: the one-order case
    of ``axiom_sides``."""
    n, violations = d.dim, []
    for num, (lhs, rhs) in enumerate(
            axiom_sides(d.field, n, [flat_products(d)], 0), start=1):
        if lhs != rhs:
            violations += _violations(
                lhs, rhs, itertools.product((num,), *[range(n)] * 3), n)
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


def _graded_map(field, mats):
    """The linear map sum_b mats[b] t^b (target x source matrices) by its
    nonzero coefficients as plain numbers (``field.lift``): per target
    index u the list of (s, x, b), and per source index s the list of
    (u, x, b), each by increasing order b."""
    rows = [[] for _ in range(mats[0].rows)]
    cols = [[] for _ in range(mats[0].cols)]
    for b, mat in enumerate(mats):
        for u, s, x in mat.entries():
            x = field.lift(x)
            rows[u].append((s, x, b))
            cols[s].append((u, x, b))
    return rows, cols


@lru_cache(maxsize=None)
def _axis_places(length, span, inner, size):
    """For each flat index of a tensor of that length, (u, base): its index
    u on an axis of stride inner and length span // inner, and where its
    image at index 0 of that axis goes once the axis has the given size."""
    return tuple((u, base + r)
                 for base in range(0, length // span * size * inner,
                                   size * inner)
                 for u in range(span // inner) for r in range(inner))


def _contract(terms, maps, size, inner, top):
    """A graded tensor with one axis carried along a graded linear map.

    terms[a] holds the t^a coefficients as plain numbers, flat; the axis
    has length len(maps) and stride inner, and gets the given size.  A
    coefficient c of order a at index u of the axis adds c * x at index i
    and order a + b <= top for each (i, x, b) of maps[u]."""
    span = len(maps) * inner
    length = len(terms[0])
    places = _axis_places(length, span, inner, size)
    out = [[0] * (length // span * size * inner) for _ in range(top + 1)]
    for a, flat in enumerate(terms):
        room = top - a
        for idx, c in enumerate(flat):
            if c:
                u, base = places[idx]
                for i, x, b in maps[u]:
                    if b > room:
                        break
                    out[a + b][base + i * inner] += c * x
    return out


def _push_forward(terms, graded, top):
    """Phi g through t^top for a graded map Phi (``_graded_map``) and a
    graded tensor g whose last axis is a vector in Phi's source: that
    vector carried into Phi's target."""
    rows, cols = graded
    return _contract(terms, cols, len(rows), 1, top)


def _pull_back(terms, graded, top, arity):
    """f(Psi x_1, .., Psi x_arity) through t^top for a graded map Psi
    (``_graded_map``) and graded maps f of that many arguments from Psi's
    target to itself, flat over (.., u_1, .., u_arity, w), as a pair of
    products in a product 2-cochain's order or the values of a cochain:
    the same over (.., i_1, .., i_arity, w), with each i an index of Psi's
    source.  Each argument axis is one contraction, the innermost last."""
    rows, cols = graded
    m = len(rows)
    for k in range(arity, 0, -1):
        terms = _contract(terms, rows, len(cols), m ** k, top)
    return terms


def _lifted(field, flats):
    """Each flat list of scalars as plain numbers (``field.lift``)."""
    lift = field.lift
    return flats if lift is unchanged else [list(map(lift, f)) for f in flats]


def _reduced(field, terms):
    """Each flat list of plain numbers as scalars (``field.reduce``)."""
    reduce = field.reduce
    return (terms if reduce is unchanged
            else [list(map(reduce, t)) for t in terms])


def morphism_sides(field, psis, fds, fes, top):
    """The two sides of the morphism equations psi_t(e_i o e_j) =
    psi_t(e_i) o psi_t(e_j) through t^top, as flat lists over
    (label, i, j, w), each coordinate's coefficients t^0..t^top in a row,
    as in ``axiom_sides``.

    psis[b] is the t^b coefficient of psi_t as a target x source matrix,
    and fds[b] and fes[b] are the t^b structure constants of the source
    and the target in the flat order of a product 2-cochain.  The left side
    is the push-forward of f_D along psi_t, the right side the pull-back
    of f_E, both over the nonzero coefficients as plain numbers, one list
    per order, laid out once.
    """
    graded = _graded_map(field, psis)
    lhs = _reduced(field, _push_forward(_lifted(field, fds), graded, top))
    rhs = _reduced(field, _pull_back(_lifted(field, fes), graded, top, 2))
    if top == 0:
        return lhs[0], rhs[0]
    chain = itertools.chain.from_iterable
    return list(chain(zip(*lhs))), list(chain(zip(*rhs)))


def check_morphism(psi):
    """Both product-preservation identities on all basis pairs,
    psi(e_i o e_j) == psi(e_i) o psi(e_j), as (label, i, j, lv, rv) by
    label, then by pair, where the sides differ: the one-order case of
    ``morphism_sides``."""
    d, e = psi.source, psi.target
    if d.field != e.field:
        raise FieldMismatch("source and target fields differ")
    lhs, rhs = morphism_sides(d.field, [psi.matrix], [flat_products(d)],
                              [flat_products(e)], 0)
    if lhs == rhs:
        return Report(True, ())
    n = d.dim
    return Report(False, tuple(_violations(
        lhs, rhs, itertools.product((LEFT, RIGHT), range(n), range(n)),
        e.dim)))


def adjoint_rep(d):
    """D as a representation of itself, which is D."""
    return d


def pullback_rep(psi):
    """The target of a morphism as a representation of the source.

    a o m := psi(a) o m and m o a := m o psi(a), for both products: E's
    products pulled back along psi in the first argument, then in the
    second, each one contraction (``_contract``) at order 0.
    """
    return _pullback_rep(psi, _graded_map(psi.field, [psi.matrix])[0])


def _pullback_rep(psi, rows):
    """``pullback_rep`` from the rows of psi's graded map (``_graded_map``),
    for a caller that has read psi already."""
    f, e, n = psi.field, psi.target, psi.source.dim
    m = e.dim
    products = _lifted(f, [flat_products(e)])

    def tensors(inner, d1, d2):  # the -| and the |- action, [d1][d2][m]
        flat = _reduced(f, _contract(products, rows, n, inner, 0))[0]
        vectors = [flat[x:x + m] for x in range(0, len(flat), m)]
        blocks = [vectors[x:x + d2] for x in range(0, len(vectors), d2)]
        return blocks[:d1], blocks[d1:]

    return Representation(psi.source, m, *tensors(m * m, n, m),
                          *tensors(m, m, n))
