"""The tree-indexed cochain complex CY*(D,M) and its coboundary.

A degree-n cochain assigns to each n-tree y and basis tuple (a_1..a_n)
an element of the coefficient module M.  Coefficients are stored flat in
a fixed order: tree index major, then the lexicographic multi-index over
the dialgebra basis (a_1 most significant), then the M-basis index.

The coboundary is implemented twice on purpose: once elementwise from the
defining alternating-sum formula (``coboundary``) and once as a directly
assembled matrix in the canonical bases (``coboundary_matrix``).  The two
paths are checked against each other in the test suite.
"""

import itertools

from .errors import CapExceeded, ShapeMismatch
from .linalg import Matrix
from .trees import (DEFAULT_TREE_CAP, ProductLabel, catalan, enumerate_trees,
                    face, prod_label)

LEFT = ProductLabel.LEFT
RIGHT = ProductLabel.RIGHT


def cy_dim(d, rep, n):
    """dim CY^n(D,M) = |Y_n| * (dim D)^n * dim M."""
    return catalan(n) * d.dim ** n * rep.module_dim


def multi_indices(dim, n):
    return itertools.product(range(dim), repeat=n)


class Cochain:
    """An element of CY^n(D,M) in the canonical flat coordinate order."""

    __slots__ = ("degree", "dialgebra", "rep", "coeffs")

    def __init__(self, degree, dialgebra, rep, coeffs):
        expected = cy_dim(dialgebra, rep, degree)
        coeffs = tuple(coeffs)
        if len(coeffs) != expected:
            raise ShapeMismatch("degree-%d cochain needs %d coefficients, got %d"
                                % (degree, expected, len(coeffs)))
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "dialgebra", dialgebra)
        object.__setattr__(self, "rep", rep)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("Cochain is immutable")

    @classmethod
    def zero(cls, degree, dialgebra, rep):
        z = dialgebra.field.zero
        return cls(degree, dialgebra, rep,
                   (z,) * cy_dim(dialgebra, rep, degree))

    @classmethod
    def from_function(cls, degree, dialgebra, rep, fn):
        """fn(tree, multi) must return an M coordinate tuple."""
        coeffs = []
        for tree in enumerate_trees(degree, cap=degree):
            for multi in multi_indices(dialgebra.dim, degree):
                coeffs.extend(fn(tree, multi))
        return cls(degree, dialgebra, rep, coeffs)

    @property
    def field(self):
        return self.dialgebra.field

    def _offset(self, tree_index, multi):
        d, m = self.dialgebra.dim, self.rep.module_dim
        rank = 0
        for a in multi:
            rank = rank * d + a
        return (tree_index * d ** self.degree + rank) * m

    def value(self, tree_index, multi):
        """f(y (x) (e_a1,..,e_an)) as an M coordinate tuple."""
        off = self._offset(tree_index, multi)
        return self.coeffs[off:off + self.rep.module_dim]

    def nonzero_values(self):
        """Yield (tree, multi, value) for every nonzero value, in the flat
        coordinate order."""
        z = self.field.zero
        # the cochain exists, so the tree cap that allowed it is not needed
        for tree in enumerate_trees(self.degree, cap=self.degree):
            for multi in multi_indices(self.dialgebra.dim, self.degree):
                v = self.value(tree.index, multi)
                if any(x != z for x in v):
                    yield tree, multi, v

    def evaluate(self, tree_index, vectors):
        """Multilinear evaluation on arbitrary coordinate vectors."""
        if len(vectors) != self.degree:
            raise ShapeMismatch("expected %d arguments" % self.degree)
        z = self.field.zero
        m = self.rep.module_dim
        out = [z] * m
        for multi in multi_indices(self.dialgebra.dim, self.degree):
            c = self.field.one
            for vec, a in zip(vectors, multi):
                c = c * vec[a]
                if c == z:
                    break
            if c == z:
                continue
            v = self.value(tree_index, multi)
            for w in range(m):
                out[w] = out[w] + c * v[w]
        return tuple(out)

    def _compat(self, other):
        if (self.degree != other.degree or self.dialgebra != other.dialgebra
                or self.rep != other.rep):
            raise ShapeMismatch("incompatible cochains")

    def __add__(self, other):
        self._compat(other)
        return Cochain(self.degree, self.dialgebra, self.rep,
                       tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._compat(other)
        return Cochain(self.degree, self.dialgebra, self.rep,
                       tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return Cochain(self.degree, self.dialgebra, self.rep,
                       tuple(-a for a in self.coeffs))

    def scale(self, c):
        return Cochain(self.degree, self.dialgebra, self.rep,
                       tuple(c * a for a in self.coeffs))

    def is_zero(self):
        z = self.field.zero
        return all(x == z for x in self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, Cochain) and self.degree == other.degree
                and self.dialgebra == other.dialgebra
                and self.rep == other.rep and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.degree, self.coeffs))

    def __repr__(self):
        return "Cochain(degree=%d, %r)" % (self.degree, self.dialgebra)


def coboundary(f, cap=DEFAULT_TREE_CAP):
    """delta f, computed elementwise from the alternating-sum formula."""
    n = f.degree
    if n + 1 > cap:
        raise CapExceeded("coboundary would exceed tree cap %d" % cap)
    d, rep = f.dialgebra, f.rep
    mdim = rep.module_dim
    z = d.field.zero
    coeffs = []
    for y in enumerate_trees(n + 1, cap):
        faces = [face(y, i) for i in range(n + 2)]
        labels = [prod_label(y, i) for i in range(n + 2)]
        for multi in multi_indices(d.dim, n + 1):
            out = [z] * mdim
            # i = 0: first argument acts on the left
            v = f.value(faces[0].index, multi[1:])
            acted = rep.act_left(labels[0], d.basis_vector(multi[0]), v)
            for w in range(mdim):
                out[w] = out[w] + acted[w]
            # 1 <= i <= n: merge adjacent arguments with the slot product
            sign = 1
            for i in range(1, n + 1):
                sign = -sign
                prod = d.product(labels[i], d.basis_vector(multi[i - 1]),
                                 d.basis_vector(multi[i]))
                for k in range(d.dim):
                    if prod[k] == z:
                        continue
                    inner = multi[:i - 1] + (k,) + multi[i + 1:]
                    v = f.value(faces[i].index, inner)
                    for w in range(mdim):
                        term = prod[k] * v[w]
                        out[w] = out[w] + (term if sign > 0 else -term)
            # i = n + 1: last argument acts on the right
            sign = -sign
            v = f.value(faces[n + 1].index, multi[:n])
            acted = rep.act_right(labels[n + 1], v, d.basis_vector(multi[n]))
            for w in range(mdim):
                out[w] = out[w] + (acted[w] if sign > 0 else -acted[w])
            coeffs.extend(out)
    return Cochain(n + 1, d, rep, coeffs)


def coboundary_matrix(d, rep, n, cap=DEFAULT_TREE_CAP):
    """Matrix of delta: CY^n -> CY^{n+1}, assembled row by row.

    Rows are indexed by the CY^{n+1} basis and columns by the CY^n basis,
    both in the canonical flat order.  This is an independent code path
    from ``coboundary``; it expands structure constants directly.
    """
    if n + 1 > cap:
        raise CapExceeded("coboundary matrix would exceed tree cap %d" % cap)
    z = d.field.zero
    mdim = rep.module_dim
    ddim = d.dim

    def col_offset(tree_index, multi):
        rank = 0
        for a in multi:
            rank = rank * ddim + a
        return (tree_index * ddim ** n + rank) * mdim

    data = {}
    row = 0
    for y in enumerate_trees(n + 1, cap):
        faces = [face(y, i) for i in range(n + 2)]
        labels = [prod_label(y, i) for i in range(n + 2)]
        for multi in multi_indices(ddim, n + 1):
            # i = 0 term
            t0 = rep.act_dl if labels[0] is LEFT else rep.act_dr
            c0 = col_offset(faces[0].index, multi[1:])
            block0 = t0[multi[0]]
            for u in range(mdim):
                for w in range(mdim):
                    if block0[u][w] != z:
                        _add(data, row + w, c0 + u, block0[u][w])
            # middle terms
            sign = 1
            for i in range(1, n + 1):
                sign = -sign
                pt = d.tensor(labels[i])[multi[i - 1]][multi[i]]
                for k in range(ddim):
                    if pt[k] == z:
                        continue
                    ci = col_offset(faces[i].index,
                                    multi[:i - 1] + (k,) + multi[i + 1:])
                    val = pt[k] if sign > 0 else -pt[k]
                    for w in range(mdim):
                        _add(data, row + w, ci + w, val)
            # i = n + 1 term
            sign = -sign
            tl = rep.act_ld if labels[n + 1] is LEFT else rep.act_rd
            cl = col_offset(faces[n + 1].index, multi[:n])
            for u in range(mdim):
                blk = tl[u][multi[n]]
                for w in range(mdim):
                    if blk[w] != z:
                        _add(data, row + w, cl + u,
                             blk[w] if sign > 0 else -blk[w])
            row += mdim
    return Matrix.sparse(d.field, cy_dim(d, rep, n + 1), cy_dim(d, rep, n),
                         data)


def _add(data, i, j, val):
    row = data.setdefault(i, {})
    row[j] = row[j] + val if j in row else val


def vec(cochain):
    """The flat coordinate tuple of a cochain."""
    return cochain.coeffs


def unvec(degree, d, rep, coords):
    return Cochain(degree, d, rep, coords)


def cohomology_dim(d, rep, n, cap=DEFAULT_TREE_CAP):
    """dim HY^n(D,M) = dim ker delta^n - rank delta^{n-1}."""
    mat_n = coboundary_matrix(d, rep, n, cap=cap)
    kernel = mat_n.cols - mat_n.rank()
    if n == 0:
        return kernel
    image = coboundary_matrix(d, rep, n - 1, cap=cap).rank()
    return kernel - image


def solve_primitive(f, cap=DEFAULT_TREE_CAP):
    """Some g with delta g = f, or None if f is not a coboundary."""
    n = f.degree
    if n < 1:
        raise ShapeMismatch("solve_primitive needs degree >= 1")
    mat = coboundary_matrix(f.dialgebra, f.rep, n - 1, cap=cap)
    x = mat.solve(vec(f))
    if x is None:
        return None
    return Cochain(n - 1, f.dialgebra, f.rep, x)


def product_cochain(d, rep=None):
    """The products of D as the 2-cochain with [21] |-> left, [12] |-> right."""
    from .dialgebra import adjoint_rep
    if rep is None:
        rep = adjoint_rep(d)
    coeffs = []
    for tree in enumerate_trees(2):
        tensor = d.left if tree.index == 0 else d.right
        for i, j in multi_indices(d.dim, 2):
            coeffs.extend(tensor[i][j])
    return Cochain(2, d, rep, coeffs)
