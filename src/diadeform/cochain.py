"""The tree-indexed cochain complex CY*(D,M) and its coboundary.

A degree-n cochain assigns to each n-tree y and basis tuple (a_1..a_n)
an element of the coefficient module M.  Coefficients are stored flat in
a fixed order: tree index major, then the lexicographic multi-index over
the dialgebra basis (a_1 most significant), then the M-basis index.

The coboundary is implemented twice on purpose: once elementwise from the
defining alternating-sum formula (``coboundary``) and once as a directly
assembled matrix in the canonical bases (``coboundary_matrix``).  The two
paths are checked against each other in the test suite.  They share their
set-up: both walk the cached ``trees.tree_plan`` (the face indices and
slot labels of every tree) and index the slot tensors (the left action,
the products, the right action) by basis index instead of multiplying
basis vectors.  The elementwise path reads the values of f; the matrix
path writes the same structure constants as column entries.

Their arithmetic differs on purpose too.  The elementwise path lifts the
values of f and the slot tensors to plain numbers once (``field.lift``),
sums on those, and reduces each output coordinate once
(``field.reduce``), so over GF(p) its loop makes no ``GFElement``; over
QQ both are the identity and are skipped.  The matrix path stays on field
scalars, so the cross-check also tests the lifted arithmetic.
"""

import itertools

from .errors import CapExceeded, IndexOutOfRange, ShapeMismatch
from .fields import unchanged
from .linalg import Matrix
from .trees import (TREE_CAP, ProductLabel, catalan, enumerate_trees,
                    tree_plan)

LEFT = ProductLabel.LEFT

# the most coordinates a coboundary may produce: checked before delta is
# built, so an oversized request fails cleanly instead of exhausting memory
COORDINATE_BUDGET = 2 ** 17


def cy_dim(d, rep, n):
    """dim CY^n(D,M) = |Y_n| * (dim D)^n * dim M."""
    return catalan(n) * d.dim ** n * rep.module_dim


def _check_budget(d, rep, n):
    """Raise CapExceeded if CY^n(D,M) has more coordinates than the budget."""
    size = cy_dim(d, rep, n)
    if size > COORDINATE_BUDGET:
        raise CapExceeded("CY^%d has %d coordinates, over the budget of %d"
                          % (n, size, COORDINATE_BUDGET))


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

    @property
    def field(self):
        return self.dialgebra.field

    def value(self, tree_index, multi):
        """f(y (x) (e_a1,..,e_an)) as an M coordinate tuple."""
        m = self.rep.module_dim
        off = flat_offset(tree_index, multi, self.dialgebra.dim, m)
        return self.coeffs[off:off + m]

    def nonzero_values(self):
        """Yield (tree, multi, value) for every nonzero value, in the flat
        coordinate order."""
        z = self.field.zero
        for tree in enumerate_trees(self.degree):
            for multi in multi_indices(self.dialgebra.dim, self.degree):
                v = self.value(tree.index, multi)
                if any(x != z for x in v):
                    yield tree, multi, v

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


def flat_offset(tree_index, multi, ddim, mdim):
    """Where the value on (tree, e_a1..e_an) starts in the flat order."""
    pos = tree_index
    for a in multi:
        pos = pos * ddim + a
    return pos * mdim


def _slot_tensors(d, rep, labels):
    """The tensors read at the slots of one tree: the left action at slot
    0, the products at slots 1..n and the right action at slot n+1."""
    return (rep.act_dl if labels[0] is LEFT else rep.act_dr,
            [d.tensor(label) for label in labels[1:-1]],
            rep.act_ld if labels[-1] is LEFT else rep.act_rd)


def _lifted(tensor, lift):
    """A three-index slot tensor with every scalar lifted."""
    return [[[lift(x) for x in row] for row in plane] for plane in tensor]


def coboundary(f):
    """delta f, computed elementwise from the alternating-sum formula.

    The values of f and the slot tensors are lifted to plain numbers once,
    and each output coordinate is reduced back to a scalar once; over QQ,
    whose scalars are plain numbers already, neither step runs."""
    n = f.degree
    if n + 1 > TREE_CAP:
        raise CapExceeded("coboundary would exceed tree cap %d" % TREE_CAP)
    d, rep = f.dialgebra, f.rep
    _check_budget(d, rep, n + 1)
    ddim, mdim = d.dim, rep.module_dim
    lift, reduce = d.field.lift, d.field.reduce
    # over QQ both are the identity: the inputs are used as they are
    lifting = lift is not unchanged
    vals, lifted = f.coeffs, None
    if lifting:
        vals = [lift(x) for x in f.coeffs]
        lifted = {id(t): _lifted(t, lift) for t in (
            d.left, d.right, rep.act_dl, rep.act_dr, rep.act_ld, rep.act_rd)}

    # each term's flat offset is read off the row's index r, the base-ddim
    # number with digits multi: term 0 drops the first digit, term n + 1
    # the last, and term i puts the merged index k for digits i - 1 and i
    power = [ddim ** e for e in range(n + 2)]
    tree_size = power[n] * mdim
    coeffs = []
    for faces, labels in tree_plan(n + 1):
        first, products, last = _slot_tensors(d, rep, labels)
        if lifting:
            first, last = lifted[id(first)], lifted[id(last)]
            products = [lifted[id(t)] for t in products]
        for r, multi in enumerate(multi_indices(ddim, n + 1)):
            out = [0] * mdim
            # i = 0: the first argument acts on the left
            off = faces[0] * tree_size + r % power[n] * mdim
            for u, block in enumerate(first[multi[0]]):
                c = vals[off + u]
                if c:
                    for w in range(mdim):
                        out[w] += c * block[w]
            # 1 <= i <= n: merge adjacent arguments with the slot product
            for i in range(1, n + 1):
                prod = products[i - 1][multi[i - 1]][multi[i]]
                low = power[n - i]
                base = faces[i] * tree_size + (
                    r // power[n - i + 2] * power[n - i + 1] + r % low) * mdim
                for k in range(ddim):
                    c = prod[k]
                    if not c:
                        continue
                    if i % 2:
                        c = -c
                    off = base + k * low * mdim
                    for w in range(mdim):
                        out[w] += c * vals[off + w]
            # i = n + 1: the last argument acts on the right
            off = faces[n + 1] * tree_size + r // ddim * mdim
            for u in range(mdim):
                c = vals[off + u]
                if c:
                    if not n % 2:
                        c = -c
                    block = last[u][multi[n]]
                    for w in range(mdim):
                        out[w] += c * block[w]
            coeffs.extend(map(reduce, out) if lifting else out)
    return Cochain(n + 1, d, rep, coeffs)


def coboundary_matrix(d, rep, n):
    """Matrix of delta: CY^n -> CY^{n+1}, assembled row by row.

    Rows are indexed by the CY^{n+1} basis and columns by the CY^n basis,
    both in the canonical flat order.  This is an independent code path
    from ``coboundary``; it writes structure constants as column entries.
    """
    if n + 1 > TREE_CAP:
        raise CapExceeded("coboundary matrix would exceed tree cap %d"
                          % TREE_CAP)
    _check_budget(d, rep, n + 1)
    z = d.field.zero
    mdim, ddim = rep.module_dim, d.dim
    data = {}
    row = 0
    for faces, labels in tree_plan(n + 1):
        first, products, last = _slot_tensors(d, rep, labels)
        for multi in multi_indices(ddim, n + 1):
            # i = 0 term
            col = flat_offset(faces[0], multi[1:], ddim, mdim)
            for u, block in enumerate(first[multi[0]]):
                for w in range(mdim):
                    if block[w] != z:
                        _add(data, row + w, col + u, block[w])
            # middle terms
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
                        _add(data, row + w, col + w, c)
            # i = n + 1 term
            col = flat_offset(faces[n + 1], multi[:n], ddim, mdim)
            for u in range(mdim):
                block = last[u][multi[n]]
                for w in range(mdim):
                    if block[w] != z:
                        _add(data, row + w, col + u,
                             block[w] if n % 2 else -block[w])
            row += mdim
    return Matrix.sparse(d.field, cy_dim(d, rep, n + 1), cy_dim(d, rep, n),
                         data)


def _add(data, i, j, val):
    row = data.setdefault(i, {})
    row[j] = row[j] + val if j in row else val


def cohomology_dim(d, rep, n):
    """dim HY^n(D,M) = dim ker delta^n - rank delta^{n-1}."""
    if n < 0:
        raise IndexOutOfRange("cohomology degree must be >= 0, got %d" % n)
    mat_n = coboundary_matrix(d, rep, n)
    kernel = mat_n.cols - mat_n.rank()
    if n == 0:
        return kernel
    image = coboundary_matrix(d, rep, n - 1).rank()
    return kernel - image


def random_scalar(field, rng):
    """One seeded scalar draw, an integer from -3 to 3."""
    return field.from_int(rng.randint(-3, 3))


def random_cochain(d, rep, n, rng):
    """A random element of CY^n(D,M): one scalar draw per coordinate, in
    the flat coordinate order."""
    return Cochain(n, d, rep, [random_scalar(d.field, rng)
                               for _ in range(cy_dim(d, rep, n))])


def product_cochain(d):
    """The 2-cochain with [21] |-> -| and [12] |-> |-, the products of D."""
    from .dialgebra import adjoint_rep
    coeffs = []
    for tensor in (d.left, d.right):
        for i, j in multi_indices(d.dim, 2):
            coeffs.extend(tensor[i][j])
    return Cochain(2, d, adjoint_rep(d), coeffs)
