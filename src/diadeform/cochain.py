"""The tree-indexed cochain complex CY*(D,M) and its coboundary.

A degree-n cochain assigns to each n-tree y and basis tuple (a_1..a_n)
an element of the coefficient module M.  Coefficients are stored flat in
a fixed order: tree index major, then the lexicographic multi-index over
the dialgebra basis (a_1 most significant), then the M-basis index.

The coboundary is implemented twice: once elementwise from the defining
alternating-sum formula (``coboundary``) and once as a matrix in the
canonical bases (``coboundary_matrix``).  Both read one term plan
(``_term_plan``): per tree and face term of the formula, the nonzero
structure constants of the term's slot tensor (the left action, the
products, the right action), indexed by basis index, and the offset pairs
of the coordinates that each constant reaches.  Both run term by term
over it: the elementwise path sums values, each constant times f's values
on the face tree, and the matrix path writes entries, each constant at
the (row, column) pairs.  The test suite checks the two paths against
each other, and the matrix against a reference that computes every
offset from the multi-index.

Their arithmetic differs on purpose.  The elementwise path lifts the
values of f and the slot tensors to plain numbers once (``field.lift``),
sums on those, and reduces each output coordinate once
(``field.reduce``), so over GF(p) its loop makes no ``GFElement``; over
QQ both are the identity and are skipped.  The matrix path stays on field
scalars, so the cross-check also tests the lifted arithmetic.
"""

import itertools
from functools import lru_cache

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


@lru_cache(maxsize=None)
def _role_plan(m):
    """``trees.tree_plan(m)`` with each slot label replaced by its role:
    the index, in ``_term_plan``'s six slot tensors, of the tensor that it
    picks; and the sorted roles used."""
    plan = tuple((faces, tuple(2 * (0 if k == 0 else 1 if k < m else 2)
                               + (label is not LEFT)
                               for k, label in enumerate(labels)))
                 for faces, labels in tree_plan(m))
    return plan, sorted({r for _, roles in plan for r in roles})


def _term_plan(d, rep, n, lift):
    """The set-up of both paths: (size, rests, runs, ends, trees, slots).

    f's values on one n-tree are a block of ``size`` coordinates, and
    delta f's on one (n + 1)-tree a block of ddim * size.  The coordinates
    one structure constant reaches are offset pairs into the two blocks:
    term 0 reads at the offsets ``rests`` it writes; term i reads, under
    each hi, a run of (lo; w), ``runs[i - 1]`` = (run length, pairs); term
    n + 1 writes with stride ddim * mdim, ``ends``.  ``trees`` is
    ``_role_plan(n + 1)``; ``slots[r]`` lists the nonzero entries (x, y,
    z, c) of the slot tensor of role r, lifted, for the roles used; roles
    that read one tensor share its list, so over CY*(D,D), where D is its
    own module, there is one list per product."""
    ddim, mdim = d.dim, rep.module_dim
    size = ddim ** n * mdim
    out_size = ddim * size
    rests = range(0, size, mdim)
    runs = []
    for i in range(1, n + 1):
        run = ddim ** (n - i) * mdim
        his = zip(range(0, out_size, ddim * ddim * run),
                  range(0, size, ddim * run))
        runs.append((run, [(o + j, s + j) for o, s in his
                           for j in range(run)]))
    ends = list(zip(range(0, out_size, ddim * mdim), rests))
    trees, used = _role_plan(n + 1)
    tensors = (rep.act_dl, rep.act_dr, d.left, d.right, rep.act_ld,
               rep.act_rd)
    slots, lists = [None] * 6, {}
    for r in used:
        t = tensors[r]
        key = id(t)
        if key not in lists:
            lists[key] = [(x, y, z, lift(c))
                          for x, plane in enumerate(t)
                          for y, row in enumerate(plane)
                          for z, c in enumerate(row) if c]
        slots[r] = lists[key]
    return size, rests, runs, ends, trees, slots


def coboundary(f):
    """delta f, computed elementwise from the alternating-sum formula.

    For each tree y and each face term i, every nonzero structure constant
    of the slot tensor at i adds its multiple of f's values on the tree
    d_i y into y's block, so each coordinate sums its terms in the order
    of the formula.  The values of f and the slot tensors are lifted to
    plain numbers once, and each output coordinate is reduced back to a
    scalar once; over QQ neither step runs."""
    n = f.degree
    if n + 1 > TREE_CAP:
        raise CapExceeded("coboundary would exceed tree cap %d" % TREE_CAP)
    d, rep = f.dialgebra, f.rep
    _check_budget(d, rep, n + 1)
    ddim, mdim = d.dim, rep.module_dim
    lift, reduce = d.field.lift, d.field.reduce
    # over QQ both are the identity: the inputs are used as they are
    lifting = lift is not unchanged
    vals = [lift(x) for x in f.coeffs] if lifting else f.coeffs
    size, rests, runs, ends, trees, slots = _term_plan(d, rep, n, lift)
    coeffs = []
    for faces, roles in trees:
        out = [0] * (ddim * size)
        # i = 0: out(a, rest; w) += first[a][u][w] * f(d_0 y; rest; u)
        src = faces[0] * size
        for a, u, w, c in slots[roles[0]]:
            o, s = a * size + w, src + u
            for r in rests:
                out[o + r] += c * vals[s + r]
        # 1 <= i <= n: out(hi, a, b, lo; w) += +-prod[a][b][k] *
        # f(d_i y; hi, k, lo; w)
        for i, (run, pairs) in enumerate(runs, 1):
            src = faces[i] * size
            for a, b, k, c in slots[roles[i]]:
                if i % 2:
                    c = -c
                o, s = (a * ddim + b) * run, src + k * run
                for oj, sj in pairs:
                    out[o + oj] += c * vals[s + sj]
        # i = n + 1: out(rest, b; w) += -+last[u][b][w] * f(d_n+1 y; rest; u)
        src = faces[n + 1] * size
        for u, b, w, c in slots[roles[n + 1]]:
            if not n % 2:
                c = -c
            o, s = b * mdim + w, src + u
            for oj, sj in ends:
                out[o + oj] += c * vals[s + sj]
        coeffs.extend(map(reduce, out) if lifting else out)
    return Cochain(n + 1, d, rep, coeffs)


def coboundary_matrix(d, rep, n):
    """Matrix of delta: CY^n -> CY^{n+1}, assembled term by term.

    Rows are indexed by the CY^{n+1} basis and columns by the CY^n basis,
    both in the canonical flat order.  Each structure constant of a term
    is written at the (row, column) pairs where ``coboundary`` multiplies
    it into a sum; entries that cancel are dropped."""
    if n + 1 > TREE_CAP:
        raise CapExceeded("coboundary matrix would exceed tree cap %d"
                          % TREE_CAP)
    _check_budget(d, rep, n + 1)
    ddim, mdim = d.dim, rep.module_dim
    size, rests, runs, ends, trees, slots = _term_plan(d, rep, n, unchanged)
    rows = [{} for _ in range(cy_dim(d, rep, n + 1))]
    for base, (faces, roles) in zip(itertools.count(0, ddim * size), trees):
        src = faces[0] * size
        for a, u, w, c in slots[roles[0]]:
            o, s = base + a * size + w, src + u
            for r in rests:
                row, j = rows[o + r], s + r
                row[j] = row[j] + c if j in row else c
        for i, (run, pairs) in enumerate(runs, 1):
            src = faces[i] * size
            for a, b, k, c in slots[roles[i]]:
                if i % 2:
                    c = -c
                o, s = base + (a * ddim + b) * run, src + k * run
                for oj, sj in pairs:
                    row, j = rows[o + oj], s + sj
                    row[j] = row[j] + c if j in row else c
        src = faces[n + 1] * size
        for u, b, w, c in slots[roles[n + 1]]:
            if not n % 2:
                c = -c
            o, s = base + b * mdim + w, src + u
            for oj, sj in ends:
                row, j = rows[o + oj], s + sj
                row[j] = row[j] + c if j in row else c
    return Matrix.sparse(d.field, len(rows), cy_dim(d, rep, n),
                         {i: row for i, row in enumerate(rows) if row})


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
    """The 2-cochain with [21] |-> -| and [12] |-> |-, the products of D,
    in CY^2(D,D)."""
    coeffs = []
    for tensor in (d.left, d.right):
        for i, j in multi_indices(d.dim, 2):
            coeffs.extend(tensor[i][j])
    return Cochain(2, d, d, coeffs)
