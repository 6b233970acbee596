"""The tree-indexed cochain complex CY*(D,M) and its coboundary.

A degree-n cochain assigns to each n-tree y and basis tuple (a_1..a_n)
an element of the coefficient module M.  Coefficients are stored flat in
a fixed order: tree index major, then the lexicographic multi-index over
the dialgebra basis (a_1 most significant), then the M-basis index.

The coboundary is implemented twice: once elementwise from the defining
alternating-sum formula (``coboundary``) and once as a matrix in the
canonical bases (``coboundary_matrix``).  Both read one term plan,
cached per shape (``_term_plan(ddim, mdim, n)``): for each face term of
the formula, where a structure constant of the term's slot tensor (the
left action, the products, the right action) reaches, as offsets built
from its basis indices, the trees that read each slot tensor there, and
the offset pairs of the coordinates that the constant reaches in each
tree's blocks.  The slot tensors' nonzero entries come from ``_slots``,
per call.  Both paths run the same loop over the plan, term by role by
constant by tree by pair: the elementwise path adds each constant times
f's value on the face tree into one flat list of plain numbers, and the
matrix path writes each constant at the (row, column) pairs as a field
scalar.  The test suite checks the two paths against each other, and
both against a reference that computes every offset from the
multi-index.

The matrix path is a writer, ``write_coboundary_matrix``: it adds +-delta
into a caller's table, a list of column dicts, at a row and column
offset, so a block matrix such as CY*(psi,psi)'s delta is written into
one table that one ``Matrix.from_columns`` call adopts.  The table holds
dim CY^n dicts, one per column, and delta's matrix is tall, so a table of
columns is the short side.  A sum that cancels deletes its entry at once,
tested by == zero, so no table holds a zero for ``Matrix.from_columns``
to find.  ``coboundary_matrix`` is that writer on a fresh table
(``fresh_matrix``).

Their arithmetic differs on purpose.  The elementwise path reads f's
values as plain numbers (``Cochain.residues``, lifted from ``coeffs``
once per cochain) and the slot tensors lifted once per call
(``field.lift``), and sums on those; over QQ both are the scalars
themselves.  Over GF(p) the cochain it returns (``_of_numbers``) keeps one
residue mod p per coordinate and no scalars: ``coeffs`` is made through
``field.reduce`` on its first read, so delta(delta c) makes no
``GFElement``.  ``Cochain`` sums, differences and negation also work on
residues and return such a cochain, and ``==`` and ``hash`` read
residues: over GF(p) they are canonical in [0, p) and a ``GFElement``
hashes as its residue, so both agree with the scalars.  The matrix
path stays on field scalars, so the cross-check also tests the lifted
arithmetic.

Over GF(p) a zero residue reduces to the field's one ``zero``.
``Cochain.is_zero`` tests ``not any`` of the residues, which lift every
zero, shared or not, to 0.  ``Cochain.nonzero_values`` counts the shared
zero in each value with ``tuple.count``, which tries identity before
``==``: a shared zero costs no Python call, and a zero made any other way
is still found by ``==``.
"""

import itertools
import operator
from functools import lru_cache

from .dialgebra import _lifted, flat_products
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


def _check_caps(d, rep, n, what):
    """Raise CapExceeded if delta: CY^n(D,M) -> CY^{n+1}(D,M), computed as
    ``what``, is over the tree cap, or CY^{n+1} has more coordinates than
    the budget."""
    if n + 1 > TREE_CAP:
        raise CapExceeded("%s would exceed tree cap %d" % (what, TREE_CAP))
    if (size := cy_dim(d, rep, n + 1)) > COORDINATE_BUDGET:
        raise CapExceeded("CY^%d has %d coordinates, over the budget of %d"
                          % (n + 1, size, COORDINATE_BUDGET))


def multi_indices(dim, n):
    return itertools.product(range(dim), repeat=n)


class Cochain:
    """An element of CY^n(D,M) in the canonical flat coordinate order.

    ``coeffs`` holds its field scalars and ``residues`` the same
    coordinates as plain numbers (``field.lift``).  The public
    constructor sets ``coeffs``; ``_of_numbers`` sets ``residues``, and
    over QQ ``coeffs`` as the same tuple.  An unset slot is made from the
    other on its first read and kept (``__getattr__``)."""

    __slots__ = ("degree", "dialgebra", "rep", "coeffs", "residues")

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

    def __getattr__(self, name):
        # runs only when a slot is unset
        if name == "coeffs":
            value = tuple(map(self.field.reduce, _residues(self)))
        elif name == "residues":
            value = tuple(_lifted(self.field, [_coeffs(self)])[0])
        else:
            raise AttributeError(name)
        object.__setattr__(self, name, value)
        return value

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
        """f(y (x) (e_a1,..,e_an)) as an M coordinate tuple, for the
        tree_index-th n-tree y and a multi-index of n basis indices."""
        n, ddim, m = self.degree, self.dialgebra.dim, self.rep.module_dim
        if not (0 <= tree_index < catalan(n) and len(multi) == n
                and all(0 <= a < ddim for a in multi)):
            raise IndexOutOfRange("no value at (%r, %r) in degree %d"
                                  % (tree_index, multi, n))
        off = flat_offset(tree_index, multi, ddim, m)
        return self.coeffs[off:off + m]

    def nonzero_values(self):
        """Yield (tree, multi, value) for every nonzero value, in the flat
        coordinate order."""
        z, coeffs = self.field.zero, self.coeffs
        ddim, m = self.dialgebra.dim, self.rep.module_dim
        for tree in enumerate_trees(self.degree):
            for multi in multi_indices(ddim, self.degree):
                off = flat_offset(tree.index, multi, ddim, m)
                v = coeffs[off:off + m]
                if v.count(z) != m:
                    yield tree, multi, v

    def _compat(self, other):
        if (self.degree != other.degree or self.dialgebra != other.dialgebra
                or self.rep != other.rep):
            raise ShapeMismatch("incompatible cochains")

    def __add__(self, other):
        self._compat(other)
        return _of_numbers(self.degree, self.dialgebra, self.rep,
                           map(operator.add, self.residues, other.residues))

    def __sub__(self, other):
        self._compat(other)
        return _of_numbers(self.degree, self.dialgebra, self.rep,
                           map(operator.sub, self.residues, other.residues))

    def __neg__(self):
        return _of_numbers(self.degree, self.dialgebra, self.rep,
                           map(operator.neg, self.residues))

    def is_zero(self):
        return not any(self.residues)

    def __eq__(self, other):
        return (isinstance(other, Cochain) and self.degree == other.degree
                and self.dialgebra == other.dialgebra
                and self.rep == other.rep and self.residues == other.residues)

    def __hash__(self):
        return hash((self.degree, self.residues))

    def __repr__(self):
        return "Cochain(degree=%d, %r)" % (self.degree, self.dialgebra)


# the slot reads that never run __getattr__
_coeffs, _residues = Cochain.coeffs.__get__, Cochain.residues.__get__


def _of_numbers(degree, d, rep, values):
    """The cochain of CY^degree(D,M) with these plain-number coordinates:
    over QQ they are its coefficients, and over GF(p) it keeps one residue
    mod p per coordinate, so no scalar is made until ``coeffs`` is read."""
    c, field = object.__new__(Cochain), d.field
    if field.reduce is unchanged:
        values = tuple(values)
        object.__setattr__(c, "coeffs", values)
    else:
        p = field.p
        values = tuple([v % p for v in values])
    for name, x in zip(("degree", "dialgebra", "rep", "residues"),
                       (degree, d, rep, values)):
        object.__setattr__(c, name, x)
    return c


def flat_offset(tree_index, multi, ddim, mdim):
    """Where the value on (tree, e_a1..e_an) starts in the flat order."""
    pos = tree_index
    for a in multi:
        pos = pos * ddim + a
    return pos * mdim


@lru_cache(maxsize=None)
def _term_plan(ddim, mdim, n):
    """The set-up both coboundary paths read, per shape: (length, used,
    terms), for delta: CY^n -> CY^{n+1} with dim D = ddim, dim M = mdim.

    ``length`` is dim CY^{n+1}.  f's values on one n-tree are a block of
    size = ddim^n * mdim coordinates, and delta f's on one (n + 1)-tree a
    block of ddim * size.  A term's slot tensor has a role: its index in
    ``_slots`` (the left action, the products, the right action, each
    read on the left or right label), and ``used`` lists the roles read.
    ``terms[i]`` places term i of the formula as (ox, oy, oz, sx, sy, sz,
    negate, pairs, places): a structure constant (x, y, z, c) of the
    term's slot tensor reaches output x * ox + y * oy + z * oz and input
    x * sx + y * sy + z * sz of a tree's blocks, negated if ``negate``,
    plus each offset pair of ``pairs``.  Term 0 reads at the offsets it
    writes; term i reads, under each hi, a run of (lo; w); term n + 1
    writes with stride ddim * mdim.  ``places`` pairs each role read at
    term i with the trees that read it there, each as the offsets of its
    block of delta f and of f's block on its i-th face."""
    size = ddim ** n * mdim
    out_size = ddim * size
    rests = range(0, size, mdim)
    terms = [(size, 0, 1, 0, 1, 0, False, tuple(zip(rests, rests)))]
    for i in range(1, n + 1):
        run = ddim ** (n - i) * mdim
        his = zip(range(0, out_size, ddim * ddim * run),
                  range(0, size, ddim * run))
        terms.append((ddim * run, run, 0, 0, 0, run, i % 2 == 1,
                       tuple((o + j, s + j) for o, s in his
                             for j in range(run))))
    terms.append((0, mdim, 1, 1, 0, 0, n % 2 == 0,
                  tuple(zip(range(0, out_size, ddim * mdim), rests))))
    places = [{} for _ in terms]
    trees = tree_plan(n + 1)
    for t, (faces, labels) in enumerate(trees):
        for i, (face, label) in enumerate(zip(faces, labels)):
            role = 2 * (0 if i == 0 else 1 if i <= n else 2) + (
                label is not LEFT)
            places[i].setdefault(role, []).append(
                (t * out_size, face * size))
    used = sorted({role for p in places for role in p})
    return len(trees) * out_size, used, tuple(
        term + (tuple(p.items()),) for term, p in zip(terms, places))


def _slots(d, rep, used, lift):
    """``slots[r]`` lists the nonzero entries (x, y, z, c) of the slot
    tensor of role r, lifted, for the roles ``used``; roles that read one
    tensor share its list, so over CY*(D,D), where D is its own module,
    there is one list per product."""
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
    return slots


def coboundary(f):
    """delta f, computed elementwise from the alternating-sum formula: the
    cochain of the coordinates of ``_coboundary_values``."""
    return _of_numbers(f.degree + 1, f.dialgebra, f.rep,
                       _coboundary_values(f))


def _coboundary_values(f):
    """The coordinates of delta f as plain numbers (``field.lift``).

    Term by term (``_term_plan``), every nonzero structure constant of the
    slot tensor adds its multiple of f's values on the face tree into each
    tree's block, so each coordinate sums its terms in the order of the
    formula.  It reads f's ``residues`` and the slot tensors lifted to
    plain numbers once; over QQ they are used as they are."""
    n, d, rep = f.degree, f.dialgebra, f.rep
    _check_caps(d, rep, n, "coboundary")
    vals = f.residues
    length, used, terms = _term_plan(d.dim, rep.module_dim, n)
    slots = _slots(d, rep, used, d.field.lift)
    out = [0] * length
    for ox, oy, oz, sx, sy, sz, negate, pairs, places in terms:
        for role, blocks in places:
            for x, y, w, c in slots[role]:
                o = x * ox + y * oy + w * oz
                s = x * sx + y * sy + w * sz
                if negate:
                    c = -c
                for dst, src in blocks:
                    dst, src = dst + o, src + s
                    for oj, sj in pairs:
                        out[dst + oj] += c * vals[src + sj]
    return out


def write_coboundary_matrix(cols, r0, c0, sign, d, rep, n):
    """Add sign (+1 or -1) times the matrix of delta: CY^n -> CY^{n+1}
    into ``cols``, a list of column dicts, with its (0, 0) entry at
    (r0, c0); the caller checks the caps first (``_check_caps``).

    Rows are indexed by the CY^{n+1} basis and columns by the CY^n basis,
    both in the canonical flat order.  Term by term (``_term_plan``),
    each structure constant is added at the (row, column) pairs where
    ``coboundary`` multiplies it into a sum, so each entry sums its terms
    in the order of the formula.  A sum that cancels deletes its entry at
    once, tested by == zero, so no zero is ever stored."""
    z = d.field.zero
    _, used, terms = _term_plan(d.dim, rep.module_dim, n)
    slots = _slots(d, rep, used, unchanged)
    for ox, oy, oz, sx, sy, sz, negate, pairs, places in terms:
        for role, blocks in places:
            for x, y, w, c in slots[role]:
                o = r0 + x * ox + y * oy + w * oz
                s = c0 + x * sx + y * sy + w * sz
                c = -c if negate != (sign < 0) else c
                for out, src in blocks:
                    out, src = out + o, src + s
                    for oj, sj in pairs:
                        col, i = cols[src + sj], out + oj
                        if i not in col:
                            col[i] = c
                        elif (v := col[i] + c) == z:
                            del col[i]
                        else:
                            col[i] = v


def fresh_matrix(field, rows, cols, write, *args):
    """The rows x cols matrix that ``write(table, 0, 0, *args)`` writes
    into a fresh table of ``cols`` column dicts; ``Matrix.from_columns``
    adopts the table's nonzero columns."""
    table = [{} for _ in range(cols)]
    write(table, 0, 0, *args)
    return Matrix.from_columns(field, rows, cols,
                               {j: col for j, col in enumerate(table) if col})


def coboundary_matrix(d, rep, n):
    """Matrix of delta: CY^n -> CY^{n+1}, written into a fresh table."""
    _check_caps(d, rep, n, "coboundary matrix")
    return fresh_matrix(d.field, cy_dim(d, rep, n + 1), cy_dim(d, rep, n),
                        write_coboundary_matrix, 1, d, rep, n)


def cohomology_dim(d, rep, n):
    """dim HY^n(D,M) = dim ker delta^n - rank delta^{n-1}."""
    if n < 0:
        raise IndexOutOfRange("cohomology degree must be >= 0, got %d" % n)
    mat_n = coboundary_matrix(d, rep, n)
    image = coboundary_matrix(d, rep, n - 1).rank() if n else 0
    return mat_n.cols - mat_n.rank() - image


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
    return Cochain(2, d, d, flat_products(d))
