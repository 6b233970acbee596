"""The deformation complex of a dialgebra morphism psi: D -> E.

Degree-n cochains are triples (xi; pi; phi) with xi in CY^n(D,D), pi in
CY^n(E,E), and phi in CY^{n-1}(D,E), where E is a D-representation pulled
back along psi.  The coboundary is

    delta(xi; pi; phi) = (delta xi; delta pi; psi.xi - pi.psi - delta phi)

with the two push-forwards defined coordinatewise.  Block vectors are laid
out as (xi | pi | phi); degree 0 is the zero module and cohomology starts
at degree 1.

Like the coboundary of CY*(D,M), the third block is computed twice on
purpose: elementwise (``push_forward``, ``pull_back``) and as matrices
(``write_push``, ``write_pull``).  Both read psi once per
complex, into one graded map of its nonzero coefficients as plain
numbers (``dialgebra._graded_map``), which also gives E its pulled-back
actions.  The elementwise path is the graded contraction along psi of
the morphism equations and of transport, at order 0
(``dialgebra._push_forward``, ``dialgebra._pull_back``): it reads the
values of xi or pi as plain numbers (``Cochain.residues``), and the
coboundary sums the two contractions and delta phi
(``cochain._coboundary_values``) on plain numbers.  Over GF(p) the
cochains of CY^n(D,E) it returns keep one residue mod p per coordinate
(``cochain._of_numbers``) and make their scalars only when read, so
delta(delta c) makes no ``GFElement``.  The matrix path keeps
its own loops and writes the products of psi's coefficients as entries,
each reduced once, as the cross-check.

``matrix(n)`` checks every block against the caps, then writes delta_D,
delta_E, psi.xi, -pi.psi and -delta phi into one table of columns at
their offsets (``cochain.write_coboundary_matrix`` and the two writers
above), which one ``Matrix.from_columns`` call adopts: no block is a
matrix of its own.  For an endomorphism, delta_D's columns are copied
with a shift for delta_E, so CY(D,D) is assembled once.  ``push_matrix``
and ``pull_matrix`` are the writers on a fresh table
(``cochain.fresh_matrix``).

The complex is determined by psi, so the deformation calculus and the CLI
take psi and get the complex from ``complex_of(psi)``.  psi keeps only a
weak reference to it: callers share its matrices and factorizations while
any of them holds the complex, and a long-lived psi (in a parsed model,
say) does not keep the matrices alive once the last holder is done.
"""

import itertools
import weakref

# coboundary_matrix is not called here; perfbench's tracer test checks that
# this module's name for it is wrapped too
from .cochain import (Cochain, _check_caps, _coboundary_values,  # noqa
                      _of_numbers, coboundary, coboundary_matrix, cy_dim,
                      fresh_matrix, multi_indices, random_cochain,
                      write_coboundary_matrix)
from .dialgebra import _graded_map, _pull_back, _pullback_rep, _push_forward
from .errors import ShapeMismatch
from .linalg import Matrix
from .trees import enumerate_trees


class MorphismCochain:
    """An element (xi; pi; phi) of CY^n(psi,psi), n >= 1."""

    __slots__ = ("degree", "xi", "pi", "phi")

    def __init__(self, xi, pi, phi):
        if not (xi.degree == pi.degree == phi.degree + 1):
            raise ShapeMismatch("component degrees must be (n, n, n-1)")
        if not (xi.field == pi.field == phi.field):
            raise ShapeMismatch("component fields differ")
        object.__setattr__(self, "degree", xi.degree)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "phi", phi)

    def __setattr__(self, name, value):
        raise AttributeError("MorphismCochain is immutable")

    def __add__(self, other):
        return MorphismCochain(self.xi + other.xi, self.pi + other.pi,
                               self.phi + other.phi)

    def __sub__(self, other):
        return MorphismCochain(self.xi - other.xi, self.pi - other.pi,
                               self.phi - other.phi)

    def __neg__(self):
        return MorphismCochain(-self.xi, -self.pi, -self.phi)

    def is_zero(self):
        return self.xi.is_zero() and self.pi.is_zero() and self.phi.is_zero()

    def nonzero_values(self, names=("xi", "pi", "phi")):
        """Yield (name, tree, multi, value) over the xi, pi, phi blocks."""
        for name, c in zip(names, (self.xi, self.pi, self.phi)):
            for tree, multi, v in c.nonzero_values():
                yield name, tree, multi, v

    def __eq__(self, other):
        return (isinstance(other, MorphismCochain)
                and self.xi == other.xi and self.pi == other.pi
                and self.phi == other.phi)

    def __hash__(self):
        return hash((self.xi, self.pi, self.phi))

    def __repr__(self):
        return "MorphismCochain(degree=%d)" % self.degree


class MorphismComplex:
    """CY*(psi,psi) for a fixed morphism.  D and E are their own adjoint
    representations; rep_de is E pulled back along psi."""

    def __init__(self, psi):
        self.psi = psi
        self.D = psi.source
        self.E = psi.target
        # one reading of psi: rep_de and both paths of the third block
        self._graded = _graded_map(psi.field, [psi.matrix])
        self.rep_de = _pullback_rep(psi, self._graded[0])
        self._matrices = {}

    @property
    def field(self):
        return self.psi.field

    # -- cochain plumbing ----------------------------------------------

    def dim(self, n):
        if n <= 0:
            return 0
        return (cy_dim(self.D, self.D, n)
                + cy_dim(self.E, self.E, n)
                + cy_dim(self.D, self.rep_de, n - 1))

    def zero(self, n):
        return MorphismCochain(Cochain.zero(n, self.D, self.D),
                               Cochain.zero(n, self.E, self.E),
                               Cochain.zero(n - 1, self.D, self.rep_de))

    def random_cochain(self, n, rng):
        """A random element of CY^n(psi,psi): xi, then pi, then phi."""
        return MorphismCochain(random_cochain(self.D, self.D, n, rng),
                               random_cochain(self.E, self.E, n, rng),
                               random_cochain(self.D, self.rep_de, n - 1, rng))

    def vec(self, mc):
        return mc.xi.coeffs + mc.pi.coeffs + mc.phi.coeffs

    def unvec(self, n, coords):
        d1 = cy_dim(self.D, self.D, n)
        d2 = cy_dim(self.E, self.E, n)
        d3 = cy_dim(self.D, self.rep_de, n - 1)
        if len(coords) != d1 + d2 + d3:
            raise ShapeMismatch("block vector has wrong length")
        return MorphismCochain(
            Cochain(n, self.D, self.D, coords[:d1]),
            Cochain(n, self.E, self.E, coords[d1:d1 + d2]),
            Cochain(n - 1, self.D, self.rep_de, coords[d1 + d2:]))

    # -- push-forwards --------------------------------------------------

    def _along_psi(self, c, contract, *arity):
        """A contraction along psi of c's values (its ``residues``) at
        order 0, as the coordinates of a cochain of CY^n(D,E) in plain
        numbers."""
        enumerate_trees(c.degree)  # CapExceeded above the tree cap
        return contract([c.residues], self._graded, 0, *arity)[0]

    def _de(self, n, values):
        """The cochain of CY^n(D,E) with these plain-number coordinates;
        over GF(p) it keeps their residues (``cochain._of_numbers``)."""
        return _of_numbers(n, self.D, self.rep_de, values)

    def push_forward(self, xi):
        """psi.xi in CY^n(D,E): psi applied to every value of xi."""
        return self._de(xi.degree, self._along_psi(xi, _push_forward))

    def pull_back(self, pi):
        """pi.psi in CY^n(D,E): pi on the psi-images of its arguments."""
        return self._de(pi.degree,
                        self._along_psi(pi, _pull_back, pi.degree))

    def write_push(self, cols, r0, c0, n):
        """Write the matrix of xi |-> psi.xi from CY^n(D,D) to CY^n(D,E)
        into ``cols`` with its (0, 0) entry at (r0, c0): each slot's block
        is psi's matrix, entries reduced once."""
        ddim, edim, reduce = self.D.dim, self.E.dim, self.field.reduce
        entries = [(w, u, reduce(x)) for u, image in enumerate(self._graded[1])
                   for w, x, _ in image]
        for s in range(len(enumerate_trees(n)) * ddim ** n):
            for w, u, x in entries:
                cols[c0 + s * ddim + u][r0 + s * edim + w] = x

    def write_pull(self, cols, r0, c0, sign, n):
        """Write sign (+1 or -1) times the matrix of pi |-> pi.psi from
        CY^n(E,E) to CY^n(D,E) into ``cols`` with its (0, 0) entry at
        (r0, c0); each entry is a product of psi's coefficients, reduced
        once."""
        f, images, edim = self.field, self._graded[1], self.E.dim
        slots = itertools.product(range(len(enumerate_trees(n))),
                                  multi_indices(self.D.dim, n))
        for base_row, (t, dmulti) in zip(itertools.count(r0, edim), slots):
            for terms in itertools.product(*(images[a] for a in dmulti)):
                c, ei = sign, t
                for s, x, _ in terms:
                    c, ei = c * x, ei * edim + s
                c, col = f.reduce(c), c0 + ei * edim
                for w in range(edim):
                    cols[col + w][base_row + w] = c

    def push_matrix(self, n):
        """Matrix of xi |-> psi.xi from CY^n(D,D) to CY^n(D,E)."""
        return fresh_matrix(self.field, cy_dim(self.D, self.rep_de, n),
                            cy_dim(self.D, self.D, n), self.write_push, n)

    def pull_matrix(self, n):
        """Matrix of pi |-> pi.psi from CY^n(E,E) to CY^n(D,E)."""
        return fresh_matrix(self.field, cy_dim(self.D, self.rep_de, n),
                            cy_dim(self.E, self.E, n), self.write_pull, 1, n)

    # -- the coboundary -------------------------------------------------

    def coboundary(self, mc):
        """Elementwise delta(xi; pi; phi); the matrix path is separate.
        The third block is summed on plain numbers, like the other two."""
        n = mc.degree
        third = [a - b - c for a, b, c in zip(
            self._along_psi(mc.xi, _push_forward),
            self._along_psi(mc.pi, _pull_back, n),
            _coboundary_values(mc.phi))]
        return MorphismCochain(coboundary(mc.xi), coboundary(mc.pi),
                               self._de(n, third))

    def matrix(self, n):
        """Block matrix of delta: CY^n(psi,psi) -> CY^{n+1}(psi,psi),
        its blocks written into one table (see the module docstring)."""
        if n in self._matrices:
            return self._matrices[n]
        if n <= 0:
            out = Matrix.zero(self.field, self.dim(1), 0)
        else:
            D, E, de = self.D, self.E, self.rep_de
            for d, rep, k in ((D, D, n), (E, E, n), (D, de, n - 1)):
                _check_caps(d, rep, k, "coboundary matrix")
            r1, c1 = cy_dim(D, D, n + 1), cy_dim(D, D, n)
            r2, c2 = r1 + cy_dim(E, E, n + 1), c1 + cy_dim(E, E, n)
            cols = [{} for _ in range(self.dim(n))]
            write_coboundary_matrix(cols, 0, 0, 1, D, D, n)
            if E is D:
                cols[c1:c2] = [{r1 + i: x for i, x in col.items()}
                               for col in cols[:c1]]
            else:
                write_coboundary_matrix(cols, r1, c1, 1, E, E, n)
            self.write_push(cols, r2, 0, n)
            self.write_pull(cols, r2, c1, -1, n)
            write_coboundary_matrix(cols, r2, c2, -1, D, de, n - 1)
            out = Matrix.from_columns(
                self.field, self.dim(n + 1), len(cols),
                {j: col for j, col in enumerate(cols) if col})
        self._matrices[n] = out
        return out

    def cohomology_dim(self, n):
        """dim HY^n(psi,psi), n >= 1."""
        if n < 1:
            raise ShapeMismatch("morphism cohomology starts at degree 1")
        mat_n = self.matrix(n)
        return mat_n.cols - mat_n.rank() - self.matrix(n - 1).rank()

    def normalize_1cochain(self, mc):
        """Trade the phi slot of a degree-1 cochain for a shift of pi.

        Returns (xi; pi + delta phi; 0), where phi in E is reread as a
        degree-0 cochain of CY*(E,E); the coboundary of the input is
        preserved exactly.
        """
        if mc.degree != 1:
            raise ShapeMismatch("normalize_1cochain needs degree 1")
        phi_e = Cochain(0, self.E, self.E, mc.phi.coeffs)
        return MorphismCochain(mc.xi, mc.pi + coboundary(phi_e),
                               Cochain.zero(0, self.D, self.rep_de))


def complex_of(psi):
    """CY*(psi,psi), the same object for as long as any caller holds it."""
    ref = psi._complex
    cx = None if ref is None else ref()
    if cx is None:
        cx = MorphismComplex(psi)
        object.__setattr__(psi, "_complex", weakref.ref(cx))
    return cx
