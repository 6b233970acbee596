"""The deformation complex of a dialgebra morphism psi: D -> E.

Degree-n cochains are triples (xi; pi; phi) with xi in CY^n(D,D), pi in
CY^n(E,E), and phi in CY^{n-1}(D,E), where E is a D-representation pulled
back along psi.  The coboundary is

    delta(xi; pi; phi) = (delta xi; delta pi; psi.xi - pi.psi - delta phi)

with the two push-forwards defined coordinatewise.  Block vectors are laid
out as (xi | pi | phi); degree 0 is the zero module and cohomology starts
at degree 1.

The complex is determined by psi, so the deformation calculus and the CLI
take psi and get the complex from ``complex_of(psi)``.  psi keeps only a
weak reference to it: callers share its matrices and factorizations while
any of them holds the complex, and a long-lived psi (in a parsed model,
say) does not keep the matrices alive once the last holder is done.
"""

import itertools
import weakref

from .cochain import (Cochain, coboundary, coboundary_matrix, cy_dim,
                      multi_indices)
from .dialgebra import adjoint_rep, pullback_rep
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
    """CY*(psi,psi) for a fixed morphism, with cached representations."""

    def __init__(self, psi):
        self.psi = psi
        self.D = psi.source
        self.E = psi.target
        self.rep_d = adjoint_rep(self.D)
        self.rep_e = adjoint_rep(self.E)
        self.rep_de = pullback_rep(psi)
        self._matrices = {}

    @property
    def field(self):
        return self.psi.field

    # -- cochain plumbing ----------------------------------------------

    def dim(self, n):
        if n <= 0:
            return 0
        return (cy_dim(self.D, self.rep_d, n)
                + cy_dim(self.E, self.rep_e, n)
                + cy_dim(self.D, self.rep_de, n - 1))

    def zero(self, n):
        return MorphismCochain(Cochain.zero(n, self.D, self.rep_d),
                               Cochain.zero(n, self.E, self.rep_e),
                               Cochain.zero(n - 1, self.D, self.rep_de))

    def vec(self, mc):
        return mc.xi.coeffs + mc.pi.coeffs + mc.phi.coeffs

    def unvec(self, n, coords):
        d1 = cy_dim(self.D, self.rep_d, n)
        d2 = cy_dim(self.E, self.rep_e, n)
        d3 = cy_dim(self.D, self.rep_de, n - 1)
        if len(coords) != d1 + d2 + d3:
            raise ShapeMismatch("block vector has wrong length")
        return MorphismCochain(
            Cochain(n, self.D, self.rep_d, coords[:d1]),
            Cochain(n, self.E, self.rep_e, coords[d1:d1 + d2]),
            Cochain(n - 1, self.D, self.rep_de, coords[d1 + d2:]))

    # -- push-forwards --------------------------------------------------

    def push_forward(self, xi):
        """psi.xi in CY^n(D,E): apply psi to every value of xi."""
        psi = self.psi
        return Cochain.from_function(
            xi.degree, self.D, self.rep_de,
            lambda tree, multi: psi(xi.value(tree.index, multi)))

    def pull_back(self, pi):
        """pi.psi in CY^n(D,E): evaluate pi on psi-images of the basis."""
        images = self.psi.matrix.transpose().dense_rows()
        return Cochain.from_function(
            pi.degree, self.D, self.rep_de,
            lambda tree, multi: pi.evaluate(tree.index,
                                            [images[a] for a in multi]))

    def push_matrix(self, n):
        """Matrix of xi |-> psi.xi from CY^n(D,D) to CY^n(D,E)."""
        psi = self.psi.matrix.dense_rows()
        ddim, edim = self.D.dim, self.E.dim
        slots = len(enumerate_trees(n)) * ddim ** n
        return Matrix.sparse(self.field, slots * edim, slots * ddim, {
            s * edim + w: {s * ddim + u: c for u, c in enumerate(psi[w])}
            for s in range(slots) for w in range(edim)})

    def pull_matrix(self, n):
        """Matrix of pi |-> pi.psi from CY^n(E,E) to CY^n(D,E)."""
        f = self.field
        ddim, edim = self.D.dim, self.E.dim
        # the nonzero coordinates (s, psi[s, i]) of each psi(e_i)
        images = [[(s, c) for s, c in enumerate(col) if c != f.zero]
                  for col in self.psi.matrix.transpose().dense_rows()]
        trees = len(enumerate_trees(n))
        data = {}
        for t in range(trees):
            for di, dmulti in enumerate(multi_indices(ddim, n)):
                base_row = (t * ddim ** n + di) * edim
                for terms in itertools.product(*(images[i] for i in dmulti)):
                    c, ei = f.one, 0
                    for s, x in terms:
                        c, ei = c * x, ei * edim + s
                    base_col = (t * edim ** n + ei) * edim
                    for w in range(edim):
                        data.setdefault(base_row + w, {})[base_col + w] = c
        return Matrix.sparse(f, trees * ddim ** n * edim,
                             trees * edim ** n * edim, data)

    # -- the coboundary -------------------------------------------------

    def coboundary(self, mc):
        """Elementwise delta(xi; pi; phi); the matrix path is separate."""
        third = (self.push_forward(mc.xi) - self.pull_back(mc.pi)
                 - coboundary(mc.phi))
        return MorphismCochain(coboundary(mc.xi), coboundary(mc.pi), third)

    def matrix(self, n):
        """Block matrix of delta: CY^n(psi,psi) -> CY^{n+1}(psi,psi)."""
        if n in self._matrices:
            return self._matrices[n]
        if n <= 0:
            out = Matrix.zero(self.field, self.dim(1), 0)
        else:
            dd = coboundary_matrix(self.D, self.rep_d, n)
            de = coboundary_matrix(self.E, self.rep_e, n)
            dde = coboundary_matrix(self.D, self.rep_de, n - 1)
            r2, c2 = dd.rows + de.rows, dd.cols + de.cols
            out = Matrix.block(self.field, r2 + dde.rows, c2 + dde.cols, [
                (0, 0, dd), (dd.rows, dd.cols, de),
                (r2, 0, self.push_matrix(n)),
                (r2, dd.cols, -self.pull_matrix(n)), (r2, c2, -dde)])
        self._matrices[n] = out
        return out

    def cohomology_dim(self, n):
        """dim HY^n(psi,psi), n >= 1."""
        if n < 1:
            raise ShapeMismatch("morphism cohomology starts at degree 1")
        mat_n = self.matrix(n)
        kernel = mat_n.cols - mat_n.rank()
        image = self.matrix(n - 1).rank()
        return kernel - image

    def normalize_1cochain(self, mc):
        """Trade the phi slot of a degree-1 cochain for a shift of pi.

        Returns (xi; pi + delta phi; 0), where phi in E is reread as a
        degree-0 cochain of CY*(E,E); the coboundary of the input is
        preserved exactly.
        """
        if mc.degree != 1:
            raise ShapeMismatch("normalize_1cochain needs degree 1")
        phi_e = Cochain(0, self.E, self.rep_e, mc.phi.coeffs)
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
