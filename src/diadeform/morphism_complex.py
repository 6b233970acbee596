"""The deformation complex of a dialgebra morphism psi: D -> E.

Degree-n cochains are triples (xi; pi; phi) with xi in CY^n(D,D), pi in
CY^n(E,E), and phi in CY^{n-1}(D,E), where E is a D-representation pulled
back along psi.  The coboundary is

    delta(xi; pi; phi) = (delta xi; delta pi; psi.xi - pi.psi - delta phi)

with the two push-forwards defined coordinatewise.  Block vectors are laid
out as (xi | pi | phi); degree 0 is the zero module and cohomology starts
at degree 1.

Like the coboundary of CY*(D,M), the third block is computed twice on
purpose: elementwise (``push_forward``, ``pull_back``) and as assembled
matrices (``push_matrix``, ``pull_matrix``).  The two paths keep their own
loops and share their set-up, as the CY*(D,M) paths share
``cochain._term_plan``: the complex reads psi once, into ``images``, the
nonzero coordinates (w, c) of each psi(e_u).  The elementwise path sums
products of those coordinates over the values of xi or pi; the matrix path
writes the same products as entries.

The complex is determined by psi, so the deformation calculus and the CLI
take psi and get the complex from ``complex_of(psi)``.  psi keeps only a
weak reference to it: callers share its matrices and factorizations while
any of them holds the complex, and a long-lived psi (in a parsed model,
say) does not keep the matrices alive once the last holder is done.
"""

import itertools
import weakref

from .cochain import (Cochain, coboundary, coboundary_matrix, cy_dim,
                      multi_indices, random_cochain)
from .dialgebra import pullback_rep
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
        self.rep_de = pullback_rep(psi)
        # images[u]: the nonzero coordinates (w, c) of psi(e_u), the one
        # reading of psi behind both paths of the third block
        z = psi.field.zero
        self.images = [[(w, c) for w, c in enumerate(col) if c != z]
                       for col in psi.matrix.transpose().dense_rows()]
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

    def push_forward(self, xi):
        """psi.xi in CY^n(D,E): apply psi to every value of xi."""
        z, n = self.field.zero, xi.degree
        ddim, edim = self.D.dim, self.E.dim
        out = [z] * (len(enumerate_trees(n)) * ddim ** n * edim)
        for i, x in enumerate(xi.coeffs):
            if x != z:
                s, u = divmod(i, ddim)
                for w, c in self.images[u]:
                    out[s * edim + w] = out[s * edim + w] + x * c
        return Cochain(n, self.D, self.rep_de, out)

    def pull_back(self, pi):
        """pi.psi in CY^n(D,E): pi on the psi-images of the basis, one
        product of their nonzero coordinates at a time."""
        f, images, n, edim = self.field, self.images, pi.degree, self.E.dim
        out = []
        for t in range(len(enumerate_trees(n))):
            for dmulti in multi_indices(self.D.dim, n):
                v = [f.zero] * edim
                for terms in itertools.product(*(images[a] for a in dmulti)):
                    c, ei = f.one, t
                    for s, x in terms:
                        c, ei = c * x, ei * edim + s
                    for w in range(edim):
                        v[w] = v[w] + c * pi.coeffs[ei * edim + w]
                out.extend(v)
        return Cochain(n, self.D, self.rep_de, out)

    def push_matrix(self, n):
        """Matrix of xi |-> psi.xi from CY^n(D,D) to CY^n(D,E)."""
        ddim, edim = self.D.dim, self.E.dim
        slots = len(enumerate_trees(n)) * ddim ** n
        data = {}
        for s in range(slots):
            for u, image in enumerate(self.images):
                for w, c in image:
                    data.setdefault(s * edim + w, {})[s * ddim + u] = c
        return Matrix.sparse(self.field, slots * edim, slots * ddim, data)

    def pull_matrix(self, n):
        """Matrix of pi |-> pi.psi from CY^n(E,E) to CY^n(D,E)."""
        f, images = self.field, self.images
        ddim, edim = self.D.dim, self.E.dim
        trees = len(enumerate_trees(n))
        data = {}
        for t in range(trees):
            for di, dmulti in enumerate(multi_indices(ddim, n)):
                base_row = (t * ddim ** n + di) * edim
                for terms in itertools.product(*(images[a] for a in dmulti)):
                    c, ei = f.one, t
                    for s, x in terms:
                        c, ei = c * x, ei * edim + s
                    for w in range(edim):
                        data.setdefault(base_row + w, {})[ei * edim + w] = c
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
            dd = coboundary_matrix(self.D, self.D, n)
            # CY(D,D) is assembled once for an endomorphism of D
            de = (dd if self.E is self.D
                  else coboundary_matrix(self.E, self.E, n))
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
