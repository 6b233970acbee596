"""Seeded inputs for the benchmark: isomorphic copies of the bundled objects.

Every generated object is a random change of basis of a bundled dialgebra,
morphism or deformation (or of the direct sum ``P2 (+) K``), so its
cohomology dimensions equal those of the original and can be checked
against the committed oracle table.  Basis changes are unimodular integer
matrices, so their inverses are integral and the structure constants stay
small integers; this keeps elimination cost similar from seed to seed.

The program only ever sees what this module writes: model files produced
by ``serialize_model``.  No ``formal-iso`` block is ever written, because
the serializer guesses an iso's morphism from dimensions alone.
"""

import random

from diadeform.cochain import Cochain
from diadeform.deformation import TruncatedDeformation
from diadeform.dialgebra import Dialgebra, DialgebraMorphism, adjoint_rep
from diadeform.linalg import Matrix
from diadeform.models import load_bundled_model
from diadeform.modelfile import ModelFile

# Bundled objects that the workloads copy: name -> (model file, object).
BASE_DIALGEBRAS = {"P2": ("dim2", "P2"), "K": ("dim2", "K"),
                   "Z2": ("zero2", "Z2")}
BASE_MORPHISMS = {"id": ("dim2", "id"), "emb": ("dim2", "emb"),
                  "proj": ("zero2", "proj"), "zid": ("zero1", "id")}
BASE_DEFORMATIONS = {"theta_eq": ("zero1", "theta_eq"),
                     "theta_blocked": ("zero1", "theta_blocked")}


def bundled(kind, name):
    """The bundled dialgebra, morphism or deformation behind a base name."""
    table = {"dialgebra": BASE_DIALGEBRAS, "morphism": BASE_MORPHISMS,
             "deformation": BASE_DEFORMATIONS}[kind]
    model_name, obj = table[name]
    model = load_bundled_model(model_name)
    return getattr(model, kind + "s")[obj]


def direct_sum(d1, d2, name):
    """The dialgebra d1 (+) d2: block-diagonal products, mixed ones zero."""
    f = d1.field
    n = d1.dim + d2.dim
    tensors = []
    for label_tensors in ((d1.left, d2.left), (d1.right, d2.right)):
        t = [[[f.zero] * n for _ in range(n)] for _ in range(n)]
        for off, src in zip((0, d1.dim), label_tensors):
            m = len(src)
            for i in range(m):
                for j in range(m):
                    for k in range(m):
                        t[off + i][off + j][off + k] = src[i][j][k]
        tensors.append(t)
    return Dialgebra(n, f, left=tensors[0], right=tensors[1],
                     basis_names=d1.basis_names + d2.basis_names, name=name)


def unimodular(n, rng, shear=True):
    """A random n x n integer matrix P of determinant +-1 and its inverse.

    P is a signed permutation times, if ``shear``, one elementary row
    operation adding +-1 times a row to another, so both P and P^-1 have
    entries in {-2, ..., 2}.
    """
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    q = [row[:] for row in p]
    if shear and n > 1:
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        # P <- E P with E = 1 + c e_ij; P^-1 <- P^-1 E^-1
        p[i] = [a + c * b for a, b in zip(p[i], p[j])]
        for row in q:
            row[j] -= c * row[i]
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    p = [[signs[r] * x for x in p[perm[r]]] for r in range(n)]
    q = [[row[perm[c]] * signs[c] for c in range(n)] for row in q]
    return p, q


class Frame:
    """A basis change on a dialgebra: new e'_i = sum_k P[k][i] e_k."""

    def __init__(self, p, q):
        self.p, self.q = p, q

    @classmethod
    def random(cls, n, rng):
        return cls(*unimodular(n, rng))

    @classmethod
    def signed_permutation(cls, n, rng):
        return cls(*unimodular(n, rng, shear=False))

    def tensor(self, field, value):
        """Rewrite a bilinear map given by value(i, j) -> coordinates."""
        n = len(self.p)
        z = field.zero
        p, q = self.p, self.q
        out = [[[z] * n for _ in range(n)] for _ in range(n)]
        for a in range(n):
            for b in range(n):
                v = value(a, b)
                if all(x == z for x in v):
                    continue
                # w = Q v: the image in new coordinates
                w = [sum((q[k][c] * v[c] for c in range(n)), z)
                     for k in range(n)]
                for i in range(n):
                    if p[a][i] == 0:
                        continue
                    for j in range(n):
                        c = p[a][i] * p[b][j]
                        if c == 0:
                            continue
                        for k in range(n):
                            out[i][j][k] = out[i][j][k] + c * w[k]
        return out


def linear_map(field, mat, src, tgt):
    """The matrix of mat (target x source) in the frames src and tgt."""
    rows, cols = len(tgt.q), len(src.p)
    grid = []
    for r in range(rows):
        row = []
        for c in range(cols):
            s = field.zero
            for a in range(len(tgt.q[r])):
                if tgt.q[r][a] == 0:
                    continue
                for b in range(len(src.p)):
                    if src.p[b][c] != 0:
                        s = s + tgt.q[r][a] * src.p[b][c] * mat[a, b]
            row.append(s)
        grid.append(row)
    return Matrix(field, rows, cols, grid)


def copy_dialgebra(d, frame, name):
    f = d.field
    left = frame.tensor(f, lambda a, b: d.left[a][b])
    right = frame.tensor(f, lambda a, b: d.right[a][b])
    return Dialgebra(d.dim, f, left=left, right=right,
                     basis_names=d.basis_names, name=name)


def _copy_cochain2(c, frame, d):
    """A product-type 2-cochain on the old basis, rewritten on d."""
    f = d.field
    coeffs = []
    for tree in (0, 1):
        t = frame.tensor(f, lambda a, b: c.value(tree, (a, b)))
        for i in range(d.dim):
            for j in range(d.dim):
                coeffs.extend(t[i][j])
    return Cochain(2, d, adjoint_rep(d), coeffs)


def morphism_copy(psi, rng, tag, frames=Frame.random):
    """A model holding a random copy of the morphism psi.

    ``frames(dim, rng)`` draws the basis changes.  Returns (ModelFile,
    morphism, source frame, target frame).
    """
    sf = frames(psi.source.dim, rng)
    src = copy_dialgebra(psi.source, sf, "%sS" % tag)
    if psi.source is psi.target:
        tf, tgt = sf, src
    else:
        tf = frames(psi.target.dim, rng)
        tgt = copy_dialgebra(psi.target, tf, "%sT" % tag)
    copy = DialgebraMorphism(src, tgt,
                             linear_map(psi.field, psi.matrix, sf, tf),
                             name=tag)
    model = ModelFile(psi.field)
    model.dialgebras[src.name] = src
    model.dialgebras[tgt.name] = tgt
    model.morphisms[copy.name] = copy
    return model, copy, sf, tf


def deformation_copy(th, rng, tag):
    """A model holding random copies of th and of its morphism."""
    model, psi, sf, tf = morphism_copy(th.psi, rng, tag)
    model.deformations["th"] = TruncatedDeformation(
        psi,
        [_copy_cochain2(c, sf, psi.source) for c in th.fd],
        [_copy_cochain2(c, tf, psi.target) for c in th.fe],
        [linear_map(psi.field, m, sf, tf) for m in th.psis])
    return model


def base_dialgebra(base):
    """A key of BASE_DIALGEBRAS, or "P2+K" for the direct sum P2 (+) K."""
    if base == "P2+K":
        return direct_sum(bundled("dialgebra", "P2"),
                          bundled("dialgebra", "K"), "P2K")
    return bundled("dialgebra", base)


def dialgebra_copy(base, rng, tag, frames=Frame.random):
    """A model holding one random copy of a base dialgebra."""
    d = base_dialgebra(base)
    copy = copy_dialgebra(d, frames(d.dim, rng), tag)
    model = ModelFile(d.field)
    model.dialgebras[tag] = copy
    return model


def rng_for(seed, *labels):
    """An independent stream per (seed, labels), stable across runs."""
    return random.Random("%d/%s" % (seed, "/".join(map(str, labels))))
