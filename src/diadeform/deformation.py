"""Order-N deformations of a dialgebra morphism and their calculus.

A truncated deformation carries coefficient 2-cochains for the deformed
products of D and E and coefficient linear maps for the deformed morphism,
with the order-0 data pinned to the undeformed model.  On top of that
this module implements validity checking, infinitesimals, obstruction
classes, one-step and iterated extension, transport along formal
isomorphisms, trivialization, and rigidity probing.

The coefficients are stored order by order, but the calculus runs on the
lift: the dialgebras D_t, E_t and the morphism psi_t over the truncated
series ring K[t]/(t^{N+1}).  Validity is the ordinary axiom and morphism
checks over that ring, the obstruction is the t^{N+1} coefficient of the
same residuals on the lift padded by one zero order, and a formal
isomorphism acts by conjugating the lifted products and morphism.  A
deformation computes those residuals once, on the padded lift, and both
validity and the obstruction read them.
"""

import random
from dataclasses import dataclass

from .cochain import (Cochain, flat_offset, product_cochain,
                      random_scalar)
from .dialgebra import (AXIOMS, LEFT, Dialgebra, DialgebraMorphism,
                        check_dialgebra, check_morphism, image_products)
from .errors import (BaseMismatch, CapExceeded, IndexOutOfRange,
                     InvalidDeformation, NonIdentityConstantTerm,
                     NotACoboundary, OrderMismatch, OrderTooLow,
                     ShapeMismatch)
from .fields import Series, SeriesRing, format_scalars
from .linalg import Matrix
from .morphism_complex import MorphismCochain, complex_of

ORDER_CAP = 6  # the largest deformation order extended to, sampled or parsed
PROBE_SAMPLES = 5  # the deformations a rigidity probe samples

# Y_2 indices under the documented enumeration
TREE_L = 0  # [21], carrying the left product
TREE_R = 1  # [12], carrying the right product


def cochain1_to_matrix(c):
    """A degree-1 cochain D -> M as a module_dim x dim matrix."""
    m = c.rep.module_dim
    return Matrix(c.field, c.dialgebra.dim, m, _rows(c.coeffs, m)).transpose()


def matrix_to_cochain1(mat, d, rep):
    """Inverse of cochain1_to_matrix."""
    return Cochain(1, d, rep, sum(mat.transpose().dense_rows(), ()))


def _lift(ring, flats):
    """Series whose t^n coefficients are flats[n], zero above the last."""
    pad = (ring.field.zero,) * ring.order
    return [Series(ring, (col + pad)[:ring.order + 1]) for col in zip(*flats)]


def _coefficients(series, n):
    """The t^n coefficients of a sequence of series."""
    return [x.c[n] for x in series]


def _rows(flat, width):
    return [flat[i:i + width] for i in range(0, len(flat), width)]


def _lift_matrix(ring, ms):
    """The matrix sum_n ms[n] t^n over the series ring."""
    flat = _lift(ring, [sum(m.dense_rows(), ()) for m in ms])
    return Matrix(ring, ms[0].rows, ms[0].cols, _rows(flat, ms[0].cols))


def _lift_products(ring, d, fs):
    """The dialgebra on D's space with products sum_n fs[n] t^n; the flat
    coordinates of a product 2-cochain are its left, then right tensor."""
    blocks = _rows(_rows(_lift(ring, [f.coeffs for f in fs]), d.dim), d.dim)
    return Dialgebra(d.dim, ring, blocks[:d.dim], blocks[d.dim:],
                     basis_names=d.basis_names, name=d.name)


class TruncatedDeformation:
    """A deformation of psi truncated at order N.

    fd[n] and fe[n] are the order-n product 2-cochains of D and E (order 0
    being the undeformed products); psis[n] is the order-n coefficient of
    the deformed morphism as a target x source matrix (order 0 being psi).
    """

    __slots__ = ("psi", "fd", "fe", "psis", "_residuals")

    def __init__(self, psi, fd, fe, psis):
        fd, fe, psis = tuple(fd), tuple(fe), tuple(psis)
        if not len(fd) == len(fe) == len(psis) or not fd:
            raise ShapeMismatch("coefficient lists must share length >= 1")
        d, e = psi.source, psi.target
        for c in fd:
            if c.degree != 2 or c.dialgebra != d:
                raise ShapeMismatch("fd entries must be 2-cochains on D")
        for c in fe:
            if c.degree != 2 or c.dialgebra != e:
                raise ShapeMismatch("fe entries must be 2-cochains on E")
        for m in psis:
            if (m.rows, m.cols) != (e.dim, d.dim):
                raise ShapeMismatch("psi coefficients must be %dx%d"
                                    % (e.dim, d.dim))
        if fd[0] != product_cochain(d):
            raise BaseMismatch("order-0 D products disagree with the model")
        if fe[0] != product_cochain(e):
            raise BaseMismatch("order-0 E products disagree with the model")
        if psis[0] != psi.matrix:
            raise BaseMismatch("order-0 morphism disagrees with the model")
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "fd", fd)
        object.__setattr__(self, "fe", fe)
        object.__setattr__(self, "psis", psis)
        object.__setattr__(self, "_residuals", None)  # see residuals

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedDeformation is immutable")

    def residuals(self):
        """The violations of D_t, E_t and psi_t on the lift padded by one
        order, computed by the first call (``_residuals``) and kept."""
        if self._residuals is None:
            object.__setattr__(self, "_residuals", _residuals(self))
        return self._residuals

    @property
    def order(self):
        return len(self.fd) - 1

    @property
    def field(self):
        return self.psi.field

    @classmethod
    def trivial(cls, psi, order=0):
        d, e = psi.source, psi.target
        zero_d, zero_e = (Cochain.zero(2, x, x) for x in (d, e))
        zero_psi = Matrix.zero(psi.field, e.dim, d.dim)
        return cls(psi, [product_cochain(d)] + [zero_d] * order,
                   [product_cochain(e)] + [zero_e] * order,
                   [psi.matrix] + [zero_psi] * order)

    def lift(self, pad=0):
        """(D_t, E_t, psi_t) over K[t]/(t^{N+1+pad}), zero above order N."""
        ring = SeriesRing(self.field, self.order + pad)
        d_t = _lift_products(ring, self.psi.source, self.fd)
        e_t = _lift_products(ring, self.psi.target, self.fe)
        return d_t, e_t, DialgebraMorphism(
            d_t, e_t, _lift_matrix(ring, self.psis), name=self.psi.name)

    @classmethod
    def from_lift(cls, psi, d_t, e_t, psi_t):
        """The deformation of psi whose lift is (D_t, E_t, psi_t)."""
        d, e = psi.source, psi.target
        fd, fe = product_cochain(d_t).coeffs, product_cochain(e_t).coeffs
        m = sum(psi_t.matrix.dense_rows(), ())
        orders = range(d_t.field.order + 1)
        return cls(psi,
                   [Cochain(2, d, d, _coefficients(fd, n))
                    for n in orders],
                   [Cochain(2, e, e, _coefficients(fe, n))
                    for n in orders],
                   [Matrix(psi.field, e.dim, d.dim,
                           _rows(_coefficients(m, n), d.dim))
                    for n in orders])

    def extended_with(self, theta):
        """Append a degree-2 morphism cochain as the next coefficient."""
        return TruncatedDeformation(
            self.psi,
            self.fd + (theta.xi,),
            self.fe + (theta.pi,),
            self.psis + (cochain1_to_matrix(theta.phi),))

    def leading_order(self):
        """The order of the first nonzero coefficient, or None."""
        return next((k for k in range(1, self.order + 1)
                     if not (self.fd[k].is_zero() and self.fe[k].is_zero()
                             and self.psis[k].is_zero())), None)

    def theta(self, k):
        """The order-k coefficient as a degree-2 morphism cochain."""
        cx = complex_of(self.psi)
        return MorphismCochain(
            self.fd[k], self.fe[k],
            matrix_to_cochain1(self.psis[k], cx.D, cx.rep_de))

    def __repr__(self):
        return "TruncatedDeformation(order=%d, psi=%r)" % (self.order, self.psi)


class FormalIso:
    """A pair of truncated formal isomorphism series with identity constant
    terms, acting on deformations of psi by conjugation."""

    __slots__ = ("psi", "phi_d", "phi_e")

    def __init__(self, psi, phi_d, phi_e):
        phi_d, phi_e = tuple(phi_d), tuple(phi_e)
        if len(phi_d) != len(phi_e) or not phi_d:
            raise OrderMismatch("the two series must share an order")
        for series in (phi_d, phi_e):
            n = series[0].rows
            if series[0] != Matrix.identity(series[0].field, n):
                raise NonIdentityConstantTerm(
                    "constant term of a formal isomorphism must be 1")
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "phi_d", phi_d)
        object.__setattr__(self, "phi_e", phi_e)

    def __setattr__(self, name, value):
        raise AttributeError("FormalIso is immutable")

    @property
    def order(self):
        return len(self.phi_d) - 1

    @classmethod
    def identity(cls, psi, order=0):
        f, d, e = psi.field, psi.source.dim, psi.target.dim
        return cls(psi,
                   [Matrix.identity(f, d)] + [Matrix.zero(f, d, d)] * order,
                   [Matrix.identity(f, e)] + [Matrix.zero(f, e, e)] * order)

    def beta(self, k):
        """The order-k coefficients as the morphism 1-cochain (xi; pi; 0)."""
        cx = complex_of(self.psi)
        return MorphismCochain(
            matrix_to_cochain1(self.phi_d[k], cx.D, cx.D),
            matrix_to_cochain1(self.phi_e[k], cx.E, cx.E),
            Cochain.zero(0, cx.D, cx.rep_de))


def unipotent_inverse(phi):
    """The inverse of a square matrix over K[t]/(t^{N+1}) with identity
    constant term: sum_{k <= N} (I - phi)^k, as (I - phi)^{N+1} = 0."""
    ident = Matrix.identity(phi.field, phi.rows)
    nilpotent = ident - phi
    inv = power = ident
    for _ in range(phi.field.order):
        power = power * nilpotent
        inv = inv + power
    return inv


# -- reports -----------------------------------------------------------


@dataclass(frozen=True)
class DeformationReport:
    valid: bool
    first_failing_order: int = None
    failing_identity: str = None

    def __bool__(self):
        return self.valid


@dataclass(frozen=True)
class CocycleReport:
    passed: bool
    leading_order: int = None
    residual_location: str = None

    def __bool__(self):
        return self.passed


@dataclass(frozen=True)
class ObstructionClass:
    """The degree-3 obstruction cochain (Ob_D; Ob_E; Ob_psi) at order N."""

    cochain: MorphismCochain
    order: int

    def is_zero(self):
        return self.cochain.is_zero()


@dataclass(frozen=True)
class ExtensionReport:
    reached: int
    target: int
    deformation: TruncatedDeformation
    hy3_dim: int
    guaranteed: bool
    certificate: str = None

    @property
    def succeeded(self):
        return self.reached >= self.target


@dataclass(frozen=True)
class RigidityReport:
    hy2_dim: int
    verdict: str
    trivialized_samples: int = 0


# -- validity ----------------------------------------------------------


def _residuals(th):
    """The violations of D_t, E_t and psi_t on the lift padded by one zero
    order: one pass of the axiom and morphism checkers.  Their coefficients
    t^0..t^N are those of the unpadded lift and decide validity; t^{N+1}
    is the obstruction."""
    d_t, e_t, psi_t = th.lift(1)
    return (check_dialgebra(d_t).violations, check_dialgebra(e_t).violations,
            check_morphism(psi_t).violations)


def _first_failure(th, d_violations, e_violations, m_violations):
    """The failure of lowest t-degree up to N, ties going to the checkers'
    order: f_D, f_E, then the morphism equation (l before r), each by
    axiom, then by triple or pair."""
    failures = [("axiom %d for %s" % (num, tag), "triple", (i, j, k), lv, rv)
                for tag, vs in (("f_D", d_violations), ("f_E", e_violations))
                for num, i, j, k, lv, rv in vs]
    failures += [("morphism equation (%s)" % ("l" if label is LEFT else "r"),
                  "pair", (a, b), lv, rv)
                 for label, a, b, lv, rv in m_violations]
    orders = [min(n for a, b in zip(lv, rv)
                  for n, (x, y) in enumerate(zip(a.c, b.c)) if x != y)
              for _, _, _, lv, rv in failures]  # N + 1 if only Ob differs
    nu = min(orders, default=th.order + 1)
    if nu > th.order:
        return DeformationReport(True)
    what, kind, where, lv, rv = failures[orders.index(nu)]
    return DeformationReport(
        False, nu, "%s at order %d, %s %r: %s != %s"
        % (what, nu, kind, where,
           format_scalars(th.field, _coefficients(lv, nu)),
           format_scalars(th.field, _coefficients(rv, nu))))


def verify_deformation(th):
    """Check the deformation equations order by order; report first failure.

    These are the five product axioms of D_t and of E_t and the morphism
    equations of psi_t over K[t]/(t^{N+1}); a failure's order is the lowest
    t-degree at which its two sides differ.
    """
    return _first_failure(th, *th.residuals())


_REVERIFY = "solved extension failed re-verification: %s"


def _require_valid(th):
    """th's residuals, once they vanish through order N; else
    InvalidDeformation at the first failure."""
    violations = th.residuals()
    report = _first_failure(th, *violations)
    if not report:
        raise InvalidDeformation(report.failing_identity)
    return violations


# -- infinitesimal and leading cocycle ---------------------------------


def infinitesimal(th):
    """The order-1 coefficient as a degree-2 morphism cochain."""
    if th.order < 1:
        raise OrderTooLow("infinitesimal needs order >= 1")
    return th.theta(1)


def cocycle_check(cx, mc, order):
    """Whether delta mc = 0 exactly; else where its first nonzero value is."""
    for name, tree, multi, _ in cx.coboundary(mc).nonzero_values():
        return CocycleReport(False, leading_order=order,
                             residual_location="%s block, tree %s, indices %r"
                             % (name, tree.name, multi))
    return CocycleReport(True, leading_order=order)


def leading_cocycle_check(th):
    """Assert that the first nonzero coefficient is an exact 2-cocycle."""
    k = th.leading_order()
    if k is None:
        return CocycleReport(True, leading_order=None)  # vacuous: all zero
    return cocycle_check(complex_of(th.psi), th.theta(k), k)


# -- obstruction -------------------------------------------------------


def obstruction(th):
    """The obstruction class blocking extension from order N to N + 1.

    On the lift padded by a zero order, Ob_D and Ob_E on the k-th 3-tree
    are the t^{N+1} coefficients of the L- minus the R-bracketing of axiom
    k + 1, which are the two composites along the faces of that tree, and
    Ob_psi is that of f_E(psi_t, psi_t) - psi_t f_D, on [21] for -| and
    [12] for |-.  The same residuals decide validity through order N.
    """
    n = th.order
    if n < 1:
        raise OrderTooLow("obstruction needs order >= 1")
    d_violations, e_violations, m_violations = _require_valid(th)

    def cochain(degree, d, rep, diffs):
        coeffs, m = list(Cochain.zero(degree, d, rep).coeffs), rep.module_dim
        for (tree, multi), sides in diffs:
            off = flat_offset(tree, multi, d.dim, m)
            coeffs[off:off + m] = [x.c[n + 1] - y.c[n + 1]
                                   for x, y in zip(*sides)]
        return Cochain(degree, d, rep, coeffs)

    def axiom_block(d, vs):
        return cochain(3, d, d, [
            ((num - 1, (i, j, k)),
             (lv, rv) if AXIOMS[num - 1][0][0] == "L" else (rv, lv))
            for num, i, j, k, lv, rv in vs])

    return ObstructionClass(MorphismCochain(
        axiom_block(th.psi.source, d_violations),
        axiom_block(th.psi.target, e_violations),
        cochain(2, th.psi.source, complex_of(th.psi).rep_de, [
            ((TREE_L if label is LEFT else TREE_R, (a, b)), (rv, lv))
            for label, a, b, lv, rv in m_violations])), n)


# -- extension ---------------------------------------------------------


def _solve(cx, n, b, label):
    """Solve delta^n x = b: x, or None if there is none, with the rank line
    that certifies which (the rank of [delta^n | b] is one more iff none)."""
    mat = cx.matrix(n)
    x = mat.solve(cx.vec(b))
    rank = mat.rank()
    return (None if x is None else cx.unvec(n, x),
            "rank delta^%d = %d, rank [delta^%d | %s] = %d"
            % (n, rank, n, label, rank + (x is None)))


def _extend(th, cx, rng=None):
    """One order of extension by a solution of delta theta = Ob: (the
    extension, None), or (None, Ob) if Ob is no coboundary.  With an rng,
    the solution is shifted by a random 2-cocycle.  Computing Ob validates
    th; the extension is left to the caller to check, and its residuals,
    once computed, also give its own obstruction."""
    ob = obstruction(th)
    theta, _ = _solve(cx, 2, ob.cochain, "Ob")
    if theta is None:
        return None, ob
    if rng is not None:
        theta = theta + random_cocycle(cx, 2, rng)
    return th.extended_with(theta), None


def extend_step(th):
    """The deformation extended by one order, or None when a nonzero
    obstruction class blocks extension at this order."""
    extended = _extend(th, complex_of(th.psi))[0]
    if extended is not None:
        try:
            _require_valid(extended)
        except InvalidDeformation as exc:
            raise InvalidDeformation(_REVERIFY % exc) from None
    return extended


def _require_within_cap(kind, order):
    if order > ORDER_CAP:
        raise CapExceeded("%s order %d exceeds cap %d"
                          % (kind, order, ORDER_CAP))


def obstruction_certificate(ob, cx):
    """Rank witness plus per-tree obstruction values for a blocked step."""
    _, ranks = _solve(cx, 2, ob.cochain, "Ob")
    return "\n".join(
        ["obstruction at order %d is not a coboundary:" % ob.order, ranks]
        + ["  %s %s %r = %s" % (tag, tree.name, multi,
                                format_scalars(cx.field, v))
           for tag, tree, multi, v in ob.cochain.nonzero_values(
               ("Ob_D", "Ob_E", "Ob_psi"))])


def extend_to_order(th, target):
    """Extend order by order up to the target; certify a blocked step."""
    if target < 0:
        raise IndexOutOfRange("target order must be >= 0, got %d" % target)
    if target < th.order:
        raise IndexOutOfRange("target order %d is below the deformation's"
                              " order %d" % (target, th.order))
    _require_within_cap("target", target)
    cx = complex_of(th.psi)
    _require_valid(th)
    hy3 = cx.cohomology_dim(3)
    # each extension is checked once: by the next step's obstruction, or
    # at the end if it is the last one
    current, certificate = th, None
    try:
        while current.order < target:
            if current.order < 1:
                # order-0 deformations extend freely by a zero coefficient
                current = current.extended_with(cx.zero(2))
                continue
            nxt, ob = _extend(current, cx)
            if nxt is None:
                certificate = obstruction_certificate(ob, cx)
                break
            current = nxt
        _require_valid(current)
    except InvalidDeformation as exc:  # th itself passed the check above
        raise InvalidDeformation(_REVERIFY % exc) from None
    return ExtensionReport(current.order, target, current, hy3,
                           guaranteed=(hy3 == 0), certificate=certificate)


# -- equivalence -------------------------------------------------------


def _conjugate(d_t, phi, inv):
    """The lifted dialgebra with products phi f(inv x, inv y)."""
    left, right = ([[phi.apply(v) for v in row] for row in table]
                   for table in image_products(d_t, inv))
    return Dialgebra(d_t.dim, d_t.field, left, right,
                     basis_names=d_t.basis_names, name=d_t.name)


def apply_formal_iso(th, iso):
    """Transport a deformation along a pair of formal isomorphism series.

    Over K[t]/(t^{N+1}): f'(x, y) = Phi f(Phi^-1 x, Phi^-1 y) on D and on
    E, and psi' = Phi_E psi Phi_D^-1.
    """
    if iso.order != th.order:
        raise OrderMismatch("deformation order %d vs iso order %d"
                            % (th.order, iso.order))
    if iso.psi is not th.psi:
        raise BaseMismatch("formal isomorphism of %s applied to a"
                           " deformation of %s"
                           % (iso.psi.name, th.psi.name))
    d_t, e_t, psi_t = th.lift()
    phi_d = _lift_matrix(d_t.field, iso.phi_d)
    phi_e = _lift_matrix(d_t.field, iso.phi_e)
    inv_d = unipotent_inverse(phi_d)
    new_d = _conjugate(d_t, phi_d, inv_d)
    new_e = _conjugate(e_t, phi_e, unipotent_inverse(phi_e))
    return TruncatedDeformation.from_lift(
        th.psi, new_d, new_e,
        DialgebraMorphism(new_d, new_e, phi_e * psi_t.matrix * inv_d))


def trivialize_step(th):
    """Kill the leading nonzero coefficient by a formal isomorphism.

    Requires a valid deformation whose leading coefficient is a
    2-coboundary; returns the pair (iso, transported deformation) with one
    more vanishing order.
    """
    _require_valid(th)
    return _trivialize(th)


def _trivialize(th):
    """trivialize_step on a deformation known to be valid."""
    lead = th.leading_order()
    if lead is None:
        return FormalIso.identity(th.psi, th.order), th
    cx = complex_of(th.psi)
    x, ranks = _solve(cx, 1, th.theta(lead), "theta")
    if x is None:
        raise NotACoboundary(
            "leading coefficient at order %d is not a coboundary" % lead,
            certificate=ranks)
    beta = cx.normalize_1cochain(x)
    ident = FormalIso.identity(th.psi, th.order)
    iso = FormalIso(th.psi, *(
        series[:lead] + (cochain1_to_matrix(c),) + series[lead + 1:]
        for series, c in ((ident.phi_d, beta.xi), (ident.phi_e, beta.pi))))
    return iso, apply_formal_iso(th, iso)


def _require_morphism(psi):
    """InvalidDeformation naming the failing object, unless psi's source
    and target satisfy the dialgebra axioms and psi is a morphism."""
    for role, d in (("source", psi.source), ("target", psi.target)):
        report = check_dialgebra(d)
        if not report:
            num, i, j, k = report.violations[0][:4]
            raise InvalidDeformation("%s %s is not a dialgebra: axiom %d"
                                     " fails on triple %r"
                                     % (role, d.name, num, (i, j, k)))
    if not check_morphism(psi):
        raise InvalidDeformation("psi is not a dialgebra morphism")


def rigidity_probe(psi, order=4):
    """HY^2-based rigidity verdict, exercised on sampled deformations.

    The source and target must satisfy the dialgebra axioms and psi must
    be a morphism; else InvalidDeformation names the failing object.
    """
    if order < 0:
        raise IndexOutOfRange("sample order must be >= 0, got %d" % order)
    _require_within_cap("sample", order)
    _require_morphism(psi)
    cx = complex_of(psi)
    hy2 = cx.cohomology_dim(2)
    if hy2 != 0:
        return RigidityReport(hy2, "not decided by vanishing HY^2"
                                   " (HY^2 = %d)" % hy2)
    rng = random.Random(0)
    trivialized = 0
    for _ in range(PROBE_SAMPLES):
        th = random_deformation(psi, order, rng)
        # a sample is valid, and so is every transport of it
        while th.leading_order() is not None:
            _, th = _trivialize(th)
        trivialized += 1
    return RigidityReport(0, "rigid (HY^2 = 0)", trivialized)


# -- random samples ----------------------------------------------------


def random_formal_iso(psi, order, rng):
    """A random formal isomorphism of psi of the given order: entries from
    -2 to 2, drawn row by row for orders 1..N of D's series, then E's."""
    f = psi.field

    def series(n):
        return [Matrix.identity(f, n)] + [
            Matrix(f, n, n, [[f.from_int(rng.randint(-2, 2))
                              for _ in range(n)] for _ in range(n)])
            for _ in range(order)]
    return FormalIso(psi, series(psi.source.dim), series(psi.target.dim))


def random_cocycle(cx, n, rng):
    """A random element of ker delta^n, as a morphism cochain."""
    mat = cx.matrix(n)
    z = cx.field.zero
    coords = [z] * mat.cols
    for v in mat.kernel_basis():  # one scalar draw per basis vector
        c = random_scalar(cx.field, rng)
        if c != z:
            coords = [x + c * y for x, y in zip(coords, v)]
    return cx.unvec(n, tuple(coords))


def random_deformation(psi, order, rng):
    """A random valid deformation of the given order.

    Starts from a random 2-cocycle infinitesimal and extends order by
    order, randomizing each particular solution by a random 2-cocycle.
    Stops early if an obstruction blocks the extension.  Each obstruction
    validates the deformation it is computed from, and one that reached
    the requested order is verified as a whole.
    """
    _require_within_cap("target", order)
    th = TruncatedDeformation.trivial(psi)
    if order < 1:
        return th
    cx = complex_of(psi)
    th = th.extended_with(random_cocycle(cx, 2, rng))
    while th.order < order:
        nxt, _ = _extend(th, cx, rng)
        if nxt is None:
            return th
        th = nxt
    _require_valid(th)
    return th
