"""Order-N deformations of a dialgebra morphism and their calculus.

A truncated deformation carries coefficient 2-cochains for the deformed
products of D and E and coefficient linear maps for the deformed morphism,
with the order-0 data pinned to the undeformed model.  On top of that
this module implements validity checking, infinitesimals, obstruction
classes, one-step and iterated extension, transport along formal
isomorphisms, trivialization, and rigidity probing.

The coefficients are stored order by order, and every identity on the
power series is read one t-coefficient at a time, over K.  The residuals
of the five axioms of D_t and of E_t and of the morphism equations of
psi_t are computed through t^{N+1} by the graded contractions of
``dialgebra.axiom_sides`` and ``dialgebra.morphism_sides``, as the two
sides of each identity.  Their coefficients t^0..t^N decide validity:
each order of each identity is compared whole, and only the first that
differs is read as report records.  Their t^{N+1} coefficients are the
obstruction, L- minus R-bracketing of each axiom and f_E(psi_t, psi_t)
minus psi_t f_D, already laid out as the cochains of CY^3(D,D) and
CY^2(D,E).  A deformation computes them once, and both validity and the
obstruction read them.  Transport along a formal isomorphism
Phi_t = I + sum_k phi_k t^k runs through t^N on the same graded
contraction (``dialgebra._contract``): the inverse Psi_t = Phi_t^-1 is
built order by order as a graded map, each deformed product is a
pull-back along Psi_t followed by a push-forward along Phi_t, and the
deformed morphism Phi_E psi_t Psi_D is psi_t with its source axis
carried along Psi_D and its target axis along Phi_E.  No two matrices
are multiplied.  Extension by one order, to a target order and of a
random sample is one loop of one-order steps (``_extend_to``).
"""

import itertools
import random
from collections import namedtuple

from .cochain import Cochain, product_cochain, random_scalar
from .dialgebra import (AXIOMS, _contract, _graded_map, _lifted,
                        _pull_back, _push_forward, _reduced, _violations,
                        axiom_sides, check_dialgebra, check_morphism,
                        flat_products, morphism_sides)
from .errors import (BaseMismatch, CapExceeded, FieldMismatch,
                     IndexOutOfRange, InvalidDeformation,
                     NonIdentityConstantTerm, NotACoboundary, OrderMismatch,
                     OrderTooLow, ShapeMismatch)
from .fields import format_scalars
from .linalg import Matrix
from .morphism_complex import MorphismCochain, complex_of

ORDER_CAP = 6  # the largest deformation order extended to, sampled or parsed
PROBE_SAMPLES = 5  # the deformations a rigidity probe samples


def cochain1_to_matrix(c):
    """A degree-1 cochain D -> M as a module_dim x dim matrix: the values
    on the basis of D, in order, are its columns."""
    m = c.rep.module_dim
    return Matrix.from_columns(c.field, m, c.dialgebra.dim, {
        a: dict(enumerate(col)) for a, col in enumerate(_rows(c.coeffs, m))})


def matrix_to_cochain1(mat, d, rep):
    """Inverse of cochain1_to_matrix."""
    return Cochain(1, d, rep, sum(mat.dense_columns(), ()))


def _rows(flat, width):
    return [flat[i:i + width] for i in range(0, len(flat), width)]


def _check_series(field, mats, rows, cols, what):
    """ShapeMismatch or FieldMismatch unless every coefficient of a matrix
    series is a rows x cols matrix over the field."""
    for m in mats:
        if (m.rows, m.cols) != (rows, cols):
            raise ShapeMismatch("%s coefficients must be %dx%d"
                                % (what, rows, cols))
        if m.field != field:
            raise FieldMismatch("%s coefficients must lie over %r"
                                % (what, field))


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
        _check_series(psi.field, psis, e.dim, d.dim, "psi")
        if fd[0].rep != d or fd[0].coeffs != flat_products(d):
            raise BaseMismatch("order-0 D products disagree with the model")
        if fe[0].rep != e or fe[0].coeffs != flat_products(e):
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
        """The two sides of the identities of D_t, E_t and psi_t through
        t^{N+1}, computed by the first call (``_residuals``) and kept."""
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
        for series, n, tag in ((phi_d, psi.source.dim, "phi_D"),
                               (phi_e, psi.target.dim, "phi_E")):
            _check_series(psi.field, series, n, n, tag)
            if series[0] != Matrix.identity(psi.field, n):
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


# -- reports -----------------------------------------------------------

# Each report is a named tuple: immutable, compared and hashed by its
# fields, and printed as Name(field=value, ...).


class DeformationReport(namedtuple(
        "DeformationReport", "valid first_failing_order failing_identity",
        defaults=(None, None))):
    __slots__ = ()

    def __bool__(self):
        return self.valid


class CocycleReport(namedtuple(
        "CocycleReport", "passed leading_order residual_location",
        defaults=(None, None))):
    __slots__ = ()

    def __bool__(self):
        return self.passed


class ObstructionClass(namedtuple("ObstructionClass", "cochain order")):
    """The degree-3 obstruction cochain (Ob_D; Ob_E; Ob_psi) at order N."""

    __slots__ = ()

    def is_zero(self):
        return self.cochain.is_zero()


ExtensionReport = namedtuple(
    "ExtensionReport",
    "reached target deformation hy3_dim guaranteed certificate",
    defaults=(None,))

RigidityReport = namedtuple("RigidityReport",
                            "hy2_dim verdict trivialized_samples",
                            defaults=(0,))


# -- validity ----------------------------------------------------------


def _residuals(th):
    """The two sides of the five axioms of D_t and of E_t and of the
    morphism equations of psi_t through t^{N+1} (``axiom_sides``,
    ``morphism_sides``), computed order by order over K.  Their
    coefficients t^0..t^N decide validity; t^{N+1} is the obstruction."""
    top = th.order + 1
    fds, fes = [f.coeffs for f in th.fd], [f.coeffs for f in th.fe]
    return (axiom_sides(th.field, th.psi.source.dim, fds, top),
            axiom_sides(th.field, th.psi.target.dim, fes, top),
            morphism_sides(th.field, th.psis, fds, fes, top))


def _first_failure(th, d_sides, e_sides, m_sides):
    """The failure of lowest t-degree up to N, ties going to the checkers'
    order: f_D, f_E, then the morphism equation (l before r), each by
    axiom, then by triple or pair.  Each order of an identity is compared
    whole, and only the first that differs is read as records."""
    d, e = th.psi.source.dim, th.psi.target.dim
    # the sides' orders: N + 2 (N + 1 on the sides of an unpadded lift)
    width = len(m_sides[0]) // (2 * d * d * e)
    # (lhs, rhs, key prefix, key ranges, block, what, kind) per identity
    identities = [(lhs, rhs, (num,), (n,) * 3, n, "axiom %d for " + tag,
                   "triple")
                  for tag, n, sides in (("f_D", d, d_sides),
                                        ("f_E", e, e_sides))
                  for num, (lhs, rhs) in enumerate(sides, start=1)
                  if lhs != rhs]
    if m_sides[0] != m_sides[1]:
        identities.append((*m_sides, "lr", (d, d), e,
                           "morphism equation (%s)", "pair"))
    for nu in range(th.order + 1):
        for lhs, rhs, first, dims, n, what, kind in identities:
            lhs, rhs = lhs[nu::width], rhs[nu::width]
            if lhs != rhs:
                keys = itertools.product(first, *map(range, dims))
                tag, *where, lv, rv = _violations(lhs, rhs, keys, n)[0]
                return DeformationReport(
                    False, nu, "%s at order %d, %s %r: %s != %s"
                    % (what % tag, nu, kind, tuple(where),
                       format_scalars(th.field, lv),
                       format_scalars(th.field, rv)))
    return DeformationReport(True)


def verify_deformation(th):
    """Check the deformation equations order by order; report first failure.

    These are the five product axioms of D_t and of E_t and the morphism
    equations of psi_t, through t^N; a failure's order is the lowest
    t-degree at which its two sides differ.
    """
    return _first_failure(th, *th.residuals())


_REVERIFY = "solved extension failed re-verification: %s"


def _require_valid(th):
    """th's residuals, once they vanish through order N; else
    InvalidDeformation at the first failure."""
    residuals = th.residuals()
    report = _first_failure(th, *residuals)
    if not report:
        raise InvalidDeformation(report.failing_identity)
    return residuals


# -- infinitesimal and leading cocycle ---------------------------------


def infinitesimal(th):
    """The order-1 coefficient of a valid deformation as a degree-2
    morphism cochain."""
    if th.order < 1:
        raise OrderTooLow("infinitesimal needs order >= 1")
    _require_valid(th)
    return th.theta(1)


def cocycle_check(cx, mc, order):
    """Whether delta mc = 0 exactly; else where its first nonzero value is."""
    delta = cx.coboundary(mc)
    if delta.is_zero():
        return CocycleReport(True, leading_order=order)
    name, tree, multi, _ = next(delta.nonzero_values())
    return CocycleReport(False, leading_order=order,
                         residual_location="%s block, tree %s, indices %r"
                         % (name, tree.name, multi))


def leading_cocycle_check(th):
    """Assert that the first nonzero coefficient is an exact 2-cocycle."""
    k = th.leading_order()
    if k is None:
        return CocycleReport(True, leading_order=None)  # vacuous: all zero
    return cocycle_check(complex_of(th.psi), th.theta(k), k)


# -- obstruction -------------------------------------------------------


def obstruction(th):
    """The obstruction class blocking extension from order N to N + 1.

    Ob_D and Ob_E on the k-th 3-tree are the t^{N+1} coefficients of the
    L- minus the R-bracketing of axiom k + 1, which are the two
    composites along the faces of that tree, and Ob_psi is that of
    f_E(psi_t, psi_t) - psi_t f_D.  The sides are laid out as the
    cochains are: an axiom's over (i, j, k, w), and the morphism
    equations' over (label, i, j, w), which is [21] for -| and [12] for
    |-.  The same residuals decide validity through order N.
    """
    n = th.order
    if n < 1:
        raise OrderTooLow("obstruction needs order >= 1")
    d_sides, e_sides, (pushed, pulled) = _require_valid(th)

    def minus(x, y):  # x - y at t^{N+1}
        return [a - b for a, b in zip(x[n + 1::n + 2], y[n + 1::n + 2])]

    def axiom_block(d, sides):
        return Cochain(3, d, d, [
            x for (lhs, rhs), axiom in zip(sides, AXIOMS)
            for x in (minus(lhs, rhs) if axiom[0][0] == "L"
                      else minus(rhs, lhs))])

    return ObstructionClass(MorphismCochain(
        axiom_block(th.psi.source, d_sides),
        axiom_block(th.psi.target, e_sides),
        Cochain(2, th.psi.source, complex_of(th.psi).rep_de,
                minus(pulled, pushed))), n)


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
    extension, None), or (None, Ob) if Ob is no coboundary.  At order 0,
    Ob is 0 and so is the solution.  With an rng, the solution is shifted
    by a random 2-cocycle.  Computing Ob validates th; the extension is
    left to the caller to check, and its residuals, once computed, also
    give its own obstruction."""
    if th.order < 1:
        theta = cx.zero(2)
    else:
        ob = obstruction(th)
        theta, _ = _solve(cx, 2, ob.cochain, "Ob")
        if theta is None:
            return None, ob
    if rng is not None:
        theta = theta + random_cocycle(cx, 2, rng)
    return th.extended_with(theta), None


def _extend_to(th, target, cx, rng=None):
    """Extend th order by order up to the target: (the last deformation
    reached, the obstruction that blocked the next order or None).  th is
    checked first; each extension is checked once, by the next order's
    obstruction or, for the last one, at the end."""
    _require_valid(th)
    ob = None
    try:
        while th.order < target:
            nxt, ob = _extend(th, cx, rng)
            if nxt is None:
                break
            th = nxt
        _require_valid(th)
    except InvalidDeformation as exc:  # th itself passed the check above
        raise InvalidDeformation(_REVERIFY % exc) from None
    return th, ob


def extend_step(th):
    """The deformation extended by one order, or None when a nonzero
    obstruction class blocks extension at this order."""
    extended, ob = _extend_to(th, th.order + 1, complex_of(th.psi))
    return extended if ob is None else None


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
    reached, ob = _extend_to(th, target, cx)
    hy3 = cx.cohomology_dim(3)
    return ExtensionReport(
        reached.order, target, reached, hy3, guaranteed=(hy3 == 0),
        certificate=None if ob is None else obstruction_certificate(ob, cx))


# -- equivalence -------------------------------------------------------


def _inverse(field, graded, top):
    """Psi = Phi^-1 through t^top for a graded map Phi (``_graded_map``)
    with identity constant term, as a graded map too: column s of Psi_0
    is e_s, and column s of Psi_k is -sum_{b=1..k} phi_b (column s of
    Psi_{k-b}), on plain numbers."""
    phi_cols = graded[1]  # each column opens with the entry of I
    n = len(phi_cols)
    # psi[k][s] is column s of Psi_k, complete once every lower order has
    # added its terms to it
    psi = [[{s: field.lift(field.one)} for s in range(n)]]
    psi += [[{} for _ in range(n)] for _ in range(top)]
    for a, coeff in enumerate(psi):
        for s, col in enumerate(coeff):
            for u, c in col.items():
                for i, x, b in phi_cols[u][1:]:
                    if b > top - a:
                        break
                    psi[a + b][s][i] = psi[a + b][s].get(i, 0) - c * x
    return _graded_map(field, [Matrix.from_columns(field, n, n, {
        s: {u: field.reduce(x) for u, x in col.items()}
        for s, col in enumerate(coeff)}) for coeff in psi])


def apply_formal_iso(th, iso):
    """Transport a deformation along a pair of formal isomorphism series.

    f'(x, y) = Phi f(Psi x, Psi y) on D and on E, with Psi = Phi^-1, and
    psi' = Phi_E psi Psi_D, through t^N: f' is the pull-back of f along
    Psi followed by the push-forward along Phi, and psi' is psi_t with its
    source axis carried along Psi_D and its target axis along Phi_E.
    """
    if iso.order != th.order:
        raise OrderMismatch("deformation order %d vs iso order %d"
                            % (th.order, iso.order))
    if iso.psi is not th.psi:
        raise BaseMismatch("formal isomorphism of %s applied to a"
                           " deformation of %s"
                           % (iso.psi.name, th.psi.name))
    field, top = th.field, th.order
    d, e = th.psi.source.dim, th.psi.target.dim
    phi_d, phi_e = (_graded_map(field, s) for s in (iso.phi_d, iso.phi_e))
    inv_d, inv_e = (_inverse(field, g, top) for g in (phi_d, phi_e))

    def conjugate(fs, phi, inv):
        x = fs[0].dialgebra
        terms = _pull_back(_lifted(field, [f.coeffs for f in fs]), inv, top, 2)
        return [Cochain(2, x, x, c)
                for c in _reduced(field, _push_forward(terms, phi, top))]

    # psi_t flat over (target, source): the source axis has stride 1 and
    # the target axis stride dim D
    terms = _lifted(field, [sum(m.dense_rows(), ()) for m in th.psis])
    terms = _contract(terms, inv_d[0], d, 1, top)
    terms = _reduced(field, _contract(terms, phi_e[1], e, d, top))
    return TruncatedDeformation(
        th.psi, conjugate(th.fd, phi_d, inv_d), conjugate(th.fe, phi_e, inv_e),
        [Matrix(field, e, d, _rows(flat, d)) for flat in terms])


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


def _require_dialgebra(role, d):
    """InvalidDeformation naming d in its role and the first failing
    axiom and triple, unless d satisfies the dialgebra axioms."""
    report = check_dialgebra(d)
    if not report:
        num, i, j, k = report.violations[0][:4]
        raise InvalidDeformation("%s %s is not a dialgebra: axiom %d"
                                 " fails on triple %r"
                                 % (role, d.name, num, (i, j, k)))


def _require_morphism(psi):
    """InvalidDeformation naming the failing object, unless psi's source
    and target satisfy the dialgebra axioms and psi is a morphism.  An
    endomorphism's dialgebra is checked once, as the source."""
    ends = (("source", psi.source), ("target", psi.target))
    for role, d in ends[:1] if psi.target is psi.source else ends:
        _require_dialgebra(role, d)
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
    validates the deformation it is computed from, and the last one
    reached is verified as a whole.
    """
    _require_within_cap("target", order)
    return _extend_to(TruncatedDeformation.trivial(psi), order,
                      complex_of(psi), rng)[0]
