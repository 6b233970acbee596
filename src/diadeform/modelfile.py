"""Line-oriented model files: dialgebras, morphisms, deformations, isos.

The format is deliberately plain so that exact rationals stay readable
and diffs stay reviewable::

    field rationals            # or: field gf 7

    dialgebra D
      dim 2
      basis e f
      left 0 0 0 1             # coefficient of basis k in e_i -| e_j
      right 0 1 1 -1/2
    end

    morphism psi
      source D
      target D
      entry 0 0 1              # matrix[row][col]
    end

    deformation theta
      morphism psi
      order 1
      fD 1 l 0 0 0 1           # order, l|r, i, j, k, value
      fE 1 l 0 0 0 1
      psi 1 0 0 1              # order, row, col, value
    end

    formal-iso phi
      morphism psi
      order 1
      phiD 1 0 0 1             # order, row, col, value
      phiE 1 0 0 1
    end

Unspecified entries default to zero; the order-0 coefficients of a
deformation are taken from the model and the constant term of a formal
isomorphism is the identity.  '#' starts a comment.
"""

from dataclasses import dataclass, field as dc_field

from .cochain import product_cochain
from .dialgebra import (Dialgebra, DialgebraMorphism, adjoint_rep,
                        check_dialgebra, check_morphism)
from .deformation import FormalIso, TruncatedDeformation
from .errors import BadScalar, ParseError, UnknownReference
from .fields import parse_field
from .linalg import Matrix


@dataclass
class ModelFile:
    field: object
    dialgebras: dict = dc_field(default_factory=dict)
    morphisms: dict = dc_field(default_factory=dict)
    deformations: dict = dc_field(default_factory=dict)
    isos: dict = dc_field(default_factory=dict)


def _tokenize(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _parse_scalar(field, token, lineno):
    try:
        return field.parse(token)
    except BadScalar as exc:
        raise BadScalar("%s" % exc, line=lineno) from None


def _want_int(token, lineno, what):
    try:
        return int(token)
    except ValueError:
        raise ParseError("bad %s %r" % (what, token), line=lineno)


class _Parser:
    def __init__(self, text, field_override=None):
        self.lines = list(_tokenize(text))
        self.pos = 0
        self.field_override = field_override

    def next_line(self):
        if self.pos >= len(self.lines):
            return None, None
        lineno, words = self.lines[self.pos]
        self.pos += 1
        return lineno, words

    def parse(self):
        field = self.field_override
        model = None
        while True:
            lineno, words = self.next_line()
            if words is None:
                break
            head = words[0]
            if head == "field":
                declared = parse_field(" ".join(words[1:]))
                if field is None:
                    field = declared
                if model is not None and model.field != field:
                    raise ParseError("field declared twice", line=lineno)
                continue
            if field is None:
                raise ParseError("a 'field' line must come first",
                                 line=lineno)
            if model is None:
                model = ModelFile(field)
            if head == "dialgebra":
                self._parse_dialgebra(model, words, lineno)
            elif head == "morphism":
                self._parse_morphism(model, words, lineno)
            elif head == "deformation":
                self._parse_deformation(model, words, lineno)
            elif head == "formal-iso":
                self._parse_iso(model, words, lineno)
            else:
                raise ParseError("unknown section %r" % head, line=lineno)
        if model is None:
            if field is None:
                raise ParseError("empty model file", line=0)
            model = ModelFile(field)
        return model

    def _block(self, lineno):
        """Lines until the matching 'end'."""
        body = []
        while True:
            ln, words = self.next_line()
            if words is None:
                raise ParseError("unterminated block", line=lineno)
            if words == ["end"]:
                return body
            body.append((ln, words))

    def _parse_dialgebra(self, model, words, lineno):
        if len(words) != 2:
            raise ParseError("expected: dialgebra <name>", line=lineno)
        name = self._fresh(model.dialgebras, "dialgebra", words[1], lineno)
        field = model.field
        dim = None
        basis = None
        entries = []  # (which, i, j, k, value)
        for ln, w in self._block(lineno):
            if w[0] == "dim" and len(w) == 2:
                dim = _want_int(w[1], ln, "dimension")
            elif w[0] == "basis":
                basis, basis_line = tuple(w[1:]), ln
            elif w[0] in ("left", "right") and len(w) == 5:
                i = _want_int(w[1], ln, "index")
                j = _want_int(w[2], ln, "index")
                k = _want_int(w[3], ln, "index")
                entries.append((w[0], i, j, k,
                                _parse_scalar(field, w[4], ln), ln))
            else:
                raise ParseError("bad dialgebra line %r" % " ".join(w),
                                 line=ln)
        if dim is None:
            raise ParseError("dialgebra %s lacks a dim line" % name,
                             line=lineno)
        if basis is not None and len(basis) != dim:
            raise ParseError("basis has %d names but dim is %d"
                             % (len(basis), dim), line=basis_line)
        z = field.zero
        left = [[[z] * dim for _ in range(dim)] for _ in range(dim)]
        right = [[[z] * dim for _ in range(dim)] for _ in range(dim)]
        for which, i, j, k, v, ln in entries:
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise ParseError("index out of range for dim %d" % dim,
                                 line=ln)
            tensor = left if which == "left" else right
            tensor[i][j][k] = v
        model.dialgebras[name] = Dialgebra(dim, field=field, left=left,
                                           right=right, basis_names=basis,
                                           name=name)

    def _parse_morphism(self, model, words, lineno):
        if len(words) != 2:
            raise ParseError("expected: morphism <name>", line=lineno)
        name = self._fresh(model.morphisms, "morphism", words[1], lineno)
        field = model.field
        source = target = None
        entries = []
        for ln, w in self._block(lineno):
            if w[0] == "source" and len(w) == 2:
                source = self._resolve(model.dialgebras, w[1], ln)
            elif w[0] == "target" and len(w) == 2:
                target = self._resolve(model.dialgebras, w[1], ln)
            elif w[0] == "entry" and len(w) == 4:
                entries.append((_want_int(w[1], ln, "row"),
                                _want_int(w[2], ln, "col"),
                                _parse_scalar(field, w[3], ln), ln))
            else:
                raise ParseError("bad morphism line %r" % " ".join(w),
                                 line=ln)
        if source is None or target is None:
            raise ParseError("morphism %s needs source and target" % name,
                             line=lineno)
        data = {}
        for r, c, v, ln in entries:
            if not (0 <= r < target.dim and 0 <= c < source.dim):
                raise ParseError("morphism entry out of range", line=ln)
            data.setdefault(r, {})[c] = v
        model.morphisms[name] = DialgebraMorphism(
            source, target,
            Matrix.sparse(field, target.dim, source.dim, data), name=name)

    def _parse_deformation(self, model, words, lineno):
        if len(words) != 2:
            raise ParseError("expected: deformation <name>", line=lineno)
        name = self._fresh(model.deformations, "deformation", words[1],
                           lineno)
        field = model.field
        body, psi, order = self._header(model, "deformation", name, lineno)
        d, e = psi.source, psi.target
        z = field.zero
        fd_t = [[[[z] * d.dim for _ in range(d.dim)] for _ in range(d.dim)]
                for _ in range(2 * order)]
        fe_t = [[[[z] * e.dim for _ in range(e.dim)] for _ in range(e.dim)]
                for _ in range(2 * order)]
        psi_t = [[[z] * d.dim for _ in range(e.dim)] for _ in range(order)]
        for ln, w in body:
            if w[0] in ("morphism", "order"):
                continue
            if w[0] in ("fD", "fE") and len(w) == 7:
                dialg = d if w[0] == "fD" else e
                store = fd_t if w[0] == "fD" else fe_t
                n = _want_int(w[1], ln, "order")
                if not 1 <= n <= order:
                    raise ParseError("coefficient order %d out of 1..%d"
                                     % (n, order), line=ln)
                if w[2] not in ("l", "r"):
                    raise ParseError("product must be 'l' or 'r'", line=ln)
                i = _want_int(w[3], ln, "index")
                j = _want_int(w[4], ln, "index")
                k = _want_int(w[5], ln, "index")
                if not all(0 <= x < dialg.dim for x in (i, j, k)):
                    raise ParseError("index out of range", line=ln)
                slot = 2 * (n - 1) + (0 if w[2] == "l" else 1)
                store[slot][i][j][k] = _parse_scalar(field, w[6], ln)
            elif w[0] == "psi" and len(w) == 5:
                n = _want_int(w[1], ln, "order")
                if not 1 <= n <= order:
                    raise ParseError("coefficient order %d out of 1..%d"
                                     % (n, order), line=ln)
                r = _want_int(w[2], ln, "row")
                c = _want_int(w[3], ln, "col")
                if not (0 <= r < e.dim and 0 <= c < d.dim):
                    raise ParseError("psi entry out of range", line=ln)
                psi_t[n - 1][r][c] = _parse_scalar(field, w[4], ln)
            else:
                raise ParseError("bad deformation line %r" % " ".join(w),
                                 line=ln)
        rep_d = adjoint_rep(d)
        rep_e = adjoint_rep(e)
        fd = [product_cochain(d, rep_d)]
        fe = [product_cochain(e, rep_e)]
        psis = [psi.matrix]
        for n in range(1, order + 1):
            fd.append(product_cochain(d, rep_d, *fd_t[2 * n - 2:2 * n]))
            fe.append(product_cochain(e, rep_e, *fe_t[2 * n - 2:2 * n]))
            psis.append(Matrix(field, e.dim, d.dim, psi_t[n - 1]))
        model.deformations[name] = TruncatedDeformation(psi, fd, fe, psis)

    def _parse_iso(self, model, words, lineno):
        if len(words) != 2:
            raise ParseError("expected: formal-iso <name>", line=lineno)
        name = self._fresh(model.isos, "formal-iso", words[1], lineno)
        field = model.field
        body, psi, order = self._header(model, "formal-iso", name, lineno)
        d, e = psi.source, psi.target
        z = field.zero
        phid = [[[z] * d.dim for _ in range(d.dim)] for _ in range(order)]
        phie = [[[z] * e.dim for _ in range(e.dim)] for _ in range(order)]
        for ln, w in body:
            if w[0] in ("morphism", "order"):
                continue
            if w[0] in ("phiD", "phiE") and len(w) == 5:
                store = phid if w[0] == "phiD" else phie
                dim = d.dim if w[0] == "phiD" else e.dim
                n = _want_int(w[1], ln, "order")
                if not 1 <= n <= order:
                    raise ParseError("coefficient order %d out of 1..%d"
                                     % (n, order), line=ln)
                r = _want_int(w[2], ln, "row")
                c = _want_int(w[3], ln, "col")
                if not (0 <= r < dim and 0 <= c < dim):
                    raise ParseError("iso entry out of range", line=ln)
                store[n - 1][r][c] = _parse_scalar(field, w[4], ln)
            else:
                raise ParseError("bad formal-iso line %r" % " ".join(w),
                                 line=ln)
        phi_d = [Matrix.identity(field, d.dim)]
        phi_e = [Matrix.identity(field, e.dim)]
        for n in range(order):
            phi_d.append(Matrix(field, d.dim, d.dim, phid[n]))
            phi_e.append(Matrix(field, e.dim, e.dim, phie[n]))
        model.isos[name] = FormalIso(psi, phi_d, phi_e)

    def _header(self, model, kind, name, lineno):
        """The block body with its 'morphism' and 'order' lines read."""
        psi = None
        order = None
        body = self._block(lineno)
        for ln, w in body:
            if w[0] == "morphism" and len(w) == 2:
                psi = self._resolve(model.morphisms, w[1], ln)
            elif w[0] == "order" and len(w) == 2:
                order = _want_int(w[1], ln, "order")
                if order < 0:
                    raise ParseError("negative order %d" % order, line=ln)
        if psi is None or order is None:
            raise ParseError("%s %s needs morphism and order lines"
                             % (kind, name), line=lineno)
        return body, psi, order

    @staticmethod
    def _fresh(table, kind, name, lineno):
        if name in table:
            raise ParseError("%s %r declared twice" % (kind, name),
                             line=lineno)
        return name

    @staticmethod
    def _resolve(table, name, lineno):
        if name not in table:
            raise UnknownReference("unknown reference %r" % name,
                                   line=lineno)
        return table[name]


def parse_model(text, field_override=None):
    """Parse a model file; raises ParseError and friends on bad input."""
    return _Parser(text, field_override=field_override).parse()


def validate_model(model):
    """Axiom-check every object; returns [(kind, name, Report)]."""
    results = []
    for name, d in model.dialgebras.items():
        results.append(("dialgebra", name, check_dialgebra(d)))
    for name, psi in model.morphisms.items():
        results.append(("morphism", name, check_morphism(psi)))
    return results


def serialize_model(model):
    """Deterministic text form; reparsing yields an identical model."""
    f = model.field
    fmt = f.format
    z = f.zero
    out = ["field %s" % f.name, ""]
    for name, d in model.dialgebras.items():
        out.append("dialgebra %s" % name)
        out.append("  dim %d" % d.dim)
        out.append("  basis %s" % " ".join(d.basis_names))
        for which, tensor in (("left", d.left), ("right", d.right)):
            for i in range(d.dim):
                for j in range(d.dim):
                    for k in range(d.dim):
                        if tensor[i][j][k] != z:
                            out.append("  %s %d %d %d %s"
                                       % (which, i, j, k,
                                          fmt(tensor[i][j][k])))
        out.append("end")
        out.append("")
    for name, psi in model.morphisms.items():
        out.append("morphism %s" % name)
        out.append("  source %s" % psi.source.name)
        out.append("  target %s" % psi.target.name)
        for r in range(psi.target.dim):
            for c in range(psi.source.dim):
                if psi.matrix[r, c] != z:
                    out.append("  entry %d %d %s"
                               % (r, c, fmt(psi.matrix[r, c])))
        out.append("end")
        out.append("")
    for name, th in model.deformations.items():
        out.append("deformation %s" % name)
        out.append("  morphism %s" % th.psi.name)
        out.append("  order %d" % th.order)
        for tag, fs, dialg in (("fD", th.fd, th.psi.source),
                               ("fE", th.fe, th.psi.target)):
            for n in range(1, th.order + 1):
                for ti, lab in ((0, "l"), (1, "r")):
                    for i in range(dialg.dim):
                        for j in range(dialg.dim):
                            v = fs[n].value(ti, (i, j))
                            for k in range(dialg.dim):
                                if v[k] != z:
                                    out.append("  %s %d %s %d %d %d %s"
                                               % (tag, n, lab, i, j, k,
                                                  fmt(v[k])))
        for n in range(1, th.order + 1):
            m = th.psis[n]
            for r in range(m.rows):
                for c in range(m.cols):
                    if m[r, c] != z:
                        out.append("  psi %d %d %d %s"
                                   % (n, r, c, fmt(m[r, c])))
        out.append("end")
        out.append("")
    for name, iso in model.isos.items():
        out.append("formal-iso %s" % name)
        out.append("  morphism %s" % iso.psi.name)
        out.append("  order %d" % iso.order)
        for tag, series in (("phiD", iso.phi_d), ("phiE", iso.phi_e)):
            for n in range(1, iso.order + 1):
                m = series[n]
                for r in range(m.rows):
                    for c in range(m.cols):
                        if m[r, c] != z:
                            out.append("  %s %d %d %d %s"
                                       % (tag, n, r, c, fmt(m[r, c])))
        out.append("end")
        out.append("")
    return "\n".join(out)
