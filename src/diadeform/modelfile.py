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
isomorphism is the identity.  '#' starts a comment.  A header line or a
coefficient entry given twice is an error, as is a second 'field' line;
'dim' is at most MAX_DIM and 'order' at most ORDER_CAP, and both are
checked before anything is allocated.

``SECTIONS`` declares each block once: its header keys, the index axes of
each coefficient keyword, and how an object's flat coefficient arrays are
read off it and built back into it.  The parser and the serializer both
run on that table.  An entry line names one position of a flat array in
row-major order over its axes, and the fD/fE arrays of one order are the
coordinates of a product 2-cochain ([21] then [12], then i, j, k).
"""

import functools
import itertools
import math
from collections import namedtuple

from .cochain import Cochain, product_cochain
from .dialgebra import (Dialgebra, DialgebraMorphism, check_dialgebra,
                        check_morphism)
from .deformation import (ORDER_CAP, FormalIso, TruncatedDeformation,
                          _rows)
from .errors import BadScalar, ParseError, UnknownReference
from .fields import INTEGER_TOKEN, parse_field
from .linalg import Matrix

MAX_DIM = 16


class ModelFile:
    """A parsed model file: its field and its objects by kind, each a dict
    from name to object in file order.  A dict not given starts empty,
    fresh for each model."""

    _FIELDS = ("field", "dialgebras", "morphisms", "deformations", "isos")

    def __init__(self, field, dialgebras=None, morphisms=None,
                 deformations=None, isos=None):
        self.field = field
        self.dialgebras = {} if dialgebras is None else dialgebras
        self.morphisms = {} if morphisms is None else morphisms
        self.deformations = {} if deformations is None else deformations
        self.isos = {} if isos is None else isos

    def _values(self):
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None  # mutable

    def __repr__(self):
        return "ModelFile(%s)" % ", ".join(
            "%s=%r" % item for item in zip(self._FIELDS, self._values()))


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
    # "+1" and "01" are read, but not "1_0", "1e1" or non-ASCII digits
    if INTEGER_TOKEN.fullmatch(token):
        try:
            return int(token)
        except ValueError:  # more digits than int() converts
            pass
    raise ParseError("bad %s %r" % (what, token), line=lineno)


# -- the layout table ----------------------------------------------------

# A header key: how its arguments are read and written, how many there are.
_Key = namedtuple("_Key", "read write arity required",
                  defaults=(lambda header: 1, True))

# A block: the ModelFile dict it fills, its header keys in file order,
# (keyword, axes) of its coefficients given the header, the object built
# from (field, name, header, flat arrays), and (header, flat arrays) read
# off an object.
_Section = namedtuple("_Section", "table keys layout build read")


def _count(what, lo, hi):
    def read(model, args, ln):
        n = _want_int(args[0], ln, what)
        if not lo <= n <= hi:
            raise ParseError("%s %d out of %d..%d" % (what, n, lo, hi),
                             line=ln)
        return n
    return _Key(read, str)


def _ref(table):
    def read(model, args, ln):
        objects = getattr(model, table)
        if args[0] not in objects:
            raise UnknownReference("unknown reference %r" % args[0], line=ln)
        return objects[args[0]]
    return _Key(read, lambda obj: obj.name)


# An axis is (what, {token: position}); the tokens are in file order.
_LR = ("product", {"l": 0, "r": 1})


@functools.cache
def _index(n):
    return ("index", {str(i): i for i in range(n)})


@functools.cache
def _order(n):
    return ("order", {str(i + 1): i for i in range(n)})


def _tensor_entries(t):
    return [x for block in t for row in block for x in row]


def _cochain_entries(cs):
    return [x for c in cs for x in c.coeffs]


def _matrix_entries(ms):
    return [x for m in ms for row in m.dense_rows() for x in row]


def _matrices(field, rows, cols, flat):
    """The rows x cols matrices filled in turn from a flat array."""
    return [Matrix.from_columns(field, rows, cols,
                                {j: dict(enumerate(chunk[j::cols]))
                                 for j in range(cols)})
            for chunk in _rows(flat, rows * cols)]


def _build_dialgebra(field, name, h, flats):
    n = h["dim"]
    left, right = (_rows(_rows(flat, n), n) for flat in flats)
    return Dialgebra(n, field, left, right, basis_names=h.get("basis"),
                     name=name)


def _deformation_layout(h):
    psi, n = h["morphism"], _order(h["order"])
    d, e = _index(psi.source.dim), _index(psi.target.dim)
    return (("fD", (n, _LR, d, d, d)), ("fE", (n, _LR, e, e, e)),
            ("psi", (n, e, d)))


def _build_deformation(field, name, h, flats):
    psi = h["morphism"]
    fd, fe = ([base] + [Cochain(2, base.dialgebra, base.rep, chunk)
                        for chunk in _rows(flat, len(base.coeffs))]
              for base, flat in zip((product_cochain(psi.source),
                                     product_cochain(psi.target)), flats))
    return TruncatedDeformation(psi, fd, fe, [psi.matrix] + _matrices(
        field, psi.target.dim, psi.source.dim, flats[2]))


def _iso_layout(h):
    psi, n = h["morphism"], _order(h["order"])
    d, e = _index(psi.source.dim), _index(psi.target.dim)
    return (("phiD", (n, d, d)), ("phiE", (n, e, e)))


def _build_iso(field, name, h, flats):
    psi = h["morphism"]
    return FormalIso(psi, *([Matrix.identity(field, n)]
                            + _matrices(field, n, n, flat)
                            for n, flat in zip((psi.source.dim,
                                                psi.target.dim), flats)))


_SERIES_KEYS = {"morphism": _ref("morphisms"),
                "order": _count("order", 0, ORDER_CAP)}

SECTIONS = {
    "dialgebra": _Section(
        "dialgebras",
        {"dim": _count("dim", 1, MAX_DIM),
         "basis": _Key(lambda model, args, ln: tuple(args), " ".join,
                       arity=lambda h: h["dim"], required=False)},
        lambda h: (("left", (_index(h["dim"]),) * 3),
                   ("right", (_index(h["dim"]),) * 3)),
        _build_dialgebra,
        lambda d: ({"dim": d.dim, "basis": d.basis_names},
                   (_tensor_entries(d.left), _tensor_entries(d.right)))),
    "morphism": _Section(
        "morphisms",
        {"source": _ref("dialgebras"), "target": _ref("dialgebras")},
        lambda h: (("entry", (_index(h["target"].dim),
                              _index(h["source"].dim))),),
        lambda field, name, h, flats: DialgebraMorphism(
            h["source"], h["target"],
            _matrices(field, h["target"].dim, h["source"].dim, flats[0])[0],
            name=name),
        lambda psi: ({"source": psi.source, "target": psi.target},
                     (_matrix_entries([psi.matrix]),))),
    "deformation": _Section(
        "deformations", _SERIES_KEYS, _deformation_layout,
        _build_deformation,
        lambda th: ({"morphism": th.psi, "order": th.order},
                    (_cochain_entries(th.fd[1:]), _cochain_entries(th.fe[1:]),
                     _matrix_entries(th.psis[1:])))),
    "formal-iso": _Section(
        "isos", _SERIES_KEYS, _iso_layout, _build_iso,
        lambda iso: ({"morphism": iso.psi, "order": iso.order},
                     (_matrix_entries(iso.phi_d[1:]),
                      _matrix_entries(iso.phi_e[1:])))),
}


def _read_entry(field, axes, words, ln):
    """(flat position, value) of one coefficient line."""
    if len(words) != len(axes) + 2:
        raise ParseError("expected: %s %s <value>" % (
            words[0], " ".join("<%s>" % what for what, _ in axes)), line=ln)
    pos = 0
    for (what, values), token in zip(axes, words[1:]):
        i = values.get(token)
        if i is None:  # also take integers spelled like "+1" or "01"
            i = values.get(str(_want_int(token, ln, what)))
            if i is None:
                raise ParseError("%s %s out of range" % (what, token),
                                 line=ln)
        pos = pos * len(values) + i
    return pos, _parse_scalar(field, words[-1], ln)


def _write_entries(out, field, keyword, axes, flat):
    """One line per nonzero entry of a flat array, in flat order."""
    z = field.zero
    for key, v in zip(itertools.product(*(values for _, values in axes)),
                      flat):
        if v != z:
            out.append("  %s %s %s" % (keyword, " ".join(key),
                                       field.format(v)))


def _block(lines, lineno):
    """Lines until the matching 'end'."""
    for ln, words in lines:
        if words == ["end"]:
            return
        yield ln, words
    raise ParseError("unterminated block", line=lineno)


def _parse_section(model, kind, words, lineno, lines):
    section = SECTIONS[kind]
    objects = getattr(model, section.table)
    if len(words) != 2:
        raise ParseError("expected: %s <name>" % kind, line=lineno)
    name = words[1]
    if name in objects:
        raise ParseError("%s %r declared twice" % (kind, name), line=lineno)
    found, entries = {}, []
    for ln, w in _block(lines, lineno):
        if w[0] not in section.keys:
            entries.append((ln, w))
        elif w[0] in found:
            raise ParseError("repeated %r line" % w[0], line=ln)
        else:
            found[w[0]] = ln, w[1:]
    header = {}
    for key, spec in section.keys.items():
        if key not in found:
            if spec.required:
                raise ParseError("%s %s lacks a %r line" % (kind, name, key),
                                 line=lineno)
            continue
        ln, args = found[key]
        if len(args) != spec.arity(header):
            raise ParseError("%r takes %d value(s), got %d"
                             % (key, spec.arity(header), len(args)), line=ln)
        header[key] = spec.read(model, args, ln)
    layout = dict(section.layout(header))
    z = model.field.zero
    flats = {keyword: [z] * math.prod(len(values) for _, values in axes)
             for keyword, axes in layout.items()}
    seen = set()
    for ln, w in entries:
        if w[0] not in layout:
            raise ParseError("bad %s line %r" % (kind, " ".join(w)), line=ln)
        pos, value = _read_entry(model.field, layout[w[0]], w, ln)
        if (w[0], pos) in seen:
            raise ParseError("repeated %s entry" % w[0], line=ln)
        seen.add((w[0], pos))
        flats[w[0]][pos] = value
    objects[name] = section.build(model.field, name, header,
                                  list(flats.values()))


def parse_model(text, field_override=None):
    """Parse a model file; raises ParseError and friends on bad input."""
    lines = _tokenize(text)
    field, declared, model = field_override, None, None
    for lineno, words in lines:
        head = words[0]
        if head == "field":
            if declared is not None:
                raise ParseError("field declared twice", line=lineno)
            declared = parse_field(" ".join(words[1:]))
            if field is None:
                field = declared
            continue
        if field is None:
            raise ParseError("a 'field' line must come first", line=lineno)
        if model is None:
            model = ModelFile(field)
        if head not in SECTIONS:
            raise ParseError("unknown section %r" % head, line=lineno)
        _parse_section(model, head, words, lineno, lines)
    if model is None:
        if field is None:
            raise ParseError("empty model file", line=0)
        model = ModelFile(field)
    return model


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
    out = ["field %s" % f.name, ""]
    for kind, section in SECTIONS.items():
        for name, obj in getattr(model, section.table).items():
            header, flats = section.read(obj)
            out.append("%s %s" % (kind, name))
            out.extend("  %s %s" % (key, spec.write(header[key]))
                       for key, spec in section.keys.items())
            for (keyword, axes), flat in zip(section.layout(header), flats):
                _write_entries(out, f, keyword, axes, flat)
            out += ["end", ""]
    return "\n".join(out)
