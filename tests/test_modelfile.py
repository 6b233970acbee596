import random

import pytest
from hypothesis import given, settings, strategies as st

from diadeform.cochain import Cochain, product_cochain
from diadeform.deformation import FormalIso, TruncatedDeformation
from diadeform.dialgebra import Dialgebra, DialgebraMorphism
from diadeform.errors import (BadScalar, ParseError, UnknownReference,
                              WorkbenchError)
from diadeform.fields import PrimeField, QQ
from diadeform.linalg import Matrix
from diadeform.modelfile import (ModelFile, parse_model, serialize_model,
                                 validate_model)
from diadeform.models import bundled_model_names, bundled_model_text


MINIMAL = """
field rationals
dialgebra Z
  dim 1
end
"""

MULT = """
field rationals
dialgebra K
  dim 1
  left 0 0 0 1/1
  right 0 0 0 1
end
"""


def test_minimal_zero_model():
    model = parse_model(MINIMAL)
    d = model.dialgebras["Z"]
    assert d.dim == 1
    assert d.left[0][0] == (QQ.zero,)


def test_mult_model():
    model = parse_model(MULT)
    d = model.dialgebras["K"]
    assert d.left[0][0] == (QQ.one,)
    assert d.right[0][0] == (QQ.one,)


def test_unknown_reference():
    text = MINIMAL + """
morphism f
  source Z
  target W
end
"""
    with pytest.raises(UnknownReference) as exc:
        parse_model(text)
    assert "W" in str(exc.value)


def test_bad_scalar():
    with pytest.raises(BadScalar):
        parse_model("""
field rationals
dialgebra D
  dim 1
  left 0 0 0 oops
end
""")


def test_parse_error_reports_line():
    with pytest.raises(ParseError) as exc:
        parse_model("""
field rationals
dialgebra D
  dim 1
  wibble 3
end
""")
    assert exc.value.line is not None


def test_comments_and_blank_lines():
    model = parse_model("# leading comment\n\n" + MINIMAL + "\n# trailing\n")
    assert "Z" in model.dialgebras


def test_field_override():
    model = parse_model(MULT, field_override=PrimeField(5))
    assert model.field == PrimeField(5)
    d = model.dialgebras["K"]
    assert d.field == PrimeField(5)


def test_gf_field_declaration():
    model = parse_model("""
field gf 7
dialgebra D
  dim 2
end
""")
    assert model.field == PrimeField(7)


def test_roundtrip_bundled_models():
    # serialize o parse is the identity on serialized text
    for name in bundled_model_names():
        model = parse_model(bundled_model_text(name))
        text = serialize_model(model)
        again = serialize_model(parse_model(text))
        assert text == again, name


def test_roundtrip_preserves_contents():
    for name in bundled_model_names():
        model = parse_model(bundled_model_text(name))
        reparsed = parse_model(serialize_model(model))
        assert set(model.dialgebras) == set(reparsed.dialgebras)
        assert set(model.morphisms) == set(reparsed.morphisms)
        assert set(model.deformations) == set(reparsed.deformations)
        for dname, d in model.dialgebras.items():
            assert reparsed.dialgebras[dname] == d
        for mname, psi in model.morphisms.items():
            assert reparsed.morphisms[mname].matrix == psi.matrix
        for tname, th in model.deformations.items():
            other = reparsed.deformations[tname]
            assert th.fd == other.fd
            assert th.fe == other.fe
            assert th.psis == other.psis


def test_validate_model():
    for name in bundled_model_names():
        model = parse_model(bundled_model_text(name))
        results = validate_model(model)
        assert results
        assert all(report.valid for _, _, report in results), name


def test_validate_flags_bad_dialgebra():
    model = parse_model("""
field rationals
dialgebra B
  dim 1
  left 0 0 0 1
end
""")
    results = validate_model(model)
    assert any(not report.valid for _, _, report in results)


def test_deformation_entries(bundled_models):
    th = bundled_models["zero1"].deformations["theta_blocked"]
    assert th.order == 1
    f = th.field
    assert th.fd[1].value(0, (0, 0)) == (f.one,)
    assert th.fd[1].value(1, (0, 0)) == (-f.one,)
    assert th.psis[1].is_zero()


def test_formal_iso_parsed(bundled_models):
    model = bundled_models["mult1"]
    iso = model.isos["scale"]
    assert iso.order == 1
    assert iso.phi_d[1][0, 0] == QQ.one
    assert iso.psi is model.morphisms["id"]


def test_formal_iso_keeps_its_morphism():
    # a morphism of the same shape declared first must not capture the iso
    text = bundled_model_text("mult1")
    id_block = text[text.index("morphism id"):text.index("morphism zero")]
    zero_block = text[text.index("morphism zero"):
                      text.index("deformation oneplus")]
    swapped = text.replace(id_block + zero_block, zero_block + id_block)
    assert swapped.index("morphism zero") < swapped.index("morphism id")
    out = serialize_model(parse_model(swapped))
    iso_block = out[out.index("formal-iso scale"):]
    assert iso_block.splitlines()[1] == "  morphism id"
    assert serialize_model(parse_model(out)) == out


def _parse_failure(text):
    with pytest.raises(ParseError) as exc:
        parse_model(text)
    return exc.value.line, str(exc.value)


def _line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def test_basis_length_must_match_dim():
    for basis in ("e", "e f g"):
        text = "field rationals\ndialgebra D\n  dim 2\n  basis %s\nend\n" % basis
        line, message = _parse_failure(text)
        assert line == 4 and "basis" in message


def test_duplicate_names_rejected():
    text = bundled_model_text("mult1")
    for header in ("dialgebra K", "morphism id", "deformation oneplus",
                   "formal-iso scale"):
        start = text.index(header + "\n")
        again = text + "\n" + text[start:text.index("end\n", start) + 4]
        line, message = _parse_failure(again)
        assert line == _line_of(again, again.rindex(header + "\n")), header
        assert "declared twice" in message, header


def test_negative_order_rejected():
    text = bundled_model_text("mult1")
    for header in ("deformation oneplus", "formal-iso scale"):
        at = text.index("  order 1\n", text.index(header))
        bad = text[:at] + "  order -1\n" + text[at + len("  order 1\n"):]
        line, message = _parse_failure(bad)
        assert line == _line_of(bad, at), header
        assert "order" in message, header


def _insert_after(text, anchor, line, start=0):
    """text with ``line`` added after the first line ``anchor`` found
    at or after ``start``, and the 1-based number of the added line."""
    at = text.index(anchor + "\n", start) + len(anchor) + 1
    return text[:at] + line + "\n" + text[at:], _line_of(text, at)


def test_extra_header_arguments_rejected():
    text = bundled_model_text("mult1")
    for header in ("deformation oneplus", "formal-iso scale"):
        start = text.index(header)
        for anchor, extra in (("  order 1", "  order 5 6"),
                              ("  morphism id", "  morphism id extra")):
            # beside the valid line
            bad, line = _insert_after(text, anchor, extra, start)
            assert _parse_failure(bad)[0] == line, (header, extra)
            # in place of it
            at = text.index(anchor + "\n", start)
            bad = text[:at] + extra + text[at + len(anchor):]
            assert _parse_failure(bad)[0] == _line_of(bad, at), (header, extra)


def test_repeated_header_line_rejected():
    text = bundled_model_text("mult1")
    cases = [("dialgebra K", "  dim 1"), ("dialgebra K", "  basis e"),
             ("morphism id", "  source K"), ("morphism id", "  target K"),
             ("deformation oneplus", "  morphism id"),
             ("deformation oneplus", "  order 1"),
             ("formal-iso scale", "  morphism id"),
             ("formal-iso scale", "  order 1")]
    for header, anchor in cases:
        bad, line = _insert_after(text, anchor, anchor, text.index(header))
        got, message = _parse_failure(bad)
        assert got == line and "repeated" in message, (header, anchor)
    # the first value no longer silently loses to the second
    line, _ = _parse_failure("field rationals\ndialgebra D\n  dim 1\n"
                             "  dim 2\nend\n")
    assert line == 4


def test_repeated_coefficient_line_rejected():
    text = bundled_model_text("mult1")
    cases = [("dialgebra K", "  left 0 0 0 1", "  left 0 0 0 2"),
             ("morphism id", "  entry 0 0 1", "  entry 0 0 2"),
             ("deformation oneplus", "  fD 1 r 0 0 0 1", "  fD 1 r 0 0 0 3"),
             ("formal-iso scale", "  phiE 1 0 0 1", "  phiE 1 0 0 1")]
    for header, anchor, again in cases:
        bad, line = _insert_after(text, anchor, again, text.index(header))
        got, message = _parse_failure(bad)
        assert got == line and "repeated" in message, (header, again)
    psi_line = "  psi 1 0 0 1"
    bad, _ = _insert_after(bundled_model_text("zero1"), psi_line, psi_line)
    assert "repeated" in _parse_failure(bad)[1]


def test_second_field_line_rejected():
    for second in ("field rationals", "field gf 7"):
        line, message = _parse_failure(
            "field rationals\n%s\ndialgebra D\n  dim 1\nend\n" % second)
        assert line == 2 and "field" in message


def test_integers_are_ascii_digits():
    # dim, index and order tokens are [+-]?[0-9]+: int() alone would also
    # read "1_0" as 10 and a non-ASCII digit as its value
    text = bundled_model_text("mult1")
    for anchor, spelled in (("  dim 1", "  dim %s"),
                            ("  left 0 0 0 1", "  left 0 %s 0 1"),
                            ("  fD 1 r 0 0 0 1", "  fD %s r 0 0 0 1"),
                            ("  order 1", "  order %s")):
        at = text.index(anchor + "\n")
        for token in ("1_0", "\u0662", "1e1"):
            bad = (text[:at] + spelled % token + text[at + len(anchor):])
            line, message = _parse_failure(bad)
            assert line == _line_of(bad, at), (anchor, token)
            assert message.endswith("%r" % token), (anchor, token)
        for token in ("+1", "01"):
            if anchor == "  left 0 0 0 1":
                token = token.replace("1", "0")
            good = text[:at] + spelled % token + text[at + len(anchor):]
            assert serialize_model(parse_model(good)) \
                == serialize_model(parse_model(text)), (anchor, token)


def test_sizes_checked_before_allocation():
    from diadeform.deformation import ORDER_CAP
    from diadeform.modelfile import MAX_DIM
    for dim in (100000, MAX_DIM + 1, 0, -3):
        line, message = _parse_failure(
            "field rationals\ndialgebra D\n  dim %d\nend\n" % dim)
        assert line == 3 and "dim" in message, dim
    assert parse_model("field rationals\ndialgebra D\n  dim %d\nend\n"
                       % MAX_DIM).dialgebras["D"].dim == MAX_DIM
    text = bundled_model_text("mult1")
    for header in ("deformation oneplus", "formal-iso scale"):
        at = text.index("  order 1\n", text.index(header))
        for order in (1000000000, ORDER_CAP + 1):
            bad = (text[:at] + "  order %d\n" % order
                   + text[at + len("  order 1\n"):])
            line, message = _parse_failure(bad)
            assert line == _line_of(bad, at) and "order" in message, header
        ok = (text[:at] + "  order %d\n" % ORDER_CAP
              + text[at + len("  order 1\n"):])
        assert parse_model(ok)


# -- round trip on random models -------------------------------------------


def _random_model(field, rng):
    """Sparse random structures; the parser checks no axioms, so neither
    does this."""
    def scalar():
        if rng.random() < 0.6:
            return field.zero
        return field.parse("%d/%d" % (rng.randint(-5, 5), rng.randint(1, 4)))

    def values(n):
        return [scalar() for _ in range(n)]

    def matrix(rows, cols):
        return Matrix(field, rows, cols,
                      [values(cols) for _ in range(rows)])

    def names(n):
        return ["%s%d" % (rng.choice("abxyz"), i) for i in range(n)]

    model = ModelFile(field)
    d, e = (rng.randint(1, 3) for _ in range(2))
    for name, n in (("D", d), ("E", e)):
        blocks = [[values(n) for _ in range(n)] for _ in range(2 * n)]
        model.dialgebras[name] = Dialgebra(n, field, blocks[:n], blocks[n:],
                                           basis_names=names(n), name=name)
    src, tgt = model.dialgebras["D"], model.dialgebras["E"]
    psi = DialgebraMorphism(src, tgt, matrix(e, d), name="psi")
    model.morphisms["psi"] = psi
    model.morphisms["back"] = DialgebraMorphism(tgt, src, matrix(d, e),
                                                name="back")
    order = rng.randint(0, 3)
    fd, fe = ([base] + [Cochain(2, base.dialgebra, base.rep,
                                values(len(base.coeffs)))
                        for _ in range(order)]
              for base in (product_cochain(src), product_cochain(tgt)))
    model.deformations["theta"] = TruncatedDeformation(
        psi, fd, fe, [psi.matrix] + [matrix(e, d) for _ in range(order)])
    iso_order = rng.randint(0, 3)
    model.isos["phi"] = FormalIso(
        psi, *([Matrix.identity(field, n)]
               + [matrix(n, n) for _ in range(iso_order)] for n in (d, e)))
    return model


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from([QQ, PrimeField(7)]))
def test_roundtrip_random_models(seed, field):
    model = _random_model(field, random.Random(seed))
    text = serialize_model(model)
    again = parse_model(text)
    assert again.field == field
    assert serialize_model(again) == text
    for name, d in model.dialgebras.items():
        other = again.dialgebras[name]
        assert (other.left, other.right) == (d.left, d.right)
        assert other.basis_names == d.basis_names
    for name, psi in model.morphisms.items():
        other = again.morphisms[name]
        assert other.matrix == psi.matrix
        assert (other.source.name, other.target.name) == (
            psi.source.name, psi.target.name)
    for name, th in model.deformations.items():
        other = again.deformations[name]
        assert (other.fd, other.fe, other.psis) == (th.fd, th.fe, th.psis)
        assert other.psi.name == th.psi.name
    for name, iso in model.isos.items():
        other = again.isos[name]
        assert (other.phi_d, other.phi_e) == (iso.phi_d, iso.phi_e)
        assert other.psi.name == iso.psi.name
    tables = ("dialgebras", "morphisms", "deformations", "isos")
    assert ([list(getattr(again, t)) for t in tables]
            == [list(getattr(model, t)) for t in tables])


# -- parser fuzz -------------------------------------------------------------

VOCABULARY = ("-1", "0", "7", "1000000000000", "x", "1/0", "1e5", "0.5",
              "1_0", "\u0662", "1e1",
              "l", "r", "end",
              "field", "rationals", "gf", "dialgebra", "morphism",
              "deformation", "formal-iso", "dim", "basis", "source", "target",
              "order", "left", "right", "entry", "fD", "fE", "psi", "phiD",
              "phiE")


def _mutate(text, steps):
    """Apply (kind, a, b, word) mutations to the text's tokens."""
    lines = [line.split() for line in text.splitlines()]
    for kind, a, b, word in steps:
        slots = [(i, j) for i, words in enumerate(lines)
                 for j in range(len(words))]
        if not slots:
            break
        i, j = slots[a % len(slots)]
        if kind == "delete":
            del lines[i][j]
        elif kind == "duplicate":
            lines.insert(i, list(lines[i]))
        elif kind == "swap":
            k, m = slots[b % len(slots)]
            lines[i][j], lines[k][m] = lines[k][m], lines[i][j]
        else:
            lines[i][j] = word
    return "\n".join(" ".join(words) for words in lines) + "\n"


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(bundled_model_names()),
       st.lists(st.tuples(st.sampled_from(["delete", "duplicate", "swap",
                                           "replace"]),
                          st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
                          st.sampled_from(VOCABULARY)),
                min_size=1, max_size=4),
       st.booleans())
def test_parser_fuzz_raises_only_workbench_errors(name, steps, over_gf):
    text = _mutate(bundled_model_text(name), steps)
    try:
        model = parse_model(text,
                            field_override=PrimeField(7) if over_gf else None)
    except WorkbenchError:
        return
    assert isinstance(model, ModelFile)
    assert serialize_model(parse_model(serialize_model(model))) \
        == serialize_model(model)
