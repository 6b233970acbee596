import pytest

from diadeform.errors import (BadScalar, ParseError, UnknownReference)
from diadeform.fields import PrimeField, QQ
from diadeform.modelfile import parse_model, serialize_model, validate_model
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
