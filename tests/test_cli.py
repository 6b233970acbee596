import io
import itertools
import os
import pathlib
import random
import shlex
import subprocess
import sys

import pytest

import diadeform
from diadeform.cli import _record_value, _whitespace, build_parser, main
from diadeform.cochain import cohomology_dim
from diadeform.deformation import extend_to_order, rigidity_probe
from diadeform.dialgebra import adjoint_rep
from diadeform.errors import WorkbenchError
from diadeform.models import bundled_model_text


@pytest.fixture
def model_path(tmp_path):
    def write(name):
        p = tmp_path / ("%s.dl" % name)
        p.write_text(bundled_model_text(name))
        return str(p)
    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def is_input_error(code, out, err):
    """Exit 2, empty stdout and a one-line "error: " message."""
    return (code, out) == (2, "") and err.startswith("error: ") \
        and err.count("\n") == 1


def test_check_valid_model(capsys, model_path):
    code, out, _ = run(capsys, "check", model_path("zero1"))
    assert code == 0
    assert "PASS dialgebra Z" in out
    assert "PASS morphism id" in out


def test_check_invalid_model(capsys, tmp_path):
    p = tmp_path / "bad.dl"
    for value, first in (("1", "(2, 0, 0, 0, (1), (0))"),
                         ("1/2", "(2, 0, 0, 0, (1/4), (0))")):
        p.write_text("field rationals\ndialgebra B\n  dim 1\n"
                     "  left 0 0 0 %s\nend\n" % value)
        code, out, _ = run(capsys, "check", str(p))
        assert code == 1
        # scalars print through the field's format, not as Python reprs
        assert out == "FAIL dialgebra B  (1 violation(s); first: %s)\n" % first


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "check", "/no/such/model.dl")
    assert code == 2
    assert "error" in err


def test_unreadable_model_is_input_error(capsys, tmp_path):
    bad = tmp_path / "latin1.dl"
    bad.write_bytes(b"field rationals\n# caf\xe9\n")
    for path in (tmp_path, bad):  # a directory, then invalid UTF-8
        assert is_input_error(*run(capsys, "check", str(path)))


def test_unknown_name_is_input_error(capsys, model_path):
    code, _, err = run(capsys, "cohomology", model_path("zero2"),
                       "--object", "nope")
    assert code == 2
    assert "nope" in err


def test_ambiguous_object_is_input_error(capsys, model_path):
    code, _, err = run(capsys, "cohomology", model_path("zero2"))
    assert code == 2


def test_empty_object_table_is_input_error(capsys, model_path, monkeypatch):
    # a model that declares none of the command's kind says so; there is
    # no flag to pick one with
    for source, text in ((model_path("zero2"), None), ("-", "field gf 7\n")):
        if text is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run(capsys, "deform-verify", source)
        assert is_input_error(code, out, err)
        assert err == "error: model declares no deformations\n"


def test_trees_output(capsys):
    code, out, _ = run(capsys, "trees", "--degree", "3")
    assert code == 0
    assert "5 trees" in out
    for name in ("[321]", "[213]", "[131]", "[312]", "[123]"):
        assert name in out


def test_cohomology_command(capsys, model_path):
    code, out, _ = run(capsys, "cohomology", model_path("mult1"),
                       "--degree", "2")
    assert code == 0
    assert "HY^2(K,K) = 0" in out
    code, out, _ = run(capsys, "cohomology", model_path("zero1"),
                       "--degree", "2")
    assert "HY^2(Z,Z) = 2" in out


def test_mor_cohomology_command(capsys, model_path):
    code, out, _ = run(capsys, "mor-cohomology", model_path("zero1"),
                       "--degree", "2")
    assert code == 0
    assert "HY^2(id,id) = 2" in out


def test_deform_verify(capsys, model_path):
    code, out, _ = run(capsys, "deform-verify", model_path("zero1"),
                       "--deformation", "theta_eq")
    assert code == 0
    assert "PASS" in out


def test_obstruction_blocked(capsys, model_path):
    code, out, _ = run(capsys, "extend", model_path("zero1"),
                       "--deformation", "theta_blocked", "--to", "2")
    assert code == 1
    assert "not a coboundary" in out
    assert "[213]" in out and "[312]" in out


def test_extend_succeeds(capsys, model_path):
    code, out, _ = run(capsys, "extend", model_path("zero1"),
                       "--deformation", "theta_eq", "--to", "3")
    assert code == 0
    assert "reached order 3 of 3" in out


def test_trivialize(capsys, model_path):
    code, out, _ = run(capsys, "trivialize", model_path("mult1"),
                       "--deformation", "oneplus")
    assert code == 0
    assert "trivialized" in out


def _mult1_variant(tmp_path, old, new):
    p = tmp_path / "variant.dl"
    text = bundled_model_text("mult1")
    assert old in text
    p.write_text(text.replace(old, new))
    return str(p)


def test_trivialize_rejects_an_invalid_deformation(capsys, tmp_path):
    # oneplus with an order-2 left product of 5 on D: the leading
    # coefficient is trivializable, but axiom 2 fails at order 2
    path = _mult1_variant(tmp_path, "  order 1\n  fD 1 l 0 0 0 1\n",
                          "  order 2\n  fD 1 l 0 0 0 1\n  fD 2 l 0 0 0 5\n")
    for cmd in ("trivialize", "obstruction", "extend"):
        assert run(capsys, cmd, path, "--deformation", "oneplus") == (
            2, "", "error: axiom 2 for f_D at order 2, triple (0, 0, 0):"
                   " (11) != (6)\n"), cmd


def test_infinitesimal_rejects_an_invalid_deformation(capsys, tmp_path):
    # the same deformation: its order-1 coefficient alone is a cocycle
    path = _mult1_variant(tmp_path, "  order 1\n  fD 1 l 0 0 0 1\n",
                          "  order 2\n  fD 1 l 0 0 0 1\n  fD 2 l 0 0 0 5\n")
    assert run(capsys, "infinitesimal", path, "--deformation", "oneplus") == (
        2, "", "error: axiom 2 for f_D at order 2, triple (0, 0, 0):"
               " (11) != (6)\n")


@pytest.mark.parametrize("argv,old,new", [
    # unchecked, this object would give HY^1 = -1
    (["cohomology", "--object", "K", "--degree", "1"],
     "  right 0 0 0 1\n", ""),
    (["mor-cohomology", "--morphism", "id", "--degree", "3"],
     "  entry 0 0 1\n", "  entry 0 0 2\n"),
])
def test_cohomology_of_an_invalid_object_is_input_error(capsys, tmp_path,
                                                        argv, old, new):
    path = _mult1_variant(tmp_path, old, new)
    assert is_input_error(*run(capsys, argv[0], path, *argv[1:]))


def test_rigidity_probe(capsys, model_path):
    code, out, _ = run(capsys, "rigidity-probe", model_path("mult1"),
                       "--morphism", "id", "--order", "3")
    assert code == 0
    assert "rigid" in out


def test_rigidity_probe_order_cap(capsys, model_path):
    p = model_path("mult1")
    code, out, _ = run(capsys, "rigidity-probe", p, "--morphism", "id",
                       "--order", "6")
    assert code == 0
    assert "to order 6" in out
    code, out, err = run(capsys, "rigidity-probe", p, "--morphism", "id",
                         "--order", "7")
    assert code == 2
    assert out == ""
    assert err == "error: sample order 7 exceeds cap 6\n"


def test_rigidity_probe_rejects_an_invalid_source(capsys, tmp_path):
    # the golden bad_axiom dialgebra with its identity map
    path = tmp_path / "bad.dl"
    path.write_text("field rationals\ndialgebra B\n  dim 1\n"
                    "  left 0 0 0 1\nend\nmorphism id\n  source B\n"
                    "  target B\n  entry 0 0 1\nend\n")
    result = run(capsys, "rigidity-probe", str(path))
    assert is_input_error(*result)
    assert result[2] == ("error: source B is not a dialgebra: axiom 2"
                         " fails on triple (0, 0, 0)\n")


def test_records_format(capsys, model_path):
    code, out, _ = run(capsys, "--format", "records", "check",
                       model_path("mult1"))
    assert code == 0
    for line in out.strip().splitlines():
        assert all("=" in part for part in line.split())


RECORDS_WITH_SPACES = (
    ("trees", None, "--degree", "2"),
    ("trivialize", "zero1", "--deformation", "theta_blocked"),
    ("extend", "zero1", "--deformation", "theta_blocked", "--to", "2"),
    ("rigidity-probe", "zero1"),
)


@pytest.mark.parametrize("argv", RECORDS_WITH_SPACES,
                         ids=[a[0] for a in RECORDS_WITH_SPACES])
def test_records_split_into_key_value_tokens(capsys, model_path, argv):
    args = [argv[0]] + ([model_path(argv[1])] if argv[1] else []) + list(
        argv[2:])
    code, text, _ = run(capsys, *args)
    rcode, records, _ = run(capsys, "--format", "records", *args)
    assert rcode == code
    lines = records.splitlines()
    assert lines
    values = []
    for line in lines:
        tokens = shlex.split(line)
        assert tokens and all("=" in t for t in tokens), line
        values += [t.split("=", 1) for t in tokens]
    assert any(" " in v for _, v in values)  # something needed quoting
    # a certificate value is its text-format line, stripped
    certificates = [v for k, v in values if k == "certificate"]
    assert certificates == [line.strip() for line in text.splitlines()
                            if line.strip() in certificates]
    if argv[0] == "trivialize":
        assert certificates == [text.splitlines()[-1]]


def test_field_override_flag(capsys, model_path):
    code, out, _ = run(capsys, "check", model_path("zero1"),
                       "--field", "gf:5")
    assert code == 0


def test_composite_field_is_input_error(capsys, model_path):
    assert is_input_error(*run(capsys, "check", model_path("zero1"),
                               "--field", "gf:4"))


def test_empty_field_override_is_input_error(capsys, model_path):
    # an empty --field names no field: it is not the same as no override
    code, out, err = run(capsys, "cohomology", model_path("zero1"),
                         "--field", "", "--degree", "1")
    assert is_input_error(code, out, err)
    assert err == "error: unknown field ''\n"


def test_record_whitespace_test_agrees_with_isspace():
    # the records writer quotes a value exactly when str.isspace() holds
    # for one of its characters: on every such code point, on Latin-1 and
    # on seeded random strings
    spaces = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]
    rng = random.Random(24)
    sample = ["".join(chr(rng.randrange(sys.maxunicode + 1))
                      for _ in range(rng.randint(1, 8)))
              for _ in range(5000)]
    assert len(spaces) > 20
    for text in itertools.chain(spaces, map(chr, range(256)), sample,
                                ("a%sb" % c for c in spaces)):
        spaced = any(c.isspace() for c in text)
        assert bool(_whitespace(text)) == spaced, ascii(text)
        assert (_record_value(text) != text) == spaced, ascii(text)


def test_non_ascii_integer_is_input_error(capsys, tmp_path):
    path = tmp_path / "dim.dl"
    for token in ("1_0", "\u0662", "1e1"):
        path.write_text("field rationals\ndialgebra Z\n  dim %s\nend\n"
                        % token, encoding="utf-8")
        code, out, err = run(capsys, "check", str(path))
        assert code == 2, token
        assert out == ""
        assert err == "error: line 3: bad dim %r\n" % token


def test_oversized_coboundary_is_input_error(capsys, tmp_path):
    # delta^3 of a 16-dim dialgebra would have 14 * 16^4 * 16 rows
    path = tmp_path / "z16.dl"
    path.write_text("field rationals\ndialgebra Z\n  dim 16\nend\n")
    code, out, err = run(capsys, "cohomology", str(path), "--degree", "3")
    assert code == 2
    assert out == ""
    assert err == ("error: CY^4 has 14680064 coordinates, over the budget"
                   " of 131072\n")


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(bundled_model_text("zero1")))
    code, out, _ = run(capsys, "check", "-")
    assert code == 0
    assert "PASS dialgebra Z" in out


def test_reports_deterministic(capsys, model_path):
    p = model_path("zero1")
    _, out1, _ = run(capsys, "extend", p, "--deformation", "theta_blocked",
                     "--to", "2")
    _, out2, _ = run(capsys, "extend", p, "--deformation", "theta_blocked",
                     "--to", "2")
    assert out1 == out2


def test_large_prime_field(capsys, model_path):
    p = model_path("mult1")
    code, out, _ = run(capsys, "cohomology", p, "--degree", "1",
                       "--field", "gf:2305843009213693951")
    assert code == 0 and out
    for n in (2 ** 61 + 1, 561):
        assert is_input_error(*run(capsys, "cohomology", p, "--degree", "1",
                                   "--field", "gf:%d" % n))


NEGATIVE_ARGUMENTS = (
    ("cohomology", "dim2", "--object", "P2", "--degree", "-1"),
    ("extend", "mult1", "--to", "-1"),
    ("rigidity-probe", "mult1", "--morphism", "id", "--order", "-1"),
)


@pytest.mark.parametrize("argv", NEGATIVE_ARGUMENTS,
                         ids=[a[0] for a in NEGATIVE_ARGUMENTS])
def test_negative_argument_is_input_error(capsys, model_path, argv):
    assert is_input_error(*run(capsys, argv[0], model_path(argv[1]),
                               *argv[2:]))


def test_extend_below_the_deformation_order(capsys, model_path):
    # mult1's deformation has order 1
    code, out, err = run(capsys, "extend", model_path("mult1"), "--to", "0")
    assert code == 2
    assert out == ""
    assert err == ("error: target order 0 is below the deformation's"
                   " order 1\n")


def test_negative_arguments_raise_in_the_library(bundled_models):
    d = bundled_models["dim2"].dialgebras["P2"]
    model = bundled_models["mult1"]
    for call in (lambda: cohomology_dim(d, adjoint_rep(d), -1),
                 lambda: extend_to_order(model.deformations["oneplus"], -1),
                 lambda: rigidity_probe(model.morphisms["id"], order=-1)):
        with pytest.raises(WorkbenchError):
            call()


# each step's argv differs from the one before only in what a parser
# reused from the earlier call could leak: a flag's value, the format, a
# default, or the state left by a usage error
REUSE_SEQUENCE = (
    ("cohomology", "{mult1}", "--degree", "3"),
    ("cohomology", "{mult1}"),
    ("--format", "records", "check", "{zero1}"),
    ("check", "{zero1}"),
    ("extend", "{mult1}", "--to", "3"),
    ("extend", "{mult1}"),
    ("cohomology", "{mult1}", "--degree", "x"),
    ("cohomology", "{mult1}"),
)


def test_reused_parser_matches_fresh_processes(capsys, model_path,
                                               monkeypatch):
    paths = {name: model_path(name) for name in ("mult1", "zero1")}
    # usage messages wrap at the terminal width, so fix it on both sides
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ, PYTHONIOENCODING="utf-8", PYTHONPATH=str(
        pathlib.Path(diadeform.__file__).parent.parent))
    build_parser.cache_clear()
    for step in REUSE_SEQUENCE:
        argv = [a.format(**paths) for a in step]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "diadeform.cli"] + argv,
            capture_output=True, encoding="utf-8", env=env)
        assert (code, captured.out, captured.err) == (
            fresh.returncode, fresh.stdout, fresh.stderr), step
    assert build_parser.cache_info().misses == 1
