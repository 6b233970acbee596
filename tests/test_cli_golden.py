"""Replay a fixed list of CLI invocations against a recorded transcript.

Every subcommand runs in text and records format on the bundled models,
some over GF(7), together with the input-error cases.  Stdout, stderr and
the exit code must match ``golden/cli_transcript.txt`` byte for byte.

To rewrite the transcript after a deliberate change of output:

    PYTHONPATH=src python tests/test_cli_golden.py > tests/golden/cli_transcript.txt
"""

import contextlib
import io
import pathlib
import re
import sys
import tempfile

from diadeform.cli import main
from diadeform.models import bundled_model_names, bundled_model_text

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli_transcript.txt"

# model files beside the bundled ones, referenced as {name} below
EXTRA_MODELS = {
    "bad_axiom": "field rationals\ndialgebra B\n  dim 1\n"
                 "  left 0 0 0 1\nend\n",
    "bad_section": "field rationals\nalgebra B\nend\n",
    "bad_scalar": "field rationals\ndialgebra B\n  dim 1\n"
                  "  left 0 0 0 1/0\nend\n",
    "unterminated": "field rationals\ndialgebra B\n  dim 1\n",
}

INVOCATIONS = """
trees --degree 0
trees --degree 3
--format records trees --degree 2
trees --degree 6
trees --degree -1
check {zero1}
check {dim2}
--format records check {mult1}
check {zero1} --field gf:5
check {bad_axiom}
check {bad_section}
check {bad_scalar}
check {unterminated}
check {zero1} --field gf:4
check /no/such/model.dl
cohomology {mult1} --degree 2
cohomology {zero2} --object Z2 --degree 2
--format records cohomology {dim2} --object P2 --degree 3
cohomology {dim2} --object P2 --degree 2 --field gf:7
cohomology {zero2}
cohomology {zero2} --object nope
cohomology {mult1} --degree 6
cohomology {mult1} --degree x
cohomology {dim2} --object P2 --degree -1
mor-cohomology {zero1} --degree 2
mor-cohomology {dim2} --morphism emb --degree 2
--format records mor-cohomology {zero2} --morphism proj --degree 2
mor-cohomology {dim2} --morphism id --degree 1 --field gf:7
mor-cohomology {mult1} --morphism zero --degree 0
deform-verify {zero1} --deformation theta_eq
--format records deform-verify {mult1}
deform-verify {zero1} --deformation theta_blocked --field gf:7
infinitesimal {zero1} --deformation theta_blocked
--format records infinitesimal {mult1}
obstruction {zero1} --deformation theta_blocked
--format records obstruction {zero1} --deformation theta_eq
obstruction {mult1} --field gf:7
extend {zero1} --deformation theta_blocked --to 2
extend {zero1} --deformation theta_eq --to 3
--format records extend {mult1} --to 3
extend {mult1} --to 99
extend {mult1} --to -1
trivialize {mult1}
trivialize {zero1} --deformation theta_eq
--format records trivialize {zero1} --deformation theta_blocked
rigidity-probe {mult1} --morphism id --order 3
--format records rigidity-probe {zero1}
rigidity-probe {dim2} --morphism emb --order 2 --field gf:7
rigidity-probe {mult1} --morphism id --order -1
selftest
cohomology {zero1} --field= --degree 1
deform-verify {zero2}
""".strip().splitlines()


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def transcript(workdir):
    """The rendered transcript, one entry per invocation."""
    paths = {}
    texts = dict(EXTRA_MODELS)
    texts.update((name, bundled_model_text(name))
                 for name in bundled_model_names())
    for name, text in texts.items():
        path = pathlib.Path(workdir) / ("%s.dl" % name)
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    entries = []
    for line in INVOCATIONS:
        code, out, err = _run(line.format(**paths).split())
        entries.append("=== %s\n--- exit %s\n--- stdout\n%s--- stderr\n%s"
                       % (line, code, out, err))
    return entries


def test_cli_transcript_is_unchanged(tmp_path):
    golden = re.split(r"(?m)^(?==== )", GOLDEN.read_text(encoding="utf-8"))
    got = transcript(tmp_path)
    assert len(got) == len(golden) - 1
    for want, have in zip(golden[1:], got):
        assert have == want


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        sys.stdout.write("".join(transcript(tmp)))
