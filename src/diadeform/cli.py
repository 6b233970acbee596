"""Command-line front end.

Exit codes: 0 = success / property holds, 1 = property fails or an
obstruction blocks, 2 = input error.  All reports are deterministic for
identical inputs; `--format records` emits machine-readable key=value
lines instead of prose, with values containing whitespace written as JSON
strings.
"""

import argparse
import functools
import json
import re
import sys

from .deformation import (_require_dialgebra, _require_morphism,
                          cocycle_check, extend_to_order, infinitesimal,
                          obstruction, rigidity_probe, trivialize_step,
                          verify_deformation)
from .errors import NotACoboundary, WorkbenchError
from .fields import format_scalars, parse_field
from .cochain import cohomology_dim
from .modelfile import parse_model, validate_model
from .morphism_complex import complex_of
from .selftest import run_selftest
from .trees import enumerate_trees, face, prod_label


# finds a character that str.isspace() accepts: \s matches the same ones
_whitespace = re.compile(r"\s").search


def _record_value(v):
    """A value with whitespace as a JSON string, so that every record
    splits into key=value tokens."""
    text = str(v)
    return json.dumps(text) if _whitespace(text) else text


class Emitter:
    def __init__(self, records=False):
        self.records = records

    def line(self, text, **kv):
        if self.records:
            print(" ".join("%s=%s" % (k, _record_value(v))
                           for k, v in kv.items()))
        else:
            print(text)


# object kind -> the flag that picks one object of that kind
KIND_FLAGS = {"dialgebra": "object", "morphism": "morphism",
              "deformation": "deformation"}


def _target(args):
    """What a command works on: nothing, the whole model file, or the one
    object of its kind that the kind's flag picks."""
    if args.kind is None:
        return None
    override = None if args.field is None else parse_field(args.field)
    if args.model == "-":
        text = sys.stdin.read()
    else:
        with open(args.model, encoding="utf-8") as fh:
            text = fh.read()
    model = parse_model(text, field_override=override)
    if args.kind == "model":
        return model
    kind, table = args.kind, getattr(model, args.kind + "s")
    name = getattr(args, KIND_FLAGS[kind])
    if name is None:
        if len(table) == 1:
            return next(iter(table.values()))
        if not table:
            raise WorkbenchError("model declares no %ss" % kind)
        raise WorkbenchError(
            "model declares %d %ss; pick one with the flag"
            % (len(table), kind))
    if name not in table:
        raise WorkbenchError("unknown %s %r" % (kind, name))
    return table[name]


def cmd_check(args, emit, model):
    ok = True
    for kind, name, report in validate_model(model):
        ok = ok and report.valid
        status = "PASS" if report.valid else "FAIL"
        detail = ""
        if not report.valid:
            detail = "  (%d violation(s); first: (%s))" % (
                len(report.violations), ", ".join(
                    format_scalars(model.field, x) if isinstance(x, tuple)
                    else repr(x) for x in report.violations[0]))
        emit.line("%s %s %s%s" % (status, kind, name, detail),
                  check=kind, name=name, status=status)
    return 0 if ok else 1


def cmd_trees(args, emit, _):
    m = args.degree
    trees = enumerate_trees(m)
    emit.line("Y_%d: %d trees" % (m, len(trees)), degree=m,
              count=len(trees))
    for y in trees:
        emit.line("  %-8s shape %r" % (y.name, y.shape),
                  tree=y.name, index=y.index)
        if m >= 1:
            labels = "".join(prod_label(y, i).value
                             for i in range(m + 1))
            emit.line("    labels: %s" % labels, tree=y.name,
                      labels=labels)
        if m >= 2:
            faces = " ".join("d%d=%s" % (i, face(y, i).name)
                             for i in range(m + 1))
            emit.line("    faces:  %s" % faces, tree=y.name, faces=faces)
    return 0


def cmd_cohomology(args, emit, d):
    n = args.degree
    _require_dialgebra("object", d)
    dim = cohomology_dim(d, d, n)
    emit.line("HY^%d(%s,%s) = %d" % (n, d.name, d.name, dim),
              object=d.name, degree=n, dim=dim)
    return 0


def cmd_mor_cohomology(args, emit, psi):
    n = args.degree
    _require_morphism(psi)
    dim = complex_of(psi).cohomology_dim(n)
    emit.line("HY^%d(%s,%s) = %d" % (n, psi.name, psi.name, dim),
              morphism=psi.name, degree=n, dim=dim)
    return 0


def cmd_deform_verify(args, emit, th):
    report = verify_deformation(th)
    if report:
        emit.line("PASS deformation valid through order %d" % th.order,
                  status="PASS", order=th.order)
        return 0
    emit.line("FAIL at order %d: %s"
              % (report.first_failing_order, report.failing_identity),
              status="FAIL", order=report.first_failing_order)
    return 1


def cmd_infinitesimal(args, emit, th):
    cx = complex_of(th.psi)
    return _report_cocycle(emit, cx, infinitesimal(th), 1)


def cmd_obstruction(args, emit, th):
    cx = complex_of(th.psi)
    ob = obstruction(th)
    return _report_cocycle(emit, cx, ob.cochain, ob.order,
                           names=("Ob_D", "Ob_E", "Ob_psi"))


def cmd_extend(args, emit, th):
    report = extend_to_order(th, args.to)
    emit.line("reached order %d of %d (HY^3 = %d%s)"
              % (report.reached, report.target, report.hy3_dim,
                 ", extension guaranteed" if report.guaranteed else ""),
              reached=report.reached, target=report.target,
              hy3=report.hy3_dim)
    if report.certificate:
        for line in report.certificate.splitlines():
            emit.line(line, certificate=line.strip())
        return 1
    return 0


def cmd_trivialize(args, emit, th):
    try:
        iso, result = trivialize_step(th)
    except NotACoboundary as exc:
        emit.line("NOT A COBOUNDARY: %s" % exc, status="FAIL")
        emit.line(exc.certificate, certificate=exc.certificate)
        return 1
    lead = result.leading_order()
    zero_through = result.order if lead is None else lead - 1
    emit.line("trivialized; transported deformation vanishes through"
              " order %d" % zero_through, zero_through=zero_through)
    return 0


def cmd_rigidity_probe(args, emit, psi):
    report = rigidity_probe(psi, order=args.order)
    emit.line("HY^2(%s,%s) = %d" % (psi.name, psi.name, report.hy2_dim),
              morphism=psi.name, hy2=report.hy2_dim)
    emit.line("verdict: %s" % report.verdict, verdict=report.verdict)
    if report.trivialized_samples:
        emit.line("trivialized %d sampled deformation(s) to order %d"
                  % (report.trivialized_samples, args.order),
                  samples=report.trivialized_samples)
    return 0 if report.hy2_dim == 0 else 1


def cmd_selftest(args, emit, _):
    def report(name, ok, detail):
        status = "PASS" if ok else "FAIL"
        extra = ("  %s" % detail) if detail else ""
        emit.line("%s %s%s" % (status, name, extra), check=name,
                  status=status)

    ok = run_selftest(report)
    emit.line("selftest: %s" % ("all checks passed" if ok
                                else "FAILURES above"),
              result="pass" if ok else "fail")
    return 0 if ok else 1


def _report_cocycle(emit, cx, mc, order, names=("xi", "pi", "phi")):
    """Print the nonzero values of mc and whether it is a cocycle; return
    the exit code."""
    fmt = cx.field.format
    shown = False
    for tag, tree, multi, v in mc.nonzero_values(names):
        shown = True
        texts = [fmt(x) for x in v]
        emit.line("  %s %s %r = (%s)" % (tag, tree.name, multi,
                                         ", ".join(texts)),
                  block=tag, tree=tree.name, value=",".join(texts))
    if not shown:
        emit.line("  (zero)", value="0")
    passed = cocycle_check(cx, mc, order).passed
    emit.line("%d-cocycle: %s" % (mc.degree, "yes" if passed else "NO"),
              cocycle=passed)
    return 0 if passed else 1


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared by every
    later one: parse_args returns a fresh namespace each time, and the
    defaults are immutable."""
    top = argparse.ArgumentParser(
        prog="diadeform",
        description="Exact workbench for dialgebra cohomology and"
                    " deformations of dialgebra morphisms.")
    top.add_argument("--format", choices=("text", "records"),
                     default="text", help="report style")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, kind=None):
        """A subcommand on None, "model" or an object kind and its flag."""
        p = sub.add_parser(name)
        p.set_defaults(fn=fn, kind=kind)
        if kind:
            p.add_argument("model", help="model file path, or - for stdin")
            p.add_argument("--field", default=None,
                           help="override the base field, e.g. gf:7")
        if kind in KIND_FLAGS:
            p.add_argument("--" + KIND_FLAGS[kind], default=None)
        return p

    add("check", cmd_check, "model")

    p = add("trees", cmd_trees)
    p.add_argument("--degree", type=int, default=3)

    p = add("cohomology", cmd_cohomology, "dialgebra")
    p.add_argument("--degree", type=int, default=2)

    p = add("mor-cohomology", cmd_mor_cohomology, "morphism")
    p.add_argument("--degree", type=int, default=2)

    add("deform-verify", cmd_deform_verify, "deformation")
    add("infinitesimal", cmd_infinitesimal, "deformation")
    add("obstruction", cmd_obstruction, "deformation")

    p = add("extend", cmd_extend, "deformation")
    p.add_argument("--to", type=int, default=2)

    add("trivialize", cmd_trivialize, "deformation")

    p = add("rigidity-probe", cmd_rigidity_probe, "morphism")
    p.add_argument("--order", type=int, default=4)

    add("selftest", cmd_selftest)
    return top


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    emit = Emitter(records=(args.format == "records"))
    try:
        return args.fn(args, emit, _target(args))
    except (OSError, UnicodeDecodeError, WorkbenchError) as exc:
        # unreadable model paths and non-UTF-8 files are input errors too
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
