"""The three benchmark workloads: seeded job sets with checked outputs.

A job is what a user runs: one fresh ``diadeform.cli.main`` call with
``--format records`` on a generated model file, or one public library call
on a parsed model.  Jobs share no ``MorphismComplex`` or matrix.  Each job
returns None when its output matches the oracle, or a one-line description
of the mismatch.

Program entry points are looked up on their modules at call time
(``cli.main``, ``modelfile.parse_model``, ``cochain.coboundary``), so the
traced run's wrappers see every call.
"""

import contextlib
import io
import os

from diadeform import cli, cochain, modelfile
from diadeform.dialgebra import adjoint_rep
from diadeform.fields import QQ, parse_field
from diadeform.deformation import random_deformation
from diadeform.modelfile import serialize_model
from diadeform.morphism_complex import MorphismComplex
from diadeform.trees import enumerate_trees, face

import oracle
from generate import (Frame, bundled, deformation_copy, dialgebra_copy,
                      morphism_copy, rng_for)

GF = parse_field("gf 32003")

# Objects built on P2 get signed-permutation frames only.  A shear makes
# the cost of dense elimination on them depend on the frame by a factor of
# 3 to 4 (delta^3 of the id complex: 0.8 s to 3.9 s; HY^3 of emb: 0.19 s
# to 0.57 s), so with shears the pass time would follow the seed rather
# than the program.  The other objects get a shear as well.
PERMUTATION_ONLY = {"P2", "P2+K", "id", "emb"}


def frames(base):
    return Frame.signed_permutation if base in PERMUTATION_ONLY \
        else Frame.random


class Job:
    """A named unit of work; ``field`` is "qq" or "gf"."""

    __slots__ = ("name", "field", "fn")

    def __init__(self, name, field, fn):
        self.name, self.field, self.fn = name, field, fn


def _record(line):
    if line.startswith("certificate="):
        return {"certificate": line[len("certificate="):]}
    return dict(tok.split("=", 1) for tok in line.split() if "=" in tok)


def run_cli(argv):
    """Exit code and parsed records of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(["--format", "records"] + argv)
        except SystemExit as exc:  # argparse rejects bad arguments
            code = exc.code
    return code, [_record(line) for line in out.getvalue().splitlines()]


def cli_job(name, argv, check):
    """A CLI job; check(code, records) returns None or a mismatch."""
    return Job(name, "qq", lambda: check(*run_cli(argv)))


def _expect(cond, what):
    return None if cond else what


def _field_value(records, key):
    """The value of the last record carrying key, or None."""
    for rec in reversed(records):
        if key in rec:
            return rec[key]
    return None


def expect_dim(dim):
    def check(code, records):
        got = _field_value(records, "dim")
        return _expect(code == 0 and got == str(dim),
                       "exit %r, dim %r, expected %d" % (code, got, dim))
    return check


def warm_caches():
    """Fill the module-level lru_caches of the tree calculus."""
    for m in range(1, 6):
        for y in enumerate_trees(m):
            for i in range(m + 1):
                face(y, i)


class Workdir:
    """Writes the generated model files; the program reads them back."""

    def __init__(self, path):
        self.path = path
        self.count = 0

    def write(self, model):
        self.count += 1
        path = os.path.join(self.path, "m%04d.dl" % self.count)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize_model(model))
        return path


def _morphism_model(base, seed, label, tag):
    return morphism_copy(bundled("morphism", base),
                         rng_for(seed, label, base), tag, frames(base))


# Objects with the highest degree run on them by cohomology and
# cocycle_sweep.  P2+K stops at 2: its delta^3 (3402 x 405) alone would take
# more than a tenth of a pass.  So does id: its HY^3 takes 0.85 s to 1.0 s
# per copy (the six copies were two thirds of a cohomology pass, so the pass
# time followed the few seconds those jobs happened to run in), and delta^2
# on its degree-3 cochains 0.45 s over QQ.
DIALGEBRAS = (("P2", 3), ("K", 3), ("Z2", 3), ("P2+K", 2))
MORPHISMS = (("id", 2), ("emb", 3), ("proj", 3))

# -- cohomology ----------------------------------------------------------

COHOMOLOGY_COPIES = 6


def cohomology_jobs(seed, work):
    table = oracle.load()
    jobs = []
    for c in range(COHOMOLOGY_COPIES):
        for base, top in DIALGEBRAS:
            tag = "D%d" % c
            path = work.write(dialgebra_copy(
                base, rng_for(seed, "coh", base, c), tag, frames(base)))
            for n in range(0, top + 1):
                jobs.append(cli_job(
                    "cohomology:%s#%d:%d" % (base, c, n),
                    ["cohomology", path, "--degree", str(n)],
                    expect_dim(table["dialgebra"][base][n])))
        for base, top in MORPHISMS:
            model = _morphism_model(base, seed, ("coh", c), "psi")[0]
            path = work.write(model)
            for n in range(1, top + 1):
                jobs.append(cli_job(
                    "mor-cohomology:%s#%d:%d" % (base, c, n),
                    ["mor-cohomology", path, "--degree", str(n)],
                    expect_dim(table["morphism"][base][n])))
    return jobs


# -- cocycle_sweep -------------------------------------------------------

SWEEP_COPIES = 2


def _sweep_job(name, fkey, field, path, kind, n, ints):
    def run():
        with open(path, encoding="utf-8") as fh:
            model = modelfile.parse_model(fh.read(), field_override=field)
        if kind == "dialgebra":
            d = next(iter(model.dialgebras.values()))
            c = cochain.Cochain(n, d, adjoint_rep(d),
                                [field.from_int(x) for x in ints])
            twice = cochain.coboundary(cochain.coboundary(c))
        else:
            cx = MorphismComplex(next(iter(model.morphisms.values())))
            mc = cx.unvec(n, tuple(field.from_int(x) for x in ints))
            twice = cx.coboundary(cx.coboundary(mc))
        return _expect(twice.is_zero(), "delta^2 != 0 in degree %d" % n)
    return Job(name, fkey, run)


def cocycle_sweep_jobs(seed, work):
    jobs = []
    for c in range(SWEEP_COPIES):
        sources = []
        for base, top in DIALGEBRAS:
            model = dialgebra_copy(base, rng_for(seed, "sweep", base, c),
                                   "D", frames(base))
            d = model.dialgebras["D"]
            rep = adjoint_rep(d)
            sources.append(("dialgebra", base, model, top,
                            lambda n, d=d, rep=rep:
                            cochain.cy_dim(d, rep, n)))
        for base, top in MORPHISMS:
            model, psi = _morphism_model(base, seed, ("sweep", c), "psi")[:2]
            sizes = MorphismComplex(psi)
            sources.append(("morphism", base, model, top,
                            lambda n, cx=sizes: cx.dim(n)))
        for kind, base, model, top, size in sources:
            path = work.write(model)
            first = 0 if kind == "dialgebra" else 1
            for n in range(first, top + 1):
                for fkey, field in (("qq", QQ), ("gf", GF)):
                    rng = rng_for(seed, "sweep", base, c, n, fkey)
                    ints = [rng.randint(-3, 3) for _ in range(size(n))]
                    jobs.append(_sweep_job(
                        "sweep:%s:%s#%d:%d:%s" % (kind, base, c, n, fkey),
                        fkey, field, path, kind, n, ints))
    return jobs


# -- deformation ---------------------------------------------------------

DEFORMATION_MORPHISMS = (("id", 2), ("emb", 2), ("proj", 2))
# extend and rigidity-probe on id take 1.4 s to 2.1 s each, and
# rigidity-probe on emb 0.85 s to 0.95 s, more than a tenth of a pass; those
# objects run the lighter commands only.
SKIPPED = {"id": {"extend", "rigidity-probe"}, "emb": {"rigidity-probe"}}
DEFORMATION_COPIES = 4
EXTEND_TO = 4
PROBE_ORDER = 3


def _deformation_checks(hy2, extend):
    """Command -> (argv tail, check) for one deformation model.

    ``extend`` is "reach", "blocked" or None (extension not guaranteed,
    so the extend command is not run).
    """
    def verify(code, records):
        return _expect(code == 0 and _field_value(records, "status") == "PASS",
                       "deform-verify exit %r" % code)

    def cocycle(code, records):
        return _expect(code == 0 and _field_value(records, "cocycle")
                       == "True", "cocycle check exit %r" % code)

    def reach(code, records):
        got = _field_value(records, "reached")
        return _expect(code == 0 and got == str(EXTEND_TO),
                       "extend exit %r reached %r" % (code, got))

    def blocked(code, records):
        cert = _field_value(records, "certificate")
        return _expect(code == 1 and cert is not None,
                       "blocked extend exit %r, certificate %r"
                       % (code, cert))

    def trivialize(code, records):
        if hy2 == 0:
            return _expect(code == 0 and _field_value(records, "zero_through")
                           is not None, "trivialize exit %r" % code)
        ok = ((code == 0 and _field_value(records, "zero_through"))
              or (code == 1 and _field_value(records, "certificate")))
        return _expect(ok, "trivialize exit %r" % code)

    def probe(code, records):
        got = _field_value(records, "hy2")
        ok = got == str(hy2) and code == (0 if hy2 == 0 else 1)
        if hy2 == 0:
            ok = ok and _field_value(records, "samples") == "5"
        return _expect(ok, "rigidity-probe exit %r hy2 %r" % (code, got))

    out = {"deform-verify": ([], verify),
           "infinitesimal": ([], cocycle),
           "obstruction": ([], cocycle),
           "trivialize": ([], trivialize),
           "rigidity-probe": (["--order", str(PROBE_ORDER)], probe)}
    if extend:
        out["extend"] = (["--to", str(EXTEND_TO)],
                         reach if extend == "reach" else blocked)
    return out


def deformation_jobs(seed, work):
    table = oracle.load()["morphism"]
    jobs = []
    models = []
    for c in range(DEFORMATION_COPIES):
        for base, order in DEFORMATION_MORPHISMS:
            model, psi = _morphism_model(base, seed, ("def", c), "psi")[:2]
            th = random_deformation(psi, order, rng_for(seed, "def", base, c))
            model.deformations["th"] = th
            hy = table[base]
            models.append((base, c, model, hy[2],
                           "reach" if hy[3] == 0 else None))
        for base, outcome in (("theta_eq", "reach"),
                              ("theta_blocked", "blocked")):
            model = deformation_copy(bundled("deformation", base),
                                     rng_for(seed, "def", base, c), "z")
            models.append((base, c, model, table["zid"][2], outcome))
    for base, c, model, hy2, extend in models:
        path = work.write(model)
        for cmd, (tail, check) in _deformation_checks(hy2, extend).items():
            if cmd in SKIPPED.get(base, ()):
                continue
            jobs.append(cli_job("%s:%s#%d" % (cmd, base, c),
                                [cmd, path] + tail, check))
    return jobs


WORKLOADS = {"cohomology": cohomology_jobs,
             "cocycle_sweep": cocycle_sweep_jobs,
             "deformation": deformation_jobs}
