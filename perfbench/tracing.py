"""Spans and counters around the program's public names, for the traced run.

``Tracer.install`` replaces each public function or method named in
``SPANS`` and ``COUNTS`` by a wrapper, in its defining module and in every
``diadeform`` module that imported the same object (``from .x import y``
copies the name), and ``uninstall`` puts the originals back.  A name that
no longer exists is reported as absent and skipped.

A span records calls, total and self time.  Self time is the span's
duration minus the time of the spans it encloses.  The wrappers' own
bookkeeping (counting nonzeros, for instance) runs outside every measured
interval and is charged to no span, so it shows only in the traced pass
time and thus in ``trace.overhead_ratio``.

Matrix sizes are read through the public ``rows``, ``cols`` and
``M[i, j]`` only.
"""

import importlib
import sys
import time
from collections import defaultdict

# span name -> [(module, "function" or "Class.method")]
SPANS = {
    "linalg.rank": [("diadeform.linalg", "Matrix.rank")],
    "linalg.solve": [("diadeform.linalg", "Matrix.solve")],
    "linalg.kernel_basis": [("diadeform.linalg", "Matrix.kernel_basis")],
    "cochain.coboundary": [("diadeform.cochain", "coboundary")],
    "cochain.coboundary_matrix": [("diadeform.cochain", "coboundary_matrix")],
    "morphism_complex.matrix": [
        ("diadeform.morphism_complex", "MorphismComplex.matrix")],
    "morphism_complex.coboundary": [
        ("diadeform.morphism_complex", "MorphismComplex.coboundary")],
    "morphism_complex.push_forward": [
        ("diadeform.morphism_complex", "MorphismComplex.push_forward")],
    "morphism_complex.pull_back": [
        ("diadeform.morphism_complex", "MorphismComplex.pull_back")],
    "morphism_complex.push_matrix": [
        ("diadeform.morphism_complex", "MorphismComplex.push_matrix")],
    "morphism_complex.pull_matrix": [
        ("diadeform.morphism_complex", "MorphismComplex.pull_matrix")],
    "deformation.verify_deformation": [
        ("diadeform.deformation", "verify_deformation")],
    "deformation.obstruction": [("diadeform.deformation", "obstruction")],
    "deformation.apply_formal_iso": [
        ("diadeform.deformation", "apply_formal_iso")],
    "deformation.random_deformation": [
        ("diadeform.deformation", "random_deformation")],
    "deformation.trivialize_step": [
        ("diadeform.deformation", "trivialize_step")],
    "deformation.extend_step": [("diadeform.deformation", "extend_step")],
    "dialgebra.check": [("diadeform.dialgebra", "check_dialgebra"),
                        ("diadeform.dialgebra", "check_representation"),
                        ("diadeform.dialgebra", "check_morphism")],
    "modelfile.parse_model": [("diadeform.modelfile", "parse_model")],
    "cli.main": [("diadeform.cli", "main")],
}

# counter name -> [(module, function)]; counted, not timed
COUNTS = {
    "trees.face": [("diadeform.trees", "face")],
    "trees.prod_label": [("diadeform.trees", "prod_label")],
}


def nnz(m):
    """Nonzero entries of a matrix, through its public interface."""
    return sum(1 for i in range(m.rows) for j in range(m.cols)
               if m[i, j] != 0)


class Tracer:
    """Per-job span statistics and counters."""

    def __init__(self):
        self.patches = []
        self.absent = set()
        self.stack = []
        self.reset()

    def reset(self):
        """Start a job: clear statistics and the per-job identity sets.

        The identity sets hold the objects they key on, so an id is never
        reused while it is remembered.
        """
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.count = defaultdict(int)
        self._nnz = {}
        self._solved = {}
        self._built = {}

    # -- size and repeat bookkeeping -----------------------------------

    def _matrix_size(self, prefix, m):
        key = id(m)
        if key not in self._nnz:
            self._nnz[key] = (m, nnz(m))
        self.count[prefix + ".cells"] += m.rows * m.cols
        self.count[prefix + ".nnz"] += self._nnz[key][1]

    def _after(self, name, args, result):
        if name == "linalg.rank":
            self._matrix_size(name, args[0])
        elif name == "cochain.coboundary_matrix":
            self._matrix_size(name, result)
        elif name == "linalg.solve":
            m = args[0]
            if result is None:
                self.count[name + ".inconsistent"] += 1
            if id(m) in self._solved:
                self.count[name + ".same_matrix"] += 1
            self._solved[id(m)] = m
        elif name == "morphism_complex.matrix":
            key = (id(args[0]), args[1])
            if key in self._built:
                self.count[name + ".repeat"] += 1
            self._built[key] = args[0]
        elif name == "deformation.extend_step" and result is None:
            self.count[name + ".blocked"] += 1

    # -- wrappers ------------------------------------------------------

    def _span(self, name, fn):
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            stack.append(0.0)
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                self.calls[name] += 1
                self.self_s[name] += clock() - t0 - stack.pop()
                if done:
                    self._after(name, args, result)
                if stack:
                    stack[-1] += clock() - t0

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for table, make in ((SPANS, self._span), (COUNTS, self._counter)):
            for name, targets in table.items():
                for module_name, attr in targets:
                    self._patch(module_name, attr, lambda fn, n=name:
                                make(n, fn))

    def _patch(self, module_name, attr, make):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.absent.add("%s.%s" % (module_name, attr))
            return
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        fn = getattr(owner, fn_name, None)
        if fn is None:
            self.absent.add("%s.%s" % (module_name, attr))
            return
        wrapper = make(fn)
        if owner_name:
            owners = [owner]
        else:
            # rebind re-exports too: every diadeform module holding fn
            owners = [m for key, m in list(sys.modules.items())
                      if key.split(".")[0] == "diadeform"
                      and getattr(m, fn_name, None) is fn]
        for o in owners:
            self.patches.append((o, fn_name, fn))
            setattr(o, fn_name, wrapper)

    def uninstall(self):
        for owner, name, fn in reversed(self.patches):
            setattr(owner, name, fn)
        self.patches = []

    def snapshot(self):
        """The current job's raw statistics as one flat dict."""
        out = {}
        for name, n in self.calls.items():
            out[name + ".calls"] = n
        for name, s in self.self_s.items():
            out[name + ".self_ms"] = 1000.0 * s
        out.update(self.count)
        return out


# Per-pass statistics reported as they are; self_ms in ms, the rest counts.
PLAIN = (
    "linalg.rank.calls", "linalg.rank.self_ms", "linalg.rank.cells",
    "linalg.rank.nnz", "linalg.solve.calls", "linalg.solve.self_ms",
    "linalg.kernel_basis.calls", "linalg.kernel_basis.self_ms",
    "cochain.coboundary.calls", "cochain.coboundary.self_ms",
    "cochain.coboundary_matrix.calls", "cochain.coboundary_matrix.self_ms",
    "cochain.coboundary_matrix.cells", "cochain.coboundary_matrix.nnz",
    "morphism_complex.matrix.calls", "morphism_complex.matrix.self_ms",
    "morphism_complex.coboundary.self_ms",
    "morphism_complex.push_forward.self_ms",
    "morphism_complex.pull_back.self_ms",
    "morphism_complex.push_matrix.self_ms",
    "morphism_complex.pull_matrix.self_ms",
    "deformation.verify_deformation.self_ms",
    "deformation.obstruction.self_ms", "deformation.apply_formal_iso.self_ms",
    "deformation.random_deformation.self_ms",
    "deformation.trivialize_step.self_ms", "deformation.extend_step.calls",
    "dialgebra.check.self_ms", "modelfile.parse_model.calls",
    "modelfile.parse_model.self_ms", "cli.main.self_ms", "trees.face.calls",
    "trees.prod_label.calls",
)

# ratio name -> (numerator, denominator), both per-pass statistics
RATIOS = {
    "linalg.solve.inconsistent_ratio": ("linalg.solve.inconsistent",
                                        "linalg.solve.calls"),
    "linalg.solve.same_matrix_ratio": ("linalg.solve.same_matrix",
                                       "linalg.solve.calls"),
    "morphism_complex.matrix.repeat_ratio": (
        "morphism_complex.matrix.repeat", "morphism_complex.matrix.calls"),
    "deformation.extend_step.blocked_ratio": (
        "deformation.extend_step.blocked", "deformation.extend_step.calls"),
}


def layer_metrics(per_pass):
    """Per-layer metrics from raw statistics summed over one pass."""
    out = {key: (per_pass.get(key, 0),
                 "ms" if key.endswith(".self_ms") else "count")
           for key in PLAIN}
    for name, (num, den) in RATIOS.items():
        d = per_pass.get(den, 0)
        out[name] = (per_pass.get(num, 0) / d if d else 0.0, "ratio")
    return out
