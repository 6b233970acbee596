"""The committed table of cohomology dimensions the benchmark checks against.

HY^n dimensions are invariant under isomorphism, so every seeded copy that
``generate`` makes must reproduce the dimensions of the bundled object it
was copied from.  The table is computed once on the bundled objects and
committed as ``oracle.json``; the benchmark never recomputes it.

Recompute it from the repository root with::

    PYTHONPATH=src python3 perfbench/oracle.py
"""

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
TABLE_PATH = os.path.join(HERE, "oracle.json")

# Highest degree tabulated per object.  Dialgebra cohomology starts at
# degree 0, morphism cohomology at degree 1.
DIALGEBRA_TOP = {"P2": 3, "K": 3, "Z2": 3, "P2+K": 2}
MORPHISM_TOP = {"id": 3, "emb": 3, "proj": 3, "zid": 3}


def compute():
    from diadeform.cochain import cohomology_dim
    from diadeform.dialgebra import adjoint_rep
    from diadeform.morphism_complex import MorphismComplex

    from generate import base_dialgebra, bundled

    table = {"dialgebra": {}, "morphism": {}}
    for name, top in DIALGEBRA_TOP.items():
        d = base_dialgebra(name)
        table["dialgebra"][name] = {
            str(n): cohomology_dim(d, adjoint_rep(d), n)
            for n in range(0, top + 1)}
    for name, top in MORPHISM_TOP.items():
        cx = MorphismComplex(bundled("morphism", name))
        table["morphism"][name] = {
            str(n): cx.cohomology_dim(n) for n in range(1, top + 1)}
    return table


def load():
    """The committed table: {"dialgebra"|"morphism": {name: {n: dim}}}."""
    with open(TABLE_PATH, encoding="utf-8") as fh:
        raw = json.load(fh)
    return {kind: {name: {int(n): dim for n, dim in dims.items()}
                   for name, dims in objs.items()}
            for kind, objs in raw.items()}


if __name__ == "__main__":
    with open(TABLE_PATH, "w", encoding="utf-8") as fh:
        json.dump(compute(), fh, indent=2, sort_keys=True)
        fh.write("\n")
