"""Benchmark inputs are valid, reproducible and round-trip through files.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import pytest  # noqa: E402

from diadeform import cochain, linalg  # noqa: E402
from diadeform.deformation import verify_deformation  # noqa: E402
from diadeform.dialgebra import check_dialgebra, check_morphism  # noqa: E402
from diadeform.modelfile import parse_model, serialize_model  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def _generate(workload, seed, path):
    jobs = workloads.WORKLOADS[workload](seed, workloads.Workdir(str(path)))
    return jobs, sorted(path.iterdir())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [1, 2])
def test_generated_objects_are_valid_and_parse_back(workload, seed,
                                                    tmp_path):
    jobs, paths = _generate(workload, seed, tmp_path)
    assert jobs and paths
    for path in paths:
        text = path.read_text()
        model = parse_model(text)
        assert serialize_model(model) == text
        assert not model.isos
        for d in model.dialgebras.values():
            assert check_dialgebra(d).valid, (path.name, d.name)
        for psi in model.morphisms.values():
            assert check_morphism(psi).valid, (path.name, psi.name)
        for name, th in model.deformations.items():
            assert verify_deformation(th).valid, (path.name, name)


def test_same_seed_same_inputs(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    _, a = _generate("cohomology", 7, first)
    _, b = _generate("cohomology", 7, second)
    assert [p.read_text() for p in a] == [p.read_text() for p in b]


def test_tracer_restores_names_and_reports_absent(monkeypatch):
    monkeypatch.setitem(tracing.SPANS, "missing.name",
                        [("diadeform.linalg", "Matrix.no_such_method"),
                         ("diadeform.no_such_module", "f")])
    before = (linalg.Matrix.rank, cochain.coboundary_matrix)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert linalg.Matrix.rank is not before[0]
        from diadeform import morphism_complex
        assert (morphism_complex.coboundary_matrix
                is cochain.coboundary_matrix)
    finally:
        tracer.uninstall()
    assert (linalg.Matrix.rank, cochain.coboundary_matrix) == before
    assert tracer.absent == {"diadeform.linalg.Matrix.no_such_method",
                             "diadeform.no_such_module.f"}
