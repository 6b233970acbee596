"""The library's records: reports, representations and parsed model files.

They are plain classes, not dataclasses, so importing the package stays
cheap; these tests pin the behaviour they had as dataclasses: the
constructors with their defaults, equality and hashing, immutability,
truth values and reprs.
"""

import pytest

from diadeform.deformation import (CocycleReport, DeformationReport,
                                   ExtensionReport, ObstructionClass,
                                   RigidityReport)
from diadeform.dialgebra import Dialgebra, Report, Representation
from diadeform.errors import ShapeMismatch
from diadeform.fields import QQ
from diadeform.modelfile import ModelFile
from diadeform.morphism_complex import complex_of


def k1():
    return Dialgebra(1, QQ, left=[[[1]]], right=[[[0]]], name="K")


# (class, positional arguments, the same by keyword, its repr)
CASES = [
    (Report, (True,), {"valid": True},
     "Report(valid=True, violations=())"),
    (Report, (False, ((1, 0, 0, 0, (1,), (0,)),)),
     {"valid": False, "violations": ((1, 0, 0, 0, (1,), (0,)),)},
     "Report(valid=False, violations=((1, 0, 0, 0, (1,), (0,)),))"),
    (Representation, (k1(), 1, [[[1]]], [[[0]]], [[[1]]], [[[0]]]),
     {"dialgebra": k1(), "module_dim": 1, "act_dl": [[[1]]],
      "act_dr": [[[0]]], "act_ld": [[[1]]], "act_rd": [[[0]]]},
     "Representation(dialgebra=Dialgebra(K, dim=1), module_dim=1, "
     "act_dl=(((1,),),), act_dr=(((0,),),), act_ld=(((1,),),), "
     "act_rd=(((0,),),))"),
    (DeformationReport, (True,), {"valid": True},
     "DeformationReport(valid=True, first_failing_order=None, "
     "failing_identity=None)"),
    (DeformationReport, (False, 2, "axiom 1 for f_D"),
     {"valid": False, "first_failing_order": 2,
      "failing_identity": "axiom 1 for f_D"},
     "DeformationReport(valid=False, first_failing_order=2, "
     "failing_identity='axiom 1 for f_D')"),
    (CocycleReport, (True,), {"passed": True},
     "CocycleReport(passed=True, leading_order=None, "
     "residual_location=None)"),
    (CocycleReport, (False, 1, "xi"),
     {"passed": False, "leading_order": 1, "residual_location": "xi"},
     "CocycleReport(passed=False, leading_order=1, residual_location='xi')"),
    (ObstructionClass, ("ob", 2), {"cochain": "ob", "order": 2},
     "ObstructionClass(cochain='ob', order=2)"),
    (ExtensionReport, (1, 2, "th", 0, True),
     {"reached": 1, "target": 2, "deformation": "th", "hy3_dim": 0,
      "guaranteed": True},
     "ExtensionReport(reached=1, target=2, deformation='th', hy3_dim=0, "
     "guaranteed=True, certificate=None)"),
    (RigidityReport, (0, "rigid (HY^2 = 0)"),
     {"hy2_dim": 0, "verdict": "rigid (HY^2 = 0)"},
     "RigidityReport(hy2_dim=0, verdict='rigid (HY^2 = 0)', "
     "trivialized_samples=0)"),
]
IDS = ["%s-%d" % (case[0].__name__, n) for n, case in enumerate(CASES)]


@pytest.mark.parametrize("cls, args, kwargs, text", CASES, ids=IDS)
def test_record_construction_equality_and_repr(cls, args, kwargs, text):
    record = cls(*args)
    assert cls(**kwargs) == record
    assert hash(cls(*args)) == hash(record)
    assert repr(record) == text


@pytest.mark.parametrize("cls, args, kwargs, text", CASES, ids=IDS)
def test_record_fields_cannot_be_assigned(cls, args, kwargs, text):
    record = cls(*args)
    field = next(iter(kwargs))
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_records_differ_by_a_field():
    assert Report(True) != Report(True, ((1, 0, 0, 0, (1,), (0,)),))
    assert RigidityReport(0, "x") != RigidityReport(0, "x", 1)
    assert ObstructionClass("ob", 1) != ObstructionClass("ob", 2)


def test_report_truth_values():
    assert Report(True) and not Report(False)
    assert DeformationReport(True) and not DeformationReport(False, 1, "x")
    assert CocycleReport(True, 1) and not CocycleReport(False, 1, "xi")
    # records without their own truth value are true, as dataclasses were
    assert ObstructionClass(None, 0) and RigidityReport(0, "")
    assert ExtensionReport(0, 0, None, 0, False)


def test_obstruction_is_zero_reads_its_cochain(mult_id):
    cx = complex_of(mult_id)
    assert ObstructionClass(cx.zero(3), 2).is_zero()


def test_representation_coerces_its_tensors():
    rep = Representation(k1(), 1, [[[1]]], [[[0]]], [[[1]]], [[[0]]])
    assert rep.act_dl == (((1,),),) and rep.module_dim == 1
    assert all(isinstance(t, tuple) for t in (rep.act_dl, rep.act_dr,
                                              rep.act_ld, rep.act_rd))


@pytest.mark.parametrize("slot", range(4))
def test_representation_rejects_a_bad_tensor(slot):
    tensors = [[[[1]]], [[[0]]], [[[1]]], [[[0]]]]
    tensors[slot] = [[[1, 0]]]  # one entry too many
    with pytest.raises(ShapeMismatch):
        Representation(k1(), 1, *tensors)


def test_representation_rejects_a_wrong_module_dim():
    with pytest.raises(ShapeMismatch):
        Representation(k1(), 2, [[[1]]], [[[0]]], [[[1]]], [[[0]]])


def test_model_file_defaults_are_fresh_dicts():
    a, b = ModelFile(QQ), ModelFile(QQ)
    tables = ("dialgebras", "morphisms", "deformations", "isos")
    for name in tables:
        assert getattr(a, name) == {}
        assert getattr(a, name) is not getattr(b, name)
    a.dialgebras["K"] = k1()
    assert b.dialgebras == {}
    assert a != b and ModelFile(QQ) == b


def test_model_file_construction_and_repr():
    d = k1()
    model = ModelFile(QQ, dialgebras={"K": d})
    assert model == ModelFile(field=QQ, dialgebras={"K": d})
    assert model.field is QQ and model.dialgebras == {"K": d}
    assert repr(ModelFile(QQ)) == (
        "ModelFile(field=Rationals(), dialgebras={}, morphisms={}, "
        "deformations={}, isos={})")
    assert repr(model) == (
        "ModelFile(field=Rationals(), dialgebras={'K': Dialgebra(K, dim=1)},"
        " morphisms={}, deformations={}, isos={})")
    model.field = None  # a mutable record
    assert model.field is None
    with pytest.raises(TypeError):
        hash(model)
