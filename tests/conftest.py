import random

import pytest

from diadeform.cochain import Cochain, cy_dim
from diadeform.dialgebra import Dialgebra, DialgebraMorphism
from diadeform.fields import QQ, PrimeField
from diadeform.models import bundled_model_names, load_bundled_model


def zero_dialgebra(dim, name="Z"):
    return Dialgebra(dim, QQ, name=name)


def mult_dialgebra(name="K"):
    # 1-dim, both products = ordinary multiplication
    one = [[[QQ.one]]]
    return Dialgebra(1, QQ, left=one, right=one, name=name)


def random_cochain(d, rep, n, rng, lo=-3, hi=3):
    f = d.field
    return Cochain(n, d, rep,
                   [f.from_int(rng.randint(lo, hi))
                    for _ in range(cy_dim(d, rep, n))])


@pytest.fixture
def rng():
    return random.Random(12345)


@pytest.fixture(scope="session")
def bundled_models():
    return {name: load_bundled_model(name) for name in bundled_model_names()}


@pytest.fixture(scope="session")
def gf7_models():
    return {name: load_bundled_model(name, field_override=PrimeField(7))
            for name in bundled_model_names()}


def tagged(models, kind):
    """(model.name, object) for every dialgebra or morphism of the models."""
    return [("%s.%s" % (mname, name), obj)
            for mname, model in models.items()
            for name, obj in getattr(model, kind).items()]


@pytest.fixture(scope="session")
def all_dialgebras(bundled_models):
    return tagged(bundled_models, "dialgebras")


@pytest.fixture(scope="session")
def all_morphisms(bundled_models):
    return tagged(bundled_models, "morphisms")


def mirror(d):
    """D^op: x -|' y = y |- x and x |-' y = y -| x."""
    def swap(t):
        return [[t[j][i] for j in range(d.dim)] for i in range(d.dim)]
    return Dialgebra(d.dim, d.field, swap(d.right), swap(d.left),
                     name=d.name + "^op")


@pytest.fixture
def zd1():
    return zero_dialgebra(1)


@pytest.fixture
def mult():
    return mult_dialgebra()


@pytest.fixture
def mult_id(mult):
    return DialgebraMorphism.identity(mult)


@pytest.fixture
def zd1_id(zd1):
    return DialgebraMorphism.identity(zd1)
