"""HY^1, HY^2, HY^3 of small unital associative algebras, taken as
dialgebras with both products the algebra's, pinned to their known values.

The matrices are the tall coboundaries the elimination is built for:
delta^3 of k[x]/(x^5) is 43 750 x 3125.  The whole table runs in well
under a second, so a change that makes the elimination fill in much more
shows here as a slow test before it shows anywhere else.
"""

import pytest

from diadeform.cochain import cohomology_dim
from diadeform.dialgebra import Dialgebra
from diadeform.fields import QQ, PrimeField


def algebra(m, add, field, name):
    """The m-dimensional algebra with e_i e_j = e_{i + j} (by ``add``, or
    0 if it gives None), as a dialgebra with both products equal to it."""
    product = [[[field.one if add(i, j) == k else field.zero
                 for k in range(m)] for j in range(m)] for i in range(m)]
    return Dialgebra(m, field, product, product, name=name)


def truncated(m, field):
    """k[x]/(x^m), basis 1, x, .., x^{m-1}."""
    return algebra(m, lambda i, j: i + j if i + j < m else None, field,
                   "k[x]/(x^%d)" % m)


def group_algebra(m, field):
    """k[Z/m], basis the group elements."""
    return algebra(m, lambda i, j: (i + j) % m, field, "k[Z/%d]" % m)


CASES = [(truncated(m, QQ), (m - 1,) * 3) for m in range(2, 6)] + [
    (group_algebra(2, QQ), (0, 0, 0)),
    (group_algebra(2, PrimeField(2)), (2, 2, 2)),
    (group_algebra(3, QQ), (0, 0, 0)),
    (group_algebra(3, PrimeField(3)), (3, 3, 3)),
]


@pytest.mark.parametrize("d, expected", CASES,
                         ids=["%s over %r" % (d.name, d.field)
                              for d, _ in CASES])
def test_hy1_to_hy3(d, expected):
    assert tuple(cohomology_dim(d, d, n) for n in (1, 2, 3)) == expected
