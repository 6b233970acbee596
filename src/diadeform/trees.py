"""Planar binary trees, face maps, and the per-leaf product labels.

An m-tree is a full binary tree with m internal nodes and m+1 leaves,
numbered 0..m left to right.  Shapes are encoded as nested tuples: a leaf
is ``()`` and an internal node is ``(left, right)``.

Conventions pinned here and validated by the delta^2 = 0 suite:

* the right comb of Y_2 (leaf 0 a child of the root) is named [21] and
  sits at index 0; the left comb is [12] at index 1;
* the right comb of Y_3 is [321] (index 0) and the left comb is [123]
  (index 4); the non-comb 3-trees are [213], [131], [312] in enumeration
  order;
* the product label of slot i is LEFT or RIGHT per ``prod_label`` below.

Any global mirror reflection of these conventions (swapping left/right
children together with the two products) yields an isomorphic theory; the
suite pins this particular one.
"""

from enum import Enum
from functools import lru_cache

from .errors import CapExceeded, IndexOutOfRange

DEFAULT_TREE_CAP = 5


class ProductLabel(Enum):
    LEFT = "-|"   # the left product
    RIGHT = "|-"  # the right product

    def __repr__(self):
        return self.value


LEAF = ()


def internal_count(shape):
    if shape == LEAF:
        return 0
    return 1 + internal_count(shape[0]) + internal_count(shape[1])


def leaf_count(shape):
    return internal_count(shape) + 1


@lru_cache(maxsize=None)
def _shapes(m):
    """All shapes with m internal nodes, in canonical order.

    Order: left-subtree internal count first, then left subtree order,
    then right subtree order.  This places the right comb at index 0 and
    the left comb last, matching the naming conventions above.
    """
    if m == 0:
        return (LEAF,)
    out = []
    for left_size in range(m):
        for left in _shapes(left_size):
            for right in _shapes(m - 1 - left_size):
                out.append((left, right))
    return tuple(out)


class Tree:
    """An m-tree together with its canonical index in Y_m."""

    __slots__ = ("shape", "degree", "index")

    def __init__(self, shape, degree, index):
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "index", index)

    def __setattr__(self, name, value):
        raise AttributeError("Tree is immutable")

    def __eq__(self, other):
        return isinstance(other, Tree) and self.shape == other.shape

    def __hash__(self):
        return hash(self.shape)

    @property
    def name(self):
        return tree_name(self.degree, self.index)

    def __repr__(self):
        return "Tree(%s)" % self.name


_Y2_NAMES = ("[21]", "[12]")
_Y3_NAMES = ("[321]", "[213]", "[131]", "[312]", "[123]")


def tree_name(degree, index):
    if degree == 2:
        return _Y2_NAMES[index]
    if degree == 3:
        return _Y3_NAMES[index]
    return "Y%d#%d" % (degree, index)


@lru_cache(maxsize=None)
def enumerate_trees(m, cap=DEFAULT_TREE_CAP):
    """All m-trees in canonical order.  |Y_m| is the m-th Catalan number."""
    if m < 0:
        raise IndexOutOfRange("tree degree must be >= 0, got %d" % m)
    if m > cap:
        raise CapExceeded("tree degree %d exceeds cap %d" % (m, cap))
    return tuple(Tree(s, m, i) for i, s in enumerate(_shapes(m)))


@lru_cache(maxsize=None)
def _index_of(shape):
    m = internal_count(shape)
    return _shapes(m).index(shape)


def _tree_of_shape(shape):
    m = internal_count(shape)
    return Tree(shape, m, _index_of(shape))


def _delete_leaf(shape, i):
    """Remove leaf i and contract its parent node."""
    if shape == LEAF:
        raise IndexOutOfRange("cannot delete the only leaf of a 0-tree")
    left, right = shape
    nl = leaf_count(left)
    if i < nl:
        if left == LEAF:
            return right
        return (_delete_leaf(left, i), right)
    if right == LEAF:
        return left
    return (left, _delete_leaf(right, i - nl))


def face(tree, i):
    """d_i: the (m-1)-tree obtained by deleting leaf i of an m-tree."""
    m = tree.degree
    if not 0 <= i <= m:
        raise IndexOutOfRange("leaf index %d out of range 0..%d" % (i, m))
    return _tree_of_shape(_delete_leaf(tree.shape, i))


def _leaf_parent_info(shape, i):
    """(is_left_child, parent_is_root) for leaf i of the given shape."""
    left, right = shape
    nl = leaf_count(left)
    if i < nl:
        if left == LEAF:
            return True, True
        is_left, _ = _leaf_parent_info(left, i)
        return is_left, False
    if right == LEAF:
        return False, True
    is_left, _ = _leaf_parent_info(right, i - nl)
    return is_left, False


def prod_label(tree, i):
    """The product (left or right) attached to slot i of an m-tree.

    For interior slots 1..m-1 the label follows the side of leaf i at its
    parent; the two boundary slots look at whether the extreme leaf hangs
    directly off the root.
    """
    m = tree.degree
    if not 0 <= i <= m:
        raise IndexOutOfRange("slot index %d out of range 0..%d" % (i, m))
    is_left, at_root = _leaf_parent_info(tree.shape, i)
    if i == 0:
        return ProductLabel.LEFT if at_root else ProductLabel.RIGHT
    if i == m:
        return ProductLabel.RIGHT if at_root else ProductLabel.LEFT
    return ProductLabel.LEFT if is_left else ProductLabel.RIGHT


@lru_cache(maxsize=None)
def tree_plan(m):
    """Per m-tree in canonical order: the indices of its m+1 faces d_i and
    its m+1 slot labels.  The one set-up behind both coboundary paths."""
    return tuple((tuple(face(y, i).index for i in range(m + 1)),
                  tuple(prod_label(y, i) for i in range(m + 1)))
                 for y in enumerate_trees(m, cap=m))


def catalan(m):
    c = 1
    for i in range(m):
        c = c * 2 * (2 * i + 1) // (i + 2)
    return c
