import pytest

from diadeform.errors import CapExceeded, IndexOutOfRange
from diadeform.trees import (ProductLabel, catalan, enumerate_trees, face,
                             internal_count, leaf_count, prod_label)

L, R = ProductLabel.LEFT, ProductLabel.RIGHT


def test_catalan_counts():
    assert [catalan(m) for m in range(1, 6)] == [1, 2, 5, 14, 42]
    for m in range(1, 6):
        assert len(enumerate_trees(m)) == catalan(m)


def test_tree_shapes_have_right_size():
    for m in range(1, 6):
        for y in enumerate_trees(m):
            assert internal_count(y.shape) == m
            assert leaf_count(y.shape) == m + 1


def test_y2_order_and_names():
    t21, t12 = enumerate_trees(2)
    assert t21.name == "[21]"
    assert t12.name == "[12]"
    # [21] is the right comb, [12] the left comb
    assert t21.shape == ((), ((), ()))
    assert t12.shape == (((), ()), ())


def test_y3_order_and_names():
    names = [y.name for y in enumerate_trees(3)]
    assert names == ["[321]", "[213]", "[131]", "[312]", "[123]"]
    shapes = [y.shape for y in enumerate_trees(3)]
    # combs at the ends, balanced tree in the middle
    assert shapes[0] == ((), ((), ((), ())))
    assert shapes[2] == (((), ()), ((), ()))
    assert shapes[4] == ((((), ()), ()), ())


def test_faces_of_y2():
    t21, t12 = enumerate_trees(2)
    y1 = enumerate_trees(1)[0]
    for i in range(3):
        assert face(t21, i) == y1
        assert face(t12, i) == y1


def test_faces_of_balanced_y3():
    trees = {y.name: y for y in enumerate_trees(3)}
    bal = trees["[131]"]
    t21, t12 = enumerate_trees(2)
    # deleting either leaf of the left cherry contracts it to a leaf,
    # leaving the right comb; symmetrically for the right cherry
    assert face(bal, 0) == t21
    assert face(bal, 1) == t21
    assert face(bal, 2) == t12
    assert face(bal, 3) == t12


def test_simplicial_identities():
    # d_i d_j = d_{j-1} d_i for i < j, exhaustively through degree 5
    for m in range(2, 6):
        for y in enumerate_trees(m):
            for i in range(m + 1):
                for j in range(i + 1, m + 1):
                    assert face(face(y, j), i) == face(face(y, i), j - 1)


def test_prod_labels_on_combs():
    t21, t12 = enumerate_trees(2)
    assert [prod_label(t21, i) for i in range(3)] == [L, L, L]
    assert [prod_label(t12, i) for i in range(3)] == [R, R, R]
    right_comb3 = enumerate_trees(3)[0]
    left_comb3 = enumerate_trees(3)[4]
    assert all(prod_label(right_comb3, i) == L for i in range(4))
    assert all(prod_label(left_comb3, i) == R for i in range(4))


def _mirror(shape):
    if shape == ():
        return ()
    l, r = shape
    return (_mirror(r), _mirror(l))


def test_prod_labels_mirror_symmetry():
    # reflecting a tree reverses the slot order and swaps the two labels
    swap = {L: R, R: L}
    for m in range(1, 5):
        by_shape = {y.shape: y for y in enumerate_trees(m)}
        for y in enumerate_trees(m):
            ym = by_shape[_mirror(y.shape)]
            for i in range(m + 1):
                assert prod_label(ym, m - i) == swap[prod_label(y, i)]


def test_face_mirror_symmetry():
    for m in range(2, 5):
        by_shape = {y.shape: y for y in enumerate_trees(m)}
        for y in enumerate_trees(m):
            ym = by_shape[_mirror(y.shape)]
            for i in range(m + 1):
                assert face(ym, m - i).shape == _mirror(face(y, i).shape)


def test_index_out_of_range():
    y = enumerate_trees(2)[0]
    with pytest.raises(IndexOutOfRange):
        face(y, 3)
    with pytest.raises(IndexOutOfRange):
        prod_label(y, -1)


def test_tree_cap():
    assert len(enumerate_trees(5)) == 42
    with pytest.raises(CapExceeded, match="tree degree 6 exceeds cap 5"):
        enumerate_trees(6)


def test_enumeration_sorted_by_left_subtree_size():
    for m in range(2, 6):
        sizes = [internal_count(y.shape[0]) for y in enumerate_trees(m)]
        assert sizes == sorted(sizes)
