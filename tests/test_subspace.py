from fractions import Fraction as F

import numpy as np
import pytest

from posetsys import _linalg as la
from posetsys.blockmat import Partition
from posetsys.errors import AmbientMismatch
from posetsys.subspace import Subspace, direct_sum, image, kernel


def _random_subspace(rng, ambient, dim):
    cols = [[rng.randint(-3, 3) for _ in range(ambient)] for _ in range(dim)]
    return Subspace.from_columns(ambient, cols)


def test_image_and_kernel_basics():
    assert image(la.zeros(3, 2)).is_zero()
    assert kernel(la.eye(3)).is_zero()
    rank_one = image(la.fmat([[1, 1], [1, 1]]))
    assert rank_one.equals(Subspace.from_columns(2, [[1, 1]]))


def test_canonical_basis_is_representation_independent():
    a = Subspace.from_columns(3, [[1, 1, 0], [0, 0, 1]])
    b = Subspace.from_columns(3, [[2, 2, 2], [-1, -1, 3]])
    assert a.equals(b)
    assert np.array_equal(a.basis, b.basis)
    assert a == b and hash(a) == hash(b)


def test_contains_is_a_partial_order(rng):
    for _ in range(10):
        u = _random_subspace(rng, 5, rng.randint(0, 3))
        v = _random_subspace(rng, 5, rng.randint(0, 3))
        s = u.sum(v)
        assert s.contains(u) and s.contains(v)
        assert u.contains(u)
        if u.contains(v) and v.contains(u):
            assert u.equals(v)


def test_coordinate_span_operations():
    u = Subspace.from_columns(3, [[1, 0, 0], [0, 1, 0]])
    v = Subspace.from_columns(3, [[0, 1, 0], [0, 0, 1]])
    assert u.intersect(v).equals(Subspace.from_columns(3, [[0, 1, 0]]))
    assert u.sum(v).equals(Subspace.full(3))


def test_n_ary_sum_is_the_pairwise_fold_in_any_order(rng):
    for _ in range(10):
        parts = [_random_subspace(rng, 5, rng.randint(0, 2)) for _ in range(4)]
        folded = parts[0]
        for part in parts[1:]:
            folded = folded.sum(part)
        assert parts[0].sum(*parts[1:]) == folded
        assert Subspace.zero(5).sum(*reversed(parts)) == folded
        assert parts[0].sum() == parts[0]


def test_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        Subspace.full(2).sum(Subspace.full(3))
    with pytest.raises(AmbientMismatch):
        Subspace.full(2).sum(Subspace.zero(2), Subspace.full(3))


def test_complement_involution_and_dims(rng):
    for _ in range(10):
        u = _random_subspace(rng, 6, rng.randint(0, 6))
        c = u.complement()
        assert c.complement().equals(u)
        assert u.dim + c.dim == 6
        assert u.intersect(c).is_zero()


def test_de_morgan_complement_identities(rng):
    for _ in range(15):
        u = _random_subspace(rng, 5, rng.randint(0, 4))
        v = _random_subspace(rng, 5, rng.randint(0, 4))
        assert u.intersect(v).complement().equals(u.complement().sum(v.complement()))
        assert u.sum(v).complement().equals(u.complement().intersect(v.complement()))


def test_projection_of_complement_identity(rng):
    # projecting the complement of one space onto another equals the second
    # space minus their intersection
    for _ in range(15):
        y1 = _random_subspace(rng, 5, rng.randint(0, 4))
        y2 = _random_subspace(rng, 5, rng.randint(0, 4))
        lhs = y1.complement().project_onto(y2)
        rhs = y2.ominus(y1.intersect(y2))
        assert lhs.equals(rhs)


def test_ominus_general_form():
    u = Subspace.from_columns(2, [[1, 0], [0, 1]])
    v = Subspace.from_columns(2, [[1, 1]])
    assert u.ominus(v).equals(Subspace.from_columns(2, [[1, -1]]))


def test_project_examples():
    part = Partition((2, 2))
    u = Subspace.from_columns(4, [[0, 1, 0, 1]])
    proj = u.project(part, (2,))
    assert proj.equals(Subspace.from_columns(2, [[0, 1]]))
    assert proj.embed(part, (2,)).equals(Subspace.from_columns(4, [[0, 0, 0, 1]]))
    inside = Subspace.from_columns(4, [[0, 0, 1, 2]])
    assert inside.project(part, (2,)).embed(part, (2,)).equals(inside)


def test_project_and_section_require_matching_ambient():
    with pytest.raises(AmbientMismatch):
        Subspace.full(3).project(Partition((2, 2)), (1,))
    with pytest.raises(AmbientMismatch):
        Subspace.full(3).section(Partition((2, 2)), (1,))


def test_section_examples():
    part = Partition((2, 2))
    u = Subspace.from_columns(4, [[1, 0, 1, 0], [0, 1, 1, 0]])
    # x1 - x2 kills block 2, so the section in block 1 is the line (1, -1)
    assert u.section(part, (1,)) == Subspace.from_columns(2, [[1, -1]])
    assert u.section(part, (2,)).is_zero()
    assert u.section(part, (1, 2)) == u
    assert Subspace.zero(4).section(part, (2,)) == Subspace.zero(2)


def test_direct_sum_examples():
    line = Subspace.from_columns(2, [[1, 2]])
    both = direct_sum(line, Subspace.zero(0), Subspace.full(1))
    assert both == Subspace.from_columns(3, [[1, 2, 0], [0, 0, 1]])
    assert direct_sum() == Subspace.zero(0)
    assert direct_sum(Subspace.zero(2), line) == Subspace.from_columns(4, [[0, 0, 1, 2]])


def test_project_is_exact_projection(rng):
    part = Partition((1, 2, 0, 3))
    for _ in range(10):
        u = _random_subspace(rng, 6, rng.randint(0, 4))
        nodes = tuple(j for j in (1, 2, 3, 4) if rng.random() < 0.5)
        proj = u.project(part, nodes).embed(part, nodes)
        keep = [k for j in nodes for k in part.block_range(j)]
        mat = la.zeros(6, 6)
        for k in keep:
            mat[k, k] = F(1)
        assert proj.equals(u.apply(mat))


def test_vectors_serialization_round_trip():
    u = Subspace.from_columns(3, [[1, 2, 0], [0, 0, 3]])
    again = Subspace.from_columns(3, u.vectors())
    assert again.equals(u)


def test_zero_ambient_space():
    z = Subspace.full(0)
    assert z.dim == 0
    assert z.equals(Subspace.zero(0))


def test_contains_vector_checks_the_length():
    line = Subspace.from_columns(3, [[1, 2, 0]])
    assert line.contains_vector([2, 4, 0])
    assert line.contains_vector(la.fvec([2, 4, 0]))
    assert not line.contains_vector([0, 0, 1])
    for bad in ([1, 2], [1, 2, 0, 0], la.fvec([1, 2])):
        with pytest.raises(AmbientMismatch):
            line.contains_vector(bad)


def test_float_arrays_are_refused_and_integer_arrays_made_exact():
    with pytest.raises(TypeError, match="exact rational"):
        Subspace(2, np.array([[1.0], [0.0]]))
    with pytest.raises(TypeError, match="exact rational"):
        Subspace.full(2).contains_vector(np.array([1.0, 0.0]))
    line = Subspace(2, np.array([[2], [0]]))
    assert line == Subspace.from_columns(2, [[1, 0]])
    assert all(type(x) is F for x in line.basis.flat)
    assert line.contains_vector(np.array([3, 0]))
    assert not line.contains_vector(np.array([[0], [1]]))


def test_floats_and_bools_inside_object_arrays_are_refused():
    for bad in (0.5, True):
        with pytest.raises(TypeError, match="exact rational"):
            Subspace(2, np.array([[bad], [0]], dtype=object))
        with pytest.raises(TypeError, match="exact rational"):
            Subspace.full(2).contains_vector(np.array([bad, 0], dtype=object))


def test_columns_of_the_wrong_length_are_an_ambient_mismatch():
    for columns in ([[1, 0, 0], [1, 0]], [[1, 0], [1, 0]], [[1, 0, 0], [1, 0, 0, 0]]):
        with pytest.raises(AmbientMismatch):
            Subspace.from_columns(3, columns)


def test_boolean_entries_are_refused():
    with pytest.raises(TypeError, match="exact rational"):
        Subspace.from_columns(2, [[True, 0]])
    with pytest.raises(TypeError, match="exact rational"):
        Subspace.full(2).contains_vector([True, 0])


def test_a_list_basis_is_made_exact():
    line = Subspace(2, [[1], [0]])
    assert line == Subspace.from_columns(2, [[1, 0]])
    assert Subspace(2, [[2, 0], [0, 0]]) == line
