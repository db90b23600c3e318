import dataclasses
from fractions import Fraction as F
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetsys import _linalg as la
from posetsys.blockmat import Partition
from posetsys.errors import AmbientMismatch, IncompatibleShapes
from posetsys.fileio import load_system
from posetsys.observability import profile as obs_profile
from posetsys.reachability import profile as reach_profile
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


def test_pivots_are_the_first_entries_of_the_canonical_columns():
    u = Subspace.from_columns(3, [[2, 1, 0], [0, 1, 3]])
    assert u.integer_basis.T.tolist() == [[2, 0, -3], [0, 1, 3]]
    assert u.pivots == (2, 1)
    assert u.vectors() == [[1, 0, F(-3, 2)], [0, 1, 3]]
    assert Subspace.zero(3).pivots == () and Subspace.full(2).pivots == (1, 1)


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


# apply and contains_vector on the integer basis ------------------------------
# Each must equal, by ==, the Fraction route it replaced: the map times the
# pivot-1 basis, and the rank of the pivot-1 basis beside the vector.


def _fraction_apply(space, matrix):
    return Subspace(matrix.shape[0], la.mdot(matrix, space.basis))


def _fraction_contains_vector(space, vec):
    return la.rank(np.hstack([space.basis, la.fvec(vec)])) == space.dim


def _random_map(rng, rows, cols):
    entries = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)] for _ in range(rows)]
    return la.fmat(entries).reshape(rows, cols)  # reshape: [] loses a 0 x cols shape


def _assert_integer_routes_match(rng, space):
    vectors = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(space.ambient)] for _ in range(3)]
    coords = la.fmat([[F(rng.randint(-2, 2), rng.randint(1, 2))] for _ in range(space.dim)]).reshape(-1, 1)
    vectors.append(la.mdot(space.basis, coords).ravel().tolist())  # a vector inside the space
    for vec in vectors:
        assert space.contains_vector(vec) == _fraction_contains_vector(space, vec)
    for rows in (0, 1, space.ambient, space.ambient + 2):
        matrix = _random_map(rng, rows, space.ambient)
        assert space.apply(matrix) == _fraction_apply(space, matrix)


SHIPPED = sorted(f.name for f in resources.files("posetsys.data").iterdir() if f.name.endswith(".json"))


def _profile_spaces(prof) -> list:
    spaces = []
    for f in dataclasses.fields(prof):
        value = getattr(prof, f.name)
        if isinstance(value, Subspace):
            spaces.append(value)
        elif isinstance(value, dict):
            spaces.extend(value[key] for key in sorted(value))
    return spaces


@pytest.mark.parametrize("name", SHIPPED)
def test_apply_and_contains_vector_equal_the_fraction_route_on_the_shipped_profiles(rng, name):
    sys = load_system(resources.files("posetsys.data").joinpath(name))
    a = sys.A.entries
    for space in _profile_spaces(reach_profile(sys)) + _profile_spaces(obs_profile(sys)):
        if space.ambient == sys.state_dim:
            assert space.apply(a) == _fraction_apply(space, a)
        _assert_integer_routes_match(rng, space)


_entries = st.builds(F, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def _space_and_map(draw):
    ambient = draw(st.integers(0, 5))
    column = st.lists(_entries, min_size=ambient, max_size=ambient)
    spanned = st.lists(column, max_size=ambient + 1).map(lambda cols: Subspace.from_columns(ambient, cols))
    space = draw(st.one_of(st.sampled_from([Subspace.zero(ambient), Subspace.full(ambient)]), spanned))
    rows = draw(st.integers(0, 6))
    matrix = la.fmat(draw(st.lists(column, min_size=rows, max_size=rows))).reshape(rows, ambient)
    vec = draw(column)
    return space, matrix, vec


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_space_and_map())
def test_apply_and_contains_vector_equal_the_fraction_route_on_any_operand(case):
    space, matrix, vec = case
    assert space.apply(matrix) == _fraction_apply(space, matrix)
    assert space.contains_vector(vec) == _fraction_contains_vector(space, vec)


def test_apply_keeps_the_old_contract():
    line = Subspace.from_columns(3, [[1, 2, 0]])
    with pytest.raises(IncompatibleShapes, match=r"^cannot multiply \(2, 2\) by \(3, 1\)$"):
        line.apply(la.eye(2))
    with pytest.raises(IncompatibleShapes, match=r"^cannot multiply \(3, 4\) by \(3, 1\)$"):
        line.apply(la.zeros(3, 4))
    for bad in (np.eye(3), np.array([[0.5, 0, 0]] * 3, dtype=object),
                np.array([[True, 0, 0]] * 3, dtype=object)):
        with pytest.raises(TypeError, match="exact rational"):
            line.apply(bad)
    assert line.apply(np.array([[0, 1, 0], [2, 0, 0]])) == Subspace.from_columns(2, [[2, 2]])
