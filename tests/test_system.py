import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import det, random_poset, random_system, structured_random_matrix
from posetsys import _linalg as la
from posetsys import corpus
from posetsys.blockmat import BlockMatrix, compress, is_incident
from posetsys.corpus import load_corpus_system
from posetsys.errors import (
    IndexOutOfRange,
    PartitionMismatch,
    ShapeMismatch,
    SingularResolvent,
    ValidationError,
)
from posetsys.poset import build_poset, derived_set, dual_poset
from posetsys.reachability import profile as reachability_profile
from posetsys.system import (
    PosetCausalSystem,
    derived,
    dual_system,
    transfer_eval,
    validate,
)


def test_validate_corpus_system():
    sys = load_corpus_system("exLargeEx")
    assert validate(sys).ok


def test_validate_flags_every_bad_block():
    sys = load_corpus_system("exLargeEx")
    antichain = build_poset(4, [])
    with pytest.raises(ValidationError) as err:
        PosetCausalSystem(
            poset=antichain, n=sys.n, m=sys.m, r=sys.r,
            A=sys.A.entries, B=sys.B.entries, C=sys.C.entries, D=sys.D.entries,
        )
    message = str(err.value)
    flagged = {name: {(int(i), int(j)) for i, j in
                      re.findall(rf"^{name}: block \((\d+),(\d+)\)", message, re.M)}
               for name in "ABC"}
    assert flagged["A"] == {(2, 1), (4, 1), (4, 2), (4, 3)}
    assert flagged["B"] == {(2, 1), (4, 1), (4, 2), (4, 3)}
    assert flagged["C"] == set()
    assert "(2,1)" in message


def test_validate_zero_system_any_poset(rng):
    poset = random_poset(rng, 4)
    sys = PosetCausalSystem(
        poset=poset, n=(1, 2, 0, 1), m=(1, 1, 1, 1), r=(1, 0, 1, 1),
        A=la.zeros(4, 4), B=la.zeros(4, 4), C=la.zeros(3, 4), D=la.zeros(3, 4),
    )
    assert validate(sys).ok


def test_shape_mismatch_rejected():
    poset = build_poset(2, [(1, 2)])
    with pytest.raises(ShapeMismatch):
        PosetCausalSystem(poset=poset, n=(1, 1), m=(1,), r=(1, 1),
                          A=la.zeros(2, 2), B=la.zeros(2, 1),
                          C=la.zeros(2, 2), D=la.zeros(2, 1))
    with pytest.raises(ShapeMismatch):
        PosetCausalSystem(poset=poset, n=(1, 1), m=(1, 1), r=(1, 1),
                          A=la.zeros(3, 2), B=la.zeros(2, 2),
                          C=la.zeros(2, 2), D=la.zeros(2, 2))


def test_dual_system_involution_and_validity(rng):
    for _ in range(10):
        sys = random_system(rng, random_poset(rng, rng.randint(1, 5)))
        dual = dual_system(sys)
        assert validate(dual).ok
        assert dual.poset == dual_poset(sys.poset)
        back = dual_system(dual)
        assert back.poset == sys.poset
        for name in "ABCD":
            assert np.array_equal(getattr(back, name).entries, getattr(sys, name).entries)


def test_dual_swaps_input_output_partitions():
    sys = load_corpus_system("kalman-structured-gap")
    dual = dual_system(sys)
    assert dual.m == sys.r and dual.r == sys.m and dual.n == sys.n


def test_derived_local_and_downstream_shapes():
    sys = load_corpus_system("exLargeEx")
    down4 = derived(sys, "downstream", 4)
    assert down4.state_dim == 4
    assert np.array_equal(down4.A.entries, sys.A.block(4, 4))
    assert down4.n.nonempty == (4,)
    loc2 = derived(sys, "local", 2)
    assert loc2.A.shape == (2, 2) and loc2.B.shape == (2, 1)
    down1 = derived(sys, "downstream", 1)
    assert down1.n.nonempty == (1, 2, 4)
    assert down1.state_dim == 8 and down1.input_dim == 2
    up2 = derived(sys, "upstream", 2)
    assert up2.n.nonempty == (1, 2)
    assert up2.C.shape == (1, 4)
    glob = derived(sys, "global")
    assert glob.state_dim == sys.state_dim


def test_upstream_of_maximal_node_is_local(rng):
    sys = load_corpus_system("exLargeEx")
    # nodes 1 and 3 have singleton up-sets
    for i in (1, 3):
        up = derived(sys, "upstream", i)
        loc = derived(sys, "local", i)
        for name in "ABCD":
            assert np.array_equal(getattr(up, name).entries, getattr(loc, name).entries)


def test_antichain_downstream_is_local(rng):
    poset = build_poset(3, [])
    sys = random_system(rng, poset)
    for i in poset.nodes:
        down = derived(sys, "downstream", i)
        loc = derived(sys, "local", i)
        for name in "ABCD":
            assert np.array_equal(getattr(down, name).entries, getattr(loc, name).entries)


def test_derived_index_errors():
    sys = load_corpus_system("two-node-local-gap")
    with pytest.raises(IndexOutOfRange):
        derived(sys, "local", 3)
    with pytest.raises(IndexOutOfRange):
        derived(sys, "downstream", None)


def test_an_unknown_kind_is_a_value_error_with_or_without_a_node():
    sys = load_corpus_system("two-node-local-gap")
    for args in (("bogus",), ("bogus", 1), ("bogus", 3)):
        with pytest.raises(ValueError, match="unknown derived kind 'bogus'"):
            derived(sys, *args)
    with pytest.raises(IndexOutOfRange, match="needs a node index"):
        derived(sys, "local")


def test_partition_blocks_vanish_around_derived_sets(rng):
    # everything below a down-set (and left of an up-set) is structurally zero
    for _ in range(10):
        poset = random_poset(rng, rng.randint(1, 6))
        sys = random_system(rng, poset)
        for i in poset.nodes:
            down = derived_set(poset, {i}, "down")
            rest = set(poset.nodes) - down
            for mat in (sys.A, sys.B):
                assert la.is_zero_matrix(compress(mat, rest, down).entries)
            up = derived_set(poset, {i}, "up")
            rest = set(poset.nodes) - up
            for mat in (sys.A, sys.B):
                assert la.is_zero_matrix(compress(mat, up, rest).entries)


def test_transfer_eval_trivial_cases(rng):
    poset = build_poset(2, [(1, 2)])
    n, m, r = (1, 1), (1, 1), (1, 1)
    b0 = PosetCausalSystem(poset=poset, n=n, m=m, r=r,
                           A=la.fmat([[1, 0], [2, 3]]), B=la.zeros(2, 2),
                           C=structured_random_matrix(rng, poset, r, n),
                           D=la.fmat([[5, 0], [6, 7]]))
    assert np.array_equal(transfer_eval(b0, 9).entries, b0.D.entries)
    a0 = PosetCausalSystem(poset=poset, n=n, m=m, r=r,
                           A=la.zeros(2, 2),
                           B=structured_random_matrix(rng, poset, n, m),
                           C=structured_random_matrix(rng, poset, r, n),
                           D=structured_random_matrix(rng, poset, r, m))
    want = a0.D.entries + la.mdot(a0.C.entries, a0.B.entries)
    assert np.array_equal(transfer_eval(a0, 1).entries, want)


def test_transfer_eval_structure_and_oracle(rng):
    for _ in range(10):
        poset = random_poset(rng, rng.randint(1, 5))
        sys = random_system(rng, poset)
        s = la.F(rng.randint(7, 12), rng.randint(1, 3))
        shifted = la.eye(sys.state_dim)
        for k in range(sys.state_dim):
            shifted[k, k] = s
        shifted = shifted - sys.A.entries
        if det(shifted) == 0:
            continue
        f = transfer_eval(sys, s)
        dense = sys.D.entries + la.mdot(
            sys.C.entries, la.mdot(la.inverse(shifted), sys.B.entries)
        )
        assert np.array_equal(f.entries, dense)
        assert is_incident(f, poset)


def test_transfer_eval_singular_resolvent():
    sys = load_corpus_system("kalman-structured-gap")
    with pytest.raises(SingularResolvent):
        transfer_eval(sys, 1)  # 1 is an eigenvalue of A


def test_x0_round_trip_and_default():
    sys = load_corpus_system("two-node-local-gap")
    assert sys.x0 is None
    assert la.is_zero_matrix(sys.initial_state())
    withx0 = PosetCausalSystem(
        poset=sys.poset, n=sys.n, m=sys.m, r=sys.r,
        A=sys.A.entries, B=sys.B.entries, C=sys.C.entries, D=sys.D.entries,
        x0=[1, la.F(1, 2)],
    )
    assert withx0.x0[1, 0] == la.F(1, 2)
    with pytest.raises(ShapeMismatch):
        PosetCausalSystem(
            poset=sys.poset, n=sys.n, m=sys.m, r=sys.r,
            A=sys.A.entries, B=sys.B.entries, C=sys.C.entries, D=sys.D.entries,
            x0=[1],
        )


@pytest.mark.parametrize("build", ["checked", "derived", "dual"])
def test_a_built_system_is_immutable(build):
    # reassigning A could break the zero pattern the constructor checked
    sys = load_corpus_system("two-node-local-gap")
    sys = {"checked": sys, "derived": derived(sys, "global"), "dual": dual_system(sys)}[build]
    bad = BlockMatrix(la.fmat([[0, 1], [0, 0]]), sys.n, sys.n)
    for name, value in (("A", bad), ("n", sys.n), ("x0", la.fvec([1, 2])), ("cache", 1)):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(sys, name, value)
    with pytest.raises(AttributeError, match="immutable"):
        del sys.A
    assert sys.x0 is None and validate(sys).ok


def test_float_arrays_are_refused_and_integer_arrays_made_exact():
    poset = build_poset(1, [])
    with pytest.raises(TypeError, match="exact rational"):
        PosetCausalSystem(poset, [1], [1], [1], np.array([[0.1]]), [[1]], [[1]], [[0]])
    with pytest.raises(TypeError, match="exact rational"):
        PosetCausalSystem(poset, [1], [1], [1], [[1]], [[1]], [[1]], [[0]], x0=np.array([0.1]))
    sys = PosetCausalSystem(
        poset, [1], [1], [1], np.array([[2]]), [[1]], [[1]], [[0]], x0=np.array([[3]]))
    assert type(sys.A.entries[0, 0]) is la.F and type(sys.x0[0, 0]) is la.F
    assert sys.x0.shape == (1, 1) and sys.x0[0, 0] == 3
    assert reachability_profile(sys).controllable


def test_dual_involution_on_corpus_system():
    sys = load_corpus_system("exLargeEx")
    back = dual_system(dual_system(sys))
    assert back.poset == sys.poset
    for name in "ABCD":
        assert np.array_equal(getattr(back, name).entries, getattr(sys, name).entries)


def test_dual_keeps_symmetric_block_diagonal_feedthrough():
    poset = build_poset(2, [(1, 2)])
    d = la.fmat([[3, 0], [0, 5]])
    sys = PosetCausalSystem(
        poset=poset, n=(1, 1), m=(1, 1), r=(1, 1),
        A=la.zeros(2, 2), B=la.zeros(2, 2), C=la.zeros(2, 2), D=d,
    )
    assert np.array_equal(dual_system(sys).D.entries, d)


# the dual of each derived model is the mirrored derived model of the dual system
DUAL_KINDS = {"global": "global", "local": "local", "downstream": "upstream", "upstream": "downstream"}


def _model_nodes(poset, kind, i):
    """(state, input, output) nodes of the derived model ``kind`` at ``i``."""
    own = {i}
    down, up = derived_set(poset, own, "down"), derived_set(poset, own, "up")
    return {"global": (poset.nodes,) * 3, "local": (own,) * 3,
            "downstream": (down, own, down), "upstream": (up, up, own)}[kind]


def _assert_derived_models_are_dual(sys):
    dual = dual_system(sys)
    for kind, dual_kind in DUAL_KINDS.items():
        for i in sys.poset.nodes:
            model = derived(sys, kind, i)
            states, inputs, outputs = _model_nodes(sys.poset, kind, i)
            assert isinstance(model, PosetCausalSystem) and model.poset == sys.poset
            assert (model.n, model.m, model.r) == (
                sys.n.restrict(states), sys.m.restrict(inputs), sys.r.restrict(outputs))
            assert validate(model).ok
            lhs, rhs = dual_system(model), derived(dual, dual_kind, i)
            assert validate(rhs).ok
            assert lhs.poset == rhs.poset, (kind, i)
            assert (lhs.n, lhs.m, lhs.r) == (rhs.n, rhs.m, rhs.r), (kind, i)
            for name in "ABCD":
                assert getattr(lhs, name).equals(getattr(rhs, name)), (kind, i, name)


@pytest.mark.parametrize("name", sorted({Path(f).stem for f in corpus._SYSTEM_FILES.values()}))
def test_dual_of_a_derived_model_is_the_mirrored_model_of_the_dual(name):
    _assert_derived_models_are_dual(load_corpus_system(name))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=False), st.integers(1, 5))
def test_dual_of_a_derived_model_is_the_mirrored_model_of_the_dual_random(rng, p):
    _assert_derived_models_are_dual(random_system(rng, random_poset(rng, p)))


def test_floats_and_bools_inside_object_arrays_are_refused():
    # an object array once passed unchecked, and the float surfaced only deep in a profile
    poset = build_poset(1, [])
    half = np.array([[0.5, 0], [0, 1]], dtype=object)
    with pytest.raises(TypeError, match="exact rational"):
        PosetCausalSystem(poset, [2], [1], [1], half, [[1], [1]], [[1, 0]], [[0]])
    for bad in (np.array([0.5, 1], dtype=object), np.array([True, 1], dtype=object)):
        with pytest.raises(TypeError, match="exact rational"):
            PosetCausalSystem(poset, [2], [1], [1], [[1, 0], [0, 1]], [[1], [1]], [[1, 0]], [[0]],
                              x0=bad)


def test_inexact_x0_entries_and_evaluation_points_are_refused():
    sys = load_corpus_system("two-node-local-gap")
    mats = dict(A=sys.A.entries, B=sys.B.entries, C=sys.C.entries, D=sys.D.entries)
    for bad in ([True, 0], [0.5, 0], np.array([True, False])):
        with pytest.raises(TypeError, match="exact rational"):
            PosetCausalSystem(sys.poset, sys.n, sys.m, sys.r, x0=bad, **mats)
    for bad in (0.1, True):
        with pytest.raises(TypeError, match="exact rational"):
            transfer_eval(sys, bad)
    assert transfer_eval(sys, np.int64(7)).equals(transfer_eval(sys, 7))


def test_partition_sizes_are_never_truncated():
    poset = build_poset(1, [])
    for bad in ([1.9], [True], ["1"]):
        with pytest.raises(PartitionMismatch):
            PosetCausalSystem(poset, bad, [1], [1], [[1]], [[1]], [[1]], [[0]])
