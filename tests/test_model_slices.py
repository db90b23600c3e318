"""One slicer for every derived model, and a dual that views its system's entries.

``system.model_slices`` cuts a model's A, B, C, and D when it is given, from
any representation of the system's matrices, at ``system.model_coordinates``:
``derived`` cuts the exact entries, ``model_integers`` the integer form and the
decomposition check the doubles. Each cut must equal the ``np.ix_`` cut at the
``Partition.indices`` lists of the model's nodes (``conftest.ix_model_slices``)
by ``==``, dtype and shape, on the shipped systems, the reference ladder and
their duals. The global sets read the integer form whole, with no cut.
``BlockMatrix.transpose`` is a read-only view, so a dual shares its system's
exact entries.
"""

import numpy as np
import pytest

from conftest import ix_model_slices
from posetsys import _linalg as la
from posetsys.fileio import load_system, save_system
from posetsys.observability import unobservable
from posetsys.reachability import reachable
from posetsys.system import derived, dual_system, model_coordinates, model_integers, model_slices
from test_global_sets_oracle import LADDER_SYSTEMS, ladder_seed_1  # noqa: F401
from test_power_loop_oracle import SHIPPED, _stem

LADDER = range(sum(LADDER_SYSTEMS.values()))


def models(sys):
    return [("global", None)] + [(k, i) for k in ("local", "downstream", "upstream") for i in sys.poset.nodes]


def representations(sys):
    exact = tuple(getattr(sys, k).entries for k in "ABCD")
    return {"exact": exact, "integer": sys._integer_form[0], "float": tuple(map(la.mat_to_float, exact))}


def assert_cuts_equal(got, want, where):
    assert len(got) == len(want), where
    for g, w, k in zip(got, want, "ABCD"):
        assert g.dtype == w.dtype and g.shape == w.shape, (where, k)
        assert g.tolist() == w.tolist(), (where, k)


def assert_the_slicer_matches_the_ix_cuts(sys):
    reps = representations(sys)
    for kind, i in models(sys):
        coords = model_coordinates(sys, kind, i)
        assert all(type(k) is np.ndarray and k.dtype == np.intp and k.ndim == 1 for k in coords)
        for name, mats in reps.items():
            want = ix_model_slices(sys, mats, kind, i)
            assert_cuts_equal(model_slices(mats, coords), want, (kind, i, name))
        model = derived(sys, kind, i)
        got = tuple(getattr(model, k).entries for k in "ABCD")
        assert_cuts_equal(got, ix_model_slices(sys, reps["exact"], kind, i), (kind, i, "derived"))
        want = ix_model_slices(sys, reps["integer"], kind, i)
        assert_cuts_equal(model_integers(sys, kind, i), want, (kind, i, "model_integers"))


@pytest.mark.parametrize("entry", SHIPPED, ids=_stem)
def test_shipped_cuts_match_the_ix_cuts(entry):
    sys = load_system(entry)
    for s in (sys, dual_system(sys)):
        assert_the_slicer_matches_the_ix_cuts(s)


@pytest.mark.parametrize("k", LADDER)
def test_ladder_cuts_match_the_ix_cuts(ladder_seed_1, k):  # noqa: F811
    sys = ladder_seed_1[k]
    for s in (sys, dual_system(sys)):
        assert_the_slicer_matches_the_ix_cuts(s)


@pytest.mark.parametrize("entry", SHIPPED, ids=_stem)
def test_the_global_sets_read_the_integer_form_whole(entry, monkeypatch):
    seen = []

    def recorded(routine):
        def call(*args):
            seen.append(args)
            return routine(*args)

        return call

    monkeypatch.setattr(la, "invariant_span", recorded(la.invariant_span))
    monkeypatch.setattr(la, "invariant_kernel", recorded(la.invariant_kernel))
    sys = load_system(entry)
    for s in (sys, dual_system(sys)):
        seen.clear()
        reachable(s)
        unobservable(s)
        ia, ib, ic = s._integer_form[0]
        assert len(seen) == 2
        assert seen[0][0] is ia and seen[0][1] is ib
        assert seen[1][0] is ia and seen[1][1] is ic


def assert_views(got, source):
    """``got`` is the transpose of ``source``, read-only and on its memory."""
    assert not got.flags.writeable
    assert got.shape == source.shape[::-1] and got.tolist() == source.T.tolist()
    assert got.size == 0 or np.shares_memory(got, source)


@pytest.mark.parametrize("entry", SHIPPED, ids=_stem)
def test_a_dual_views_its_systems_entries(entry, tmp_path):
    sys = load_system(entry)
    dual = dual_system(sys)
    for k, source in zip("ABCD", (sys.A, sys.C, sys.B, sys.D)):
        assert_views(getattr(dual, k).entries, source.entries)
        assert_views(source.transpose().entries, source.entries)
    twice = dual_system(dual)
    for k in "ABCD":
        got, source = getattr(twice, k).entries, getattr(sys, k).entries
        assert getattr(twice, k).equals(getattr(sys, k)), k
        assert source.size == 0 or np.shares_memory(got, source), k
    path = tmp_path / "dual.json"
    save_system(dual, path)
    back = load_system(path)
    assert back.poset == dual.poset and (back.n, back.m, back.r) == (dual.n, dual.m, dual.r)
    for k in "ABCD":
        assert getattr(back, k).equals(getattr(dual, k)), k
