"""The per-node sets on integer slices of the system cleared once.

A system keeps A, B and C cleared once (``PosetCausalSystem._integer_form``), and
the per-node routines read sub-blocks of them at the model's coordinates
(``system.model_integers``) instead of deriving each model and clearing it
again. Each slice must equal the derived model's own cleared matrix: A up to
a positive scalar, the downstream model's B columns and the upstream model's
C rows exactly. The sets must equal, by ``==``, those computed on the derived
models, on the shipped systems, their duals and the reference ladder, as
``tests/test_sim_slices.py`` checks for the float slices.
"""

from fractions import Fraction

import numpy as np
import pytest

from posetsys import _linalg as la
from posetsys.fileio import load_system
from posetsys.observability import upstream_indistinguishable
from posetsys.reachability import ctrb_matrix, downstream_reachable, weakly_locally_controllable
from posetsys.subspace import Subspace, image
from posetsys.system import derived, dual_system, model_integers
from test_global_sets_oracle import LADDER_SYSTEMS, ladder_seed_1  # noqa: F401
from test_power_loop_oracle import SHIPPED, _stem

KINDS = ("global", "local", "downstream", "upstream")
LADDER = range(sum(LADDER_SYSTEMS.values()))


def positive_multiple(got, want) -> bool:
    """Whether ``got`` is q ``want`` for one rational q > 0 (two zero matrices count)."""
    if got.shape != want.shape:
        return False
    lead = next(((x, y) for x, y in zip(got.flat, want.flat) if y), None)
    if lead is None:
        return not got.any()
    q = Fraction(*lead)
    return q > 0 and all(x == q * y for x, y in zip(got.flat, want.flat))


def cleared_columns(m):
    return la.cleared_rows(m.T)[0].T


def assert_slices_clear_every_model(sys):
    for kind in KINDS:
        for i in sys.poset.nodes if kind != "global" else (None,):
            model = derived(sys, kind, i)
            a, b, c = model_integers(sys, kind, i)
            assert positive_multiple(a, la.cleared(model.A.entries)[0]), (kind, i)
            want_b, want_c = cleared_columns(model.B.entries), la.cleared_rows(model.C.entries)[0]
            for k in range(b.shape[1]):
                assert positive_multiple(b[:, k], want_b[:, k]), (kind, i, k)
            for k in range(c.shape[0]):
                assert positive_multiple(c[k, :], want_c[k, :]), (kind, i, k)
            if kind in ("global", "downstream"):
                assert b.tolist() == want_b.tolist(), (kind, i)
            if kind in ("global", "upstream"):
                assert c.tolist() == want_c.tolist(), (kind, i)


def derived_downstream(sys, i):
    sub = derived(sys, "downstream", i)
    return image(ctrb_matrix(sub.A.entries, sub.B.entries))


def derived_upstream(sys, i):
    sub = derived(sys, "upstream", i)
    return Subspace._span(sub.state_dim, la.certified_kernel(sub.A.entries, sub.C.entries))


def derived_local_detail(sys):
    detail = {}
    for i in sys.poset.nodes:
        loc = derived(sys, "local", i)
        detail[i] = la.rank(ctrb_matrix(loc.A.entries, loc.B.entries)) == sys.n.size(i)
    return all(detail.values()), detail


def assert_sets_match_the_derived_models(sys):
    for i in sys.poset.nodes:
        assert downstream_reachable(sys, i) == derived_downstream(sys, i), i
        assert upstream_indistinguishable(sys, i) == derived_upstream(sys, i), i
    assert weakly_locally_controllable(sys) == derived_local_detail(sys)


def both(sys):
    return sys, dual_system(sys)


@pytest.mark.parametrize("entry", SHIPPED, ids=_stem)
def test_shipped_slices_clear_every_model(entry):
    for s in both(load_system(entry)):
        assert_slices_clear_every_model(s)


@pytest.mark.parametrize("entry", SHIPPED, ids=_stem)
def test_shipped_sets_match_the_derived_models(entry):
    for s in both(load_system(entry)):
        assert_sets_match_the_derived_models(s)


@pytest.mark.parametrize("k", LADDER)
def test_ladder_slices_clear_every_model(ladder_seed_1, k):  # noqa: F811
    for s in both(ladder_seed_1[k]):
        assert_slices_clear_every_model(s)


@pytest.mark.parametrize("k", LADDER)
def test_ladder_sets_match_the_derived_models(ladder_seed_1, k):  # noqa: F811
    for s in both(ladder_seed_1[k]):
        assert_sets_match_the_derived_models(s)


def test_the_integer_form_is_cleared_once_and_the_system_stays_frozen():
    sys = load_system(SHIPPED[0])
    first = sys._integer_form[0]
    assert sys._integer_form[0] is first
    assert all(type(x) is int for m in first for x in m.flat)
    with pytest.raises(AttributeError):
        sys._integer_form = None
    with pytest.raises(AttributeError):
        sys.A = None
    with pytest.raises(ValueError):
        first[0][0, 0] = 1
    assert positive_multiple(first[0], la.cleared(sys.A.entries)[0])
    assert np.array_equal(first[2], la.cleared_rows(sys.C.entries)[0])
