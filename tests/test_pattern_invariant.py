"""The constructor keeps the poset's zero pattern, checked against an entrywise oracle.

A random valid system gets one entry of A, B, C or D set to a nonzero value.
The oracle decides from ``poset.geq`` and the partition sizes alone whether
that entry's block may be nonzero: block (i, j) may be nonzero exactly when
node j is above node i.
"""

import json
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_poset, random_system
from posetsys.corpus import system_path
from posetsys.errors import ValidationError
from posetsys.fileio import system_from_dict
from posetsys.system import PosetCausalSystem

PROPERTIES = settings(max_examples=200, deadline=None, derandomize=True)
NONZERO = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


def _node_of(sizes, index: int) -> int:
    """The node whose block holds coordinate ``index`` (0-based) of a partition."""
    return next(node for node, end in enumerate(accumulate(sizes), start=1) if index < end)


@PROPERTIES
@given(st.randoms(use_true_random=False), st.integers(1, 4), st.data())
def test_constructor_raises_exactly_when_the_set_entry_is_forbidden(rng, p, data):
    sys = random_system(rng, random_poset(rng, p))
    parts = {"A": (sys.n, sys.n), "B": (sys.n, sys.m), "C": (sys.r, sys.n), "D": (sys.r, sys.m)}
    mats = {name: getattr(sys, name).entries.copy() for name in "ABCD"}
    name = data.draw(st.sampled_from([k for k in "ABCD" if mats[k].size]))
    rows, cols = parts[name]
    row = data.draw(st.integers(0, rows.total - 1))
    col = data.draw(st.integers(0, cols.total - 1))
    mats[name][row, col] = data.draw(NONZERO)
    i, j = _node_of(rows.sizes, row), _node_of(cols.sizes, col)

    def build():
        return PosetCausalSystem(sys.poset, sys.n, sys.m, sys.r, **mats)

    if sys.poset.geq(j, i):
        assert getattr(build(), name).entries[row, col] == mats[name][row, col]
    else:
        with pytest.raises(ValidationError) as err:
            build()
        assert str(err.value) == f"{name}: block ({i},{j}) must vanish (node {j} is not above {i})"


def test_node_of_walks_the_partition():
    assert [_node_of((2, 0, 1, 3), k) for k in range(6)] == [1, 1, 3, 4, 4, 4]


def test_a_pattern_violating_document_raises_validation_error_not_parse_error():
    doc = json.loads(system_path("two-node-local-gap").read_text())
    doc["A"] = [[0, "1/2"], [0, 0]]  # block (1,2) is forbidden here
    with pytest.raises(ValidationError) as err:
        system_from_dict(doc)
    assert type(err.value) is ValidationError
    assert str(err.value).startswith("A: block (1,2) must vanish")

