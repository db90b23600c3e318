"""Fuzzed system documents: bad input is reported, never a traceback.

Each example takes a shipped system document, with an ``x0`` added so that it
is fuzzed too, and applies a few random mutations: a value anywhere in the
tree is replaced by one of another type (scalars for lists, floats and
booleans for sizes, strings, nulls, NaN) or a key or list element is dropped.
A document that loads must keep its sizes exactly, not truncated.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from posetsys.cli import main
from posetsys.corpus import system_path
from posetsys.errors import PosetSysError
from posetsys.fileio import system_from_dict, system_to_dict
from posetsys.system import PosetCausalSystem

DOCS = {
    name: json.loads(system_path(name).read_text())
    for name in ("two-node-local-gap", "kalman-structured-gap", "feedback-obstruction")
}
for _doc in DOCS.values():
    _doc["x0"] = [0] * sum(_doc["partitions"]["n"])

ODD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 6),
    st.sampled_from([0.0, 1.0, 1.7, -2.5, math.nan, math.inf]),
    st.sampled_from(["", "x", "2", "1/3", "1/0", "0.5", "-1"]),
    st.lists(st.integers(-2, 4), max_size=4),
    st.sampled_from([[[1]], [[0, 1], [1]], [[1, 2]], {}, {"p": 1}]),
).map(copy.deepcopy)  # later mutations may edit an inserted value in place


def _integer_slots(doc):
    """(container, key) of every integer the document's structure rests on."""
    slots = [(doc["poset"], "p")]
    slots += [(edge, k) for edge in doc["poset"]["edges"] for k in range(2)]
    slots += [(sizes, k) for sizes in doc["partitions"].values() for k in range(len(sizes))]
    return slots


@st.composite
def mutated_docs(draw):
    doc = copy.deepcopy(DOCS[draw(st.sampled_from(sorted(DOCS)))])
    targeted = draw(st.booleans())
    if targeted:
        container, key = draw(st.sampled_from(_integer_slots(doc)))
        container[key] = draw(ODD_VALUES)
    for _ in range(draw(st.integers(0 if targeted else 1, 2))):
        node = doc
        while True:
            key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            child = node[key]
            if isinstance(child, (dict, list)) and child and draw(st.booleans()):
                node = child
                continue
            break
        if draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(ODD_VALUES)
    return doc


FUZZ = settings(max_examples=300, deadline=None, derandomize=True)


@FUZZ
@given(mutated_docs())
def test_system_from_dict_raises_only_package_errors(doc):
    try:
        system = system_from_dict(doc)
    except PosetSysError:
        return
    assert isinstance(system, PosetCausalSystem)
    loaded = system_to_dict(system)
    assert json.dumps(loaded["partitions"]) == json.dumps(doc["partitions"])
    assert json.dumps(loaded["poset"]["p"]) == json.dumps(doc["poset"]["p"])


@settings(FUZZ, max_examples=100)
@given(mutated_docs())
def test_analyze_exit_code_is_0_1_or_2(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "system.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["analyze", str(path)])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error:")
