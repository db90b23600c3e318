"""The analysis JSON of every shipped system is byte-identical to its recorded golden."""

import hashlib
import json
from importlib import resources
from pathlib import Path

import pytest

from posetsys import _linalg as la
from posetsys import report
from posetsys.corpus import load_corpus_system
from posetsys.errors import ParseError
from posetsys.fileio import format_basis, format_rational, load_system
from posetsys.subspace import Subspace
from test_global_sets_oracle import LADDER_SYSTEMS, ladder_seed_1  # noqa: F401

GOLDENS = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "goldens.json").read_text(encoding="utf-8")
)["corpus"]
SHIPPED = sorted(
    (entry for entry in resources.files("posetsys.data").iterdir() if entry.name.endswith(".json")),
    key=lambda entry: entry.name,
)


def test_every_shipped_system_has_a_golden():
    assert sorted(Path(entry.name).stem for entry in SHIPPED) == sorted(GOLDENS)


@pytest.mark.parametrize("entry", SHIPPED, ids=lambda entry: Path(entry.name).stem)
def test_analyze_json_matches_golden(entry):
    text = report.render_json(report.analyze(load_system(entry)))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == GOLDENS[Path(entry.name).stem]["analyze_sha256"]


# bench/goldens.json holds no analyzed n37 system; this pins the reference seed's replica 0,
# whose tall Krylov matrices and sums carry the largest integers the seed-1 ladder eliminates
LADDER_INDEX_N37 = LADDER_SYSTEMS["n9"] + LADDER_SYSTEMS["n22"]
N37_ANALYZE_SHA256 = "1189b8dd7ac6ca021f040a62cc8047e8e92287493c34ab3e6c64bbec8bd4aa92"


def test_reference_ladder_n37_analyze_json_is_pinned(ladder_seed_1):  # noqa: F811
    system = ladder_seed_1[LADDER_INDEX_N37]
    assert system.state_dim == 37
    text = report.render_json(report.analyze(system))
    assert hashlib.sha256(text.encode()).hexdigest() == N37_ANALYZE_SHA256


@pytest.mark.parametrize("columns", [
    [[2, 0], [-3, 4], [6, -6]],
    [[0], [5], [-10], [7]],
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[4, 2], [6, 9], [-8, 1], [0, 3]],
])
def test_a_space_renders_its_integer_basis_as_the_fraction_route_does(columns):
    # each entry over its column's pivot, in lowest terms: the same ints and "a/b" strings as
    # format_rational gives on the Fraction basis that Subspace.vectors() forms
    sub = Subspace(len(columns), la.fmat(columns))
    assert format_basis(sub) == [[format_rational(x) for x in vec] for vec in sub.vectors()]


def _leaves(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def test_analyze_returns_every_space_as_a_subspace_and_text_formats_none(monkeypatch):
    doc = report.analyze(load_corpus_system("strict-chain-combined"))
    # every profile space, global or per key, and every reduction's subspace is a Subspace,
    # and every other leaf of the report is a plain value
    spaces = [doc[side][name] for side in ("reachability", "observability") for name in doc[side]
              if name not in ("flags", "duality_route_agrees")]
    spaces = [sub for s in spaces for sub in (s.values() if isinstance(s, dict) else [s])]
    spaces += [info["subspace"] for info in doc["reduction"].values()]
    assert spaces and all(type(sub) is Subspace for sub in spaces)
    assert [x for x in _leaves(doc) if type(x) not in (bool, int, str)] == spaces

    def refuse(sub):
        raise ValueError("a basis was formatted")

    monkeypatch.setattr(report, "format_basis", refuse)
    assert report.render_text(doc).startswith("system: p=4 state_dim=11 valid=yes")
    with pytest.raises(ParseError, match="cannot write the analysis: a basis was formatted"):
        report.render_json(doc)
