import json
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import random_poset, random_system
from posetsys import fileio
from posetsys.corpus import demo_names, load_corpus_system, system_path
from posetsys.errors import ParseError
from posetsys.fileio import (
    format_rational,
    load_system,
    parse_rational,
    read_signal,
    save_system,
    system_from_dict,
    system_to_dict,
    write_trajectory,
)
from posetsys.sim import InputSignal, simulate
from posetsys.system import validate


def test_parse_rational_forms():
    assert parse_rational(3) == 3
    assert parse_rational("-7") == -7
    assert parse_rational("2/3") == F(2, 3)
    assert parse_rational("0.25") == F(1, 4)
    assert parse_rational(" 1/2 ") == F(1, 2)


def test_parse_rational_rejects_bad_values():
    with pytest.raises(ParseError):
        parse_rational("1/0")
    with pytest.raises(ParseError):
        parse_rational("abc")
    with pytest.raises(ParseError):
        parse_rational(0.25)
    with pytest.raises(ParseError):
        parse_rational(True)
    for huge in ("1e1000000000", "-2.5E-1000000000"):
        with pytest.raises(ParseError, match="exponent"):
            parse_rational(huge)
    # a numerator or denominator of 4301 digits could not be written back
    for long in ("1e4300", "-1e-4300", "10e4299", "0.1e-4299", "1" + "0" * 4300):
        with pytest.raises(ParseError):
            parse_rational(long)
    assert parse_rational("-1e4299") == -(10**4299)
    assert parse_rational("1e-4299") == F(1, 10**4299)


def test_format_rational_round_trip():
    for v in (F(0), F(5), F(-3, 7), F(22, 11)):
        assert parse_rational(format_rational(v)) == v
    assert format_rational(np.int64(4)) == 4
    # the lowest-terms rule that format_basis writes every basis entry by
    assert format_rational(F(0)) == 0 and type(format_rational(F(0))) is int
    assert format_rational(F(-6, 2)) == -3 and type(format_rational(F(-6, 2))) is int
    assert format_rational(F(6, -4)) == "-3/2"
    assert format_rational(-7) == -7
    for bad in (0.5, True):
        with pytest.raises(TypeError, match="exact rational"):
            format_rational(bad)


def test_parse_rational_tells_how_to_write_a_non_integer():
    for bad in (0.25, True, None, [1]):
        with pytest.raises(ParseError, match="decimal or 'a/b' string"):
            parse_rational(bad)


def test_corpus_files_parse_and_validate():
    for name in demo_names():
        try:
            path = system_path(name)
        except KeyError:
            continue
        sys = load_system(path)
        assert validate(sys).ok


def test_round_trip_is_stable(rng, tmp_path):
    for k in range(5):
        sys = random_system(rng, random_poset(rng, rng.randint(1, 4)))
        doc = system_to_dict(sys)
        again = system_to_dict(system_from_dict(doc))
        assert doc == again
        path = tmp_path / f"sys{k}.json"
        save_system(sys, path)
        loaded = load_system(path)
        for name in "ABCD":
            assert np.array_equal(getattr(loaded, name).entries, getattr(sys, name).entries)
        assert loaded.poset == sys.poset


def test_fractional_entries_round_trip(tmp_path):
    doc = json.loads(system_path("two-node-local-gap").read_text())
    doc["A"] = [["1/3", 0], ["0.5", "2"]]
    doc["x0"] = ["3/4", 1]
    sys = system_from_dict(doc)
    assert sys.A.entries[0, 0] == F(1, 3)
    assert sys.A.entries[1, 0] == F(1, 2)
    assert sys.x0[0, 0] == F(3, 4)
    out = system_to_dict(sys)
    assert out["A"][0][0] == "1/3"
    assert out["A"][1][0] == "1/2"


def test_malformed_documents_raise_parse_error():
    good = json.loads(system_path("two-node-local-gap").read_text())
    for breakage in (
        lambda d: d.pop("A"),
        lambda d: d.pop("poset"),
        lambda d: d["partitions"].pop("n"),
        lambda d: d.__setitem__("A", [[1]]),
        lambda d: d.__setitem__("A", "nope"),
        lambda d: d["A"][0].__setitem__(0, "1/0"),
        lambda d: d.__setitem__("A", [[0, 0], [0]]),
        lambda d: d.__setitem__("x0", 5),
        lambda d: d.__setitem__("x0", "12"),
        lambda d: d["partitions"].__setitem__("n", [1.7, 1.7]),
        lambda d: d["partitions"].__setitem__("n", [1.0, 1]),
        lambda d: d["partitions"].__setitem__("m", [True, 1]),
        lambda d: d["partitions"].__setitem__("r", ["1", 1]),
        lambda d: d["partitions"].__setitem__("r", 2),
        lambda d: d["poset"].__setitem__("p", 2.0),
        lambda d: d["poset"].__setitem__("p", True),
        lambda d: d["poset"].__setitem__("edges", 5),
        lambda d: d["poset"].__setitem__("edges", "12"),
        lambda d: d["poset"].__setitem__("edges", [[1, 2, 3]]),
        lambda d: d["poset"].__setitem__("edges", [[1, 2.0]]),
        lambda d: d["poset"].__setitem__("edges", [[1, 3]]),
        lambda d: d.update(poset={"p": 0, "edges": []}, partitions={"n": [], "m": [], "r": []}),
        lambda d: d["poset"].__setitem__("edges", [[1, 2], [2, 1]]),
        lambda d: d.update(partitions={"n": [2, -1], "m": [1, 1], "r": [1, 1]},
                           A=[[0]], B=[[1, 0]], C=[[0], [0]]),
        lambda d: d.update(poset={"p": 1, "edges": []}, partitions={"n": [-1], "m": [1], "r": [1]}),
    ):
        doc = json.loads(json.dumps(good))
        breakage(doc)
        with pytest.raises(ParseError):
            system_from_dict(doc)


def test_negative_partition_size_is_named_before_any_shape():
    doc = json.loads(system_path("two-node-local-gap").read_text())
    doc["poset"] = {"p": 1, "edges": []}
    doc["partitions"] = {"n": [-1], "m": [1], "r": [1]}
    with pytest.raises(ParseError, match="partition n has a negative size -1"):
        system_from_dict(doc)
    doc["partitions"] = {"n": [1], "m": [1], "r": [-2]}
    with pytest.raises(ParseError, match="partition r has a negative size -2"):
        system_from_dict(doc)


def test_poset_errors_keep_their_message():
    doc = json.loads(system_path("two-node-local-gap").read_text())
    doc["poset"]["edges"] = [[1, 2], [2, 1]]
    with pytest.raises(ParseError, match=r"witness cycle: \[1, 2, 1\]"):
        system_from_dict(doc)
    doc["poset"]["edges"] = [[1, 3]]
    with pytest.raises(ParseError, match=r"edge \(1,3\) outside 1..2"):
        system_from_dict(doc)


def test_partition_count_is_checked_before_the_poset_is_built(monkeypatch):
    doc = json.loads(system_path("two-node-local-gap").read_text())
    doc["poset"]["p"] = 1_000_000_000

    def refuse(p, edges):
        raise AssertionError("build_poset ran before the partition check")

    monkeypatch.setattr(fileio, "build_poset", refuse)
    with pytest.raises(ParseError, match="parts"):
        system_from_dict(doc)


def test_load_system_io_errors(tmp_path):
    with pytest.raises(ParseError):
        load_system(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_system(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1,2]")
    with pytest.raises(ParseError):
        load_system(arr)


def test_signal_round_trip(tmp_path):
    path = tmp_path / "sig.txt"
    path.write_text("0 1 2\n0.5 3 4\n1.0 5 6\n")
    sig = read_signal(path)
    assert sig.step == 0.5
    assert sig.values.shape == (3, 2)
    assert sig.values[1, 1] == 4
    override = read_signal(path, step=0.25)
    assert override.step == 0.25


def test_signal_of_the_time_column_alone(tmp_path):
    path = tmp_path / "sig.txt"
    path.write_text("0\n0.5\n1.0\n")
    sig = read_signal(path)
    assert sig.step == 0.5 and sig.values.shape == (3, 0)
    path.write_text("0\n0.5 1\n")
    with pytest.raises(ParseError, match="uniform columns"):
        read_signal(path)


def test_signal_errors(tmp_path):
    path = tmp_path / "sig.txt"
    path.write_text("")
    with pytest.raises(ParseError):
        read_signal(path)
    path.write_text("0 1\n1 2 3\n")
    with pytest.raises(ParseError):
        read_signal(path)
    path.write_text("0 1\n0.5 2\n2.0 3\n")
    with pytest.raises(ParseError):
        read_signal(path)
    for text in ("0 1\n0.5 nan\n", "0 1\n0.5 -inf\n", "0 1\ninf 2\n"):
        path.write_text(text)
        with pytest.raises(ParseError, match=":2: non-finite"):
            read_signal(path, step=0.5)
    path.write_text("0 1\n0.5 2\n")
    for step in (float("nan"), float("inf"), -0.5):
        with pytest.raises(ParseError):
            read_signal(path, step=step)


def test_write_trajectory_columns(tmp_path):
    sys = load_corpus_system("two-node-local-gap")
    u = InputSignal(step=0.1, values=np.ones((3, 2)))
    traj = simulate(sys, None, u)
    out = tmp_path / "traj.txt"
    with open(out, "w") as fh:
        write_trajectory(traj, fh)
    rows = [line.split() for line in out.read_text().strip().splitlines()]
    assert len(rows) == 4
    assert len(rows[0]) == 1 + sys.state_dim + sys.output_dim
    assert float(rows[1][0]) == pytest.approx(0.1)
