import hashlib
import json
import random
import warnings

import numpy as np
import pytest

from conftest import random_poset, random_system
from posetsys import cli, report
from posetsys.cli import main
from posetsys.corpus import demo_names, run_demo, system_path
from posetsys.fileio import load_system, save_system, system_to_dict
from posetsys.reduction import REDUCTION_VARIANTS, poset_reduce
from posetsys.subspace import Subspace


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys):
    code, out, _ = _run(capsys, "validate", str(system_path("exLargeEx")))
    assert code == 0
    assert "respect" in out


def test_validate_reports_bad_block(tmp_path, capsys):
    doc = json.loads(system_path("two-node-local-gap").read_text())
    doc["A"] = [[0, 7], [0, 0]]  # block (1,2) is forbidden here
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = _run(capsys, "validate", str(bad))
    assert code == 1
    assert "(1,2)" in out


def test_validate_integer_over_the_digit_limit_exits_2(tmp_path, capsys):
    doc = json.loads(system_path("two-node-local-gap").read_text())
    doc["A"][0][0] = "HUGE"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc).replace('"HUGE"', "1" * 5000))
    code, out, err = _run(capsys, "validate", str(bad))
    assert code == 2
    assert out == "" and err.startswith("error:")


def test_validate_parse_error_exit_code(tmp_path, capsys):
    doc = json.loads(system_path("two-node-local-gap").read_text())
    doc["A"][0][0] = "1/0"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = _run(capsys, "validate", str(bad))
    assert code == 2
    assert "rational" in err
    code2, _, err2 = _run(capsys, "validate", str(tmp_path / "missing.json"))
    assert code2 == 2


def test_analyze_json_and_text(capsys):
    path = str(system_path("kalman-structured-gap"))
    code, out, _ = _run(capsys, "analyze", path)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"system", "reachability", "observability", "duality", "reduction"}
    assert doc["duality"]["ok"] is True
    assert doc["reduction"]["dual_tilde"]["total_dim"] == 1

    code_text, out_text, _ = _run(capsys, "analyze", path, "--text")
    assert code_text == 0
    assert "reachability" in out_text and "duality" in out_text

    code_skip, out_skip, _ = _run(capsys, "analyze", path, "--skip-duality")
    assert code_skip == 0
    assert "duality" not in json.loads(out_skip)


def test_analyze_deterministic(capsys):
    path = str(system_path("exObsEx"))
    _, first, _ = _run(capsys, "analyze", path)
    _, second, _ = _run(capsys, "analyze", path)
    assert first == second


def test_dual_round_trip(tmp_path, capsys):
    src = str(system_path("kalman-structured-gap"))
    d1 = tmp_path / "dual.json"
    d2 = tmp_path / "double.json"
    assert _run(capsys, "dual", src, str(d1))[0] == 0
    assert _run(capsys, "validate", str(d1))[0] == 0
    assert _run(capsys, "dual", str(d1), str(d2))[0] == 0
    normalized = system_to_dict(load_system(src))
    assert json.loads(d2.read_text()) == normalized


def test_dual_of_a_pattern_violating_file_exits_1_and_writes_nothing(tmp_path, capsys):
    doc = json.loads(system_path("two-node-local-gap").read_text())
    doc["A"] = [[0, 1], [0, 0]]  # block (1,2) is forbidden here
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "dual.json"
    code, stdout, err = _run(capsys, "dual", str(bad), str(out))
    assert code == 1
    assert stdout == "" and "(1,2)" in err
    assert not out.exists()
    # analyze and reduce refuse the same file
    assert _run(capsys, "analyze", str(bad))[0] == 1
    assert _run(capsys, "reduce", str(bad), str(out))[0] == 1
    assert not out.exists()


def _pattern_violating_file(tmp_path):
    doc = json.loads(system_path("two-node-local-gap").read_text())
    doc["A"] = [[0, 1], [0, 0]]  # block (1,2) is forbidden here
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    return str(bad)


@pytest.mark.parametrize("command", [
    ["analyze"], ["analyze", "--text"], ["dual", "OUT"], ["reduce", "OUT"],
    ["simulate", "SIGNAL", "--out", "OUT"], ["simulate", "SIGNAL", "--out", "OUT", "--check-lemma"],
    ["simulate", "SIGNAL", "--check-lemma"],
])
def test_a_pattern_violating_file_is_refused_before_any_output(tmp_path, capsys, command):
    bad = _pattern_violating_file(tmp_path)
    sig = tmp_path / "sig.txt"
    sig.write_text("0 1 0\n1 0 1\n")
    out = tmp_path / "out.txt"
    argv = [command[0], bad] + [
        {"OUT": str(out), "SIGNAL": str(sig)}.get(arg, arg) for arg in command[1:]]
    code, stdout, err = _run(capsys, *argv)
    assert code == 1
    assert stdout == "" and err.startswith("error: A: block (1,2) must vanish")
    assert not out.exists()


def test_validate_reports_a_pattern_violation_on_stdout(tmp_path, capsys):
    code, stdout, err = _run(capsys, "validate", _pattern_violating_file(tmp_path))
    assert code == 1 and err == ""
    assert stdout.startswith("A: block (1,2) must vanish")


def test_reduce_variants_are_the_reduction_variants_spelled_with_hyphens(tmp_path, capsys):
    commands = next(a for a in cli._build_parser()._actions if a.dest == "command")
    variant = next(a for a in commands.choices["reduce"]._actions if a.dest == "variant")
    assert sorted(variant.choices) == ["dual-circ", "dual-tilde", "primal"]
    assert cli._VARIANT_NAMES == {"dual-circ": "dual_circ", "dual-tilde": "dual_tilde",
                                  "primal": "primal"}
    assert set(cli._VARIANT_NAMES.values()) == set(REDUCTION_VARIANTS)
    # a system whose three reductions are not all equal, so a swapped name shows
    rng = random.Random(5)
    sys = random_system(rng, random_poset(rng, rng.randint(2, 4)), max_block=2, lo=-1, hi=1)
    src = tmp_path / "sys.json"
    save_system(sys, src)
    written = {}
    for name, entry in cli._VARIANT_NAMES.items():
        out = tmp_path / f"{name}.json"
        assert _run(capsys, "reduce", str(src), str(out), "--variant", name)[0] == 0
        written[name] = json.loads(out.read_text())
        assert written[name] == system_to_dict(poset_reduce(sys, entry).system)
    assert written["dual-tilde"] != written["dual-circ"]
    with pytest.raises(SystemExit) as exc:
        main(["reduce", str(src), str(tmp_path / "x.json"), "--variant", "dual_circ"])
    assert exc.value.code == 2


def test_reduce_round_trips_through_validate(tmp_path, capsys):
    src = str(system_path("kalman-structured-gap"))
    out = tmp_path / "red.json"
    code, stdout, _ = _run(capsys, "reduce", src, str(out), "--variant", "dual-tilde")
    assert code == 0
    assert "total 1" in stdout
    assert _run(capsys, "validate", str(out))[0] == 0
    reduced = load_system(out)
    assert reduced.state_dim == 1


def test_simulate_and_check_lemma(tmp_path, capsys):
    src = str(system_path("exLargeEx"))
    sig = tmp_path / "sig.txt"
    rng = np.random.default_rng(5)
    lines = []
    for k in range(30):
        vals = rng.uniform(-1, 1, 7)
        lines.append(" ".join([f"{k * 0.01:.4f}"] + [f"{v:.6f}" for v in vals]))
    sig.write_text("\n".join(lines) + "\n")
    out = tmp_path / "traj.txt"
    code, _, err = _run(capsys, "simulate", src, str(sig), "--out", str(out), "--check-lemma")
    assert code == 0
    assert "max deviation" in err
    assert len(out.read_text().strip().splitlines()) == 31
    code2, stdout, _ = _run(capsys, "simulate", src, str(sig), "--steps", "5")
    assert code2 == 0
    assert len(stdout.strip().splitlines()) == 6


def test_demo_list_and_single(capsys):
    code, out, _ = _run(capsys, "demo", "--list")
    assert code == 0
    assert set(out.split()) == set(demo_names())
    code_one, out_one, _ = _run(capsys, "demo", "two-node-local-gap")
    assert code_one == 0
    assert "all corpus checks passed" in out_one


def test_demo_prints_a_set_as_a_sorted_list(capsys):
    # a set's repr follows its iteration order, which can differ between runs
    code, out, _ = _run(capsys, "demo", "order-basics")
    assert code == 0
    line = next(line for line in out.splitlines() if "covering edges" in line)
    assert line.endswith("computed [(1, 2), (2, 4), (3, 2)] | published [(1, 2), (2, 4), (3, 2)]")


# sha256 of the full `posetsys demo` output, which runs `pole_place` (refused at an
# uncontrollable local pair) and `char_poly_factored` on random structured feedbacks
DEMO_SHA256 = "f6b39b42c47989cac424def482b80bebcd038b8678ffa69c1df3c9bc08f18520"


def test_demo_output_is_pinned(capsys):
    code, out, err = _run(capsys, "demo")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == DEMO_SHA256


def test_every_demo_passes_without_a_fraction_basis(capsys, monkeypatch):
    # the demo compares and writes spans from the integer basis alone
    def refuse(space):
        raise AssertionError("Subspace.basis was read")

    monkeypatch.setattr(Subspace, "basis", property(refuse))
    for name in demo_names():
        assert run_demo(name).ok, name
    code, out, err = _run(capsys, "demo")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == DEMO_SHA256


def test_demo_unknown_name(capsys):
    code, _, err = _run(capsys, "demo", "nope")
    assert code == 2
    assert "unknown demo" in err


def test_internal_key_error_is_not_reported_as_bad_input(monkeypatch):
    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr(report, "analyze", broken)
    with pytest.raises(KeyError):
        main(["analyze", str(system_path("two-node-local-gap"))])


def test_analyze_reports_strict_chain_and_collapsed_bounds(capsys):
    code, out, _ = _run(capsys, "analyze", str(system_path("exLargeEx")))
    assert code == 0
    doc = json.loads(out)
    dims = [doc["reachability"][k]["dim"]
            for k in ("independent", "floor", "reachable", "ceiling")]
    assert dims == [5, 7, 8, 9]
    assert doc["reachability"]["flags"]["controllable"] is False

    code2, out2, _ = _run(capsys, "analyze", str(system_path("exObsEx")))
    assert code2 == 0
    doc2 = json.loads(out2)
    assert doc2["observability"]["ceiling"] == doc2["observability"]["independent"]
    assert doc2["observability"]["flags"]["observable"] is False


def test_simulate_with_nan_signal_exits_2(tmp_path, capsys):
    src = str(system_path("two-node-local-gap"))
    sig = tmp_path / "sig.txt"
    sig.write_text("0 1 2\n0.1 nan 2\n0.2 1 2\n")
    code, out, err = _run(capsys, "simulate", src, str(sig))
    assert code == 2
    assert "non-finite" in err
    assert out == ""
    sig.write_text("0 1 2\n0.1 1 2\n")
    assert _run(capsys, "simulate", src, str(sig))[0] == 0
    code_h, _, err_h = _run(capsys, "simulate", src, str(sig), "--h", "nan")
    assert code_h == 2
    assert "NaN" in err_h


@pytest.mark.parametrize("breakage", [
    lambda d: d.__setitem__("x0", 5),
    lambda d: d["partitions"].__setitem__("n", [1.7, 1.7]),
    lambda d: d["partitions"].__setitem__("m", [True, 1]),
    lambda d: d["poset"].__setitem__("p", 2.0),
    lambda d: d["poset"].__setitem__("edges", [[1, 3]]),
    lambda d: d.update(poset={"p": 0, "edges": []}, partitions={"n": [], "m": [], "r": []}),
    lambda d: d["poset"].__setitem__("edges", [[1, 2], [2, 1]]),
    lambda d: d.update(partitions={"n": [2, -1], "m": [1, 1], "r": [1, 1]},
                       A=[[0]], B=[[1, 0]], C=[[0], [0]]),
    lambda d: d.update(poset={"p": 1, "edges": []}, partitions={"n": [-1], "m": [1], "r": [1]}),
])
def test_analyze_bad_document_exits_2(tmp_path, capsys, breakage):
    doc = json.loads(system_path("two-node-local-gap").read_text())
    breakage(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "analyze", str(bad))
    assert code == 2
    assert out == "" and err.startswith("error:")


@pytest.mark.parametrize("breakage, named", [
    (lambda d: d["A"][0].__setitem__(0, "-1e400"), "A has an entry too large"),
    (lambda d: d.__setitem__("x0", ["1e400", 0]), "x0 has an entry too large"),
    (lambda d: d["A"][0].__setitem__(0, "1e300"), "exponential overflows"),
    (lambda d: d["A"][0].__setitem__(0, "5000"), "trajectory overflows"),
])
def test_simulate_beyond_double_precision_exits_1(tmp_path, capsys, breakage, named):
    doc = json.loads(system_path("two-node-local-gap").read_text())
    breakage(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    sig = tmp_path / "sig.txt"
    sig.write_text("0 1 2\n0.1 1 2\n0.2 1 2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, "simulate", str(bad), str(sig), "--check-lemma")
    assert code == 1
    assert out == "" and err.startswith("error:") and named in err


@pytest.mark.parametrize("width", [0, 1, 3])
def test_simulate_signal_of_the_wrong_width_exits_2(tmp_path, capsys, width):
    sig = tmp_path / "sig.txt"
    sig.write_text("".join(f"{t}" + " 1" * width + "\n" for t in (0, 0.1)))
    code, out, err = _run(capsys, "simulate", str(system_path("two-node-local-gap")), str(sig))
    assert code == 2
    assert out == "" and err.startswith(f"error: {sig}:")
    assert f"{width} input columns" in err and "2 inputs" in err


@pytest.mark.parametrize("flags", [
    ("--steps", "-1"),
    ("--steps", "-3"),
    ("--tol", "nan"),
    ("--tol", "inf"),
    ("--tol", "-1"),
    ("--steps", "5"),
])
def test_simulate_rejects_bad_steps_and_tolerance(tmp_path, capsys, flags):
    src = str(system_path("two-node-local-gap"))
    sig = tmp_path / "sig.txt"
    sig.write_text("0 1 2\n0.1 1 2\n0.2 1 2\n0.3 1 2\n")
    code, out, err = _run(capsys, "simulate", src, str(sig), "--check-lemma", *flags)
    assert code == 2
    assert out == "" and err.startswith("error:")
    code0, out0, _ = _run(capsys, "simulate", src, str(sig), "--steps", "0", "--tol", "0")
    assert code0 == 0
    assert len(out0.strip().splitlines()) == 1


def _one_node_file(tmp_path, name, A, B, C):
    doc = {"poset": {"p": 1, "edges": []}, "partitions": {"n": [len(A)], "m": [len(B[0])], "r": [len(C)]},
           "A": A, "B": B, "C": C, "D": [[0] * len(B[0]) for _ in C]}
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_an_entry_over_the_digit_limit_is_refused_and_nothing_is_written(tmp_path, capsys):
    # 10^4300 has 4301 digits, one past the default limit of integer string conversion
    src = _one_node_file(tmp_path, "big.json", [["1e4300"]], [[1]], [[1]])
    out = tmp_path / "out.json"
    for argv in (["validate", str(src)], ["dual", str(src), str(out)], ["reduce", str(src), str(out)]):
        code, stdout, err = _run(capsys, *argv)
        assert code == 2, argv
        assert stdout == "" and err.startswith("error: A: bad rational entry '1e4300'"), (argv, err)
        assert not out.exists()


def test_an_entry_at_the_digit_limit_round_trips_through_dual(tmp_path, capsys):
    src = _one_node_file(tmp_path, "edge.json", [["1e4299"]], [[1]], [[1]])
    d1, d2 = tmp_path / "dual.json", tmp_path / "double.json"
    assert _run(capsys, "dual", str(src), str(d1))[0] == 0
    assert _run(capsys, "dual", str(d1), str(d2))[0] == 0
    assert json.loads(d2.read_text()) == system_to_dict(load_system(src))
    assert load_system(d2).A.entries[0, 0] == 10**4299


def test_a_reduction_too_long_to_write_exits_2_and_writes_nothing(tmp_path, capsys):
    # every entry is within the limit, but the reduced entry 1/a + 1/b needs about 4400 digits
    a, b = 10**2199 + 7, 10**2199 + 9
    src = _one_node_file(tmp_path, "sum.json", [[f"1/{a}", f"1/{b}"], [f"1/{b}", f"1/{a}"]],
                         [[1], [1]], [[1, 1]])
    assert _run(capsys, "validate", str(src))[0] == 0
    out = tmp_path / "reduced.json"
    code, stdout, err = _run(capsys, "reduce", str(src), str(out))
    assert code == 2
    assert stdout == "" and err.startswith(f"error: cannot write {out}:") and err.count("\n") == 1
    assert not out.exists()


def test_an_analysis_too_long_to_write_exits_2_in_json_and_0_in_text(tmp_path, capsys):
    # every entry is within the limit, but ker C, the unobservable set, holds an entry of 10^5000:
    # over its pivot in the first system, and as an integer over the pivot 1 in the second
    zero = [[0] * 3 for _ in range(3)]
    over_pivot = _one_node_file(tmp_path, "over-pivot.json", zero, [[1], [0], [0]],
                                [["1", "1e2500", "0"], ["0", "1", "1e2500"]])
    integer = _one_node_file(tmp_path, "integer.json", zero, [[], [], []],
                             [["1e2500", "-1", "0"], ["0", "1e2500", "-1"]])
    for src in (over_pivot, integer):
        assert _run(capsys, "validate", str(src))[0] == 0
        code, stdout, err = _run(capsys, "analyze", str(src))
        assert code == 2, src
        assert stdout == "" and err.startswith("error: cannot write the analysis:"), (src, err)
        assert err.count("\n") == 1
        # the summary writes no basis entry, so it has nothing too long to write
        code, stdout, err = _run(capsys, "analyze", str(src), "--text")
        assert code == 0, (src, err)
        assert stdout.startswith("system: p=1 state_dim=3 valid=yes"), (src, stdout)


def test_simulate_a_system_without_inputs(tmp_path, capsys):
    # a 2-state oscillator from x0 = (1, 0); its signal file holds the time column alone
    doc = {"poset": {"p": 1, "edges": []}, "partitions": {"n": [2], "m": [0], "r": [1]},
           "A": [[0, 1], [-1, 0]], "B": [[], []], "C": [[1, 0]], "D": [[]], "x0": [1, 0]}
    src = tmp_path / "oscillator.json"
    src.write_text(json.dumps(doc))
    sig = tmp_path / "sig.txt"
    sig.write_text("".join(f"{k / 10}\n" for k in range(20)))
    out = tmp_path / "traj.txt"
    code, _, err = _run(capsys, "simulate", str(src), str(sig), "--out", str(out), "--check-lemma")
    assert code == 0, err
    rows = np.loadtxt(out)
    assert rows.shape == (21, 1 + 2 + 1)
    assert np.allclose(rows[:, 1], np.cos(rows[:, 0])) and np.allclose(rows[:, 2], -np.sin(rows[:, 0]))
