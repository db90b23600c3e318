"""Every subspace, flag and block size of ``analyze``, recomputed from the definitions.

The oracle shares no code with the package beyond reading a system document
(``fileio``) and calling ``report.analyze``. It closes the order by hand,
picks each derived model's coordinates by index sets and computes every space
in ``sympy`` over the rationals, from the formulas of the module docstrings:

* downstream model at j: states and outputs of the down-set of j, input j;
  upstream model at i: states and inputs of the up-set of i, output i;
* reachability, per pair i <= j: ``exclusive = R_j cap E_i``,
  ``projected = P_i R_j``; per node: ``independent_j`` sums
  ``exclusive[(j, i)]`` over the i above j, ``floor_j = E_j cap R``,
  ``ceiling_j = P_j R``; ``local_hull`` sums ``P_j R_j``;
* observability, per pair j >= i: ``confined = N_i cap E_j``,
  ``projected = P_j N_i``; per node: ``floor_j = E_j cap N``,
  ``ceiling_j = P_j N``, ``independent_j`` intersects ``P_j N_i`` over the i
  below j;
* every aggregate is the sum of its per-node spaces;
* reduction block j keeps ``ceiling_j(R) minus (inner_j(R) cap floor_j(N))``
  of the system (``primal``) or of its dual (``dual_tilde`` with the
  independent bound, ``dual_circ`` with the floor as inner).

Here R, N are the global reachable and unobservable sets, R_j, N_i those of
the derived models placed in global coordinates, E_j the coordinate block j
and P_j the coordinate projection onto it. Subspaces are compared by rank, so
the oracle's bases need not be canonical.
"""

import importlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ, Rational
from sympy.polys.matrices import DomainMatrix

from conftest import random_poset, random_system
from posetsys import fileio
from posetsys.report import analyze, render_json

REPO = Path(__file__).resolve().parents[1]
SHIPPED = sorted(Path(fileio.__file__).with_name("data").glob("*.json"))
VARIANTS = ("primal", "dual_tilde", "dual_circ")


# subspaces as column matrices over QQ, independent columns ---------------


def _zeros(rows, cols):
    return DomainMatrix.zeros((rows, cols), QQ)


def _matrix(rows, cols, entries):
    return DomainMatrix([[QQ.from_sympy(Rational(str(x))) for x in row] for row in entries],
                        (rows, cols), QQ)


def _span(rows, columns):
    """Independent columns spanning ``columns``."""
    return columns[0].hstack(*columns[1:]).columnspace() if columns else _zeros(rows, 0)


def _rank(u):
    return u.rank() if 0 not in u.shape else 0


def _kernel(m):
    return m.nullspace().transpose() if m.shape[0] else DomainMatrix.eye(m.shape[1], QQ)


def _sum(rows, spaces):
    return _span(rows, [u for u in spaces if u.shape[1]])


def _intersect(u, w):
    if not (u.shape[1] and w.shape[1]):
        return _zeros(u.shape[0], 0)
    null = _kernel(u.hstack(-w))
    return _span(u.shape[0], [u * null.extract(range(u.shape[1]), range(null.shape[1]))])


def _minus(u, w):
    """u intersected with the orthogonal complement of w."""
    return _intersect(u, _kernel(w.transpose()) if w.shape[1] else DomainMatrix.eye(u.shape[0], QQ))


def _krylov(a, b):
    columns = [b]
    for _ in range(a.shape[0] - 1):
        columns.append(a * columns[-1])
    return _span(a.shape[0], [c for c in columns if c.shape[1]])


class System:
    """A system document as sympy matrices, with its order closed by hand."""

    def __init__(self, p, geq, sizes, mats):
        self.p, self.geq, self.sizes, self.mats = p, geq, sizes, mats
        self.nodes = range(1, p + 1)
        self.total = sum(sizes["n"])

    @classmethod
    def from_doc(cls, doc):
        p = doc["poset"]["p"]
        geq = {(j, j) for j in range(1, p + 1)} | {tuple(e) for e in doc["poset"]["edges"]}
        while True:
            more = {(a, d) for a, b in geq for c, d in geq if b == c} - geq
            if not more:
                break
            geq |= more
        sizes = {k: list(doc["partitions"][k]) for k in "nmr"}
        shapes = {"A": "nn", "B": "nm", "C": "rn", "D": "rm"}
        mats = {name: _matrix(sum(sizes[r]), sum(sizes[c]), doc[name])
                for name, (r, c) in shapes.items()}
        return cls(p, geq, sizes, mats)

    def dual(self):
        mats = {"A": self.mats["A"].transpose(), "B": self.mats["C"].transpose(),
                "C": self.mats["B"].transpose(), "D": self.mats["D"].transpose()}
        sizes = {"n": self.sizes["n"], "m": self.sizes["r"], "r": self.sizes["m"]}
        return System(self.p, {(b, a) for a, b in self.geq}, sizes, mats)

    def down(self, j):
        return {i for i in self.nodes if (j, i) in self.geq}

    def up(self, j):
        return {i for i in self.nodes if (i, j) in self.geq}

    def idx(self, part, nodes):
        sizes = self.sizes[part]
        return [k for j in sorted(nodes) for k in range(sum(sizes[: j - 1]), sum(sizes[:j]))]

    def block(self, nodes):
        """E: the identity columns of the blocks in ``nodes``."""
        return DomainMatrix.eye(self.total, QQ).extract(range(self.total), self.idx("n", nodes))

    def project(self, u, j):
        e = self.block({j})
        return e * (e.transpose() * u)

    def place(self, local, nodes):
        return self.block(nodes) * local

    def sub(self, name, rows, cols):
        row_part, col_part = {"A": "nn", "B": "nm", "C": "rn"}[name]
        return self.mats[name].extract(self.idx(row_part, rows), self.idx(col_part, cols))

    def local_rank(self, name, j):
        a = self.sub("A", {j}, {j})
        if name == "B":
            return _rank(_krylov(a, self.sub("B", {j}, {j})))
        return _rank(_krylov(a.transpose(), self.sub("C", {j}, {j}).transpose()))


def reach_oracle(s):
    x = s.total
    reach = _krylov(s.mats["A"], s.mats["B"])
    down = {}
    for j in s.nodes:
        d = s.down(j)
        local = _krylov(s.sub("A", d, d), s.sub("B", d, {j}))
        down[j] = s.place(local, d)
    exclusive = {(i, j): _intersect(down[j], s.block({i})) for j in s.nodes for i in s.down(j)}
    projected = {(i, j): s.project(down[j], i) for j in s.nodes for i in s.down(j)}
    node = {
        "node_independent": {j: _sum(x, [exclusive[(j, i)] for i in s.up(j)]) for j in s.nodes},
        "node_floor": {j: _intersect(s.block({j}), reach) for j in s.nodes},
        "node_ceiling": {j: s.project(reach, j) for j in s.nodes},
    }
    spaces = {"reachable": reach, "downstream": down, "exclusive": exclusive,
              "projected": projected, **node}
    for name in ("independent", "floor", "ceiling"):
        spaces[name] = _sum(x, node[f"node_{name}"].values())
    spaces["local_hull"] = _sum(x, [projected[(j, j)] for j in s.nodes])
    flags = {
        "controllable": _rank(reach) == x,
        "independently_controllable": _rank(spaces["independent"]) == x,
        "weakly_upstream_controllable": _rank(spaces["ceiling"]) == x,
        "weakly_locally_controllable": all(
            s.local_rank("B", j) == s.sizes["n"][j - 1] for j in s.nodes),
    }
    return spaces, flags


def obs_oracle(s):
    x = s.total
    unobs = _kernel(_krylov(s.mats["A"].transpose(), s.mats["C"].transpose()).transpose())
    upstream = {}
    for i in s.nodes:
        u = s.up(i)
        local = _kernel(_krylov(s.sub("A", u, u).transpose(), s.sub("C", {i}, u).transpose())
                        .transpose())
        upstream[i] = s.place(local, u)
    confined = {(i, j): _intersect(upstream[i], s.block({j})) for i in s.nodes for j in s.up(i)}
    projected = {(i, j): s.project(upstream[i], j) for i in s.nodes for j in s.up(i)}
    independent = {}
    for j in s.nodes:
        meet = s.block({j})
        for i in s.down(j):
            meet = _intersect(meet, projected[(i, j)])
        independent[j] = meet
    node = {
        "node_independent": independent,
        "node_floor": {j: _intersect(s.block({j}), unobs) for j in s.nodes},
        "node_ceiling": {j: s.project(unobs, j) for j in s.nodes},
    }
    spaces = {"unobservable": unobs, "upstream": upstream, "confined": confined,
              "projected": projected, **node}
    for name in ("independent", "floor", "ceiling"):
        spaces[name] = _sum(x, node[f"node_{name}"].values())
    flags = {
        "observable": _rank(unobs) == 0,
        "independently_observable": _rank(spaces["independent"]) == 0,
        "weakly_downstream_observable": _rank(spaces["floor"]) == 0,
        "weakly_locally_observable": all(
            s.local_rank("C", j) == s.sizes["n"][j - 1] for j in s.nodes),
    }
    return spaces, flags


def reduction_oracle(s, profiles):
    """{variant: (subspace, block dims, projection-optimal)} from the block formula."""
    reach, unobs = profiles["sys"][0][0]["reachable"], profiles["sys"][1][0]["unobservable"]
    reach_obs = _minus(reach, _intersect(reach, unobs))
    out = {}
    for variant in VARIANTS:
        (rp, _), (op, _) = profiles["sys" if variant == "primal" else "dual"]
        inner = rp["node_floor" if variant == "dual_circ" else "node_independent"]
        parts = [_minus(rp["node_ceiling"][j], _intersect(inner[j], op["node_floor"][j]))
                 for j in s.nodes]
        kept = _sum(s.total, parts)
        optimal = all(
            _same(s.project(kept, j), s.project(reach_obs, j)) for j in s.nodes)
        out[variant] = (kept, [_rank(part) for part in parts], optimal)
    return out


def _same(u, w):
    return _rank(u) == _rank(w) == _rank(u.hstack(w))


def _json_space(space, ambient):
    columns = [_matrix(ambient, 1, [[x] for x in vec]) for vec in space["basis"]]
    basis = _span(ambient, columns)
    assert space["dim"] == len(columns) == _rank(basis)
    return basis


def _key(key):
    return str(key) if isinstance(key, int) else f"{key[0]},{key[1]}"


def _assert_profile(section, spaces, flags, ambient):
    assert set(section) == set(spaces) | {"flags"} | ({"duality_route_agrees"} & set(section))
    for name, want in spaces.items():
        if isinstance(want, dict):
            assert set(section[name]) == {_key(k) for k in want}, name
            for key, space in want.items():
                got = _json_space(section[name][_key(key)], ambient)
                assert _same(got, space), (name, key)
        else:
            assert _same(_json_space(section[name], ambient), want), name
    assert section["flags"] == flags


def assert_matches_definitions(doc):
    s = System.from_doc(doc)
    report = json.loads(render_json(analyze(fileio.system_from_dict(doc))))
    assert report["system"] == {
        "p": s.p, "partitions": s.sizes, "state_dim": s.total, "valid": True}
    profiles = {}
    for side, sys in (("sys", s), ("dual", s.dual())):
        profiles[side] = (reach_oracle(sys), obs_oracle(sys))
    (rp, rflags), (op, oflags) = profiles["sys"]
    _assert_profile(report["reachability"], rp, rflags, s.total)
    _assert_profile(report["observability"], op, oflags, s.total)
    assert report["observability"]["duality_route_agrees"] is True
    # 6 aggregate identities, 6 flag pairs, and both directions of every
    # upstream, node bound (3 each) and pair space (confined and projected)
    pairs = len(rp["exclusive"])
    assert report["duality"] == {
        "ok": True, "checks": 12 + 2 * (4 * s.p + 2 * pairs), "failures": []}
    for variant, (kept, dims, optimal) in reduction_oracle(s, profiles).items():
        got = report["reduction"][variant]
        assert got["block_dims"] == dims, variant
        assert got["total_dim"] == sum(dims)
        assert got["moment_horizon"] == max(s.total + sum(dims) - 1, 0)
        assert got["moments_match"] is True
        assert got["optimal_hypothesis"] == optimal, variant
        assert _same(_json_space(got["subspace"], s.total), kept), variant


@pytest.mark.parametrize("path", SHIPPED, ids=lambda path: path.stem)
def test_shipped_systems_match_the_definitions(path):
    assert_matches_definitions(json.loads(path.read_text(encoding="utf-8")))


def test_reference_ladder_system_matches_the_definitions(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    ladder = importlib.import_module("ladder")
    system = ladder.generate(ladder.REFERENCE_SEED)[("n9", 0)]
    assert system.state_dim == 9
    assert_matches_definitions(json.loads(ladder.system_json(system)))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=False), st.integers(1, 4))
def test_random_systems_match_the_definitions(rng, p):
    system = random_system(rng, random_poset(rng, p), max_block=min(3, 10 // p))
    assert system.state_dim <= 10
    assert_matches_definitions(fileio.system_to_dict(system))
