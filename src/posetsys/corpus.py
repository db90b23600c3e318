"""Built-in example corpus with its known analysis results.

Each demo case carries the quantities that are known for it in closed form
(reachability/observability subspaces, classification flags, reduction
dimensions). ``run_demo`` recomputes everything and compares; a mismatch is a
regression in this package.

System cases are stored as JSON files under ``posetsys/data`` so they are
shipped with the package and usable directly as CLI input files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from importlib import resources

from . import _linalg as la
from .blockmat import BlockMatrix
from .fileio import load_system
from .poset import (
    Poset,
    build_poset,
    derived_set,
    dual_poset,
    hasse_edges,
    ultra_transitivity,
)
from .reachability import char_poly_factored, pole_place
from .reachability import profile as reach_profile
from .errors import NotWeaklyLocallyControllable
from .observability import profile as obs_profile
from .duality import verify_duality
from .reduction import kalman, moments_equal, poset_reduce
from .subspace import Subspace
from .system import PosetCausalSystem

__all__ = ["DemoCheck", "DemoResult", "demo_names", "system_path", "load_corpus_system", "run_demo"]


@dataclass(frozen=True)
class DemoCheck:
    label: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class DemoResult:
    name: str
    checks: list

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


_POSETS = {
    "order-basics": (4, [(1, 2), (3, 2), (2, 4)]),
    "p1": (3, [(1, 2), (1, 3)]),
    "p2": (6, [(1, 2), (1, 3), (2, 4), (2, 5), (2, 6)]),
    "p3": (3, [(2, 1), (3, 1)]),
    "p4": (4, [(1, 2), (2, 4), (3, 4)]),
    "p5": (4, [(1, 3), (1, 4), (2, 4)]),
    "p6": (3, [(1, 2), (2, 3)]),
}

_SYSTEM_FILES = {
    "exLargeEx": "exLargeEx.json",
    "exObsEx": "exObsEx.json",
    "two-node-local-gap": "two-node-local-gap.json",
    "feedback-obstruction": "feedback-obstruction.json",
    "kalman-structured-gap": "kalman-structured-gap.json",
    "dual-reduction-minimal": "kalman-structured-gap.json",
    "strict-chain-combined": "strict-chain-combined.json",
}


def demo_names() -> list:
    return list(_RUNNERS)


def corpus_poset(name: str) -> Poset:
    p, edges = _POSETS[name]
    return build_poset(p, edges)


def system_path(name: str):
    """Filesystem path of a shipped corpus system file."""
    return resources.files("posetsys.data").joinpath(_SYSTEM_FILES[name])


def load_corpus_system(name: str) -> PosetCausalSystem:
    return load_system(system_path(name))


def _span(ambient: int, combos) -> Subspace:
    cols = []
    for combo in combos:
        vec = [0] * ambient
        for index, coef in combo.items():
            vec[index - 1] = coef
        cols.append(vec)
    return Subspace.from_columns(ambient, cols)


def _fmt_vector(vec) -> str:
    terms = []
    for k, coef in enumerate(vec, start=1):
        if coef == 0:
            continue
        if coef == 1:
            terms.append(f"e{k}")
        elif coef == -1:
            terms.append(f"-e{k}")
        else:
            terms.append(f"{coef}*e{k}")
    return "+".join(terms).replace("+-", "-") or "0"


def _fmt_space(space: Subspace) -> str:
    if space.is_zero():
        return "{0}"
    return "span{" + ", ".join(_fmt_vector(v) for v in space.vectors()) + "}"


def _space_check(label: str, computed: Subspace, combos) -> DemoCheck:
    expected = _span(computed.ambient, combos)
    ok = computed.equals(expected)
    return DemoCheck(
        label=label,
        ok=ok,
        detail=f"computed {_fmt_space(computed)} | published {_fmt_space(expected)}",
    )


def _flag_check(label: str, computed, expected) -> DemoCheck:
    # a set prints as a sorted list: its own order can differ from run to run
    shown = [sorted(v) if isinstance(v, frozenset) else v for v in (computed, expected)]
    return DemoCheck(
        label=label,
        ok=computed == expected,
        detail="computed {!r} | published {!r}".format(*shown),
    )


def run_demo(name: str) -> DemoResult:
    if name not in _RUNNERS:
        raise KeyError(f"unknown demo {name!r}; available: {', '.join(_RUNNERS)}")
    return _RUNNERS[name](name)


def _demo_order_basics(name: str) -> DemoResult:
    poset = corpus_poset(name)
    checks = [
        _flag_check("down-set of 1", derived_set(poset, {1}, "down"), frozenset({1, 2, 4})),
        _flag_check("strict down-set of 1", derived_set(poset, {1}, "strict_down"), frozenset({2, 4})),
        _flag_check("up-set of 4", derived_set(poset, {4}, "up"), frozenset({1, 2, 3, 4})),
        _flag_check("strict up-set of 2", derived_set(poset, {2}, "strict_up"), frozenset({1, 3})),
        _flag_check("covering edges", hasse_edges(poset), frozenset({(1, 2), (3, 2), (2, 4)})),
        _flag_check("transitive closure adds 1>=4", poset.geq(1, 4), True),
    ]
    return DemoResult(name=name, checks=checks)


_ULTRA = {
    "p1": (True, False),
    "p2": (True, False),
    "p3": (False, True),
    "p4": (False, True),
    "p5": (False, False),
    "p6": (True, True),
}


def _demo_poset(name: str) -> DemoResult:
    poset = corpus_poset(name)
    flags = ultra_transitivity(poset)
    checks = [
        _flag_check("in-ultra transitive", flags[0], _ULTRA[name][0]),
        _flag_check("out-ultra transitive", flags[1], _ULTRA[name][1]),
        _flag_check("dual is involutive", dual_poset(dual_poset(poset)), poset),
    ]
    if name == "p1":
        checks.append(_flag_check("dual equals the mirrored tree", dual_poset(poset), corpus_poset("p3")))
    if name == "p5":
        checks.append(_flag_check("down-set of 1", derived_set(poset, {1}, "down"), frozenset({1, 3, 4})))
        checks.append(_flag_check("up-set of 3", derived_set(poset, {3}, "up"), frozenset({1, 3})))
    if name == "p6":
        checks.append(_flag_check("covering edges form a chain", hasse_edges(poset),
                                  frozenset({(1, 2), (2, 3)})))
    return DemoResult(name=name, checks=checks)


def _demo_exlarge(name: str) -> DemoResult:
    sys = load_corpus_system(name)
    rp = reach_profile(sys)
    down = rp.embedded(sys, "downstream")
    checks = [
        _space_check("reachable set", rp.reachable,
                     [{1: 1}, {3: 1}, {4: 1}, {5: 1, 10: 1}, {6: 1}, {8: 1}, {9: 1}, {11: 1}]),
        _space_check("downstream set at 1", down[1], [{1: 1}, {3: 1}, {4: 1, 8: 1}, {9: 1}]),
        _space_check("downstream set at 2", down[2], [{4: 1}, {9: 1}]),
        _space_check("downstream set at 3", down[3], [{5: 1, 10: 1}, {6: 1, 11: 1}]),
        _space_check("downstream set at 4", down[4], [{9: 1}, {11: 1}]),
    ]
    exclusive_expect = {
        (1, 1): [{1: 1}],
        (2, 1): [{3: 1}],
        (4, 1): [{9: 1}],
        (2, 2): [{4: 1}],
        (4, 2): [{9: 1}],
        (3, 3): [],
        (4, 3): [],
        (4, 4): [{9: 1}, {11: 1}],
    }
    exclusive = rp.embedded(sys, "exclusive")
    for key in sorted(exclusive_expect):
        checks.append(_space_check(f"exclusive reach {key}", exclusive[key], exclusive_expect[key]))
    per_node = {
        1: ([{1: 1}], [{1: 1}], [{1: 1}]),
        2: ([{3: 1}, {4: 1}], [{3: 1}, {4: 1}], [{3: 1}, {4: 1}]),
        3: ([], [{6: 1}], [{5: 1}, {6: 1}]),
        4: ([{9: 1}, {11: 1}], [{8: 1}, {9: 1}, {11: 1}], [{8: 1}, {9: 1}, {10: 1}, {11: 1}]),
    }
    node = {name: rp.embedded(sys, f"node_{name}") for name in ("independent", "floor", "ceiling")}
    for j, (indep, floor, ceil) in per_node.items():
        checks.append(_space_check(f"independent part at {j}", node["independent"][j], indep))
        checks.append(_space_check(f"floor at {j}", node["floor"][j], floor))
        checks.append(_space_check(f"ceiling at {j}", node["ceiling"][j], ceil))
    checks.append(_space_check("independent sum", rp.independent,
                               [{1: 1}, {3: 1}, {4: 1}, {9: 1}, {11: 1}]))
    checks.append(_space_check("floor", rp.floor,
                               [{1: 1}, {3: 1}, {4: 1}, {6: 1}, {8: 1}, {9: 1}, {11: 1}]))
    checks.append(_space_check("ceiling", rp.ceiling,
                               [{1: 1}, {3: 1}, {4: 1}, {5: 1}, {6: 1}, {8: 1}, {9: 1}, {10: 1}, {11: 1}]))
    strict = (
        0 < rp.independent.dim < rp.floor.dim < rp.reachable.dim < rp.ceiling.dim < sys.state_dim
        and rp.floor.contains(rp.independent)
        and rp.reachable.contains(rp.floor)
        and rp.ceiling.contains(rp.reachable)
    )
    checks.append(_flag_check("strictly increasing chain of bounds", strict, True))
    image_expect = [{1: 1}, {3: 1}, {9: 1}, {11: 1}]
    a = sys.A.entries
    for label, space in (("independent sum", rp.independent), ("floor", rp.floor),
                         ("reachable set", rp.reachable)):
        checks.append(_space_check(f"A-image of {label}", space.apply(a), image_expect))
    for label, space in (("independent sum", rp.independent), ("floor", rp.floor),
                         ("reachable set", rp.reachable), ("ceiling", rp.ceiling)):
        checks.append(_flag_check(f"{label} is A-invariant", space.contains(space.apply(a)), True))
    checks.append(_flag_check("controllable", rp.controllable, False))
    checks.append(_flag_check("independently controllable", rp.independently_controllable, False))
    checks.append(_flag_check("weakly upstream controllable", rp.weakly_upstream_controllable, False))
    return DemoResult(name=name, checks=checks)


def _demo_two_node(name: str) -> DemoResult:
    sys = load_corpus_system(name)
    rp = reach_profile(sys)
    down, projected = rp.embedded(sys, "downstream"), rp.embedded(sys, "projected")
    checks = [
        _space_check("reachable set", rp.reachable, [{1: 1, 2: 1}]),
        _space_check("downstream set at 1", down[1], [{1: 1, 2: 1}]),
        _space_check("downstream set at 2", down[2], []),
        _space_check("local projection at 1", projected[(1, 1)], [{1: 1}]),
        _space_check("local projection at 2", projected[(2, 2)], []),
        _space_check("local hull", rp.local_hull, [{1: 1}]),
        _flag_check("local hull escapes the reachable set",
                    rp.reachable.contains(rp.local_hull), False),
        _flag_check("weakly locally controllable", rp.weakly_locally_controllable, False),
    ]
    return DemoResult(name=name, checks=checks)


def _demo_feedback_obstruction(name: str) -> DemoResult:
    sys = load_corpus_system(name)
    rp = reach_profile(sys)
    down, projected = rp.embedded(sys, "downstream"), rp.embedded(sys, "projected")
    checks = [
        _flag_check("controllable", rp.controllable, True),
        _space_check("downstream set at 1", down[1], [{1: 1, 3: 1}, {2: 1}, {4: 1, 5: 1}]),
        _space_check("downstream set at 2", down[2], [{3: 1, 5: 1}]),
        _space_check("downstream set at 3", down[3], [{5: 1}]),
        _space_check("local projection at 1", projected[(1, 1)], [{1: 1}, {2: 1}]),
        _space_check("local projection at 2", projected[(2, 2)], [{3: 1}]),
        _space_check("local projection at 3", projected[(3, 3)], [{5: 1}]),
        _flag_check("weakly locally controllable", rp.weakly_locally_controllable, False),
    ]
    try:
        pole_place(sys, {1: [1, 2, 1], 2: [1, 2, 1], 3: [1, 1]})
        checks.append(DemoCheck(label="pole placement refuses", ok=False,
                                detail="expected a rejection for the uncontrollable local pair"))
    except NotWeaklyLocallyControllable as exc:
        checks.append(_flag_check("pole placement refuses at block", exc.block, 2))
    rng = random.Random(123)
    stuck = True
    for _ in range(20):
        f = la.zeros(sys.input_dim, sys.state_dim)
        for i in sys.poset.nodes:
            for j in sys.poset.nodes:
                if sys.poset.geq(j, i):
                    rows = sys.m.block_range(i)
                    cols = sys.n.block_range(j)
                    for rr in rows:
                        for cc in cols:
                            f[rr, cc] = la.F(rng.randint(-5, 5))
        closed = sys.A.entries + la.mdot(sys.B.entries, f)
        fact = char_poly_factored(
            BlockMatrix(closed, sys.n, sys.n), sys.poset
        )
        if fact.eval_at(0) != 0:
            stuck = False
            break
    checks.append(_flag_check("zero stays an eigenvalue under structured feedback", stuck, True))
    return DemoResult(name=name, checks=checks)


def _demo_exobs(name: str) -> DemoResult:
    sys = load_corpus_system(name)
    op = obs_profile(sys)
    up = op.embedded(sys, "upstream")
    checks = [
        _space_check("unobservable set", op.unobservable,
                     [{2: -1, 4: 1}, {5: -1, 10: 1}, {8: 1}, {9: 1}, {11: 1}]),
        _space_check("upstream set at 1", up[1], [{2: 1}]),
        _space_check("upstream set at 2", up[2], [{1: 1}, {2: -1, 4: 1}, {3: 1}]),
        _space_check("upstream set at 3", up[3], [{5: 1}, {7: 1}]),
        _space_check("upstream set at 4", up[4],
                     [{2: 1}, {4: 1}, {5: -1, 10: 1}, {6: 1}, {8: 1}, {9: 1}, {11: 1}]),
    ]
    per_node = {
        1: ([], [{2: 1}]),
        2: ([], [{4: 1}]),
        3: ([], [{5: 1}]),
        4: ([{8: 1}, {9: 1}, {11: 1}], [{8: 1}, {9: 1}, {10: 1}, {11: 1}]),
    }
    node = {name: op.embedded(sys, f"node_{name}") for name in ("independent", "floor", "ceiling")}
    for j, (floor, outer) in per_node.items():
        checks.append(_space_check(f"floor at {j}", node["floor"][j], floor))
        checks.append(_space_check(f"independent part at {j}", node["independent"][j], outer))
        checks.append(_space_check(f"ceiling at {j}", node["ceiling"][j], outer))
    checks.append(_space_check("floor", op.floor, [{8: 1}, {9: 1}, {11: 1}]))
    full = [{2: 1}, {4: 1}, {5: 1}, {8: 1}, {9: 1}, {10: 1}, {11: 1}]
    checks.append(_space_check("ceiling", op.ceiling, full))
    checks.append(_space_check("independent meet", op.independent, full))
    strict = (
        0 < op.floor.dim < op.unobservable.dim < op.ceiling.dim < sys.state_dim
        and op.unobservable.contains(op.floor)
        and op.ceiling.contains(op.unobservable)
        and op.ceiling.equals(op.independent)
    )
    checks.append(_flag_check("strict chain with matching outer bounds", strict, True))
    checks.append(_flag_check("observable", op.observable, False))
    checks.append(_flag_check("independently observable", op.independently_observable, False))
    checks.append(_flag_check("weakly downstream observable", op.weakly_downstream_observable, False))
    return DemoResult(name=name, checks=checks)


def _demo_kalman_gap(name: str) -> DemoResult:
    sys = load_corpus_system(name)
    rp = reach_profile(sys)
    op = obs_profile(sys)
    kal = kalman(sys)
    ceiling, floor = rp.embedded(sys, "node_ceiling"), rp.embedded(sys, "node_floor")
    unobs_floor = op.embedded(sys, "node_floor")
    checks = [
        _space_check("reachable set", rp.reachable, [{1: 1}, {2: 1, 4: 1}]),
        _space_check("unobservable set", op.unobservable, [{2: 1}, {4: 1}]),
        _space_check("reachable-observable part", kal.reach_obs, [{1: 1}]),
        _space_check("reach ceiling at 1", ceiling[1], [{1: 1}, {2: 1}]),
        _space_check("reach ceiling at 2", ceiling[2], [{4: 1}]),
        _space_check("reach floor at 1", floor[1], [{1: 1}]),
        _space_check("reach floor at 2", floor[2], []),
        _space_check("unobs floor at 1", unobs_floor[1], [{2: 1}]),
        _space_check("unobs floor at 2", unobs_floor[2], [{4: 1}]),
        _flag_check("independent sum equals floor",
                    rp.independent.equals(rp.floor), True),
    ]
    red = poset_reduce(sys, "primal")
    checks.append(_flag_check("primal reduction block dims", red.block_dims, (2, 1)))
    checks.append(_space_check("primal reduction subspace", red.subspace,
                               [{1: 1}, {2: 1}, {4: 1}]))
    checks.append(_flag_check("moments preserved",
                              moments_equal(sys, red.system), True))
    same = tuple(kal.reach_obs.project(sys.n, (j,)) == red.subspace.project(sys.n, (j,))
                 for j in (1, 2))
    checks.append(_flag_check("block projections of the minimal part differ from the reduction",
                              same, (False, False)))
    return DemoResult(name=name, checks=checks)


def _demo_dual_reduction(name: str) -> DemoResult:
    sys = load_corpus_system(name)
    rp = reach_profile(sys)
    op = obs_profile(sys)
    checks = [
        _space_check("unobs floor", op.floor, [{2: 1}, {4: 1}]),
        _space_check("unobs ceiling", op.ceiling, [{2: 1}, {4: 1}]),
        _space_check("unobs independent meet", op.independent, [{2: 1}, {4: 1}]),
        _flag_check("all unobservable bounds collapse",
                    op.floor.equals(op.unobservable) and op.ceiling.equals(op.unobservable),
                    True),
        _space_check("complement of unobservable", op.unobservable.complement(),
                     [{1: 1}, {3: 1}]),
        _space_check("complement of reachable", rp.reachable.complement(),
                     [{2: 1, 4: -1}, {3: 1}]),
        _space_check("complement of reach ceiling", rp.ceiling.complement(), [{3: 1}]),
    ]
    unstructured = op.unobservable.complement().ominus(
        op.unobservable.complement().intersect(rp.reachable.complement())
    )
    checks.append(_space_check("unstructured dual-side core", unstructured, [{1: 1}]))
    red = poset_reduce(sys, "dual_tilde")
    checks.append(_flag_check("dual reduction total dimension", red.total_dim, 1))
    checks.append(_space_check("dual reduction subspace", red.subspace, [{1: 1}]))
    checks.append(_flag_check("moments preserved",
                              moments_equal(sys, red.system), True))
    return DemoResult(name=name, checks=checks)


def _demo_combined(name: str) -> DemoResult:
    sys = load_corpus_system(name)
    rep = verify_duality(sys)
    checks = [
        _flag_check("all duality identities hold", rep.ok, True),
        _flag_check("identity count is complete", len(rep.checks) >= 60, True),
    ]
    for variant in ("primal", "dual_tilde", "dual_circ"):
        red = poset_reduce(sys, variant)
        checks.append(_flag_check(f"{variant} reduction preserves moments",
                                  moments_equal(sys, red.system), True))
    return DemoResult(name=name, checks=checks)


_RUNNERS = {
    "order-basics": _demo_order_basics,
    "p1": _demo_poset,
    "p2": _demo_poset,
    "p3": _demo_poset,
    "p4": _demo_poset,
    "p5": _demo_poset,
    "p6": _demo_poset,
    "exLargeEx": _demo_exlarge,
    "two-node-local-gap": _demo_two_node,
    "feedback-obstruction": _demo_feedback_obstruction,
    "exObsEx": _demo_exobs,
    "kalman-structured-gap": _demo_kalman_gap,
    "dual-reduction-minimal": _demo_dual_reduction,
    "strict-chain-combined": _demo_combined,
}
