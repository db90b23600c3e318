"""Analysis report assembly and rendering (structured JSON and plain text).

``analyze`` returns plain values and Subspaces; ``render_json`` writes them,
each subspace as ``{"dim", "basis"}`` with its canonical basis in
``fileio.format_basis``'s text, and ``render_text`` reads only dimensions and
flags, so it never formats a basis. The JSON is deterministic: identical
systems produce byte-identical JSON because every subspace is serialized
through its canonical basis and all keys are emitted in a fixed order.
"""

from __future__ import annotations

import json
from dataclasses import fields

from .duality import DualityReport, profile_via_duality, verify_duality
from .errors import ParseError, StructureViolation
from .fileio import format_basis
from .observability import profile as obs_profile
from .reachability import profile as reach_profile
from .reduction import REDUCTION_VARIANTS, poset_reduce
from .subspace import Subspace
from .system import PosetCausalSystem

__all__ = ["analyze", "render_json", "render_text"]


def _space(sub: Subspace) -> dict:
    return {"dim": sub.dim, "basis": format_basis(sub)}


def _pair_key(key) -> str:
    return f"{key[0]},{key[1]}"


def _space_map(d: dict) -> dict:
    return {str(k) if isinstance(k, int) else _pair_key(k): v for k, v in sorted(d.items())}


def _profile(prof, sys: PosetCausalSystem, **extra) -> dict:
    """Every field of a profile of ``sys`` in field order, in global coordinates, its flags last."""
    out: dict = {}
    flags: dict = {}
    for f in fields(prof):
        value = getattr(prof, f.name)
        if isinstance(value, bool):
            flags[f.name] = value
        elif isinstance(value, dict):
            out[f.name] = _space_map(prof.embedded(sys, f.name))
        else:
            out[f.name] = value
    return {**out, **extra, "flags": flags}


def analyze(sys: PosetCausalSystem, skip_duality: bool = False) -> dict:
    """Full analysis of a system: plain values and Subspaces; ``render_json`` writes them."""
    report: dict = {}
    report["system"] = {
        "p": sys.poset.p,
        "partitions": {"n": list(sys.n.sizes), "m": list(sys.m.sizes), "r": list(sys.r.sizes)},
        "state_dim": sys.state_dim,
        "valid": True,  # the constructor checked the pattern
    }
    report["reachability"] = _profile(reach_profile(sys), sys)
    op = obs_profile(sys)
    if op != profile_via_duality(sys):
        raise StructureViolation("direct and duality observability routes disagree (internal bug)")
    report["observability"] = _profile(op, sys, duality_route_agrees=True)
    if not skip_duality:
        drep: DualityReport = verify_duality(sys)
        report["duality"] = {
            "ok": drep.ok,
            "checks": len(drep.checks),
            "failures": [
                {"name": c.name, "scope": c.scope, "lhs": c.lhs, "rhs": c.rhs}
                for c in drep.failures
            ],
        }
    report["reduction"] = {}
    for variant in REDUCTION_VARIANTS:
        red = poset_reduce(sys, variant)
        report["reduction"][variant] = {
            "block_dims": list(red.block_dims),
            "total_dim": red.total_dim,
            "moment_horizon": red.moment_horizon,
            "moments_match": True,
            "optimal_hypothesis": red.optimal_hypothesis,
            "subspace": red.subspace,
        }
    return report


def render_json(report: dict) -> str:
    """The report as indented JSON, each Subspace as its dim and canonical basis.

    An entry too long for decimal text (``sys.get_int_max_str_digits()``)
    raises ``ParseError``.
    """
    try:
        return json.dumps(report, indent=2, default=_space) + "\n"
    except ValueError as exc:  # a numerator or denominator over the digit limit
        raise ParseError(f"cannot write the analysis: {exc}") from exc


def _chain(dims) -> str:
    return " <= ".join(str(d) for d in dims)


def render_text(report: dict) -> str:
    lines = []
    sysinfo = report["system"]
    lines.append(f"system: p={sysinfo['p']} state_dim={sysinfo['state_dim']} valid=yes")
    lines.append(f"  partitions n={sysinfo['partitions']['n']} "
                 f"m={sysinfo['partitions']['m']} r={sysinfo['partitions']['r']}")
    rp = report["reachability"]
    lines.append("reachability:")
    lines.append(
        "  dims independent/floor/reachable/ceiling: "
        + _chain([rp[name].dim for name in ("independent", "floor", "reachable", "ceiling")])
        + f" (state_dim {sysinfo['state_dim']})"
    )
    for name, value in rp["flags"].items():
        lines.append(f"  {name}: {'yes' if value else 'no'}")
    op = report["observability"]
    lines.append("observability:")
    lines.append(
        "  dims floor/unobservable/ceiling/independent: "
        + _chain([op[name].dim for name in ("floor", "unobservable", "ceiling", "independent")])
    )
    for name, value in op["flags"].items():
        lines.append(f"  {name}: {'yes' if value else 'no'}")
    lines.append(f"  duality route agrees: {'yes' if op['duality_route_agrees'] else 'NO'}")
    if "duality" in report:
        dd = report["duality"]
        lines.append(f"duality: {dd['checks']} identities, "
                     f"{'all hold' if dd['ok'] else str(len(dd['failures'])) + ' FAILED'}")
    lines.append("reduction:")
    for variant, info in report["reduction"].items():
        lines.append(
            f"  {variant}: block dims {info['block_dims']} total {info['total_dim']}"
            f" moments ok to k={info['moment_horizon']}"
            f"{' (projection-optimal)' if info['optimal_hypothesis'] else ''}"
        )
    return "\n".join(lines) + "\n"
