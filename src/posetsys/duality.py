"""Explicit verification of the reachability/observability duality identities.

Both sides of every identity are computed independently: reachability and
observability profiles of the system and of its dual, with no shared
intermediate results; which spaces pair up is read from
``observability.DUAL_SPACES``. Failures are collected, never raised; a failing
entry means an implementation bug somewhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .observability import DUAL_SPACES, dual_key
from .observability import profile as obs_profile
from .reachability import profile as reach_profile
from .subspace import Subspace
from .system import PosetCausalSystem, dual_system, require_valid

__all__ = ["DualityReport", "IdentityCheck", "verify_duality"]


@dataclass(frozen=True)
class IdentityCheck:
    """One verified identity; bases are kept only for failures."""

    name: str
    scope: str
    ok: bool
    lhs: list | None = None
    rhs: list | None = None


@dataclass(frozen=True)
class DualityReport:
    checks: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> list:
        return [c for c in self.checks if not c.ok]

    def describe(self) -> str:
        if self.ok:
            return f"all {len(self.checks)} duality identities hold"
        lines = [f"{len(self.failures)} of {len(self.checks)} duality identities FAILED:"]
        for c in self.failures:
            lines.append(f"  {c.name} [{c.scope}] lhs={c.lhs} rhs={c.rhs}")
        return "\n".join(lines)


def _check(name: str, scope: str, lhs: Subspace, rhs: Subspace) -> IdentityCheck:
    if lhs == rhs:
        return IdentityCheck(name=name, scope=scope, ok=True)
    return IdentityCheck(
        name=name,
        scope=scope,
        ok=False,
        lhs=[[str(x) for x in v] for v in lhs.vectors()],
        rhs=[[str(x) for x in v] for v in rhs.vectors()],
    )


def _flag(name: str, scope: str, lhs: bool, rhs: bool) -> IdentityCheck:
    return IdentityCheck(name=name, scope=scope, ok=lhs == rhs, lhs=lhs, rhs=rhs)


# (reachability flag, observability flag, also checked with system and dual swapped)
_FLAGS = (
    ("controllable", "observable", True),
    ("weakly_locally_controllable", "weakly_locally_observable", True),
    ("independently_controllable", "independently_observable", False),
    ("weakly_upstream_controllable", "weakly_downstream_observable", False),
)


def _scope(key) -> str:
    return f"pair ({key[0]},{key[1]})" if isinstance(key, tuple) else f"node {key}"


def verify_duality(sys: PosetCausalSystem) -> DualityReport:
    """Check every aggregate, per-node and per-pair duality identity exactly."""
    require_valid(sys)
    dual = dual_system(sys)
    rp, op = reach_profile(sys), obs_profile(sys)
    rpd, opd = reach_profile(dual), obs_profile(dual)
    checks: list[IdentityCheck] = []

    # aggregates sum the per-node bounds, so they pair as those do, by complement
    for name, dual_name in DUAL_SPACES.items():
        if not name.startswith("node_"):
            continue
        name, dual_name = name.removeprefix("node_"), dual_name.removeprefix("node_")
        checks.append(_check(f"dual {dual_name} = {name}^perp", "aggregate",
                             getattr(rpd, dual_name), getattr(op, name).complement()))
        checks.append(_check(f"dual unobs {name} = {dual_name}^perp", "aggregate",
                             getattr(opd, name), getattr(rp, dual_name).complement()))

    # each space of one system is the complement, in its blocks, of the paired space of the other
    for name, dual_name in DUAL_SPACES.items():
        for key, space in getattr(opd, name).items():
            rhs = getattr(rp, dual_name)[dual_key(key)].complement()
            checks.append(_check(f"dual unobs {name} = {dual_name}^perp", _scope(key), space, rhs))
        for key, space in getattr(op, name).items():
            lhs = getattr(rpd, dual_name)[dual_key(key)]
            checks.append(_check(f"dual {dual_name} = unobs {name}^perp", _scope(key),
                                 lhs, space.complement()))

    for reach_flag, obs_flag, both_ways in _FLAGS:
        checks.append(_flag(f"{reach_flag} <-> dual {obs_flag}", "flags",
                            getattr(rp, reach_flag), getattr(opd, obs_flag)))
        if both_ways:
            checks.append(_flag(f"{obs_flag} <-> dual {reach_flag}", "flags",
                                getattr(op, obs_flag), getattr(rpd, reach_flag)))
    return DualityReport(checks=checks)
