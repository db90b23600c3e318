"""The paper's duality: its map of spaces, the dual route, and the check of every identity.

``DUAL_SPACES`` pairs each per-node and per-pair observability space of a
system with the reachability space of the dual system whose orthogonal
complement, in its blocks and at the swapped key (``dual_key``), it is. One
complement map, ``_dual_route``, reads that pairing off a dual reachability
profile; both users of the dual system's profile read it:

* ``profile_via_duality`` recovers the observability profile from the dual
  system's reachability, with no kernel computed; ``report.analyze`` requires
  it to equal the direct ``observability.profile``;
* ``verify_duality`` checks every identity exactly, with both sides computed
  independently: reachability and observability profiles of the system and
  of its dual, with no shared intermediate results. Each per-key identity is
  the route of one side against the profile of the other, in both
  directions; each aggregate compares a global complement with a direct sum
  of blocks, and each flag the verdicts of the two sides. Failures are
  collected, never raised; a failing entry means an implementation bug
  somewhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fileio import format_basis
from .observability import ObservabilityProfile
from .observability import profile as obs_profile
from .reachability import profile as reach_profile
from .subspace import Subspace
from .system import PosetCausalSystem, dual_system

__all__ = ["DUAL_SPACES", "DualityReport", "IdentityCheck", "dual_key", "profile_via_duality",
           "verify_duality"]


# The paper's duality map: each per-node and per-pair observability space of a
# system is the orthogonal complement, in its blocks, of this reachability
# space of the dual system at the swapped key (``dual_key``).
DUAL_SPACES = {
    "upstream": "downstream",
    "confined": "projected",
    "projected": "exclusive",
    "node_floor": "node_ceiling",
    "node_independent": "node_independent",
    "node_ceiling": "node_floor",
}


def dual_key(key):
    """The key of the paired space on the other side: pairs transpose, nodes stay."""
    return key[::-1] if isinstance(key, tuple) else key


def _dual_route(rp) -> dict:
    """Each ``DUAL_SPACES`` field read off the dual reachability profile ``rp``, by complements."""
    return {
        name: {dual_key(key): space.complement() for key, space in getattr(rp, dual_name).items()}
        for name, dual_name in DUAL_SPACES.items()
    }


def profile_via_duality(sys: PosetCausalSystem) -> ObservabilityProfile:
    """Recover the observability profile from the dual system's reachability.

    Every space is the orthogonal complement, in its blocks, of the dual
    reachability space that ``DUAL_SPACES`` pairs it with; no kernel is ever
    computed.
    """
    rp = reach_profile(dual_system(sys))
    return ObservabilityProfile(unobservable=rp.reachable.complement(), **_dual_route(rp))


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
        lhs=format_basis(lhs),
        rhs=format_basis(rhs),
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

    # each observability space of one system is the dual route, at its key, of the other's reachability
    sides = (("dual unobs", opd, _dual_route(rp), ""), ("unobs", op, _dual_route(rpd), "dual "))
    for name, dual_name in DUAL_SPACES.items():
        for obs_label, obs, route, reach_label in sides:
            for key, space in getattr(obs, name).items():
                checks.append(_check(f"{obs_label} {name} = {reach_label}{dual_name}^perp",
                                     _scope(key), space, route[name][key]))

    for reach_flag, obs_flag, both_ways in _FLAGS:
        checks.append(_flag(f"{reach_flag} <-> dual {obs_flag}", "flags",
                            getattr(rp, reach_flag), getattr(opd, obs_flag)))
        if both_ways:
            checks.append(_flag(f"{obs_flag} <-> dual {reach_flag}", "flags",
                                getattr(op, obs_flag), getattr(rpd, reach_flag)))
    return DualityReport(checks=checks)
