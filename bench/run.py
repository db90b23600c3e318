"""posetsys benchmark: seeded workloads timed from outside the package.

    python3 bench/run.py --workload {corpus,ladder} --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/`` and nowhere else. Each workload is one closed-loop caller
in this process: it runs its operations one after another, each on one system,
and checks every output. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are end to end. An operation's figure is the
median time of each (operation, system) pair over the timed rounds, summed
over the workload's systems; a warm-up pass runs every operation once first
and is not timed. ``setup_s`` is the median over fresh interpreters of the
time to import posetsys and load and validate every system of the workload.

With ``--trace 1`` the run wraps the package's public functions (see
``tracer.py``) and reports per-layer calls, self time and coefficient growth
from one traced round, plus the extra traced calls ``TRACE_EXTRAS`` lists.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is first imported here or in a child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import zlib  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

from speed import Clock  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"

WORKLOADS = ("corpus", "ladder")
OPS = ("analyze", "reduce", "profiles", "structure", "simulate")
SETUP_SPAWNS = 11  # timed spawns, after one untimed spawn that compiles bytecode
VARIANTS = ("primal", "dual_tilde", "dual_circ")

# Ladder plan: per rung, how many seeded systems (replicas) to draw and the
# operations timed on them. Replicas average out how much the cost of one
# random system depends on the seed. Skipped pairs, with the reason for each,
# are listed in bench/README.md.
LADDER_PLAN = {
    "n9": (10, ("analyze", "reduce", "profiles", "structure", "simulate")),
    "n22": (5, ("profiles", "structure", "simulate")),
    "n37": (2, ("simulate",)),
}
# The traced round covers the first TRACE_REPLICAS replicas of each rung, and
# the calls below run once more, traced, on replica 0 (see README).
TRACE_REPLICAS = 2
TRACE_EXTRAS = (("n9", "krylov"), ("n22", "krylov"), ("n37", "krylov"), ("n22", "analyze"))

# Simulation: seeded piecewise-constant inputs, uniform in [-1, 1].
SIM_SIGNALS = {"corpus": 4, "ladder": 1}
SIM_STEP = {"corpus": 0.01, "ladder": 0.002}
SIM_STEPS = 500
SIM_TOL = 1e-8


class BenchError(Exception):
    """The benchmark cannot run here: no package, or the set-up probe failed."""


def import_posetsys():
    if not (SRC / "posetsys" / "__init__.py").is_file():
        raise BenchError(f"no posetsys package under {SRC}")
    sys.path.insert(0, str(SRC))
    import posetsys

    if Path(posetsys.__file__).resolve().parent != SRC / "posetsys":
        raise BenchError(f"imported posetsys from {posetsys.__file__}, not from {SRC}")
    return posetsys


# ---------------------------------------------------------------------------
# workload inputs


@dataclass
class Item:
    """One system of a workload: where it lives and which operations use it."""

    label: str
    path: Path
    ops: tuple
    replica: int = 0
    system: object = None


def corpus_items(seed: int) -> list:
    paths = sorted((SRC / "posetsys" / "data").glob("*.json"))
    random.Random(seed).shuffle(paths)
    ops = ("analyze", "reduce", "profiles", "simulate")
    return [Item(path.stem, path, ops) for path in paths]


def ladder_items(seed: int, workdir: Path) -> list:
    import ladder

    systems = ladder.generate(seed, max(count for count, _ in LADDER_PLAN.values()))
    items = []
    for (rung, k), system in systems.items():
        count, ops = LADDER_PLAN[rung]
        if k >= count:
            continue
        path = workdir / f"ladder-{rung}-{k}.json"
        path.write_text(ladder.system_json(system), encoding="utf-8")
        items.append(Item(f"{rung}-{k}", path, ops, k))
    return items


# ---------------------------------------------------------------------------
# operations and their checks


@dataclass
class Op:
    kind: str
    label: str
    run: Callable
    check: Callable  # result -> error message or None


def load_goldens() -> dict:
    return json.loads((BENCH / "goldens.json").read_text(encoding="utf-8"))


def golden_key(workload: str, seed: int) -> str | None:
    """Goldens exist for the corpus and for the reference-seed ladder."""
    if workload == "corpus":
        return "corpus"
    import ladder

    return "ladder" if seed == ladder.REFERENCE_SEED else None


def analyze_text(system) -> str:
    from posetsys import report

    return report.render_json(report.analyze(system))


def check_analyze(text: str, golden: dict | None):
    if golden is not None:
        digest = hashlib.sha256(text.encode()).hexdigest()
        return None if digest == golden["analyze_sha256"] else f"analyze JSON sha256 {digest}"
    doc = json.loads(text)
    return None if doc["duality"]["ok"] else "duality identities fail"


def reduce_all(system) -> dict:
    from posetsys import poset_reduce

    return {v: list(poset_reduce(system, v).block_dims) for v in VARIANTS}


def check_reduce(dims: dict, golden: dict | None, state_dim: int):
    if golden is not None:
        return None if dims == golden["block_dims"] else f"block dims {dims}"
    bad = [v for v, d in dims.items() if sum(d) > state_dim]
    return f"reductions larger than the system: {bad}" if bad else None


def profiles(system):
    from posetsys import observability_profile, reachability_profile

    return reachability_profile(system), observability_profile(system)


def check_profiles(result):
    rp, op = result
    reach = [rp.independent.dim, rp.floor.dim, rp.reachable.dim, rp.ceiling.dim]
    obs = [op.floor.dim, op.unobservable.dim, op.ceiling.dim, op.independent.dim]
    for chain in (reach, obs):
        if chain != sorted(chain):
            return f"subspace bounds out of order: {reach} {obs}"
    return None


def check_demo(result):
    bad = [c.label for c in result.checks if not c.ok]
    return f"demo checks fail: {bad}" if bad else None


def char_poly(system):
    from posetsys import char_poly_factored

    return char_poly_factored(system.A, system.poset)


def check_char_poly(result, state_dim: int):
    prod = result.product
    return None if len(prod) == state_dim + 1 and prod[-1] == 1 else "bad characteristic polynomial"


def signals(workload: str, seed: int, item: Item):
    import numpy as np

    from posetsys import InputSignal

    # abs() as random.seed does, since numpy seeds must not be negative
    rng = np.random.default_rng([abs(seed), zlib.crc32(item.label.encode())])
    width = item.system.input_dim
    return [
        InputSignal(step=SIM_STEP[workload], values=rng.uniform(-1.0, 1.0, (SIM_STEPS, width)))
        for _ in range(SIM_SIGNALS[workload])
    ]


def simulate_checked(system, u):
    from posetsys import simulate, verify_trajectory_decomposition

    traj = simulate(system, system.x0, u)
    rep = verify_trajectory_decomposition(system, system.x0, u, tolerance=SIM_TOL)
    return traj, rep


def check_simulate(result):
    import math

    import numpy as np

    traj, rep = result
    # DecompositionReport.ok treats NaN as within tolerance, so test finiteness here
    if not (np.isfinite(traj.states).all() and np.isfinite(traj.outputs).all()):
        return "non-finite trajectory"
    if not all(math.isfinite(v) for v in rep.deviations.values()):
        return f"non-finite deviation: {rep.deviations}"
    return None if rep.ok else f"decomposition deviation above {SIM_TOL}: {rep.deviations}"


def build_ops(workload: str, seed: int, items: list) -> list:
    goldens = load_goldens().get(golden_key(workload, seed) or "", {})
    ops = []
    for item in items:
        sys_, g = item.system, goldens.get(item.label)
        n = sys_.state_dim
        for kind in item.ops:
            if kind == "analyze":
                ops.append(Op(kind, item.label, lambda s=sys_: analyze_text(s),
                              lambda r, g=g: check_analyze(r, g)))
            elif kind == "reduce":
                ops.append(Op(kind, item.label, lambda s=sys_: reduce_all(s),
                              lambda r, g=g, n=n: check_reduce(r, g, n)))
            elif kind == "profiles":
                ops.append(Op(kind, item.label, lambda s=sys_: profiles(s), check_profiles))
            elif kind == "structure":
                ops.append(Op(kind, item.label, lambda s=sys_: char_poly(s),
                              lambda r, n=n: check_char_poly(r, n)))
            elif kind == "simulate":
                for k, u in enumerate(signals(workload, seed, item)):
                    ops.append(Op(kind, f"{item.label}/u{k}", lambda s=sys_, u=u: simulate_checked(s, u),
                                  check_simulate))
    if workload == "corpus":
        from posetsys import corpus

        for name in corpus.demo_names():
            ops.append(Op("structure", f"demo:{name}", lambda nm=name: corpus.run_demo(nm), check_demo))
    return ops


# ---------------------------------------------------------------------------
# running


@dataclass
class Tally:
    clock: Clock = field(default_factory=Clock)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def run(self, op: Op):
        """Run and check one operation; returns (wall, scaled) seconds, or None on failure."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a failing operation is a result, not a crash
            self._fail(op, f"{type(exc).__name__}: {exc}")
            return None
        wall = time.perf_counter() - start
        error = op.check(result)
        del result
        # collect the call's garbage now, so that neither the reference run
        # nor the next call pays for it
        gc.collect()
        scaled = self.clock.scale(wall)
        if error:
            self._fail(op, error)
            return None
        return wall, scaled

    def _fail(self, op: Op, message: str):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{op.kind} {op.label}: {message}")


def warm_up(ops: list, tally: Tally):
    """Run each operation kind once, on its first system, untimed."""
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            tally.run(op)


def timed_rounds(ops: list, seconds: float, tally: Tally) -> tuple[dict, int]:
    """Round-robin over all operations for ``seconds``.

    The first round always completes; after it, the run ends before the first
    operation whose previous duration would carry it past ``seconds``.
    Returns {(kind, label): [(wall, scaled), ...]} and the completed rounds.
    """
    samples = {(op.kind, op.label): [] for op in ops}
    last = {}
    start = time.perf_counter()
    rounds = 0
    while True:
        for op in ops:
            key = (op.kind, op.label)
            if rounds and time.perf_counter() - start + last[key] > seconds:
                return samples, rounds
            began = time.perf_counter()
            timing = tally.run(op)
            last[key] = time.perf_counter() - began
            if timing is not None:
                samples[key].append(timing)
        rounds += 1


def op_totals(samples: dict, which: int) -> dict:
    """Per kind: the median of each system's samples, summed over systems."""
    totals = {kind: 0.0 for kind in OPS}
    for (kind, _label), timings in samples.items():
        if timings:
            totals[kind] += statistics.median(t[which] for t in timings)
    return totals


def setup_seconds(paths: list, clock: Clock) -> list:
    """Scaled spawn-to-exit times of the set-up probe."""
    cmd = [sys.executable, str(BENCH / "load_probe.py"), str(SRC), *map(str, paths)]
    times = []
    for k in range(SETUP_SPAWNS + 1):
        start = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
        scaled = clock.scale(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.decode(errors='replace')[-500:]}")
        if k:
            times.append(scaled)
    return times


def load_items(workload: str, seed: int, workdir: Path) -> list:
    items = corpus_items(seed) if workload == "corpus" else ladder_items(seed, workdir)
    from posetsys.fileio import load_system

    for item in items:
        item.system = load_system(item.path)
    return items


def run_plain(workload: str, seed: int, seconds: float, items: list) -> tuple[dict, Tally]:
    tally = Tally()
    setup = setup_seconds([it.path for it in items], tally.clock)
    ops = build_ops(workload, seed, items)
    warm_up(ops, tally)
    samples, rounds = timed_rounds(ops, seconds, tally)
    totals = op_totals(samples, 1)
    walls = op_totals(samples, 0)
    print(f"{workload} seed {seed}: {rounds} full timed rounds over {len(ops)} operations; "
          f"setup_s median of {len(setup)} spawns")
    print(f"  {'metric':12s} {'scaled':>9s} {'wall':>9s}")
    for kind in OPS:
        counts = [len(t) for (k, _), t in samples.items() if k == kind]
        print(f"  {kind + '_s':12s} {totals[kind]:9.4f} {walls[kind]:9.4f}  "
              f"({len(counts)} (system, input) pairs x {min(counts)}-{max(counts)} samples)")
    metrics = {"setup_s": (statistics.median(setup), "s")}
    metrics.update({f"{kind}_s": (totals[kind], "s") for kind in OPS})
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics, tally


def scaled_or_zero(timing) -> float:
    return timing[1] if timing else 0.0


def run_traced(workload: str, seed: int, items: list, tally: Tally) -> dict:
    from tracer import Tracer

    ops = build_ops(workload, seed, [it for it in items if it.replica < TRACE_REPLICAS])
    warm_up(ops, tally)
    analyze_ops = [op for op in ops if op.kind == "analyze"]
    plain = sum(scaled_or_zero(tally.run(op)) for op in analyze_ops)

    tracer = Tracer().install()
    try:
        from posetsys.fileio import load_system

        for item in items:
            with tracer.op("load"):
                load_system(item.path)
        traced = 0.0
        for op in ops:
            with tracer.op(op.kind):
                timing = tally.run(op)
            if op.kind == "analyze":
                traced += scaled_or_zero(timing)
        if workload == "ladder":
            trace_extras(tracer, seed, items, tally)
    finally:
        tracer.uninstall()
    return layer_metrics(tracer, traced / plain if plain else 0.0)


COUNTED = ("reachability.profile", "observability.profile", "reduction.kalman",
           "reachability.reachable", "observability.unobservable")


def trace_extras(tracer, seed: int, items: list, tally: Tally) -> None:
    """Traced calls too slow to time every round, printed per system."""
    from posetsys import ctrb_matrix

    from tracer import max_bits

    goldens = load_goldens().get(golden_key("ladder", seed) or "", {})
    by_label = {it.label: it for it in items}
    for rung, kind in TRACE_EXTRAS:
        item = by_label[f"{rung}-0"]
        if kind == "analyze":
            before = {name: tracer.calls(name) for name in COUNTED}
            op = Op(kind, item.label, lambda s=item.system: analyze_text(s),
                    lambda r, g=goldens.get(item.label): check_analyze(r, g))
            with tracer.op(kind):
                tally.run(op)
            counts = ", ".join(f"{name}={tracer.calls(name) - before[name]}" for name in COUNTED)
            print(f"traced analyze of {item.label} (n={item.system.state_dim}): {counts}")
        else:
            bits = []
            op = Op(kind, item.label, lambda s=item.system: ctrb_matrix(s.A.entries, s.B.entries),
                    lambda r: bits.append(max_bits(r.flat)))
            with tracer.op(kind):
                tally.run(op)
            print(f"traced [B, AB, ...] of {item.label} (n={item.system.state_dim}): "
                  f"max_bits={bits[0] if bits else 'failed'}")


def layer_metrics(tracer, overhead: float) -> dict:
    c = tracer.counters
    m = {}
    for name in COUNTED:
        m[f"{name}.calls_per_system"] = (tracer.calls_per_op("analyze", name), "count")
    ctrb = "reachability.ctrb_matrix"
    m[f"{ctrb}.calls"] = (tracer.calls(ctrb), "count")
    m[f"{ctrb}.self_s"] = (tracer.self_s(ctrb), "s")
    m[f"{ctrb}.max_bits"] = (c["ctrb.max_bits"], "bits")
    m[f"{ctrb}.useful_ratio"] = (c["ctrb.rank"] / c["ctrb.columns"] if c["ctrb.columns"] else 0.0, "ratio")
    m["linalg.rref.calls"] = (tracer.calls("linalg.rref"), "count")
    m["linalg.rref.self_s"] = (tracer.self_s("linalg.rref"), "s")
    m["linalg.rref.cells"] = (c["rref.cells"], "count")
    m["linalg.rref.max_in_bits"] = (c["rref.max_in_bits"], "bits")
    m["linalg.mdot.calls"] = (tracer.calls("linalg.mdot"), "count")
    m["linalg.mdot.self_s"] = (tracer.self_s("linalg.mdot"), "s")
    m["linalg.mdot.mults"] = (c["mdot.mults"], "count")
    for fn in ("kernel_basis", "column_echelon", "inverse"):
        m[f"linalg.{fn}.calls"] = (tracer.calls(f"linalg.{fn}"), "count")
    for name in ("subspace.Subspace.init", "subspace.intersect"):
        m[f"{name}.calls"] = (tracer.calls(name), "count")
        m[f"{name}.self_s"] = (tracer.self_s(name), "s")
    mom = "reduction.moments_equal"
    m[f"{mom}.calls"] = (tracer.calls(mom), "count")
    m[f"{mom}.self_s"] = (tracer.self_s(mom), "s")
    m[f"{mom}.products"] = (c["moments.products"], "count")
    m[f"{mom}.max_bits"] = (c["moments.max_bits"], "bits")
    m["duality.verify_duality.self_s"] = (tracer.self_s("duality.verify_duality"), "s")
    m["duality.checks"] = (c["duality.checks"], "count")
    m["system.derived.calls"] = (tracer.calls("system.derived"), "count")
    m["system.dual_system.calls"] = (tracer.calls("system.dual_system"), "count")
    m["system.validate.self_s"] = (tracer.self_s("system.validate"), "s")
    m["report.analyze.self_s"] = (tracer.self_s("report.analyze"), "s")
    m["report.render_json.self_s"] = (tracer.self_s("report.render_json"), "s")
    for fn in ("expm", "simulate"):
        m[f"sim.{fn}.calls"] = (tracer.calls(f"sim.{fn}"), "count")
        m[f"sim.{fn}.self_s"] = (tracer.self_s(f"sim.{fn}"), "s")
    m["sim.simulate.steps"] = (c["simulate.steps"], "count")
    m["sim.verify_trajectory_decomposition.self_s"] = (
        tracer.self_s("sim.verify_trajectory_decomposition"), "s")
    m["fileio.load_system.self_s"] = (tracer.self_s("fileio.load_system"), "s")
    m["fileio.load_system.bytes"] = (c["load.bytes"], "bytes")
    for layer, (calls, self_time) in tracer.layer_totals().items():
        m[f"layer.{layer}.calls"] = (calls, "count")
        m[f"layer.{layer}.self_s"] = (self_time, "s")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_posetsys()
        WORK.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
        try:
            items = load_items(args.workload, args.seed, workdir)
            if args.trace:
                tally = Tally()
                metrics = run_traced(args.workload, args.seed, items, tally)
            else:
                metrics, tally = run_plain(args.workload, args.seed, args.seconds, items)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in tally.errors:
        print(f"FAILED {line}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
