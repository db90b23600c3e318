"""Command-line front end.

Exit codes: 0 on success, 1 on validation or analysis mismatch, 2 on I/O or
parse errors. A pattern-violating file is refused before any output, except by
``validate``.
"""

from __future__ import annotations

import argparse
import math
import sys as _sys

from . import corpus, fileio, report
from .errors import ParseError, PosetSysError
from .reduction import poset_reduce
from .sim import InputSignal, simulate, verify_trajectory_decomposition
from .system import dual_system, require_valid, validate

_VARIANT_NAMES = {"primal": "primal", "dual-tilde": "dual_tilde", "dual-circ": "dual_circ"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posetsys",
        description="Exact analysis of linear systems structured by a partial order.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="parse a system file and check its zero pattern")
    p_val.add_argument("path")

    p_ana = sub.add_parser("analyze", help="full reachability/observability/duality/reduction report")
    p_ana.add_argument("path")
    group = p_ana.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", help="structured output (default)")
    group.add_argument("--text", action="store_true", help="human-readable summary")
    p_ana.add_argument("--skip-duality", action="store_true",
                       help="omit the duality identity section")

    p_dual = sub.add_parser("dual", help="write the dual system")
    p_dual.add_argument("path")
    p_dual.add_argument("out_path")

    p_red = sub.add_parser("reduce", help="write a structure-preserving reduction")
    p_red.add_argument("path")
    p_red.add_argument("out_path")
    p_red.add_argument("--variant", choices=sorted(_VARIANT_NAMES), default="primal")

    p_sim = sub.add_parser("simulate", help="simulate under a piecewise-constant input file")
    p_sim.add_argument("path")
    p_sim.add_argument("signal_path")
    p_sim.add_argument("--h", type=float, default=None,
                       help="grid step (default: inferred from the signal's time column)")
    p_sim.add_argument("--steps", type=int, default=None,
                       help="simulate only the first N input steps (at most the signal's)")
    p_sim.add_argument("--out", default=None, help="trajectory output file (default: stdout)")
    p_sim.add_argument("--check-lemma", action="store_true",
                       help="also verify the trajectory decomposition identities")
    p_sim.add_argument("--tol", type=float, default=1e-8,
                       help="tolerance for --check-lemma (default 1e-8)")

    p_demo = sub.add_parser("demo", help="recompute the built-in corpus against its known values")
    p_demo.add_argument("name", nargs="?", default=None,
                        help="one corpus entry (default: the whole corpus)")
    p_demo.add_argument("--list", action="store_true", help="list corpus entries")
    return parser


def _cmd_validate(args) -> int:
    system = fileio.load_system(args.path)
    rep = validate(system)
    print(rep.describe())
    return 0 if rep.ok else 1


def _load_valid(path):
    system = fileio.load_system(path)
    require_valid(system)
    return system


def _cmd_analyze(args) -> int:
    system = _load_valid(args.path)
    doc = report.analyze(system, skip_duality=args.skip_duality)
    if args.text:
        _sys.stdout.write(report.render_text(doc))
    else:
        _sys.stdout.write(report.render_json(doc))
    dual_ok = doc.get("duality", {"ok": True})["ok"]
    return 0 if dual_ok else 1


def _cmd_dual(args) -> int:
    system = _load_valid(args.path)
    fileio.save_system(dual_system(system), args.out_path)
    print(f"wrote dual system to {args.out_path}")
    return 0


def _cmd_reduce(args) -> int:
    system = _load_valid(args.path)
    red = poset_reduce(system, _VARIANT_NAMES[args.variant])
    fileio.save_system(red.system, args.out_path)
    print(
        f"wrote {args.variant} reduction to {args.out_path} "
        f"(block dims {list(red.block_dims)}, total {red.total_dim}, "
        f"moments verified to k={red.moment_horizon})"
    )
    return 0


def _cmd_simulate(args) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ParseError(f"--tol must be finite and non-negative, got {args.tol}")
    system = _load_valid(args.path)
    signal = fileio.read_signal(args.signal_path, step=args.h)
    if signal.width != system.input_dim:
        raise ParseError(f"{args.signal_path}: signal has {signal.width} input columns, "
                         f"system has {system.input_dim} inputs")
    if args.steps is not None:
        if not 0 <= args.steps <= signal.steps:
            raise ParseError(f"--steps must be in 0..{signal.steps}, got {args.steps}")
        signal = InputSignal(step=signal.step, values=signal.values[: args.steps])
    x0 = system.x0
    traj = simulate(system, x0, signal)
    fileio.write_trajectory(traj, args.out or _sys.stdout)
    if args.check_lemma:
        rep = verify_trajectory_decomposition(system, x0, signal, tolerance=args.tol)
        print(rep.describe(), file=_sys.stderr)
        if not rep.ok:
            return 1
    return 0


def _cmd_demo(args) -> int:
    available = corpus.demo_names()
    if args.list:
        for name in available:
            print(name)
        return 0
    if args.name and args.name not in available:
        print(f"error: unknown demo {args.name!r}; available: {', '.join(available)}",
              file=_sys.stderr)
        return 2
    names = [args.name] if args.name else available
    failures = 0
    for name in names:
        result = corpus.run_demo(name)
        for check in result.checks:
            mark = "ok " if check.ok else "FAIL"
            line = f"[{mark}] {name}: {check.label}"
            if check.detail:
                line += f" -- {check.detail}"
            print(line)
            failures += 0 if check.ok else 1
    if failures:
        print(f"{failures} corpus check(s) FAILED")
        return 1
    print("all corpus checks passed")
    return 0


_HANDLERS = {
    "validate": _cmd_validate,
    "analyze": _cmd_analyze,
    "dual": _cmd_dual,
    "reduce": _cmd_reduce,
    "simulate": _cmd_simulate,
    "demo": _cmd_demo,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    except PosetSysError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
