"""Record the output goldens the benchmark checks against: bench/goldens.json.

    python3 bench/make_goldens.py

For every corpus system and every analyzed system of the reference-seed
ladder it stores the sha256 of the ``analyze`` JSON and the ``block_dims`` of
the three reductions. Rerun it only when a change is meant to alter outputs.
"""

import hashlib
import json
import sys
import tempfile

import run


def record(system) -> dict:
    return {
        "analyze_sha256": hashlib.sha256(run.analyze_text(system).encode()).hexdigest(),
        "block_dims": run.reduce_all(system),
    }


def main() -> int:
    run.import_posetsys()
    import ladder

    out = {"corpus": {}, "ladder": {}}
    for item in run.load_items("corpus", 0, None):
        out["corpus"][item.label] = record(item.system)
    run.WORK.mkdir(exist_ok=True)
    wanted = {f"{rung}-0" for rung, kind in run.TRACE_EXTRAS if kind == "analyze"}
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        for item in run.load_items("ladder", ladder.REFERENCE_SEED, run.Path(tmp)):
            if "analyze" in item.ops or item.label in wanted:
                out["ladder"][item.label] = record(item.system)
                print(item.label, file=sys.stderr)
    (run.BENCH / "goldens.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
