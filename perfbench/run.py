"""sympac benchmark: one command, a seed, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The inputs are generated from the seed;
outputs are checked; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics untraced, the per-layer metrics traced.  Scratch files
and span traces go to ``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import common

WORKLOADS = ("cli_pipeline", "gen_ngram_controlled", "gen_uniform_controlled")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (common.SRC / "sympac" / "cli.py").is_file():
        print(f"error: no sympac sources under {common.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))

    import generation
    import pipeline

    work = common.ROOT / ".perfbench" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    module = pipeline if args.workload == "cli_pipeline" else generation
    result = module.run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    shutil.rmtree(work / "inputs", ignore_errors=True)
    shutil.rmtree(work / "out", ignore_errors=True)

    for problem in result["problems"]:
        print(f"wrong output: {problem}")
    if args.trace:
        metrics = common.layer_metrics(result["layers"])
    else:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in result["metrics"].items()}
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:14.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
