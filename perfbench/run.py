"""Run one workload of the benchmark and print its result.

Usage, from the repository root::

    python3 perfbench/run.py --workload he-mnist-ks --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
separate traced run, prints the per-layer metrics and writes its spans
to ``.perfbench/spans-<workload>-seed<seed>.json``.  ``--quick`` swaps
the encrypted networks for N=512 ones (a few seconds per run).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when the program cannot be imported or a workload crashes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("he-mnist-ks", "he-cifar-nks", "fleet-replay")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="N=512 encrypted networks (harness self-test)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def result_line(result, units: dict[str, str]) -> str:
    """The final JSON line: every metric in ``units``, with its unit."""
    metrics = {
        name: {"value": float(result.metrics[name]), "unit": unit}
        for name, unit in units.items()
    }
    return json.dumps({
        "correct": result.correct,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": metrics,
    })


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing under {ROOT}/src",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import catalogue, fleet, he

    spans_path = None
    if args.trace:
        spans_path = (ROOT / ".perfbench"
                      / f"spans-{args.workload}-seed{args.seed}.json")
    module = fleet if args.workload == "fleet-replay" else he
    result = module.run(args.workload, args.seed, args.seconds,
                        bool(args.trace), quick=args.quick,
                        spans_path=spans_path)
    units = (catalogue.per_layer_units() if args.trace
             else catalogue.END_TO_END)
    for note in result.notes:
        print(note)
    for problem in result.problems:
        print(f"CHECK FAILED: {problem}")
    print(f"{args.workload}: attempted {result.attempted}, "
          f"failed {result.failed}")
    if args.trace:
        for name, unit in units.items():
            print(f"  {name} = {result.metrics[name]:.6g} {unit}")
        print(f"spans written to {spans_path}")
    print(result_line(result, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
