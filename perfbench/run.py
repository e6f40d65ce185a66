"""The repository benchmark: newsroom, factcheck and consensus workloads.

Run one workload (what an automated runner does, once per seed)::

    python3 perfbench/run.py --workload newsroom --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines
before it give the workload's own metric names, the work fingerprint
and any failed output check.

Without ``--workload`` every workload runs, each in a fresh interpreter,
and a summary table follows.  ``--size small`` runs a seconds-long
version of a workload through the same code path.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("newsroom", "factcheck", "consensus")
OUT_DIR = ROOT / ".perfbench_out"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    return parser


def run_one(args: argparse.Namespace) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        from perfbench import harness
    except ImportError as exc:
        print(f"perfbench: cannot import the program ({exc}); run from a full checkout",
              file=sys.stderr)
        return 2
    spans_path = None
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = str(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        pathlib.Path(spans_path).unlink(missing_ok=True)
    record = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                         args.size, spans_path)
    for failure in record["failures"]:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps({key: record[key] for key in
                      ("workload", "seed", "size", "rounds", "samples", "named", "fingerprint")}))
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    status = 0
    rows = []
    for workload in WORKLOADS:
        command = [sys.executable, str(pathlib.Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--size", args.size]
        done = subprocess.run(command, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not done.stdout.strip():
            status = 1
            rows.append(f"{workload:<10} exited {done.returncode}")
            continue
        lines = done.stdout.strip().splitlines()
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        rows.append(f"{workload:<10} correct={result['correct']} attempted={result['attempted']} "
                    f"failed={result['failed']} rounds={detail['rounds']}")
        for name, figure in detail["named"].items():
            rows.append(f"    {name:<28} {figure['value']:12.4f} {figure['unit']}")
        for name, metric in result["metrics"].items():
            rows.append(f"    {name:<28} {metric['value']:12.4f} {metric['unit']}")
    print("\n".join(rows))
    return status


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
