"""Print every benchmark metric of every workload, with its unit.

    python3 bench/report.py [--seed N] [--seconds S] [--workload NAME ...]

Runs ``bench/run.py`` once untraced and once traced per workload and prints
the end-to-end metrics, the failed fraction of operations (preset/config
runs and output checks), the per-layer metrics with the tracing overhead,
and the environment. Counts derived from arguments rather than counted
where the work happens are marked ``(computed)``. Exit code 1 when any
operation failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
from body import WORKLOADS  # noqa: E402
from trace_layers import COMPUTED  # noqa: E402


def _run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: run.py exited with {proc.returncode}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    args = parser.parse_args(argv)
    any_failed = False
    env = None
    for workload in args.workload:
        print(f"== {workload} (seed {args.seed}, {args.seconds:g} s per run)")
        for trace in (0, 1):
            info, result = _run(workload, args.seed, args.seconds, trace)
            env = info["env"]
            attempted, failed = result["attempted"], result["failed"]
            any_failed |= failed > 0
            kind = "per-layer (traced)" if trace else "end-to-end (untraced)"
            print(f"  {kind}: failed_frac {failed / attempted:.6g} "
                  f"({failed} of {attempted} operations), record {info['record']}")
            for name, metric in result["metrics"].items():
                note = " (computed)" if name in COMPUTED else ""
                print(f"    {name:34s} {metric['value']:>16.6g} {metric['unit']}{note}")
    print("environment:", json.dumps(env))
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
