"""broomlab benchmark: one workload per invocation, one process at a time.

    python3 perfbench/run.py --workload pipeline_mix --seed 11 --seconds 20 --trace 0

Run from the root of a checkout.  The workload runs in a child process
of its own, so process-wide state that the library sets (such as the
int-to-str digit limit set while rendering the ledger) cannot leak into
another workload or into this process.  Set-up is repeated in further
child processes, and ``setup_s`` is the median.  The last line of
standard output is the result as one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("pipeline_mix", "exact_survey", "constants_grid")
SETUP_SAMPLES = 5  # set-ups per untraced run, the measuring one included
DEADLINE_S = 170


def parse(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "measure"), help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def child(args: argparse.Namespace, role: str, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--role", role]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{role} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    if args.role:
        import workloads

        result = workloads.main(args.workload, args.seed, args.seconds, bool(args.trace),
                                setup_only=args.role == "setup")
        print(json.dumps(result))
        return 0
    if not (HERE.parent / "src" / "broomlab" / "__init__.py").is_file():
        print("run.py: no broomlab sources under src/; run from a checkout", file=sys.stderr)
        return 2
    start = time.monotonic()
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(child(args, "setup", DEADLINE_S)["setup_s"])
    result = child(args, "measure", DEADLINE_S - (time.monotonic() - start))
    setups.append(result.pop("setup_s"))
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
