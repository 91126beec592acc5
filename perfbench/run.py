"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload fibration --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ./src.  The
workload runs in a fresh single-threaded worker process (worker.py), one at
a time; nothing uses --jobs, since a process pool on a small box would time
the scheduler.  With --trace 0 the last line holds the end-to-end metrics,
with --trace 1 the per-layer metrics of a separate traced run.

Set-up (interpreter start, ``import kodaira``, writing the instance files)
is timed from outside as the span from starting a worker to its READY
line.  Generating the inputs is the benchmark's own work and happens once,
before any worker starts.  Besides the measuring worker, SETUP_PROBES
workers do set-up only, half before and half after it, so that the samples
span the run; setup_s is the median of all of them, scaled to nominal
machine speed by the median of the measuring worker's speed probes.

Exit 0 with the result on the last line; exit 1 if the worker fails, 3 if
an output is wrong, in both cases without a result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

SETUP_PROBES = 8
TIMEOUT_S = 170


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def start_worker(inputs, extra, deadline):
    """(setup seconds, stdout lines) of one worker; raises on failure."""
    cmd = [sys.executable, str(WORKER), "--inputs", str(inputs), *extra]
    started = time.monotonic_ns()
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("READY "):
        sys.stderr.write(proc.stderr)
        raise WorkerError(proc.returncode or 1)
    return (int(lines[0].split()[1]) - started) / 1e9, lines[1:]


class WorkerError(Exception):
    def __init__(self, code):
        super().__init__(f"worker exited {code}")
        self.code = code


def main(argv=None):
    args = parse_args(argv)
    deadline = time.monotonic() + TIMEOUT_S
    if args.workload not in gen.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(sorted(gen.WORKLOADS))}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        inputs = work / "inputs.json"
        inputs.write_text(json.dumps(gen.instances(args.workload, args.seed)))
        extra = SETUP_PROBES if not args.trace else 0
        setups = [start_worker(inputs, ["--setup-only"], deadline)[0]
                  for _ in range(extra // 2)]
        setup, lines = start_worker(
            inputs, ["--seconds", str(args.seconds), "--trace",
                     str(args.trace)], deadline)
        setups.append(setup)
        setups += [start_worker(inputs, ["--setup-only"], deadline)[0]
                   for _ in range(extra - extra // 2)]
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3 if exc.code == 3 else 1
    except subprocess.TimeoutExpired:
        print(f"benchmark failed: no result within {TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    result = None
    for line in lines:
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if result is None:
        print("benchmark failed: worker printed no result", file=sys.stderr)
        return 1
    metrics = result["metrics"]
    if not args.trace:
        # at the nominal speed of the run's own probes, as the op times are
        print(f"record: raw setup_s of {len(setups)} workers: "
              + " ".join(f"{s:.4f}" for s in setups)
              + f"; nominal factor {result['nominal_factor']:.4f}")
        setup = statistics.median(setups) * result["nominal_factor"]
        metrics = {"setup_s": {"value": setup, "unit": "s"}, **metrics}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
