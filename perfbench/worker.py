"""One workload in one single-threaded process: set up, loop, verify.

Started by run.py, which generates the inputs and times set-up from outside.
Prints ``READY <ns>`` (CLOCK_MONOTONIC, comparable across processes) once
the package is imported and the instance files are written, then
diagnostics, then one ``RESULT <json>`` line.  Exit 3 means a wrong output:
no result is printed.

Ops run as a closed loop with one client: each op is one in-process call of
``kodaira.cli.main`` on one instance file, the next starting when the
previous returns.  The loop runs whole passes over the workload's inputs
until at least ``--seconds`` have passed, so every run measures the same mix
of inputs however fast the program is.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import verify  # noqa: E402

TAIL_BEYOND = 10  # the tail percentile leaves at least this many ops beyond
PROBE_EVERY_S = 0.2   # at most this long between two speed probes
PROBE_NEAREST = 7     # probes whose median gives an op's local speed
NOMINAL_PROBE_S = 0.001  # reference_s() at nominal speed: fixes the scale


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--inputs", type=Path, required=True,
                   help="JSON list of [name, command, text] from gen.py")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

class Op:
    __slots__ = ("name", "command", "target", "doc", "text")

    def __init__(self, name, command, target, doc, text):
        self.name, self.command, self.target = name, command, target
        self.doc, self.text = doc, text


def write_instances(inputs, workdir):
    """Write every instance file; verify-suite ops get a directory each."""
    ops = []
    for i, (name, command, text) in enumerate(inputs):
        path = workdir / f"{i:03d}_{name}.json"
        if command == "verify-suite":
            path.parent.joinpath(path.stem).mkdir()
            path = path.parent / path.stem / "instance.json"
            target = path.parent
        else:
            target = path
        path.write_text(text)
        ops.append(Op(name, command, str(target), json.loads(text), text))
    return ops


def source_digest():
    """Digest of the package sources: names the code under test without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "kodaira").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    """HEAD of the checkout, or "none" where it is not a git repository."""
    if not (ROOT / ".git").exists():
        return "none"  # never let git search the directories above
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def reference_s():
    """Time of a fixed pure-Python computation (exact rationals, tuples,
    dicts, comprehensions): how fast this machine runs right now.  The
    cyclic GC is off meanwhile, so that the program's heap cannot slow it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 100):
            acc += Fraction(1, i)
        table = {}
        for i in range(1500):
            table[(i, i % 7)] = (i * 31) % 1003
        [(x, y) for x in range(-12, 13) for y in range(-12, 13)
         if 2 * x + 3 * y >= -10 and x - y <= 12]
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# the op loop
# ---------------------------------------------------------------------------

def run_op(cli, op):
    """(exit code, seconds, captured stdout) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([op.command, op.target, "--format", "json"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the console script would exit 1 with a traceback
            traceback.print_exc()
            code = 1
    return code, time.perf_counter() - start, out.getvalue()


class Loop:
    """What run_passes measured.

    texts: outputs of the first pass (later passes keep only digests, so
    memory does not grow with the number of passes a fast program fits in);
    passes: per pass, per op (exit code, seconds, output digest, midpoint);
    probes: (midpoint, seconds) of each reference_s() call between ops.
    """

    def __init__(self):
        self.texts, self.passes, self.probes = [], [], []
        self.wall = self.cpu = 0.0


def run_passes(cli, ops, seconds):
    """Whole passes until `seconds` have passed, probing the machine's
    speed between ops at most every PROBE_EVERY_S."""
    loop = Loop()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    probed = -PROBE_EVERY_S
    while True:
        results = []
        for op in ops:
            start = time.perf_counter()
            if start - probed >= PROBE_EVERY_S:
                probe = reference_s()
                loop.probes.append((start + probe / 2, probe))
                probed = start = time.perf_counter()
            code, elapsed, text = run_op(cli, op)
            if not loop.passes:
                loop.texts.append(text)
            results.append((code, elapsed, digest(text), start + elapsed / 2))
        loop.passes.append(results)
        loop.wall = time.perf_counter() - wall0
        if loop.wall >= seconds:
            loop.cpu = time.process_time() - cpu0
            return loop


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def output_digest(ops, results):
    h = hashlib.sha256()
    for op, (code, _, d, _) in zip(ops, results):
        h.update(f"{op.name}\0{code}\0{d}\0".encode())
    return h.hexdigest()[:16]


def check_outputs(ops, texts, reference, others):
    """Problems: wrong first-pass outputs, and later outputs that differ."""
    problems = []
    for op, text, (code, *_) in zip(ops, texts, reference):
        problems += [f"{op.name}: {p}"
                     for p in verify.check(op.doc, op.command, code, text)]
    for label, results in others:
        for op, ref, got in zip(ops, reference, results):
            if (ref[0], ref[2]) != (got[0], got[2]):
                problems.append(f"{op.name}: {label} output differs")
    return problems


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def nominal_seconds(loop):
    """Per pass, per op: (exit code, seconds at nominal machine speed).

    On a shared machine the speed of the CPU moves by half within a minute,
    and CPU time moves with wall time.  Each op's wall time is scaled by
    NOMINAL_PROBE_S over the median of the PROBE_NEAREST speed probes taken
    nearest to it, which cancels those swings; the raw figures stay in the
    run record.
    """
    times = [t for t, _ in loop.probes]
    out = []
    for results in loop.passes:
        row = []
        for code, seconds, _, mid in results:
            i = bisect.bisect(times, mid)
            lo = max(0, min(i - PROBE_NEAREST // 2,
                            len(times) - PROBE_NEAREST))
            speed = statistics.median(
                p for _, p in loop.probes[lo:lo + PROBE_NEAREST])
            row.append((code, seconds * NOMINAL_PROBE_S / speed))
        out.append(row)
    return out


def tail_fraction(n_inputs):
    """Highest percentile of one pass with at least TAIL_BEYOND ops beyond;
    fixed per workload so that runs with more passes stay comparable."""
    return max(n_inputs - TAIL_BEYOND, 1) / n_inputs


def nearest_rank(sorted_values, fraction):
    idx = max(1, -(-len(sorted_values) * fraction // 1)) - 1
    return sorted_values[int(idx)]


def latency_metrics(flat, n_inputs):
    """(ok ops per second, p50 ms, tail ms) of [(exit code, seconds)]."""
    # a failed op counts as infinitely slow; a percentile that lands on one
    # is reported as the whole loop, the longest latency a run can see
    total = sum(s for _, s in flat)
    lat = sorted(s * 1000 if code == 0 else float("inf") for code, s in flat)
    p50 = nearest_rank(lat, 0.5)
    tail = nearest_rank(lat, tail_fraction(n_inputs))
    ok = sum(1 for code, _ in flat if code == 0)
    return ok / total, min(p50, total * 1000), min(tail, total * 1000)


def end_to_end(ops, loop):
    """(metrics, attempted, failed, record lines) of an untraced loop."""
    flat = [r for results in nominal_seconds(loop) for r in results]
    raw = [(code, s) for results in loop.passes for code, s, _, _ in results]
    ok = sum(1 for code, _ in flat if code == 0)
    rate, p50, tail = latency_metrics(flat, len(ops))
    raw_rate, raw_p50, raw_tail = latency_metrics(raw, len(ops))
    metrics = {
        "ok_ops_per_s": (rate, "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_tail_ms": (tail, "ms"),
        "ok_ratio": (ok / len(flat), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    probes = sorted(p for _, p in loop.probes)
    notes = [
        f"op_tail_ms is p{100 * tail_fraction(len(ops)):.1f} of "
        f"{len(flat)} ops",
        f"fail_ratio {(len(flat) - ok) / len(flat):.4f} "
        f"({len(flat) - ok} of {len(flat)} ops exited non-zero)",
        f"raw wall: ok_ops_per_s {raw_rate:.4f}, op_p50_ms {raw_p50:.3f}, "
        f"op_tail_ms {raw_tail:.3f}",
        f"speed probes: {len(probes)}, median {1000 * statistics.median(probes):.3f} ms, "
        f"quartiles {1000 * probes[len(probes) // 4]:.3f} "
        f"{1000 * probes[3 * len(probes) // 4]:.3f} ms "
        f"(nominal {1000 * NOMINAL_PROBE_S:.3f} ms)",
    ]
    return metrics, len(flat), len(flat) - ok, notes


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import kodaira.cli as cli
    if ROOT / "src" not in Path(cli.__file__).resolve().parents:
        print(f"kodaira imported from {cli.__file__}, not from this checkout",
              file=sys.stderr)
        return 1

    work = args.inputs.parent / f"worker-{os.getpid()}"
    work.mkdir()
    try:
        ops = write_instances(json.loads(args.inputs.read_text()), work)
        print(f"READY {time.monotonic_ns()}", flush=True)
        if args.setup_only:
            return 0
        return measure(args, cli, ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, cli, ops):
    print(f"record: git {git_sha()}, source {source_digest()}, python "
          f"{platform.python_version()}, nproc {os.cpu_count()}, "
          f"{len(ops)} inputs, input digest "
          f"{gen.digest(op.text for op in ops)}")
    if args.trace:
        import tracing
        base = run_passes(cli, ops, 0)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            loop = run_passes(cli, ops, args.seconds)
        finally:
            tracer.remove()
        texts, reference = base.texts, base.passes[0]
        others = [("traced", r) for r in loop.passes]
    else:
        loop = run_passes(cli, ops, args.seconds)
        texts, reference = loop.texts, loop.passes[0]
        others = [("repeated", r) for r in loop.passes[1:]]
    print("record: pass wall s " + " ".join(
        f"{sum(r[1] for r in results):.3f}" for results in loop.passes))
    print(f"record: {len(loop.passes)} passes, loop wall {loop.wall:.3f} s, "
          f"cpu {loop.cpu:.3f} s")
    print(f"record: output digest {output_digest(ops, reference)}")

    problems = check_outputs(ops, texts, reference, others)
    if problems:
        for p in problems:
            print(f"WRONG OUTPUT {p}", file=sys.stderr)
        return 3

    if args.trace:
        import layers
        passes = len(loop.passes)
        traced = sum(s for r in nominal_seconds(loop) for _, s in r) / passes
        untraced = sum(s for _, s in nominal_seconds(base)[0])
        metrics = layers.per_layer(tracer, len(ops), passes,
                                   loop.wall / passes, traced / untraced)
        never = sorted(set(tracer.wrapped()) - set(tracer.called()))
        raw = loop.wall / passes / sum(r[1] for r in base.passes[0])
        print(f"record: tracing overhead {100 * (traced / untraced - 1):.1f}% "
              f"at nominal speed, {100 * (raw - 1):.1f}% in raw wall time; "
              f"{len(tracer.wrapped())} names wrapped, "
              f"not called here: {', '.join(never) or 'none'}")
        print("record: called " + " ".join(tracer.called()))
        attempted = len(ops) * passes
        failed = sum(1 for r in loop.passes for code, *_ in r if code != 0)
    else:
        metrics, attempted, failed, notes = end_to_end(ops, loop)
        for n in notes:
            print(f"record: {n}")
    speed = statistics.median(p for _, p in loop.probes)
    print("RESULT " + json.dumps({
        "attempted": attempted, "failed": failed,
        "nominal_factor": NOMINAL_PROBE_S / speed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
