"""Self-test of the tracer.  Run from the repository root:

    python3 perfbench/selftest.py [--seed N]

Checks that every name in tracing.TIMED and tracing.COUNTED exists and is
wrapped, that removing the tracer restores every binding, that each wrapped
name is called on some workload, and that traced outputs equal untraced ones
(run.py exits 3 otherwise).  It makes one untraced and one traced pass of
each workload, a few minutes in all.  Exit 0 when every check holds.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import tracing  # noqa: E402


def bindings():
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name.startswith(tracing.PACKAGE)}


def class_attrs():
    out = {}
    for m in tracing.MODULES:
        mod = sys.modules[f"{tracing.PACKAGE}.{m}"]
        for name, obj in vars(mod).items():
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                out[f"{m}.{name}"] = dict(vars(obj))
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    import kodaira.cli  # noqa: F401

    problems = []
    before = (bindings(), class_attrs())
    tracer = tracing.Tracer()
    tracer.install()
    wrapped = set(tracer.wrapped())
    tracer.remove()
    if (bindings(), class_attrs()) != before:
        problems.append("remove() left a wrapped binding behind")
    listed = {f"{m}.{n}" for table in (tracing.TIMED, tracing.COUNTED)
              for m, names in table.items() for n in names}
    for key in sorted(listed - wrapped):
        problems.append(f"listed but not found: {key}")

    called = set()
    for workload in sorted(gen.WORKLOADS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", "0", "--trace", "1"],
            capture_output=True, text=True)
        if proc.returncode != 0:
            problems.append(f"{workload}: traced run exited "
                            f"{proc.returncode}: {proc.stderr[-500:]}")
            continue
        for line in proc.stdout.splitlines():
            if line.startswith("record: called "):
                here = set(line.split()[2:])
                called |= here
                print(f"{workload}: {len(here)} names called; "
                      "traced outputs equal untraced ones")
    for key in sorted(wrapped - called):
        problems.append(f"wrapped but called on no workload: {key}")

    for problem in problems:
        print(f"FAIL {problem}")
    print(f"{len(wrapped)} names wrapped, {len(called & wrapped)} called; "
          f"{'ok' if not problems else 'FAILED'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
