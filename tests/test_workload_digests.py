"""The benchmark's outputs, pinned: seeds 1-3 of each workload.

Each input of `perfbench/gen.py` (loaded read-only,
`_corpus.workload_generator`) runs once in this process as the benchmark
worker runs it: `cli.main([command, target, "--format", "json"])`, a
`verify-suite` target being a directory that holds `instance.json`, a
`SystemExit` read as its code and any other exception as exit 1.  The
outputs chain into one digest as the worker's output digest does: sha256
over "name\\0code\\0sha256(stdout)\\0" per input, its first 16 hex digits.
A change that moves an output updates the digest here and says why, as it
would for `tests/golden_corpus.json`.
"""

import contextlib
import hashlib
import io
import traceback

import pytest

from kodaira import cli

from _corpus import workload_generator

DIGESTS = {
    "fibration": ("c4a98e6964b6bee0", "27f1bea4200fc38d", "9697f5536ef7703e"),
    "kappa": ("f72e6d372c13079b", "ae8fd3a638937f9f", "a90e647b79884996"),
    "okounkov": ("6827e31a034fb66f", "d48a8248200c3084", "e5f8c074998d2ee8"),
}


def run(command, target):
    """(exit code, stdout) of one CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main([command, str(target), "--format", "json"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the console script would exit 1
            traceback.print_exc()
            code = 1
    return code, out.getvalue()


@pytest.mark.parametrize("workload, seed", [
    (w, seed) for w in DIGESTS for seed in (1, 2, 3)])
def test_workload_output_digest(workload, seed, tmp_path):
    chain = hashlib.sha256()
    for i, (name, command, text) in enumerate(
            workload_generator().instances(workload, seed)):
        path = target = tmp_path / f"{i:03d}_{name}.json"
        if command == "verify-suite":  # a directory that holds the instance
            target = path.with_suffix("")
            target.mkdir()
            path = target / "instance.json"
        path.write_text(text)
        code, out = run(command, target)
        chain.update(f"{name}\0{code}\0"
                     f"{hashlib.sha256(out.encode()).hexdigest()}\0".encode())
    assert chain.hexdigest()[:16] == DIGESTS[workload][seed - 1]
