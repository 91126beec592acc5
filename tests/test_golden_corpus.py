"""Byte-for-byte CLI output on the bundled corpus.

tests/golden_corpus.json holds the exit code, stdout and stderr of
`kodaira <command> FILE --format {json,text,csv}` for every corpus file under
each single-file command, and of `kodaira verify-suite corpus`.  Regenerate
it (only when an output change is intended) from the repository root with

    PYTHONPATH=src python tests/test_golden_corpus.py
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

from kodaira.cli import COMMAND_KINDS, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden_corpus.json"
COMMANDS = ("semigroup", "kappa", "fibration")
FORMATS = ("json", "text", "csv")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_all():
    """Every golden run, keyed by its argument line; paths are relative to
    the repository root so the record does not depend on the checkout."""
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        runs = [[command, f"corpus/{path.name}"]
                for path in sorted((ROOT / "corpus").glob("*.json"))
                for command in COMMANDS]
        runs.append(["verify-suite", "corpus"])
        return {" ".join(argv + ["--format", fmt]):
                _run(argv + ["--format", fmt])
                for argv in runs for fmt in FORMATS}
    finally:
        os.chdir(cwd)


def test_corpus_output_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    current = run_all()
    assert sorted(current) == sorted(golden)
    for key, expected in golden.items():
        assert current[key] == expected, key


def test_corpus_output_independent_of_run_order(tmp_path):
    # preset varieties, and the limit polytopes and properties they cache,
    # are shared by the whole process: no run may see what an earlier one
    # left in them
    command_of = {kind: command for command, kind in COMMAND_KINDS.items()}
    runs = []
    for path in sorted((ROOT / "corpus").glob("*.json")):
        kind = json.loads(path.read_text())["kind"]
        if kind == "multiplier_scan":  # no command of its own
            (tmp_path / path.stem).mkdir()
            (tmp_path / path.stem / path.name).write_bytes(path.read_bytes())
            runs.append(["verify-suite", str(tmp_path / path.stem)])
        else:
            runs.append([command_of[kind], str(path)])
    runs = [argv + ["--format", "json"] for argv in runs]
    first = [_run(argv) for argv in runs]
    for order in (runs, runs[::-1]):
        again = {tuple(argv): _run(argv) for argv in order}
        for argv, want in zip(runs, first):
            got = again[tuple(argv)]
            assert (got["exit"], got["stdout"]) == (want["exit"], want["stdout"]), argv


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(run_all(), indent=1, sort_keys=True) + "\n")
    sys.exit(0)
