"""Byte-for-byte CLI output on the bundled corpus.

tests/golden_corpus.json holds the exit code, stdout and stderr of
`kodaira <command> FILE --format {json,text}` for every corpus file under
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

from kodaira.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden_corpus.json"
COMMANDS = ("semigroup", "kappa", "fibration")
FORMATS = ("json", "text")


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


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(run_all(), indent=1, sort_keys=True) + "\n")
    sys.exit(0)
