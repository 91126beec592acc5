"""Output checks, run after the timed loop on the first pass's outputs.

An op that exits with an error code (2 input error, 3 degenerate, 4
cross-check mismatch, or a crash) is a failed op.  An op whose output is
wrong, or that reports a failing verdict for an inequality that holds on
every instance, fails the whole benchmark run instead.
"""

from __future__ import annotations

import json
from fractions import Fraction

import gen

EXIT_VERDICT = 1
BRUTE_FORCE_DEGREES = (1, 2, 3)


def effective_exit(command, code, text):
    """Exit code of the instance itself (verify-suite wraps one file)."""
    if command != "verify-suite":
        return code
    try:
        results = json.loads(text)["results"]
    except (ValueError, KeyError, TypeError):
        return code
    return results[0]["exit"] if len(results) == 1 else code


def _kappa(x):
    return float("-inf") if x is None else x


def check_fibration(doc, rep):
    problems = []
    if rep.get("failed") != 0:
        problems.append(f"failed verdicts: {rep.get('failed')}")
    s = rep["summary"]
    k, kh, ks = (_kappa(s["kappa"]), _kappa(s["kappa_sigma_hor"]),
                 _kappa(s["kappa_sigma"]))
    if not k <= kh <= ks:
        problems.append(f"kappa {k} <= kappa_sigma_hor {kh} <= "
                        f"kappa_sigma {ks} fails")
    return problems


def check_kappa(doc, rep):
    problems = []
    triple = (rep["kappa1"], rep["kappa2"], rep["kappa3"])
    if len(set(triple)) != 1 or rep["kappa"] != rep["kappa1"]:
        problems.append(f"kappa, kappa1..3 differ: {rep['kappa']}, {triple}")
    for stride, value in rep.get("kappa_sigma_strides", {}).items():
        if value != rep["kappa_sigma"]:
            problems.append(f"stride {stride} gives {value}, "
                            f"kappa_sigma {rep['kappa_sigma']}")
    body = doc["body"]
    coeffs = tuple(Fraction(c) for c in body["coefficients"])
    metric = tuple((e["ray"], Fraction(e["weight"]))
                   for e in body.get("metric", ()))
    for k in BRUTE_FORCE_DEGREES:
        want = len(gen.exponents(body["variety"], coeffs, metric, k))
        if rep["counts"][k - 1] != want:
            problems.append(f"count at degree {k}: {rep['counts'][k - 1]}, "
                            f"brute force {want}")
    return problems


def check_scan(doc, rep):
    ok = (rep.get("ran") == 1 and rep.get("failed") == 0
          and rep["results"][0]["kind"] == "multiplier_scan")
    return [] if ok else [f"suite report {rep.get('results')}"]


def check_semigroup(doc, rep):
    body = doc["body"]
    bound = doc["options"]["max_degree"]
    if "levels" in body:
        want = [1] + [len(body["levels"].get(str(k), ()))
                      for k in range(1, bound + 1)]
    else:
        gens = [tuple(g) for g in body["generators"]]
        want = [len(a) for a in gen.generated_levels(gens, bound)]
    got = [row["count"] for row in rep["hilbert"]]
    return [] if got == want else [f"hilbert counts {got}, levels {want}"]


CHECKS = {"fibration": check_fibration, "toric_kappa": check_kappa,
          "multiplier_scan": check_scan, "semigroup": check_semigroup}


def check(doc, command, code, text):
    """Problems with one op's output; [] when it is right or the op failed."""
    inner = effective_exit(command, code, text)
    try:
        rep = json.loads(text)
    except ValueError:
        rep = None  # a crash or an error exit prints no report
    if inner == EXIT_VERDICT and rep is not None:
        return [f"verdict failure reported: {text.strip()[:200]}"]
    if inner != 0:
        return []  # a failed op, counted as such
    if rep is None:
        return ["exit 0 with output that is not JSON"]
    try:
        return CHECKS[doc["kind"]](doc, rep)
    except (KeyError, IndexError, TypeError) as exc:
        return [f"report lacks a field: {exc!r}"]
