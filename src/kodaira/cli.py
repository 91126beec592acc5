"""Batch front door: parse instance files, dispatch, emit reports.

Instance files are JSON with an explicit schema_version; rational numbers
travel as "p/q" strings so exactness survives serialization.  Output is
deterministic byte for byte for a fixed input and flag set: keys are sorted,
sequences are canonically ordered, and no timestamp is emitted unless
--timestamps is given.

Exit codes: 0 success, 1 verdict failure, 2 input error, 3 empty or
degenerate instance, 4 internal cross-check mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache
from itertools import chain, repeat
from pathlib import Path

from .curve import AmbiguousDivisorError, CurveDivisorClass, CurveModel
from .fibration import (
    CurveProductInstance,
    ToricFibrationInstance,
    hirzebruch_fibration,
    product_fibration,
    run_check,
)
from .lattice import NEG_INF, GeometryError
from .multiplier import SingularMetricData, default_mu_grid, subadditivity_scan
from .semigroup import (
    DegreeBoundError,
    EmptySemigroupError,
    GradedSemigroup,
    growth_law_check,
    hilbert,
    hilbert_reg,
    regularize,
)
from .toric import (
    CrossCheckError,
    DEFAULT_DEGREE_BOUND,
    SectionSystem,
    ToricDivisorData,
    ToricVariety,
    kappa_report,
    kappa_sigma,
    limit_polytope,
)

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_INPUT = 2
EXIT_DEGENERATE = 3
EXIT_CROSSCHECK = 4
ERROR_PREFIX = {EXIT_INPUT: "input error", EXIT_DEGENERATE: "degenerate instance",
                EXIT_CROSSCHECK: "cross-check mismatch"}
COMMAND_KINDS = {"semigroup": "semigroup", "kappa": "toric_kappa",
                 "fibration": "fibration"}


class ValidationError(ValueError):
    """Instance file violates the published schema."""


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------

def _require_keys(obj, required, optional=(), where="object"):
    if not isinstance(obj, dict):
        raise ValidationError(f"{where} must be a JSON object")
    keys = set(obj)
    missing = set(required) - keys
    if missing:
        raise ValidationError(f"{where} misses fields: {sorted(missing)}")
    unknown = keys - set(required) - set(optional)
    if unknown:
        raise ValidationError(f"{where} has unknown fields: {sorted(unknown)}")


def _unique_keys(pairs):
    """json object_pairs_hook: an object whose keys are all distinct."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValidationError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def _rat(value, where="number"):
    try:
        if isinstance(value, bool):
            raise ValueError
        if isinstance(value, (int, str)):
            return Fraction(value)
    except (ValueError, ZeroDivisionError):
        pass
    raise ValidationError(f"{where}: expected integer or 'p/q' string, got {value!r}")


def _int(value, where="number", positive=False):
    if (isinstance(value, bool) or not isinstance(value, int)
            or positive and value < 1):
        kind = "positive integer" if positive else "integer"
        raise ValidationError(f"{where}: expected {kind}, got {value!r}")
    return value


def _list(value, where):
    if not isinstance(value, list):
        raise ValidationError(f"{where}: expected a list, got {value!r}")
    return value


def _int_rows(rows, where):
    """A JSON list of integer lists, returned as it is.  The entry types are
    checked in one pass over all entries; only when it fails are the rows
    walked again, to name the first bad entry."""
    if not (isinstance(rows, list) and all(map(isinstance, rows, repeat(list)))
            and set(map(type, chain.from_iterable(rows))) <= {int}):
        if not isinstance(rows, list):
            raise ValidationError(f"{where}: expected a list of integer lists, got {rows!r}")
        for row in rows:
            if not isinstance(row, list):
                raise ValidationError(f"{where}: expected a list of integers, got {row!r}")
            for x in row:
                _int(x, f"{where} entry")
    return rows


def _kappa_json(x):
    return None if x == NEG_INF else x


def parse_variety(spec, where="variety"):
    _require_keys(spec, ["preset"], ["n", "a", "factors"], where)
    preset = spec["preset"]
    if preset == "projective_space":
        if "n" not in spec:
            raise ValidationError(f"{where}: projective_space needs n")
        return ToricVariety.projective_space(_int(spec["n"], where))
    if preset == "hirzebruch":
        if "a" not in spec:
            raise ValidationError(f"{where}: hirzebruch needs a")
        return ToricVariety.hirzebruch(_int(spec["a"], where))
    if preset == "product":
        factors = spec.get("factors")
        if not isinstance(factors, list) or len(factors) < 2:
            raise ValidationError(f"{where}: product needs >= 2 factors")
        out = parse_variety(factors[0], where)
        for f in factors[1:]:
            out = ToricVariety.product(out, parse_variety(f, where))
        return out
    raise ValidationError(f"{where}: unknown preset {preset!r}")


def _ray(value, ray_count, where):
    index = _int(value, where)
    if not 0 <= index < ray_count:
        raise ValidationError(
            f"{where}: ray index {index} out of range 0..{ray_count - 1}")
    return index


def parse_metric(entries, ray_count, where="metric"):
    if entries is None:
        return None
    if not isinstance(entries, list):
        raise ValidationError(f"{where} must be a list")
    pairs = []
    for e in entries:
        _require_keys(e, ["ray", "weight"], (), where)
        pairs.append((_ray(e["ray"], ray_count, where),
                      _rat(e["weight"], where)))
    return SingularMetricData(pairs) if pairs else None


def parse_divisor(values, ray_count, where, mismatch, item="coefficient"):
    coeffs = [_rat(c, item) for c in _list(values, where)]
    if len(coeffs) != ray_count:
        raise ValidationError(mismatch)
    return ToricDivisorData(coeffs)


def parse_instance(doc, path="<instance>"):
    _require_keys(doc, ["schema_version", "kind", "body"], ["options"], path)
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported schema_version {doc['schema_version']!r}")
    kind = doc["kind"]
    # a JSON list or object as kind is unhashable: no dict lookup for it
    if not isinstance(kind, str) or kind not in KIND_COMMANDS:
        raise ValidationError(f"unknown kind {kind!r}")
    options = doc.get("options", {})
    _require_keys(options, [], ["max_degree", "strides", "growth_k_max"],
                  "options")
    return kind, doc["body"], options


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_semigroup(body, options):
    _require_keys(body, ["ambient_rank"],
                  ["generators", "levels", "closed_under_addition"], "body")
    n = _int(body["ambient_rank"], "ambient_rank")
    max_degree = options.get("max_degree", DEFAULT_DEGREE_BOUND)
    if "generators" in body:
        gens = _int_rows(body["generators"], "generators")
        sg = GradedSemigroup(n, generators=gens, degree_bound=max_degree)
    elif "levels" in body:
        if not isinstance(body["levels"], dict):
            raise ValidationError("levels: expected an object from degree to "
                                  f"point list, got {body['levels']!r}")
        levels, keys = {}, {}
        for key, pts in body["levels"].items():
            try:
                k = int(key)
            except ValueError:
                raise ValidationError(
                    f"levels: expected integer degree keys, got {key!r}") from None
            if k in keys:
                raise ValidationError(
                    f"levels: keys {keys[k]!r} and {key!r} both name degree {k}")
            keys[k] = key
            levels[k] = _int_rows(pts, f"levels[{key}]")
        closed = body.get("closed_under_addition", True)
        if not isinstance(closed, bool):
            raise ValidationError("closed_under_addition: expected true or "
                                  f"false, got {closed!r}")
        sg = GradedSemigroup(n, levels=levels, degree_bound=max_degree,
                             check_closure=closed)
        dropped = sorted(k for k in levels if k > max_degree)
        if dropped:
            print(f"warning: levels {', '.join(map(str, dropped))} lie above "
                  f"max_degree {max_degree} and are ignored", file=sys.stderr)
    else:
        raise ValidationError("body needs generators or levels")

    reg = regularize(sg)
    table = []
    for k in range(0, max_degree + 1):
        table.append({"degree": k, "count": hilbert(sg, k),
                      "regularized": hilbert_reg(reg, k)})
    growth = growth_law_check(reg, k_max=options.get("growth_k_max", 200))
    body_verts = [list(map(str, v)) for v in reg.okounkov_body.vertices()]
    report = {
        "kind": "semigroup",
        "max_degree": max_degree,
        "regularization": {
            "group_rank": len(reg.group_basis),
            "m": reg.m,
            "ind": reg.ind if reg.ind is not None else "undefined",
            # the cone is strongly convex by construction (Regularization)
            "strongly_convex": True,
            "okounkov_dim": reg.okounkov_dim,
            "okounkov_vertices": body_verts,
        },
        "hilbert": table,
        "growth_law": {
            "q": growth.q,
            "m": growth.m,
            "predicted": str(growth.a_q_predicted),
            "empirical": str(growth.a_q_empirical),
            "relative_gap": str(growth.relative_gap),
            "k_max": growth.k_max,
        },
    }
    return EXIT_OK, report, reg.okounkov_body


def cmd_kappa(body, options):
    _require_keys(body, ["variety", "coefficients"], ["metric", "ample"], "body")
    variety = parse_variety(body["variety"])
    rays = len(variety.rays)
    divisor = parse_divisor(body["coefficients"], rays, "coefficients",
                            "coefficient count does not match ray count")
    metric = parse_metric(body.get("metric"), rays)
    ample = None
    if "ample" in body:
        ample = parse_divisor(body["ample"], rays, "ample",
                              "ample coefficient count does not match rays",
                              "ample coefficient")
    max_degree = options.get("max_degree", DEFAULT_DEGREE_BOUND)

    sys_ = SectionSystem(variety, divisor, metric=metric,
                         degree_bound=max_degree)
    rep = kappa_report(sys_)
    sigma = kappa_sigma(sys_, ample=ample)
    stride_values = {}
    for a in options.get("strides", ()):
        stride_values[str(a)] = _kappa_json(
            kappa_sigma(sys_, ample=ample, stride=a))
    report = {
        "kind": "toric_kappa",
        "max_degree": max_degree,
        "variety": variety.name,
        "k0": sys_.k0,
        "kappa": _kappa_json(rep.kappa),
        "kappa1": _kappa_json(rep.kappa1),
        "kappa2": _kappa_json(rep.kappa2),
        "kappa3": _kappa_json(rep.kappa3),
        "witness_degree": rep.witness_degree,
        "kappa_sigma": _kappa_json(sigma),
        "support": sys_.support(),
        "counts": [sys_.count(k) for k in range(1, max_degree + 1)],
    }
    if stride_values:
        report["kappa_sigma_strides"] = stride_values
    return EXIT_OK, report, limit_polytope(variety, divisor, metric)


def _parse_curve_instance(body, max_degree):
    _require_keys(body, ["variant", "genus", "fiber", "fiber_divisor"],
                  ["base_extra_degree", "base_metric", "fiber_metric",
                   "checks", "twist_degree"], "body")
    genus = _int(body["genus"], "genus")
    curve = CurveModel(genus)
    extra = _int(body.get("base_extra_degree", 0), "base_extra_degree")
    base_points = []
    for e in _list(body.get("base_metric", []), "base_metric"):
        _require_keys(e, ["point", "weight"], (), "base_metric")
        base_points.append((str(e["point"]), _rat(e["weight"], "weight")))
    if extra == 0 and not base_points:
        base_class = CurveDivisorClass.canonical_multiple(curve, 1)
    else:
        base_class = CurveDivisorClass.general(2 * genus - 2 + extra)
    fiber = parse_variety(body["fiber"], "fiber")
    fdiv = parse_divisor(body["fiber_divisor"], len(fiber.rays), "fiber_divisor",
                         "fiber coefficient count mismatch", "fiber coefficient")
    fmetric = parse_metric(body.get("fiber_metric", []), len(fiber.rays),
                           "fiber_metric")
    return CurveProductInstance(
        curve=curve, base_class=base_class,
        fiber_variety=fiber, fiber_divisor=fdiv,
        fiber_metric=fmetric or SingularMetricData(()),
        base_metric=SingularMetricData(base_points),
        degree_bound=max_degree)


def _parse_toric_fibration_instance(body, max_degree):
    _require_keys(body, ["variant"],
                  ["fiber", "base", "a", "divisor", "metric",
                   "dx_rays", "dy_rays", "checks", "twist_degree"], "body")
    if body["variant"] == "toric_product":
        if "fiber" not in body or "base" not in body:
            raise ValidationError("toric_product needs fiber and base")
        fib = product_fibration(parse_variety(body["fiber"], "fiber"),
                                parse_variety(body["base"], "base"))
    else:
        if "a" not in body:
            raise ValidationError("hirzebruch variant needs a")
        fib = hirzebruch_fibration(_int(body["a"], "a"))
    rays, base_rays = len(fib.total.rays), len(fib.base.rays)
    divisor = None
    if "divisor" in body:
        divisor = parse_divisor(body["divisor"], rays, "divisor",
                                "divisor coefficient count mismatch")
    metric = parse_metric(body.get("metric"), rays)
    dx = frozenset(_ray(i, rays, "dx ray")
                   for i in _list(body.get("dx_rays", []), "dx_rays"))
    dy = frozenset(_ray(i, base_rays, "dy ray")  # a ray of the base
                   for i in _list(body.get("dy_rays", []), "dy_rays"))
    try:
        return ToricFibrationInstance(
            fibration=fib, divisor=divisor, metric=metric,
            dx_rays=dx, dy_rays=dy, degree_bound=max_degree)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def cmd_fibration(body, options):
    if not isinstance(body, dict) or "variant" not in body:
        raise ValidationError("body needs a variant")
    max_degree = options.get("max_degree", DEFAULT_DEGREE_BOUND)
    variant = body["variant"]
    if variant == "curve_times_toric":
        inst = _parse_curve_instance(body, max_degree)
    elif variant in ("toric_product", "hirzebruch"):
        inst = _parse_toric_fibration_instance(body, max_degree)
    else:
        raise ValidationError(f"unknown variant {variant!r}")
    least = inst.least_twist_degree
    twist = max(1, least)
    if "twist_degree" in body:
        twist = _int(body["twist_degree"], "twist_degree")
        if twist < least:
            raise ValidationError(
                f"twist_degree: expected at least {least}, got {twist}")

    verdicts = [run_check(inst, check, twist) for check in
                _list(body.get("checks", inst.default_checks), "checks")]
    # read after the verdicts, so that a bad check id is the error before
    # any invariant is computed, and in the instance's order
    rep, sigma, sigma_hor, fiber, base = inst.invariants()

    failed = sum(0 if v.holds else 1 for v in verdicts)
    report = {
        "kind": "fibration",
        "max_degree": max_degree,
        "variant": variant,
        "summary": {
            "kappa": _kappa_json(rep.kappa),
            "kappa_sigma": _kappa_json(sigma),
            "kappa_sigma_hor": _kappa_json(sigma_hor),
            "fiber_kappa": _kappa_json(fiber[0]),
            "fiber_kappa_sigma": _kappa_json(fiber[1]),
            "base_kappa": _kappa_json(base[0]),
            "base_kappa_sigma": _kappa_json(base[1]),
            "witness_degree": rep.witness_degree,
        },
        "verdicts": [
            {
                "check": v.check_id,
                "lhs": _kappa_json(v.lhs),
                "rhs_terms": [[label, _kappa_json(val)]
                              for label, val in v.rhs_terms],
                "combine": v.combine,
                "holds": v.holds,
                "vacuous": v.vacuous,
            }
            for v in verdicts
        ],
        "failed": failed,
    }
    return (EXIT_OK if failed == 0 else EXIT_VERDICT), report, None


def cmd_multiplier_scan(body, options):
    _require_keys(body, [], ["mu_grid", "max_value", "max_den", "k_max"], "body")
    # a field that admits no pair would pass a scan that checks nothing; each
    # is checked even next to a mu_grid, which makes the other two unused
    max_value = _int(body.get("max_value", 5), "max_value")
    if max_value < 0:
        raise ValidationError(
            f"max_value: expected nonnegative integer, got {max_value!r}")
    max_den = _int(body.get("max_den", 8), "max_den", positive=True)
    if "mu_grid" in body:
        grid = [_rat(x, "mu") for x in _list(body["mu_grid"], "mu_grid")]
        if not grid:
            raise ValidationError("mu_grid: expected a nonempty list, got []")
    else:
        grid = default_mu_grid(max_value=max_value, max_den=max_den)
    k_max = _int(body.get("k_max", 100), "k_max", positive=True)
    rep = subadditivity_scan(grid, k_max=k_max)
    report = {
        "kind": "multiplier_scan",
        "max_degree": k_max,
        "grid_size": len(grid),
        "k_max": k_max,
        "checked": rep.checked,
        "violations": [
            {"mu": str(mu), "k": k, "l": l,
             "c_k": ck, "c_l": cl, "c_kl": ckl}
            for mu, k, l, ck, cl, ckl in rep.violations
        ],
    }
    return (EXIT_OK if rep.ok else EXIT_VERDICT), report, None


# instance kind -> its command on (body, options), called by its module
# name at call time, so that a wrapper rebound to that name sees the call
KIND_COMMANDS = {
    "semigroup": lambda body, options: cmd_semigroup(body, options),
    "toric_kappa": lambda body, options: cmd_kappa(body, options),
    "fibration": lambda body, options: cmd_fibration(body, options),
    "multiplier_scan": lambda body, options: cmd_multiplier_scan(body, options),
}


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

# how a verdict's right-hand terms combine, keyed by InequalityVerdict.combine
RHS_SEPARATORS = {"sum": "+", "product": "*", "chain": "<="}


def render_text(report):
    lines = [f"kind: {report['kind']}"]

    def fmt(v):
        return "-inf" if v is None else str(v)

    if report["kind"] == "semigroup":
        r = report["regularization"]
        lines.append(f"group rank {r['group_rank']}, m {r['m']}, ind {r['ind']}, "
                     f"okounkov dim {r['okounkov_dim']}")
        lines.append("okounkov vertices: "
                     + "; ".join(",".join(v) for v in r["okounkov_vertices"]))
        g = report["growth_law"]
        lines.append(f"growth: q {g['q']} predicted {g['predicted']} "
                     f"empirical {g['empirical']} gap {g['relative_gap']}")
        lines.append("degree count regularized")
        for row in report["hilbert"]:
            lines.append(f"{row['degree']} {row['count']} {row['regularized']}")
    elif report["kind"] == "toric_kappa":
        lines.append(f"variety {report['variety']} (k0 {report['k0']})")
        lines.append(f"kappa {fmt(report['kappa'])} "
                     f"(witness degree {report['witness_degree']})")
        lines.append(f"kappa_sigma {fmt(report['kappa_sigma'])}")
        lines.append("counts " + " ".join(str(c) for c in report["counts"]))
    elif report["kind"] == "fibration":
        for v in report["verdicts"]:
            sep = f" {RHS_SEPARATORS[v['combine']]} "
            rhs = sep.join(f"{label}={fmt(val)}" for label, val in v["rhs_terms"])
            joint = "<=" if v["combine"] == "chain" else "vs"
            status = "HOLDS" if v["holds"] else "FAILS"
            extra = " (vacuous)" if v["vacuous"] else ""
            lines.append(
                f"{v['check']}: {fmt(v['lhs'])} {joint} {rhs} -> {status}{extra}")
        lines.append(f"failed: {report['failed']}")
    elif report["kind"] == "suite":
        for row in report["results"]:
            lines.append(f"{row['file']}: kind {row['kind']} exit {row['exit']}")
        lines.append(f"ran {report['ran']} failed {report['failed']}")
    return "\n".join(lines) + "\n"


def render_csv(report):
    rows = []
    if report["kind"] == "semigroup":
        rows.append("degree,count,regularized")
        for row in report["hilbert"]:
            rows.append(f"{row['degree']},{row['count']},{row['regularized']}")
    elif report["kind"] == "toric_kappa":
        rows.append("variety,kappa,kappa_sigma,witness_degree")
        rows.append(f"{report['variety']},{report['kappa']},"
                    f"{report['kappa_sigma']},{report['witness_degree']}")
    elif report["kind"] == "fibration":
        rows.append("check,lhs,rhs,holds,vacuous")
        for v in report["verdicts"]:
            rhs = RHS_SEPARATORS[v["combine"]].join(
                str(val) for _, val in v["rhs_terms"])
            rows.append(f"{v['check']},{v['lhs']},{rhs},{v['holds']},{v['vacuous']}")
    elif report["kind"] == "suite":
        rows.append("file,kind,exit")
        for row in report["results"]:
            rows.append(f"{row['file']},{row['kind']},{row['exit']}")
    return "\n".join(rows) + "\n"


def render(report, fmt, timestamps=False):
    report = dict(report)
    if timestamps:
        import datetime
        report["generated_at"] = datetime.datetime.now(
            datetime.timezone.utc).isoformat()
    report["schema_version"] = SCHEMA_VERSION
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        return render_csv(report)
    return render_text(report)


def export_polytope(poly, path):
    verts = poly.vertices()
    lines = ["OFF", f"{len(verts)} 0 0"]
    for v in verts:
        lines.append(" ".join(map(str, v)))
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def run_instance(doc, path="<instance>", overrides=None, command=None):
    """(exit_code, report, exportable polytope or None) for a parsed file;
    command, when given, is the CLI command that must match the file's kind."""
    kind, body, options = parse_instance(doc, path)
    if command is not None and kind != COMMAND_KINDS[command]:
        raise ValidationError(f"command {command} cannot run kind {kind!r}")
    options = dict(options)
    for key, value in (overrides or {}).items():
        if value is not None:
            options[key] = value
    for key in ("max_degree", "growth_k_max"):
        if key in options:
            _int(options[key], key, positive=True)
    if not isinstance(options.get("strides", []), list):
        raise ValidationError("strides must be a list")
    for a in options.get("strides", []):
        _int(a, "stride", positive=True)
    return KIND_COMMANDS[kind](body, options)


def _run_file(path, overrides, command=None):
    """(exit_code, report, exportable polytope or None) for one instance
    file; an error comes back as an error report with its exit code."""
    try:
        doc = json.loads(Path(path).read_text(), object_pairs_hook=_unique_keys)
        return run_instance(doc, str(path), overrides, command)
    except EmptySemigroupError as exc:
        code, error = EXIT_DEGENERATE, str(exc)
    except (CrossCheckError, DegreeBoundError) as exc:
        code, error = EXIT_CROSSCHECK, str(exc)
    except (OSError, ValidationError, AmbiguousDivisorError, GeometryError,
            ValueError) as exc:
        code, error = EXIT_INPUT, str(exc)
    return code, {"kind": "error", "error": error}, None


def _suite_row(path, overrides):
    """Worker-safe: (exit_code, report kind) of one file."""
    code, report, _ = _run_file(path, overrides)
    return code, report["kind"]


def cmd_verify_suite(directory, overrides, jobs=1):
    root = Path(directory)
    if not root.is_dir():
        return EXIT_INPUT, {"kind": "error",
                            "error": f"not a directory: {directory}"}
    files = sorted(p for p in root.iterdir() if p.suffix == ".json")
    results = []
    if jobs > 1 and len(files) > 1:
        # imported here: concurrent.futures and multiprocessing cost every
        # other run their import time
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_suite_row, [str(p) for p in files],
                                 [overrides] * len(files)))
    else:
        rows = [_suite_row(str(p), overrides) for p in files]
    failed = 0
    for path, (code, kind) in zip(files, rows):
        results.append({"file": path.name, "kind": kind, "exit": code})
        if code != EXIT_OK:
            failed += 1
    report = {"kind": "suite", "ran": len(files), "failed": failed,
              "results": results}
    if not files:
        print("warning: no instance files found", file=sys.stderr)
    return (EXIT_OK if failed == 0 else EXIT_VERDICT), report


@cache
def build_parser():
    """The CLI parser, built once per process."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--max-degree", type=int, default=None,
                        help=f"degree bound (default {DEFAULT_DEGREE_BOUND})")
    common.add_argument("--stride", type=int, action="append", default=None,
                        help="also recompute kappa_sigma on this stride")
    common.add_argument("--format", choices=("text", "json", "csv"),
                        default="text")
    common.add_argument("--export-polytope", metavar="PATH", default=None)
    common.add_argument("--out", metavar="PATH", default=None)
    common.add_argument("--jobs", type=int, default=1)
    common.add_argument("--timestamps", action="store_true")
    parser = argparse.ArgumentParser(
        prog="kodaira",
        description=("Exact section growth invariants, Newton-Okounkov bodies "
                     "and multiplier-ideal checks on toric and curve models"))
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMAND_KINDS:
        p = sub.add_parser(name, parents=[common])
        p.add_argument("file")
    p = sub.add_parser("verify-suite", parents=[common])
    p.add_argument("directory")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    overrides = {"max_degree": args.max_degree}
    if args.stride:
        overrides["strides"] = args.stride

    poly = None
    if args.command == "verify-suite":
        code, report = cmd_verify_suite(args.directory, overrides,
                                        jobs=max(args.jobs, 1))
    else:
        code, report, poly = _run_file(args.file, overrides, args.command)
        if report["kind"] == "error":
            print(f"{ERROR_PREFIX[code]}: {report['error']}", file=sys.stderr)
            return code
        if args.export_polytope and poly is None:
            print("polytope export not available for this kind", file=sys.stderr)
            return EXIT_INPUT

    text = render(report, args.format, timestamps=args.timestamps)
    try:
        if poly is not None and args.export_polytope:
            export_polytope(poly, args.export_polytope)
        if args.out:
            Path(args.out).write_text(text)
    except OSError as exc:  # an output path that cannot be written
        print(f"{ERROR_PREFIX[EXIT_INPUT]}: {exc.filename}: {exc.strerror}",
              file=sys.stderr)
        return EXIT_INPUT
    if not args.out:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
