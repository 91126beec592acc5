"""Instance generator for the benchmark workloads (standard library only).

Every instance file is written from this module's own tables and a seed; it
never imports the package under test, so two commits measured with the same
seed receive byte-identical inputs (compare the printed input digests).

A workload is a fixed enumerated core plus a seeded draw of the same shapes.
The seed changes which draw instances appear, never their shape or number.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

FIBRATION_BOUND = 16   # the bundled corpus's bound for fibration files
KAPPA_BOUND = 24       # the CLI default
OKOUNKOV_BOUND_LOW = 12   # rank <= 2 section semigroups
OKOUNKOV_BOUND_RANK3 = 7  # rank 3: below it the 3-D hull runs for minutes

# ---------------------------------------------------------------------------
# varieties: CLI presets plus their rays, rebuilt here independently
# ---------------------------------------------------------------------------

P1 = {"preset": "projective_space", "n": 1}
P2 = {"preset": "projective_space", "n": 2}
P3 = {"preset": "projective_space", "n": 3}


def hirzebruch(a):
    return {"preset": "hirzebruch", "a": a}


def product(*factors):
    return {"preset": "product", "factors": list(factors)}


P1xP1 = product(P1, P1)
P1xP2 = product(P1, P2)
P1xP1xP1 = product(P1, P1, P1)


def factors(spec):
    """Flat list of the P^n / F_a factors of a variety spec."""
    if spec["preset"] == "product":
        return [f for part in spec["factors"] for f in factors(part)]
    return [spec]


def factor_rays(spec):
    if spec["preset"] == "projective_space":
        n = spec["n"]
        rays = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
        return rays + [tuple([-1] * n)]
    a = spec["a"]
    return [(1, 0), (0, 1), (-1, a), (0, -1)]


def rays(spec):
    """Rays in the package's order: factor blocks, each padded with zeros."""
    blocks = [factor_rays(f) for f in factors(spec)]
    dims = [len(b[0]) for b in blocks]
    out = []
    for i, block in enumerate(blocks):
        before, after = sum(dims[:i]), sum(dims[i + 1:])
        out += [(0,) * before + r + (0,) * after for r in block]
    return out


def rank(spec):
    return len(rays(spec)[0])


def _factor_box(spec, bounds):
    """Integer box of {u : <u, ray_i> >= bounds[i]} for one factor."""
    if spec["preset"] == "projective_space":
        n = spec["n"]
        lo = list(bounds[:n])
        total = -bounds[n]  # sum of coordinates is at most this
        return [(lo[i], total - (sum(lo) - lo[i])) for i in range(n)]
    a = spec["a"]
    hi2 = -bounds[3]
    return [(bounds[0], a * hi2 - bounds[2]), (bounds[1], hi2)]


def box(spec, bounds):
    out = []
    start = 0
    for f in factors(spec):
        nr = len(factor_rays(f))
        out += _factor_box(f, bounds[start:start + nr])
        start += nr
    return out


# ---------------------------------------------------------------------------
# exact section exponents, by brute force over the box
# ---------------------------------------------------------------------------

def k0(coeffs):
    out = 1
    for c in coeffs:
        out = out * c.denominator // math.gcd(out, c.denominator)
    return out


def multiplier(mu, t):
    """max(floor(t mu) - t + 1, 0): the t-th multiplier-ideal coefficient."""
    return max(math.floor(t * mu) - t + 1, 0)


def degree_bounds(spec, coeffs, metric, k):
    """Integer right-hand sides of the degree-k section polytope."""
    t = k * k0(coeffs)
    weights = dict(metric)
    out = []
    for i, c in enumerate(coeffs):
        b = -(t * c)
        assert b.denominator == 1
        b = int(b)
        if weights.get(i):
            b += multiplier(weights[i], t)
        out.append(b)
    return out


def exponents(spec, coeffs, metric, k):
    """Sorted integer points u with <u, ray_i> >= bound_i for every ray."""
    rs = rays(spec)
    bounds = degree_bounds(spec, coeffs, metric, k)
    ranges = [range(lo, hi + 1) for lo, hi in box(spec, bounds)]
    return [u for u in itertools.product(*ranges)
            if all(sum(a * b for a, b in zip(u, r)) >= c
                   for r, c in zip(rs, bounds))]


# ---------------------------------------------------------------------------
# the toric kappa corpus (61 named systems in dimensions 1 to 3)
# ---------------------------------------------------------------------------

HALF = Fraction(1, 2)
THREEHALF = Fraction(3, 2)


def toric_systems():
    """(name, variety spec, coefficients, metric) in the corpus's order."""
    out = []

    def add(name, spec, coeffs, metric=()):
        out.append((name, spec, tuple(Fraction(c) for c in coeffs),
                    tuple((r, Fraction(w)) for r, w in metric)))

    for d, c in (("deg2", (0, 2)), ("deg1", (0, 1)), ("deg0", (0, 0)),
                 ("degneg", (0, -1)), ("half", (HALF, HALF)),
                 ("skew", (2, -1))):
        add(f"p1_{d}", P1, c)
    add("p1_deg2_mu2", P1, (0, 2), [(0, 2)])
    add("p1_deg2_mu3", P1, (0, 2), [(0, 3)])
    add("p1_deg2_mu4", P1, (0, 2), [(0, 4)])
    add("p1_deg0_mu1", P1, (0, 0), [(0, 1)])
    add("p1_deg2_muhalf", P1, (0, 2), [(0, HALF)])
    add("p1_deg2_mu32", P1, (0, 2), [(0, THREEHALF)])
    add("p1_deg4_mu2_both", P1, (2, 2), [(0, 2), (1, 2)])
    add("p1_half_mu1", P1, (HALF, HALF), [(0, 1)])

    for d, c in (("ample", (1, 1, 1)), ("unit", (0, 0, 1)),
                 ("zero", (0, 0, 0)), ("canonical", (-1, -1, -1)),
                 ("skew", (1, 0, -1))):
        add(f"p2_{d}", P2, c)
    add("p2_unit_mu1", P2, (0, 0, 1), [(2, 1)])
    add("p2_unit_mu32", P2, (0, 0, 1), [(0, THREEHALF)])
    add("p2_ample_mu2", P2, (1, 1, 1), [(1, 2)])
    add("p2_ample_mu2_mu1", P2, (1, 1, 1), [(1, 2), (2, 1)])
    add("p2_zero_mu1", P2, (0, 0, 0), [(0, 1)])

    for d, c in (("square", (1, 1, 1, 1)), ("vertical", (0, 0, 0, 2)),
                 ("line", (0, 1, 0, 0)), ("zero", (0, 0, 0, 0)),
                 ("mixed", (1, 1, 0, -1))):
        add(f"p1xp1_{d}", P1xP1, c)
    add("p1xp1_square_mu2", P1xP1, (1, 1, 1, 1), [(0, 2)])
    add("p1xp1_square_mu32", P1xP1, (1, 1, 1, 1),
        [(0, THREEHALF), (2, THREEHALF)])
    add("p1xp1_vertical_mu1", P1xP1, (0, 0, 0, 2), [(0, 1)])
    add("p1xp1_vertical_mu2", P1xP1, (0, 0, 0, 2), [(3, 2)])
    add("p1xp1_zero_mu1", P1xP1, (0, 0, 0, 0), [(0, 1), (2, 1)])
    add("p1xp1_half", P1xP1, (HALF, HALF, 0, 1))

    for a in (1, 2, 3):
        fa = hirzebruch(a)
        add(f"f{a}_ample", fa, (1, 1, a, 1))
        add(f"f{a}_fiber", fa, (1, 0, 0, 0))
        add(f"f{a}_zero", fa, (0, 0, 0, 0))
        add(f"f{a}_ample_mu2", fa, (1, 1, a, 1), [(1, 2)])
        add(f"f{a}_fiber_mu1", fa, (1, 0, 0, 0), [(1, 1)])

    for d, c in (("unit", (0, 0, 0, 1)), ("zero", (0, 0, 0, 0)),
                 ("canonical", (-1, -1, -1, -1))):
        add(f"p3_{d}", P3, c)
    add("p3_unit_mu1", P3, (0, 0, 0, 1), [(3, 1)])
    add("p3_unit_mu32", P3, (0, 0, 0, 1), [(0, THREEHALF)])
    add("p1xp2_mixed", P1xP2, (0, 1, 0, 0, 1))
    add("p1xp2_line", P1xP2, (0, 1, 0, 0, 0))
    add("p1xp2_mixed_mu2", P1xP2, (0, 1, 0, 0, 1), [(1, 2)])
    add("p1xp1xp1_diag", P1xP1xP1, (0, 1, 0, 1, 0, 1))
    add("p1xp1xp1_two", P1xP1xP1, (0, 1, 0, 1, 0, 0))
    add("p1xp1xp1_mu1", P1xP1xP1, (0, 1, 0, 1, 0, 1), [(0, 1)])
    return out


# ---------------------------------------------------------------------------
# JSON documents
# ---------------------------------------------------------------------------

def rat(x):
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def metric_json(metric):
    return [{"ray": r, "weight": str(Fraction(w))} for r, w in metric]


def doc(kind, body, options):
    return {"schema_version": "1", "kind": kind, "body": body,
            "options": options}


def kappa_doc(spec, coeffs, metric, strides=None):
    body = {"variety": spec, "coefficients": [rat(c) for c in coeffs]}
    if metric:
        body["metric"] = metric_json(metric)
    options = {"max_degree": KAPPA_BOUND}
    if strides:
        options["strides"] = list(strides)
    return doc("toric_kappa", body, options)


def scan_doc(body):
    return doc("multiplier_scan", body, {})


def levels_doc(n, levels, bound):
    body = {"ambient_rank": n,
            "levels": {str(k): [list(u) for u in pts]
                       for k, pts in enumerate(levels, 1)},
            "closed_under_addition": True}
    return doc("semigroup", body, {"max_degree": bound})


def generators_doc(n, gens, bound, k_max):
    body = {"ambient_rank": n, "generators": [list(g) for g in gens]}
    return doc("semigroup", body, {"max_degree": bound, "growth_k_max": k_max})


# -- fibration shapes --------------------------------------------------------

FIBRATIONS = [  # (name, body fields, total ray count, pullback rays)
    ("p1xp1", {"variant": "toric_product", "fiber": P1, "base": P1}, (2, 3)),
] + [(f"f{a}", {"variant": "hirzebruch", "a": a}, (0, 2)) for a in (1, 2, 3)]

METRIC_CHECKS = ["112", "112k", "chain", "upper", "iitaka", "simple"]
CURVE_CHECKS = ["112", "112k", "chain", "upper", "dio", "addti"]


def fibration_doc(body):
    return doc("fibration", body, {"max_degree": FIBRATION_BOUND})


def boundary_docs():
    """Every reduced (D_X, D_Y) pair with f^*D_Y inside D_X: 36 per fibration."""
    out = []
    for fname, fields, pullback in FIBRATIONS:
        for dy_size in range(3):
            for dy in itertools.combinations(range(2), dy_size):
                forced = {pullback[b] for b in dy}
                free = [i for i in range(4) if i not in forced]
                for r in range(len(free) + 1):
                    for extra in itertools.combinations(free, r):
                        dx = sorted(forced | set(extra))
                        name = (f"{fname}_dy{''.join(map(str, dy))}_"
                                f"dx{''.join(map(str, dx))}")
                        body = dict(fields, dx_rays=dx, dy_rays=list(dy))
                        out.append((name, fibration_doc(body)))
    return out


def metric_fibration_body(fields, coeffs, metric):
    body = dict(fields, divisor=[rat(c) for c in coeffs],
                checks=METRIC_CHECKS)
    if metric:
        body["metric"] = metric_json(metric)
    return body


def metric_docs():
    prod = FIBRATIONS[0][1]
    cases = [
        ("prod_semiample", (0, 1, 0, 1), ()),
        ("prod_vertical_mu1", (0, 0, 0, 2), [(0, 1)]),
        ("prod_basefat_mu1", (0, 0, 0, 2), [(2, 1)]),
        ("prod_drop", (0, 2, 0, 0), [(2, 1)]),
        ("prod_mu32", (0, 1, 0, 1), [(0, THREEHALF)]),
        ("prod_muhalf", (0, 1, 0, 1), [(0, HALF), (2, HALF)]),
        ("prod_empty", (0, -1, 0, 1), ()),
    ]
    out = [(f"m_{name}", fibration_doc(metric_fibration_body(prod, c, m)))
           for name, c, m in cases]
    for a in (1, 2):
        fields = {"variant": "hirzebruch", "a": a}
        out.append((f"m_f{a}_mu1", fibration_doc(
            metric_fibration_body(fields, (1, 0, 0, 1), [(1, 1)]))))
        out.append((f"m_f{a}_plain", fibration_doc(
            metric_fibration_body(fields, (0, 1, 0, 1), ()))))
    return out


def curve_body(genus, extra, fiber, fdiv, fmetric=(), base_points=()):
    body = {"variant": "curve_times_toric", "genus": genus, "fiber": fiber,
            "fiber_divisor": [rat(c) for c in fdiv], "checks": CURVE_CHECKS,
            "twist_degree": 2 * genus + 1}
    if extra:
        body["base_extra_degree"] = extra
    if fmetric:
        body["fiber_metric"] = metric_json(fmetric)
    if base_points:
        body["base_metric"] = [{"point": p, "weight": str(Fraction(w))}
                               for p, w in base_points]
    return body


CURVE_CASES = [
    ("g2_p1_mu2", 2, 0, P1, (0, 2), [(0, 2)], ()),
    ("g3_p1_mu2", 3, 0, P1, (0, 2), [(0, 2)], ()),
    ("g2_p1_plain", 2, 0, P1, (0, 2), (), ()),
    ("g2_p1_mu32", 2, 0, P1, (0, 2), [(0, THREEHALF)], ()),
    ("g3_p1_deg1", 3, 0, P1, (0, 1), (), ()),
    ("g2_p1_zero", 2, 0, P1, (0, 0), (), ()),
    ("g2_p1_empty", 2, 0, P1, (0, -1), (), ()),
    ("g2_p1_mu1_sep", 2, 0, P1, (0, 0), [(0, 1)], ()),
    ("g2_p1xp1_nef", 2, 0, P1xP1, (0, 1, 0, 1), (), ()),
    ("g3_p1xp1_nef", 3, 0, P1xP1, (0, 1, 0, 1), (), ()),
    ("g2_p1xp1_vertical", 2, 0, P1xP1, (0, 0, 0, 2), (), ()),
    ("g2_p1xp1_mu2", 2, 0, P1xP1, (0, 2, 0, 2), [(0, 2)], ()),
    ("g2_p2_unit", 2, 0, P2, (0, 0, 1), (), ()),
    ("g3_p2_mu32", 3, 0, P2, (0, 0, 1), [(0, THREEHALF)], ()),
    ("g2_p1_basemarked", 2, 6, P1, (0, 2), (), [("p", THREEHALF)]),
    ("g2_p1_basemarked_mu2", 2, 8, P1, (0, 2), [(0, 2)],
     [("p", 2), ("q", HALF)]),
]


def curve_docs():
    return [(f"c_{name}", fibration_doc(curve_body(*case)))
            for name, *case in CURVE_CASES]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

WEIGHTS = (HALF, Fraction(1), THREEHALF, Fraction(2))


def draw_metric(rng, rays_allowed, count):
    chosen = rng.sample(rays_allowed, count)
    return [(r, rng.choice(WEIGHTS)) for r in sorted(chosen)]


def metric_fibration_draw(rng, i):
    if rng.random() < 0.5:
        fields = FIBRATIONS[0][1]
        coeffs = (0, rng.randint(0, 2), 0, rng.randint(0, 2))
        metric = draw_metric(rng, [0, 2], rng.randint(0, 2))
    else:
        fields = {"variant": "hirzebruch", "a": rng.randint(1, 2)}
        coeffs = (rng.randint(0, 1), rng.randint(0, 1), 0, rng.randint(0, 1))
        metric = draw_metric(rng, [1, 3], rng.randint(0, 1))
    return (f"draw_m{i}",
            fibration_doc(metric_fibration_body(fields, coeffs, metric)))


def curve_draw(rng, i):
    genus = rng.randint(2, 3)
    fiber, fdiv = rng.choice([
        (P1, (0, rng.randint(-1, 2))),
        (P1xP1, (0, rng.randint(0, 2), 0, rng.randint(0, 2))),
        (P2, (0, 0, rng.randint(0, 1))),
    ])
    fmetric = draw_metric(rng, [0], rng.randint(0, 1))
    base_points = ()
    extra = 0
    if rng.random() < 0.3:
        base_points = (("p", rng.choice(WEIGHTS)),)
        extra = rng.randint(4, 8)
    return (f"draw_c{i}", fibration_doc(
        curve_body(genus, extra, fiber, fdiv, fmetric, base_points)))


def fibration_workload(rng, draws=12):
    core = boundary_docs() + metric_docs() + curve_docs()
    draw = [metric_fibration_draw(rng, i) if i % 2 == 0 else curve_draw(rng, i)
            for i in range(draws)]
    return core, draw


# (variety, coefficient multiset) per draw slot: the seed permutes the
# coefficients over the rays and picks the metric, so every seed draws
# instances of about the same size (a free draw can cost 100 times more)
KAPPA_SLOTS = [(P1, (0, 2)), (P2, (0, 0, 1)), (P1xP1, (0, 1, 0, 1)),
               (hirzebruch(1), (0, 1, 0, 1)), (hirzebruch(2), (1, 0, 0, 1)),
               (P2, (1, 1, 0)), (P1xP1, (1, 0, 0, 1)), (hirzebruch(3), (0, 1, 0, 1))]


def kappa_spec(spec, coeffs, metric):
    strides = (2, 3, 5) if rank(spec) <= 2 else None
    return kappa_doc(spec, coeffs, metric, strides)


def kappa_draw(rng, i):
    spec, coeffs = KAPPA_SLOTS[i % len(KAPPA_SLOTS)]
    coeffs = rng.sample(coeffs, len(coeffs))
    metric = draw_metric(rng, list(range(len(coeffs))), 1)
    return f"draw_k{i}", kappa_spec(spec, coeffs, metric)


def scan_draw(rng, i):
    grid = sorted({Fraction(rng.randint(0, 5 * q), q)
                   for q in (rng.randint(1, 8) for _ in range(25))})
    return f"draw_scan{i}", scan_doc({"mu_grid": [str(mu) for mu in grid],
                                      "k_max": 100})


def kappa_workload(rng, draws=8, scans=4):
    core = [(name, kappa_spec(spec, coeffs, metric))
            for name, spec, coeffs, metric in toric_systems()]
    core.append(("scan_default", scan_doc({"max_value": 5, "max_den": 8,
                                           "k_max": 100})))
    draw = ([kappa_draw(rng, i) for i in range(draws)]
            + [scan_draw(rng, i) for i in range(scans)])
    return core, draw


# generator sets per draw slot, rows (u, level); every slice has at most six
# points, so even in rank 3 the hull stays far below its slow band
GENERATOR_SLOTS = [
    [(0, 1), (1, 1), (3, 2)],
    [(0, 0, 1), (1, 0, 1), (0, 1, 1), (2, 1, 2)],
    [(0, 0, 0, 1), (1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1), (1, 1, 1, 2)],
    [(-1, 1), (2, 1), (1, 2)],
    [(1, 0, 1), (0, 2, 1), (-1, -1, 1), (1, 1, 2)],
    [(1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1), (-1, -1, 0, 1)],
    [(0, 1), (2, 1), (-1, 2)],
    [(0, 0, 1), (2, 0, 1), (0, 2, 1), (1, 1, 2)],
]


def generators_draw(rng, i):
    """A slot's generators under a seeded signed permutation of coordinates:
    Hilbert functions and volumes, hence the op's cost, stay those of the
    slot; the numbers in the output change."""
    base = GENERATOR_SLOTS[i % len(GENERATOR_SLOTS)]
    n = len(base[0]) - 1
    perm = rng.sample(range(n), n)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    gens = sorted(tuple(signs[j] * g[perm[j]] for j in range(n)) + (g[-1],)
                  for g in base)
    bound = OKOUNKOV_BOUND_LOW if n <= 2 else OKOUNKOV_BOUND_RANK3
    return f"draw_gen{i}", generators_doc(n, gens, bound, 60)


def generated_levels(gens, bound):
    """Level sets A_0..A_bound of the semigroup generated by (u, level) rows."""
    n = len(gens[0]) - 1
    levels = [{(0,) * n}]
    for t in range(1, bound + 1):
        acc = set()
        for g in gens:
            if g[-1] <= t:
                head = g[:-1]
                acc.update(tuple(a + b for a, b in zip(p, head))
                           for p in levels[t - g[-1]])
        levels.append(acc)
    return levels


def okounkov_workload(rng, draws=8):
    core = []
    for name, spec, coeffs, metric in toric_systems():
        bound = OKOUNKOV_BOUND_LOW if rank(spec) <= 2 else OKOUNKOV_BOUND_RANK3
        levels = [exponents(spec, coeffs, metric, k)
                  for k in range(1, bound + 1)]
        if any(levels):
            core.append((f"sg_{name}", levels_doc(rank(spec), levels, bound)))
    draw = [generators_draw(rng, i) for i in range(draws)]
    return core, draw


WORKLOADS = {
    "fibration": fibration_workload,
    "kappa": kappa_workload,
    "okounkov": okounkov_workload,
}

COMMANDS = {"fibration": "fibration", "toric_kappa": "kappa",
            "semigroup": "semigroup", "multiplier_scan": "verify-suite"}


def instances(workload, seed):
    """[(instance id, CLI command, JSON text)] in run order."""
    core, draw = WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
    out = []
    for name, d in core + draw:
        text = json.dumps(d, sort_keys=True, indent=2) + "\n"
        out.append((name, COMMANDS[d["kind"]], text))
    return out


def digest(texts):
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]
