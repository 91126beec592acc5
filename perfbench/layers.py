"""Per-layer metrics derived from a traced run, each per pass of the inputs.

Every metric predicts a move in an end-to-end metric on some workload; the
table in BENCHMARK.json lists the same names, and README.md says which
end-to-end metric each should move and where.
"""

from __future__ import annotations

# (metric name, unit, better, how: (kind, source))
#   calls/total_s/self_s/errors: of a traced name, per pass
#   calls_per_op: calls of a traced name per op
#   count/max: a work counter per pass, or its maximum
#   ratio: a work counter per call of a traced name
#   module_self_s/module_errors: summed over the module's traced names
METRICS = [
    ("fibration.instance_kappa_values.calls_per_op", "count", "lower",
     ("calls_per_op", "fibration.instance_kappa_values")),
    ("fibration.fiber_kappa_values.calls_per_op", "count", "lower",
     ("calls_per_op", "fibration.fiber_kappa_values")),
    ("fibration.base_kappa_values.calls_per_op", "count", "lower",
     ("calls_per_op", "fibration.base_kappa_values")),
    ("toric.SectionSystem.created", "count", "lower",
     ("calls", "toric.SectionSystem.__init__")),
    ("toric.SectionSystem.count.hit_ratio", "ratio", "higher",
     ("ratio", "toric.SectionSystem.count.hits", "toric.SectionSystem.count")),
    ("toric.degree_polytope.calls", "count", "lower",
     ("calls", "toric.SectionSystem.degree_polytope")),
    ("toric.degree_polytope.self_s", "s", "lower",
     ("self_s", "toric.SectionSystem.degree_polytope")),
    ("lattice.Polytope.created", "count", "lower",
     ("calls", "lattice.Polytope.__init__")),
    ("lattice.Polytope.init_s", "s", "lower",
     ("total_s", "lattice.Polytope.__init__")),
    ("lattice.count_lattice_points.self_s", "s", "lower",
     ("self_s", "lattice.Polytope.count_lattice_points")),
    ("lattice.points_counted", "count", "lower",
     ("count", "lattice.points_counted")),
    ("toric.kappa_sigma.calls", "count", "lower",
     ("calls", "toric.kappa_sigma")),
    ("toric.kappa_sigma.total_s", "s", "lower",
     ("total_s", "toric.kappa_sigma")),
    ("toric.kappa_sigma_hor.total_s", "s", "lower",
     ("total_s", "toric.kappa_sigma_hor")),
    ("toric.is_ample.calls", "count", "lower", ("calls", "toric.is_ample")),
    ("toric.is_ample.total_s", "s", "lower", ("total_s", "toric.is_ample")),
    ("toric.growth_order_estimate.self_s", "s", "lower",
     ("self_s", "toric.growth_order_estimate")),
    ("toric.errors", "count", "lower", ("module_errors", "toric")),
    ("lattice.IntLattice.add.calls", "count", "lower",
     ("calls", "lattice.IntLattice.add")),
    ("lattice.IntLattice.add.changed_ratio", "ratio", "higher",
     ("ratio", "lattice.IntLattice.add.changed", "lattice.IntLattice.add")),
    ("lattice.hnf_basis.total_s", "s", "lower",
     ("total_s", "lattice.hnf_basis")),
    ("lattice.convex_hull.calls", "count", "lower",
     ("calls", "lattice.convex_hull")),
    ("lattice.convex_hull.self_s", "s", "lower",
     ("self_s", "lattice.convex_hull")),
    ("lattice.convex_hull.max_points", "count", "lower",
     ("max", "lattice.convex_hull.max_points")),
    ("lattice.convex_hull.errors", "count", "lower",
     ("errors", "lattice.convex_hull")),
    ("lattice.rat_rank.self_s", "s", "lower", ("self_s", "lattice.rat_rank")),
    ("lattice.lattice_volume.total_s", "s", "lower",
     ("total_s", "lattice.lattice_volume")),
    ("semigroup.regularize.total_s", "s", "lower",
     ("total_s", "semigroup.regularize")),
    ("semigroup.GradedSemigroup.init_s", "s", "lower",
     ("total_s", "semigroup.GradedSemigroup.__init__")),
    ("semigroup.hilbert_reg.total_s", "s", "lower",
     ("total_s", "semigroup.hilbert_reg")),
    ("semigroup.growth_law_check.total_s", "s", "lower",
     ("total_s", "semigroup.growth_law_check")),
    ("cli.render.self_s", "s", "lower", ("self_s", "cli.render")),
    ("lattice.points_enumerated", "count", "lower",
     ("count", "lattice.points_enumerated")),
    ("toric.SectionSystem.exponents.calls", "count", "lower",
     ("calls", "toric.SectionSystem.exponents")),
    ("multiplier.multiplier_coeff.calls", "count", "lower",
     ("calls", "multiplier.multiplier_coeff")),
    ("multiplier.subadditivity_scan.total_s", "s", "lower",
     ("total_s", "multiplier.subadditivity_scan")),
    ("curve.h0.calls", "count", "lower", ("calls", "curve.h0")),
] + [
    (f"{m}.self_s", "s", "lower", ("module_self_s", m))
    for m in ("cli", "fibration", "toric", "semigroup", "multiplier",
              "curve", "lattice")
] + [
    ("bench.pass_s", "s", "lower", ("pass_s", None)),
    ("bench.trace_overhead", "ratio", "lower", ("overhead", None)),
]


def per_layer(tracer, n_ops, n_passes, pass_s, overhead):
    """{metric name: (value, unit)} from a tracer that saw n_passes passes."""
    stats, counts = tracer.stats, tracer.counts

    def calls(key):
        st = stats.get(key)
        return st.calls if st else 0

    def value(kind, src, *rest):
        if kind == "calls":
            return calls(src) / n_passes
        if kind == "calls_per_op":
            return calls(src) / (n_ops * n_passes)
        if kind in ("total_s", "self_s", "errors"):
            st = stats.get(src)
            field = {"total_s": "total", "self_s": "self",
                     "errors": "errors"}[kind]
            return getattr(st, field) / n_passes if st else 0
        if kind == "count":
            return counts.get(src, 0) / n_passes
        if kind == "max":
            return counts.get(src, 0)
        if kind == "ratio":
            den = calls(rest[0])
            return counts.get(src, 0) / den if den else 0
        if kind == "module_self_s":
            return sum(st.self for key, st in stats.items()
                       if key.split(".", 1)[0] == src) / n_passes
        if kind == "module_errors":
            return tracer.module_errors.get(src, 0) / n_passes
        if kind == "pass_s":
            return pass_s
        return overhead

    return {name: (value(*how), unit) for name, unit, _, how in METRICS}
