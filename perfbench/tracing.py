"""Per-layer tracing by wrapping the package's functions from outside.

Nothing under src/ changes.  The tracer replaces a function at every module
that binds it (``from .lattice import hnf_basis`` leaves a second name in
``semigroup``) and a method on its class, and restores all of them on
``remove()``.  Timed names become spans: calls, total time (outermost call
of a recursion only) and self time (total minus the time of traced calls
made inside it).  Hot leaf calls only count, so that tracing stays cheap;
their time stays with the calling span.  Each traced name counts the
exceptions that leave it; each module counts an exception once, against the
first traced name it leaves.
"""

from __future__ import annotations

import functools
import sys
import time

PACKAGE = "kodaira"
MODULES = ("cli", "fibration", "toric", "semigroup", "multiplier", "curve",
           "lattice")

# Every name here is reached from the CLI on at least one workload (the
# self-test checks this).  "Class.method" names a method; __init__ spans
# give the created count and construction time.
TIMED = {
    "cli": ["main", "run_instance", "parse_instance", "parse_variety",
            "parse_metric", "cmd_semigroup", "cmd_kappa", "cmd_fibration",
            "cmd_multiplier_scan", "cmd_verify_suite", "render",
            "build_parser"],
    "fibration": ["kappa_summary", "instance_kappa_values",
                  "fiber_kappa_values", "base_kappa_values",
                  "curve_product_kappa", "curve_product_kappa_sigma",
                  "verify_subadditivity", "verify_chain",
                  "verify_upper_bound", "verify_dio_equality",
                  "verify_addti", "verify_stride", "verify_iitaka",
                  "iitaka_analysis", "general_fiber_data",
                  "product_fibration", "hirzebruch_fibration",
                  "ToricFibration.base_ample",
                  "CurveProductInstance.product_counts"],
    "toric": ["kappa1", "kappa2", "kappa3", "kappa_report", "kappa_sigma",
              "kappa_sigma_hor", "limit_polytope", "growth_order_estimate",
              "is_ample", "standard_ample", "divisor_polytope",
              "ToricVariety.__init__", "ToricVariety.direction_multipliers",
              "SectionSystem.__init__", "SectionSystem.degree_polytope",
              "SectionSystem.support", "SectionSystem.counts"],
    "semigroup": ["regularize", "hilbert", "hilbert_reg",
                  "growth_law_check", "GradedSemigroup.__init__",
                  "GradedSemigroup.level_points",
                  "GradedSemigroup.graded_points"],
    "multiplier": ["subadditivity_scan", "default_mu_grid"],
    "curve": ["kappa_curve", "kappa_sigma_curve"],
    "lattice": ["hnf", "hnf_basis", "saturate_rows", "int_kernel", "det_int",
                "int_points_rank", "solve_rational", "rat_rank",
                "solve_linear_system", "affine_rank", "convex_hull",
                "lattice_volume", "Polytope.__init__", "Polytope.is_empty",
                "Polytope.vertices", "Polytope.affine_dim",
                "Polytope.lattice_points", "Polytope.count_lattice_points"],
}

COUNTED = {
    "toric": ["SectionSystem.exponents", "SectionSystem.count"],
    "multiplier": ["multiplier_coeff"],
    "curve": ["h0"],
    "lattice": ["IntLattice.add", "IntLattice.contains"],
}


class Stat:
    __slots__ = ("calls", "total", "self", "errors", "active")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.errors = 0
        self.active = 0


class Tracer:
    """Aggregated spans and counts for the names in TIMED and COUNTED."""

    def __init__(self):
        self.stats = {}          # "module.name" -> Stat
        self.counts = {}         # named work counters
        self.module_errors = {}  # module -> distinct exceptions raised
        self._stack = []         # child time of each open span
        self._undo = []

    def add(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def _note_error(self, key, exc):
        self.stats[key].errors += 1
        if getattr(exc, "_bench_counted", False):
            return
        exc._bench_counted = True
        module = key.split(".", 1)[0]
        self.module_errors[module] = self.module_errors.get(module, 0) + 1

    # -- wrappers ------------------------------------------------------------

    def _timed(self, key, fn, before=None, after=None):
        st = self.stats.setdefault(key, Stat())
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if before is not None:
                before(args)
            child = [0.0]
            stack.append(child)
            st.active += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._note_error(key, exc)
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                st.active -= 1
                st.calls += 1
                st.self += elapsed - child[0]
                if not st.active:
                    st.total += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(args, result)
            return result
        return span

    def _counted(self, key, fn, before=None, after=None):
        st = self.stats.setdefault(key, Stat())

        @functools.wraps(fn)
        def counter(*args, **kwargs):
            st.calls += 1
            if before is not None:
                before(args)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._note_error(key, exc)
                raise
            if after is not None:
                after(args, result)
            return result
        return counter

    def _hooks(self):
        """(before, after) callbacks that count work where it happens."""
        def lattice_add(args, changed):
            if changed:
                self.add("lattice.IntLattice.add.changed")

        def count_probe(args):
            sys_, k = args[0], args[1]
            if (k in getattr(sys_, "_counts", ())
                    or k in getattr(sys_, "_points", ())):
                self.add("toric.SectionSystem.count.hits")

        def counted_points(args, n):
            self.add("lattice.points_counted", n)

        def enumerated_points(args, pts):
            self.add("lattice.points_enumerated", len(pts))

        def hull_probe(args):
            # before the call, so that a hull that raises is measured too
            n = len({tuple(p) for p in args[0]})
            key = "lattice.convex_hull.max_points"
            self.counts[key] = max(self.counts.get(key, 0), n)

        return {
            "lattice.IntLattice.add": (None, lattice_add),
            "toric.SectionSystem.count": (count_probe, None),
            "lattice.Polytope.count_lattice_points": (None, counted_points),
            "lattice.Polytope.lattice_points": (None, enumerated_points),
            "lattice.convex_hull": (hull_probe, None),
        }

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every listed name; the package must already be imported."""
        hooks = self._hooks()
        bindings = [mod for name, mod in sys.modules.items()
                    if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for m in MODULES:
            mod = sys.modules[f"{PACKAGE}.{m}"]
            for table, wrap in ((TIMED, self._timed),
                                (COUNTED, self._counted)):
                for name in table.get(m, ()):
                    key = f"{m}.{name}"
                    self._patch(mod, name, bindings, lambda fn: wrap(
                        key, fn, *hooks.get(key, (None, None))))

    def _patch(self, mod, name, bindings, make):
        if "." in name:
            cls_name, attr = name.split(".", 1)
            raw = vars(getattr(mod, cls_name, object)).get(attr)
            if raw is None:
                return  # renamed or removed since the table was written
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(make(raw.__func__))
            else:
                new = make(raw)
            cls = getattr(mod, cls_name)
            setattr(cls, attr, new)
            self._undo.append((cls, attr, raw))
            return
        fn = getattr(mod, name, None)
        if fn is None:
            return
        new = make(fn)
        for other in bindings:
            for bound, value in list(vars(other).items()):
                if value is fn:
                    setattr(other, bound, new)
                    self._undo.append((other, bound, fn))

    def remove(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def wrapped(self):
        return sorted(self.stats)

    def called(self):
        return sorted(k for k, st in self.stats.items() if st.calls)
