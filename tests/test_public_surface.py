"""No library routine that only tests call.

Every module-level function and class of `src/kodaira`, and every method
of a module-level class (dunders aside), must be referenced somewhere in
`src/kodaira` outside its own definition and `__init__.py`: as a name or
as an attribute.  The match is by bare name, so a method counts as used
when any attribute of that name is read: an unused method that shares its
name with a used one passes unseen, as `GradedSemigroup.support` did beside
`SectionSystem.support` until it was deleted.  KEEP lists the names no library
code reads that stay: five the acceptance tests read, and the trivial curve
class, the unit of the curve divisor classes.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "kodaira"

KEEP = {
    "fibration.iitaka_analysis",
    "toric.SectionSystem.to_semigroup",
    "multiplier.multiplier_coeff",
    "semigroup.GradedSemigroup.from_generators",
    "fibration.InequalityVerdict.rhs_value",
    "curve.CurveDivisorClass.trivial",
}

DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _scan(tree, module):
    """(definitions, references): the (qualified name, bare name, node) of
    each module-level function and class and each method of a module-level
    class, and the (name, enclosing definition nodes) of each name or
    attribute read."""
    defs, refs = [], []

    def walk(node, enclosing, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, DEFINITION):
                if prefix is not None:
                    defs.append((prefix + child.name, child.name, child))
                # methods of a module-level class count; nested ones do not
                inner = (prefix + child.name + "."
                         if prefix == module + "." and isinstance(child, ast.ClassDef)
                         else None)
                walk(child, enclosing + (child,), inner)
                continue
            if isinstance(child, ast.Name):
                refs.append((child.id, enclosing))
            elif isinstance(child, ast.Attribute):
                refs.append((child.attr, enclosing))
            walk(child, enclosing, prefix)

    walk(tree, (), module + ".")
    return defs, refs


def unreferenced(src=SRC):
    """Qualified names of the definitions that nothing in the package
    directory src reads outside their own bodies and __init__.py, sorted."""
    defs, refs = [], []
    for path in sorted(src.glob("*.py")):
        if path.name != "__init__.py":
            d, r = _scan(ast.parse(path.read_text()), path.stem)
            defs += d
            refs += r
    return sorted(
        qual for qual, name, node in defs
        if not (name.startswith("__") and name.endswith("__"))
        and not any(ref == name and node not in enclosing
                    for ref, enclosing in refs))


def test_every_library_routine_has_a_library_caller():
    assert [name for name in unreferenced() if name not in KEEP] == []


def test_guard_flags_a_routine_only_tests_call(tmp_path):
    # a copy of the sources with one routine put back that only calls itself
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    lattice = tmp_path / "lattice.py"
    lattice.write_text(lattice.read_text() + (
        "\n\ndef convex_hull(points):\n"
        "    return convex_hull(points[1:]) if points else None\n"))
    assert unreferenced(tmp_path) == sorted(KEEP | {"lattice.convex_hull"})
