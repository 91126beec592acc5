"""No library routine that only tests call, no option that only tests set,
and no stored attribute that nothing reads.

Every module-level function and class of `src/kodaira`, and every method
of a module-level class (dunders aside), must be referenced somewhere in
`src/kodaira` outside its own definition and `__init__.py`: a function or
class as a name or as an attribute, a method or property only as an
attribute, so a parameter or local of the same name does not count, as
the `coefficients` parameter of `ToricDivisorData.__init__` once hid the
unread property of that name.  The match is by bare name, so a method
counts as used when any attribute of that name is read: an unused method
that shares its name with a used one passes unseen, as
`GradedSemigroup.support` did beside `SectionSystem.support` until it was
deleted.  A read of `other` after `from .m import name as other` is a read
of `name`, as `fibration` reads `curve.h0` through `curve_h0`.  KEEP lists the names no library code reads that stay: the
multiplier coefficient, which the package exports and the acceptance tests
read.  A routine only tests need lives in the tests, as the semigroup
constructors, the decoded level and the point lister of
`tests/_oracles.py` do.

Every attribute a method of a module-level class stores on `self`, and
every annotated field of a module-level dataclass, must be read as an
attribute somewhere in `src/kodaira` outside `__init__.py`, again by bare
name.  ATTRIBUTE_KEEP lists the stored attributes no library code reads
that stay.

Every name that an import of a module binds, `__init__.py` aside, must be
read in that module as a name or as the base of an attribute: an import
left behind by a deleted call is flagged.

Likewise every option, a defaulted parameter of such a function or method
or a dataclass field with a default, must be passed by some call in
`src/kodaira` outside `__init__.py`: by keyword, by position or through
`*` or `**`, callees again matched by bare name (a constructor by its class
name, or by `cls` inside the class).  An option that only tests set is a
second behaviour the tests and the benchmark must cover for no library
use; its one library value belongs in the code as a constant.  OPTION_KEEP
lists the options that stay unset.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "kodaira"

KEEP = {
    "multiplier.multiplier_coeff",
}

DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _scan(tree, module):
    """(definitions, references): the (qualified name, bare name, node,
    whether a method) of each module-level function and class and each
    method of a module-level class, and the (name, enclosing definition
    nodes, whether an attribute) of each name or attribute read, an
    imported alias read as the name it binds."""
    defs, refs = [], []
    aliases = {a.asname: a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for a in node.names if a.asname}

    def walk(node, enclosing, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, DEFINITION):
                if prefix is not None:
                    defs.append((prefix + child.name, child.name, child,
                                 prefix != module + "."))
                # methods of a module-level class count; nested ones do not
                inner = (prefix + child.name + "."
                         if prefix == module + "." and isinstance(child, ast.ClassDef)
                         else None)
                walk(child, enclosing + (child,), inner)
                continue
            if isinstance(child, ast.Name):
                refs.append((aliases.get(child.id, child.id), enclosing, False))
            elif isinstance(child, ast.Attribute):
                refs.append((child.attr, enclosing, True))
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
        qual for qual, name, node, method in defs
        if not (name.startswith("__") and name.endswith("__"))
        and not any(ref == name and node not in enclosing
                    and (attribute or not method)
                    for ref, enclosing, attribute in refs))


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


def test_guard_reads_a_routine_through_its_import_alias(tmp_path):
    # the growth certificate's one caller renames it on import
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    fibration = tmp_path / "fibration.py"
    text = fibration.read_text()
    for old, new in (("    certified_growth,\n", "    certified_growth as certify,\n"),
                     ("return certified_growth(", "return certify(")):
        assert text.count(old) == 1
        text = text.replace(old, new)
    fibration.write_text(text)
    # its definition is the one call-like text left: every call is aliased
    assert sum(p.read_text().count("certified_growth(")
               for p in tmp_path.glob("*.py")) == 1
    assert unreferenced(tmp_path) == sorted(KEEP)


def test_guard_flags_a_property_only_a_parameter_names(tmp_path):
    # the Fraction view of a divisor put back: `__init__` reads its
    # parameter `coefficients` as a bare name, never the property
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    toric = tmp_path / "toric.py"
    text = toric.read_text()
    old = "    def is_integral(self):\n"
    assert text.count(old) == 1
    toric.write_text(text.replace(old, (
        "    @property\n"
        "    def coefficients(self):\n"
        "        return tuple(Fraction(n, self.k0) for n in self.nums)\n\n")
        + old))
    assert unreferenced(tmp_path) == sorted(
        KEEP | {"toric.ToricDivisorData.coefficients"})


# -- stored attributes -------------------------------------------------------

# the basis of the semigroup's boundary lattice: `regularize` builds its
# rows for the slice anyway, so keeping them costs no work, and the tests
# hold the record to the references
ATTRIBUTE_KEEP = {
    "semigroup.Regularization.boundary_lattice",
}


def unread_attributes(src=SRC):
    """Qualified names (module.Class.attribute) of the attributes that a
    method of a module-level class in the package directory src stores on
    self, or that a module-level dataclass there declares as an annotated
    field, and that nothing there outside __init__.py reads as an
    attribute, sorted."""
    stored, read = set(), set()
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                if "dataclass" in _decorators(cls):
                    stored |= {(f"{path.stem}.{cls.name}.{s.target.id}",
                                s.target.id) for s in cls.body
                               if isinstance(s, ast.AnnAssign)
                               and isinstance(s.target, ast.Name)}
                for node in ast.walk(cls):
                    if (isinstance(node, ast.Attribute)
                            and isinstance(node.ctx, ast.Store)
                            and isinstance(node.value, ast.Name)
                            and node.value.id == "self"):
                        stored.add((f"{path.stem}.{cls.name}.{node.attr}",
                                    node.attr))
    return sorted(qual for qual, attr in stored if attr not in read)


def test_every_stored_attribute_is_read():
    assert [a for a in unread_attributes() if a not in ATTRIBUTE_KEEP] == []


def test_guard_flags_an_attribute_nothing_reads(tmp_path):
    # the auxiliary divisor stored on a section system again, which every
    # reader takes from the parameter of the system's own fold instead
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    toric = tmp_path / "toric.py"
    text = toric.read_text()
    old = "        self._counts, self._grams, self._ranks = {}, {}, {}\n"
    assert text.count(old) == 1
    toric.write_text(text.replace(old, "        self.aux = aux\n" + old))
    assert unread_attributes(tmp_path) == sorted(
        ATTRIBUTE_KEEP | {"toric.SectionSystem.aux"})


def test_guard_flags_a_dataclass_field_nothing_reads(tmp_path):
    # a field on the kappa record that no library code reads
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    toric = tmp_path / "toric.py"
    text = toric.read_text()
    old = "    witness_degree: int | None\n"
    assert text.count(old) == 1
    toric.write_text(text.replace(old, old + "    spare: int\n"))
    assert unread_attributes(tmp_path) == sorted(
        ATTRIBUTE_KEEP | {"toric.KappaValues.spare"})


# -- imports -----------------------------------------------------------------

def unread_imports(src=SRC):
    """Qualified names (module.name) of the names that an import in a module
    of the package directory src, __init__.py aside, binds and that the
    module never reads as a name (an attribute base is one), sorted;
    `from __future__` imports bind no name."""
    unread = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unread += [f"{path.stem}.{name}" for name in
                           ((a.asname or a.name).split(".")[0] for a in node.names)
                           if name not in read]
    return sorted(unread)


def test_every_import_is_read():
    assert unread_imports() == []


def test_guard_flags_an_import_nothing_reads(tmp_path):
    # the determinant import put back on semigroup, whose boundary index is
    # read off the slice solve's last pivot instead
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    semigroup = tmp_path / "semigroup.py"
    text = semigroup.read_text()
    old = "    as_int,\n    dot,\n"
    assert text.count(old) == 1
    semigroup.write_text(text.replace(old, "    as_int,\n    det_int,\n    dot,\n"))
    assert unread_imports(tmp_path) == ["semigroup.det_int"]


def test_guard_flags_an_import_alias_nothing_reads(tmp_path):
    # a second alias of the curve count that no fibration code reads
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    fibration = tmp_path / "fibration.py"
    text = fibration.read_text()
    old = "    h0 as curve_h0,\n"
    assert text.count(old) == 1
    fibration.write_text(text.replace(old, old + "    h0 as spare_h0,\n"))
    assert unread_imports(tmp_path) == ["fibration.spare_h0"]


# -- options -----------------------------------------------------------------

# defaulted parameters no library call passes that stay: the console entry
# point's argv, and the residuals that ScanPlan._walk passes to any leaf
# through its `leaf` parameter, which no bare name matches
OPTION_KEEP = {
    "cli.main.argv",
    "lattice._column_moments.residuals",
}


def _decorators(node):
    """Bare names of the decorators of a definition, called or not."""
    return {getattr(d, "id", getattr(d, "attr", None)) for d in
            (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)}


def _options(tree, module):
    """(qualified name, callee, position, keyword) of every option: each
    defaulted parameter of a module-level function or of a method of a
    module-level class (callee: the function's name, or the class name for
    __init__; position: its index among the positional arguments a call
    passes, None when keyword-only), and each dataclass field with a
    default (callee: the class name)."""
    out = []

    def params(fn, qual, callee, skip):
        a = fn.args
        positional = a.posonlyargs + a.args
        for i, p in enumerate(positional):
            if i >= len(positional) - len(a.defaults):
                out.append((f"{qual}.{p.arg}", callee, i - skip, p.arg))
        for p, d in zip(a.kwonlyargs, a.kw_defaults):
            if d is not None:
                out.append((f"{qual}.{p.arg}", callee, None, p.arg))

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            params(node, f"{module}.{node.name}", node.name, 0)
        elif isinstance(node, ast.ClassDef):
            fields = [s for s in node.body if isinstance(s, ast.AnnAssign)
                      and isinstance(s.target, ast.Name)]
            if "dataclass" in _decorators(node):
                for i, s in enumerate(fields):
                    if s.value is not None:
                        out.append((f"{module}.{node.name}.{s.target.id}",
                                    node.name, i, s.target.id))
            for fn in node.body:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    static = "staticmethod" in _decorators(fn)
                    callee = node.name if fn.name == "__init__" else fn.name
                    params(fn, f"{module}.{node.name}.{fn.name}", callee,
                           0 if static else 1)
    return out


def _calls(tree):
    """(bare callee name, positional count, keywords, starred, double
    starred) of every call: the positional count stops at the first *args,
    and a call of cls inside a module-level class calls that class."""
    out = []

    def walk(node, cls):
        for child in ast.iter_child_nodes(node):
            walk(child, child.name if isinstance(child, ast.ClassDef)
                 and node is tree else cls)
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            starred = [isinstance(a, ast.Starred) for a in node.args]
            keywords = {k.arg for k in node.keywords}
            out.append((cls if name == "cls" else name,
                        starred.index(True) if any(starred) else len(starred),
                        keywords, any(starred), None in keywords))

    walk(tree, None)
    return out


def unset_options(src=SRC):
    """Qualified names of the options that no call in the package directory
    src outside __init__.py passes, by keyword, by position or through * or
    **, sorted.  Callees are matched by bare name."""
    options, calls = [], []
    for path in sorted(src.glob("*.py")):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text())
            options += _options(tree, path.stem)
            calls += _calls(tree)
    return sorted(
        qual for qual, callee, pos, kw in options
        if not any(name == callee and (
            kw in keywords or double or (pos is not None and (pos < npos or starred)))
            for name, npos, keywords, starred, double in calls))


def test_every_library_option_has_a_library_setter():
    assert [name for name in unset_options() if name not in OPTION_KEEP] == []


@pytest.mark.parametrize("module, old, new, flagged", [
    # the clamp switch put back on _coeff
    ("multiplier", "def _coeff(p, q, t):", "def _coeff(p, q, t, clamp=True):",
     "multiplier._coeff.clamp"),
    # an instance label that no library code passes
    ("fibration", "    combine: str = ",
     "    label: str = \"\"\n    combine: str = ",
     "fibration.InequalityVerdict.label"),
    # the auxiliary divisor put back on the section system's constructor,
    # which twist alone sets; the general fiber's system is built from
    # fiber_data() unpacked, so no starred call counts as setting it
    ("toric", "    def __init__(self, variety, divisor, metric=None,\n",
     "    def __init__(self, variety, divisor, metric=None, aux=None,\n",
     "toric.SectionSystem.__init__.aux"),
], ids=["parameter", "dataclass_field", "constructor_parameter"])
def test_guard_flags_an_option_only_tests_set(tmp_path, module, old, new, flagged):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    planted = tmp_path / f"{module}.py"
    text = planted.read_text()
    assert text.count(old) == 1
    planted.write_text(text.replace(old, new))
    assert unset_options(tmp_path) == sorted(OPTION_KEEP | {flagged})
