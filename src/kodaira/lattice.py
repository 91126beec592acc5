"""Exact lattice and convex geometry primitives on one fraction-free core.

Everything in this module is exact: vectors are tuples of ints or Fractions,
matrices are lists of row tuples, and no geometric predicate ever touches a
float.  All linear algebra over Q runs on integer rows: `_bareiss`, one
fraction-free (Bareiss) elimination, gives ranks (`rat_rank`), determinants,
pivot columns and solutions as integer numerators over one denominator, and
Fractions are built only for the values returned.  Lattice bases come from one
gcd-insertion Hermite routine behind `hnf_basis` and `int_kernel`, the latter
keeping the appended unit rows of the rows that vanish.  A `Polytope` is the
integer record its callers build: integer normals and integer bounds over one
denominator; only its vertices are Fractions.  One `int_hull` of integer
points gives a hull's pivot columns (as many as its dimension), boundary
simplices and vertices: `hull_polytope` reads the Polytope off it and
`volume_sum` the volume, so a body is hulled once.  The distinguished value
NEG_INF (= float("-inf")) is the dimension of an empty polytope and propagates
through every dimension-like quantity downstream; it is never encoded as -1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from itertools import chain, combinations, compress, count, repeat
from operator import add, index, mul, sub

NEG_INF = float("-inf")


class GeometryError(ValueError):
    """Raised on contract violations in geometric operations."""


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------

def as_int(value, name):
    """value as an int (operator.index); ValueError naming the value for
    anything else, so that a float or a Fraction is never truncated."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def as_int_row(row, name):
    """The entries of row as a list of ints (operator.index); ValueError
    naming the first entry that is not an integer."""
    try:
        return list(map(index, row))
    except TypeError:
        return [as_int(x, name) for x in row]  # raises at the first non-integer


def dot(u, v):
    return sum(map(mul, u, v))


def vsub(u, v):
    return tuple(map(sub, u, v))


def is_zero(u):
    return all(a == 0 for a in u)


def primitive(v):
    """Divide an integer vector by the gcd of its entries (zero stays zero)."""
    g = math.gcd(*v)
    return tuple(v) if g <= 1 else tuple(a // g for a in v)


# ---------------------------------------------------------------------------
# integer matrices: Hermite normal form and friends
# ---------------------------------------------------------------------------

def _insert(rows, pivots, v, ncols):
    """Insert the integer row v (a list) into echelon rows by extended-gcd
    row steps, with pivots looked for among the first ncols columns only.

    `rows` have strictly increasing pivot columns `pivots` and positive
    pivot entries.  Each step is unimodular on the pair (pivot row, v):
    v - q row when the pivot divides v's entry, else the 2 x 2 step that
    puts their gcd on the pivot row and 0 on v.  Returns None when v
    becomes a new pivot row (made positive), else what is left of v, zero
    on the first ncols columns.
    """
    idx = 0
    for j in range(ncols):
        b = v[j]
        if not b:
            continue
        while idx < len(pivots) and pivots[idx] < j:
            idx += 1
        if idx == len(pivots) or pivots[idx] > j:
            rows.insert(idx, v if b > 0 else [-x for x in v])
            pivots.insert(idx, j)
            return None
        row = rows[idx]
        a = row[j]
        if b % a == 0:
            q = b // a
            v = [w - q * r for r, w in zip(row, v)]
        else:
            g, x, y = xgcd(a, b)
            rows[idx] = [x * r + y * w for r, w in zip(row, v)]
            a, b = a // g, b // g
            v = [a * w - b * r for r, w in zip(row, v)]
        idx += 1
    return v


def _reduce_above(rows, pivots):
    """Reduce the entries above each pivot into [0, pivot), pivot by pivot
    from the top: a pivot row is zero on the pivot columns before its own,
    so a later step leaves an earlier column reduced."""
    for i, (row, j) in enumerate(zip(rows, pivots)):
        p = row[j]
        for k in range(i):
            q = rows[k][j] // p
            if q:
                rows[k] = [x - q * y for x, y in zip(rows[k], row)]


def hnf_basis(rows):
    """Nonzero rows of the HNF: a canonical basis of the generated lattice.

    Inserts the rows (any iterable) one at a time (`_insert`) without
    building the transform, so huge generating sets cost O(rows * n^2), and
    stops reading once the rows generate Z^n (full rank, every pivot 1),
    whose HNF is the identity.  A row read of another length than the first
    is a GeometryError; the rows after that exit are never read or checked.
    """
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        return []
    n = len(first)
    echelon, pivots = [], []
    for r in chain((first,), rows):
        r = as_int_row(r, "vector entry")
        if len(r) != n:
            raise GeometryError("ragged matrix")
        _insert(echelon, pivots, r, n)
        if len(pivots) == n and all(row[p] == 1 for row, p in zip(echelon, pivots)):
            return [tuple(int(i == j) for j in range(n)) for i in range(n)]
    _reduce_above(echelon, pivots)
    return [tuple(r) for r in echelon]


def int_kernel(rows):
    """Basis of the left kernel {x integer : x * rows = 0}: each row is
    inserted (`_insert`) with its unit row appended, pivots looked for in
    the first n columns only, so a row that vanishes there keeps its row
    of the unimodular transform, a kernel vector."""
    m = len(rows)
    if m == 0:
        return []
    n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise GeometryError("ragged matrix")
    echelon, pivots, kernel = [], [], []
    for i, r in enumerate(rows):
        rest = _insert(echelon, pivots, as_int_row(r, "matrix entry")
                       + [int(i == j) for j in range(m)], n)
        if rest is not None:
            kernel.append(tuple(rest[n:]))
    return kernel


def _reduce(echelon, row, ncols):
    """(row, col): an integer row after fraction-free (Bareiss 1968)
    elimination against echelon, the (column, row, pivot) triples of the
    pivot rows before it, and its first nonzero column among the first
    ncols (None when there is none).

    Step s replaces the row r by (p r - r[c] t) / prev, for the pivot row t,
    its pivot p in column c and the previous pivot prev (1 at first).  Every
    entry stays an integer minor of the input rows, rows {t_1 .. t_s, r} by
    columns {c_1 .. c_s, j}, so each division is exact, and the pivot p_s is
    the minor of the first s pivot rows on their pivot columns.
    """
    prev = 1
    for c, top, p in echelon:
        f = row[c]
        if f:
            row = [(x * p - f * y) // prev for x, y in zip(row, top)]
        elif p != prev:  # the step only scales the row
            row = [x * p // prev for x in row]
        prev = p
    for col in range(ncols):
        if row[col]:
            return row, col
    return row, None


def _bareiss(rows, ncols):
    """(echelon, rest) of integer rows reduced one at a time (`_reduce`): a
    row with a nonzero entry among its first ncols becomes a pivot row on
    the first such column, the others go to rest.  The columns beyond ncols
    are right-hand sides: the system is consistent iff they vanish on every
    row of rest.  The rank is len(echelon), and the last pivot is, up to the
    sign of the pivot columns' order, the determinant of a square input of
    full rank."""
    echelon, rest = [], []
    for row in rows:
        row, col = _reduce(echelon, row, ncols)
        if col is None:
            rest.append(row)
        else:
            echelon.append((col, row, row[col]))
    return echelon, rest


def _solve(echelon, ncols, j):
    """(den, x): den, the last pivot (1 without one), and the numerators
    over den of the solution in the first ncols columns of the echelon rows
    for their right-hand column j, 0 on non-pivot columns.  Back
    substitution: den x_c = (den b - sum of t[k] den x_k over the later
    pivot columns k) / t[c] on the pivot row t of column c, exact since
    den x_c is an integer by Cramer's rule."""
    den = echelon[-1][2] if echelon else 1
    x = [0] * ncols
    for c, row, p in reversed(echelon):
        x[c] = (den * row[j] - sum(map(mul, row[:ncols], x))) // p
    return den, x


def det_int(rows):
    """Determinant of a square integer matrix: the last `_bareiss` pivot,
    signed by the parity of the pivot columns' order."""
    n = len(rows)
    echelon, _ = _bareiss(rows, n)
    if len(echelon) < n:
        return 0
    cols = [c for c, _, _ in echelon]
    sign = (-1) ** sum(a > b for a, b in combinations(cols, 2))
    return sign * echelon[-1][2] if n else 1


def xgcd(a, b):
    """(g, x, y) with g = gcd(a, b) >= 0 and a x + b y = g."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


# ---------------------------------------------------------------------------
# rational linear algebra
# ---------------------------------------------------------------------------

def rat_rank(rows):
    """Rank over Q of integer rows: the number of `_bareiss` pivot rows.
    The entries are read with `operator.index`, so a non-integral one is a
    ValueError naming it."""
    a = [as_int_row(r, "matrix entry") for r in rows]
    return len(_bareiss(a, len(a[0]) if a else 0)[0])


# ---------------------------------------------------------------------------
# Polytope
# ---------------------------------------------------------------------------

def _vertices(normals, bounds, n, first=False):
    """{(numerators, den): tight mask} for the vertices u = numerators / den
    (lowest terms, den > 0) of {u in Q^n : <u, a_i> >= b_i}, for integer
    normals a_i and bounds b_i.  Each set of n rows with independent
    normals is solved once, kept when the solution satisfies every row; bit
    i of its mask is set when it meets row i with equality.  The sets are
    grown one row at a time in index order, each row reduced (`_reduce`)
    against the pivot rows its prefix shares, and a prefix with dependent
    normals is dropped with all its extensions.  With first, stops at one
    vertex."""
    rows = [v + (b,) for v, b in zip(normals, bounds)]
    found = {}
    echelon = []

    def grow(start):
        if len(echelon) == n:
            den, x = _solve(echelon, n, n)
            if den < 0:
                x, den = [-v for v in x], -den
            slack = [dot(x, v) - b * den for v, b in zip(normals, bounds)]
            if all(s >= 0 for s in slack):
                g = math.gcd(den, *x)
                found[tuple(v // g for v in x), den // g] = sum(
                    1 << i for i, s in enumerate(slack) if s == 0)
            return
        for i in range(start, len(rows) - n + len(echelon) + 1):
            row, col = _reduce(echelon, rows[i], n)
            if col is not None:
                echelon.append((col, row, row[col]))
                grow(i + 1)
                echelon.pop()
                if first and found:
                    return

    grow(0)
    return found


class Polytope:
    """The rational polyhedron {u in Q^n : <u, normals[i]> >= bounds[i] /
    den}: integer normals, integer bounds and one den > 0, stored as given
    (a row scaled by a positive integer keeps its points).

    The library builds bounded ones only: the limit polytopes of complete
    fans and hulls whose vertices are known.  The vertex list and the emptiness
    flag are computed lazily and cached; instances are immutable after
    construction and safe to share.  Each vertex is one fraction-free solve
    of the integer system (`_vertices`), divided into Fractions only for
    the vertex returned.  A polytope built with its `vertices` known (in any
    order) is empty iff the list is, and none of them is solved for.
    """

    def __init__(self, ambient_dim, normals, bounds, den=1, vertices=None):
        self.ambient_dim = n = as_int(ambient_dim, "ambient dimension")
        self.normals = tuple(tuple(as_int(x, "normal entry") for x in v)
                             for v in normals)
        self.bounds = tuple(as_int(b, "bound") for b in bounds)
        self.den = as_int(den, "denominator")
        if self.den <= 0:
            raise ValueError(f"denominator must be positive, got {den!r}")
        if (len(self.bounds) != len(self.normals)
                or any(len(v) != n for v in self.normals)):
            raise GeometryError("constraint dimension mismatch")
        self._vertices = None if vertices is None else tuple(sorted(vertices))
        self._tight = None
        self._empty = None if vertices is None else not self._vertices

    def __repr__(self):
        return f"Polytope(dim={self.ambient_dim}, constraints={len(self.normals)})"

    def is_empty(self):
        """Nonempty iff the system restricted to J, the pivot columns of the
        normals, has a vertex: those columns span the normals' column space,
        so every <u, a_i> is <u', a_i restricted to J> for some u', and
        restricted to J the normals have full column rank, so that
        polyhedron contains no line.  One search for a first vertex serves
        every rank; at full rank J is all the columns."""
        if self._empty is None:
            pivots = [c for c, _, _ in _bareiss(self.normals, self.ambient_dim)[0]]
            cut = [tuple(v[j] for j in pivots) for v in self.normals]
            self._empty = not _vertices(cut, self.bounds, len(pivots), first=True)
        return self._empty

    def vertices(self):
        """All vertices (basic feasible solutions), lexicographically sorted;
        their tight masks come with them."""
        if self._vertices is None:
            found = sorted(
                (tuple(Fraction(x, d * self.den) for x in nums), mask)
                for (nums, d), mask in _vertices(
                    self.normals, self.bounds, self.ambient_dim).items())
            self._vertices = tuple(p for p, _ in found)
            self._tight = tuple(mask for _, mask in found)
            if found:
                self._empty = False
        return self._vertices

    def tight_masks(self):
        """For each vertex, in vertices() order, the bitmask of the
        constraints it satisfies with equality (bit i: constraint i).  The
        masks come with solved vertices: a polytope built with its vertices
        has none (None)."""
        self.vertices()
        return self._tight


def floor_sum(n, m, a, b):
    """Sum of floor((a i + b) / m) over i = 0 .. n-1, for m > 0 and integers
    a, b of any sign: the Euclid-like recursion of the AtCoder Library's
    floor_sum(n, m, a, b), in O(log m) integer steps."""
    total = 0
    while n > 0:
        qa, a = divmod(a, m)
        qb, b = divmod(b, m)
        total += qa * (n * (n - 1) // 2) + qb * n
        top = a * n + b
        if top < m:
            break
        n, b = divmod(top, m)
        m, a = a, m
    return total


# leaves and folds of ScanPlan._walk: a leaf reads the range lo..hi of its
# coordinate, a fold the values of the subtrees at x = lo, lo + 1, ...

def _fold_count(depth, lo, values):
    return sum(filter(None, values))


def _column_moments(lo, hi, residuals=None):
    """(count, sum y, sum y^2) of the column lo..hi, in closed form: with
    F(x) = x (x + 1) (2x + 1) / 6, sum y^2 = F(hi) - F(lo - 1) for any
    signs."""
    size = hi - lo + 1
    return (size, (lo + hi) * size // 2,
            (hi * (hi + 1) * (2 * hi + 1) - (lo - 1) * lo * (2 * lo - 1)) // 6)


def _fold_moments(last, depth, lo, values):
    """The moments of coordinates depth..last, flat as the count, the sums
    and the upper triangle of the sums of products row by row, from those
    of coordinates depth + 1..last at each x: the new row of products is
    sum x^2 N_x and the sums of x S_x; the rest adds up."""
    xs = list(compress(count(lo), values))
    if not xs:
        return None
    cols = list(zip(*filter(None, values)))
    sums = cols[1:last - depth + 1]
    xn = list(map(mul, xs, cols[0]))
    return (sum(cols[0]), sum(xn), *map(sum, sums), sum(map(mul, xs, xn)),
            *[sum(map(mul, xs, s)) for s in sums],
            *map(sum, cols[last - depth + 1:]))


def _no_moments(n):
    """The moments (N, S1, S2) of no points in dimension n."""
    return 0, [0] * n, [[0] * n for _ in range(n)]


def _interval(lo, hi, terms, bounds):
    """The range lo..hi of one coordinate x cut by a x >= bounds[i] for each
    (i, a) in terms (lo > hi when empty)."""
    for i, a in terms:
        c = bounds[i]
        if a > 0:
            b = -(-c // a)
            if b > lo:
                lo = b
        else:
            b = c // a  # floor division with negative a rounds down
            if b < hi:
                hi = b
    return lo, hi


class ScanPlan:
    """The part of an integer lattice-point scan fixed by the constraint
    normals, built once and run for any integer bounds and box.

    Blocks.  The coordinates split into blocks that no normal joins (a
    union-find over each normal's nonzero support; a zero normal joins
    nothing and is checked once, with the box).  A piece is then the product
    of its blocks' pieces, so counting multiplies the block counts and stops
    at the first empty block, and `moments` combines the block moments (N_b,
    S1_b, S2_b): N = prod N_b, S1 = S1_b N / N_b on block b, S2 = S2_b N /
    N_b inside block b and S1_i S1_j / N across blocks, which is S1_b S1_c^T
    N / (N_b N_c).  A one-coordinate block is an interval, its count and
    moments in closed form; a larger block is a sub-plan of its own.  A plan
    of one block of two or more coordinates (P^n, F_a, most slices) walks
    its columns as below (in two, it reads x's range and counts the pair).

    Columns.  Constraint i, <u, v_i> >= c_i, becomes a one-variable bound on
    the last coordinate where v_i is nonzero once the earlier coordinates are
    fixed.  Counting handles the two innermost coordinates x, y in closed
    form.  A constraint whose last coordinate is y and that has no x term
    only narrows y's box range.  Every other such constraint, and each end
    of that range, is a line: y >= or y <= (p x + q) / m with m > 0.
    Between the floors of the pairwise line crossings one upper and one
    lower line bind (the floor of a minimum is the minimum of the floors),
    so a piece counts as two sums of floors (floor_sum) and nothing where
    its upper line lies below its lower one.  An integer crossing ends a
    piece, where the two lines are equal, so either gives the value there
    (one of two lines of one side on the first column, xlo, ends none: the
    line that binds after it gives the value there too).  Only at the left tip
    of the region, where an upper and a lower line meet with the gap between
    them growing (p_u m_l > p_l m_u, fixed per crossing with the plan), is
    the crossing a one-point piece of its own: there the lines meet at an
    integer point that counts 1, where the piece before it counts 0.
    """

    def __init__(self, dim, normals):
        self.dim = dim
        self.zero = []  # constraints that read no coordinate
        self.touching = [[] for _ in range(dim)]  # residual updates here
        self.bounding = [[] for _ in range(dim)]  # a 1-var bound here
        self.normals = [tuple(v) for v in normals]
        root = list(range(dim))  # union-find over the coordinates
        spans = []  # (constraint, first and last coordinate it reads)

        def find(j):
            while root[j] != j:
                root[j] = root[root[j]]
                j = root[j]
            return j
        for i, v in enumerate(self.normals):
            support = [j for j, x in enumerate(v) if x != 0]
            if not support:
                self.zero.append(i)
                continue
            last = support[-1]
            spans.append((i, support[0], last))
            self.bounding[last].append(i)
            for d in support[:-1]:
                self.touching[d].append(i)
                root[find(d)] = find(last)
        blocks = {}  # root: (coordinates, constraints)
        for j in range(dim):
            coords, idx = blocks.setdefault(find(j), ([], []))
            coords.append(j)
            idx += self.bounding[j]
        # one block of two or more coordinates walks the columns (parts is
        # None); else the one-coordinate blocks are (coordinate, terms of
        # _interval) and the larger ones (coordinates, constraints, plan)
        self.parts = None
        if len(blocks) != 1 or dim < 2:
            self.intervals, self.parts = [], []
            for coords, idx in blocks.values():
                if len(coords) == 1:
                    j = coords[0]
                    self.intervals.append(
                        (j, tuple((i, self.normals[i][j]) for i in idx)))
                else:
                    self.parts.append((coords, idx, ScanPlan(len(coords), [
                        [self.normals[i][j] for j in coords] for i in idx])))
            return
        # the constraints that straddle each depth d, with a nonzero entry
        # before d and one at or after it: the subtree of the column walk
        # below d reads no other residual (_walk's memo)
        self.live = [[i for i, first, last in spans if first < d <= last]
                     for d in range(dim)]
        # lines y >= or <= (p x + q) / m: one per constraint with last
        # coordinate y and an x term (q is -c for an upper one, c for a lower
        # one), then the two ends of y's box range (q is the box end); a
        # constraint with no x term narrows that range (terms of _interval)
        self.sources = []  # (constraint, sign of its bound in q)
        self.flat = []
        p, m, upper = [], [], []
        for i in self.bounding[dim - 1]:
            a, b = self.normals[i][dim - 2:]
            if not a:
                self.flat.append((i, b))
                continue
            self.sources.append((i, -1 if b < 0 else 1))
            p.append(a if b < 0 else -a)
            m.append(abs(b))
            upper.append(b < 0)
        p += [0, 0]
        m += [1, 1]
        upper += [False, True]
        self.p, self.m = p, m
        # x's own bounds (terms of _interval), read by a two-coordinate scan
        self.x_terms = [(i, self.normals[i][0]) for i in self.bounding[0]]
        self.upper = [j for j, up in enumerate(upper) if up]
        self.lower = [j for j, up in enumerate(upper) if not up]
        # (j, k, d, same, tip): lines j and k, of the same side or not, cross
        # where d x = q_k m_j - q_j m_k, a left tip when their gap grows there
        self.crossings = []
        for j, k in combinations(range(len(p)), 2):
            d = p[j] * m[k] - p[k] * m[j]
            if d:
                u, l = (j, k) if upper[j] else (k, j)
                tip = upper[j] != upper[k] and p[u] * m[l] > p[l] * m[u]
                self.crossings.append((j, k, d, upper[j] == upper[k], tip))

    def _empty(self, box, bounds):
        for lo, hi in box:
            if lo > hi:
                return True
        for i in self.zero:
            if bounds[i] > 0:
                return True
        return False

    def scan(self, box, bounds):
        """The number of points of the box with <u, v_i> >= bounds[i]."""
        n = self.dim
        if self._empty(box, bounds):
            return 0
        if self.parts is None:
            if n == 2:  # the leaf alone, on x's range (x_terms: its bounds)
                lo, hi = _interval(*box[0], self.x_terms, bounds)
                return self._count_pair(box[1], lo, hi, bounds) if lo <= hi else 0
            return self._walk(box, bounds, n - 2,
                              partial(self._count_pair, box[n - 1]),
                              _fold_count) or 0
        total = 1
        for j, terms in self.intervals:
            lo, hi = _interval(*box[j], terms, bounds)
            if lo > hi:
                return 0
            total *= hi - lo + 1
        for coords, idx, plan in self.parts:
            part = plan.scan([box[j] for j in coords], [bounds[i] for i in idx])
            if not part:
                return 0
            total *= part
        return total

    def moments(self, box, bounds):
        """(N, S1, S2) of the points u of the box with <u, v_i> >=
        bounds[i]: their number, the coordinate sums sum u_i and the sums of
        products sum u_i u_j (an n x n list of rows).  Each innermost column
        contributes its count, sum y and sum y^2 in closed form, and each
        earlier depth folds the moments of its subtrees with a few C-level
        sums, so no point is built; a plan of several blocks combines its
        blocks' moments (class docstring)."""
        n = self.dim
        if self._empty(box, bounds):
            return _no_moments(n)
        if self.parts is None:
            flat = self._walk(box, bounds, n - 1, _column_moments,
                              partial(_fold_moments, n - 1))
            if flat is None:
                return _no_moments(n)
            # flat: N, S1, then the upper triangle of S2 row by row
            square = [[0] * n for _ in range(n)]
            pos = n + 1
            for i in range(n):
                for j in range(i, n):
                    square[i][j] = square[j][i] = flat[pos]
                    pos += 1
            return flat[0], list(flat[1:n + 1]), square
        blocks = []  # (coordinates, N_b, S1_b, S2_b)
        for j, terms in self.intervals:
            lo, hi = _interval(*box[j], terms, bounds)
            if lo > hi:
                return _no_moments(n)
            size, s, ss = _column_moments(lo, hi)
            blocks.append(((j,), size, (s,), ((ss,),)))
        for coords, idx, plan in self.parts:
            size, s, ss = plan.moments([box[j] for j in coords],
                                       [bounds[i] for i in idx])
            if not size:
                return _no_moments(n)
            blocks.append((coords, size, s, ss))
        total = math.prod(size for _, size, _, _ in blocks)
        sums = [0] * n
        for coords, size, s, _ in blocks:
            for j, x in zip(coords, s):
                sums[j] = x * (total // size)
        square = [[a * b // total for b in sums] for a in sums]
        for coords, size, _, ss in blocks:
            for j, row in zip(coords, ss):
                for k, x in zip(coords, row):
                    square[j][k] = x * (total // size)
        return total, sums, square

    def _walk(self, box, bounds, leaf_depth, leaf, fold):
        """The column walk shared by counting and moments.

        Coordinate by coordinate, each constraint whose last nonzero
        coordinate is the current one bounds it given the earlier ones (their
        values are taken off the residual bounds).  At leaf_depth,
        leaf(lo, hi, residuals) reads the range lo..hi of that coordinate;
        each earlier depth returns fold(depth, lo, values) over the values
        of its x = lo, lo + 1, ... subtrees, None for an empty one.  None
        when the piece is empty.

        Leaves and folds read coordinates depth.. only, so a subtree below
        depth d >= 1 is fixed by the residuals of the constraints that
        straddle d (ScanPlan.live).  The subtrees below depths 2 <= d <=
        rank - 2 are walked once per call, memoised on (d, those residuals):
        a count of the dilate k of a simplex then costs O(rank k^2) columns,
        not O(k^(rank - 2)).  Depth 1 is not wrapped, as its keys never
        repeat: every constraint straddling it reads coordinate 0, which
        each of its subtrees changes.  Nor is the one-column subtree below
        depth rank - 1, a moments leaf, which costs no more than its key.
        So below rank 4 the walk is not wrapped at all."""
        residuals = list(bounds)
        normals, bounding, touching = (self.normals, self.bounding,
                                       self.touching)

        def rec(depth):
            # _interval, inline: a call per column costs 10-30 % here
            lo, hi = box[depth]
            for i in bounding[depth]:
                a = normals[i][depth]
                c = residuals[i]
                if a > 0:
                    b = -(-c // a)
                    if b > lo:
                        lo = b
                else:
                    b = c // a  # floor division with negative a rounds down
                    if b < hi:
                        hi = b
            if lo > hi:
                return None
            if depth == leaf_depth:
                return leaf(lo, hi, residuals)
            touch = touching[depth]
            saved = [residuals[i] for i in touch]
            coeffs = [normals[i][depth] for i in touch]
            for i, a, c in zip(touch, coeffs, saved):
                residuals[i] = c - a * lo
            values = []
            step = down if 0 < depth < last else rec
            for x in range(lo, hi + 1):
                values.append(step(depth + 1))
                for i, a in zip(touch, coeffs):
                    residuals[i] -= a
            for i, c in zip(touch, saved):
                residuals[i] = c
            return fold(depth, lo, values)
        down, last = rec, self.dim - 2
        if last >= 2:
            memo, live = {}, self.live

            def down(depth):
                key = (depth, *[residuals[i] for i in live[depth]])
                if key not in memo:
                    memo[key] = rec(depth)
                return memo[key]
        return rec(0)

    def _count_pair(self, y_box, xlo, xhi, residuals):
        """Points (x, y) of the two innermost coordinates with xlo <= x <=
        xhi, in closed form (a leaf of _walk): y's box range narrowed by the
        constraints with no x term, then the pieces between line crossings,
        split at an integer left tip (class docstring)."""
        ylo, yhi = _interval(*y_box, self.flat, residuals)
        if ylo > yhi:
            return 0
        p, m = self.p, self.m
        q = [s * residuals[i] for i, s in self.sources]
        q += ylo, yhi
        ends = {xhi}  # last x of each piece
        for j, k, d, same, tip in self.crossings:
            num = q[k] * m[j] - q[j] * m[k]
            x = num // d
            if xlo < x < xhi or x == xlo < xhi and not (same and x * d == num):
                ends.add(x)
            if tip and x * d == num and xlo < x <= xhi:
                ends.add(x - 1)
        total = 0
        start = xlo
        for end in sorted(ends):
            # no two lines cross inside the piece, so the least upper and the
            # largest lower line at its start (values (p x + q) / m compared
            # without division; on a tie, the lesser or larger slope) bind on
            # all of it
            ju = vu = jl = vl = None
            for j in self.upper:
                v = p[j] * start + q[j]
                if ju is None or v * m[ju] < vu * m[j] or (
                        v * m[ju] == vu * m[j] and p[j] * m[ju] < p[ju] * m[j]):
                    ju, vu = j, v
            for j in self.lower:
                v = p[j] * start + q[j]
                if jl is None or v * m[jl] > vl * m[j] or (
                        v * m[jl] == vl * m[j] and p[j] * m[jl] > p[jl] * m[j]):
                    jl, vl = j, v
            # floor(U) - ceil(L) + 1 >= 0 where U >= L, and <= 0 elsewhere
            if vu * m[jl] >= vl * m[ju]:
                size = end - start + 1
                total += (floor_sum(size, m[ju], p[ju], vu)
                          + floor_sum(size, m[jl], -p[jl], -vl) + size)
            start = end + 1
        return total


# ---------------------------------------------------------------------------
# convex hull (exact integer arithmetic, any intrinsic dimension)
# ---------------------------------------------------------------------------

def _normal(rows):
    """Integer normal w of d - 1 vectors in Z^d with <w, x> = det(x; rows):
    the cofactors along the first row."""
    return tuple((-1) ** i * det_int([r[:i] + r[i + 1:] for r in rows])
                 for i in range(len(rows) + 1))


def _dots(w, points):
    """<w, p> for each point, summed one coordinate column at a time (a
    weight 1 adds its column as it is)."""
    out = None
    for a, col in zip(w, zip(*points)):
        if a:
            term = col if a == 1 else map(mul, repeat(a), col)
            out = term if out is None else map(add, out, term)
    return [0] * len(points) if out is None else list(out)


def _hull(pts):
    """Boundary simplices (corners, w, h) of the hull of sorted distinct
    integer points spanning R^d, d >= 1: w is a primitive outward normal,
    <p, w> <= h on the hull with equality at the d corners.

    Beneath-beyond with conflict lists (Quickhull): each point waits on one
    simplex it is strictly beyond, a simplex's farthest waiting point is
    added next, and a point that no new simplex sees lies in the closed hull
    and is dropped.  Orientation tests are integer dot products with a
    simplex's primitive cofactor normal, so the simplices of one facet share
    one (normal, offset) pair.  Normals point away from the centroid of the
    first simplex, which stays interior; ridges are keyed by corner sets.
    """
    d = len(pts[0])
    simplex = [pts[0], pts[-1]]
    while len(simplex) <= d:
        # add the point farthest from the simplex's affine span: its squared
        # distance times the simplex's squared volume is the sum of the
        # squares of the maximal minors of the edges with it (Cauchy-Binet),
        # each linear in the point
        a = simplex[0]
        rows = [vsub(p, a) for p in simplex[1:]]
        score = [0] * len(pts)
        for cols in combinations(range(d), len(simplex)):
            minor = dict(zip(cols, _normal([[r[j] for j in cols] for r in rows])))
            w = [minor.get(j, 0) for j in range(d)]
            c = dot(w, a)
            score = [s + (x - c) ** 2 for s, x in zip(score, _dots(w, pts))]
        simplex.append(pts[score.index(max(score))])
    center = [sum(col) for col in zip(*simplex)]  # d + 1 times the centroid
    facets, ridges, waiting = {}, {}, {}
    ids = count()

    def make(corners):
        w = primitive(_normal([vsub(p, corners[0]) for p in corners[1:]]))
        h = dot(w, corners[0])
        if dot(w, center) > (d + 1) * h:
            w, h = tuple(-x for x in w), -h
        f = next(ids)
        facets[f] = (corners, w, h)
        for i in range(d):
            ridges.setdefault(frozenset(corners[:i] + corners[i + 1:]),
                              []).append(f)
        waiting[f] = []
        return f

    def assign(points, new):
        # each point waits on the first new simplex it is beyond; corners,
        # the apex among them, are beyond none
        for f in new:
            _, w, h = facets[f]
            dots = _dots(w, points)
            waiting[f] = [p for p, x in zip(points, dots) if x > h]
            points = [p for p, x in zip(points, dots) if x <= h]

    todo = [make(tuple(simplex[:i] + simplex[i + 1:])) for i in range(d + 1)]
    assign(pts, todo)
    while todo:
        f = todo.pop()
        if f not in facets or not waiting[f]:
            continue
        far = _dots(facets[f][1], waiting[f])
        apex = waiting[f][far.index(max(far))]
        seen = {g for g, (_, v, c) in facets.items() if dot(v, apex) > c}
        horizon, orphans = [], []
        for g in seen:
            corners = facets.pop(g)[0]
            orphans += waiting.pop(g)
            for i in range(d):
                ridge = frozenset(corners[:i] + corners[i + 1:])
                pair = ridges[ridge]
                pair.remove(g)
                if not pair:
                    del ridges[ridge]
                elif pair[0] not in seen:
                    horizon.append(ridge)
        new = [make(tuple(ridge) + (apex,)) for ridge in horizon]
        assign(orphans, new)
        todo += new
    return list(facets.values())


def int_hull(pts):
    """(columns, simplices, vertices) of the hull of sorted distinct integer
    points, in any dimension: the pivot columns, in increasing order, of the
    differences from pts[0] reduced one at a time (`_reduce`, stopped at
    full rank; their number d is the hull's dimension, and they are the
    coordinates the hull is computed on), `_hull`'s boundary simplices there
    (none for d = 0), and the vertices, points of `pts`.  A corner is a
    vertex when its tight facet normals have rank d.
    """
    p0 = pts[0]
    n = len(p0)
    echelon = []
    for p in pts[1:]:
        if len(echelon) == n:
            break
        row, col = _reduce(echelon, vsub(p, p0), n)
        if col is not None:
            echelon.append((col, row, row[col]))
    cols = sorted(c for c, _, _ in echelon)
    d = len(cols)
    if d == 0:
        return cols, [], [p0]
    columns = list(zip(*pts))
    proj = list(zip(*[columns[c] for c in cols]))
    simplices = _hull(proj)
    # the simplices form a triangulation of the boundary, so a corner lies
    # on exactly the facets of the simplices it is a corner of
    tight = {}
    for corners, w, _ in simplices:
        for q in corners:
            tight.setdefault(q, set()).add(w)
    back = dict(zip(proj, pts))
    verts = [back[q] for q, ws in tight.items()
             if len(_bareiss(list(ws), d)[0]) == d]
    return cols, simplices, verts


def hull_polytope(hull, den):
    """The hull of pts / den as a Polytope over den, for den > 0 and the
    `int_hull` result (columns, simplices, vertices) of nonempty sorted
    distinct integer points pts of one dimension; it carries the minimal
    vertex set (lexicographically sorted), and a lower-dimensional hull
    gets its affine-hull equalities as pairs of opposite constraints.
    Facet rows are read off the simplices; the equality normals are the
    HNF basis of the integer orthogonal complement of the vertices'
    differences, so they depend on the hull only, not on the points fed."""
    cols, simplices, verts = hull
    n = len(verts[0])

    def embed(w):
        e = [0] * n
        for c, x in zip(cols, w):
            e[c] = x
        return tuple(e)

    normals, bounds = [], []
    if len(cols) < n:
        for w in hnf_basis(int_kernel([[v[i] - verts[0][i] for v in verts[1:]]
                                       for i in range(n)])):
            b = dot(verts[0], w)
            normals += [w, tuple(-x for x in w)]
            bounds += [b, -b]
    for w, h in sorted({(w, h) for _, w, h in simplices}):
        normals.append(embed(tuple(-x for x in w)))
        bounds.append(-h)

    return Polytope(n, normals, bounds, den, vertices=[
        tuple(Fraction(x, den) for x in v) for v in verts])


def volume_sum(hull):
    """q! times the volume of the hull of integer points on the q pivot
    columns of its `int_hull` result (columns, simplices, vertices): a
    pulling triangulation, the cones from one corner over the boundary
    simplices, sums |det(corners - p0)|, and 1 for q = 0.  Divided by |det M|
    for the rows M of a lattice basis of the hull's direction space on the
    pivot columns, it is q! times the volume in that lattice."""
    cols, simplices, _ = hull
    if not cols:
        return 1
    p0 = simplices[0][0][0]
    return sum(abs(det_int([vsub(c, p0) for c in corners]))
               for corners, _, _ in simplices)
