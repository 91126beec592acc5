"""Differential tests of the fraction-free elimination core of `lattice`.

`det_int`, `rat_rank`, the solves of `_solve` (here through the reference
`_oracles.basis_coords`) and the vertex-based `Polytope` predicates all run
on one integer Bareiss elimination; here they are compared with the
Fraction Gauss-Jordan, Fourier-Motzkin and cofactor references of
`_oracles`, in dimensions 0 to 4, on rank-deficient, empty, unbounded and
lower-dimensional systems with bounds of denominators 1 to 3.  The
perturbed growth order of `toric` is compared with the walk over every ray
mask it replaced, the limit polytope's dimension read off its implicit
equalities with the affine rank of its vertices, and the growth-law prediction, read off the one hull of
the body, with the body's volume and with the two-hull route it replaced.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kodaira.lattice import (
    GeometryError,
    det_int,
    dot,
    rat_rank,
)
from kodaira.multiplier import SingularMetricData
from kodaira.semigroup import growth_law_check, regularize
from kodaira.toric import (
    ToricDivisorData,
    ToricVariety,
    _limit_growth_exact,
    limit_polytope,
)

from _oracles import (
    _integral,
    affine_rank,
    basis_coords,
    body_volume,
    fm_is_empty,
    from_generators,
    laplace_det,
    limit_growth_mask_walk,
    rational_pairs,
    rational_polytope,
    rref,
    slice_volume_two_hulls,
    solve_linear_system,
    vertices_by_rref,
)

small = st.integers(-2, 2)
# |x| <= 4 with denominators 1..3
bound = st.integers(1, 3).flatmap(
    lambda q: st.builds(Fraction, st.integers(-4 * q, 4 * q), st.just(q)))


@st.composite
def low_rank(draw, nrows, ncols, entry=small):
    """An nrows x ncols matrix, as row tuples, of rank at most a drawn r:
    the product of nrows x r and r x ncols factors."""
    r = draw(st.integers(0, min(nrows, ncols)))
    left = draw(st.lists(st.tuples(*[entry] * r), min_size=nrows, max_size=nrows))
    right = draw(st.lists(st.tuples(*[entry] * ncols), min_size=r, max_size=r))
    return [tuple(sum(a * row[j] for a, row in zip(coeffs, right))
                  for j in range(ncols)) for coeffs in left]


def matrices(nrows, ncols, entry=small):
    """Free or low-rank matrices of the given shape."""
    return st.one_of(
        st.lists(st.tuples(*[entry] * ncols), min_size=nrows, max_size=nrows),
        low_rank(nrows, ncols, entry))


@st.composite
def systems(draw):
    """(n, constraints) in dimensions 0 to 4.  The normals are free or of
    low rank; some rows come with their opposite, which makes an equality
    (a lower-dimensional system) or, shifted by 1/2, an empty one; a box
    makes most systems bounded.  At most 9 rows (7 in dimension 4), so
    that Fourier-Motzkin stays small."""
    n = draw(st.integers(0, 4))
    m = draw(st.integers(0, 5))
    normals = draw(matrices(m, n))
    cons = []
    for v in normals:
        c = draw(bound)
        cons.append((v, c))
        twin = draw(st.sampled_from([None, None, None, 0, Fraction(1, 2)]))
        if twin is not None:
            cons.append((tuple(-x for x in v), twin - c))
    if n and draw(st.booleans()):
        side = draw(st.integers(1, 3))
        for i in draw(st.sets(st.integers(0, n - 1), min_size=1)):
            unit = tuple(int(j == i) for j in range(n))
            cons += [(unit, -side), (tuple(-x for x in unit), -side)]
    return n, cons[:7 if n == 4 else 9]


@settings(max_examples=400)
@given(systems())
@example((0, []))
@example((0, [((), Fraction(1, 3))]))
@example((1, [((1,), 0)]))
@example((2, [((1, 1), 1), ((-1, -1), -1)]))
@example((2, [((1, 1), 1), ((-1, -1), Fraction(-1, 2))]))
@example((3, [((1, 0, 0), 0), ((-1, 0, 0), -1), ((0, 1, 0), 0),
              ((0, -1, 0), -1), ((0, 0, 1), 0), ((0, 0, -1), 0)]))
def test_polytope_predicates_match_fourier_motzkin(system):
    n, cons = system
    reference = rational_polytope(n, cons)
    empty = fm_is_empty(reference)
    verts = vertices_by_rref(reference)
    # emptiness first, then vertices, and the other way round
    first = rational_polytope(n, cons)
    assert first.is_empty() == empty
    assert first.vertices() == verts
    second = rational_polytope(n, cons)
    assert second.vertices() == verts
    assert second.is_empty() == empty
    assert second.tight_masks() == tuple(
        sum(1 << i for i, (v, c) in enumerate(rational_pairs(second))
            if dot(p, v) == c) for p in verts)


@settings(max_examples=300)
@given(st.integers(0, 5).flatmap(lambda n: matrices(n, n, st.integers(-3, 3))))
@example([])
@example([(0, 1), (1, 0)])
@example([(0, 0, 1), (1, 0, 0), (0, 1, 0)])
def test_det_int_matches_cofactors_and_rref_rank(rows):
    n = len(rows)
    det = det_int(rows)
    assert det == laplace_det(rows)
    assert (det != 0) == (len(rref(rows, n)[1]) == n)


@settings(max_examples=300)
@given(st.tuples(st.integers(0, 5), st.integers(0, 5)).flatmap(
    lambda shape: matrices(*shape, bound)))
def test_rat_rank_matches_rref(rows):
    # rat_rank takes integer rows; scaling a row by a nonzero number keeps
    # the rank over Q, so the rational draws are scaled first
    ncols = len(rows[0]) if rows else 0
    assert rat_rank([_integral(r) for r in rows]) == len(rref(rows, ncols)[1])


def test_rat_rank_refuses_a_fraction_entry():
    with pytest.raises(ValueError, match="matrix entry must be an integer"):
        rat_rank([(Fraction(1, 2), 1)])


def coords_by_rref(basis, vectors):
    """Reference for `basis_coords`: one Fraction solve per vector with the
    basis rows as columns; GeometryError for a dependent basis or a vector
    outside its span."""
    n = len(basis[0]) if basis else len(vectors[0]) if vectors else 0
    if len(rref(basis, n)[1]) < len(basis):
        raise GeometryError("dependent basis")
    columns = [[b[t] for b in basis] for t in range(n)]
    out = []
    for v in vectors:
        x = solve_linear_system(columns, list(v))
        if x is None:
            raise GeometryError("outside the span")
        out.append(x)
    return out


# (basis, vectors) in Z^n, n <= 4: free and dependent bases of 0 to n
# rows, with rational vectors in the span (denominators 1 to 3) or outside
COORDINATE_SYSTEMS = [
    ([], []),
    ([], [(0, 0)]),
    ([], [(1, 0)]),
    ([(0, 0)], [(0, 0)]),
    ([(1, 2), (2, 4)], []),
    ([(1, 2)], [(Fraction(1, 2), 1), (1, 0)]),
    ([(3,)], [(1,), (Fraction(-4, 3),), (0,)]),
    ([(1, 0), (0, 1)], [(3, -2), (Fraction(1, 2), Fraction(2, 3))]),
    ([(2, 1, 0), (0, 1, 3)], [(2, 2, 3), (1, Fraction(1, 2), 0),
                              (Fraction(2, 3), Fraction(-1, 3), -2)]),
    ([(2, 1, 0), (0, 1, 3)], [(1, 0, 0)]),
    ([(1, 1, 1), (1, -1, 0), (0, 0, 2)], [(1, 2, 3), (Fraction(1, 3), 0, -4)]),
    ([(1, 1, 0, 0), (0, 1, 1, 0), (1, 0, -1, 0)], [(1, 2, 1, 0)]),
    ([(1, -2, 0, 1), (0, 2, -1, 2)], [(2, -2, -1, 4), (Fraction(1, 2), -1, 0,
                                                      Fraction(1, 2))]),
    ([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 2)],
     [(4, -3, 2, Fraction(1, 3))]),
]


def test_basis_coords_matches_rref():
    for basis, vectors in COORDINATE_SYSTEMS:
        try:
            expected = coords_by_rref(basis, vectors)
        except GeometryError:
            with pytest.raises(GeometryError):
                basis_coords(basis, vectors)
        else:
            assert basis_coords(basis, vectors) == expected, (basis, vectors)


P1 = ToricVariety.projective_space(1)
P2 = ToricVariety.projective_space(2)
P1xP1 = ToricVariety.product(P1, P1)
VARIETIES = [P1, P2, ToricVariety.projective_space(3), P1xP1,
             ToricVariety.hirzebruch(1), ToricVariety.hirzebruch(2),
             ToricVariety.product(P1, P2), ToricVariety.product(P1xP1, P1)]
LOWER_DIMENSIONAL = [
    (P2, (0, 0, 0), [], set()),                # Q a point
    (P2, (0, 0, 0), [(0, 1)], set()),          # a point on a strict ray
    (P2, (0, 0, 0), [(0, 1)], {0}),            # ... that is fattened
    (P1xP1, (0, 1, 0, 0), [], set()),          # a segment
    (P1xP1, (0, 1, 0, 0), [(2, 1)], set()),    # along a strict ray
    (P1xP1, (0, 1, 0, 0), [(0, 2)], {2, 3}),   # across one
    (P1xP1, (0, 1, 0, 0), [(0, Fraction(3, 2))], set()),
]


@st.composite
def limit_cases(draw):
    """A corpus variety with a random Q-divisor, metric and fattened rays:
    coefficients in {-1, 0, 1/2, 1, 2} and weights on both sides of 1 give
    empty, lower- and full-dimensional limit polytopes."""
    x = draw(st.sampled_from(VARIETIES))
    rays = range(len(x.rays))
    coeffs = draw(st.lists(st.sampled_from([-1, 0, 0, Fraction(1, 2), 1, 2]),
                           min_size=len(rays), max_size=len(rays)))
    weights = draw(st.lists(
        st.sampled_from([0, 0, Fraction(1, 2), 1, Fraction(3, 2), 2]),
        min_size=len(rays), max_size=len(rays)))
    fattened = draw(st.sets(st.sampled_from(rays)))
    return x, tuple(coeffs), [(i, w) for i, w in enumerate(weights) if w], fattened


@settings(max_examples=300)
@given(limit_cases())
def test_limit_growth_matches_mask_walk(case):
    x, coeffs, entries, fattened = case
    divisor = ToricDivisorData(coeffs)
    metric = SingularMetricData(entries) if entries else None
    assert (_limit_growth_exact(x, divisor, metric, fattened)
            == limit_growth_mask_walk(x, divisor, metric, fattened))


@settings(max_examples=150)
@given(limit_cases())
def test_limit_dimension_from_equalities_matches_vertex_rank(case):
    # with every ray fattened the exact growth order is dim Q, read off the
    # rays tight on all of Q; the vertices' affine rank is the reference
    x, coeffs, entries, _ = case
    divisor = ToricDivisorData(coeffs)
    metric = SingularMetricData(entries) if entries else None
    q = limit_polytope(x, divisor, metric)
    assert (_limit_growth_exact(x, divisor, metric, set(range(len(x.rays))))
            == affine_rank(q.vertices()))


@pytest.mark.parametrize("case", LOWER_DIMENSIONAL)
def test_limit_growth_lower_dimensional_cases(case):
    x, coeffs, entries, fattened = case
    divisor = ToricDivisorData(coeffs)
    metric = SingularMetricData(entries) if entries else None
    assert (_limit_growth_exact(x, divisor, metric, fattened)
            == limit_growth_mask_walk(x, divisor, metric, fattened))


@pytest.mark.parametrize("generators", [
    [(0, 0, 1), (1, 0, 1), (0, 1, 1)],              # the P^2 simplex, m = 1
    [(0, 2), (1, 2), (3, 4)],                       # m = 2
    [(0, 0, 3), (2, 1, 3), (1, 3, 3), (1, 1, 6)],   # m = 3, rational vertices
    [(5, 1)],                                       # a point: q = 0
    [(5, 5, 1), (6, 5, 1), (5, 6, 1), (7, 7, 2)],   # far from the origin
    [(1, 0, 2), (3, 0, 2)],                         # a segment in the plane
    [(0, 0, 0, 1), (1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1), (1, 1, 1, 2)],
])
def test_growth_law_prediction_is_the_body_volume(generators):
    """The predicted coefficient, read off the one hull `regularize` built,
    is m^q times the lattice volume of the body, and the volume of the
    hull of the slice vertices' boundary coordinates."""
    sg = from_generators(generators)
    reg = regularize(sg)
    q = reg.okounkov_dim
    expected = Fraction(reg.m) ** q * body_volume(
        reg.okounkov_body, list(reg.boundary_lattice))
    assert growth_law_check(reg, k_max=20).a_q_predicted == expected
    assert expected == slice_volume_two_hulls(reg)
