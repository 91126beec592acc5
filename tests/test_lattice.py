import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kodaira.lattice import (
    NEG_INF,
    GeometryError,
    Polytope,
    ScanPlan,
    det_int,
    dot,
    hnf_basis,
    int_kernel,
    primitive,
    vsub,
)
from kodaira.curve import CurveDivisorClass
from kodaira.multiplier import multiplier_coeff
from kodaira.semigroup import GradedSemigroup, hilbert, hilbert_reg, regularize
from kodaira.toric import SectionSystem, ToricDivisorData, ToricVariety

from _oracles import (
    affine_dimension,
    basis_coords,
    body_volume,
    coset_count,
    diff_lattice_per_point,
    dilate,
    from_generators,
    grid_lattice_points,
    hnf_basis_euclid,
    hull_vertex_set,
    in_row_lattice,
    int_kernel_euclid,
    int_points_rank,
    interpolate_polynomial,
    point_moments,
    rational_hull,
    rational_pairs,
    rational_polytope,
    saturate_rows_euclid,
    scan_points,
    solve_in_lattice,
    span_rank,
)


# ---------------------------------------------------------------------------
# Hermite normal form
# ---------------------------------------------------------------------------

def test_hnf_rowspace_preserved():
    mat = [(2, 4), (1, 3)]
    hb = hnf_basis(mat)
    assert hb == hnf_basis_euclid(mat)
    # mutual membership: same integer row space
    for row in mat:
        assert in_row_lattice(row, hb)
    for row in hb:
        assert solve_in_lattice(row, mat) is not None


def test_hnf_identity():
    ident = [(1, 0), (0, 1)]
    assert hnf_basis(ident) == [(1, 0), (0, 1)]
    assert int_kernel(ident) == []


def test_hnf_zero_row():
    assert hnf_basis([(0, 0)]) == []
    assert int_kernel([(0, 0)]) == [(1,)]


def test_hnf_idempotent():
    mats = [
        [(2, 4), (1, 3)],
        [(6, 0, 3), (0, 4, 2), (2, 2, 2)],
        [(5,)],
        [(0, 7), (3, 1), (9, 9)],
    ]
    for mat in mats:
        h1 = hnf_basis(mat)
        assert hnf_basis(h1) == h1


def test_hnf_unimodular_transform():
    # a unimodular transform keeps |det|: the full-rank HNF has the input's
    # index in Z^3, and the left kernel is trivial
    mat = [(6, 10, 15), (10, 15, 6), (15, 6, 10)]
    h = hnf_basis(mat)
    assert h == hnf_basis_euclid(mat)
    assert abs(det_int(h)) == abs(det_int(mat)) != 0
    assert int_kernel(mat) == []


@pytest.mark.parametrize("rows", [
    [(2, 0), (0, 3, 7)],
    [(1, 0, 0), (0, 1)],
    [(1, 0), (0, 1, 5)],
])
def test_lattice_bases_refuse_ragged_rows(rows):
    for routine in (hnf_basis, int_kernel):
        with pytest.raises(GeometryError, match="ragged matrix"):
            routine(rows)


def saturate(rows):
    """The saturation of the rows' span (its rational span met with Z^n) by
    two library kernels, the route of `fibration.iitaka_analysis`: the
    integer kernel of the transposed rows, the span's orthogonal complement,
    then the integer kernel of its transpose, in Hermite form."""
    if not rows:
        return []
    n = len(rows[0])
    perp = int_kernel([tuple(r[i] for r in rows) for i in range(n)])
    return hnf_basis(int_kernel([tuple(w[i] for w in perp) for i in range(n)]))


@st.composite
def hnf_matrices(draw):
    """0-6 rows of 1-5 columns: drawn rows with entries up to +-50, mixed
    with zero rows, repeated rows and combinations of two earlier rows."""
    n = draw(st.integers(1, 5))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("drawn", "zero", "repeat", "combination")))
        if kind == "zero":
            rows.append((0,) * n)
        elif kind == "drawn" or not rows:
            rows.append(draw(st.tuples(*[st.integers(-50, 50)] * n)))
        elif kind == "repeat":
            rows.append(draw(st.sampled_from(rows)))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            rows.append(tuple(s * x + t * y for x, y in zip(a, b)))
    return rows


@settings(max_examples=300, deadline=None)
@given(hnf_matrices())
@example([(2, 3), (4, -5)])
@example([(0, 0, 0), (1, 1, 1), (1, 1, 1)])
def test_hnf_matches_euclid_chase(rows):
    # gcd insertion and the Euclid chase give the same canonical basis; the
    # kernels differ, but each holds m - rank vectors of the left kernel,
    # and both span one lattice
    basis = hnf_basis_euclid(rows)
    assert hnf_basis(rows) == basis
    kernel = int_kernel(rows)
    assert len(kernel) == len(rows) - len(basis)
    assert all(not any(sum(x * r[j] for x, r in zip(k, rows))
                       for j in range(len(rows[0]))) for k in kernel)
    assert hnf_basis(kernel) == hnf_basis(int_kernel_euclid(rows))
    assert saturate(rows) == saturate_rows_euclid(rows)


# ---------------------------------------------------------------------------
# subgroup rank and index: the HNF basis and the |det| of its square
# ---------------------------------------------------------------------------

def test_subgroup_index_diagonal():
    basis = hnf_basis([(2, 0), (0, 3)])
    assert (len(basis), abs(det_int(basis))) == (2, 6)
    # brute-force coset oracle over a compatible box
    assert coset_count([(2, 0), (0, 3)], 6) == 6


def test_subgroup_rank_deficient():
    assert hnf_basis([(1, 1)]) == [(1, 1)]  # rank 1 in Z^2: infinite index


def test_subgroup_empty_generators():
    assert hnf_basis([]) == []


def test_subgroup_outside_ambient():
    # coordinates in the ambient basis exist only inside its span
    with pytest.raises(GeometryError):
        basis_coords([(1, 0)], [(1, 1)])


def test_subgroup_against_coset_oracle():
    cases = [
        [(1, 2), (3, 0)],
        [(2, 2), (0, 4)],
        [(1, 0), (0, 1)],
        [(3, 1), (1, 3)],
        [(5, 0), (0, 19)],   # index 95
        [(10, 2), (0, 10)],  # index 100
        [(7, 3), (2, 12)],   # index 78
    ]
    for gens in cases:
        basis = hnf_basis(gens)
        idx = abs(det_int(basis))
        assert len(basis) == 2
        assert 0 < idx <= 100
        # a box of side idx contains a full fundamental domain
        assert coset_count(gens, idx) == idx


def test_subgroup_in_saturated_ambient():
    # ambient = saturated rank-2 lattice in Z^3
    ambient = [(1, 0, 1), (0, 1, 1)]
    coords = basis_coords(hnf_basis(ambient), [(2, 0, 2), (0, 3, 3)])
    assert all(x.denominator == 1 for c in coords for x in c)
    basis = hnf_basis([tuple(map(int, c)) for c in coords])
    assert (len(basis), abs(det_int(basis))) == (2, 6)


# ---------------------------------------------------------------------------
# kernels and saturation
# ---------------------------------------------------------------------------

def test_int_kernel():
    ker = int_kernel([(1, 2), (2, 4)])  # rows, left kernel
    assert len(ker) == 1
    x = ker[0]
    assert x[0] * 1 + x[1] * 2 == 0 and x[0] * 2 + x[1] * 4 == 0


def test_saturation():
    sat = saturate([(2, 0), (0, 2)])
    assert sat == [(1, 0), (0, 1)]
    sat = saturate([(2, 4)])
    assert sat == [(1, 2)]
    assert saturate([(0, 0)]) == []


# ---------------------------------------------------------------------------
# convex hull
# ---------------------------------------------------------------------------

def inside(poly, point):
    return all(dot(point, v) >= c for v, c in rational_pairs(poly))


def test_hull_interior_point_dropped():
    pts = [(0, 0), (1, 0), (0, 1), (Fraction(1, 4), Fraction(1, 4))]
    poly = rational_hull(pts)
    assert set(poly.vertices()) == {(0, 0), (1, 0), (0, 1)}
    assert affine_dimension(poly.vertices()) == 2
    assert set(poly.vertices()) == hull_vertex_set(pts)


def test_hull_single_point():
    poly = rational_hull([(5, 7)])
    assert poly.vertices() == ((5, 7),)
    assert affine_dimension(poly.vertices()) == 0
    assert inside(poly, (5, 7)) and not inside(poly, (5, 8))


def test_hull_collinear():
    poly = rational_hull([(0, 0), (1, 1), (2, 2)])
    assert set(poly.vertices()) == {(0, 0), (2, 2)}
    assert affine_dimension(poly.vertices()) == 1


def test_hull_empty():
    # an empty vertex list makes the polytope empty, whatever its constraints
    poly = Polytope(2, [], [], vertices=())
    assert poly.is_empty()
    assert poly.vertices() == ()


def test_hull_3d_simplex():
    pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
           (Fraction(1, 8), Fraction(1, 8), Fraction(1, 8))]
    poly = rational_hull(pts)
    assert set(poly.vertices()) == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert affine_dimension(poly.vertices()) == 3
    assert set(poly.vertices()) == hull_vertex_set(pts)


def test_hull_matches_oracle_random_sets():
    sets = [
        [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1), (2, 1)],
        [(0, 0), (3, 1), (1, 3), (2, 2), (1, 1)],
        [(-1, -1), (1, -1), (-1, 1), (1, 1), (0, 0)],
    ]
    for pts in sets:
        poly = rational_hull(pts)
        assert set(poly.vertices()) == hull_vertex_set(pts)
        for p in pts:
            assert inside(poly, p)


def test_hull_lower_dim_in_higher_space():
    # a segment embedded in 3-space gets affine-hull equalities
    poly = rational_hull([(0, 1, 2), (2, 1, 2)])
    assert affine_dimension(poly.vertices()) == 1
    assert inside(poly, (1, 1, 2))
    assert not inside(poly, (1, 1, 3))
    assert not inside(poly, (3, 1, 2))


# ---------------------------------------------------------------------------
# polytopes: emptiness and vertices; lattice points by ScanPlan
# ---------------------------------------------------------------------------

SQUARE_NORMALS = [(1, 0), (-1, 0), (0, 1), (0, -1)]


def square_polytope(side):
    return Polytope(2, SQUARE_NORMALS, [0, -side, 0, -side])


def scan(cons, box):
    """The integer points of the box with <u, v> >= c for every (v, c) in
    cons, for integer bounds c, listed by the oracle; ScanPlan's count and
    moments must agree with them."""
    plan = ScanPlan(len(box), [v for v, _ in cons])
    bounds = [c for _, c in cons]
    pts = scan_points(plan, box, bounds)
    assert plan.scan(box, bounds) == len(pts)
    assert plan.moments(box, bounds) == point_moments(pts, len(box))
    return pts


def test_square_lattice_points():
    cons = list(zip(SQUARE_NORMALS, [0, -2, 0, -2]))
    pts = scan(cons, [(-1, 3)] * 2)
    assert len(pts) == 9
    assert pts == sorted(pts)


def test_simplex_lattice_points_binomial():
    k = 3
    cons = [((1, 0), 0), ((0, 1), 0), ((-1, -1), -k)]
    # oracle: binomial count (k+2 choose 2)
    assert len(scan(cons, [(0, k)] * 2)) == (k + 2) * (k + 1) // 2 == 10


def test_empty_polytope():
    cons = [((1, 0), 1), ((-1, 0), 0)]  # x >= 1 and x <= 0
    poly = rational_polytope(2, cons)
    assert poly.is_empty()
    assert poly.vertices() == ()
    assert scan(cons, [(-3, 3)] * 2) == []


def test_lattice_points_match_grid_oracle():
    cons = [((1, 2), -3), ((-1, 1), -4), ((0, -1), -3), ((1, -1), -2)]
    poly = rational_polytope(2, cons)
    assert not poly.is_empty()
    box = [(math.ceil(min(c)), math.floor(max(c))) for c in zip(*poly.vertices())]
    assert scan(cons, box) == grid_lattice_points(cons, box)


def test_vertices_of_intersection():
    poly = square_polytope(1)
    assert poly.vertices() == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert affine_dimension(poly.vertices()) == 2


def test_hull_of_lattice_points_recovers_vertices():
    # hull(lattice points of P) has the same vertex set as P, for lattice P
    polys = [
        (list(zip(SQUARE_NORMALS, [0, -2, 0, -2])), [(0, 2)] * 2),
        ([((1, 0), 0), ((0, 1), 0), ((-1, -1), -3)], [(0, 3)] * 2),
        ([((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, -1, -1), -2)],
         [(0, 2)] * 3),
        ([((1, 1), 0), ((-1, 1), -2), ((0, -1), -2)], [(-2, 4), (-1, 2)]),
    ]
    for cons, box in polys:
        hull = rational_hull(scan(cons, box))
        assert set(hull.vertices()) == set(rational_polytope(len(box), cons).vertices())


def test_ehrhart_interpolation():
    # counts of dilates interpolate to the Ehrhart polynomial
    polys = [
        square_polytope(1),
        Polytope(2, [(1, 0), (0, 1), (-1, -1)], [0, 0, -1]),
        Polytope(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
                 [0, 0, 0, -1]),
    ]
    for poly in polys:
        d = affine_dimension(poly.vertices())

        def count(k):  # each polytope lies in the unit cube
            q = dilate(poly, k)
            return ScanPlan(d, q.normals).scan([(0, k)] * d, q.bounds)
        ehr = interpolate_polynomial([(k, count(k)) for k in range(d + 1)])
        for k in range(d + 1, d + 4):
            assert ehr(k) == count(k)


# ---------------------------------------------------------------------------
# lattice volume
# ---------------------------------------------------------------------------

def test_volume_unit_segment():
    poly = rational_hull([(0, 1), (1, 1)])
    assert body_volume(poly, [(1, 0)]) == 1


def test_volume_half_segment():
    poly = rational_hull([(0, 1), (Fraction(1, 2), 1)])
    assert body_volume(poly, [(1, 0)]) == Fraction(1, 2)


def test_volume_unit_square():
    poly = square_polytope(1)
    assert body_volume(poly, [(1, 0), (0, 1)]) == 1


def test_volume_point():
    poly = rational_hull([(3, 4)])
    assert body_volume(poly, []) == 1


def test_volume_scaling_identity():
    # vol(kP) = k^dim vol(P) as an exact rational identity
    polys = [
        (square_polytope(1), [(1, 0), (0, 1)]),
        (rational_polytope(2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), -1)]),
         [(1, 0), (0, 1)]),
        (rational_polytope(3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
                               ((-1, -1, -1), -1)]),
         [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    ]
    for poly, basis in polys:
        d = affine_dimension(poly.vertices())
        v1 = body_volume(poly, basis)
        for k in (1, 2, 3):
            assert body_volume(dilate(poly, k), basis) == v1 * k ** d


def test_volume_basis_mismatch():
    poly = square_polytope(1)
    with pytest.raises(GeometryError):
        body_volume(poly, [(1, 0)])


def test_volume_unimodular_invariance():
    poly = square_polytope(2)
    v1 = body_volume(poly, [(1, 0), (0, 1)])
    v2 = body_volume(poly, [(1, 1), (0, 1)])  # unimodular change of basis
    assert v1 == v2 == 4


# ---------------------------------------------------------------------------
# the span_rank reference: spans of exponent sets from one Gram matrix
# ---------------------------------------------------------------------------

@st.composite
def sublattice_set(draw, n):
    """Points base + sum c_i u_i for r = 0..n small integer directions u_i
    (dependent ones give a lower rank; r = 0 gives repeats of one point),
    optionally ending in one arbitrary point, so that a long set can reach
    full rank only at its end."""
    r = draw(st.integers(0, n))
    base = draw(st.tuples(*[st.integers(-9, 9)] * n))
    dirs = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n),
                         min_size=r, max_size=r))
    coeffs = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * r), max_size=40))
    pts = [base] + [tuple(b + sum(c * u[i] for c, u in zip(cs, dirs))
                          for i, b in enumerate(base)) for cs in coeffs]
    if draw(st.booleans()):
        pts.append(draw(st.tuples(*[st.integers(-9, 9)] * n)))
    return pts


span_cases = st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(sublattice_set(n), min_size=1, max_size=3)))


@settings(max_examples=400)
@given(span_cases)
# full rank only at the last of many points: read past several prefixes
@example((2, [[(0, 0)] + [(x, 2 * x) for x in range(1, 30)] + [(1, 0)]]))
@example((3, [[(1, 2, 3)]]))
def test_span_rank_matches_per_point_lattice(case):
    n, sets = case
    rank, gram = span_rank(sets, n)
    diffs = [vsub(p, pts[0]) for pts in sets for p in pts[1:]]
    origin = (0,) * n
    assert rank == diff_lattice_per_point(sets, n).rank
    assert rank == affine_dimension([origin] + diffs)
    if len(sets) == 1:
        assert int_points_rank(sets[0]) == rank == affine_dimension(sets[0])
    # the Gram rows lie in the differences' rational span and have its rank
    rows = [r for r in gram if any(r)]
    assert affine_dimension([origin] + rows) == rank
    assert affine_dimension([origin] + rows + diffs) == rank
    assert gram == [list(col) for col in zip(*gram)]
    if rank < n:  # no early exit: the Gram matrix of every difference
        assert gram == [[sum(d[i] * d[j] for d in diffs) for j in range(n)]
                        for i in range(n)]
    # its integer kernel is the differences' orthogonal complement
    perp = int_kernel(gram)
    assert len(perp) == n - rank
    assert all(dot(w, d) == 0 for w in perp for d in diffs)


def test_span_rank_of_no_points():
    assert int_points_rank([]) == NEG_INF
    assert span_rank([], 3) == (0, [[0] * 3 for _ in range(3)])


def test_polytope_stores_its_record_as_given():
    # no row is divided by the gcd of its normal, and the vertices divide by
    # den only once: {2x + 4y >= 3/6, -x >= -5/6, -y >= 0}
    poly = Polytope(2, [(2, 4), (-1, 0), (0, -1)], [3, -5, 0], 6)
    assert (poly.normals, poly.bounds, poly.den) == (
        ((2, 4), (-1, 0), (0, -1)), (3, -5, 0), 6)
    assert poly.vertices() == ((Fraction(1, 4), 0), (Fraction(5, 6), Fraction(-7, 24)),
                               (Fraction(5, 6), 0))
    assert poly.tight_masks() == (0b101, 0b011, 0b110)


P1_FAN = [{0, 1}, {1, 2}, {2, 3}, {3, 0}]


def _stored(k):
    levels = {1: [(0,), (1,)], 2: [(0,), (1,), (2,)]}
    return hilbert(GradedSemigroup(1, levels=levels, degree_bound=2), k)


def _generated(k):
    return hilbert(from_generators([(0, 1), (1, 1)]), k)


@pytest.mark.parametrize("call, value", [
    (lambda: ToricVariety([(1.5, 0), (0, 1), (-1, 0), (0, -1)], P1_FAN), 1.5),
    (lambda: _stored(2.5), 2.5),
    (lambda: _generated(Fraction(5, 2)), Fraction(5, 2)),
    (lambda: hilbert_reg(regularize(
        from_generators([(0, 1), (1, 1)])), 2.7), 2.7),
    (lambda: SectionSystem(ToricVariety.projective_space(2),
                           ToricDivisorData((1, 0, 0)), degree_bound=4.9), 4.9),
    (lambda: GradedSemigroup(1, levels={1: [(0,)]}, degree_bound=1.9), 1.9),
    (lambda: multiplier_coeff(Fraction(3, 2), 4.7), 4.7),
    (lambda: CurveDivisorClass.general(3.8), 3.8),
    (lambda: Polytope(2.0, [], []), 2.0),
    (lambda: Polytope(1, [(Fraction(1, 2),)], [0]), Fraction(1, 2)),
    (lambda: Polytope(1, [(1,)], [0.5]), 0.5),
    (lambda: Polytope(1, [(1,)], [0], "2"), "2"),
    (lambda: GradedSemigroup(1, generators=[(0, 1), (1, 1)], degree_bound=3.5), 3.5),
    pytest.param(lambda: int_kernel([(1.5, 2), (0, 1)]), 1.5, id="int_kernel"),
    pytest.param(lambda: hnf_basis([(1, 0), (0.9, 0)]), 0.9, id="hnf_basis"),
    # primitive has integer callers only and converts nothing: gcd refuses
    pytest.param(lambda: primitive((2.5, 4)), None, id="primitive"),
])
def test_integer_inputs_are_not_truncated(call, value):
    if value is None:
        with pytest.raises(TypeError):
            call()
        return
    with pytest.raises(ValueError, match=re.escape(f"must be an integer, got {value!r}")):
        call()


def test_polytope_denominator_is_positive():
    with pytest.raises(ValueError, match="denominator must be positive"):
        Polytope(1, [(1,)], [0], 0)
