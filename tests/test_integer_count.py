"""Differential test of the integer degree-piece count.

SectionSystem counts each degree piece by shifting integer bounds; these
tests rebuild the same piece independently as a Fraction divisor polytope
(vertex box, no direction multipliers) and, where the box is small, filter
an integer grid through its constraints.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from kodaira.multiplier import SingularMetricData
from kodaira.toric import (
    SectionSystem,
    ToricDivisorData,
    ToricVariety,
    divisor_polytope,
)

from _oracles import grid_lattice_points

P1 = ToricVariety.projective_space(1)
VARIETIES = [
    P1,
    ToricVariety.projective_space(2),
    ToricVariety.projective_space(3),
    ToricVariety.product(P1, P1),
    ToricVariety.hirzebruch(1),
    ToricVariety.hirzebruch(2),
    ToricVariety.hirzebruch(3),
]
GRID_LIMIT = 3000  # grid points the brute-force oracle may filter


def ideal_coeff(mu, t, clamp):
    value = math.floor(t * mu) - t + 1
    return max(value, 0) if clamp else value


@st.composite
def degree_pieces(draw):
    variety = draw(st.sampled_from(VARIETIES))
    r = len(variety.rays)
    # denominators up to 3 give k0 > 1
    coeffs = draw(st.lists(
        st.builds(Fraction, st.integers(-2, 2), st.sampled_from((1, 2, 3))),
        min_size=r, max_size=r))
    aux = draw(st.none() | st.lists(st.integers(-1, 2), min_size=r, max_size=r))
    weights = draw(st.dictionaries(
        st.integers(0, r - 1),
        st.builds(Fraction, st.integers(0, 9), st.sampled_from((1, 2, 4))),
        max_size=2))
    stride = draw(st.sampled_from((1, 2, 3, 5)))
    k = stride * draw(st.integers(1, 2))
    clamp = draw(st.booleans())
    return variety, coeffs, aux, weights, stride, k, clamp


@settings(max_examples=150, deadline=None, derandomize=True)
@given(degree_pieces())
def test_integer_count_matches_fraction_polytope(piece):
    variety, coeffs, aux, weights, stride, k, clamp = piece
    divisor = ToricDivisorData(coeffs)
    sys = SectionSystem(
        variety, divisor, metric=SingularMetricData(weights.items()),
        aux=None if aux is None else ToricDivisorData(aux),
        degree_bound=2 * stride, clamp=clamp)

    # the degree-k piece as a Fraction polytope of the effective divisor
    t = k * divisor.k0
    effective = []
    for i, b in enumerate(divisor.coefficients):
        c = t * b + (aux[i] if aux is not None else 0)
        if weights.get(i):  # a zero weight is no singularity at all
            c -= ideal_coeff(weights[i], t, clamp)
        effective.append(c)
    poly = divisor_polytope(variety, ToricDivisorData(effective), 1)
    expected = poly.lattice_points()

    assert sys.count(k) == len(expected)
    assert list(sys.exponents(k)) == expected
    assert sys.count(k) == len(expected)  # served from the cache

    verts = poly.vertices()
    if verts:
        box = [(math.floor(min(v[i] for v in verts)) - 1,
                math.ceil(max(v[i] for v in verts)) + 1)
               for i in range(variety.lattice_rank)]
        if math.prod(hi - lo + 1 for lo, hi in box) <= GRID_LIMIT:
            assert grid_lattice_points(poly.constraints, box) == expected
