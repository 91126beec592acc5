"""Differential tests of the fan data `ToricVariety` keeps per maximal cone.

Each maximal cone's integer inverse, from one fraction-free solve, gives the
box rows of `scan_plan`, the cone vertices of `is_ample` and the smoothness
test.  On products of projective spaces and Hirzebruch surfaces of rank up
to 4 they are compared with the Cramer's-rule references of `_oracles` and
with the vertex test `ample_by_vertices`; a fan with a non-unimodular cone
must still be refused with the name of the first such cone.
"""

import re
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kodaira.toric import ToricDivisorData, ToricVariety, is_ample

from _oracles import (
    ample_by_vertices,
    is_ample_cramer,
    laplace_det,
    scan_rows_cramer,
)

MAX_RANK = 4


def factors():
    return st.one_of(st.integers(1, 3).map(ToricVariety.projective_space),
                     st.integers(0, 3).map(ToricVariety.hirzebruch))


@st.composite
def factor_lists(draw):
    """Projective spaces and Hirzebruch surfaces of total rank <= 4."""
    fs = [draw(factors())]
    rank = fs[0].lattice_rank
    while rank < MAX_RANK and draw(st.booleans()):
        fs.append(draw(factors().filter(
            lambda f: f.lattice_rank <= MAX_RANK - rank)))
        rank += fs[-1].lattice_rank
    return fs


def varieties():
    return factor_lists().map(lambda fs: reduce(ToricVariety.product, fs))


def factor_ample(f):
    """An ample divisor on a factor, written down by hand: all ones, but a
    on the (-1, a) ray of F_a for a >= 1."""
    return [max(r[1], 1) if len(r) == 2 and r[0] == -1 else 1 for r in f.rays]


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


@settings(max_examples=150)
@given(varieties())
def test_cone_inverses_invert_the_ray_matrices(x):
    n = x.lattice_rank
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    assert len(x.cone_inverses) == len(x.max_cones)
    for (idx, inv), cone in zip(x.cone_inverses, x.max_cones):
        assert idx == tuple(sorted(cone))
        rays = [x.rays[i] for i in idx]
        assert mat_mul(inv, rays) == eye
        assert mat_mul(rays, inv) == eye


@settings(max_examples=150)
@given(varieties())
def test_scan_plan_rows_match_cramer(x):
    plan, rows = x.scan_plan
    assert rows == scan_rows_cramer(x)
    assert x.scan_plan[0] is plan  # built once per variety


@st.composite
def divisors(draw, ample):
    """Integral coefficients near an ample divisor (so that both answers
    occur), or half of them."""
    shifts = draw(st.lists(st.integers(-2, 2), min_size=len(ample),
                           max_size=len(ample)))
    coeffs = [c + s for c, s in zip(ample, shifts)]
    if draw(st.integers(0, 3)) == 0:
        coeffs = [Fraction(c, 2) for c in coeffs]
    return ToricDivisorData(coeffs)


@settings(max_examples=100)
@given(factor_lists())
def test_standard_ample_is_the_factors_side_by_side(fs):
    # a product with an F_a factor (a >= 2) used to have no canned ample
    x = reduce(ToricVariety.product, fs)
    amp = x.standard_ample
    assert amp.nums == tuple(c for f in fs for c in factor_ample(f))
    assert amp.k0 == 1 and is_ample(x, amp)


@settings(max_examples=200)
@given(st.data())
def test_is_ample_matches_cramer_and_vertices(data):
    fs = data.draw(factor_lists())
    x = reduce(ToricVariety.product, fs)
    d = data.draw(divisors([c for f in fs for c in factor_ample(f)]))
    assert is_ample(x, d) == is_ample_cramer(x, d) == ample_by_vertices(x, d)


@settings(max_examples=150)
@given(st.data())
def test_non_unimodular_cone_is_refused_by_name(data):
    x = data.draw(varieties())
    n = x.lattice_rank
    w = tuple(data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
    assume(gcd(*w) == 1 and w not in x.rays)
    rays = (w,) + x.rays[1:]
    bad = [sorted(c) for c in x.max_cones
           if abs(laplace_det([rays[i] for i in sorted(c)])) != 1]
    assume(bad)
    with pytest.raises(ValueError, match=re.escape(f"cone {bad[0]} is not smooth")):
        ToricVariety(rays, x.max_cones)
