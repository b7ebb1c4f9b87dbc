"""Tests for coordinate projections, sections, and symmetrizations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convexiq import bodies, coordops, explorer, measures, quadrature, symmetry
from convexiq.errors import InvalidArgument, UnsupportedOperation

from conftest import random_polytope

SPEC2 = quadrature.QuadratureSpec.for_dimension(2)


# ---------------------------------------------------------------------------
# projections


def test_cross_projection_is_diamond(spec3):
    c = bodies.cross_polytope(3)
    flat = coordops.project(c, 2)
    assert flat.n == 3
    assert np.allclose(flat.vertices[:, 2], 0.0)
    dropped = coordops.project_drop(c, 2)
    assert dropped.n == 2
    assert len(dropped.vertices) == 4
    area = measures.vm(dropped, 2, SPEC2).value
    assert area == pytest.approx(2.0, rel=1e-9)


def test_cube_projection_is_square():
    sq = coordops.project_drop(bodies.cube(3), 0)
    assert sorted(map(tuple, sq.vertices)) == [
        (-1.0, -1.0),
        (-1.0, 1.0),
        (1.0, -1.0),
        (1.0, 1.0),
    ]


def test_projection_axis_support_vanishes():
    rng = np.random.default_rng(3)
    p = random_polytope(rng, 3)
    flat = coordops.project(p, 1)
    e1 = np.array([0.0, 1.0, 0.0])
    assert bodies.support(flat, e1) == pytest.approx(0.0, abs=1e-12)
    assert bodies.support(flat, -e1) == pytest.approx(0.0, abs=1e-12)
    # the other coordinates are untouched
    e0 = np.array([1.0, 0.0, 0.0])
    assert bodies.support(flat, e0) == pytest.approx(bodies.support(p, e0))


def test_ball_projection_stays_a_ball():
    b = bodies.ball(3, radius=2.0)
    flat = coordops.project(b, 1)
    assert isinstance(flat, bodies.Ball)
    assert bodies.support(flat, np.array([0.0, 1.0, 0.0])) == pytest.approx(0.0)
    assert bodies.support(flat, np.array([1.0, 0.0, 0.0])) == pytest.approx(2.0)


def test_zonotope_projection_stays_a_zonotope():
    rng = np.random.default_rng(5)
    z = bodies.Zonotope(rng.standard_normal(3), rng.standard_normal((5, 3)))
    flat = coordops.project(z, 0)
    assert isinstance(flat, bodies.Zonotope)
    u = rng.standard_normal(3)
    u[0] = 0.0
    assert bodies.support(flat, u) == pytest.approx(bodies.support(z, u))


def test_project_rejects_bad_axis():
    p = bodies.cube(3)
    with pytest.raises(InvalidArgument):
        coordops.project(p, 3)
    with pytest.raises(InvalidArgument):
        coordops.project(p, -1)


# ---------------------------------------------------------------------------
# sections


def test_cross_section_is_diamond():
    c = bodies.cross_polytope(3)
    sec = coordops.section_drop(c, 2)
    assert measures.vm(sec, 2, SPEC2).value == pytest.approx(2.0, rel=1e-9)


def test_section_misses_translated_body():
    far = bodies.translate_body(bodies.cube(3), np.array([0.0, 0.0, 5.0]))
    assert coordops.section(far, 2) is coordops.EMPTY


def test_section_of_shifted_cube():
    # [-1,1]^3 + e3/2 still crosses the x3 = 0 plane; the slice is the full square
    shifted = bodies.translate_body(bodies.cube(3), np.array([0.0, 0.0, 0.5]))
    sec = coordops.section_drop(shifted, 2)
    assert measures.vm(sec, 2, SPEC2).value == pytest.approx(4.0, rel=1e-9)


def test_section_contained_in_projection():
    rng = np.random.default_rng(17)
    for _ in range(6):
        p = random_polytope(rng, 3)
        for i in range(3):
            sec = coordops.section(p, i)
            if sec is coordops.EMPTY:
                continue
            flat = coordops.project(p, i)
            dirs = rng.standard_normal((32, 3))
            dirs[:, i] = 0.0
            for u in dirs:
                assert bodies.support(sec, u) <= bodies.support(flat, u) + 1e-9


def test_unconditional_section_equals_projection():
    """For bodies invariant under sign flips the central slice and the shadow agree."""
    rng = np.random.default_rng(23)
    gens = np.diag(rng.uniform(0.3, 1.5, size=3))
    for body in (
        bodies.cross_polytope(3),
        bodies.cube(3),
        bodies.Zonotope(np.zeros(3), gens),
    ):
        for i in range(3):
            sec = coordops.section_drop(body, i)
            flat = coordops.project_drop(body, i)
            for u in rng.standard_normal((24, 2)):
                assert bodies.support(sec, u) == pytest.approx(
                    bodies.support(flat, u), rel=1e-9, abs=1e-9
                )


def test_k1_sections_are_unit_disks():
    """K1 lies in the unit ball and contains each coordinate unit disk, so
    its coordinate sections are those disks, with closed-form measures."""
    for i in range(3):
        sec = coordops.section(bodies.k1(), i)
        assert isinstance(sec, bodies.Ball)
        assert (sec.radius, sec.zeroed) == (1.0, frozenset({i}))
        area = measures.vm(coordops.section_drop(bodies.k1(), i), 2)
        assert area.exact
        assert area.value == pytest.approx(np.pi, rel=1e-15)


def test_ball_sections_are_balls():
    b = bodies.ball(3, center=[0.0, 0.0, 0.6])
    sec = coordops.section(b, 2)
    assert isinstance(sec, bodies.Ball)
    assert sec.zeroed == frozenset({2})
    assert sec.radius == pytest.approx(0.8, rel=1e-15)
    assert np.array_equal(sec.center, np.zeros(3))
    assert coordops.section(sec, 2) is sec      # already flat along axis 2
    dropped = coordops.section_drop(b, 2)
    assert (dropped.n, dropped.zeroed) == (2, frozenset())
    assert measures.vm(dropped, 2).value == pytest.approx(0.64 * np.pi, rel=1e-14)
    assert coordops.section(bodies.ball(3, center=[0.0, 0.0, 2.0]), 2) is coordops.EMPTY


def test_empty_body_is_rejected():
    for fn in (coordops.project, coordops.section, coordops.project_drop):
        with pytest.raises(InvalidArgument):
            fn(coordops.EMPTY, 0)


# ---------------------------------------------------------------------------
# symmetral under the signed-permutation group


def test_symmetral_of_segment_is_square():
    # [o, e1] in the plane averages to the square with half-width 1/4
    seg = bodies.convex_hull(np.array([[0.0, 0.0], [1.0, 0.0]]))
    sym = coordops.g_symmetral(seg)
    assert sorted(map(tuple, sym.vertices)) == [
        (-0.25, -0.25),
        (-0.25, 0.25),
        (0.25, -0.25),
        (0.25, 0.25),
    ]


@pytest.mark.parametrize("make", [bodies.cube, bodies.cross_polytope])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_symmetral_fixes_invariant_bodies(make, n):
    body = make(n)
    sym = coordops.g_symmetral(body)
    assert len(sym.vertices) == len(body.vertices)
    rng = np.random.default_rng(n)
    for u in rng.standard_normal((32, n)):
        assert bodies.support(sym, u) == pytest.approx(bodies.support(body, u), abs=1e-9)


def test_symmetral_is_group_invariant(rng):
    p = random_polytope(rng, 3, k=8)
    sym = coordops.g_symmetral(p)
    group = symmetry.hyperoctahedral_group(3)
    dirs = rng.standard_normal((64, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    assert symmetry.invariance_defect(sym, group, dirs) <= 1e-9


def test_symmetral_preserves_mean_width_ratio(rng, spec3):
    """The averaging construction must not move the width functional it feeds."""
    p = random_polytope(rng, 3, k=7)
    sym = coordops.g_symmetral(p)
    before = explorer.mean_width_ratio(p, spec3)
    after = explorer.mean_width_ratio(sym, spec3)
    assert after == pytest.approx(before, abs=1e-6)


def test_symmetral_budget_guard_in_high_dimension():
    rng = np.random.default_rng(11)
    cloud = bodies.convex_hull(rng.standard_normal((20, 4)))
    with pytest.raises(UnsupportedOperation):
        coordops.g_symmetral(cloud)


# ---------------------------------------------------------------------------
# Steiner symmetrization


def test_steiner_preserves_volume(spec3):
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((7, 3)) + np.array([0.4, -0.2, 0.1])
    p = bodies.convex_hull(pts)
    st = coordops.steiner_symmetrize(p, 0, slabs=256)
    v0 = measures.vm(p, 3, spec3).value
    v1 = measures.vm(st, 3, spec3).value
    assert v1 == pytest.approx(v0, rel=1e-4)


def test_steiner_output_is_reflection_symmetric(spec3):
    rng = np.random.default_rng(9)
    p = bodies.convex_hull(rng.standard_normal((9, 3)) + 0.3)
    st = coordops.steiner_symmetrize(p, 1, slabs=256)
    mirrored = st.vertices.copy()
    mirrored[:, 1] *= -1.0
    hull = bodies.convex_hull(np.vstack([st.vertices, mirrored]))
    # adding the mirror image changes nothing
    v = measures.vm(st, 3, spec3).value
    assert measures.vm(hull, 3, spec3).value == pytest.approx(v, rel=1e-9)


@pytest.mark.parametrize("m", [1, 2])
def test_steiner_does_not_increase_lower_volumes(m, spec3):
    rng = np.random.default_rng(13)
    p = bodies.convex_hull(rng.standard_normal((8, 3)))
    st = coordops.steiner_symmetrize(p, 2, slabs=256)
    before = measures.vm(p, m, spec3).value
    after = measures.vm(st, m, spec3).value
    assert after <= before + 1e-6 * max(1.0, before)


def test_steiner_validation():
    p = bodies.cube(3)
    with pytest.raises(InvalidArgument):
        coordops.steiner_symmetrize(p, 5)
    with pytest.raises(InvalidArgument):
        coordops.steiner_symmetrize(p, -1)
    with pytest.raises(InvalidArgument):
        coordops.steiner_symmetrize(p, 0, slabs=3)
    with pytest.raises(UnsupportedOperation):
        coordops.steiner_symmetrize(bodies.cube(2), 0)


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), axis=st.integers(0, 2))
def test_projection_is_idempotent(seed, axis):
    rng = np.random.default_rng(seed)
    p = bodies.convex_hull(rng.standard_normal((6, 3)))
    once = coordops.project(p, axis)
    twice = coordops.project(once, axis)
    assert np.allclose(once.vertices, twice.vertices)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_projection_commutes_with_axis_scaling(seed):
    """Scaling an untouched coordinate passes through the projection."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((6, 3))
    scaled = pts.copy()
    scaled[:, 0] *= 2.0
    a = coordops.project_drop(bodies.convex_hull(scaled), 2)
    b = coordops.project_drop(bodies.convex_hull(pts), 2)
    for u in rng.standard_normal((8, 2)):
        stretched = np.array([u[0] * 2.0, u[1]])
        # h_{A}(u) with A = diag(2,1) B satisfies h_A(u) = h_B(diag(2,1) u)
        assert bodies.support(a, u) == pytest.approx(
            bodies.support(b, stretched), rel=1e-9, abs=1e-9
        )
