"""Body constructors, canonical hulls, and support functions."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexiq import (Ball, DiskHull, NamedBody, VPolytope, Zonotope,
                      as_vpolytope, ball, convex_hull, cross_polytope, cube,
                      k1, k2, minkowski_sum, support, support_many)
from convexiq.bodies import (DEDUP_TOL, _dedup_points, affine_dim, resolve,
                             same_vertices, scale_body, translate_body)
from convexiq.coordops import g_symmetral, steiner_symmetrize
from convexiq.errors import InvalidArgument, UnsupportedOperation

from conftest import random_polytope


def sphere_points(rng, count, n):
    u = rng.standard_normal((count, n))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# constructors


def test_cube_and_cross_vertex_counts():
    assert cube(3).vertex_count == 8
    assert cube(5).vertex_count == 32
    assert cross_polytope(3).vertex_count == 6
    assert cross_polytope(6).vertex_count == 12


def test_support_closed_forms(rng):
    c, q = cross_polytope(3), cube(3)
    dirs = sphere_points(rng, 64, 3)
    np.testing.assert_allclose(support_many(c, dirs),
                               np.max(np.abs(dirs), axis=1), atol=1e-12)
    np.testing.assert_allclose(support_many(q, dirs),
                               np.sum(np.abs(dirs), axis=1), atol=1e-12)


def test_ball_support(rng):
    b = ball(4, radius=2.5)
    dirs = sphere_points(rng, 32, 4)
    np.testing.assert_allclose(support_many(b, dirs), 2.5, atol=1e-12)
    shifted = Ball(np.array([1.0, 0, 0, 0]), 1.0, frozenset())
    u = np.array([1.0, 0, 0, 0])
    assert support(shifted, u) == pytest.approx(2.0)


def test_degenerate_ball_support():
    """A ball flattened along axis 0 supports only within the remaining
    coordinates."""
    b = Ball(np.zeros(3), 1.0, frozenset({0}))
    assert support(b, np.array([1.0, 0, 0])) == pytest.approx(0.0)
    assert support(b, np.array([0, 1.0, 0])) == pytest.approx(1.0)


def test_k2_is_scaled_cross(rng):
    factor = math.sqrt(math.pi / 2.0)
    dirs = sphere_points(rng, 64, 3)
    np.testing.assert_allclose(support_many(k2(), dirs),
                               factor * np.max(np.abs(dirs), axis=1),
                               atol=1e-12)


def test_k1_contains_unit_disks(rng):
    """K1 is the hull of the three coordinate unit disks, so its support
    dominates each disk's support and every vertex has unit norm."""
    body = k1()
    dirs = sphere_points(rng, 128, 3)
    h = support_many(body, dirs)
    for i in range(3):
        mask = np.ones(3, dtype=bool)
        mask[i] = False
        disk_support = np.linalg.norm(dirs[:, mask], axis=1)
        assert np.all(h >= disk_support - 1e-12)
    verts = body.as_polytope().vertices
    np.testing.assert_allclose(np.linalg.norm(verts, axis=1), 1.0, atol=1e-12)


def test_named_body_round_trip():
    nb = NamedBody("cross", 4)
    assert isinstance(resolve(nb), VPolytope)
    assert same_vertices(resolve(nb), cross_polytope(4))
    with pytest.raises(InvalidArgument):
        NamedBody("simplex", 3)
    with pytest.raises(InvalidArgument):
        NamedBody("K1", 4)


def test_dimension_caps():
    with pytest.raises(InvalidArgument):
        cube(1)
    with pytest.raises(InvalidArgument):
        cross_polytope(9)


# ---------------------------------------------------------------------------
# canonical hulls


def test_convex_hull_drops_interior_points(rng):
    base = cube(3).vertices
    cloud = np.vstack([base, rng.uniform(-0.9, 0.9, size=(40, 3))])
    hull = convex_hull(cloud)
    assert same_vertices(hull, cube(3))


def test_convex_hull_dedups_noise():
    base = cross_polytope(3).vertices
    noisy = np.vstack([base, base + 1e-13])
    assert convex_hull(noisy).vertex_count == 6


def _greedy_dedup(pts, tol):
    """Reference: visit the rows in lexicographic order and keep a row
    unless it lies within tol (max-norm) of a row already kept."""
    kept = []
    for row in pts[np.lexsort(pts.T[::-1])]:
        if not any(np.max(np.abs(row - k)) <= tol for k in kept):
            kept.append(row)
    return np.array(kept)


def test_dedup_matches_greedy_reference(rng):
    for _ in range(300):
        n = int(rng.integers(2, 6))
        centers = rng.integers(-2, 3, size=(int(rng.integers(1, 8)), n)).astype(float)
        pts = centers[rng.integers(0, centers.shape[0], size=40)]
        # offsets inside, at and beyond the tolerance
        pts += (rng.choice([0.0, 0.5, 1.0, 2.0], size=pts.shape) * DEDUP_TOL
                * rng.choice([-1.0, 1.0], size=pts.shape))
        const = int(rng.integers(0, n + 1))   # constant leading columns
        pts[:, :const] = rng.integers(-1, 2, size=const)
        assert np.array_equal(_dedup_points(pts), _greedy_dedup(pts, DEDUP_TOL))


def test_convex_hull_degenerate_rank():
    seg = convex_hull(np.array([[0.0, 0, 0], [2.0, 0, 0], [1.0, 0, 0]]))
    assert seg.vertex_count == 2
    point = convex_hull(np.array([[1.0, 2.0, 3.0]] * 4))
    assert point.vertex_count == 1
    # planar square embedded in R^3
    sq = convex_hull(np.array([[0, 0, 1.0], [1, 0, 1.0], [0, 1, 1.0],
                               [1, 1, 1.0], [0.5, 0.5, 1.0]]))
    assert sq.vertex_count == 4


def test_vertices_are_lexsorted(rng):
    p = random_polytope(rng, 3)
    v = p.vertices
    order = np.lexsort(v.T[::-1])
    assert np.array_equal(order, np.arange(len(v)))


def test_canonicalization_is_idempotent(rng):
    p = random_polytope(rng, 4)
    again = convex_hull(p.vertices)
    assert np.array_equal(p.vertices, again.vertices)


def test_rejects_non_finite():
    with pytest.raises(InvalidArgument):
        convex_hull(np.array([[0.0, 0], [1.0, np.nan]]))


# ---------------------------------------------------------------------------
# support-function algebra


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.floats(0.1, 5.0))
def test_scaling_homogeneity(seed, factor):
    rng = np.random.default_rng(seed)
    p = random_polytope(rng, 3, 8)
    dirs = sphere_points(rng, 16, 3)
    np.testing.assert_allclose(support_many(scale_body(p, factor), dirs),
                               factor * support_many(p, dirs),
                               rtol=1e-10, atol=1e-10)


def test_translate_shifts_support(rng):
    p = random_polytope(rng, 3)
    t = rng.standard_normal(3)
    dirs = sphere_points(rng, 32, 3)
    np.testing.assert_allclose(support_many(translate_body(p, t), dirs),
                               support_many(p, dirs) + dirs @ t,
                               atol=1e-10)


def test_minkowski_sum_adds_supports(rng):
    p = random_polytope(rng, 3, 7)
    q = random_polytope(rng, 3, 9)
    s = minkowski_sum(p, q)
    dirs = sphere_points(rng, 48, 3)
    np.testing.assert_allclose(support_many(s, dirs),
                               support_many(p, dirs) + support_many(q, dirs),
                               atol=1e-10)


def test_cube_is_sum_of_segments():
    segs = [convex_hull(np.array([[-1.0 if j == i else 0.0 for j in range(3)],
                                  [1.0 if j == i else 0.0 for j in range(3)]]))
            for i in range(3)]
    acc = segs[0]
    for s in segs[1:]:
        acc = minkowski_sum(acc, s)
    assert same_vertices(acc, cube(3))


# ---------------------------------------------------------------------------
# zonotopes


def test_zonotope_support_formula(rng):
    g = rng.standard_normal((5, 3))
    c = rng.standard_normal(3)
    z = Zonotope(c, g)
    dirs = sphere_points(rng, 40, 3)
    expected = dirs @ c + np.sum(np.abs(dirs @ g.T), axis=1)
    np.testing.assert_allclose(support_many(z, dirs), expected, atol=1e-10)


def test_zonotope_generator_normalization():
    z1 = Zonotope(np.zeros(2), np.array([[1.0, 2.0], [-3.0, 1.0]]))
    z2 = Zonotope(np.zeros(2), np.array([[3.0, -1.0], [1.0, 2.0]]))
    assert np.array_equal(z1.generators, z2.generators)
    # zero generators are dropped
    z3 = Zonotope(np.zeros(2), np.array([[1.0, 2.0], [0.0, 0.0]]))
    assert z3.generators.shape[0] == 1


def test_zonotope_expansion_matches_support(rng):
    z = Zonotope(np.zeros(3), rng.standard_normal((4, 3)))
    p = as_vpolytope(z)
    dirs = sphere_points(rng, 32, 3)
    np.testing.assert_allclose(support_many(p, dirs), support_many(z, dirs),
                               atol=1e-10)


def test_unit_generators_make_cube():
    z = Zonotope(np.zeros(3), np.eye(3))
    assert same_vertices(as_vpolytope(z), cube(3))


@pytest.mark.parametrize("call", [
    lambda: as_vpolytope(ball(3)),
    lambda: as_vpolytope(k1()),
    lambda: scale_body(k1(), 2.0),
    lambda: translate_body(k1(), [0.1, 0.0, 0.0]),
    lambda: minkowski_sum(k1(), cube(3)),
    lambda: g_symmetral(k1()),
    lambda: steiner_symmetrize(k1(), 0),
])
def test_curved_bodies_have_no_polytope_stand_in(call):
    """Balls and K1 are never swapped for an inscribed polytope whose
    measures would then pass for exact."""
    with pytest.raises(UnsupportedOperation):
        call()


# ---------------------------------------------------------------------------
# misc


def test_affine_dim(rng):
    assert affine_dim(cube(3)) == 3
    flat = convex_hull(np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0]]))
    assert affine_dim(flat) == 2


def test_disk_hull_fineness_cap():
    with pytest.raises(InvalidArgument):
        DiskHull(fineness=7)
    assert k1(64).fineness == 64
