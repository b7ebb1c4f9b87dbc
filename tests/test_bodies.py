"""Body constructors, canonical hulls, and support functions."""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from convexiq import (Ball, NamedBody, VPolytope, Zonotope,
                      as_vpolytope, ball, convex_hull, cross_polytope, cube,
                      k1, k2, support, support_many, vm)
from convexiq import bodies
from convexiq.bodies import (DEDUP_TOL, _dedup_points, _lexsorted,
                             _sign_matrix, _span, affine_dim, resolve, skeleton,
                             scale_body, translate_body)
from convexiq.coordops import g_symmetral
from convexiq.errors import InvalidArgument, UnsupportedOperation
from convexiq.symmetry import (SignedPermutation, apply_symmetry,
                               hyperoctahedral_group, random_signed_permutation)

from conftest import minkowski_sum, random_polytope


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
    dominates each disk's support."""
    body = k1()
    dirs = sphere_points(rng, 128, 3)
    h = support_many(body, dirs)
    for i in range(3):
        mask = np.ones(3, dtype=bool)
        mask[i] = False
        disk_support = np.linalg.norm(dirs[:, mask], axis=1)
        assert np.all(h >= disk_support - 1e-12)


def test_named_body_round_trip():
    nb = NamedBody("cross", 4)
    assert isinstance(resolve(nb), VPolytope)
    assert np.array_equal(resolve(nb).vertices, cross_polytope(4).vertices)
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
    assert np.array_equal(hull.vertices, cube(3).vertices)


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


def _anchored(pts, top):
    """pts with a row of ``top`` appended, ``top`` above every |coordinate|
    of pts, so that the merge tolerance is DEDUP_TOL * top exactly."""
    return np.vstack([pts, np.full((1, pts.shape[1]), top)])


def test_dedup_matches_greedy_reference(rng):
    """Rows merge within DEDUP_TOL times the largest |coordinate|: offsets
    inside, at and beyond that tolerance, at scales 1e-9 to 1e9."""
    for scale in (1e-9, 1.0, 1e9):
        top = 4.0 * scale
        tol = DEDUP_TOL * top
        for _ in range(100):
            n = int(rng.integers(2, 6))
            centers = rng.integers(-2, 3, size=(int(rng.integers(1, 8)), n)) * scale
            pts = centers[rng.integers(0, centers.shape[0], size=40)]
            # offsets inside, at and beyond the tolerance
            pts += (rng.choice([0.0, 0.5, 1.0, 2.0], size=pts.shape) * tol
                    * rng.choice([-1.0, 1.0], size=pts.shape))
            const = int(rng.integers(0, n + 1))   # constant leading columns
            pts[:, :const] = rng.integers(-1, 2, size=const) * scale
            pts = _anchored(pts, top)
            assert np.array_equal(_dedup_points(pts), _greedy_dedup(pts, tol))
    # A tie-heavy symmetric cloud: signed-permutation orbits of a few
    # points, repeated, with small offsets on some copies.
    tol = DEDUP_TOL * 4.0
    base = np.array([[0.5, 0.25, 0.0], [1.0, 1.0, 0.5], [0.25, 0.0, 0.0]])
    orbit = np.vstack([g.apply_points(base) for g in hyperoctahedral_group(3)])
    sym = _anchored(np.vstack([orbit, orbit, orbit + rng.choice([-1.0, 0.0, 1.0], size=orbit.shape)
                               * rng.choice([0.5, 1.0, 2.0], size=orbit.shape) * tol]), 4.0)
    assert np.array_equal(_dedup_points(sym), _greedy_dedup(sym, tol))
    # A near-duplicate cloud: chains of copies 0.6 tol apart, so a row's
    # neighbours on both sides are close to it but not to each other.
    steps = np.arange(6)[:, None, None] * 0.6 * tol
    centers = rng.uniform(-2.0, 2.0, (40, 4))
    near = _anchored((centers[None] + steps * rng.choice([-1.0, 1.0], size=(1, 40, 4)))
                     .reshape(-1, 4), 4.0)
    assert np.array_equal(_dedup_points(near), _greedy_dedup(near, tol))


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


def test_zonotope_needs_a_coordinate():
    with pytest.raises(InvalidArgument):
        Zonotope(np.zeros(0), np.zeros((0, 0)))


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


@pytest.mark.parametrize("factor", [1e-12, 1e-11, 1e-10, 1e-6, 1.0, 1e4, 1e8])
def test_scaling_keeps_every_vertex(factor):
    cross = cross_polytope(3)
    scaled = scale_body(cross, factor)
    assert scaled.vertex_count == 6
    dirs = sphere_points(np.random.default_rng(3), 16, 3)
    np.testing.assert_allclose(support_many(scaled, dirs),
                               factor * support_many(cross, dirs),
                               rtol=1e-12, atol=0.0)


def test_scaling_by_zero_gives_the_origin():
    point = scale_body(cube(3), 0.0)
    assert np.array_equal(point.vertices, np.zeros((1, 3)))


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
    assert np.array_equal(acc.vertices, cube(3).vertices)


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
    # zero generators are dropped; any other one is kept, however small
    z3 = Zonotope(np.zeros(2), np.array([[1.0, 2.0], [0.0, 0.0]]))
    assert z3.generators.shape[0] == 1
    assert Zonotope(np.zeros(3), 1e-11 * np.eye(3)).generator_count == 3


def test_zonotope_expansion_matches_support(rng):
    z = Zonotope(np.zeros(3), rng.standard_normal((4, 3)))
    p = as_vpolytope(z)
    dirs = sphere_points(rng, 32, 3)
    np.testing.assert_allclose(support_many(p, dirs), support_many(z, dirs),
                               atol=1e-10)


def test_unit_generators_make_cube():
    z = Zonotope(np.zeros(3), np.eye(3))
    assert np.array_equal(as_vpolytope(z).vertices, cube(3).vertices)


def _generators_row_by_row(g):
    """Reference canonicalization, one generator at a time: drop it when
    every entry is 0.0 or -0.0, else flip it so that its first nonzero
    entry is positive; then sort."""
    keep = []
    for row in np.asarray(g, dtype=float):
        nonzero = np.flatnonzero(row)
        if not nonzero.size:
            continue
        keep.append(row if row[nonzero[0]] > 0 else -row)
    return _lexsorted(np.array(keep)) if keep else np.zeros((0, g.shape[1]))


def _generator_cases(rng):
    for n, k in [(2, 3), (3, 5), (4, 6), (6, 8), (8, 12)]:
        g = rng.standard_normal((k, n))
        yield g
        zeros = g.copy()
        zeros[::3] = 0.0
        zeros[1] = 0.5 * DEDUP_TOL * rng.standard_normal(n)
        yield zeros
        yield -np.abs(g)            # every leading entry negative
    t = DEDUP_TOL
    yield np.array([[t, -1.0], [-t, 2.0], [t, t], [-t, -t], [0.0, -t]])
    yield np.array([[np.nextafter(t, 1.0), -1.0], [-np.nextafter(t, 1.0), 1.0]])
    tiny = np.nextafter(0.0, 1.0)           # the least subnormal is kept
    yield np.array([[-tiny, 1.0], [0.0, -tiny], [-0.0, tiny], [tiny, tiny]])
    yield np.array([[-0.0, -3.0, 0.0], [0.0, -0.0, -1.0], [-0.0, 0.0, 0.0],
                    [-t, -0.0, 5.0], [0.0, 2.0, -0.0]])
    yield np.zeros((3, 4))
    yield np.zeros((0, 3))


def test_zonotope_canonical_generators_match_row_by_row_bytes(rng):
    for g in _generator_cases(rng):
        got = Zonotope(np.zeros(g.shape[1]), g).generators
        ref = _generators_row_by_row(g)
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


def _dilated_zonotopes(rng):
    """Canonical zonotopes for dilates: random ones, equal rows, rows one
    ulp apart in their deciding column (a dilate rounds them to a tie and
    the next column reorders them), subnormal entries, entries a small
    factor turns into 0 (a leading one among them, so the row flips) and
    -0.0 entries."""
    for n, k in [(2, 3), (3, 5), (6, 8)]:
        yield Zonotope(rng.standard_normal(n), rng.standard_normal((k, n)))
    yield Zonotope(np.zeros(2), [[1.0, 2.0], [1.0, 2.0], [3.0, -1.0]])
    ulp = np.nextafter(1.0, 2.0)
    yield Zonotope(np.zeros(3), [[1.0, 3.0, 0.0], [ulp, -2.0, 1.0], [ulp, 5.0, -0.0]])
    tiny = np.nextafter(0.0, 1.0)
    yield Zonotope(np.ones(3), [[tiny, 1.0, -0.0], [2 * tiny, -1.0, 0.0], [1.0, -0.0, tiny]])
    yield Zonotope(np.zeros(3), [[1e-300, -1.0, 0.0], [0.5, 1e-300, -0.0], [1.0, -0.0, 2.0]])
    yield Zonotope(-np.ones(3), [[-0.0, 1.0, -0.0], [0.0, 0.0, 2.0], [3.0, -0.0, -1.0]])


def test_a_zonotope_dilate_is_the_zonotope_built_at_scale(rng):
    """scale_body(Z, lam) has the center and generators of Zonotope(lam c,
    lam G) bit for bit, signbits included, for lam from 1e-310 to 1e300,
    and remembers Z exactly when that keeps every generator.  The cases
    include dilates whose rows tie and reorder, and dilates that lose
    entries to underflow."""
    factors = np.concatenate([np.geomspace(1e-310, 1e300, 150),
                              10.0 ** rng.uniform(-310, 300, 150), [0.7, 1.0, 1e-8, 1e8]])
    reordered = underflowed = 0
    for z in _dilated_zonotopes(rng):
        for lam in factors.tolist():
            got = scale_body(z, lam)
            want = Zonotope(lam * z.center, lam * z.generators)
            assert got.center.tobytes() == want.center.tobytes(), lam
            assert got.generators.shape == want.generators.shape, lam
            assert got.generators.tobytes() == want.generators.tobytes(), lam
            assert not (got.center.flags.writeable or got.generators.flags.writeable)
            source = bodies.dilate_source(got)
            kept = want.generator_count == z.generator_count
            assert (source[0] is z and source[1] == lam) if kept else source is None
            scaled = lam * z.generators
            underflowed += np.count_nonzero(scaled) < np.count_nonzero(z.generators)
            reordered += kept and scaled.tobytes() != want.generators.tobytes() and \
                np.count_nonzero(scaled) == np.count_nonzero(z.generators)
    assert reordered > 0 and underflowed > 0
    with pytest.raises(InvalidArgument):
        scale_body(Zonotope(np.zeros(2), [[1e10, 1.0]]), 1e300)


@pytest.mark.parametrize("body", [scale_body(cube(3), 1e300),
                                  Ball(np.full(3, 1e10), 1.0)])
def test_a_dilate_past_the_double_range_raises(body):
    """A factor that takes a vertex or a center past the double range
    raises InvalidArgument before numpy multiplies, for a numpy scalar
    factor too (a RuntimeWarning is an error under the test
    configuration)."""
    for factor in (1e300, np.float64(1e300)):
        with pytest.raises(InvalidArgument, match="overflows"):
            scale_body(body, factor)


def test_zonotope_canonicalization_leaves_its_input_alone(rng):
    g = -np.abs(rng.standard_normal((4, 3)))
    before = g.copy()
    Zonotope(np.zeros(3), g)
    assert g.flags.writeable and g.tobytes() == before.tobytes()


def _skeleton_by_unique_rows(p):
    """Reference polytope skeleton: the same boundary triangulation, its
    edges deduplicated as rows by np.unique(axis=0)."""
    d = affine_dim(p)
    if d == p.n:
        pts, tri = p.qhull.points, p.qhull.simplices
    else:
        centered = p.vertices - p.vertices.mean(axis=0)
        coords = centered @ np.linalg.svd(centered, full_matrices=False)[2][:d].T
        pts = p.vertices
        tri = (np.array([[np.argmin(coords[:, 0]), np.argmax(coords[:, 0])]])
               if d == 1 else ConvexHull(coords).simplices)
    pairs = tri[:, list(itertools.combinations(range(tri.shape[1]), 2))]
    used, edges = np.unique(np.sort(pairs.reshape(-1, 2), axis=1),
                            return_inverse=True)
    return pts[used], np.unique(edges.reshape(-1, 2), axis=0)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_polytope_skeleton_matches_unique_rows_bytes(n):
    rng = np.random.default_rng(300 + n)
    for d in range(1, n + 1):       # d = n: full; below: a random flat
        for _ in range(2):
            pts = rng.standard_normal((int(rng.integers(d + 2, 4 * n)), d))
            if d < n:
                pts = pts @ rng.standard_normal((d, n)) + rng.standard_normal(n)
            p = convex_hull(pts)
            got, ref = skeleton(p), _skeleton_by_unique_rows(p)
            for a, b in zip(got, ref):
                assert a.shape == b.shape
                assert a.tobytes() == b.tobytes()
            assert got[1].dtype == np.intp


def test_sign_matrix_matches_product_and_meshgrid_bytes():
    for k in range(0, 9):
        ref = np.array(list(itertools.product((-1.0, 1.0), repeat=k))).reshape(1 << k, k)
        assert _sign_matrix(k).tobytes() == ref.tobytes()
        assert _sign_matrix(k).shape == ref.shape
        assert not _sign_matrix(k).flags.writeable
    for n in range(1, 7):
        grid = np.array(np.meshgrid(*([[-1.0, 1.0]] * n), indexing="ij")).reshape(n, -1).T
        assert _sign_matrix(n).tobytes() == np.ascontiguousarray(grid).tobytes()


def test_sign_matrix_is_refused_past_the_expansion_cap():
    with pytest.raises(UnsupportedOperation):
        _sign_matrix(17)
    with pytest.raises(UnsupportedOperation):
        as_vpolytope(Zonotope(np.zeros(2), np.random.default_rng(0).standard_normal((17, 2))))


@pytest.mark.parametrize("n", [5, 6])
def test_cube_corners_and_midpoints_hull_to_the_corners(n):
    """Points on the cube's faces are not kept as vertices at d >= 5."""
    corners = cube(n).vertices
    i, j = np.triu_indices(corners.shape[0], 1)
    cloud = np.vstack([corners, 0.5 * (corners[i] + corners[j])])
    got = convex_hull(cloud).vertices
    assert got.shape == corners.shape
    assert got.tobytes() == corners.tobytes()


@pytest.mark.parametrize("call", [
    lambda: as_vpolytope(ball(3)),
    lambda: as_vpolytope(k1()),
    lambda: scale_body(k1(), 2.0),
    lambda: translate_body(k1(), [0.1, 0.0, 0.0]),
    lambda: skeleton(k1()),
    lambda: g_symmetral(k1()),
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


@pytest.mark.parametrize("lam", [10.0 ** e for e in range(-12, 9)])
def test_affine_dim_is_relative_to_the_body_size(lam):
    """A polytope built from scaled vertices, with no source to read, has
    its dimension at every scale (the cut was once floored at 1e-9, so
    1e-10 times the cross-polytope was a point with every measure 0),
    and V_m(lam P) is lam^m V_m(P) within 1e-12; a flat body stays flat."""
    rng = np.random.default_rng(3)
    for p in (cross_polytope(3), convex_hull(rng.standard_normal((12, 3)))):
        q = VPolytope(lam * p.vertices)
        assert affine_dim(q) == 3
        for m in (1, 2, 3):
            want = lam ** m * vm(p, m).value
            assert abs(vm(q, m).value - want) <= 1e-12 * want, m
    square = np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [1.0, 1.0, 0]])
    assert affine_dim(VPolytope(lam * square)) == 2


def _thin_clouds():
    """Clouds a relative 1.5e-9 thick, so that their smallest singular
    value lies about the rank cut (RANK_TOL = 1e-9 of the largest): seeds
    0..39 of 8 points in R^3 with last coordinate 1.5e-9 times a standard
    normal, and 20 such clouds in R^4 and in R^5, each rotated."""
    for seed in range(40):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((8, 3))
        pts[:, 2] = 1.5e-9 * rng.standard_normal(8)
        yield pts
    for n in (4, 5):
        rng = np.random.default_rng(400 + n)
        for _ in range(20):
            pts = rng.standard_normal((2 * n + 2, n))
            pts[:, -1] *= 1.5e-9
            yield pts @ np.linalg.qr(rng.standard_normal((n, n)))[0]


def test_affine_dim_moves_with_the_body():
    """A polytope's span is taken about its vertices' mean, not about its
    lexicographically first vertex, so a thin cloud's hull keeps its
    affine_dim under its mirror image in x_0, three random signed
    permutations and a translation, and V_n of the body and of each
    image agree within their stated errors."""
    rng = np.random.default_rng(41)
    for k, pts in enumerate(_thin_clouds()):
        p = convex_hull(pts)
        n = p.n
        mirror = SignedPermutation(tuple(range(n)), (-1,) + (1,) * (n - 1))
        images = [apply_symmetry(p, g) for g in
                  [mirror] + [random_signed_permutation(n, rng) for _ in range(3)]]
        images.append(translate_body(p, rng.standard_normal(n)))
        d, v = affine_dim(p), vm(p, n)
        for q in images:
            w = vm(q, n)
            assert affine_dim(q) == d, k
            assert abs(w.value - v.value) <= w.error + v.error, k


def _clouds_about_the_cut(count: int):
    """count rotated clouds of n+2 to 3n-1 points in R^n, n = 3..5, whose
    last direction is 10^U(-10, -8) thick, so that their smallest
    singular value straddles the rank cut."""
    rng = np.random.default_rng(20261019)
    for _ in range(count):
        n = int(rng.integers(3, 6))
        pts = rng.standard_normal((int(rng.integers(n + 2, 3 * n)), n))
        pts[:, -1] *= 10.0 ** rng.uniform(-10.0, -8.0)
        yield pts @ np.linalg.qr(rng.standard_normal((n, n)))[0]


def test_affine_dim_is_the_span_rank():
    """A polytope's affine_dim, taken from the singular values alone, is
    the rank _span gives the same points, on the thin clouds and on 2,000
    clouds about the rank cut, which fall on both sides of it."""
    sides = set()
    for k, pts in enumerate(itertools.chain(_thin_clouds(), _clouds_about_the_cut(2000))):
        rank = _span(pts)[0]
        assert affine_dim(VPolytope(pts)) == rank, k
        sides.add(pts.shape[1] - rank)
    assert sides == {0, 1}
