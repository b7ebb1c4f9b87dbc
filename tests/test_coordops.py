"""Tests for coordinate projections, sections, and symmetrizations."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import ConvexHull, cKDTree

from convexiq import (bodies, coordops, explorer, inequalities as iq, io, measures,
                      quadrature, symmetry)
from convexiq.errors import InvalidArgument, UnsupportedMeasure, UnsupportedOperation

from conftest import FIVE_VERTICES, minkowski_sum, parallelepiped, random_polytope

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
    """For bodies invariant under sign flips the central slice and the
    shadow agree.  The slice is the skeleton cut hulled in the kept
    coordinates (``_cut_hull``), so this holds independently of
    ``section_drop``'s mirror rule."""
    rng = np.random.default_rng(23)
    gens = np.diag(rng.uniform(0.3, 1.5, size=3))
    for body in (
        bodies.cross_polytope(3),
        bodies.cube(3),
        bodies.Zonotope(np.zeros(3), gens),
    ):
        for i in range(3):
            sec = _cut_hull(body, i)
            flat = coordops.project_drop(body, i)
            for u in rng.standard_normal((24, 2)):
                assert bodies.support(sec, u) == pytest.approx(
                    bodies.support(flat, u), rel=1e-9, abs=1e-9
                )


def _cut_hull(body, i):
    """The section by the skeleton cut, hulled in the kept coordinates."""
    cut = coordops._cut(body, i)
    return coordops.EMPTY if cut is None else bodies.convex_hull(cut)


def _same_measures(got, ref, skip=()):
    """V_m of two bodies within 1e-14 relative for every m with a route
    but those in ``skip`` (quadrature at a coarse resolution)."""
    spec = quadrature.QuadratureSpec(resolution=16)
    for m in sorted(set(range(1, ref.n + 1)) - set(skip)):
        try:
            want = measures.vm(ref, m, spec).value
        except UnsupportedMeasure:
            with pytest.raises(UnsupportedMeasure):
                measures.vm(got, m, spec)
            continue
        assert measures.vm(got, m, spec).value == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("n, count", [(2, 24), (3, 24), (4, 24), (5, 24), (6, 3)])
def test_mirror_symmetric_sections_are_the_projections(n, count):
    """An unconditional hull, its dilates and its io round trip (five
    bodies per draw) are mirror symmetric bit for bit, so each dropped
    section is the dropped projection object, with the vertex bytes and
    measures of the skeleton cut's hull.  In R^6 the cut, hulled in R^5,
    keeps cut points on lower faces as vertices: there the projection's
    vertices are among the cut hull's, every other vertex of the cut hull
    lies in the projection, and only V_4 and V_5 are compared (the angle
    route reads V_2 and V_3 wrongly off such a hull, ``test_measures``;
    V_1 is quadrature of the same support function)."""
    rng = np.random.default_rng(100 + n)
    for _ in range(count):
        base = bodies.unconditional_hull(rng.standard_normal((int(rng.integers(1, 4)), n)))
        copies = [base, io.loads_body(io.dumps_body(base))]
        copies += [bodies.VPolytope(lam * base.vertices) for lam in (1e-6, 0.37, 1e6)]
        for body in copies:
            for i in range(n):
                sec = coordops.section_drop(body, i)
                assert sec is coordops.project_drop(body, i)
                ref = _cut_hull(body, i)
                if n < 6:
                    assert sec.vertices.tobytes() == ref.vertices.tobytes()
                else:
                    rows = {v.tobytes() for v in ref.vertices}
                    assert all(v.tobytes() in rows for v in sec.vertices)
                    eq = sec.qhull.equations
                    scale = float(np.max(np.abs(sec.vertices)))
                    assert np.all(ref.vertices @ eq[:, :-1].T + eq[:, -1] <= 1e-12 * scale)
                _same_measures(sec, ref, skip=(1, 2, 3) if n == 6 else ())


def test_the_mirror_rule_needs_exact_symmetry():
    """Bodies that are mirror symmetric only up to roundoff take the
    skeleton cut and match it; a body in e_i^perp takes the rule."""
    rng = np.random.default_rng(31)
    v = bodies.unconditional_hull(rng.standard_normal((2, 4))).vertices.copy()
    v[3, 1] = np.nextafter(v[3, 1], np.inf)   # one vertex coordinate, one ulp
    cases = [(bodies.convex_hull(v), i) for i in range(4)]
    for i in range(3):
        t = np.zeros(3)
        t[i] = 1e-13
        cases.append((bodies.translate_body(bodies.cube(3), t), i))
    for body, i in cases:
        sec = coordops.section_drop(body, i)
        assert sec is not coordops.project_drop(body, i)
        assert sec.vertices.tobytes() == _cut_hull(body, i).vertices.tobytes()
    for i in range(3):
        for level, rule in ((0.5, False), (0.0, True)):
            corners = bodies.cube(3).vertices.copy()
            corners[:, i] = level
            flat = bodies.convex_hull(corners)
            sec = coordops.section_drop(flat, i)
            assert (sec is coordops.project_drop(flat, i)) == rule
            if rule:
                assert sec.vertices.tobytes() == _cut_hull(flat, i).vertices.tobytes()
            else:
                assert sec is coordops.EMPTY


def _all_pairs_section(p, i):
    """Reference cut: the hull of the vertices on the plane and of the
    crossing of every straddling vertex pair, edge or not, each vertex
    classified by the exact sign of x_i."""
    coords = p.vertices[:, i]
    pos, neg = coords > 0, coords < 0
    pts = [p.vertices[coords == 0]]
    if np.any(pos) and np.any(neg):
        above, below = p.vertices[pos], p.vertices[neg]
        ca, cb = coords[pos], coords[neg]
        t = (ca[:, None] / (ca[:, None] - cb[None, :]))[:, :, None]
        cross = above[:, None, :] + t * (below[None, :, :] - above[:, None, :])
        pts.append(cross.reshape(-1, p.n))
    stacked = np.vstack(pts)
    if stacked.shape[0] == 0:
        return coordops.EMPTY
    stacked[:, i] = 0.0
    return bodies.convex_hull(stacked)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("cloud", ["random", "rounded", "flat"])
def test_polytope_sections_match_the_all_pairs_cut(n, cloud):
    rng = np.random.default_rng(100 + n)
    for _ in range(12):
        pts = rng.standard_normal((int(rng.integers(n + 2, 4 * n)), n))
        if cloud == "rounded":
            pts = np.round(pts, 1)
        if cloud == "flat":     # in a random affine d-flat, 0 <= d < n
            d = int(rng.integers(0, n))
            pts = pts[:, :d] @ rng.standard_normal((d, n)) + 0.3 * rng.standard_normal(n)
        p = bodies.convex_hull(pts)
        for i in range(n):
            got, ref = coordops.section(p, i), _all_pairs_section(p, i)
            if ref is coordops.EMPTY:
                assert got is coordops.EMPTY
                continue
            assert got.vertices.shape == ref.vertices.shape
            assert got.vertices.tobytes() == ref.vertices.tobytes()


def _zonotope_section_support(z, i, u):
    """Support of Z cut by x_i = 0 in a direction u with u_i = 0:
    min over t of h_Z(u + t e_i) = <c, u> + min_t (t c_i + sum_j
    |<g_j, u> + t g_ji|), a convex piecewise-linear function of t whose
    minimum sits at the weighted median of the breakpoints -<g_j, u>/g_ji
    with weights |g_ji| (shifted by c_i)."""
    a, b = z.generators @ u, z.generators[:, i]
    live = b != 0
    t = -a[live] / b[live]
    order = np.argsort(t)
    t, w = t[order], np.abs(b[live])[order]
    # the slope at t is c_i - sum(w) + 2 * (weight of breakpoints below t)
    best = t[np.argmax(z.center[i] - w.sum() + 2.0 * np.cumsum(w) >= 0.0)]
    return float(z.center @ u + best * z.center[i] + np.sum(np.abs(a + best * b)))


def _section_cases(n, rng):
    g = rng.standard_normal((n + 2, n))
    yield bodies.Zonotope(0.2 * rng.standard_normal(n), g)
    # parallel generators
    yield bodies.Zonotope(np.zeros(n), np.vstack([g[:n], 2.0 * g[:1], -0.5 * g[1:2]]))
    flat = g.copy()
    flat[0, 0] = 0.0     # a generator inside the plane x_0 = 0
    yield bodies.Zonotope(np.zeros(n), flat)
    # integer first column: many sign points on x_0 = 0
    ints = rng.integers(-2, 3, (n + 2, n)).astype(float)
    ints[:, 0] = [1.0, 1.0, 2.0] + [1.0] * (n - 1)
    yield bodies.Zonotope(np.zeros(n), ints)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_zonotope_sections_match_the_weighted_median_support(n):
    rng = np.random.default_rng(200 + n)
    for z in _section_cases(n, rng):
        for i in (0, n - 1):
            sec = coordops.section(z, i)
            dirs = rng.standard_normal((64, n))
            dirs[:, i] = 0.0
            ref = np.array([_zonotope_section_support(z, i, u) for u in dirs])
            got = bodies.support_many(sec, dirs)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_k1_sections_are_unit_disks():
    """K1 lies in the unit ball and contains each coordinate unit disk, so
    its coordinate sections are those disks, with closed-form measures."""
    k1 = bodies.k1()
    for i in range(3):
        sec = coordops.section(k1, i)
        assert isinstance(sec, bodies.Ball)
        assert (sec.radius, sec.zeroed) == (1.0, frozenset({i}))
        # K1 is mirror symmetric, so its dropped section is its shadow
        assert coordops.section_drop(k1, i) is coordops.project_drop(k1, i)
        area = measures.vm(coordops.section_drop(k1, i), 2)
        assert area.exact
        assert area.value == pytest.approx(np.pi, rel=1e-15)


def test_ball_sections_are_balls():
    b = bodies.ball(3, center=[0.0, 0.0, 0.6])
    sec = coordops.section(b, 2)
    assert isinstance(sec, bodies.Ball)
    assert sec.zeroed == frozenset({2})
    assert sec.radius == pytest.approx(0.8, rel=1e-15)
    assert np.array_equal(sec.center, np.zeros(3))
    again = coordops.section(sec, 2)      # already flat along axis 2
    assert (again.radius, again.zeroed) == (sec.radius, sec.zeroed)
    assert again.center.tobytes() == sec.center.tobytes()
    dropped = coordops.section_drop(b, 2)
    assert (dropped.n, dropped.zeroed) == (2, frozenset())
    assert measures.vm(dropped, 2).value == pytest.approx(0.64 * np.pi, rel=1e-14)
    assert coordops.section(bodies.ball(3, center=[0.0, 0.0, 2.0]), 2) is coordops.EMPTY


def _body_bytes(body):
    """A body's kind and the bytes of its defining fields."""
    if body is coordops.EMPTY:
        return ("EMPTY",)
    if isinstance(body, bodies.VPolytope):
        return ("V", body.vertices.shape, body.vertices.tobytes())
    if isinstance(body, bodies.Zonotope):
        return ("Z", body.generators.shape, body.center.tobytes(),
                body.generators.tobytes())
    return ("B", body.center.tobytes(), body.radius, body.zeroed)


def test_ambient_forms_lift_the_drop_forms():
    """``project`` and ``section`` are the dropped forms with coordinate i
    put back as +0.0, byte for byte, on every body kind, and dropping
    coordinate i again gives the dropped form back.  So the mirror rule
    reaches the ambient section too: on the body of the angle route's
    strict xfail it has the projection's 64 vertices, where the skeleton
    cut hulled in R^6 kept 66."""
    rng = np.random.default_rng(41)
    cases = [bodies.convex_hull(rng.standard_normal((n + 4, n))) for n in range(2, 7)]
    cases += [bodies.unconditional_hull(rng.standard_normal((2, n))) for n in (3, 5)]
    cases += [
        bodies.convex_hull(rng.standard_normal((7, 2)) @ rng.standard_normal((2, 4))),
        bodies.Zonotope(0.2 * rng.standard_normal(4), rng.standard_normal((6, 4))),
        bodies.Zonotope(np.zeros(3), np.diag([1.0, 0.5, 2.0])),
        bodies.ball(3, radius=2.0, center=[0.3, -0.5, 1.9]),
        bodies.Ball(np.array([0.1, 0.0, 0.2, 0.4]), 1.0, frozenset({1})),
        bodies.k1(),
        bodies.NamedBody("cross", 4),
        bodies.NamedBody("cube", 3),
        bodies.translate_body(bodies.cube(3), np.array([0.0, 0.0, 5.0])),
    ]
    empty = 0
    for body in cases:
        for i in range(body.n):
            for ambient, drop in ((coordops.project, coordops.project_drop),
                                  (coordops.section, coordops.section_drop)):
                got, dropped = ambient(body, i), drop(body, i)
                assert _body_bytes(got) == _body_bytes(coordops._lift(dropped, i))
                if got is coordops.EMPTY:
                    empty += 1
                    continue
                assert got.n == body.n
                assert _body_bytes(coordops._project_drop(got, i)) == _body_bytes(dropped)
                if isinstance(got, bodies.Ball):
                    assert i in got.zeroed
                else:
                    rows = got.vertices if isinstance(got, bodies.VPolytope) else \
                        np.vstack([got.center, got.generators])
                    assert not np.any(rows[:, i]) and not np.any(np.signbit(rows[:, i]))
    assert empty == 1    # the cube above the plane x_2 = 0
    assert coordops._lift(coordops.EMPTY, 0) is coordops.EMPTY
    xfail = bodies.unconditional_hull(np.random.default_rng(4).standard_normal((2, 6)))
    assert coordops.section(xfail, 0).vertex_count == 64


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


@pytest.mark.parametrize("pts, half", [([[0.3], [1.7]], 0.7), ([[0.0], [1.0]], 0.5),
                                       ([[-0.4]], 0.0)])
def test_symmetral_in_one_dimension_is_the_centred_interval(pts, half):
    """In R^1 the group is {1, -1}: [a, b] averages with [-b, -a].  There
    is no hull to verify, and the endpoints keep the pairwise sums' bytes."""
    body = bodies.convex_hull(np.array(pts))
    sym = coordops.g_symmetral(body)
    np.testing.assert_allclose(sym.vertices[[0, -1], 0], [-half, half], atol=1e-15)
    assert sym.vertices.tobytes() == _pairwise_symmetral(body).vertices.tobytes()


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
    base = bodies.support_many(sym, dirs)
    assert max(np.max(np.abs(bodies.support_many(sym, dirs @ g.matrix().T) - base))
               for g in group) <= 1e-9


def test_symmetral_preserves_mean_width_ratio(rng, spec3):
    """The averaging construction must not move the width functional it feeds."""
    p = random_polytope(rng, 3, k=7)
    sym = coordops.g_symmetral(p)
    before = explorer.mean_width_ratio(p, spec3)
    after = explorer.mean_width_ratio(sym, spec3)
    assert after == pytest.approx(before, abs=1e-6)


def _pairwise_symmetral(body):
    """Reference: the level-by-level route that sums each level's images
    pairwise with minkowski_sum (the hull of every vertex-sum pair) and
    scales the sum by 1/|level|."""
    acc = bodies.as_vpolytope(body)
    for elements in coordops._group_levels(acc.n):
        images = [symmetry.apply_symmetry(acc, g) for g in elements]
        total = images[0]
        for image in images[1:]:
            total = minkowski_sum(total, image)
        acc = bodies.scale_body(total, 1.0 / len(elements))
    return acc


SYMMETRAL_BODIES = [
    FIVE_VERTICES,
    bodies.convex_hull(np.array([[0.0, 0.0], [1.0, 0.0]])),
    bodies.convex_hull(np.array([[0.2, 0.5, 0.0], [1.0, 0.3, 0.0], [-0.6, 0.9, 0.0]])),
    bodies.cube(2), bodies.cube(3), bodies.cross_polytope(2), bodies.cross_polytope(3),
    # images' normal-fan arcs that share great circles (parallelepiped) or
    # coincide (box), and a body off the origin
    parallelepiped([[1.0, 0.2, 0.1], [0.3, 1.1, -0.2], [0.1, -0.4, 0.9]]),
    bodies.unconditional_hull([[1.0, 2.0, 3.0]]),
    bodies.translate_body(FIVE_VERTICES, [0.3, -0.2, 0.1]),
]
SYMMETRAL_IDS = ["five-vertices", "segment", "flat-triangle", "cube2", "cube3", "cross2",
                 "cross3", "parallelepiped", "box", "five-vertices-shifted"]


def _generator_images(x):
    """The images of the rows of x under the n generators of the group:
    the sign flip of x_1 and the n - 1 adjacent transpositions, +0.0 for
    zeros."""
    images = []
    for i in range(x.shape[1]):
        y = x.copy()
        if i:
            y[:, [i - 1, i]] = y[:, [i, i - 1]]
        else:
            y[:, 0] = -y[:, 0]
        images.append(y + 0.0)
    return images


def _closed_bytewise(x):
    """Whether the rows of x are closed bit for bit under the group."""
    rows = {r.tobytes() for r in x}
    return all(r.tobytes() in rows for y in _generator_images(x) for r in y)


def _assert_matches_the_reference(sym, body):
    """The symmetral is the pairwise sums' vertex list up to roundoff in
    the points that lie on the chamber's walls: the same count, a
    one-to-one match within 2e-15 R, every vertex in the open chamber
    0 < x_1 < ... < x_n bit for bit, a list closed bit for bit under the
    group, and the whole list's bytes when the body's vertices are
    integers."""
    ref = _pairwise_symmetral(body).vertices
    got, scale = sym.vertices, float(np.max(np.abs(ref)))
    assert got.shape == ref.shape
    gap, nearest = cKDTree(ref).query(got, p=np.inf)
    assert np.max(gap) <= 2e-15 * scale and np.unique(nearest).size == len(got)
    inside = got[np.all(np.diff(got, axis=1, prepend=0.0) > 0, axis=1)]
    assert {r.tobytes() for r in inside} <= {r.tobytes() for r in ref}
    assert _closed_bytewise(got)
    v = bodies.as_vpolytope(body).vertices
    if np.array_equal(v, np.round(v)):
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("body", SYMMETRAL_BODIES, ids=SYMMETRAL_IDS)
def test_symmetral_matches_pairwise_sums_bytewise(body):
    _assert_matches_the_reference(coordops.g_symmetral(body), body)


def _short_edge_body():
    """FIVE_VERTICES and a sixth vertex 1e-9 R from one of them."""
    v = FIVE_VERTICES.vertices
    return bodies.convex_hull(np.vstack([v, v[1] + 1e-9 / np.sqrt(3.0)]))


def _symmetral(monkeypatch, make, cell_seeds):
    """g_symmetral of make(), with no arc-crossing seeds unless cell_seeds."""
    if not cell_seeds:
        monkeypatch.setattr(coordops, "_cell_directions", lambda k, perms, signs: np.zeros((0, 3)))
    sym = coordops.g_symmetral(make())
    monkeypatch.undo()
    return sym


TRIANGULATED = [
    (lambda: _bench_like(5, 1), True), (lambda: _bench_like(6, 1), True),
    (lambda: _bench_like(8, 1), True),
    *[(lambda b=b: b, True) for b in SYMMETRAL_BODIES],
    (lambda: bodies.cube(4), True), (lambda: bodies.cross_polytope(4), True),
    (lambda: bodies.cross_polytope(5), True),
    (_short_edge_body, True), (_short_edge_body, False), (lambda: _bench_like(5, 2), False),
]
TRIANGULATED_IDS = ["bench5", "bench6", "bench8", *SYMMETRAL_IDS, "cube4", "cross4", "cross5",
                    "short-edge", "short-edge-no-cell-seeds", "bench5-seed2-no-cell-seeds"]


@pytest.mark.parametrize("make, cell_seeds", TRIANGULATED, ids=TRIANGULATED_IDS)
def test_the_handed_over_triangulation_measures_as_a_rehull(monkeypatch, make, cell_seeds):
    """The symmetral's triangulation is one chamber's hull and its images
    under the group; every measure read off it agrees with qhull's hull
    of the same vertex list: every V_m, and each shadow and section tuple
    at every degree where the rehull's is exact, within 1e-12 relative.
    The cube's facet centres and edge midpoints are triangulation points
    but not vertices, the cross-polytope's facets have an edge on a wall
    but bend there, a zero coordinate's image is +0.0, and the short
    edge and the growth loop put vertices within DEDUP_TOL R of a wall,
    where the images close up only once they are snapped onto it."""
    sym = _symmetral(monkeypatch, make, cell_seeds)
    ref = bodies.VPolytope(sym.vertices)
    n = sym.n
    assert isinstance(sym.qhull, bodies.Triangulation)
    assert isinstance(ref.qhull, ConvexHull)
    assert measures._boundary(sym)[1]
    for m in range(1, n + 1):
        assert measures.vm(sym, m).value == pytest.approx(measures.vm(ref, m).value,
                                                          rel=1e-12, abs=0.0)
    for f in (measures.vm_shadows, measures.vm_sections):
        for m in range(1, n):
            try:
                want = f(ref, m)
            except UnsupportedMeasure:
                continue
            if all(v.exact for v in want):
                np.testing.assert_allclose([v.value for v in f(sym, m)],
                                           [v.value for v in want], rtol=1e-12, atol=0.0)
    rows = {v.tobytes() for v in sym.vertices}
    corner = sym.vertices[np.all(sym.vertices >= 0, axis=1)]
    images = (corner[:, None, :] * bodies._sign_matrix(n)).reshape(-1, n) + 0.0
    assert all(v.tobytes() in rows for v in images)


@pytest.mark.parametrize("body", [bodies.cube(3), bodies.cube(4), bodies.cross_polytope(4),
                                  bodies.cross_polytope(5), FIVE_VERTICES],
                         ids=["cube3", "cube4", "cross4", "cross5", "five-vertices"])
def test_the_symmetral_vertices_are_the_points_of_rank_n(body):
    """The vertex list is the triangulation's points whose incident facet
    normals have rank n, each facet's normal counted once."""
    sym = coordops.g_symmetral(body)
    hull, n = sym.qhull, sym.n
    rank = [np.linalg.matrix_rank(np.unique(hull.equations[np.any(hull.simplices == j, axis=1),
                                                           :n], axis=0), tol=1e-9)
            for j in range(len(hull.points))]
    corners = hull.points[np.array(rank) == n]
    assert sym.vertices.tobytes() == bodies._lexsorted(corners).tobytes()
    assert np.array_equal(np.sort(hull.vertices), np.flatnonzero(np.array(rank) == n))


@pytest.mark.parametrize("make, cell_seeds", TRIANGULATED, ids=TRIANGULATED_IDS)
def test_the_symmetral_is_closed_under_the_generators_bytewise(monkeypatch, make, cell_seeds):
    """The vertex list, the triangulation's points and its equations rows
    are each closed bit for bit under the n generators, so under the
    group, and each simplex's neighbour across a ridge holds that ridge."""
    sym = _symmetral(monkeypatch, make, cell_seeds)
    hull, n = sym.qhull, sym.n
    assert _closed_bytewise(sym.vertices) and _closed_bytewise(hull.points)
    rows = {r.tobytes() for r in hull.equations}
    for normals in _generator_images(hull.equations[:, :n]):
        assert all(r.tobytes() in rows for r in np.hstack([normals, hull.equations[:, n:]]))
    for k in range(n):
        ridge, across = np.delete(hull.simplices, k, axis=1), hull.simplices[hull.neighbors[:, k]]
        assert np.all(np.any(across[:, :, None] == ridge[:, None, :], axis=1))


CHAMBER_SUM_IDS = ["bench5", "bench8", "cube4"]


@pytest.mark.parametrize("make, cell_seeds",
                         [TRIANGULATED[TRIANGULATED_IDS.index(i)] for i in CHAMBER_SUM_IDS],
                         ids=CHAMBER_SUM_IDS)
def test_the_symmetral_is_measured_on_one_chamber(monkeypatch, spec3, make, cell_seeds):
    """The G-invariant boundary sums of a symmetral read one simplex per
    orbit: the boundary hands np.linalg.det len(simplices) / |G| rows,
    and V_{n-2} and the coordinate shadows of degrees n-1 and n-2 (all of
    mean_width_ratio in R^3) never ask for bodies.bent_ridges.  qhull's
    hull of the same vertices has order 1 and hands det every row."""
    sym = _symmetral(monkeypatch, make, cell_seeds)
    ref = bodies.VPolytope(sym.vertices)
    n, order = sym.n, bodies.group_order(sym.qhull)
    assert order == 2 ** n * np.prod(np.arange(1, n + 1)) and bodies.group_order(ref.qhull) == 1
    rows, det = [], np.linalg.det

    def counting(a):
        rows.append(len(a))
        return det(a)

    def refused(p):
        raise AssertionError("bent_ridges asked for")

    monkeypatch.setattr(np.linalg, "det", counting)
    assert measures._boundary(sym)[1] and sum(rows) <= len(sym.qhull.simplices) / order
    rows.clear()
    assert measures._boundary(ref)[1] and sum(rows) == len(ref.qhull.simplices)
    monkeypatch.setattr(bodies, "bent_ridges", refused)
    if n == 3:
        explorer.mean_width_ratio(sym, spec3)
    measures.vm(sym, n - 2)
    measures.vm_shadows(sym, n - 1)
    measures.vm_shadows(sym, n - 2)


def _full_row_shadows(p, m):
    """The coordinate shadows' V_m, m = n-1 or n-2, summed over every row
    of p's triangulation: Cauchy's formula over every boundary simplex,
    and the silhouette sum over every bent ridge once."""
    hull, n = p.qhull, p.n
    normals = hull.equations[:, :n]
    if m == n - 1:
        rows = hull.points[hull.simplices]
        rows[:, 1:] -= rows[:, :1]
        rows[:, 0] = normals
        vol = np.abs(np.linalg.det(rows)) / np.prod(np.arange(1.0, n))
        return 0.5 * (vol @ np.abs(normals))
    s, t, ridge = bodies.bent_ridges(p)
    e = hull.points[ridge[:, 1:]] - hull.points[ridge[:, :1]]
    size = np.sqrt(measures._minors(e) ** 2 @ measures._avoiding(n, n - 2)) \
        / np.prod(np.arange(1.0, n - 1))
    sign = np.sign(normals)
    return 0.25 * (np.abs(sign[s] - sign[t]) * size).sum(axis=0)


@pytest.mark.parametrize("make", [
    lambda: _bench_like(5, 1), lambda: FIVE_VERTICES, lambda: bodies.cube(4),
    lambda: bodies.unconditional_hull([[1.0, 2.0, 3.0, 4.0]]), lambda: bodies.cross_polytope(5),
    lambda: bodies.unconditional_hull([[1.0, 2.0, 3.0, 4.0, 5.0]])],
    ids=["bench5", "five-vertices", "cube4", "box4", "cross5", "box5"])
def test_the_shadow_tuples_of_a_symmetral_are_equal(make):
    """The group maps the axes onto each other, so the coordinate
    shadows' V_{n-1} and V_{n-2} of a symmetral are one value, bit for
    bit, within 1e-13 of the sum over every row of its triangulation."""
    sym = coordops.g_symmetral(make())
    for m in (sym.n - 1, sym.n - 2):
        got = [v.value for v in measures.vm_shadows(sym, m)]
        assert len({np.float64(v).tobytes() for v in got}) == 1
        np.testing.assert_allclose(got, _full_row_shadows(sym, m), rtol=1e-13, atol=0.0)


def _recursive_argmax(vertices, levels, u):
    """Reference oracle: for each row of u, a point of the chain's average
    maximizing <., u>, by recursion over the levels.  The last level's
    elements turn each direction into |level| directions, the levels
    below answer them, and the level sums its images' points in element
    order and scales by 1/|level|."""
    if not levels:
        return vertices[np.argmax(u @ vertices.T, axis=1)]
    elements = levels[-1]
    count = u.shape[0]
    w = np.empty((len(elements) * count, u.shape[1]))
    for k, g in enumerate(elements):
        # <g x, u> = <x, w> with w[perm[i]] = signs[i] u[i]
        w[k * count:(k + 1) * count, list(g.perm)] = u * np.array(g.signs, dtype=float)
    pts = _recursive_argmax(vertices, levels[:-1], w)
    total = elements[0].apply_points(pts[:count])
    for k, g in enumerate(elements[1:], 1):
        total = total + g.apply_points(pts[k * count:(k + 1) * count])
    return (1.0 / len(elements)) * total


def _oracle_points(vertices, u):
    oracle = coordops._ChainOracle(vertices)
    _, table, index, e = oracle.tabulate(u)
    return oracle.points(table[index[:, None], oracle.paths(e)])


def _awkward_directions(rng, n):
    """Random directions, directions with zero and with repeated |entries|,
    the signed coordinate axes, and the facet normals of the cube and the
    cross-polytope."""
    u = rng.standard_normal((12, n))
    zeros = u[:6].copy()
    zeros[np.arange(6), np.arange(6) % n] = 0.0
    zeros[0, :] = -0.0
    zeros[1, 0] = -0.0
    repeats = u[6:].copy()
    repeats[:, 1] = -repeats[:, 0]
    repeats[:3, -1] = repeats[:3, 0]
    axes = np.vstack([np.eye(n), -np.eye(n)])
    return np.vstack([u, zeros, repeats, axes, bodies.cross_polytope(n).vertices,
                      bodies.cube(n).vertices])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_flat_oracle_matches_the_recursive_oracle_bytewise(n):
    """The argmax runs once per canonical direction and is re-indexed per
    query; every point must keep the recursive oracle's bytes, also where
    argmax ties decide (zero and repeated entries, axes, facet normals of
    symmetric bodies)."""
    rng = np.random.default_rng(40 + n)
    u = _awkward_directions(rng, n)
    levels = coordops._group_levels(n)
    for vertices in (rng.standard_normal((n + 4, n)), bodies.cube(n).vertices,
                     bodies.cross_polytope(n).vertices):
        ref = _recursive_argmax(vertices, levels, u)
        got = _oracle_points(vertices, u)
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", [3, 4])
def test_the_argmax_runs_once_per_canonical_direction(monkeypatch, n):
    """On a G-closed direction set the oracle's argmax sees only the
    distinct canonical directions, one per orbit, along every path."""
    rng = np.random.default_rng(n)
    group = symmetry.hyperoctahedral_group(n)
    seeds = rng.standard_normal((3, n))
    u = np.vstack([seeds @ g.matrix().T for g in group])
    rows = []
    real = np.argmax

    def counting(a, *args, **kwargs):
        rows.append(a.shape[0])
        return real(a, *args, **kwargs)

    vertices = rng.standard_normal((7, n))
    ref = _recursive_argmax(vertices, coordops._group_levels(n), u)
    monkeypatch.setattr(np, "argmax", counting)
    got = _oracle_points(vertices, u)
    assert sum(rows) == len(seeds) * len(group)
    assert got.tobytes() == ref.tobytes()


def _bench_like(k: int, seed: int):
    """A general-position 3-polytope with k vertices, jittered by the seed
    (the shape of the width-symmetral benchmark's symmetral bodies)."""
    attempt = 0
    while True:
        pts = np.random.default_rng(
            np.random.SeedSequence([20240809, k, attempt])).standard_normal((k, 3))
        if bodies.convex_hull(pts).vertex_count == k:
            break
        attempt += 1
    jitter = 1e-3 * np.random.default_rng(seed).standard_normal((k, 3))
    return bodies.convex_hull(pts + jitter)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("k, parent_peak_mb", [(8, 18.3), (5, 23.1)])
def test_the_symmetral_holds_no_more_memory_than_the_recursive_oracle(k, parent_peak_mb):
    """The tuple work is blocked: the traced peak stays under what the
    recursive oracle needed on the same kind of body."""
    body = _bench_like(k, seed=1)
    assert _traced_peak(coordops.g_symmetral, body) <= parent_peak_mb * 1e6


def test_five_dimensions_build_no_group_squared_table():
    """|G| = 3840 at n = 5: a table with |G|^2 entries would hold at least
    14.7 MB; the whole symmetral stays well under that."""
    order = 2 ** 5 * 120
    body = bodies.cross_polytope(5)
    assert _traced_peak(coordops.g_symmetral, body) < order * order
    np.testing.assert_allclose(coordops.g_symmetral(body).vertices, body.vertices,
                               atol=1e-15)


def _facets_hold_on_the_group_average(body):
    """Whether every facet (a, b) of the symmetral, not only those the
    stop rule tests, bounds the group average of K's support function:
    mean_g h_K(g^T a) <= b."""
    sym = coordops.g_symmetral(body)
    eq = sym.qhull.equations
    a, b = eq[:, :3], -eq[:, 3]
    h = np.mean([np.max((a @ g.matrix()) @ body.vertices.T, axis=1)
                 for g in symmetry.hyperoctahedral_group(3)], axis=0)
    scale = float(np.max(np.abs(sym.vertices)))
    return bool(np.all(h <= b + 1e-9 * scale))


def test_symmetral_facets_hold_on_the_group_average():
    """The stop rule: every facet (a, b) of the result bounds the group
    average of K's support function, mean_g h_K(g^T a) <= b."""
    assert _facets_hold_on_the_group_average(FIVE_VERTICES)


@pytest.mark.parametrize("k", [5, 6, 8])
def test_symmetral_facets_hold_on_the_group_average_of_benchmark_bodies(k):
    """The stop rule tests one facet per orbit, those with a normal in the
    chamber 0 <= a_1 <= a_2 <= a_3; every one of the 9,000-18,000 facets
    of the benchmark's symmetrals holds."""
    assert _facets_hold_on_the_group_average(_bench_like(k, seed=1))


@pytest.mark.parametrize("body", [FIVE_VERTICES,
                                  bodies.translate_body(FIVE_VERTICES, [0.3, -0.2, 0.1])],
                         ids=["five-vertices", "five-vertices-shifted"])
def test_the_symmetral_grows_to_the_pairwise_sums_without_cell_seeds(monkeypatch, body):
    """With no arc-crossing seeds the first hull misses vertices, and the
    stop rule grows the candidates, one orbit per failing facet, until
    the hull is the group average: the pairwise sums' vertices, up to
    roundoff on the chamber's walls."""
    hulled = []
    real = coordops.convex_hull

    def counting(points):
        hulled.append(len(points))
        return real(points)

    monkeypatch.setattr(coordops, "convex_hull", counting)
    monkeypatch.setattr(coordops, "_cell_directions", lambda k, perms, signs: np.zeros((0, 3)))
    sym = coordops.g_symmetral(body)
    assert len(hulled) > 1 and hulled == sorted(hulled)
    _assert_matches_the_reference(sym, body)


@pytest.mark.parametrize("k, seed", [(5, 2), (6, 1), (8, 1)])
def test_the_symmetral_grown_without_cell_seeds_holds_on_every_facet(monkeypatch, k, seed):
    """The growth loop tests one facet per orbit too: with no arc-crossing
    seeds, every facet of the grown symmetral of a benchmark-like body
    bounds the group average."""
    monkeypatch.setattr(coordops, "_cell_directions", lambda k, perms, signs: np.zeros((0, 3)))
    assert _facets_hold_on_the_group_average(_bench_like(k, seed))


def test_the_stop_rule_asks_at_every_facet_orbit(monkeypatch):
    """The 5-vertex body of seed 2 has a mirror facet (a_1 = 0) that
    qhull's rounding puts at a_1 = -1.1e-12, outside the chamber by more
    than SUPPORT_TOL: the oracle is still asked at a normal of every
    facet's orbit (sort |a| of each normal is one it was asked at)."""
    asked = []
    real = coordops._ChainOracle.at

    def recording(self, u):
        asked.append(np.array(u))
        return real(self, u)

    monkeypatch.setattr(coordops._ChainOracle, "at", recording)
    sym = coordops.g_symmetral(_bench_like(5, seed=2))
    canon = np.sort(np.abs(sym.qhull.equations[:, :3]), axis=1)
    gap, _ = cKDTree(np.vstack(asked)).query(canon, p=np.inf)
    assert np.max(gap) <= 1e-9


@pytest.mark.parametrize("cell_seeds", [True, False], ids=["cell-seeds", "no-cell-seeds"])
def test_the_symmetral_of_a_body_with_a_short_edge_returns(monkeypatch, cell_seeds):
    """An edge of 1e-9 R puts vertices of the average 1e-9 R / |G| apart,
    inside convex_hull's merge tolerance: a facet can fail at an oracle
    point the candidates already hold, and the growth loop then stops
    instead of hulling the same candidates again."""
    v = FIVE_VERTICES.vertices
    body = bodies.convex_hull(np.vstack([v, v[1] + 1e-9 / np.sqrt(3.0)]))
    assert body.vertex_count == 6
    hulled = []
    real = coordops.convex_hull

    def counting(points):
        hulled.append(len(points))
        if len(hulled) > 20:
            raise RuntimeError("the growth loop hulls the same candidates again")
        return real(points)

    monkeypatch.setattr(coordops, "convex_hull", counting)
    if not cell_seeds:
        monkeypatch.setattr(coordops, "_cell_directions",
                            lambda k, perms, signs: np.zeros((0, 3)))
    coordops.g_symmetral(body)
    assert len(hulled) > 1 and all(a < b for a, b in zip(hulled, hulled[1:]))
    monkeypatch.undo()
    assert _facets_hold_on_the_group_average(body)


def test_symmetral_budget_guard_in_high_dimension():
    rng = np.random.default_rng(11)
    cloud = bodies.convex_hull(rng.standard_normal((20, 4)))
    with pytest.raises(UnsupportedOperation):
        coordops.g_symmetral(cloud)


def _count_hulls(monkeypatch) -> list:
    """Record the input shape of every qhull call; the library reaches
    qhull only through bodies."""
    calls = []
    real = bodies.ConvexHull

    def counting(points, *args, **kwargs):
        calls.append(np.shape(points))
        return real(points, *args, **kwargs)

    monkeypatch.setattr(bodies, "ConvexHull", counting)
    return calls


@pytest.mark.parametrize("n", [3, 4, 5])
def test_a_hulled_cloud_is_measured_without_a_second_hull(monkeypatch, n):
    cloud = np.random.default_rng(n).standard_normal((30, n))
    calls = _count_hulls(monkeypatch)
    measures.vm(bodies.convex_hull(cloud), n)
    assert calls == [(30, n)]


def test_prob4_on_an_unconditional_body_hulls_no_coordinate_body(monkeypatch):
    """Its sections are its projections, and V_1 = V_{n-3} of both comes
    from the ridges of the body's own triangulation: no coordinate hull
    and no skeleton."""
    body = bodies.unconditional_hull(np.random.default_rng(4).standard_normal((2, 4)))
    calls = _count_hulls(monkeypatch)

    def no_skeleton(b):
        raise AssertionError("a skeleton was built")

    monkeypatch.setattr(bodies, "skeleton", no_skeleton)
    iq.evaluate("prob4_family", body, m=1, params={"c2": 1.0})
    assert calls == []


def test_zonotope_shadows_project_no_body(monkeypatch):
    """reverse_cs on a fresh 8-generator 6-zonotope and cg_upper on a
    fresh 4-zonotope read their shadows off the generators' minors: no
    projected zonotope is built, and nothing is hulled."""
    calls, hulls = [], _count_hulls(monkeypatch)
    real = coordops._project_drop

    def counting(body, i):
        calls.append((body.n, i))
        return real(body, i)

    monkeypatch.setattr(coordops, "_project_drop", counting)
    rng = np.random.default_rng(7)
    z6 = bodies.Zonotope(np.zeros(6), rng.standard_normal((8, 6)))
    z4 = bodies.Zonotope(np.zeros(4), rng.standard_normal((7, 4)))
    iq.evaluate("reverse_cs", z6, m=2)
    iq.evaluate("cg_upper", z4, m=2)
    assert calls == [] and hulls == []


@pytest.mark.parametrize("n", [4, 5, 6])
def test_sections_of_an_asymmetric_body_hull_nothing(monkeypatch, n):
    """square_lower and trivmax read the sections of a fresh asymmetric
    polytope off its own triangulation, and V_{n-3} of every section
    comes from its bent ridges: one qhull call, for K, and no
    skeleton."""
    calls = _count_hulls(monkeypatch)

    def no_skeleton(b):
        raise AssertionError("a skeleton was built")

    monkeypatch.setattr(bodies, "skeleton", no_skeleton)
    body = bodies.convex_hull(np.random.default_rng(n).standard_normal((3 * n, n)))
    assert not any(coordops.mirror_symmetric(body, i) for i in range(n))
    iq.evaluate("square_lower", body)
    for m in (n - 1, n - 2):
        iq.evaluate("trivmax", body, m=m)
    assert all(v.value > 0 for v in measures.vm_sections(body, n - 3))
    assert calls == [(3 * n, n)]
    assert all(v.value > 0 for v in measures.vm_sections(body, n - 1))


def test_the_symmetral_is_not_hulled_again(monkeypatch):
    calls = _count_hulls(monkeypatch)
    sym = coordops.g_symmetral(FIVE_VERTICES)
    built = len(calls)
    explorer.mean_width_ratio(sym)
    # its V_1 and its shadows' V_1 are read off the handed-over hull
    assert calls[built:] == []


def test_a_width_ratio_hulls_only_the_body(monkeypatch):
    """V_1 of a fresh 3-polytope and the V_1 of its three shadows all
    come from the one hull that convex_hull builds for it."""
    rng = np.random.default_rng(5)
    for k in (4, 7, 11):
        pts = rng.standard_normal((k, 3))
        calls = _count_hulls(monkeypatch)
        explorer.mean_width_ratio(bodies.convex_hull(pts))
        assert calls == [(k, 3)]


@pytest.mark.parametrize("body, k", [
    (FIVE_VERTICES, 5), (random_polytope(np.random.default_rng(0), 3, k=8), 8),
], ids=["five-vertices", "random-8"])
def test_the_symmetral_hulls_its_candidates_once(monkeypatch, body, k):
    """The arc-crossing seeds reach every vertex before the first hull,
    so the verification pass adds none and no second hull is built.  That
    hull is one chamber's: its input lies in 0 <= x_1 <= x_2 <= x_3, holds
    every vertex of the result there and is closed under the projections
    onto the walls (each run of joined coordinates replaced by its mean,
    numpy's sum over its length, and the run through x_1 by 0): all 2^3
    of them for a point in the open chamber.  It has fewer points than
    the result's vertices.  It is made through coordops.convex_hull, the
    binding the benchmark tracer wraps, so it sees every qhull call."""
    assert body.vertex_count == k
    calls, hulled = _count_hulls(monkeypatch), []
    real = coordops.convex_hull

    def counting(points):
        hulled.append(np.array(points))
        return real(points)

    monkeypatch.setattr(coordops, "convex_hull", counting)
    sym = coordops.g_symmetral(body)
    assert len(calls) == 1 and [np.shape(c) for c in hulled] == calls
    cloud = hulled[0]
    rows = {r.tobytes() for r in cloud}
    assert np.all(np.diff(cloud, axis=1, prepend=0.0) >= 0)
    inside = cloud[np.all(np.diff(cloud, axis=1, prepend=0.0) > 0, axis=1)]
    for zero, runs in [(False, [[0, 1]]), (False, [[1, 2]]), (False, [[0, 1, 2]]),
                       (True, [[0]]), (True, [[0, 1]]), (True, [[0], [1, 2]]),
                       (True, [[0, 1, 2]])]:
        y = inside.copy()
        for run in runs:
            y[:, run] = 0.0 if zero and 0 in run else (
                inside[:, run].sum(axis=1) / len(run))[:, None]
        assert all(r.tobytes() in rows for r in y)
    closed = sym.vertices[np.all(np.diff(sym.vertices, axis=1, prepend=0.0) >= 0, axis=1)]
    assert all(v.tobytes() in rows for v in closed)
    assert len(cloud) < sym.vertex_count


def test_symmetral_budget_guard_in_three_dimensions(monkeypatch):
    """The cap is checked on the candidates' orbits before every hull, so
    before any hull of the candidates."""
    monkeypatch.setattr(coordops, "_sum_budget", lambda n: 1_000)
    calls = _count_hulls(monkeypatch)
    with pytest.raises(UnsupportedOperation):
        coordops.g_symmetral(FIVE_VERTICES)
    assert all(points <= 1_000 for points, _ in calls)


def test_the_cap_counts_whole_orbits(monkeypatch):
    """The cap gets sum |G| / |Stab(y)| over the folded candidates y, the
    distinct points of their orbits: FIVE_VERTICES builds with the cap at
    that sum, and one less refuses it before any qhull call."""
    folded, counts = [], []
    fold, check = coordops._fold, coordops._check_budget
    monkeypatch.setattr(coordops, "_fold", lambda x, tol: folded.append(fold(x, tol)) or folded[-1])
    monkeypatch.setattr(coordops, "_check_budget",
                        lambda count, n: counts.append(count) or check(count, n))
    coordops.g_symmetral(FIVE_VERTICES)
    monkeypatch.undo()
    images = np.vstack([folded[0] @ g.matrix().T for g in symmetry.hyperoctahedral_group(3)])
    assert len(counts) == 1 and counts[0] == len(np.unique(images + 0.0, axis=0))
    monkeypatch.setattr(coordops, "_sum_budget", lambda n: counts[0])
    coordops.g_symmetral(FIVE_VERTICES)
    monkeypatch.setattr(coordops, "_sum_budget", lambda n: counts[0] - 1)
    calls = _count_hulls(monkeypatch)
    with pytest.raises(UnsupportedOperation):
        coordops.g_symmetral(FIVE_VERTICES)
    assert calls == []


def test_hull_consumers_index_the_hull_points():
    """A handed-over hull indexes its input cloud, interior points
    included, not the vertex list."""
    rng = np.random.default_rng(9)
    cloud = np.vstack([0.05 * rng.standard_normal((20, 3)),   # interior
                       rng.standard_normal((12, 3))])
    for shift in (0.0, 3.0):
        handed = bodies.convex_hull(cloud + shift)
        assert handed.qhull.points.shape[0] == cloud.shape[0]
        plain = bodies.VPolytope(handed.vertices)
        assert iq._origin_interior(handed) == iq._origin_interior(plain) == (shift == 0.0)


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
