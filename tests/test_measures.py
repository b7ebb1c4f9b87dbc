"""Intrinsic volumes against closed forms and independent oracles."""
from __future__ import annotations

import gc
import math
import tracemalloc
from functools import partial
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erf

from convexiq import (QuadratureSpec, Zonotope, bodies, coordops, cross_polytope, cube, io,
                      measures, vm)
from convexiq.bodies import (DEDUP_TOL, VPolytope, as_vpolytope, ball, convex_hull, k1, k2,
                             scale_body, support, translate_body, unconditional_hull)
from convexiq.coordops import (EMPTY, _cut, g_symmetral, mirror_symmetric,
                               project, project_along, project_drop, section_drop)
from convexiq.errors import InvalidArgument, UnsupportedMeasure, UnsupportedOperation
from convexiq.measures import (CROSS_CUTOFF, CROSS_NODES, CROSS_PANELS,
                               K1_NODES, SUBSET_BLOCK, Measured, _boundary,
                               _off_boundary, _on_boundary, _shadows,
                               _v1_cross_rule, _v1_k1_rule, kappa,
                               surface_area, v1_cross_polytope,
                               v1_polytope_exact, v1_quadrature, vm_ball,
                               vm_polytope_angles, vm_projection,
                               vm_sections, vm_shadows, vm_zonotope,
                               _zonotope_pass, _zonotope_sums,
                               volume)
from convexiq.quadrature import gauss_legendre
from convexiq.symmetry import random_signed_permutation

from conftest import (gram_surface_area, k1_polygon, mc_volume, parallelepiped,
                      random_polytope, random_zonotope)

ARCCOS_THIRD = 1.2309594173407747
V1_CROSS3 = 12 * math.sqrt(2.0) * ARCCOS_THIRD / (2 * math.pi)


# ---------------------------------------------------------------------------
# normalizing constants


def test_kappa_values():
    assert kappa(0) == pytest.approx(1.0)
    assert kappa(1) == pytest.approx(2.0)
    assert kappa(2) == pytest.approx(math.pi)
    assert kappa(3) == pytest.approx(4 * math.pi / 3)


def test_intrinsic_coefficients_ball():
    """V_m of the unit ball is binom(n,m) kappa_n / kappa_{n-m}."""
    for n in (3, 4):
        spec = QuadratureSpec.for_dimension(n)
        for m in range(1, n + 1):
            want = math.comb(n, m) * kappa(n) / kappa(n - m)
            got = vm(ball(n), m, spec).value
            assert got == pytest.approx(want, rel=1e-12), (n, m)


# ---------------------------------------------------------------------------
# closed forms


def test_cube_intrinsic_volumes():
    spec = QuadratureSpec.for_dimension(3)
    assert vm(cube(3), 1, spec).value == pytest.approx(6.0, abs=1e-12)
    assert vm(cube(3), 2, spec).value == pytest.approx(12.0, abs=1e-12)
    assert vm(cube(3), 3, spec).value == pytest.approx(8.0, abs=1e-12)
    assert vm(cube(4), 3, QuadratureSpec.for_dimension(4)).value == pytest.approx(32.0)


def test_cross3_intrinsic_volumes(spec3):
    c = cross_polytope(3)
    assert vm(c, 1, spec3).value == pytest.approx(V1_CROSS3, abs=1e-12)
    assert vm(c, 2, spec3).value == pytest.approx(2 * math.sqrt(3), abs=1e-12)
    assert vm(c, 3, spec3).value == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_k2_mean_width(spec3):
    want = 6 * ARCCOS_THIRD / math.sqrt(math.pi)
    assert vm(k2(), 1, spec3).value == pytest.approx(want, abs=1e-9)


def test_scaled_ball():
    spec = QuadratureSpec.for_dimension(3)
    assert vm(ball(3, radius=2.0), 3, spec).value == pytest.approx(32 * math.pi / 3)
    assert vm(ball(3, radius=2.0), 1, spec).value == pytest.approx(8.0)


# ---------------------------------------------------------------------------
# independent oracles


def test_volume_against_rejection_sampling(rng):
    """Hull volume must sit inside the 3-sigma Monte Carlo band
    (1e6 samples)."""
    for n in (3, 4):
        p = random_polytope(rng, n)
        est, band = mc_volume(p.vertices, 1_000_000, rng)
        got = volume(p)
        assert abs(got - est) <= band, (n, got, est, band)


def test_surface_area_against_gram_oracle(rng):
    for n in (3, 4):
        p = random_polytope(rng, n)
        assert surface_area(p) == pytest.approx(gram_surface_area(p.vertices),
                                                rel=1e-9)


def test_vnm1_is_half_surface(rng):
    p = random_polytope(rng, 3)
    spec = QuadratureSpec.for_dimension(3)
    assert vm(p, 2, spec).value == pytest.approx(surface_area(p) / 2, rel=1e-12)


def test_v1_exact_vs_quadrature(rng, spec3):
    for _ in range(3):
        p = random_polytope(rng, 3)
        exact = v1_polytope_exact(p)
        quad = v1_quadrature(p, spec3)
        assert quad.value == pytest.approx(exact, rel=1e-4)
        assert abs(quad.value - exact) <= 10 * quad.error + 1e-9


def test_v1_edge_route_keeps_nearly_coplanar_edges():
    """A generator almost in the e1-e2 plane makes facets meet at a
    dihedral angle with 1 - cos ~ 1e-11; their edges still carry V_1."""
    z = Zonotope(np.zeros(3), np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                        [0.0, 0.0, 1.0], [1.0, 1.0, 1e-5]]))
    assert abs(vm_zonotope(z, 1) - v1_polytope_exact(as_vpolytope(z))) <= 1e-12


# ---------------------------------------------------------------------------
# boundary angles: V_{d-2} and V_{d-3} of d-polytopes


def test_ridge_route_at_d3_is_the_cross_product_edge_route(rng):
    """At d = 3 the ridge pass is the edge route with |n_s x n_t| from
    np.cross and edge lengths by norm, bit for bit, over the edges between
    triangles with different ``equations`` rows (the others have angle 0)."""
    def edge_route(p):
        hull = p.qhull
        normals = hull.equations[:, :3]
        s, k = np.nonzero(hull.neighbors > np.arange(hull.neighbors.shape[0])[:, None])
        t = hull.neighbors[s, k]
        bent = np.any(hull.equations[s] != hull.equations[t], axis=1)
        s, k, t = s[bent], k[bent], t[bent]
        angle = np.arctan2(np.linalg.norm(np.cross(normals[s], normals[t]), axis=1),
                           np.einsum("ij,ij->i", normals[s], normals[t]))
        tri = hull.simplices[s]
        a = hull.points[tri[np.arange(s.size), (k + 1) % 3]]
        b = hull.points[tri[np.arange(s.size), (k + 2) % 3]]
        return float(np.sum(np.linalg.norm(a - b, axis=1) * angle)) / (2.0 * math.pi)

    bodies_ = [random_polytope(rng, 3, int(k)) for k in rng.integers(5, 40, 20)]
    bodies_ += [as_vpolytope(random_zonotope(rng, 3)) for _ in range(5)]
    bodies_ += [as_vpolytope(cube(3)), as_vpolytope(cross_polytope(3))]
    for p in bodies_:
        assert v1_polytope_exact(p) == edge_route(p)


def test_angle_route_matches_zonotopes_in_r4(rng):
    for k in (5, 6, 8) * 7:
        z = random_zonotope(rng, 4, k)
        p = as_vpolytope(z)
        assert isinstance(p, VPolytope)
        for m in (1, 2):
            got, want = vm(p, m), vm_zonotope(z, m)
            assert got.exact
            assert abs(got.value - want) <= 1e-12 * want, (k, m)


def test_angle_route_on_the_4_cube_and_cross_polytope():
    c = as_vpolytope(cube(4))
    assert abs(vm_polytope_angles(c, 1) - 8.0) <= 1e-13 * 8.0
    assert abs(vm_polytope_angles(c, 2) - 24.0) <= 1e-13 * 24.0
    x = vm(as_vpolytope(cross_polytope(4)), 1)
    assert x.exact
    assert abs(x.value - v1_cross_polytope(4).value) <= 1e-13


def test_angle_defects_at_d3_sum_to_one(rng):
    """Descartes: the vertex defects of a 3-polytope sum to 4 pi, so the
    defect pass at d = 3 gives V_0 = 1, merged facets included."""
    for p in [random_polytope(rng, 3, 12) for _ in range(5)] + \
            [as_vpolytope(cube(3)), as_vpolytope(cross_polytope(3))]:
        assert abs(vm_polytope_angles(p, 0) - 1.0) <= 1e-13


@pytest.mark.parametrize("lam", [1e-8, 1e8])
def test_angle_route_is_homogeneous(rng, lam):
    p = random_polytope(rng, 4, 14)
    q = VPolytope(lam * p.vertices)
    for m in (1, 2):
        want = lam ** m * vm(p, m).value
        assert abs(vm(q, m).value - want) <= 1e-12 * want


def test_quadrature_agrees_with_the_angle_route_in_r4(rng):
    """Sphere quadrature at resolution 158 against the exact V_1 of random
    4-polytopes (gaps measured at most 9e-7 relative)."""
    spec = QuadratureSpec(resolution=158)
    for k in (8, 14, 20):
        p = random_polytope(rng, 4, k)
        exact = v1_polytope_exact(p)
        assert abs(v1_quadrature(p, spec).value - exact) <= 1e-5 * exact


def test_angle_route_refuses_what_it_does_not_cover(rng):
    with pytest.raises(UnsupportedMeasure):
        v1_polytope_exact(random_polytope(rng, 5))
    with pytest.raises(UnsupportedMeasure):
        vm_polytope_angles(random_polytope(rng, 4), 3)
    flat = convex_hull(np.c_[rng.standard_normal((8, 3)), np.zeros(8)])
    with pytest.raises(UnsupportedMeasure):
        v1_polytope_exact(flat)
    # vm reduces the flat body to its span first
    assert vm(flat, 1).value == pytest.approx(
        v1_polytope_exact(convex_hull(flat.vertices[:, :3])), rel=1e-12)


def test_v1_quadrature_ball(spec3):
    est = v1_quadrature(ball(3), spec3)
    assert est.value == pytest.approx(4.0, rel=1e-6)


def _k1_patch_rule(m: int, nodes: int) -> float:
    """V_2 or V_3 of K1 from its 8 unit triangles at height 2/sqrt 6 and a
    Gauss-Legendre rule over t in [0, 1] on its 24 ruled patches from
    P(t) = (0, t, 1)/s to Q(t) = (t, 0, 1)/s, s = sqrt(1 + t^2): area
    int (|P' x (Q - P)| + |Q' x (Q - P)|)/2 dt, and the cone's volume the
    same integrand times h/3, h = s/sqrt(1 + 2t^2)."""
    t, w = gauss_legendre(0.0, 1.0, nodes)
    zero, one, s = np.zeros_like(t), np.ones_like(t), np.sqrt(1.0 + t * t)
    p, q = np.stack([zero, t, one], 1) / s[:, None], np.stack([t, zero, one], 1) / s[:, None]
    dp = np.stack([zero, one, -t], 1) / s[:, None] ** 3
    dq = np.stack([one, zero, -t], 1) / s[:, None] ** 3
    area = 0.5 * (np.linalg.norm(np.cross(dp, q - p), axis=1)
                  + np.linalg.norm(np.cross(dq, q - p), axis=1))
    triangle = math.sqrt(3.0) / 4.0
    if m == 2:
        return 0.5 * (8.0 * triangle + 24.0 * float(w @ area))
    h = s / np.sqrt(1.0 + 2.0 * t * t)
    return 8.0 * triangle * 2.0 / math.sqrt(6.0) / 3.0 + 24.0 * float(w @ (area * h)) / 3.0


@pytest.mark.parametrize("m", [1, 2, 3])
def test_k1_mean_width(m, spec3):
    """V_m of K1 is exact: the V_1 rule, or a Gauss-Legendre rule on the
    boundary patches for the closed-form V_2 and V_3, meets it within
    1e-14 relative at K1_NODES and at twice as many nodes; the hulls of
    inscribed k-gons fall short of it by less than 40/k^2 relative, and
    Richardson extrapolation of the 1024- and 4096-gon values (errors
    c/k^2) meets it within 1e-9."""
    est = vm(k1(), m, spec3)
    assert est.exact
    value = est.value
    assert value == pytest.approx(
        {1: 3.8663397462206, 2: 5.67749103845204, 3: 3.285954792089684}[m], rel=1e-13)
    rule = _v1_k1_rule if m == 1 else partial(_k1_patch_rule, m)
    for nodes in (K1_NODES, 2 * K1_NODES):
        assert abs(rule(nodes) - value) <= 1e-14 * value
    polygon = {k: vm(k1_polygon(k), m).value for k in (256, 1024, 4096)}
    for k, v in polygon.items():
        assert value - 40.0 / k ** 2 * value <= v <= value
    assert abs((16.0 * polygon[4096] - polygon[1024]) / 15.0 - value) <= 1e-9


@pytest.mark.parametrize("n", range(2, 9))
def test_cross_width_rule_truncation_below_roundoff(n):
    """Past the cutoff T the integrand is below n erfc(t/sqrt 2), whose
    integral over [T, inf) is below n erfc(T/sqrt 2) / T; doubling the
    nodes of every panel leaves the value where it is."""
    v = v1_cross_polytope(n)
    assert v.exact
    tail = math.sqrt(2.0 * math.pi) * n * math.erfc(CROSS_CUTOFF / math.sqrt(2.0))
    assert tail <= 1e-14 * v.value
    assert abs(_v1_cross_rule(n, 2 * CROSS_NODES) - v.value) <= 1e-14 * v.value


def test_cross_width_rule_closed_forms():
    assert v1_cross_polytope(1).value == pytest.approx(2.0, rel=1e-15)
    assert v1_cross_polytope(2).value == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)
    assert v1_cross_polytope(3).value == pytest.approx(V1_CROSS3, rel=1e-15)


@pytest.mark.parametrize("n", [
    4,
    pytest.param(5, marks=pytest.mark.xfail(strict=True, reason=(
        "the stated error |fine - coarse| is an estimate, not a bound: at "
        "n = 5 (resolution 44) the quadrature misses the exact V_1 by "
        "1.2255e-3 against a stated error of 1.1967e-3"))),
])
def test_v1_quadrature_error_bar_holds_on_the_cross_polytope(n):
    est = v1_quadrature(cross_polytope(n))
    assert abs(est.value - v1_cross_polytope(n).value) <= est.error


# ---------------------------------------------------------------------------
# zonotopes


def test_zonotope_cube_formula():
    for n in (2, 3, 4):
        z = Zonotope(np.zeros(n), np.eye(n))
        for m in range(1, n + 1):
            want = math.comb(n, m) * 2 ** m
            assert vm_zonotope(z, m) == pytest.approx(want)


def test_single_generator():
    g = np.array([[1.0, 2.0, 2.0]])
    z = Zonotope(np.zeros(3), g)
    assert vm_zonotope(z, 1) == pytest.approx(6.0)  # 2 * |g|


def test_zonotope_top_matches_hull_volume(rng):
    """Cauchy-Binet top-degree sum equals the hull volume of the expanded
    vertex set."""
    for n in (3, 4):
        z = Zonotope(np.zeros(n), rng.standard_normal((n + 2, n)))
        hull_vol = volume(as_vpolytope(z))
        assert vm_zonotope(z, n) == pytest.approx(hull_vol, rel=1e-6)


def test_zonotope_subset_sum_brute_force(rng):
    """Re-derive the m = 2 subset sum with plain numpy as a cross-check."""
    g = rng.standard_normal((5, 3))
    z = Zonotope(np.zeros(3), g)
    want = 0.0
    for idx in combinations(range(5), 2):
        sub = g[list(idx)]
        want += 4 * math.sqrt(max(np.linalg.det(sub @ sub.T), 0.0))
    assert vm_zonotope(z, 2) == pytest.approx(want, rel=1e-12)


def test_zonotope_m_range():
    z = Zonotope(np.zeros(3), np.eye(3))
    with pytest.raises(InvalidArgument):
        vm_zonotope(z, 0)
    with pytest.raises(InvalidArgument):
        vm_zonotope(z, 4)


def _betke_henk(n: int, k: int) -> float:
    """V_k(C_n) by Betke and Henk (1993): 2^{k+1} C(n, k+1) sqrt(k+1) / k!
    * sqrt((k+1) / pi) * integral over x >= 0 of exp(-(k+1) x^2)
    erf(x)^{n-k-1}, on the panels of the cross-polytope width rule."""
    edges = np.linspace(0.0, CROSS_CUTOFF, CROSS_PANELS + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        x, w = gauss_legendre(lo, hi, CROSS_NODES)
        total += float(np.dot(w, np.exp(-(k + 1) * x * x) * erf(x) ** (n - k - 1)))
    return (2.0 ** (k + 1) * math.comb(n, k + 1) * math.sqrt(k + 1) / math.factorial(k)
            * math.sqrt((k + 1) / math.pi) * total)


@pytest.mark.parametrize("n", range(3, 9))
def test_betke_henk_rule_gives_the_cross_polytope_width(n):
    assert abs(_betke_henk(n, 1) - v1_cross_polytope(n).value) <= \
        1e-14 * v1_cross_polytope(n).value


@pytest.fixture(scope="module")
def cubes():
    """cube(d), d = 2..8, shared so that each V_m is measured once."""
    return {d: cube(d) for d in range(2, 9)}


@pytest.mark.parametrize("d", range(5, 9))
def test_angle_route_on_cubes_and_cross_polytopes(cubes, d):
    x = cross_polytope(d)
    for m in (d - 3, d - 2):
        got, want = vm(cubes[d], m), math.comb(d, m) * 2.0 ** m
        assert got.exact and abs(got.value - want) <= 1e-12 * want, m
        got, want = vm(x, m), _betke_henk(d, m)
        assert got.exact and abs(got.value - want) <= 1e-12 * want, m


@pytest.mark.parametrize("d, k", [(5, 6), (5, 7), (5, 8), (6, 7), (6, 8)])
def test_angle_route_matches_zonotopes_in_r5_and_r6(rng, d, k):
    for _ in range(2):
        z = random_zonotope(rng, d, k)
        for m in (d - 3, d - 2):
            got, want = vm(as_vpolytope(z), m), vm_zonotope(z, m)
            assert got.exact and abs(got.value - want) <= 1e-12 * want, m


@pytest.mark.parametrize("d", [5, 6])
@pytest.mark.parametrize("lam", [1e-8, 1e8])
def test_angle_route_is_homogeneous_in_r5_and_r6(rng, d, lam):
    p = random_polytope(rng, d, 2 * d + 2)
    q = VPolytope(lam * p.vertices)
    for m in (d - 3, d - 2):
        want = lam ** m * vm(p, m).value
        assert abs(vm(q, m).value - want) <= 1e-12 * want


def _corner_cut_cube(d: int, h: float) -> VPolytope:
    """cube(d) with the corner (1, ..., 1) cut off at depth h: its
    intrinsic volumes V_m, m >= 2, differ from the cube's by O(h^2)."""
    v = as_vpolytope(cube(d)).vertices
    corner = np.all(v == 1.0, axis=1)
    return convex_hull(np.vstack([v[~corner], 1.0 - h * np.eye(d)]))


@pytest.mark.parametrize("d", [5, 6])
def test_angle_route_keeps_a_tiny_well_shaped_cap(d):
    """The cut face is a regular simplex of edge h sqrt 2 = 1.4e-7, and
    the facets around it are triangulated into ridges with one tiny face
    and long edges; a flat-ridge cut that is not relative to each ridge's
    own shape drops some of them (a cut at 1e-6 misses by 3%)."""
    p = _corner_cut_cube(d, 1e-7)
    for m in (d - 3, d - 2):
        want = math.comb(d, m) * 2.0 ** m
        assert abs(vm(p, m).value - want) <= 1e-12 * want, m


@pytest.mark.parametrize("d", [4, 5, 6])
@pytest.mark.parametrize("eps", [1e-5, 1e-9])
def test_angle_route_with_a_nearly_coplanar_generator(rng, d, eps):
    """The last generator lies within eps of the span of d - 1 others, so
    facets meet at angles near 0 and pi."""
    g = rng.standard_normal((d + 1, d))
    g[-1] = g[: d - 1].sum(axis=0) / 2.0 + eps * rng.standard_normal(d)
    z = Zonotope(np.zeros(d), g)
    for m in (d - 3, d - 2):
        got, want = vm(as_vpolytope(z), m).value, vm_zonotope(z, m)
        assert abs(got - want) <= 1e-12 * want, m


@pytest.mark.parametrize("d", [4, 5])
def test_angle_route_on_nearly_flat_polytopes(rng, d):
    """Thickness 1e-6: the normal cones of the rim faces reach from the
    top facets' normals to the bottom's, nearly antipodal.  Rotations
    move the value by roundoff only."""
    x = rng.standard_normal((14, d))
    x[:, -1] *= 1e-6
    values = [vm(convex_hull(x @ np.linalg.qr(rng.standard_normal((d, d)))[0]),
                 d - 3).value for _ in range(4)]
    assert max(values) - min(values) <= 1e-14 * max(values)


def test_route_table_on_cubes(cubes):
    """Every (d, m) of cube(d): m >= d - 3 is exact, m = 1 at d >= 5 is
    sphere quadrature, and everything else raises naming what is
    supported."""
    coarse = QuadratureSpec(resolution=16)
    for d, c in cubes.items():
        for m in range(1, d + 1):
            if m >= d - 3:
                got = vm(c, m)
                want = math.comb(d, m) * 2.0 ** m
                assert got.exact and abs(got.value - want) <= got.error, (d, m)
            elif m == 1:
                assert not vm(c, m, coarse).exact, d
            else:
                with pytest.raises(UnsupportedMeasure,
                                   match=rf"m = 1 and m = {d - 3}\.\.{d}"):
                    vm(c, m)


# ---------------------------------------------------------------------------
# monotonicity and dispatch


def test_monotonic_under_inclusion(rng, spec3):
    q = random_polytope(rng, 3, 12)
    sub = convex_hull(q.vertices[:6])
    for m in (1, 2, 3):
        assert vm(sub, m, spec3).value <= vm(q, m, spec3).value + 1e-12


def test_unsupported_combination_raises(rng):
    # 2 <= m <= d - 4: V_2 and V_3 of a 7-polytope have no route
    p = random_polytope(rng, 7)
    with pytest.raises(UnsupportedMeasure):
        vm(p, 2, QuadratureSpec.for_dimension(7))
    with pytest.raises(UnsupportedMeasure):
        vm(p, 3, QuadratureSpec.for_dimension(7))


def test_flat_body_reduction(spec3):
    sq = convex_hull(np.array([[0, 0, 1.0], [1, 0, 1.0],
                               [0, 1, 1.0], [1, 1, 1.0]]))
    assert vm(sq, 2, spec3).value == pytest.approx(1.0)
    assert vm(sq, 3, spec3).value == pytest.approx(0.0)
    with pytest.raises(UnsupportedMeasure, match="vm"):
        surface_area(sq)    # flat bodies are measured through vm only


# ---------------------------------------------------------------------------
# flats and the generalized Pythagorean identity


def test_flat_segment_example():
    f = parallelepiped([[1.0, 1.0, 1.0]])
    assert vm(f, 1).value == pytest.approx(math.sqrt(3))
    for i in range(3):
        assert vm(project(f, i), 1).value == pytest.approx(math.sqrt(2))


def test_flat_square_rank_drop():
    f = parallelepiped([[1.0, 0, 0], [0, 1.0, 0]])
    assert vm(f, 2).value == pytest.approx(1.0)
    assert vm(project(f, 2), 2).value == pytest.approx(1.0)
    assert vm(project(f, 0), 2).value == pytest.approx(0.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 6), st.integers(1, 5))
def test_pythagorean_identity_for_flats(seed, n, m):
    """For an m-flat F in R^n, the squared hyperplane-projection measures
    sum to (n - m) times the squared measure of F."""
    if m >= n:
        m = n - 1
    rng = np.random.default_rng(seed)
    f = parallelepiped(rng.standard_normal((m, n)))
    lhs = vm(f, m).value ** 2
    rhs = sum(vm(project(f, i), m).value ** 2 for i in range(n))
    assert rhs == pytest.approx((n - m) * lhs, rel=1e-9), (n, m)


def test_iterated_projections_commute(rng):
    f = parallelepiped(rng.standard_normal((2, 5)))
    a = project(project(f, 4), 0)
    b = project(project(f, 0), 4)
    assert vm(a, 2).value == pytest.approx(vm(b, 2).value, rel=1e-12)


def test_measured_error_fields():
    a = Measured.of_exact(10.0)
    assert a.exact and a.error <= 1e-8
    b = Measured.of_quadrature(10.0, 1e-3)
    assert not b.exact and b.error >= 1e-3


def _vm_zonotope_loop(z, m):
    """Reference: one determinant per generator subset, in subset order."""
    g = z.generators
    gram = g @ g.T
    total = 0.0
    for sub in combinations(range(g.shape[0]), m):
        d = float(np.linalg.det(gram[np.ix_(sub, sub)]))
        if d > 0.0:
            total += math.sqrt(d)
    return (2.0 ** m) * total


def test_vm_zonotope_does_not_depend_on_the_block_size(rng, monkeypatch):
    """The subset pass gives the same bits, V_m and every coordinate
    shadow, when its blocks are shrunk below C(k, m)."""
    g = rng.standard_normal((16, 6))
    g[1] = 2.0 * g[0]
    z = Zonotope(np.zeros(6), g)
    small = Zonotope(np.zeros(5), rng.standard_normal((7, 5)))
    want = {(body.n, m): _zonotope_sums(body.generators, m)
            for body in (z, small) for m in range(1, body.n + 1)}
    assert math.comb(16, 6) > SUBSET_BLOCK
    for block in (1000, 333, 7, 2, 1):
        monkeypatch.setattr(measures, "SUBSET_BLOCK", block)
        for body in (small,) if block < 7 else (z, small):
            for m in range(1, body.n + 1):
                assert _zonotope_sums(body.generators, m) == want[body.n, m], (block, m)


def test_vm_zonotope_matches_the_gram_loop(rng):
    for _ in range(60):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, n + 1))
        k = int(rng.integers(m, 15))
        z = Zonotope(np.zeros(n), rng.standard_normal((k, n)))
        want = _vm_zonotope_loop(z, m)
        assert abs(vm_zonotope(z, m) - want) <= 1e-12 * want, (n, m, k)


def test_zonotope_measures_hold_at_extreme_scales(rng, monkeypatch):
    """The pass scales the generators by a power of 2 before it takes
    minors: V_m(2^e Z) = 2^{e m} V_m(Z) bit for bit for e = -500, -20 and
    500 while |e m| < 1000, and V_m(lam Z) = lam^m V_m(Z) at lam = 1e150
    (m = 2) and 1e70 (m = 4), where the Gram determinant, of size
    lam^{2m}, overflowed to inf.  A value past the double range is inf,
    also when it is summed over several blocks."""
    z = Zonotope(np.zeros(4), rng.standard_normal((7, 4)))
    for m in range(1, 5):
        base = _zonotope_sums(z.generators, m)
        for e in (-500, -20, 500):
            if abs(e * m) < 1000:
                assert vm(Zonotope(np.zeros(4), np.ldexp(z.generators, e)), m).value == \
                    math.ldexp(base[0], e * m), (e, m)
                assert _zonotope_sums(np.ldexp(z.generators, e), m) == \
                    np.ldexp(base, e * m).tolist(), (e, m)
    for lam, m in ((1e150, 2), (1e70, 4)):
        want = lam ** m * vm(z, m).value
        got = vm(Zonotope(np.zeros(4), lam * z.generators), m).value
        assert abs(got - want) <= 1e-12 * want, lam
    monkeypatch.setattr(measures, "SUBSET_BLOCK", 4)
    with np.errstate(over="ignore"):
        assert _zonotope_sums(1e200 * z.generators, 2) == [math.inf] * 5


def _parallel_bodies(rng) -> list:
    """A segment, generators in a plane of R^5 and in a 3-space of R^6."""
    segment = np.outer([1.0, 3.0, -0.7], [0.3, 1.7, -0.9, 2.2])
    plane = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 5))
    space = rng.standard_normal((8, 3)) @ rng.standard_normal((3, 6))
    return [(Zonotope(np.zeros(4), segment), 1), (Zonotope(np.ones(5), plane), 2),
            (Zonotope(np.zeros(6), space), 3)]


def test_parallel_generators_have_no_content(rng):
    """A zonotope whose generators span r dimensions has V_m = 0 for m > r,
    and so has each of its shadows: every such value lies within its
    stated error of 0.  The root of a Gram determinant gave the segment
    V_2 = 1.2e-6, 12,000 times its stated error."""
    for z, r in _parallel_bodies(rng):
        n = z.n
        for m in range(r + 1, n + 1):
            got = vm(z, m)
            assert got.exact and abs(got.value) <= got.error, (n, m, got)
            if m == n:
                continue
            shadows = list(vm_shadows(z, m))
            for u in rng.standard_normal((3, n)):
                shadows.append(vm_projection(z, u, m))
            for got in shadows:
                assert got.exact and abs(got.value) <= got.error, (n, m, got)
        assert vm(z, r).value > 1.0


def _basis(u: np.ndarray) -> np.ndarray:
    """An orthonormal basis of u^perp, as rows."""
    return np.linalg.svd(u[None, :])[2][1:]


@pytest.mark.parametrize("n", range(2, 9))
def test_zonotope_shadows_match_the_projected_zonotopes(n):
    """V_m of every coordinate shadow against vm of the dropped zonotope,
    and of an oblique one against vm of the zonotope whose generators are
    G B^T, B a basis of u^perp: k = 0..12 generators, every 1 <= m <= n-1."""
    rng = np.random.default_rng(80 + n)
    for k in range(13):
        z = Zonotope(rng.standard_normal(n), rng.standard_normal((k, n)))
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        b = _basis(u)
        oblique = Zonotope(z.center @ b.T, z.generators @ b.T)
        for m in range(1, n):
            for i in range(n):
                got = vm_shadows(z, m)[i]
                want = vm(project_drop(z, i), m).value
                assert got.exact and abs(got.value - want) <= 1e-12 * want, (k, m, i)
            got = vm_projection(z, u, m)
            want = vm(oblique, m).value
            assert got.exact and abs(got.value - want) <= 1e-12 * want, (k, m)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_zonotope_shadows_scale_and_follow_signed_permutations(n):
    """V_m(lam Z | e_i^perp) = lam^m V_m(Z | e_i^perp) from 1e-8 to 1e8,
    and a signed permutation of the axes permutes the shadows."""
    rng = np.random.default_rng(90 + n)
    z = Zonotope(rng.standard_normal(n), rng.standard_normal((n + 3, n)))
    perm, signs = rng.permutation(n), rng.choice([-1.0, 1.0], n)
    q = Zonotope(z.center[perm] * signs, z.generators[:, perm] * signs)
    for m in range(1, n):
        base = np.array([v.value for v in vm_shadows(z, m)])
        for lam in (1e-8, 1e-3, 1e3, 1e8):
            scaled = Zonotope(lam * z.center, lam * z.generators)
            got = np.array([v.value for v in vm_shadows(scaled, m)])
            assert np.all(np.abs(got - lam ** m * base) <= 1e-12 * lam ** m * base), (m, lam)
        got = np.array([v.value for v in vm_shadows(q, m)])
        assert np.all(np.abs(got - base[perm]) <= 1e-12 * base[perm]), m


@pytest.mark.parametrize("n", [3, 5, 8])
def test_a_generator_the_shadow_drops_stays_within_the_error(n):
    """A generator along e_i is dropped by project_drop(Z, i), and leaves
    V_m(Z | e_i^perp) as it was bit for bit: every minor of the pass that
    avoids column i is exactly 0 on it.  One whose entries off axis i are
    DEDUP_TOL or less is a generator of the shadow like any other, and the
    pass gives vm of project_drop(Z, i) within 1e-12, on bodies from 1e-3
    to 1e3 in scale."""
    rng = np.random.default_rng(100 + n)
    for scale in (1e-3, 1.0, 1e3):
        z = Zonotope(np.zeros(n), scale * rng.standard_normal((n + 2, n)))
        for i in range(n):
            h = np.zeros(n)
            h[i] = 2.0 * scale
            w = Zonotope(z.center, np.vstack([z.generators, h]))
            assert w.generator_count == z.generator_count + 1
            assert np.array_equal(project_drop(w, i).generators, project_drop(z, i).generators)
            for m in range(1, n):
                assert vm_shadows(w, m)[i].value == vm_shadows(z, m)[i].value, (scale, i, m)
            h = rng.uniform(-DEDUP_TOL, DEDUP_TOL, n)
            h[i] = 2.0 * scale
            w = Zonotope(z.center, np.vstack([z.generators, h]))
            shadow = project_drop(w, i)
            assert shadow.generator_count == z.generator_count + 1
            for m in range(1, n):
                got, want = vm_shadows(w, m)[i], vm(shadow, m).value
                assert got.exact and abs(got.value - want) <= 1e-12 * want, (scale, i, m)


# ---------------------------------------------------------------------------
# per-body cache


def test_cached_vm_equals_a_fresh_copy(rng, spec3):
    p = random_polytope(rng, 3)
    z = Zonotope(np.zeros(4), rng.standard_normal((6, 4)))
    cases = [(p, VPolytope(p.vertices.copy())),
             (z, Zonotope(z.center.copy(), z.generators.copy()))]
    cases += [(project_drop(p, i), project_drop(VPolytope(p.vertices.copy()), i))
              for i in range(3)]
    for body, fresh in cases:
        for m in range(1, body.n + 1):
            first = vm(body, m, spec3)
            assert vm(body, m, spec3) is first
            assert vm(fresh, m, spec3) == first


def test_scaled_and_translated_bodies_do_not_inherit_the_cache(rng, spec3):
    p = random_polytope(rng, 3)
    z = Zonotope(rng.standard_normal(3), rng.standard_normal((5, 3)))
    t = np.array([0.5, -1.0, 2.0])
    for body, scaled in ((p, VPolytope(2.0 * p.vertices)),
                         (z, Zonotope(2.0 * z.center, 2.0 * z.generators))):
        before = [vm(body, m, spec3).value for m in (1, 2, 3)]
        shadows = [project_drop(body, i) for i in range(3)]
        for m, value in zip((1, 2, 3), before):
            assert vm(scaled, m, spec3).value == pytest.approx(2.0 ** m * value, rel=1e-9)
        moved = translate_body(body, t)
        for i, shadow in enumerate(shadows):
            moved_shadow = project_drop(moved, i)
            assert moved_shadow is not shadow
            u = rng.standard_normal(2)
            assert support(moved_shadow, u) == pytest.approx(
                support(shadow, u) + float(np.delete(t, i) @ u), rel=1e-9, abs=1e-9)


def _qhull_failing_body():
    """A 256-vertex unconditional 6-polytope whose hull convex_hull could
    build only joggled (QJ), so it handed none over, and on which plain
    qhull fails ("QH6271 ... wide merge")."""
    rng = np.random.default_rng(3)
    for d in (4, 5, 6):     # the draws of a seeded random-body sweep
        bodies = [Zonotope(np.zeros(d), rng.standard_normal((d + 2, d))) for _ in range(5)]
        bodies += [unconditional_hull(rng.standard_normal((4, d))) for _ in range(5)]
        bodies += [convex_hull(rng.standard_normal((d + 8, d))) for _ in range(5)]
        rng.standard_normal(d)
    return bodies[6]   # the second 6-d unconditional hull


def test_a_polytope_qhull_fails_on_raises_a_convexiq_error():
    """A joggled hull is not exact (its volume is 5.8e-9 relative off), so
    measuring the qhull-failing body refuses with a convexiq error naming
    qhull's."""
    p = _qhull_failing_body()
    assert p.vertex_count == 256 and "qhull" not in vars(p)
    with pytest.raises(UnsupportedOperation, match="qhull failed: QH6271"):
        vm(p, 6)


def test_shadows_and_sections_of_a_polytope_qhull_fails_on_are_hulled():
    """The qhull-failing 6-polytope has no boundary to read its shadows
    and sections off (_on_boundary is False, not an error), so V_5 and
    V_4 of each are vm of its hulled projection: it is mirror symmetric,
    so its sections are its projections."""
    p = _qhull_failing_body()
    assert not _on_boundary(p)
    for i in range(6):
        for m in (5, 4):
            want = vm(project_drop(p, i), m)
            assert vm_shadows(p, m)[i] == want and vm_sections(p, m)[i] == want, (i, m)
    assert vm_shadows(p, 5)[0].value == pytest.approx(41.06838741926223, rel=1e-12)


def test_entry_points_check_their_arguments():
    """vm takes 0 <= m <= n, with V_0 = 1; vm_projection takes m <= n-1
    and a non-zero direction."""
    p = random_polytope(np.random.default_rng(8), 3)
    assert vm(p, 0) == Measured.of_exact(1.0)
    for m in (-1, 4):
        with pytest.raises(InvalidArgument):
            vm(p, m)
    with pytest.raises(InvalidArgument):
        vm_projection(p, [1.0, 0.0, 0.0], 3)
    with pytest.raises(InvalidArgument):
        vm_projection(p, np.zeros(3), 2)


@pytest.mark.parametrize("m", [0, 1, 2])
def test_vm_projection_takes_no_axis(m):
    """vm_projection takes a direction only: an integer axis raises
    InvalidArgument, before anything is derived from the body, while
    +-e_i reads entry i of vm_shadows."""
    p = random_polytope(np.random.default_rng(8), 3)
    for axis in (0, 2, np.int64(1)):
        with pytest.raises(InvalidArgument, match="1-d vector"):
            vm_projection(p, axis, m)
    assert "_derived" not in vars(p)
    for i in range(3):
        assert vm_projection(p, -np.eye(3)[i], m) is vm_shadows(p, m)[i]


@pytest.mark.xfail(strict=True, raises=UnsupportedMeasure, reason=(
    "qhull's triangulation of a hull built from a cloud with many points on "
    "its lower faces, 14 of them kept as vertices, does not close up, so "
    "vm_polytope_angles refuses its V_2 and V_3 (unguarded they came out "
    "2.6% and 7.2% high)"))
def test_angle_route_on_a_hull_with_points_on_lower_faces():
    """The skeleton cut of a 6-d unconditional hull by x_0 = 0, hulled in
    R^5, keeps 14 cut points on lower faces of the section as vertices
    beside its 64 extreme points, which are the projection's since the
    body is mirror symmetric.  Its V_4 and V_5 are the projection's, and
    so must its V_2 and V_3 be (a Kubota Monte Carlo estimate over 10,000
    planes agrees with the projection's within 2 sigma, not the hull's)."""
    body = unconditional_hull(np.random.default_rng(4).standard_normal((2, 6)))
    exact = project_drop(body, 0)
    cut = convex_hull(_cut(body, 0))
    assert (exact.vertex_count, cut.vertex_count) == (64, 78)
    for m in (5, 4, 3, 2):
        assert vm(cut, m).value == pytest.approx(vm(exact, m).value, rel=1e-12)


# ---------------------------------------------------------------------------
# dilates (bodies.scale_body) measured off their source


SCALES = (1e-8, 1e-3, 1e3, 1e8)


def _dilate_cases(n: int) -> list:
    """A random polytope in R^n; for n <= 5 also an unconditional hull, a
    zonotope, whose sections of degree n-1 and n-2 come from its facets,
    the same zonotope with a parallel generator added, whose sections are
    hulled cuts, and a polytope with a vertex on every coordinate plane
    but x_0 = 0."""
    rng = np.random.default_rng(110 + n)
    out = [random_polytope(rng, n)]
    if n <= 5:
        cloud = rng.standard_normal((2 * n + 4, n))
        cloud[0] = 0.0
        cloud[0, 0] = 5.0
        z = random_zonotope(rng, n)
        out += [unconditional_hull(rng.standard_normal((2, n))), z,
                Zonotope(z.center, np.vstack([z.generators, 2.0 * z.generators[:1]])),
                convex_hull(cloud)]
    return out


def _scaled_coordinates(body, lam: float):
    """The body lam K built afresh from scaled coordinates, with no source."""
    if isinstance(body, Zonotope):
        return Zonotope(lam * body.center, lam * body.generators)
    return VPolytope(lam * body.vertices)


def _dilate_calls(n: int) -> list:
    """(function, args, axis) of vm, vm_shadows (entry ``axis``, every
    axis), vm_projection along an oblique u and vm_sections (every axis):
    every degree for n <= 4, m >= n-3 above, where V_1 is quadrature
    (tested on its own).  ``axis`` is None for a single value."""
    u = np.arange(1.0, n + 1.0)
    calls = []
    for m in range(1 if n <= 4 else n - 3, n + 1):
        calls.append((vm, (m,), None))
        if m < n:
            calls += [(vm_shadows, (m,), i) for i in range(n)] + [(vm_projection, (u, m), None)]
            calls += [(vm_sections, (m,), i) for i in range(n)]
    return calls


def _call(f, body, args: tuple, axis: int | None) -> Measured:
    """f(body, *args), or its entry ``axis`` when that is not None."""
    value = f(body, *args)
    return value if axis is None else value[axis]


def _dilate_mismatches(n: int, small_cuts: bool) -> list:
    """The calls on scale_body(K, lam), for every case and scale, whose
    value or exactness differs from the same call on lam K built from
    scaled coordinates by more than 1e-12 relative, or that refuse on
    only one of them.  A section that the body built at 1e-8 hulls as a
    cut is compared only when ``small_cuts`` is set, and then only those;
    every other call is compared when it is not."""
    out, cuts = [], 0
    for body in _dilate_cases(n):
        for lam in SCALES:
            dilate, fresh = scale_body(body, lam), _scaled_coordinates(body, lam)
            source, factor = bodies.dilate_source(dilate)
            assert source is body and factor == lam
            for f, args, i in _dilate_calls(n):
                try:
                    want = _call(f, fresh, args, i)
                except UnsupportedMeasure:
                    try:
                        _call(f, dilate, args, i)
                    except UnsupportedMeasure:
                        continue
                    out.append((f.__name__, args, i, lam, "refused on the fresh body only"))
                    continue
                cut = f is vm_sections and _cut_taken(fresh, i)
                cuts += cut
                if small_cuts != (cut and lam == SCALES[0]):
                    continue
                got = _call(f, dilate, args, i)
                if got.exact != want.exact or \
                        abs(got.value - want.value) > 1e-12 * abs(want.value):
                    out.append((f.__name__, args, i, lam, got.value / want.value - 1.0))
            # the dilate measured nothing itself: it holds only values read off K
            assert "qhull" not in vars(dilate)
            assert set(vars(dilate).get("_derived", {})) <= {
                (call, m, None) for call in ("vm", "vm_shadows", "vm_sections")
                for m in range(n + 1)}
    assert cuts > 0
    return out


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_a_dilate_measures_like_the_body_built_at_scale(n):
    """vm, vm_shadows, vm_sections and an oblique vm_projection of
    scale_body(K, lam), read off K by homogeneity, match the same call on
    lam K built from scaled coordinates within 1e-12, exactness included,
    for lam = 1e-8..1e8; a call that refuses on one refuses on the other.
    The sections that the body built at 1e-8 hulls as cuts are the test
    below."""
    assert _dilate_mismatches(n, small_cuts=False) == []


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_a_dilate_measures_like_the_body_built_at_1e_8_on_the_cut(n):
    """The sections that the body built from 1e-8-scaled coordinates hulls
    as cuts match the dilate's, read off K at unit scale, within 1e-12:
    the cut, the hull's rank cut and its merge of points are relative to
    the points' scale."""
    assert _dilate_mismatches(n, small_cuts=True) == []


def test_a_dilate_measures_an_inexact_v1_itself(monkeypatch):
    """V_1 of a 5-polytope is sphere quadrature: a dilate lam K takes lam
    times K's value and error, bit for bit, with no quadrature of its own
    (the rule is linear in h and h_{lam K} = lam h_K), and its value
    matches the body built from scaled coordinates within 1e-12."""
    p = random_polytope(np.random.default_rng(115), 5)
    spec = QuadratureSpec(resolution=16)
    seen, real = [], measures.v1_quadrature

    def recording(body, spec=None):
        seen.append(body)
        return real(body, spec)

    monkeypatch.setattr(measures, "v1_quadrature", recording)
    source = vm(p, 1, spec)
    for lam in SCALES:
        dilate = scale_body(p, lam)
        got, want = vm(dilate, 1, spec), vm(_scaled_coordinates(p, lam), 1, spec)
        assert got == Measured(lam * source.value, lam * source.error, False), lam
        assert abs(got.value - want.value) <= 1e-12 * want.value, lam
    assert not any(bodies.dilate_source(body) for body in seen)
    assert sum(body is p for body in seen) == 1


def test_dilates_of_a_dilate_and_dropped_generators():
    """A dilate of a dilate reads off the dilate it scales; factor 0, a
    ball and a zonotope that loses a generator to underflow remember no
    source; io reads a dilate back with none."""
    p = random_polytope(np.random.default_rng(116), 4)
    twice = scale_body(scale_body(p, 1e3), 1e-3)
    once, factor = bodies.dilate_source(twice)
    assert factor == 1e-3 and bodies.dilate_source(once)[0] is p
    for m in range(1, 5):
        assert vm(twice, m).value == pytest.approx(vm(p, m).value, rel=1e-13)
    z = Zonotope(np.zeros(3), [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1e-300]])
    assert bodies.dilate_source(scale_body(z, 1e-30)) is None
    assert scale_body(z, 1e-30).generator_count == 2
    assert bodies.dilate_source(scale_body(z, 1e-7))[0] is z
    for lost in (scale_body(p, 0.0), scale_body(ball(3), 2.0),
                 io.loads_body(io.dumps_body(scale_body(p, 2.0)))):
        assert bodies.dilate_source(lost) is None


# ---------------------------------------------------------------------------
# bodies built afresh at scale, translated and signed-permuted


def _exact_measures(p) -> dict:
    """{(call, axis, m): value} of a polytope P in R^n: vm for m >= n-3
    (V_1 of a 5-polytope is quadrature), and entry i of vm_shadows and
    vm_sections and vm of the hulled cut section_drop(P, i) along every
    axis i for 1 <= m <= n-1."""
    n = p.n
    out = {("vm", None, m): vm(p, m) for m in range(max(1, n - 3), n + 1)}
    for i in range(n):
        cut = section_drop(p, i)
        for m in range(1, n):
            out["projection", i, m] = vm_shadows(p, m)[i]
            out["section", i, m] = vm_sections(p, m)[i]
            out["cut", i, m] = Measured.of_exact(0.0) if cut is EMPTY else vm(cut, m)
    return out


def _off_by(got: Measured, want: float) -> bool:
    """Whether got is inexact or more than 1e-12 relative off want."""
    return not got.exact or abs(got.value - want) > 1e-12 * abs(want)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(3, 5), e=st.integers(-12, 8))
def test_hulls_and_measures_scale_translate_and_permute(seed, n, e):
    """Built afresh from the points lam P, lam = 10^e, a random cloud's
    hull keeps the vertex count and affine dimension of P's, and every
    exact V_m of it, of its coordinate shadows and of its sections, the
    hulled cuts included, is lam^m times P's within 1e-12.  Translating
    lam P keeps its vm and vm_shadows; a signed permutation g gives
    the same vm, and axis i of g(lam P) has the shadow and section of
    axis perm[i] of lam P."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((int(rng.integers(n + 2, 3 * n)), n))
    lam = 10.0 ** e
    p, scaled = convex_hull(pts), convex_hull(lam * pts)
    assert (scaled.vertex_count, bodies.affine_dim(scaled)) == (p.vertex_count, bodies.affine_dim(p))
    moved = translate_body(scaled, lam * rng.standard_normal(n))
    g = random_signed_permutation(n, rng)
    _assert_homogeneous(_exact_measures(p), lam, _exact_measures(scaled), moved,
                        _exact_measures(convex_hull(g.apply_points(lam * pts))), g.perm)


def _assert_homogeneous(base: dict, lam: float, scaled: dict, moved, image: dict, perm):
    """Every value of ``base`` (a body's exact measures, keyed (call, axis,
    m)) is exact, and ``scaled``'s is lam^m times it within 1e-12.  The
    translate ``moved`` of the scaled body has the same vm and
    vm_shadows, and ``image``, the scaled body's signed permutation,
    the same vm and along axis i the values of axis perm[i]."""
    assert all(value.exact for value in base.values())
    want = {key: lam ** key[2] * value.value for key, value in base.items()}
    assert [key for key, value in scaled.items() if _off_by(value, want[key])] == []
    for (call, i, m), value in want.items():
        if call == "vm":
            assert not _off_by(vm(moved, m), value), (call, i, m)
        elif call == "projection":
            assert not _off_by(vm_shadows(moved, m)[i], value), (call, i, m)
    assert [(call, i, m) for (call, i, m), value in image.items()
            if _off_by(value, want[call, None if i is None else perm[i], m])] == []


def _zonotope_measures(z) -> dict:
    """{(call, axis, m): value} of a zonotope Z in R^n: vm for 1 <= m <= n,
    and entry i of vm_shadows and vm_sections along every axis i for
    1 <= m <= n-1."""
    n = z.n
    out = {("vm", None, m): vm(z, m) for m in range(1, n + 1)}
    for i in range(n):
        for m in range(1, n):
            out["projection", i, m] = vm_shadows(z, m)[i]
            out["section", i, m] = vm_sections(z, m)[i]
    return out


@example(seed=0, n=3, e=-12)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(3, 5), e=st.integers(-12, 8))
def test_zonotopes_scale_translate_and_permute(seed, n, e):
    """Built afresh as Zonotope(lam c, lam G), lam = 10^e, a random
    zonotope keeps its generator count, and every V_m of it, of its
    coordinate shadows and of its sections is lam^m times Z's within
    1e-12.  Translating it keeps its vm and vm_shadows; a signed
    permutation g gives the same vm, and axis i of g(lam Z) has the
    shadow and section of axis perm[i] of lam Z."""
    rng = np.random.default_rng(seed)
    c = 0.3 * rng.standard_normal(n)
    gens = rng.standard_normal((int(rng.integers(n, n + 4)), n))
    lam = 10.0 ** e
    z, scaled = Zonotope(c, gens), Zonotope(lam * c, lam * gens)
    assert scaled.generator_count == z.generator_count
    moved = translate_body(scaled, lam * rng.standard_normal(n))
    g = random_signed_permutation(n, rng)
    _assert_homogeneous(_zonotope_measures(z), lam, _zonotope_measures(scaled), moved,
                        _zonotope_measures(Zonotope(g.apply(lam * c), g.apply_points(lam * gens))),
                        g.perm)


# ---------------------------------------------------------------------------
# coordinate shadows from the body's boundary (measures.vm_shadows, vm_projection)


def _shadow_bodies(n: int) -> list:
    """Random, rounded-coordinate and unconditional hulls, a box and a
    prism (facets parallel to an axis), an expanded zonotope and a
    symmetral in R^n."""
    rng = np.random.default_rng(60 + n)
    base = convex_hull(rng.standard_normal((n + 4, n - 1)))
    prism = np.vstack([np.c_[base.vertices, np.zeros(base.vertex_count)],
                       np.c_[base.vertices, np.full(base.vertex_count, 0.7)]])
    sides = rng.uniform(0.5, 2.0, n)
    out = [convex_hull(rng.standard_normal((n + 6, n))),
           convex_hull(np.round(rng.standard_normal((3 * n + 6, n)), 1)),
           unconditional_hull(rng.standard_normal((2, n))),
           translate_body(as_vpolytope(cube(n)), rng.standard_normal(n)),
           convex_hull(as_vpolytope(cube(n)).vertices * sides + 0.3),
           convex_hull(prism),
           as_vpolytope(random_zonotope(rng, n))]
    if n == 3:
        out.append(g_symmetral(convex_hull(rng.standard_normal((4, 3)))))
    elif n <= 5:
        out.append(g_symmetral(unconditional_hull(np.abs(rng.standard_normal((1, n))) + 0.1)))
    return out


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_shadows_from_the_boundary_match_the_hull_route(n):
    """V_{n-1} and V_{n-2} of every coordinate shadow and of two oblique
    ones, read off K's triangulation, against vm of the hulled projection."""
    rng = np.random.default_rng(n)
    for p in _shadow_bodies(n):
        assert _on_boundary(p)
        for m in (n - 1, n - 2):
            for i in range(n):
                got = vm_shadows(p, m)[i]
                want = vm(project_drop(p, i), m).value
                assert got.exact and abs(got.value - want) <= 1e-12 * want, (i, m)
            for u in rng.standard_normal((2, n)):
                got = vm_projection(p, u, m)
                want = vm(project_along(p, u / np.linalg.norm(u)), m).value
                assert got.exact and abs(got.value - want) <= 1e-12 * want, (u, m)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_shadows_of_boxes(n):
    """The shadow of a box along e_i is the box of the other sides b:
    V_{n-1} is their product and V_{n-2} their (n-2)-th elementary
    symmetric sum; cube(n) has 2^{n-1} and (n-1) 2^{n-2}."""
    rng = np.random.default_rng(n)
    for sides in (np.full(n, 2.0), rng.uniform(0.2, 3.0, n)):
        box = convex_hull(as_vpolytope(cube(n)).vertices * sides / 2.0 + rng.standard_normal(n))
        for i in range(n):
            b = np.delete(sides, i)
            want = {n - 1: np.prod(b),
                    n - 2: sum(np.prod(c) for c in combinations(b, n - 2))}
            for m in (n - 1, n - 2):
                if m >= 1:
                    got = vm_shadows(box, m)[i].value
                    assert abs(got - want[m]) <= 1e-13 * want[m], (sides, i, m)
    # the cube's shadow along its main diagonal is a regular hexagon of
    # side 2 sqrt(2/3)
    u = np.ones(3)
    assert vm_projection(cube(3), u, 2).value == pytest.approx(4.0 * math.sqrt(3.0), rel=1e-14)
    assert vm_projection(cube(3), u, 1).value == pytest.approx(2.0 * math.sqrt(6.0), rel=1e-14)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_shadows_scale_and_follow_signed_permutations(n):
    """V_m(lam K | e_i^perp) = lam^m V_m(K | e_i^perp) from 1e-8 to 1e8,
    and a signed permutation of the axes permutes the shadows."""
    rng = np.random.default_rng(20 + n)
    p = convex_hull(rng.standard_normal((2 * n + 2, n)))
    perm, signs = rng.permutation(n), rng.choice([-1.0, 1.0], n)
    q = convex_hull(p.vertices[:, perm] * signs)   # axis j of q is axis perm[j] of p
    for m in (n - 1, n - 2):
        base = np.array([v.value for v in vm_shadows(p, m)])
        for lam in (1e-8, 1e-3, 1e3, 1e8):
            scaled = VPolytope(lam * p.vertices)
            got = np.array([v.value for v in vm_shadows(scaled, m)])
            assert np.all(np.abs(got - lam ** m * base) <= 1e-12 * lam ** m * base), lam
        got = np.array([v.value for v in vm_shadows(q, m)])
        assert np.all(np.abs(got - base[perm]) <= 1e-12 * base[perm])


def test_shadows_of_a_hull_that_does_not_close_take_the_hull_route():
    """The cut hull of the strict xfail below fails the closure check:
    its shadows come from hulled projections and match the true
    section's, which read off the cut hull's boundary would be over 1%
    off; its angle route refuses."""
    body = unconditional_hull(np.random.default_rng(4).standard_normal((2, 6)))
    exact = project_drop(body, 0)
    cut = convex_hull(_cut(body, 0))
    assert exact.vertex_count == 64 and _boundary(exact)[1]
    assert not _boundary(cut)[1]
    assert not _on_boundary(cut)
    for m in (4, 3):
        wrong = _shadows(cut, None, m)
        for i in range(5):
            got = vm_shadows(cut, m)[i]
            assert got.value == vm(project_drop(cut, i), m).value
            want = vm_shadows(exact, m)[i].value
            assert abs(got.value - want) <= 1e-12 * want
            assert abs(wrong[i] - want) > 1e-2 * want
    assert vars(cut)["_derived"]["shadows"] is None   # cached, so not tried again
    with pytest.raises(UnsupportedMeasure, match="does not close"):
        vm_polytope_angles(cut, 3)


def test_shadows_of_nearly_vertical_prisms():
    """A hexagonal prism whose top is its base H shifted by (eps, 0, 1),
    eps = 3e-11: its shadow along e_3 is H + [0, eps e_1], with area
    A + eps w_2 and V_1 = L/2 + eps (w_j the extent of H along e_j, L its
    perimeter); along e_1 it is a w_2 x 1 rectangle, along e_2 a
    parallelogram of base w_1 and height 1.  The boundary route keeps the
    eps terms to roundoff; the hull route merges the top and bottom
    points of the e_3 shadow (1e-10 dedup) and falls short by up to
    4.5e-11 relative, inside both routes' stated error."""
    rng = np.random.default_rng(31)
    eps = 3e-11
    for _ in range(10):
        t = np.sort(rng.uniform(0.0, 2.0 * np.pi, 6))
        x, y = np.cos(t), np.sin(t)
        base = np.column_stack([x, y, np.zeros(6)])
        p = convex_hull(np.vstack([base, base + [eps, 0.0, 1.0]]))
        area = 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))
        perimeter = float(np.sum(np.hypot(x - np.roll(x, -1), y - np.roll(y, -1))))
        w1, w2 = np.ptp(x), np.ptp(y)
        want = {(2, 2): area + eps * w2, (2, 1): perimeter / 2.0 + eps,
                (0, 2): w2, (0, 1): w2 + 1.0, (1, 2): w1, (1, 1): w1 + math.hypot(1.0, eps)}
        for (i, m), value in want.items():
            got = vm_shadows(p, m)[i]
            assert abs(got.value - value) <= 1e-14 * value, (i, m)
            assert abs(got.value - value) <= got.error


# ---------------------------------------------------------------------------
# coordinate sections from the body's boundary (measures.vm_sections)


def _cut_route(p, i: int, m: int) -> Measured:
    """V_m of the hulled skeleton cut, exact 0 when the plane misses p."""
    s = section_drop(p, i)
    return Measured.of_exact(0.0) if s is EMPTY else vm(s, m)


def _cut_taken(p, i: int) -> bool:
    """Whether p's section by x_i = 0 has been hulled."""
    return ("section_drop", i) in vars(p).get("_derived", {})


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_sections_from_the_boundary_match_the_cut_route(n):
    """V_{n-1} and V_{n-2} of every coordinate section, read off K's
    triangulation with no section hulled, against vm of the hulled
    skeleton cut.  Planes through a vertex (the rounded body and the
    prism's base) take the same route, and a mirror-symmetric body's
    section is its shadow."""
    taken = 0
    for p in _shadow_bodies(n):
        assert _on_boundary(p)
        for i in range(n):
            mirror = mirror_symmetric(p, i)
            got = {m: vm_sections(p, m)[i] for m in (n - 1, n - 2)}
            assert not _cut_taken(p, i)
            for m, value in got.items():
                if mirror:
                    assert value == vm_shadows(p, m)[i]
                want = _cut_route(p, i, m).value
                assert value.exact and abs(value.value - want) <= 1e-12 * want, (i, m)
            taken += not mirror
    assert taken >= 4 * n


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_sections_of_boxes(n):
    """A box that the plane x_i = 0 crosses has as section the box of
    its other sides b: V_{n-1} is their product and V_{n-2} their
    (n-2)-th elementary symmetric sum."""
    rng = np.random.default_rng(40 + n)
    for sides in (np.full(n, 2.0), rng.uniform(0.2, 3.0, n)):
        shift = rng.uniform(-0.4, 0.4, n) * sides
        box = convex_hull(as_vpolytope(cube(n)).vertices * sides / 2.0 + shift)
        for i in range(n):
            b = np.delete(sides, i)
            want = {n - 1: np.prod(b),
                    n - 2: sum(np.prod(c) for c in combinations(b, n - 2))}
            for m in (n - 1, n - 2):
                got = vm_sections(box, m)[i].value
                assert abs(got - want[m]) <= 1e-13 * want[m], (sides, i, m)
            assert not _cut_taken(box, i)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_sections_scale_and_follow_signed_permutations(n):
    """V_m(lam K ∩ e_i^perp) = lam^m V_m(K ∩ e_i^perp) from 1e-8 to 1e8,
    and a signed permutation of the axes permutes the sections.  No
    vertex lies on a plane, so no section is hulled, though at 1e-8 some
    lie within 1e-10 of one (n = 5, 6)."""
    rng = np.random.default_rng(30 + n)
    p = convex_hull(rng.standard_normal((2 * n + 2, n)))
    perm, signs = rng.permutation(n), rng.choice([-1.0, 1.0], n)
    q = convex_hull(p.vertices[:, perm] * signs)   # axis j of q is axis perm[j] of p
    for m in (n - 1, n - 2):
        base = np.array([v.value for v in vm_sections(p, m)])
        assert np.all(base > 0)
        for lam in (1e-8, 1e-3, 1e3, 1e8):
            scaled = VPolytope(lam * p.vertices)
            got = np.array([v.value for v in vm_sections(scaled, m)])
            assert np.all(np.abs(got - lam ** m * base) <= 1e-12 * lam ** m * base), lam
            assert not any(_cut_taken(scaled, i) for i in range(n))
        got = np.array([v.value for v in vm_sections(q, m)])
        assert np.all(np.abs(got - base[perm]) <= 1e-12 * base[perm])


def test_section_fallbacks_give_the_cut_route_bytes():
    """A vertex on the plane stays on the boundary route, within 1e-12 of
    the hulled cut and with no hull; a plane that misses the body gives
    an exact 0, as the empty cut does, with no hull; a triangulation that
    does not close up (the strict xfail's cut hull) sends the section to
    the hulled cut, byte for byte."""
    rng = np.random.default_rng(7)
    for n in (3, 4, 5):
        cloud = rng.standard_normal((2 * n + 4, n))
        cloud[0] = 0.0
        cloud[0, 0] = 5.0   # an extreme point on every plane but x_0 = 0
        p = convex_hull(cloud)
        for i in range(n):
            got = [vm_sections(p, m)[i] for m in (n - 1, n - 2)]
            assert not _cut_taken(p, i)
            want = [_cut_route(p, i, m) for m in (n - 1, n - 2)]
            assert got[0].value == pytest.approx(want[0].value, rel=1e-12)
            assert got[1].value == pytest.approx(want[1].value, rel=1e-12)
        for i in range(n):
            t = np.zeros(n)
            t[i] = 10.0
            moved = translate_body(p, t)
            for m in (n - 1, n - 2):
                assert vm_sections(moved, m)[i] == Measured.of_exact(0.0)
            assert not _cut_taken(moved, i) and _cut_route(moved, i, n - 1).value == 0.0
    body = unconditional_hull(np.random.default_rng(4).standard_normal((2, 6)))
    cut = convex_hull(_cut(body, 0))
    assert not _boundary(cut)[1]
    for i in range(5):
        assert not mirror_symmetric(cut, i)
        for m in (4, 3):
            assert vm_sections(cut, m)[i] == _cut_route(cut, i, m)
    assert vars(cut)["_derived"]["sections"] is None


def _on_plane_bodies(n: int) -> list:
    """(body, axes whose planes it touches in a face below dimension
    n-2 or misses) for polytopes in R^n with vertices on coordinate
    planes: a cloud with a vertex on every plane but x_0 = 0 and one more
    on a random plane, a half-integer cloud, a box with a facet on every
    plane x_i = 0 (above it on some axes, below on the others), a cloud
    touching every plane at a vertex from above and one from below, a
    cloud whose plane x_0 = 0 holds one of its edges, and clouds that
    miss the planes."""
    rng = np.random.default_rng(90 + n)
    cloud = rng.standard_normal((2 * n + 4, n))
    cloud[0] = 0.0
    cloud[0, 0] = 5.0
    cloud[1, rng.integers(0, n)] = 0.0
    half = np.round(2.0 * rng.standard_normal((3 * n + 6, n))) / 2.0
    sides, signs = rng.uniform(0.5, 2.0, n), rng.choice([-1.0, 1.0], n)
    box = as_vpolytope(cube(n)).vertices * sides / 2.0 + signs * sides / 2.0
    corner = convex_hull(rng.standard_normal((2 * n + 4, n))).vertices
    edge = rng.standard_normal((2 * n + 4, n))
    edge[:, 0] = np.abs(edge[:, 0]) + 0.1
    edge[:2, 0] = 0.0
    every = list(range(n))
    out = [(convex_hull(cloud), []), (convex_hull(half), []), (convex_hull(box), []),
           (VPolytope(corner - corner.min(axis=0)), every),
           (VPolytope(corner - corner.max(axis=0)), every),
           (convex_hull(edge), [0] if n > 3 else [])]
    out += [(translate_body(convex_hull(cloud), 10.0 * sign * np.ones(n)), every)
            for sign in (-1.0, 1.0)]
    return out


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_sections_through_vertices_take_the_boundary_route(n):
    """Planes through vertices, facets on the planes, planes that touch K
    and planes that miss it: V_{n-1} and V_{n-2} of every section is read
    off K's triangulation with no section hulled, and matches vm of the
    hulled skeleton cut within 1e-12 relative (to the body's size where
    the cut gives 0, as for V_2 of a 3-polytope's edge).  A plane that
    touches K in a face below dimension n-2, or misses it, gives exactly
    0."""
    on_plane = 0
    for p, zero in _on_plane_bodies(n):
        assert _on_boundary(p)
        size = np.ptp(p.vertices, axis=0).max()
        for i in range(n):
            assert not mirror_symmetric(p, i)
            on_plane += bool(np.any(p.vertices[:, i] == 0.0))
            got = {m: vm_sections(p, m)[i] for m in (n - 1, n - 2)}
            assert not _cut_taken(p, i)
            for m, value in got.items():
                want = _cut_route(p, i, m).value
                if i in zero:
                    assert value == Measured.of_exact(0.0) and want == 0.0, (i, m)
                assert value.exact, (i, m)
                assert abs(value.value - want) <= 1e-12 * (want or size ** m), (i, m)
    assert on_plane >= 4 * n


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_sections_through_a_vertex_are_homogeneous(n):
    """V_m(lam K ∩ e_i^perp) = lam^m V_m(K ∩ e_i^perp) at 1e-12 for
    m = n-1, n-2 and lam = 1e-8..1e8, on bodies built from scaled
    coordinates with a vertex on coordinate planes; the planes that miss
    K give 0 at every scale.  The hulled skeleton cuts of these sections,
    with their absolute tolerances, are up to 2.35e-2 off at 1e-8."""
    rng = np.random.default_rng(7)
    compared = 0
    for _ in range(10):
        cloud = rng.standard_normal((2 * n + 4, n))
        cloud[0] = 0.0
        cloud[0, 0] = 5.0
        if n > 3:
            cloud[1, 1:] = 0.0
        cloud[2, rng.integers(0, n)] = 0.0
        p = convex_hull(cloud)
        calls = [(i, m) for i in range(n) if not mirror_symmetric(p, i) for m in (n - 1, n - 2)]
        base = {(i, m): vm_sections(p, m)[i].value for i, m in calls}
        for lam in (1e-8, 1e-6, 1e6, 1e8):
            scaled = VPolytope(lam * p.vertices)
            for i, m in calls:
                got, want = vm_sections(scaled, m)[i], lam ** m * base[i, m]
                assert got.exact and abs(got.value - want) <= 1e-12 * want, (i, m, lam)
        compared += sum(value > 0.0 for value in base.values())
    assert compared >= 15 * n


def test_vm_section_validates_the_degree():
    """Every body answers a degree outside 0..n-1 with InvalidArgument,
    before any route: a polytope the plane misses, a dilate, a zonotope
    and a ball."""
    rng = np.random.default_rng(12)
    cases = [translate_body(cube(3), [5.0, 0.0, 0.0]),
             VPolytope(as_vpolytope(cube(3)).vertices + [5.0, 0.0, 0.0]),
             scale_body(random_polytope(rng, 3), 2.0),
             random_zonotope(rng, 3), ball(3)]
    for body in cases:
        for m in (-1, 3, 7):
            with pytest.raises(InvalidArgument, match="need 0 <= m <= 2"):
                vm_sections(body, m)
    assert vm_sections(cases[1], 0)[0] == Measured.of_exact(0.0)
    assert vm_sections(cases[1], 2)[0] == Measured.of_exact(0.0)


# ---------------------------------------------------------------------------
# coordinate sections of a zonotope from its facets (measures._zonotope_sections)


def _hulls_counted(monkeypatch) -> list:
    """The shapes of the clouds every later convex_hull call, through
    bodies and coordops, is given."""
    hulls, real = [], bodies.convex_hull

    def counting(points):
        hulls.append(np.shape(points))
        return real(points)

    monkeypatch.setattr(bodies, "convex_hull", counting)
    monkeypatch.setattr(coordops, "convex_hull", counting)
    return hulls


def _facet_route_taken(z, n: int, m: int) -> list:
    """vm_sections(z, m) for m = n-1 or n-2, asserting that it reached no
    skeleton and no section_drop of z."""
    got = vm_sections(z, m)
    derived = set(vars(z)["_derived"])
    assert "skeleton" not in derived and not any(_cut_taken(z, i) for i in range(n))
    assert vars(z)["_derived"]["sections"] is not None
    return list(got)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_zonotope_sections_from_the_facets_match_the_cut_route(n, monkeypatch):
    """V_{n-1} and V_{n-2} of every coordinate section of a zonotope in
    general position, read off its facets with no hull, skeleton or
    section_drop, match vm of the hulled skeleton cut within 1e-12
    relative; its dilates by 1e-8 and 1e8, read off it, and the same
    zonotope built from scaled coordinates, measured on its own facets,
    are homogeneous at 1e-12."""
    rng = np.random.default_rng(300 + n)
    cases = [Zonotope(0.4 * rng.standard_normal(n), rng.standard_normal((k, n)))
             for k in range(n, n + 4)]
    hulls = _hulls_counted(monkeypatch)
    got = {(j, m): _facet_route_taken(z, n, m) for j, z in enumerate(cases) for m in (n - 1, n - 2)}
    assert hulls == []
    for lam in (1e-8, 1e8):
        for j, z in enumerate(cases):
            fresh = Zonotope(lam * z.center, lam * z.generators)
            for m in (n - 1, n - 2):
                want = np.array([v.value for v in got[j, m]]) * lam ** m
                for values in (vm_sections(scale_body(z, lam), m), _facet_route_taken(fresh, n, m)):
                    assert all(v.exact for v in values)
                    assert np.all(np.abs([v.value for v in values] - want) <= 1e-12 * want)
    assert hulls == []
    monkeypatch.undo()
    crossed = 0
    for (j, m), values in got.items():
        for i, value in enumerate(values):
            want = _cut_route(cases[j], i, m).value
            assert value.exact and abs(value.value - want) <= 1e-12 * want, (j, m, i)
            crossed += want > 0.0
    assert crossed >= 7 * n


def _integer_zonotope(rng, n: int, flat: int | None) -> Zonotope:
    """A zonotope with n + 2 integer generators in general position (every
    n x n determinant a nonzero integer), the first with coordinate
    ``flat`` 0 when that is not None, centered so that a vertex that is
    not the lowest or the highest on x_0 lies on x_0 = 0, the plane
    x_1 = 0 touches it from above and x_2 = 0 misses it."""
    while True:
        g = rng.integers(-3, 4, (n + 2, n)).astype(float)
        if flat is not None:
            g[0, flat] = 0.0
        dets = [np.linalg.det(g[list(s)]) for s in combinations(range(n + 2), n)]
        if min(abs(d) for d in dets) < 0.5 or not np.all(np.any(g != 0.0, axis=1)):
            continue
        vertex = np.sign(g @ rng.standard_normal(n)) @ g
        reach = np.abs(g).sum(axis=0)
        if abs(vertex[0]) == reach[0]:
            continue
        c = np.zeros(n)
        c[:3] = -vertex[0], reach[1], reach[2] + 1.0
        return Zonotope(c, g)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_zonotope_sections_through_vertices_from_the_facets(n):
    """Integer zonotopes in general position, with and without a
    generator in each plane x_i = 0: a plane through a vertex, a plane
    that touches Z in a vertex or an edge and a plane that misses it take
    the facet route, within 1e-12 relative of the hulled cut (exactly 0
    where the cut is a point or empty)."""
    rng = np.random.default_rng(320 + n)
    for flat in (None, 0, 1, 2):
        z = _integer_zonotope(rng, n, flat)
        got = {m: _facet_route_taken(z, n, m) for m in (n - 1, n - 2)}
        for m, values in got.items():
            for i, value in enumerate(values):
                want = _cut_route(z, i, m).value
                assert value.exact and abs(value.value - want) <= 1e-12 * want, (flat, m, i)
            assert values[0].value > 0.0 and values[2] == Measured.of_exact(0.0)
        assert vm_sections(z, 0)[:3] == (Measured.of_exact(1.0),) * 2 + (Measured.of_exact(0.0),)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_zonotopes_with_zero_determinants_take_the_cut_route(n):
    """The section cases of test_coordops: the parallel-generator one and
    the integer one (for n <= 5) have n generators with determinant
    exactly 0, so they are not in general position and their sections
    are the hulled cuts; the others (the integer one at n = 6 too, whose
    determinants are nonzero integers) take the facet route.  Both match
    the cut."""
    from test_coordops import _section_cases
    cut = 0
    for z in _section_cases(n, np.random.default_rng(200 + n)):
        g = z.generators
        zero = min(abs(np.linalg.det(g[list(s)])) for s in combinations(range(len(g)), n)) < 1e-9
        got = {m: vm_sections(z, m) for m in (n - 1, n - 2)}
        assert (vars(z)["_derived"]["sections"] is None) == zero
        assert all(_cut_taken(z, i) for i in range(n)) == zero
        for m, values in got.items():
            want = [_cut_route(z, i, m) for i in range(n)]
            if zero:
                assert list(values) == want
            assert all(abs(v.value - w.value) <= 1e-12 * w.value for v, w in zip(values, want))
        cut += zero
    assert cut == (2 if n <= 5 else 1)


def test_zonotope_section_blocks_do_not_change_the_values(monkeypatch):
    """One facet pair and one determinant per block give the values of
    one block, within roundoff; past MAX_SUBSETS facets the sections are
    refused."""
    rng = np.random.default_rng(340)
    cases = [Zonotope(0.3 * rng.standard_normal(n), rng.standard_normal((n + 3, n)))
             for n in (3, 4, 5)]
    want = [measures._zonotope_sections(z) for z in cases]
    monkeypatch.setattr(measures, "SECTION_BLOCK", 1)
    monkeypatch.setattr(measures, "SUBSET_BLOCK", 1)
    for z, values in zip(cases, want):
        got = measures._zonotope_sections(z)
        for m, v in values.items():
            assert np.all(np.abs(got[m] - v) <= 1e-14 * v)
    monkeypatch.setattr(measures, "MAX_SUBSETS", 2 * math.comb(6, 2) - 1)
    with pytest.raises(UnsupportedMeasure, match="enumeration guard"):
        vm_sections(Zonotope(np.zeros(3), rng.standard_normal((6, 3))), 2)


def test_v0_of_a_zonotope_section_in_closed_form():
    """V_0 of a zonotope's section is 1 exactly when |c_i| <= sum_l |g_li|,
    with no sign point, so it is measured past 16 generators; with 16 or
    fewer it agrees with the skeleton cut, a plane that touches Z
    included."""
    z = Zonotope(np.array([0.0, 30.0, 0.0]), np.random.default_rng(1).standard_normal((17, 3)))
    one, zero = Measured.of_exact(1.0), Measured.of_exact(0.0)
    assert vm_sections(z, 0) == (one, zero, one)
    rng = np.random.default_rng(350)
    cases = []
    for n in (3, 4, 5):
        for k in (n, n + 3, 16):
            g = rng.standard_normal((k, n))
            cases.append(Zonotope(rng.uniform(-1.5, 1.5, n) * np.abs(g).sum(axis=0), g))
            ints = rng.integers(-2, 3, (k, n)).astype(float)
            reach = np.abs(ints).sum(axis=0)
            cases += [Zonotope(reach * sign, ints) for sign in (-1.0, 1.0)]
    touched = 0
    for z in cases:
        reach = np.abs(z.generators).sum(axis=0)
        touched += int(np.sum(np.abs(z.center) == reach))
        want = tuple(Measured.of_exact(float(_cut(z, i) is not None)) for i in range(z.n))
        assert vm_sections(z, 0) == want
        assert want == tuple(Measured.of_exact(float(abs(c) <= r))
                             for c, r in zip(z.center, reach))
    assert touched >= 6 * (3 + 4 + 5)


@pytest.mark.parametrize("n", [3, 4])
def test_zonotope_sections_past_16_generators(n, monkeypatch):
    """With 17 generators the facet route measures V_{n-1} and V_{n-2} of
    every section, where the skeleton cut refuses; it matches that cut,
    let through for the reference only, within 1e-12."""
    rng = np.random.default_rng(360 + n)
    z = Zonotope(0.5 * rng.standard_normal(n), rng.standard_normal((17, n)))
    got = {m: vm_sections(z, m) for m in (n - 1, n - 2)}
    with pytest.raises(UnsupportedOperation, match="2\\*\\*17"):
        vm_sections(z, n - 3) if n > 3 else section_drop(z, 0)
    monkeypatch.setattr(bodies, "MAX_ZONOTOPE_EXPAND_GENERATORS", 17)
    reference = Zonotope(z.center, z.generators)
    for m, values in got.items():
        for i, value in enumerate(values):
            want = _cut_route(reference, i, m).value
            assert value.exact and abs(value.value - want) <= 1e-12 * want, (m, i)


def test_a_16_generator_section_leaves_nothing_allocated():
    """The 2**16 sign points and cube edges of a 16-generator zonotope
    (8 MB each) are held by the body alone (bodies.derived): once the
    body and its section are gone, under 1 MB stays allocated."""
    rng = np.random.default_rng(380)
    z = Zonotope(np.zeros(4), rng.standard_normal((16, 4)))
    tracemalloc.start()
    try:
        section_drop(z, 0)
        assert tracemalloc.get_traced_memory()[1] > 16e6
        del z
        gc.collect()
        assert tracemalloc.get_traced_memory()[0] < 1e6
    finally:
        tracemalloc.stop()


def test_easy_bounds_on_a_5_zonotope_hulls_nothing(monkeypatch):
    """easy_bounds at m = n-2 on a generic 5-zonotope measures every
    section from the zonotope's facets: no convex_hull call."""
    from convexiq import inequalities
    z = random_zonotope(np.random.default_rng(370), 5)
    hulls = _hulls_counted(monkeypatch)
    report = inequalities.evaluate("easy_bounds", z, m=3)
    assert report.satisfied and hulls == []


# ---------------------------------------------------------------------------
# the n coordinate values of one degree (measures.vm_shadows, vm_sections)


def _bits(x: Measured) -> tuple:
    return x.value.hex(), x.error.hex(), x.exact


def _route_shadow(body, i: int, m: int, spec) -> Measured:
    """V_m(K | e_i^perp) by the route axis i takes on body itself: the
    zonotope pass, the boundary shadows (read from the body's cache by
    _off_boundary, as computing them again gives the same bits), or vm of
    the hulled projection, which also gives V_0 here (the library takes
    it as an exact 1 with no hull)."""
    body = bodies.resolve(body)
    if isinstance(body, Zonotope) and m >= 1:
        return Measured.of_exact(_zonotope_pass(body, m)[1 + i])
    if isinstance(body, VPolytope) and m >= 1 and body.n - m in (1, 2) and _on_boundary(body):
        return _off_boundary(body, "shadows", i, m)
    return vm(project_drop(body, i), m, spec)


def _route_section(body, i: int, m: int, spec) -> Measured:
    """V_m(K ∩ e_i^perp) by the route axis i takes on body itself: the
    shadow's by the mirror rule, the boundary or facet sections of a
    polytope or a zonotope in general position (from the cache, by
    _off_boundary), vm of the hulled cut, or an exact 0 for a plane that
    misses K.  V_0 comes from the hulled cut here (the library decides it
    on the skeleton cut, or in closed form for a zonotope, with no
    hull)."""
    body = bodies.resolve(body)
    if mirror_symmetric(body, i):
        return _route_shadow(body, i, m, spec)
    if m >= 1 and body.n >= 3 and body.n - m in (1, 2) and (
            isinstance(body, Zonotope) or isinstance(body, VPolytope) and _on_boundary(body)):
        value = _off_boundary(body, "sections", i, m)
        if value is not None:
            return value
    s = section_drop(body, i)
    return Measured.of_exact(0.0) if s is EMPTY else vm(s, m, spec)


def _by_route(body, m: int, spec, route) -> list:
    """route on every axis; for a dilate lam K, lam^m times K's value, and
    an inexact value's error too, as measures._off_source does."""
    source = bodies.dilate_source(body)
    if source is None:
        return [route(body, i, m, spec) for i in range(body.n)]
    k, lam = source
    return [Measured.of_exact(lam ** m * v.value) if v.exact else
            Measured(lam ** m * v.value, lam ** m * v.error, False)
            for v in _by_route(k, m, spec, route)]


def _tuple_bodies(n: int) -> list:
    """_shadow_bodies and _on_plane_bodies, a zonotope, an unconditional
    hull, a ball and a flattened one, and K1 in R^3."""
    rng = np.random.default_rng(130 + n)
    out = _shadow_bodies(n) + [p for p, _ in _on_plane_bodies(n)]
    out += [random_zonotope(rng, n), unconditional_hull(rng.standard_normal((2, n))),
            ball(n, 1.3, rng.standard_normal(n)),
            bodies.Ball(rng.standard_normal(n), 0.8, frozenset({0, n - 1}))]
    return out + [k1()] if n == 3 else out


def _refuses_bad_degrees(body) -> None:
    """Every degree outside 0..n-1 raises InvalidArgument before any
    route runs, from both tuples and from vm_projection along e_0 and
    along an oblique u: nothing is derived from the body or its source."""
    source = bodies.dilate_source(body)
    seen = [body] if source is None else [body, source[0]]
    before = [set(vars(b).get("_derived", {})) for b in seen]
    axis, oblique = np.eye(body.n)[0], np.arange(1.0, body.n + 1.0)
    for m in (-1, body.n, body.n + 3):
        for call in (lambda: vm_shadows(body, m), lambda: vm_sections(body, m),
                     lambda: vm_projection(body, axis, m),
                     lambda: vm_projection(body, oblique, m)):
            with pytest.raises(InvalidArgument, match=f"need 0 <= m <= {body.n - 1}"):
                call()
    assert [set(vars(b).get("_derived", {})) for b in seen] == before


def _bits_or_refused(f, *args):
    """The bits of every value f(*args) gives, or None where it refuses."""
    try:
        return [_bits(v) for v in f(*args)]
    except UnsupportedMeasure:
        return None


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_the_tuples_take_each_axis_route(n):
    """vm_shadows(K, m)[i] and vm_sections(K, m)[i] equal, bit for bit
    and error field included, the route axis i takes on K, for every
    degree, on every body and its dilates by 1e-8, 0.7 and 1e8, which
    take lam^m times K's values, a quadrature value with its error; a
    tuple refuses where some axis's route does.  Each tuple is measured
    once per body, and vm_projection along +-e_i is entry i of
    vm_shadows."""
    spec = QuadratureSpec(resolution=16)
    cases = []
    for body in _tuple_bodies(n):
        scaled = [] if isinstance(body, bodies.DiskHull) else \
            [scale_body(body, lam) for lam in (1e-8, 0.7, 1e8)]
        for b in [body] + scaled:
            _refuses_bad_degrees(b)
            cases += [(b, m, _bits_or_refused(vm_shadows, b, m, spec),
                       _bits_or_refused(vm_sections, b, m, spec)) for m in range(n)]
    for b, m, shadows, sections in cases:
        for got, f, route in ((shadows, vm_shadows, _route_shadow),
                              (sections, vm_sections, _route_section)):
            assert got == _bits_or_refused(_by_route, b, m, spec, route), (f.__name__, b, m)
            if got is not None:
                assert len(got) == n and f(b, m, spec) is f(b, m, spec)
        if shadows is not None:
            assert all(vm_projection(b, (-1.0) ** i * np.eye(n)[i], m, spec)
                       is vm_shadows(b, m, spec)[i] for i in range(n))
    inexact = sum(not exact for *_, values in cases for v in values or () for exact in v[2:])
    refused = sum(values is None for *_, values in cases)
    assert (inexact > 0, refused > 0) == (n >= 6, n >= 6)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_v0_of_shadows_and_sections_takes_no_hull(n, monkeypatch):
    """V_0 of every coordinate shadow and of an oblique one is an exact
    1, and V_0 of a section is 1 or 0 as the plane meets K or misses it,
    decided on the skeleton cut (section_drop's rule) or, for a zonotope,
    in closed form: on every tuple body and its dilates none of them
    calls convex_hull.  That these are the hulled cuts' values is the
    test above."""
    cases = []
    for body in _tuple_bodies(n):
        cases += [body] if isinstance(body, bodies.DiskHull) else \
            [body, scale_body(body, 1e-8), scale_body(body, 1e8)]
    hulls = _hulls_counted(monkeypatch)
    one, zero, u = Measured.of_exact(1.0), Measured.of_exact(0.0), np.arange(1.0, n + 1.0)
    missed = 0
    for b in cases:
        assert vm_shadows(b, 0) == (one,) * n
        assert vm_projection(b, u, 0) == one
        sections = vm_sections(b, 0)
        assert set(sections) <= {one, zero}
        missed += sections.count(zero)
    assert hulls == []
    assert missed >= 2 * 3 * n   # the two translated clouds of _on_plane_bodies and their dilates


def test_the_oblique_v0_of_a_flattened_ball_is_1():
    """An oblique shadow of a flattened ball that is an ellipsoid has no
    route for m >= 1, but its V_0 is an exact 1, as every shadow's is."""
    flat = bodies.Ball(np.zeros(4), 1.0, frozenset({0, 1}))
    u = [1.0, 0.0, 1.0, 0.0]
    assert vm_projection(flat, u, 0) == Measured.of_exact(1.0)
    for m in (1, 2, 3):
        with pytest.raises(UnsupportedMeasure, match="ellipsoid"):
            vm_projection(flat, u, m)


def test_a_dilate_measures_its_inexact_axes_itself():
    """A 6-polytope flat in x_0 = 0: V_1 of its shadow along e_0, the
    body itself in R^5, is sphere quadrature, as is its section, the same
    body.  A dilate lam K takes lam times K's value and error there, with
    no projection or cut of its own and no quadrature; every other shadow
    and section is flat, exact, and lam times K's."""
    cloud = np.random.default_rng(17).standard_normal((14, 6))
    cloud[:, 0] = 0.0
    p = convex_hull(cloud)
    spec = QuadratureSpec(resolution=16)
    base = vm_shadows(p, 1, spec), vm_sections(p, 1, spec)
    assert [v.exact for v in base[0]] == [v.exact for v in base[1]] == [False] + [True] * 5
    for lam in (1e-8, 0.7, 1e8):
        dilate = scale_body(p, lam)
        for got, source in zip((vm_shadows(dilate, 1, spec), vm_sections(dilate, 1, spec)), base):
            assert _bits(got[0]) == _bits(Measured(lam * source[0].value,
                                                   lam * source[0].error, False))
            assert [_bits(v) for v in got[1:]] == \
                [_bits(Measured.of_exact(lam * v.value)) for v in source[1:]]
        assert not any(key[0] in ("project_drop", "section_drop")
                       for key in vars(dilate)["_derived"])

