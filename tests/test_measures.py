"""Intrinsic volumes against closed forms and independent oracles."""
from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from convexiq import QuadratureSpec, Zonotope, cross_polytope, cube, vm
from convexiq.bodies import (VPolytope, as_vpolytope, ball, convex_hull, k1, k2,
                             scale_body, support, translate_body)
from convexiq.coordops import project, project_drop
from convexiq.errors import InvalidArgument, UnsupportedMeasure
from convexiq.measures import (CROSS_CUTOFF, CROSS_NODES, CROSS_PANELS,
                               DET_BATCH, K1_NODES, Measured, _v1_cross_rule,
                               _v1_k1_rule, kappa,
                               surface_area, v1_cross_polytope,
                               v1_polytope_exact, v1_quadrature, vm_ball,
                               vm_polytope_angles, vm_zonotope, volume)
from convexiq.quadrature import gauss_legendre

from conftest import (gram_surface_area, mc_volume, parallelepiped,
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
    np.cross and edge lengths by norm, bit for bit."""
    def edge_route(p):
        hull = p.qhull
        normals = hull.equations[:, :3]
        s, k = np.nonzero(hull.neighbors > np.arange(hull.neighbors.shape[0])[:, None])
        t = hull.neighbors[s, k]
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
    q = scale_body(p, lam)
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


def test_k1_mean_width(spec3):
    est = vm(k1(), 1, spec3)
    assert est.exact
    assert abs(est.value - 3.86633974622) <= 1e-12
    # the fixed rule is converged: doubling its nodes moves nothing
    assert abs(_v1_k1_rule(2 * K1_NODES) - est.value) <= 1e-12


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
    q = scale_body(p, lam)
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


def test_vm_zonotope_batches_match_the_loop(rng):
    for _ in range(60):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, n + 1))
        k = int(rng.integers(m, 15))
        z = Zonotope(np.zeros(n), rng.standard_normal((k, n)))
        assert vm_zonotope(z, m) == _vm_zonotope_loop(z, m)
    # more subsets than one batch, and parallel generators (det <= 0)
    g = rng.standard_normal((16, 6))
    g[1] = 2.0 * g[0]
    z = Zonotope(np.zeros(6), g)
    assert math.comb(16, 6) > DET_BATCH
    assert vm_zonotope(z, 6) == _vm_zonotope_loop(z, 6)


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
    for body in (p, z):
        before = [vm(body, m, spec3).value for m in (1, 2, 3)]
        shadows = [project_drop(body, i) for i in range(3)]
        scaled = scale_body(body, 2.0)
        for m, value in zip((1, 2, 3), before):
            assert vm(scaled, m, spec3).value == pytest.approx(2.0 ** m * value, rel=1e-9)
        moved = translate_body(body, t)
        for i, shadow in enumerate(shadows):
            moved_shadow = project_drop(moved, i)
            assert moved_shadow is not shadow
            u = rng.standard_normal(2)
            assert support(moved_shadow, u) == pytest.approx(
                support(shadow, u) + float(np.delete(t, i) @ u), rel=1e-9, abs=1e-9)
