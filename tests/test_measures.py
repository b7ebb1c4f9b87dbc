"""Intrinsic volumes against closed forms and independent oracles."""
from __future__ import annotations

import gc
import math
import tracemalloc
from functools import partial
from itertools import combinations, product

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
                               project, project_drop, section_drop)
from convexiq.errors import InvalidArgument, UnsupportedMeasure, UnsupportedOperation
from convexiq.measures import (CROSS_CUTOFF, CROSS_NODES, CROSS_PANELS,
                               K1_NODES, SUBSET_BLOCK, Measured, _boundary,
                               _off_boundary, _on_boundary, _shadows,
                               _v1_cross_rule, _v1_k1_rule, kappa,
                               surface_area, v1_cross_polytope,
                               v1_polytope_exact, v1_quadrature,
                               vm_polytope_angles, vm_projection,
                               vm_sections, vm_shadows, vm_zonotope,
                               _zonotope_pass, _zonotope_sums,
                               volume)
from convexiq.quadrature import gauss_legendre

from conftest import (gram_surface_area, k1_polygon, mc_volume, parallelepiped,
                      random_polytope, random_signed_permutation, random_zonotope,
                      shared_cube)

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


def test_angle_defects_at_d3_sum_to_one(rng):
    """Descartes: the vertex defects of a 3-polytope sum to 4 pi, so the
    defect pass at d = 3 gives V_0 = 1, merged facets included."""
    for p in [random_polytope(rng, 3, 12) for _ in range(5)] + \
            [as_vpolytope(cube(3)), as_vpolytope(cross_polytope(3))]:
        assert abs(vm_polytope_angles(p, 0) - 1.0) <= 1e-13


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


def _misses(body: str, by: str) -> pytest.MarkDecorator:
    return pytest.mark.xfail(strict=True, reason=(
        f"the stated error |fine - coarse| is an estimate, not a bound: on {body} the "
        f"quadrature misses the exact V_1 by {by}"))


@pytest.mark.parametrize("n, seed", [
    pytest.param(4, None, id="cross-4"),
    pytest.param(5, None, id="cross-5", marks=_misses(
        "the 5-cross-polytope (resolution 44)", "1.2255e-3 against a stated 1.1967e-3")),
    pytest.param(4, 13, id="hull-4-13", marks=_misses(
        "a 4-polytope (resolution 96)", "4.45e-5 against a stated 5.59e-7")),
    pytest.param(3, 3, id="hull-3-3", marks=_misses(
        "a 3-polytope (resolution 512)", "9.33e-7 against a stated 4.05e-7")),
])
def test_v1_quadrature_error_bar_holds(n, seed):
    """The default sphere rule's V_1 of the cross-polytope, or of the hull of
    8 normal points from default_rng(seed), is within its stated error of
    the exact value."""
    if seed is None:
        body, exact = cross_polytope(n), v1_cross_polytope(n).value
    else:
        body = convex_hull(np.random.default_rng(seed).standard_normal((8, n)))
        exact = v1_polytope_exact(body)
    est = v1_quadrature(body)
    assert abs(est.value - exact) <= est.error


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
    return {d: shared_cube(d) for d in range(2, 9)}


@pytest.mark.parametrize("d, k", [(5, 6), (5, 7), (5, 8), (6, 7), (6, 8)])
def test_angle_route_matches_zonotopes_in_r5_and_r6(rng, d, k):
    for _ in range(2):
        z = random_zonotope(rng, d, k)
        for m in (d - 3, d - 2):
            got, want = vm(as_vpolytope(z), m), vm_zonotope(z, m)
            assert got.exact and abs(got.value - want) <= 1e-12 * want, m


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
    assert volume(sq) == 0.0
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


def _tiny_hull(scale: float) -> VPolytope:
    """A fresh hull of 12 normal points in R^4 (default_rng(3)) scaled
    before it is hulled, so that it has no dilate source to read."""
    return convex_hull(scale * np.random.default_rng(3).standard_normal((12, 4)))


def test_angles_of_a_hull_whose_faces_underflow_refuse():
    """At 1e-100 scale the face contents of the 4-hull underflow and every
    ridge looks flat: V_1 refuses with a library error instead of
    np.add.reduceat's IndexError on the empty run of (d-3)-faces."""
    with pytest.raises(UnsupportedMeasure, match="underflow"):
        vm(_tiny_hull(1e-100), 1)


@pytest.mark.parametrize("scale", [
    pytest.param(1e-100, id="1e-100", marks=pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 17: at 1e-100 V_2 reads an exact 0, where the true "
        "value 2.3e-199 is a normal float"))),
    pytest.param(1e-80, id="1e-80", marks=pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 17: at 1e-80 V_2 is 1.2e-7 relative off and still "
        "reported exact"))),
])
def test_v2_of_a_tiny_hull_is_the_scaled_value(scale):
    """V_2 of the hull of scaled points is scale^2 times the unit hull's."""
    want = scale ** 2 * vm(_tiny_hull(1.0), 2).value
    assert vm(_tiny_hull(scale), 2).value == pytest.approx(want, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# dilates (bodies.scale_body) measured off their source


SCALES = (1e-8, 1e-3, 1e3, 1e8)


def _dilate_cases(n: int) -> list:
    """A random polytope in R^n; for n <= 5 also an unconditional hull, a
    zonotope, whose sections of degree n-1 and n-2 come from its facets,
    the same zonotope with a parallel generator added, whose sections are
    hulled cuts, and a polytope with a vertex on every coordinate plane
    but x_0 = 0; for n = 6 a polytope flat in a hyperplane, whose
    sections are hulled cuts, as the random polytope's are not."""
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
    else:
        w, cloud = rng.standard_normal(n), rng.standard_normal((2 * n + 4, n))
        w /= np.linalg.norm(w)
        out.append(convex_hull(cloud - (cloud @ w - 0.2)[:, None] * w))
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
    axis i for 1 <= m <= n-1; for n >= 4 the sections of degree n-3 are
    read off P's bent ridges."""
    n = p.n
    out = {("vm", None, m): vm(p, m) for m in range(max(1, n - 3), n + 1)}
    for i in range(n):
        cut = section_drop(p, i)
        for m in range(1, n):
            out["projection", i, m] = vm_shadows(p, m)[i]
            out["section", i, m] = vm_sections(p, m)[i]
            out["cut", i, m] = Measured.of_exact(0.0) if cut is EMPTY else vm(cut, m)
    assert n < 4 or vars(p)["_derived"]["ridges"] is not None
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
    hulled cuts and the sections of degree n-3 read off the bent ridges
    included, is lam^m times P's within 1e-12.  Translating
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


def _assert_homogeneous(base: dict, lam: float, scaled: dict, moved=None, image=None,
                        perm=None):
    """Every value of ``base`` (a body's exact measures, keyed (call, axis,
    m)) is exact, and ``scaled``'s is lam^m times it within 1e-12.  The
    translate ``moved`` of the scaled body, if given, has the same vm and
    vm_shadows, and ``image``, if given, the scaled body's signed
    permutation, the same vm and along axis i the values of axis perm[i]."""
    assert all(value.exact for value in base.values())
    want = {key: lam ** key[2] * value.value for key, value in base.items()}
    assert [key for key, value in scaled.items() if _off_by(value, want[key])] == []
    if moved is not None:
        for (call, i, m), value in want.items():
            if call == "vm":
                assert not _off_by(vm(moved, m), value), (call, i, m)
            elif call == "projection":
                assert not _off_by(vm_shadows(moved, m)[i], value), (call, i, m)
    assert [(call, i, m) for (call, i, m), value in (image or {}).items()
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


def _block_polytopes() -> list:
    """Hulls in R^4..R^6, and the first moved off the plane x_1 = 0."""
    rng = np.random.default_rng(341)
    cases = [VPolytope(convex_hull(rng.standard_normal((3 * n, n))).vertices) for n in (4, 5, 6)]
    return cases + [translate_body(cases[0], [0.0, 9.0, 0.0, 0.0])]


def _block_zonotopes() -> list:
    rng = np.random.default_rng(340)
    return [Zonotope(0.3 * rng.standard_normal(n), rng.standard_normal((n + 3, n)))
            for n in (3, 4, 5)]


# pass: (bodies, {m: values} of a fresh copy of a body, whether x_1 = 0
# misses the moved hull, (n, k) of a zonotope past MAX_SUBSETS faces with
# the guard one below them)
BLOCKED_PASSES = {
    "_sections": (_block_polytopes, lambda p: measures._sections(VPolytope(p.vertices).qhull),
                  True, None),
    "_ridge_sections": (_block_polytopes, lambda p: measures._ridge_sections(VPolytope(p.vertices)),
                        True, None),
    "_shadows": (_block_polytopes, lambda p: {m: measures._shadows(VPolytope(p.vertices), None, m)
                                              for m in (p.n - 2, p.n - 1)}, False, None),
    "_zonotope_sections": (_block_zonotopes, lambda z: measures._zonotope_sections(
        Zonotope(z.center, z.generators)), False, ((3, 6), 2 * math.comb(6, 2))),
    "_zonotope_ridges": (lambda: _block_zonotopes()[1:], lambda z: measures._zonotope_ridges(
        Zonotope(z.center, z.generators)), False, ((4, 6), 2 * 4 * math.comb(6, 2))),
}


@pytest.mark.parametrize("name", sorted(BLOCKED_PASSES))
def test_blocks_do_not_change_the_values(monkeypatch, name):
    """One crossing face, facet pair, ridge subset or determinant per
    block gives the values of one block, within roundoff; a plane that
    misses K gives an exact 0 in any block; past MAX_SUBSETS faces a
    zonotope's sections are refused."""
    cases, measure, missed, guard = BLOCKED_PASSES[name]
    want = [measure(body) for body in cases()]
    monkeypatch.setattr(measures, "SECTION_BLOCK", 1)
    monkeypatch.setattr(measures, "SUBSET_BLOCK", 1)
    for body, values in zip(cases(), want):
        got = measure(body)
        assert sorted(got) == sorted(values)
        for m, v in values.items():
            assert np.all(np.abs(got[m] - v) <= 1e-14 * v) and np.count_nonzero(v) >= body.n - 1
            if missed and body.vertices[:, 1].min() > 0.0:
                assert got[m][1] == v[1] == 0.0
    if guard is not None:
        (n, k), count = guard
        monkeypatch.setattr(measures, "MAX_SUBSETS", count - 1)
        z = Zonotope(np.zeros(n), np.random.default_rng(342).standard_normal((k, n)))
        with pytest.raises(UnsupportedMeasure, match="enumeration guard"):
            vm_sections(z, n - 3 if "ridges" in name else n - 1)


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
    every section, and for n = 4 the ridge route V_{n-3}, where the
    skeleton cut refuses; they match that cut, let through for the
    reference only, within 1e-12."""
    rng = np.random.default_rng(360 + n)
    z = Zonotope(0.5 * rng.standard_normal(n), rng.standard_normal((17, n)))
    got = {m: vm_sections(z, m) for m in range(max(1, n - 3), n)}
    with pytest.raises(UnsupportedOperation, match="2\\*\\*17"):
        section_drop(z, 0)
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


def test_trivmax_at_m_1_on_a_4_zonotope_hulls_nothing(monkeypatch):
    """trivmax at m = 1 = n-3 on a generic 4-zonotope measures every
    section from the zonotope's ridges: no convex_hull call."""
    from convexiq import inequalities
    z = random_zonotope(np.random.default_rng(371), 4)
    hulls = _hulls_counted(monkeypatch)
    report = inequalities.evaluate("trivmax", z, m=1)
    assert report.satisfied and hulls == []


# ---------------------------------------------------------------------------
# the n coordinate values of one degree (measures.vm_shadows, vm_sections)


def _bits(x: Measured) -> tuple:
    return x.value.hex(), x.error.hex(), x.exact


def _route_shadow(body, i: int, m: int, spec) -> Measured:
    """V_m(K | e_i^perp) by the route axis i takes on body itself: the
    zonotope pass, the boundary shadows or, at degree n-3 along a mirror
    plane, the ridge sections (read from the body's cache by
    _off_boundary, as computing them again gives the same bits), or vm of
    the hulled projection, which also gives V_0 here (the library takes
    it as an exact 1 with no hull)."""
    body = bodies.resolve(body)
    if isinstance(body, Zonotope) and m >= 1:
        return Measured.of_exact(_zonotope_pass(body, m)[1 + i])
    if isinstance(body, VPolytope) and m >= 1 and _on_boundary(body):
        if body.n - m in (1, 2):
            return _off_boundary(body, "shadows", i, m)
        if body.n - m == 3 and mirror_symmetric(body, i):
            return _off_boundary(body, "sections", i, m)
    return vm(project_drop(body, i), m, spec)


def _route_section(body, i: int, m: int, spec) -> Measured:
    """V_m(K ∩ e_i^perp) by the route axis i takes on body itself: the
    shadow's by the mirror rule, the boundary or ridge sections of a
    polytope or the facet or ridge sections of a zonotope in general
    position (from the cache, by _off_boundary), vm of the hulled cut, or
    an exact 0 for a plane that misses K.  V_0 comes from the hulled cut
    here (the library decides it on the vertices' extent, or in closed
    form for a zonotope, with no hull)."""
    body = bodies.resolve(body)
    if mirror_symmetric(body, i):
        return _route_shadow(body, i, m, spec)
    if m >= 1 and body.n >= 3 and body.n - m in (1, 2, 3) and (
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
    decided on the vertices' extent (section_drop's side rule) or, for a
    zonotope, in closed form: on every tuple body and its dilates none of
    them calls convex_hull.  That these are the hulled cuts' values is the
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


@pytest.mark.parametrize("n", [3, 4, 5])
def test_v0_of_a_section_is_the_side_rule_of_section_drop(n):
    """V_0 of a polytope's section, read off its vertices' extent
    min_v v_i <= 0 <= max_v v_i, is 1 exactly where section_drop's cut is
    not EMPTY: planes through a vertex, touching a face, missing K and
    through its interior, from above and from below."""
    rng = np.random.default_rng(360 + n)
    box = as_vpolytope(cube(n)).vertices + 1.0        # a facet on every plane, from above
    cases = [p for p, _ in _on_plane_bodies(n)] + [
        convex_hull(box), convex_hull(-box), convex_hull(box + 1e-300), convex_hull(box - 2.0),
        random_polytope(rng, n), translate_body(random_polytope(rng, n), 3.0 * np.ones(n))]
    planes = set()
    for body in cases:
        got = [v.value for v in vm_sections(body, 0)]
        assert got == [float(section_drop(body, i) is not EMPTY) for i in range(n)]
        low, high = body.vertices.min(axis=0), body.vertices.max(axis=0)
        planes |= {("vertex" if 0.0 in body.vertices[:, i] else "interior") if lo < 0.0 < hi
                   else "touching" if 0.0 in (lo, hi) else "missed"
                   for i, (lo, hi) in enumerate(zip(low, high))}
    assert planes == {"vertex", "interior", "touching", "missed"}


def test_v0_of_a_section_needs_no_hull_of_the_body():
    """V_0 of the sections of ROADMAP item 1's n = 8 translated
    unconditional hull, built directly from its 512 vertices, hulls
    nothing: qhull splits that body into 571,264 simplices."""
    rng = np.random.default_rng(0)
    base = rng.standard_normal((2, 8))
    signs = np.array(list(product((-1.0, 1.0), repeat=8)))
    cloud = (base[:, None, :] * signs).reshape(-1, 8) + 0.05 * rng.standard_normal(8)
    body = VPolytope(cloud[np.lexsort(cloud.T[::-1])])
    assert body.vertex_count == 512 and not any(mirror_symmetric(body, i) for i in range(8))
    assert vm_sections(body, 0) == (Measured.of_exact(1.0),) * 8
    assert "qhull" not in vars(body) and "skeleton" not in vars(body)["_derived"]


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

