"""Tests for the inequality catalog: evaluation, chains, equality detection,
extremal constructors, and the sharp constants."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from convexiq import (bodies, coordops, explorer, inequalities as iq, measures,
                      quadrature)
from convexiq.errors import InvalidArgument, UndefinedValue, UnsupportedMeasure

from conftest import k1_polygon, random_polytope, random_zonotope, shared_cube

ALL_IDS = [
    "bm_upper", "bm_v1_lower", "cg_upper", "cond_eq111", "easy_bounds",
    "heron_n3", "loomis_whitney", "meyer", "mth_lower", "prob4_family",
    "prob5_family", "pythagorean", "reverse_cs", "sqrt_n_lower",
    "square_lower", "trivmax", "weighted_bm", "zonoid_lower",
]


def test_catalog_ids_complete():
    assert iq.catalog_ids() == ALL_IDS


def test_status_map():
    assert iq.inequality_status("loomis_whitney", 3, None) == iq.PROVEN
    assert iq.inequality_status("meyer", 4, None) == iq.PROVEN
    assert iq.inequality_status("cg_upper", 3, 1) == iq.PROVEN
    assert iq.inequality_status("cg_upper", 5, 3) == iq.PROVEN   # m = n-2
    assert iq.inequality_status("cg_upper", 5, 2) == iq.CONJECTURE
    assert iq.inequality_status("reverse_cs", 5, 3) == iq.PROVEN
    assert iq.inequality_status("reverse_cs", 5, 2) == iq.CONJECTURE
    assert iq.inequality_status("cond_eq111", 4, 1) == iq.CONDITIONAL
    assert iq.inequality_status("heron_n3", 3, None) == iq.CONJECTURE
    assert iq.inequality_status("prob4_family", 3, 1) == iq.OPEN
    assert iq.inequality_status("prob5_family", 3, 1) == iq.OPEN
    with pytest.raises(InvalidArgument):
        iq.inequality_status("nonsense", 3, None)


def test_evaluate_rejects_unknown_id(spec3):
    with pytest.raises(InvalidArgument, match="unknown inequality id"):
        iq.evaluate("nope", bodies.cube(3), spec=spec3)


def test_evaluate_m_validation(spec3):
    c = bodies.cube(3)
    with pytest.raises(InvalidArgument):
        iq.evaluate("cg_upper", c, spec=spec3)          # m required
    with pytest.raises(InvalidArgument):
        iq.evaluate("cg_upper", c, m=3, spec=spec3)     # out of 1..n-1
    with pytest.raises(InvalidArgument):
        iq.evaluate("mth_lower", c, m=2, spec=spec3)    # out of 1..n-2


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("ineq_id, name", [
    ("prob4_family", "c2"), ("prob5_family", "c3"), ("easy_bounds", "p")])
def test_scalar_parameters_must_be_finite(ineq_id, name, bad):
    with pytest.raises(InvalidArgument, match="finite"):
        iq.evaluate(ineq_id, bodies.cube(3), m=1, params={name: bad})


@pytest.mark.parametrize("bad", NON_FINITE)
def test_weights_must_be_finite(bad):
    with pytest.raises(InvalidArgument, match="finite"):
        iq.evaluate("weighted_bm", bodies.cube(3), params={"a": [1.0, bad, 1.0]})


@pytest.mark.parametrize("ineq_id, name, bad", [
    ("prob4_family", "c2", "abc"), ("prob4_family", "c2", None),
    ("prob4_family", "c2", [1]), ("prob4_family", "c2", "5"),
    ("prob4_family", "c2", True), ("weighted_bm", "a", "111"),
    ("weighted_bm", "a", 5.0), ("pythagorean", "u", [1, "x", 1])])
def test_parameters_must_be_real_numbers(ineq_id, name, bad):
    m = None if ineq_id == "weighted_bm" else 1
    with pytest.raises(InvalidArgument, match=f" {name} must be a"):
        iq.evaluate(ineq_id, bodies.cube(3), m=m, params={name: bad})


@pytest.mark.parametrize("bad", NON_FINITE + [-1.0])
def test_tolerance_must_be_finite_and_nonnegative(bad):
    with pytest.raises(InvalidArgument, match="finite and >= 0"):
        iq.evaluate("loomis_whitney", bodies.cube(3), tolerance=bad)


# ---------------------------------------------------------------------------
# equality cases, one per extremal family


def test_box_saturates_projection_product(spec3):
    r = iq.evaluate("loomis_whitney", bodies.cube(3), spec=spec3)
    assert r.satisfied
    assert r.lhs == pytest.approx(64.0)
    assert r.rhs == pytest.approx(64.0)
    assert r.equality_flag == "equality-case-matched"


def test_cross_polytope_saturates_section_product(spec3):
    r = iq.evaluate("meyer", bodies.cross_polytope(3), spec=spec3)
    assert r.satisfied
    assert r.lhs == pytest.approx(16.0 / 9.0)
    assert r.equality_flag == "equality-case-matched"


def test_box_saturates_projection_sum(spec3):
    r = iq.evaluate("bm_upper", bodies.cube(3), spec=spec3)
    assert r.satisfied and r.equality_flag == "equality-case-matched"
    assert r.lhs == pytest.approx(12.0)
    assert r.rhs == pytest.approx(12.0)


def test_box_saturates_scaled_sum(spec3):
    r = iq.evaluate("cg_upper", bodies.cube(3), m=1, spec=spec3)
    assert r.params == {"m": 1}
    assert r.lhs == pytest.approx(6.0)
    assert r.rhs == pytest.approx(6.0)
    assert r.equality_flag == "equality-case-matched"


def test_regular_cross_saturates_sqrt_n(spec3):
    r = iq.evaluate("sqrt_n_lower", bodies.cross_polytope(3), spec=spec3)
    assert r.satisfied and r.equality_flag == "equality-case-matched"
    for _, lhs, rhs, slack in r.links:
        assert slack == pytest.approx(0.0, abs=1e-9)


def test_cross_saturates_width_lower_bound(spec3):
    r = iq.evaluate("bm_v1_lower", bodies.cross_polytope(3), spec=spec3)
    assert r.satisfied and r.equality_flag == "equality-case-matched"
    assert abs(r.oriented_slack) < 1e-12


def test_cross_saturates_heron_bound(spec3):
    r = iq.evaluate("heron_n3", bodies.cross_polytope(3), spec=spec3)
    assert r.satisfied and r.equality_flag == "equality-case-matched"
    assert r.lhs == pytest.approx(12.0)
    assert r.rhs == pytest.approx(12.0)


def test_diagonal_segment_saturates_zonotope_bound(spec3):
    z = bodies.Zonotope(np.zeros(4), np.array([[1.0, 1.0, 1.0, 1.0]]))
    r = iq.evaluate("zonoid_lower", z, m=1, spec=spec3)
    assert r.satisfied and r.equality_flag == "equality-case-matched"
    assert r.lhs == pytest.approx(16.0)   # V_1 = 2|g| = 4
    assert r.rhs == pytest.approx(16.0)


def test_diagonal_direction_saturates_split(spec3):
    # the shadow of the cube along the main diagonal has squared area 48,
    # matching the sum of the squared coordinate shadows exactly
    r = iq.evaluate("pythagorean", bodies.cube(3), m=2,
                    params={"u": [1.0, 1.0, 1.0]}, spec=spec3)
    assert r.satisfied
    assert r.lhs == pytest.approx(48.0)
    assert r.rhs == pytest.approx(48.0)
    assert r.equality_flag == "near-equality"   # no extremal family declared


def test_pythagorean_requires_direction(spec3):
    with pytest.raises(InvalidArgument, match="direction"):
        iq.evaluate("pythagorean", bodies.cube(3), m=2, spec=spec3)


def test_pythagorean_polytope_needs_top_degree(spec3):
    # every degree evaluates: each coordinate shadow of the cube is a
    # 2 x 2 square with V_1 = 4
    r = iq.evaluate("pythagorean", bodies.cube(3), m=1,
                    params={"u": [0.0, 0.0, 1.0]}, spec=spec3)
    assert r.lhs == pytest.approx(48.0, rel=1e-12)
    assert r.rhs == pytest.approx(16.0, rel=1e-12)
    # zonotopes project exactly in every degree
    z = bodies.Zonotope(np.zeros(3), np.diag([1.0, 2.0, 3.0]))
    r = iq.evaluate("pythagorean", z, m=1, params={"u": [0.0, 0.0, 1.0]},
                    spec=spec3)
    assert r.satisfied


def _brightness(p, u) -> float:
    """Reference shadow: the (n-1)-volume of the projection of a
    full-dimensional polytope onto u^perp, half the sum of
    |<u, nu_F>| area(F) over the facets."""
    u = np.asarray(u, dtype=float) / np.linalg.norm(u)
    hull = p.qhull
    total = 0.0
    for s in range(hull.simplices.shape[0]):
        verts = hull.points[hull.simplices[s]]
        edges = verts[1:] - verts[0]
        area = math.sqrt(max(float(np.linalg.det(edges @ edges.T)), 0.0)) \
            / math.factorial(p.n - 1)
        total += area * abs(float(np.dot(u, hull.equations[s, :p.n])))
    return 0.5 * total


def test_oblique_shadow_matches_facet_brightness(rng):
    for n in (3, 4, 5):
        for _ in range(20):
            p = random_polytope(rng, n)
            u = rng.standard_normal(n)
            got = measures.vm_projection(p, u, n - 1, None)
            assert got.exact
            assert got.value == pytest.approx(_brightness(p, u), rel=1e-12)


def test_oblique_shadows_of_cube_in_every_degree(spec3):
    # along the main diagonal the cube's shadow is a regular hexagon of
    # side 2 sqrt(2/3): V_1 = 2 sqrt(6)
    r = iq.evaluate("pythagorean", bodies.cube(3), m=1,
                    params={"u": [1.0, 1.0, 1.0]}, spec=spec3)
    assert r.rhs == pytest.approx(24.0, rel=1e-12)
    assert r.lhs == pytest.approx(48.0, rel=1e-12)
    # cube(4) as a polytope and as a zonotope: independent routes agree
    u = [1.0, 2.0, 3.0, 4.0]
    z = bodies.Zonotope(np.zeros(4), np.eye(4))
    for m in (1, 2, 3):
        got = measures.vm_projection(bodies.cube(4), u, m, None)
        want = measures.vm_projection(z, u, m, None)
        assert got.exact and want.exact
        assert got.value == pytest.approx(want.value, rel=1e-12), m
    for m in (1, 2):
        r = iq.evaluate("pythagorean", bodies.cube(4), m=m, params={"u": u},
                        spec=quadrature.QuadratureSpec.for_dimension(4))
        assert r.satisfied and r.quadrature_error is None


def test_pythagorean_unit_disk_shadows(spec3):
    disk = bodies.Ball(np.zeros(3), 1.0, zeroed={0})

    def shadow(u):
        return iq.evaluate("pythagorean", disk, m=2, params={"u": u},
                           spec=spec3).rhs

    assert shadow([1.0, 0.0, 0.0]) == pytest.approx(math.pi ** 2, rel=1e-14)
    assert shadow([-1.0, 0.0, 0.0]) == pytest.approx(math.pi ** 2, rel=1e-14)
    assert shadow([0.0, 0.0, 1.0]) == 0.0
    with pytest.raises(UnsupportedMeasure, match="ellipsoid"):
        shadow([1.0, 1.0, 0.0])
    # oblique directions inside the span or across it stay balls
    full = measures.vm_projection(bodies.ball(3), [1.0, 2.0, 3.0], 2, None)
    assert full.value == pytest.approx(math.pi, rel=1e-14)
    flat = bodies.Ball(np.zeros(4), 1.0, zeroed={0, 1})
    across = measures.vm_projection(flat, [1.0, 1.0, 0.0, 0.0], 2, None)
    assert across.value == pytest.approx(math.pi, rel=1e-14)
    along = measures.vm_projection(flat, [0.0, 0.0, 1.0, 1.0], 1, None)
    assert along.value == pytest.approx(2.0, rel=1e-14)


def test_pythagorean_k1_shadows(spec3):
    face_on = iq.evaluate("pythagorean", bodies.k1(), m=2,
                          params={"u": [1.0, 0.0, 0.0]}, spec=spec3)
    assert face_on.rhs == pytest.approx(math.pi ** 2, rel=1e-14)
    assert face_on.quadrature_error is None
    u = [1.0, 2.0, 3.0]
    oblique = iq.evaluate("pythagorean", bodies.k1(), m=2, params={"u": u},
                          spec=spec3)
    assert oblique.quadrature_error is None
    assert measures.vm_projection(bodies.k1(), u, 0) == measures.Measured.of_exact(1.0)
    rng = np.random.default_rng(5)
    for m in (1, 2):
        shadow = measures.vm_projection(bodies.k1(), u, m)
        assert shadow.exact
        # the 4096-gon hull's shadow lies inside K1's and falls short by
        # less than its stated error, 40/k^2 relative
        polygon = measures.vm_projection(k1_polygon(4096), u, m)
        assert polygon.value <= shadow.value <= polygon.value + polygon.error + \
            40.0 / 4096 ** 2 * polygon.value
        for _ in range(4):
            moved = rng.permutation(u) * rng.choice([-1.0, 1.0], 3)
            assert measures.vm_projection(bodies.k1(), moved, m).value == \
                pytest.approx(shadow.value, rel=1e-14)
        # nearly along e_0 the shadow is the unit disk
        disk = measures.vm_projection(bodies.k1(), [1.0, 1e-9, 0.0], m)
        assert disk.exact and disk.value == pytest.approx(math.pi, rel=1e-14)


# ---------------------------------------------------------------------------
# chains keep their stated order


def test_square_lower_chain_on_cube(spec3):
    r = iq.evaluate("square_lower", bodies.cube(3), spec=spec3)
    names = [l[0] for l in r.links]
    assert names == ["projections", "sections"]
    assert r.links[0][3] == pytest.approx(96.0)     # 144 - 48
    assert r.links[1][3] == pytest.approx(0.0)      # sections match shadows
    assert r.oriented_slack == pytest.approx(0.0)   # worst link governs
    # near-equality through the second link, but a box is not the extremal body
    assert r.equality_flag == "near-equality"


def test_trivmax_chain_on_cube(spec3):
    r = iq.evaluate("trivmax", bodies.cube(3), m=1, spec=spec3)
    assert [l[0] for l in r.links] == ["projections", "sections"]
    assert r.links[0][1] == pytest.approx(6.0)
    assert r.links[0][2] == pytest.approx(4.0)
    assert r.links[1][3] == pytest.approx(0.0)


def test_easy_bounds_chain_and_default_exponent(spec3):
    r = iq.evaluate("easy_bounds", bodies.cube(3), m=1, spec=spec3)
    assert r.params["p"] == 2.0
    assert r.satisfied
    assert r.links[0][1] == pytest.approx(6.0)
    assert r.links[0][2] == pytest.approx(4.0)
    with pytest.raises(InvalidArgument):
        iq.evaluate("easy_bounds", bodies.cube(3), m=1, params={"p": -1.0},
                    spec=spec3)


def test_weighted_chain_brackets_ratio(spec3):
    r = iq.evaluate("weighted_bm", bodies.cube(3), spec=spec3)
    assert r.params["a"] == [1.0, 1.0, 1.0]
    lower, upper = r.links
    assert lower[3] == pytest.approx(0.0)               # ratio hits min weight
    assert upper[3] == pytest.approx(math.sqrt(3.0) - 1.0)
    with pytest.raises(InvalidArgument):
        iq.evaluate("weighted_bm", bodies.cube(3), params={"a": [1.0, -1.0, 1.0]},
                    spec=spec3)
    with pytest.raises(InvalidArgument):
        iq.evaluate("weighted_bm", bodies.cube(3), params={"a": [1.0, 1.0]},
                    spec=spec3)


def test_ratio_upper_end_attained_by_cross(spec3):
    r = iq.evaluate("weighted_bm", bodies.cross_polytope(3), spec=spec3)
    upper = r.links[1]
    assert upper[3] == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# random bodies satisfy every proven inequality


@pytest.mark.parametrize("ineq_id,m", [
    ("loomis_whitney", None), ("meyer", None), ("bm_upper", None),
    ("cg_upper", 1), ("cg_upper", 2), ("sqrt_n_lower", None),
    ("weighted_bm", None), ("square_lower", None), ("mth_lower", 1),
    ("reverse_cs", 1), ("easy_bounds", 1), ("trivmax", 2),
    ("bm_v1_lower", None), ("cond_eq111", 1),
])
def test_proven_bounds_hold_on_random_bodies(ineq_id, m, rng, spec3):
    for _ in range(3):
        p = random_polytope(rng, 3)
        r = iq.evaluate(ineq_id, p, m=m, spec=spec3)
        assert r.satisfied, r.summary_line()


def test_proven_bounds_hold_on_random_zonotopes(rng, spec3):
    for ineq_id, m in [("zonoid_lower", 1), ("zonoid_lower", 2),
                       ("mth_lower", 2), ("cg_upper", 2)]:
        z = random_zonotope(rng, 4)
        r = iq.evaluate(ineq_id, z, m=m, spec=spec3)
        assert r.satisfied, r.summary_line()


def test_zonotope_bound_rejects_other_bodies(spec3):
    with pytest.raises(InvalidArgument):
        iq.evaluate("zonoid_lower", bodies.cube(4), m=1, spec=spec3)


def test_open_problem_constants_do_not_raise(spec3):
    # an absurd constant flips the verdict without raising
    r = iq.evaluate("prob4_family", bodies.cube(3), m=1, params={"c2": 1e6},
                    spec=spec3)
    assert not r.satisfied
    assert r.status == iq.OPEN
    r = iq.evaluate("prob4_family", bodies.cube(3), m=1,
                    params={"c2": 4.0 / math.pi ** 2}, spec=spec3)
    assert r.satisfied
    with pytest.raises(InvalidArgument):
        iq.evaluate("prob4_family", bodies.cube(3), m=1, spec=spec3)
    with pytest.raises(InvalidArgument):
        iq.evaluate("prob4_family", bodies.cube(3), m=1, params={"c2": -1.0},
                    spec=spec3)


def test_section_product_family(spec3):
    # the cross-polytope determines the largest workable constant here:
    # V_2^3 = 24*sqrt(3) against section-measure product 512
    c3_star = 24.0 * math.sqrt(3.0) / 512.0
    r = iq.evaluate("prob5_family", bodies.cross_polytope(3), m=1,
                    params={"c3": c3_star * 0.999}, spec=spec3)
    assert r.satisfied
    r = iq.evaluate("prob5_family", bodies.cross_polytope(3), m=1,
                    params={"c3": c3_star * 1.01}, spec=spec3)
    assert not r.satisfied


def test_heron_needs_dimension_three(spec3):
    with pytest.raises(InvalidArgument):
        iq.evaluate("heron_n3", bodies.cube(4), spec=spec3)


# ---------------------------------------------------------------------------
# conditional bound


def test_conditional_bound_applies_on_balanced_body(spec3):
    r = iq.evaluate("cond_eq111", bodies.cube(3), m=1, spec=spec3)
    assert r.satisfied and r.links
    assert r.links[0][1] == pytest.approx(72.0)
    assert r.links[0][2] == pytest.approx(48.0)


def test_conditional_bound_reports_inapplicability(monkeypatch, spec3):
    """When one projection dominates, the report says so instead of judging."""
    from convexiq.measures import Measured

    def lopsided(body, m, spec):
        return tuple(map(Measured.of_exact, (10.0, 0.5, 0.5)))

    monkeypatch.setattr(measures, "vm_shadows", lopsided)
    r = iq.evaluate("cond_eq111", bodies.cube(3), m=1, spec=spec3)
    assert r.satisfied
    assert r.links == ()
    assert any("hypothesis not met" in w for w in r.warnings)


def test_section_warning_when_origin_outside(spec3):
    far = bodies.translate_body(bodies.cross_polytope(3), np.array([2.0, 0.0, 0.0]))
    r = iq.evaluate("meyer", far, spec=spec3)
    assert any("origin not interior" in w for w in r.warnings)
    r = iq.evaluate("meyer", bodies.cross_polytope(3), spec=spec3)
    assert r.warnings == ()
    # K1 contains conv{+-e_i}, so the origin is interior
    r = iq.evaluate("meyer", bodies.k1(), spec=spec3)
    assert r.warnings == ()
    # a flat body has no interior
    flat = bodies.convex_hull(np.c_[np.random.default_rng(1).standard_normal((6, 2)),
                                    np.zeros(6)])
    r = iq.evaluate("meyer", flat, spec=spec3)
    assert any("origin not interior" in w for w in r.warnings)


def _warns(body, spec):
    return any("origin not interior" in w
               for w in iq.evaluate("meyer", body, spec=spec).warnings)


@pytest.mark.parametrize("scale", [1e-14, 1e-12, 1e-10, 1e-8, 1e-4, 1.0, 1e4, 1e6, 1e8])
def test_origin_check_is_relative_to_the_body_size(scale, spec3):
    """The origin counts as interior when it lies deeper than 1e-12 times
    the body's size, at every scale: balls around or off the origin do
    not warn and a ball with the origin on its sphere does; 30 random
    polytopes moved so that the origin is the centroid of a boundary
    simplex, and a cube with the origin on a facet, warn (an absolute
    -1e-12 on the facet offsets let 2-9 of the 31 pass as interior at
    scales 1e4-1e8, and a radius - 1e-12 made balls of radius below 1e-12
    warn).  The cross-polytope does not warn down to 1e-8; below that
    ``affine_dim``'s rank test, absolute for bodies smaller than 1, reads
    it as flat."""
    for depth, warns in ((0.0, False), (0.5, False), (1.0, True)):
        ball = bodies.Ball(np.array([depth * scale, 0.0, 0.0]), scale)
        assert _warns(ball, spec3) == warns
    rng = np.random.default_rng(8)
    on_facet = [bodies.cube(3).vertices + np.array([1.0, 0.0, 0.0])]
    for _ in range(30):
        hull = bodies.convex_hull(rng.standard_normal((10, 3))).qhull
        on_facet.append(hull.points[hull.vertices]
                        - hull.points[hull.simplices[0]].mean(axis=0))
    assert _warns(bodies.VPolytope(scale * on_facet[0]), spec3)
    assert not any(iq._origin_interior(bodies.VPolytope(scale * v)) for v in on_facet)
    if scale >= 1e-8:
        cross = bodies.VPolytope(scale * bodies.cross_polytope(3).vertices)
        assert not _warns(cross, spec3)


def test_origin_check_is_exact_for_zonotopes(spec3):
    """A rotated cube whose face stops 0.01 short of the origin."""
    R = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))[0]
    z = bodies.Zonotope(-1.01 * R[0], R)
    r = iq.evaluate("meyer", z, spec=spec3)
    assert any("origin not interior" in w for w in r.warnings)


def test_clear_slack_is_strict_despite_a_wide_tolerance():
    """mth_lower at m = 1 on the 5-d cross-polytope holds by 3.35 with a
    quadrature tolerance of 0.094: a slack of thirty tolerances is no
    near-equality."""
    r = iq.evaluate("mth_lower", bodies.cross_polytope(5), m=1)
    assert r.tolerance > 0.05
    assert r.satisfied
    assert r.oriented_slack > 10.0 * r.tolerance
    assert r.equality_flag == "strict"


def test_meyer_on_the_ball_is_exact(spec3):
    r = iq.evaluate("meyer", bodies.ball(3), spec=spec3)
    assert r.lhs == pytest.approx((4.0 * math.pi / 3.0) ** 2, rel=1e-14)
    assert r.rhs == pytest.approx(2.0 / 9.0 * math.pi ** 3, rel=1e-14)
    assert r.quadrature_error is None
    assert r.warnings == ()


# ---------------------------------------------------------------------------
# constants


def test_gamma_ratio_constant():
    assert iq.mth_lower_constant(3, 1) == pytest.approx(4.0 / math.pi ** 2)
    assert iq.mth_lower_constant(3, 2) == pytest.approx(1.0)
    assert iq.mth_lower_constant(4, 3) == pytest.approx(1.0)
    # closed form at n-m = 2: (Gamma(1)/Gamma(3/2))^2 / pi = 4/pi^2
    assert iq.mth_lower_constant(5, 3) == pytest.approx(4.0 / math.pi ** 2)
    with pytest.raises(InvalidArgument):
        iq.mth_lower_constant(3, 0)
    with pytest.raises(InvalidArgument):
        iq.mth_lower_constant(3, 3)


def test_width_ratio_constant_exact_in_dimension_three():
    c = iq.min_mean_width_ratio(3)
    assert c.exact
    assert c.error <= 1e-9   # nominal roundoff only
    assert c.value == pytest.approx(math.acos(1.0 / 3.0) / math.pi, abs=1e-15)


def test_width_ratio_constant_k1_width_and_repro_use_no_sphere_quadrature(monkeypatch):
    calls = []
    real = measures.integrate_sphere_with_error

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(measures, "integrate_sphere_with_error", counted)
    iq.min_mean_width_ratio.cache_clear()
    for n in range(3, 9):
        assert iq.min_mean_width_ratio(n).exact
    assert measures.vm(bodies.k1(), 1).exact
    assert all(rep.passed for rep in explorer.run_repro("all"))
    assert calls == []


@pytest.mark.parametrize("n, c0", list(enumerate(explorer.C0_REFERENCE, start=3)))
def test_width_ratio_constant_matches_reference(n, c0):
    c = iq.min_mean_width_ratio(n)
    assert c.exact
    assert abs(c.value - c0) <= 1e-10


def test_width_ratio_constant_decreases():
    c3 = iq.min_mean_width_ratio(3)
    c4 = iq.min_mean_width_ratio(4)
    assert c4.exact
    assert 0.0 < c4.value < c3.value
    with pytest.raises(InvalidArgument):
        iq.min_mean_width_ratio(2)


# ---------------------------------------------------------------------------
# extremal constructors


def test_cross_from_equal_sections_is_standard():
    c = iq.cross_polytope_from_sections([2.0, 2.0, 2.0])
    want = sorted(map(tuple, bodies.cross_polytope(3).vertices))
    assert sorted(map(tuple, c.vertices)) == pytest.approx(want)


def test_cross_from_sections_hits_targets(spec3):
    from convexiq import coordops, measures
    targets = [1.0, 2.0, 3.0]
    c = iq.cross_polytope_from_sections(targets)
    spec2 = quadrature.QuadratureSpec.for_dimension(2)
    for i, want in enumerate(targets):
        got = measures.vm(coordops.section_drop(c, i), 2, spec2).value
        assert got == pytest.approx(want, rel=1e-9)
    with pytest.raises(InvalidArgument):
        iq.cross_polytope_from_sections([1.0, 0.0, 2.0])
    with pytest.raises(InvalidArgument):
        iq.cross_polytope_from_sections([1.0])


def test_segment_from_balanced_projections(spec3):
    """Equal widths lam give half extents lam / (2 sqrt 2), and the
    segment's shadows have width lam, at every scale."""
    from convexiq import coordops, measures
    for lam in (1e-8, 1.0, 1e8):
        res = iq.segment_from_projections([lam] * 3)
        assert res.feasible
        assert res.violating_index is None
        assert res.half_extents == pytest.approx((lam * 0.35355339059327373,) * 3,
                                                 rel=1e-12, abs=0.0)
        for i in range(3):
            w = measures.vm(coordops.project_drop(res.segment, i), 1, spec3).value
            assert w == pytest.approx(lam, rel=1e-12, abs=0.0)


def test_segment_reconstruction_reports_infeasibility():
    """Widths lam (1, 1, 2) and lam (1, 1, 3) have no segment at any
    scale: the test of x_i^2 < 0 is relative to the summed squares."""
    for lam in (1e-8, 1.0, 1e8):
        for widths in ([1.0, 1.0, 2.0], [1.0, 1.0, 3.0]):
            res = iq.segment_from_projections([lam * w for w in widths])
            assert not res.feasible, (lam, widths)
            assert res.segment is None
            assert res.violating_index == 3
    with pytest.raises(InvalidArgument):
        iq.segment_from_projections([1.0, -1.0, 1.0])


# ---------------------------------------------------------------------------
# classifier


def test_classifier_labels():
    assert iq.equality_case_classifier(bodies.cube(3)) == "coordinate-box"
    assert iq.equality_case_classifier(
        bodies.translate_body(bodies.cube(3), np.array([5.0, 0.0, 0.0]))
    ) == "coordinate-box"
    assert iq.equality_case_classifier(
        bodies.cross_polytope(3)) == "regular-coordinate-cross-polytope"
    assert iq.equality_case_classifier(
        bodies.scale_body(bodies.cross_polytope(3), 2.0)
    ) == "regular-coordinate-cross-polytope"

    v = np.zeros((6, 3))
    for i, t in enumerate([1.0, 2.0, 0.5]):
        v[2 * i, i] = t
        v[2 * i + 1, i] = -t
    stretched = bodies.convex_hull(v)
    assert iq.equality_case_classifier(stretched) == \
        "o-symmetric-coordinate-cross-polytope"
    shifted = bodies.translate_body(stretched, np.array([0.3, 0.0, 0.0]))
    assert iq.equality_case_classifier(shifted) == "coordinate-cross-polytope"

    simplex = bodies.convex_hull(
        np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert iq.equality_case_classifier(simplex) == "unmatched"
    triangle = bodies.convex_hull(np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]]))
    assert iq.equality_case_classifier(triangle, m=2) == "flat"


def test_classifier_zonotope_labels():
    diag = bodies.Zonotope(np.zeros(3), np.array([[1.0, 1.0, 1.0],
                                                  [0.5, -0.5, 0.5]]))
    assert iq.equality_case_classifier(diag) == "diagonal-generators"
    mixed = bodies.Zonotope(np.zeros(3), np.array([[1.0, 1.0, 0.0],
                                                   [0.0, 1.0, 1.0]]))
    assert iq.equality_case_classifier(mixed) == "unmatched"


@pytest.mark.parametrize("lam", [1e-300, 1e-200, 1e-8, 1e8, 1e160, 1e300])
def test_classifier_zonotope_labels_hold_at_every_scale(lam):
    """Each generator is divided by its largest |entry| before it is
    normalized, so no norm underflows or overflows: a dilate, made by
    scale_body or afresh, has its body's class (a 1e-170 dilate of the
    diagonal one read ``unmatched``, and a 1e160 one of the random one
    ``diagonal-generators``), and no RuntimeWarning is raised."""
    diagonal = bodies.Zonotope(np.zeros(3), np.array([[1.0, 1.0, 1.0], [2.0, -2.0, 2.0],
                                                      [1.0, 1.0, -1.0]]))
    random = bodies.Zonotope(np.zeros(3), np.random.default_rng(0).standard_normal((5, 3)))
    for z, label in ((diagonal, "diagonal-generators"), (random, "unmatched")):
        assert iq.equality_case_classifier(z) == label
        for dilate in (bodies.scale_body(z, lam), bodies.Zonotope(lam * z.center, lam * z.generators)):
            assert dilate.generator_count == z.generator_count
            assert iq.equality_case_classifier(dilate) == label


# ---------------------------------------------------------------------------
# report plumbing


def test_fingerprint_is_stable_and_specific():
    a = iq.body_fingerprint(bodies.cube(3))
    b = iq.body_fingerprint(bodies.cube(3))
    c = iq.body_fingerprint(bodies.translate_body(bodies.cube(3),
                                                  np.array([1e-6, 0.0, 0.0])))
    assert a == b
    assert a != c
    assert len(a) == 16
    int(a, 16)  # hex


# Fingerprints of these bodies as evaluate wrote them when it hashed every
# body it evaluated: reading the fingerprint later must not move a byte.
FINGERPRINT_BODIES = {
    "vpolytope": (lambda: bodies.convex_hull(np.array(
        [[0.0, 0, 0], [2, 0, 0], [0, 1, 0], [0, 0, 3], [1, 1, 1]])),
        "6f98479514f1a0b2"),
    "zonotope": (lambda: bodies.Zonotope(
        np.array([0.5, 0, 0]), np.array([[1.0, 0, 0], [0, 1, 0], [1, 1, 1]])),
        "e95b0cc2804ace6b"),
    "ball": (lambda: bodies.ball(3), "700c10cb3f03e5b6"),
    "k1": (bodies.k1, "9e29b55b4154f82a"),
    "named-cube": (lambda: bodies.NamedBody("cube", 4), "e4def8f789a46f98"),
}


@pytest.mark.parametrize("kind", sorted(FINGERPRINT_BODIES))
def test_report_fingerprint_is_read_from_its_body(kind, spec3):
    make, expected = FINGERPRINT_BODIES[kind]
    body = make()
    report = iq.evaluate("loomis_whitney", body, spec=spec3)
    assert report.body is body  # unresolved: a named body stays named
    assert report.body_fingerprint == iq.body_fingerprint(bodies.resolve(body))
    assert report.body_fingerprint == expected
    assert "vertices" not in repr(report) and "array" not in repr(report)
    # equality ignores the body
    again = iq.evaluate("loomis_whitney", make(), spec=spec3)
    assert again == report and again.body is not report.body


def test_summary_line_format(spec3):
    r = iq.evaluate("loomis_whitney", bodies.cube(3), spec=spec3)
    line = r.summary_line()
    assert line.startswith("PASS loomis_whitney (proven)")
    assert "[equality-case-matched]" in line
    r = iq.evaluate("prob4_family", bodies.cube(3), m=1, params={"c2": 1e6},
                    spec=spec3)
    assert r.summary_line().startswith("VIOLATION prob4_family (open)")


def test_tolerance_override(spec3):
    """``tolerance`` only raises the links' own tolerances, and the report
    states the one it held them to, so ``oriented_slack >= -tolerance``
    says whether the inequality held.  Meyer's bound on a dilated
    cross-polytope holds with equality, up to a slack of -2.8e-17."""
    r = iq.evaluate("loomis_whitney", bodies.cube(3), spec=spec3,
                    tolerance=0.5)
    assert r.tolerance == 0.5
    body = bodies.scale_body(bodies.cross_polytope(3), 0.7)
    own = iq.evaluate("meyer", body)
    assert own.tolerance > 0.0
    for t in (0.0, 0.5):
        r = iq.evaluate("meyer", body, tolerance=t)
        assert r.tolerance == max(t, own.tolerance)
        assert r.satisfied and r.oriented_slack >= -r.tolerance


@pytest.mark.parametrize("lam", [1e-8, 1.0, 1e8])
@pytest.mark.parametrize("n", [3, 4])
def test_equality_flags_hold_at_every_scale(n, lam):
    """The classifier compares vertices within CLASSIFY_TOL times the
    body's largest |coordinate|, with no floor at 1, so a dilated cube
    or cross-polytope is matched to its family at any scale."""
    for ineq_id, body in (("loomis_whitney", bodies.cube(n)),
                          ("meyer", bodies.cross_polytope(n)),
                          ("sqrt_n_lower", bodies.cross_polytope(n))):
        r = iq.evaluate(ineq_id, bodies.scale_body(body, lam))
        assert r.equality_flag == "equality-case-matched", ineq_id


@pytest.mark.parametrize("ineq_id", ["loomis_whitney", "meyer"])
def test_a_power_that_overflows_a_float_is_undefined(ineq_id):
    """V_n(K)^(n-1) of 1e30 cube(4) overflows a float: the report is
    refused, not an OverflowError."""
    with pytest.raises(UndefinedValue, match=ineq_id):
        iq.evaluate(ineq_id, bodies.scale_body(bodies.cube(4), 1e30))


@pytest.mark.parametrize("ineq_id, lam, m, params", [
    ("prob5_family", 2.1e12, 2, {"c3": 1.0}),   # rhs inf: slack -inf, tolerance inf
    ("square_lower", 1e60, None, None),         # lhs and rhs inf: slack NaN
])
def test_a_slack_or_tolerance_that_is_not_finite_is_undefined(ineq_id, lam, m, params):
    """A product of finite powers that overflows to inf is refused, not
    reported as satisfied (prob5_family read near-equality with rhs inf)
    or with a NaN slack."""
    with pytest.raises(UndefinedValue, match=ineq_id):
        iq.evaluate(ineq_id, bodies.scale_body(bodies.cube(4), lam), m=m, params=params)


@pytest.mark.parametrize("n, lam, ineq_id, m, params", [
    (8, 1e-6, "prob5_family", 6, {"c3": 1.0}),   # read lhs = rhs = 0, satisfied
    (8, 1e-6, "meyer", None, None),               # read near-equality at lhs/rhs = 417
    (4, 1e-20, "prob5_family", 2, {"c3": 1.0}),   # read lhs = rhs = 0, satisfied
    (4, 1e-30, "loomis_whitney", None, None),     # read lhs = rhs = 0, equality case
])
def test_a_product_that_underflows_a_float_is_undefined(n, lam, ineq_id, m, params):
    """A power or product of nonzero measures that falls below the least
    normal float has lost its digits or reads 0: the report is refused,
    not read as satisfied."""
    with pytest.raises(UndefinedValue, match=f"{ineq_id}: .* underflows"):
        iq.evaluate(ineq_id, bodies.scale_body(shared_cube(n), lam), m=m, params=params)


def test_a_product_with_a_zero_measure_is_not_an_underflow():
    """A zero factor is a true zero: a flat body's volume powers still
    evaluate."""
    flat = bodies.convex_hull(np.array([[0.0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0],
                                        [0, 0, 1, 0]]))
    r = iq.evaluate("loomis_whitney", flat)
    assert r.lhs == 0.0


def test_meyer_on_a_huge_dilate_is_undefined_not_a_crash():
    """The origin test of a dilate reads its source, so qhull never sees
    1e60 or 1e160 times cube(4) (it raised QH6154 at 1e60 and crashed the
    interpreter at 1e160), and the overflow guard refuses the report.  The
    1e160 case runs in its own interpreter."""
    with pytest.raises(UndefinedValue, match="meyer"):
        iq.evaluate("meyer", bodies.scale_body(bodies.cube(4), 1e60))
    src = str(Path(iq.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("from convexiq import bodies, inequalities as iq\n"
            "from convexiq.errors import UndefinedValue\n"
            "try:\n"
            "    iq.evaluate('meyer', bodies.scale_body(bodies.cube(4), 1e160))\n"
            "except UndefinedValue:\n"
            "    print('undefined')\n")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert (run.returncode, run.stdout) == (0, "undefined\n"), run.stderr


@pytest.mark.parametrize("lam", [1e-300, 1e-200, 1e-8, 1e8, 1e60, 1e100])
def test_origin_interior_of_a_dilate_is_its_sources(lam):
    """Whether the origin is interior does not change under dilation: the
    dilate answers as its body for an origin inside, on a facet of and
    outside cube(4) and inside a random 4-polytope."""
    cube = bodies.cube(4)
    shapes = [bodies.translate_body(cube, np.array([shift, 0.0, 0.0, 0.0]))
              for shift in (0.0, 1.0, 2.0)]
    shapes.append(bodies.convex_hull(np.random.default_rng(5).standard_normal((12, 4))))
    assert [iq._origin_interior(k) for k in shapes[:3]] == [True, False, False]
    for k in shapes:
        assert iq._origin_interior(bodies.scale_body(k, lam)) == iq._origin_interior(k)


# ---------------------------------------------------------------------------
# one geometry pass per body


def test_battery_hulls_each_projection_and_section_once(monkeypatch, rng, spec3):
    hulled = []
    real = bodies.convex_hull

    def counting(points):
        hulled.append(np.asarray(points, dtype=float).tobytes())
        return real(points)

    for module in (bodies, coordops):
        monkeypatch.setattr(module, "convex_hull", counting)
    # the cross-polytope's points keep the origin interior: every section
    # is non-empty
    p = real(np.vstack([rng.standard_normal((9, 3)), 0.5 * np.eye(3), -0.5 * np.eye(3)]))
    battery = [("bm_upper", None), ("cg_upper", 1), ("cg_upper", 2),
               ("square_lower", None), ("easy_bounds", 1), ("trivmax", 2),
               ("reverse_cs", 1)]
    for ineq_id, m in battery:
        iq.evaluate(ineq_id, p, m=m, spec=spec3)
    # The projections' and sections' measures come from p's boundary, the
    # sections by x_0 = 0 and x_2 = 0 too, though the vertex -0.5 e_1 lies
    # on both planes: nothing is hulled.
    assert p.vertices[4].tolist() == [0.0, -0.5, 0.0]
    assert hulled == []


def test_evaluate_rejects_parameters_the_entry_does_not_take():
    with pytest.raises(InvalidArgument, match="does not take parameter"):
        iq.evaluate("loomis_whitney", bodies.cube(3), params={"zzz": 1})
    with pytest.raises(InvalidArgument, match="does not take parameter"):
        iq.evaluate("loomis_whitney", bodies.cube(3), params={"c2": -1})
    with pytest.raises(InvalidArgument, match="does not take parameter"):
        iq.evaluate("easy_bounds", bodies.cube(3), m=1, params={"p": 2.0, "a": [1.0] * 3})
    r = iq.evaluate("easy_bounds", bodies.cube(3), m=1, params={"p": 3})
    assert r.params == {"p": 3.0, "m": 1}
