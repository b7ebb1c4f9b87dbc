"""End-to-end acceptance battery.

Each test covers one numbered release criterion and prints a single
pass line; tolerances are part of the contract and must not be loosened.
"""

import json
import math
import time

import numpy as np
import pytest

from convexiq import (bodies, cli, coordops, explorer, inequalities as iq,
                      io, measures, quadrature, symmetry)

from conftest import parallelepiped, random_polytope, random_zonotope

ACOS13 = math.acos(1.0 / 3.0)


def _unconditional(rng, n, k=4):
    base = np.abs(rng.standard_normal((k, n))) + 0.1
    signs = np.array(np.meshgrid(*([[-1.0, 1.0]] * n),
                                 indexing="ij")).reshape(n, -1).T
    cloud = (base[:, None, :] * signs[None, :, :]).reshape(-1, n)
    return bodies.convex_hull(cloud)


def test_criterion_01_disk_hull_width_two_routes():
    t0 = time.perf_counter()
    by_support = explorer._wedge_quadrature_mean_width(explorer.GL_NODES)
    by_closed_slice = measures.vm(bodies.k1(), 1).value
    elapsed = time.perf_counter() - t0
    assert abs(by_support - 3.8663) <= 1e-3
    assert abs(by_closed_slice - 3.8663) <= 1e-3
    assert abs(by_support - by_closed_slice) <= 1e-5
    assert elapsed < 30.0
    print(f"criterion 1: PASS — three-disk hull width {by_support:.6f} by two "
          f"routes (gap {abs(by_support - by_closed_slice):.2e}, "
          f"{elapsed:.1f}s)")


def test_criterion_02_exact_widths_of_reference_bodies():
    closed = 12.0 * math.sqrt(2.0) * ACOS13 / (2.0 * math.pi)
    edge_route = measures.v1_polytope_exact(bodies.cross_polytope(3))
    assert abs(edge_route - closed) <= 1e-12
    k2_width = measures.v1_polytope_exact(
        bodies.as_vpolytope(bodies.k2()))
    assert abs(k2_width - 4.1669) <= 1e-4
    print(f"criterion 2: PASS — cross-polytope width {edge_route:.12f} matches "
          f"the closed form; scaled-cross width {k2_width:.6f}")


def test_criterion_03_squared_ratio_falsifies_general_bound():
    v1 = measures.v1_polytope_exact(bodies.cross_polytope(3))
    ratio = v1 * v1 / (3.0 * (2.0 * math.sqrt(2.0)) ** 2)
    assert abs(ratio - 0.46058) <= 1e-4
    assert ratio < 0.5
    print(f"criterion 3: PASS — squared width ratio {ratio:.6f} < 1/2 on the "
          f"cross-polytope")


def test_criterion_04_gamma_constant_and_zonotope_battery():
    c = iq.mth_lower_constant(3, 1)
    assert abs(c - 4.0 / math.pi ** 2) <= 1e-9

    rng = np.random.default_rng(20240804)
    checked = 0
    worst = math.inf
    for i in range(500):
        n = 3 + (i % 3)                      # 3, 4, 5
        z = random_zonotope(rng, n)
        for m in range(1, n - 1):
            r = iq.evaluate("mth_lower", z, m=m)
            assert r.satisfied, r.summary_line()
            worst = min(worst, r.oriented_slack)
        checked += 1
    assert checked == 500
    print(f"criterion 4: PASS — constant {c:.9f}; squared lower bound held on "
          f"500 random zonotopes, n <= 5, all m <= n-2 "
          f"(worst slack {worst:+.3e})")


def test_criterion_05_flat_projection_identity():
    rng = np.random.default_rng(20240805)
    checked = 0
    worst = 0.0
    for n in range(2, 7):
        for m in range(1, n + 1):
            for _ in range(50):
                f = parallelepiped(rng.standard_normal((m, n)))
                h = measures.vm(f, m).value
                lhs = (n - m) * h * h
                rhs = sum(measures.vm(coordops.project(f, i), m).value ** 2
                          for i in range(n))
                scale = max(lhs, rhs, 1.0)
                worst = max(worst, abs(lhs - rhs) / scale)
                assert abs(lhs - rhs) <= 1e-9 * scale
                checked += 1
    assert checked == 1000
    print(f"criterion 5: PASS — squared-projection identity on {checked} "
          f"random flat sets, n <= 6, all m (worst rel dev {worst:.2e})")


def test_criterion_06_equality_battery(spec3):
    cube, cross = bodies.cube(3), bodies.cross_polytope(3)

    lw = iq.evaluate("loomis_whitney", cube, spec=spec3)
    assert lw.satisfied and abs(lw.oriented_slack) < 1e-9

    meyer = iq.evaluate("meyer", cross, spec=spec3)
    assert meyer.satisfied and abs(meyer.oriented_slack) < 1e-9
    assert meyer.lhs == pytest.approx(16.0 / 9.0, abs=1e-9)

    square = iq.evaluate("square_lower", cross, spec=spec3)
    assert square.satisfied and abs(square.oriented_slack) < 1e-9
    assert square.lhs == pytest.approx(12.0, abs=1e-9)

    root_n = iq.evaluate("sqrt_n_lower", cross, spec=spec3)
    assert root_n.satisfied and abs(root_n.oriented_slack) < 1e-9

    for rep in (lw, meyer, square, root_n):
        assert rep.equality_flag == "equality-case-matched"
    print("criterion 6: PASS — equality cases hit (box projection product; "
          "cross-polytope 16/9 and 12; regular-cross root-n chain), "
          "slacks < 1e-9")


def test_criterion_07_proven_suite_on_random_corpus(spec3):
    """Every proven bound from the catalog on a 1000-body corpus.

    Routing keeps every evaluation on an exact measure path: polytopes
    carry the top-degree checks in every dimension, everything at n = 3 and
    n = 4 where all intrinsic volumes have exact routes (boundary angles
    give V_1 and V_2 of 4-polytopes), while mid-degree and width-degree
    checks at n = 5 ride on zonotopes.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240807)

    corpus = []   # (body, [(ineq, m, params), ...])
    pyth_directions = 0

    def pyth(n):
        nonlocal pyth_directions
        u = rng.standard_normal(n)
        pyth_directions += 1
        return ("pythagorean", n - 1, {"u": list(u)})

    for i in range(200):    # n = 3 polytopes: every listed bound is exact
        p = random_polytope(rng, 3, k=int(rng.integers(5, 13)))
        battery = [("bm_upper", None, {}), ("cg_upper", 1, {}),
                   ("cg_upper", 2, {}), ("square_lower", None, {}),
                   ("easy_bounds", 1, {}), ("trivmax", 2, {}),
                   ("reverse_cs", 1, {})]
        if i < 60:
            battery.append(pyth(3))
        corpus.append((p, battery))
    for _ in range(140):
        z = random_zonotope(rng, 3)
        corpus.append((z, [("zonoid_lower", 1, {}), ("bm_upper", None, {})]))
    for _ in range(60):
        u = _unconditional(rng, 3)
        corpus.append((u, [("square_lower", None, {}),
                           ("bm_upper", None, {}), ("trivmax", 1, {})]))

    for i in range(150):    # n = 4 polytopes: top-degree and angle routes
        p = random_polytope(rng, 4, k=int(rng.integers(6, 14)))
        battery = [("bm_upper", None, {}), ("cg_upper", 1, {}),
                   ("cg_upper", 2, {}), ("cg_upper", 3, {}),
                   ("square_lower", None, {}), ("easy_bounds", 3, {}),
                   ("trivmax", 3, {}), ("reverse_cs", 2, {})]
        if i < 40:
            battery.append(pyth(4))
        corpus.append((p, battery))
    for _ in range(150):    # n = 4 zonotopes: width and mid degrees
        z = random_zonotope(rng, 4)
        corpus.append((z, [("cg_upper", 1, {}), ("cg_upper", 2, {}),
                           ("zonoid_lower", 1, {}), ("zonoid_lower", 2, {}),
                           ("reverse_cs", 1, {}), ("easy_bounds", 2, {}),
                           ("trivmax", 1, {})]))

    for _ in range(150):    # n = 5 polytopes
        p = random_polytope(rng, 5, k=int(rng.integers(7, 15)))
        corpus.append((p, [("bm_upper", None, {}), ("cg_upper", 4, {}),
                           ("square_lower", None, {}), ("trivmax", 4, {}),
                           ("reverse_cs", 3, {})]))
    for i in range(150):    # n = 5 zonotopes
        z = random_zonotope(rng, 5)
        battery = [("cg_upper", 1, {}), ("cg_upper", 3, {}),
                   ("zonoid_lower", 1, {}), ("zonoid_lower", 2, {}),
                   ("zonoid_lower", 3, {}), ("reverse_cs", 1, {}),
                   ("reverse_cs", 3, {})]
        if i < 30:   # slab sections in R^5 hull 4-d point clouds; keep rare
            battery.append(("easy_bounds", 3, {}))
        corpus.append((z, battery))

    assert len(corpus) == 1000
    assert pyth_directions == 100

    evaluations = 0
    violations = []
    worst = math.inf
    for body, battery in corpus:
        for ineq_id, m, params in battery:
            r = iq.evaluate(ineq_id, body, m=m, params=params, spec=spec3)
            evaluations += 1
            worst = min(worst, r.oriented_slack + r.tolerance)
            if not r.satisfied:
                violations.append((ineq_id, m, r.oriented_slack))
    elapsed = time.perf_counter() - t0
    assert violations == [], violations[:5]
    assert elapsed < 300.0
    print(f"criterion 7: PASS — {evaluations} proven-bound evaluations on a "
          f"1000-body corpus (n = 3,4,5; 100 random split directions), zero "
          f"violations, {elapsed:.1f}s")


def test_criterion_08_constructors_round_trip(spec3):
    spec_by_n = {m: quadrature.QuadratureSpec.for_dimension(m)
                 for m in (2, 3, 4)}
    rng = np.random.default_rng(20240808)

    for n in (3, 4, 5):
        for _ in range(10):
            targets = rng.uniform(0.5, 3.0, size=n)
            c = iq.cross_polytope_from_sections(targets)
            for i, want in enumerate(targets):
                sec = coordops.section_drop(c, i)
                got = measures.vm(sec, n - 1, spec_by_n[n - 1]).value
                assert abs(got - want) <= 1e-9 * max(1.0, want)

    for n in (3, 4, 5):
        for _ in range(10):
            x = rng.uniform(0.2, 2.0, size=n)
            seg = bodies.convex_hull(np.vstack([x / 2.0, -x / 2.0]))
            widths = [measures.vm(coordops.project_drop(seg, i), 1,
                                  spec3).value for i in range(n)]
            back = iq.segment_from_projections(widths)
            assert back.feasible
            assert np.allclose(back.half_extents, x / 2.0, rtol=1e-9)

    flagged = iq.segment_from_projections([1.0, 1.0, 2.0])
    assert not flagged.feasible
    assert flagged.violating_index == 3
    print("criterion 8: PASS — section and projection constructors reproduce "
          "their targets to 1e-9; the (1,1,2) data is infeasible at index 3")


def test_criterion_09_width_ratio_suite(spec3):
    rng = np.random.default_rng(20240809)
    c0 = ACOS13 / math.pi

    lowest = math.inf
    for i in range(500):
        if i % 5 == 4:
            body = random_zonotope(rng, 3)
        elif i % 5 == 3:
            body = _unconditional(rng, 3)
        else:
            body = random_polytope(rng, 3, k=int(rng.integers(4, 12)))
        ratio = explorer.mean_width_ratio(body, spec3)
        lowest = min(lowest, ratio)
        assert ratio >= c0 - 1e-6

    drift = 0.0
    for k in (5, 6, 8):
        p = random_polytope(rng, 3, k=k)
        d = abs(explorer.mean_width_ratio(coordops.g_symmetral(p), spec3) -
                explorer.mean_width_ratio(p, spec3))
        drift = max(drift, d)
        assert d <= 1e-6

    group = symmetry.hyperoctahedral_group(3)
    mats = [g.matrix() for g in group]
    profiles = 0
    for i in range(96):
        base = rng.standard_normal((int(rng.integers(1, 4)), 3)) * \
            rng.uniform(0.5, 2.0)
        orbit = np.concatenate([base @ m.T for m in mats], axis=0)
        body = bodies.convex_hull(orbit)
        prof = explorer.support_ratio_profile(body, points=64)
        scale = max(1.0, float(np.max(np.abs(prof[:, 1]))))
        assert np.all(np.diff(prof[:, 1]) >= -1e-6 * scale)
        profiles += 1
    for body in (bodies.cube(3), bodies.cross_polytope(3), bodies.k1(),
                 bodies.k2()):
        prof = explorer.support_ratio_profile(body, points=64)
        assert np.all(np.diff(prof[:, 1]) >= -1e-6)
        profiles += 1
    assert profiles == 100
    print(f"criterion 9: PASS — width ratio >= 0.391820(-1e-6) on 500 random "
          f"3-bodies (min {lowest:.6f}); averaging drift <= {drift:.2e}; "
          f"equatorial ratio nondecreasing on 100 symmetric bodies")


def test_criterion_10_byte_identical_reruns(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"problem": "cg33", "n": 3, "m": 1,
                               "family": "zonotope", "iterations": 40,
                               "restarts": 2, "seed": 17}), encoding="utf-8")
    for sub in ("one", "two"):
        d = tmp_path / sub
        assert cli.main(["make", "--family", "random-polytope", "--count", "3",
                         "--n", "3", "--seed", "9",
                         "--out", str(d / "corpus")]) == 0
        assert cli.main(["search", "--config", str(cfg),
                         "--out", str(d / "search")]) == 0

    compared = 0
    for rel in ("corpus/random-polytope-3d-000.json",
                "corpus/random-polytope-3d-001.json",
                "corpus/random-polytope-3d-002.json",
                "search/search-result.json",
                "search/trajectory.csv"):
        a = (tmp_path / "one" / rel).read_bytes()
        b = (tmp_path / "two" / rel).read_bytes()
        assert a == b, f"artifact differs between reruns: {rel}"
        compared += 1
    assert compared == 5
    print("criterion 10: PASS — corpus and search artifacts byte-identical "
          "across seeded reruns")
