"""Tests for the exploration layer: the width-ratio functional, the
equatorial support profile, reproduction reports, and the randomized
counterexample search."""

import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from convexiq import QuadratureSpec, bodies, cli, explorer, inequalities as iq, io, measures
from convexiq.errors import InvalidArgument, UndefinedValue

from conftest import FIVE_VERTICES, random_polytope


# ---------------------------------------------------------------------------
# width-ratio functional


def test_width_ratio_on_cube(spec3):
    assert explorer.mean_width_ratio(bodies.cube(3), spec3) == \
        pytest.approx(0.5, rel=1e-9)


def test_width_ratio_on_cross(spec3):
    got = explorer.mean_width_ratio(bodies.cross_polytope(3), spec3)
    assert got == pytest.approx(math.acos(1.0 / 3.0) / math.pi, rel=1e-12)


def test_width_ratio_scale_invariant(rng, spec3):
    """The ratio of a dilate is the body's at every scale from 1e-14 to
    1e8: only a point's projection widths sum to 0."""
    for body in (random_polytope(rng, 3), bodies.cube(3)):
        r1 = explorer.mean_width_ratio(body, spec3)
        for lam in (1e-14, 1e-8, 7.5, 1e8):
            r2 = explorer.mean_width_ratio(bodies.scale_body(body, lam), spec3)
            assert r2 == pytest.approx(r1, rel=1e-9), lam


def test_width_ratio_undefined_for_points(spec3):
    point = bodies.convex_hull(np.zeros((1, 3)))
    with pytest.raises(UndefinedValue):
        explorer.mean_width_ratio(point, spec3)


# ---------------------------------------------------------------------------
# equatorial support profile


def test_support_ratio_constant_on_cross():
    prof = explorer.support_ratio_profile(bodies.cross_polytope(3), points=16)
    assert prof.shape == (16, 2)
    assert prof[0, 0] == 0.0
    assert prof[-1, 0] == pytest.approx(1.0 / math.sqrt(2.0))
    assert np.allclose(prof[:, 1], 1.0, atol=1e-12)


def test_support_ratio_on_cube():
    prof = explorer.support_ratio_profile(bodies.cube(3), points=16)
    x1 = np.sqrt(1.0 - prof[:, 0] ** 2)
    np.testing.assert_allclose(prof[:, 1], (x1 + prof[:, 0]) / x1, rtol=1e-12)


def test_support_ratio_profile_nondecreasing_on_invariant_bodies():
    for body in (bodies.cube(3), bodies.ball(3), bodies.k1()):
        prof = explorer.support_ratio_profile(body, points=64)
        assert np.all(np.diff(prof[:, 1]) >= -1e-9)


def test_support_ratio_guards(rng):
    lopsided = random_polytope(rng, 3)
    with pytest.raises(InvalidArgument, match="symmetr"):
        explorer.support_ratio_profile(lopsided)
    with pytest.raises(InvalidArgument, match="n = 3"):
        explorer.support_ratio_profile(bodies.cube(4))
    with pytest.raises(InvalidArgument):
        explorer.support_ratio_profile(bodies.cube(3), points=1)


@pytest.mark.parametrize("factor", [1e-8, 1e-4, 1.0, 1e4, 1e8, 1e10])
def test_support_ratio_symmetry_check_is_relative(factor):
    """The invariance defect is measured against the body's own support,
    so a dilated cube is accepted at every scale (and its ratios dilate)."""
    prof = explorer.support_ratio_profile(bodies.scale_body(bodies.cube(3), factor),
                                          points=8)
    unit = explorer.support_ratio_profile(bodies.cube(3), points=8)
    np.testing.assert_allclose(prof[:, 1], factor * unit[:, 1], rtol=1e-14)


@pytest.mark.parametrize("factor", [1e-9, 1e9])
def test_support_ratio_refuses_a_dilated_asymmetric_body(factor):
    with pytest.raises(InvalidArgument, match="symmetr"):
        explorer.support_ratio_profile(bodies.scale_body(FIVE_VERTICES, factor), points=8)


# ---------------------------------------------------------------------------
# reproduction reports


def test_repro_all_targets_pass():
    reports = explorer.run_repro("all")
    assert tuple(r.target for r in reports) == explorer.REPRO_TARGETS
    for rep in reports:
        assert rep.passed, rep.table()


def test_repro_disk_hull_routes_agree():
    rep = explorer.run_repro("k1")[0]
    rows = {r.name: r for r in rep.rows}
    assert rows["disk-hull-width-quadrature"].computed == \
        pytest.approx(3.8663, abs=1e-3)
    assert rows["route-agreement"].computed <= 1e-5
    assert rows["scaled-cross-exceeds-disk-hull"].computed > 0


def test_repro_ratio_constants():
    rep = explorer.run_repro("eq1-c3")[0]
    rows = {r.name: r for r in rep.rows}
    assert rows["cross-width-closed-form"].computed == \
        pytest.approx(3.324758543877433, abs=1e-12)
    assert rows["squared-bound-ratio"].computed == pytest.approx(0.46058, abs=1e-4)
    assert rows["gamma-ratio-closed-form"].computed == \
        pytest.approx(4.0 / math.pi ** 2, abs=1e-9)


def test_repro_unknown_target():
    with pytest.raises(InvalidArgument, match="unknown reproduction target"):
        explorer.run_repro("k9")


def test_repro_row_semantics():
    row = explorer.ReproRow("x", 1.5, reference=1.4, tolerance=0.2)
    assert row.passed
    assert "PASS" in row.table_line()
    row = explorer.ReproRow("x", 1.5, reference=1.4, tolerance=0.01)
    assert not row.passed
    assert "FAIL" in row.table_line()
    assert explorer.ReproRow("x", 0.5).passed          # bare assertion: > 0
    assert not explorer.ReproRow("x", -0.5).passed
    rep = explorer.run_repro("c0")[0]
    assert rep.table().startswith("[c0]")


# ---------------------------------------------------------------------------
# search configuration


def test_validate_config_normalizes_defaults():
    cfg = explorer.validate_config(explorer.SearchConfig(
        problem="cg33", n=3, m=1, family="zonotope", iterations=5))
    assert cfg.family_size == 6
    cfg = explorer.validate_config(explorer.SearchConfig(
        problem="heron_n3", n=3, m=2, family="cross-perturbation",
        iterations=5))
    assert cfg.m is None                    # heron ignores m
    assert cfg.family_size == 6             # 2n vertices, forced


@pytest.mark.parametrize("bad", [
    dict(problem="nope", n=3, m=1),
    dict(problem="cg33", n=3, m=1, family="nope"),
    dict(problem="cg33", n=9, m=1),
    dict(problem="cg33", n=3, m=None),
    dict(problem="cg33", n=3, m=3),
    dict(problem="cg33", n=3, m=1, iterations=0),
    dict(problem="cg33", n=3, m=1, restarts=0),
    dict(problem="cg33", n=3, m=1, proposal_scale=-0.5),
    dict(problem="cg33", n=3, m=1, seed=-1),
    dict(problem="cg33", n=3, m=1, constant=0.5),      # takes no constant
    dict(problem="prob4", n=3, m=1, family="unconditional-polytope"),  # no c2
    dict(problem="prob4", n=3, m=1, family="zonotope", constant=0.5),  # settled
    dict(problem="eq11_midrange", n=4, m=2),
    dict(problem="heron_n3", n=4, m=None, family="cross-perturbation"),
    dict(problem="cg33", n=3, m=1, family="cross-perturbation", family_size=5),
    dict(problem="cg33", n=3, m=1, family_size=2),
    dict(problem="cg33", n=3, m=1, iterations="5"),
    dict(problem="cg33", n=3, m=1.5),
    dict(problem="cg33", n=None, m=1),
    dict(problem="cg33", n=3, m=1, proposal_scale=math.nan),
    dict(problem="cg33", n=3, m=1, quad_resolution=math.inf),
    dict(problem="prob4", n=3, m=1, family="unconditional-polytope",
         constant=math.nan),
    dict(problem="prob4", n=3, m=1, family="unconditional-polytope",
         constant=-1.0),                                # c2 must be positive
])
def test_validate_config_rejections(bad):
    with pytest.raises(InvalidArgument):
        explorer.validate_config(explorer.SearchConfig(**bad))


def test_search_rejects_a_pairing_with_no_measure_route():
    # V_2 of a full-dimensional 6-polytope (m = d - 4) has no route.
    with pytest.raises(InvalidArgument, match="not computable"):
        explorer.search(explorer.SearchConfig(
            problem="cg33", n=6, m=2, family="cross-perturbation",
            iterations=1, restarts=1))


def test_config_hash_tracks_content():
    a = explorer.SearchConfig(problem="cg33", n=3, m=1, seed=7)
    b = explorer.SearchConfig(problem="cg33", n=3, m=1, seed=7)
    c = explorer.SearchConfig(problem="cg33", n=3, m=1, seed=8)
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()
    assert len(a.config_hash()) == 16


# ---------------------------------------------------------------------------
# search runs


CFG = explorer.SearchConfig(problem="cg33", n=3, m=1, family="zonotope",
                            iterations=60, restarts=2, seed=42)


def test_search_is_deterministic():
    r1 = explorer.search(CFG)
    r2 = explorer.search(CFG)
    assert r1.best_slack == r2.best_slack
    assert r1.best_report.body_fingerprint == r2.best_report.body_fingerprint
    assert r1.trajectory == r2.trajectory
    assert r1.evaluations == r2.evaluations
    assert r1.stamp == r2.stamp
    # the stamp hashes the validated config (defaults filled in)
    assert r1.stamp["config_hash"] == explorer.validate_config(CFG).config_hash()
    assert r1.stamp["seed"] == 42


def test_search_fingerprints_only_the_kept_bodies(monkeypatch):
    computed = []
    real = iq.body_fingerprint

    def counting(body):
        if "fingerprint" not in body.__dict__.get("_derived", {}):
            computed.append(body)
        return real(body)

    monkeypatch.setattr(iq, "body_fingerprint", counting)
    cfg = replace(CFG, iterations=40, restarts=2)
    result = explorer.search(cfg)
    assert result.evaluations == 2 * 41
    assert 1 <= len(computed) <= cfg.restarts
    # the report carries the normalized body that search-result.json holds
    written = hashlib.sha256(io.dumps_body(result.best_body).encode())
    assert result.best_report.body_fingerprint == written.hexdigest()[:16]


def test_search_on_proven_bound_finds_no_violation():
    r = explorer.search(CFG)
    assert r.best_slack >= 0.0
    assert r.violations == ()
    assert r.evaluations == 2 * (60 + 1)
    # trajectory quantiles are ordered and pooled across restarts
    assert len(r.trajectory) == 1
    chunk, count, q0, q25, q50, q75, q100 = r.trajectory[0]
    assert chunk == 0 and count == 120
    assert q0 <= q25 <= q50 <= q75 <= q100


def test_search_records_proven_violations_of_bad_constants():
    """An over-ambitious candidate constant for the open family must be
    falsified on exact evaluation routes, with full provenance rows."""
    cfg = explorer.SearchConfig(problem="prob4", n=3, m=1,
                                family="cross-perturbation",
                                iterations=20, restarts=1, seed=3,
                                constant=100.0)
    r = explorer.search(cfg)
    assert r.best_slack < 0.0
    assert r.violations
    v = r.violations[0]
    assert v.inequality_id == "prob4_family"
    assert v.slack < -10.0 * v.tolerance
    assert isinstance(v.body, bodies.VPolytope)
    assert v.restart == 0


def test_search_cg33_on_4_polytopes_runs_on_boundary_angles():
    # V_2 of 4-polytopes comes from ridge angles, V_2 of their 3-d
    # projections from facet areas: every report is exact, and the bound
    # is proven at m = n - 2
    cfg = explorer.SearchConfig(problem="cg33", n=4, m=2,
                                family="unconditional-polytope",
                                iterations=5, restarts=1, seed=1)
    r = explorer.search(cfg)
    assert r.best_report.quadrature_error is None
    assert r.best_slack >= 0.0
    assert r.violations == ()


def test_search_records_prob4_violations_on_4_polytopes():
    """V_1 of a 4-polytope is exact (angle defects at its edges), so prob4
    reports in R^4 carry no quadrature error and c2 = 1 is falsified."""
    cfg = explorer.SearchConfig(problem="prob4", n=4, m=1,
                                family="unconditional-polytope",
                                iterations=3, restarts=1, seed=1,
                                constant=1.0)
    r = explorer.search(cfg)
    assert r.violations
    assert r.best_report.quadrature_error is None
    for v in r.violations:
        assert v.slack < -10.0 * v.tolerance
        again = iq.evaluate("prob4_family", v.body, m=1, params={"c2": 1.0})
        assert again.quadrature_error is None


@pytest.mark.parametrize("problem", ["eq11_midrange", "cg33"])
@pytest.mark.parametrize("family", ["unconditional-polytope", "cross-perturbation"])
def test_search_midrange_runs_on_5_polytopes(problem, family):
    """V_2 of a 5-polytope is V_{d-3} from boundary angles, so the first
    open degree of cg_upper and reverse_cs runs on polytopes, on exact
    reports, and reruns byte for byte."""
    cfg = explorer.SearchConfig(problem=problem, n=5, m=2, family=family,
                                iterations=2, restarts=1, seed=4)
    r1, r2 = explorer.search(cfg), explorer.search(cfg)
    assert isinstance(r1.best_body, bodies.VPolytope)
    assert r1.best_report.quadrature_error is None
    assert r1.evaluations == 3
    assert io.dumps_body(r1.best_body) == io.dumps_body(r2.best_body)
    assert io.dumps_report([("best", r1.best_report)]) == \
        io.dumps_report([("best", r2.best_report)])
    assert r1.trajectory == r2.trajectory


def test_search_midrange_zonotopes():
    # conjectured range (m strictly between 1 and n-2): the descent runs on
    # exact zonotope routes and, with at least three projections active for
    # any rank >= 2 generator set, finds no violation
    cfg = explorer.SearchConfig(problem="eq11_midrange", n=5, m=2,
                                family="zonotope", iterations=15,
                                restarts=1, seed=9)
    r = explorer.search(cfg)
    assert r.best_slack >= 0.0
    assert r.violations == ()


def test_a_prob4_search_hulls_no_normalized_body(monkeypatch):
    """Each normalized body is a dilate of its state body, whose measures
    it reads by homogeneity: a prob4 search in R^4 hulls each state body
    once (convex_hull hands that hull over) and each of its four
    coordinate shadows once, and builds no VPolytope.qhull of a
    normalized body."""
    calls = []
    real = bodies.ConvexHull

    def counting(points, *args, **kwargs):
        calls.append(np.shape(points)[1])
        return real(points, *args, **kwargs)

    monkeypatch.setattr(bodies, "ConvexHull", counting)
    cfg = explorer.SearchConfig(problem="prob4", n=4, m=1,
                                family="unconditional-polytope", iterations=3,
                                restarts=2, seed=1, constant=1.0, quad_resolution=64)
    r = explorer.search(cfg)
    assert r.evaluations == 8
    assert calls.count(4) == r.evaluations
    assert calls.count(3) == 4 * r.evaluations and len(calls) == 5 * r.evaluations
    assert "qhull" not in vars(r.best_body)


def test_a_prob4_evaluation_at_n5_integrates_once(monkeypatch):
    """At n = 5, V_1 of the state body is sphere quadrature, measured once
    for its size; the normalized dilate reads its V_1, value and error,
    off the state body, so one evaluation integrates once, not twice."""
    calls = []
    real = measures.integrate_sphere_with_error

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(measures, "integrate_sphere_with_error", counted)
    cfg = explorer.validate_config(explorer.SearchConfig(
        problem="prob4", n=5, m=1, family="unconditional-polytope", seed=3,
        constant=1.0, quad_resolution=16))
    state = explorer._initial_state(cfg, np.random.default_rng(3))
    _, report, _ = explorer._objective(cfg, state)
    assert calls == [5] and report.quadrature_error is not None


# The search configs of the benchmark's search workloads (perfbench).
BENCH_SEARCHES = {
    "heron_n3": {"problem": "heron_n3", "n": 3, "family": "cross-perturbation"},
    "cg33": {"problem": "cg33", "n": 4, "m": 2, "family": "zonotope"},
    "eq11_midrange": {"problem": "eq11_midrange", "n": 6, "m": 2, "family": "zonotope"},
    "prob5": {"problem": "prob5", "n": 3, "m": 1, "family": "unconditional-polytope",
              "constant": 1.2 * 24.0 * math.sqrt(3.0) / 512.0},
    "prob4": {"problem": "prob4", "n": 4, "m": 1, "family": "unconditional-polytope",
              "constant": 1.0, "quad_resolution": 64},
}


@pytest.mark.parametrize("name", sorted(BENCH_SEARCHES))
def test_searched_bodies_reproduce_their_values(tmp_path, capsys, name):
    """Every body a search writes, the best body and each finding's
    witness, read back with io.loads_body (so with no source to read
    its measures off) and evaluated afresh, gives the written lhs and
    rhs within 1e-12, and the best report's satisfied and equality_flag
    (a finding's witness violates the bound by more than ten times the
    tolerance again)."""
    config = dict(BENCH_SEARCHES[name], iterations=6, restarts=2)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    entry = iq.CATALOG[explorer._PROBLEM_TABLE[config["problem"]][0]]
    params = {} if entry.constant is None else {entry.constant: config["constant"]}
    spec = QuadratureSpec(resolution=config["quad_resolution"]) \
        if "quad_resolution" in config else None
    findings = 0
    for seed in range(3):
        out = tmp_path / f"run{seed}"
        assert cli.main(["search", "--config", str(path), "--seed", str(seed),
                         "--out", str(out)]) == 0
        result = json.loads((out / "search-result.json").read_text(encoding="utf-8"))
        written = [(result["best_body"], result["best_report"])]
        for finding in result["findings"]:
            payload = io.load_finding(out / finding)
            written.append((payload["witness"], payload))
        findings += len(result["findings"])
        for body, want in written:
            got = iq.evaluate(entry.id, io.loads_body(json.dumps(body)),
                              m=config.get("m"), params=params, spec=spec)
            for key in ("lhs", "rhs"):
                assert abs(getattr(got, key) - want[key]) <= 1e-12 * abs(want[key]), key
            if "equality_flag" in want:
                assert (got.satisfied, got.equality_flag) == \
                    (want["satisfied"], want["equality_flag"])
            else:
                assert got.oriented_slack < -10.0 * got.tolerance
    capsys.readouterr()
    if name == "prob4":     # c2 = 1 is falsified in R^4, so findings are checked
        assert findings > 0
