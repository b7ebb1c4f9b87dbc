"""Tests for serialization (canonical JSON bodies, reports, findings,
corpus generation) and the command-line front end with its exit codes."""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from convexiq import QuadratureSpec, bodies, cli, explorer, inequalities as iq, io, symmetry
from convexiq.errors import InvalidArgument, ParseError

GOLDEN = Path(__file__).parent / "golden"


# ---------------------------------------------------------------------------
# canonical JSON bodies


def test_canonical_json_shape():
    text = io.canonical_json({"b": 1, "a": [1.5]})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert '\n  "a"' in text            # two-space indent


@pytest.mark.parametrize("body", [
    bodies.cube(3),
    bodies.Zonotope(np.array([0.5, -0.5, 0.0]),
                    np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0]])),
    bodies.Ball(np.array([0.0, 1.0, 0.0]), 2.0, zeroed=frozenset({0})),
    bodies.NamedBody("K1", 3),
    bodies.DiskHull(),
])
def test_body_round_trip(body):
    text = io.dumps_body(body)
    back = io.loads_body(text)
    assert io.dumps_body(back) == text
    rng = np.random.default_rng(1)
    for u in rng.standard_normal((16, 3)):
        assert bodies.support(back, u) == pytest.approx(
            bodies.support(body, u), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("payload", [
    {"schema": "body/1", "kind": "disk-hull", "fineness": 64},
    {"schema": "body/1", "kind": "named", "name": "K1", "dimension": 3, "fineness": 64},
])
def test_fineness_is_read_and_ignored(payload):
    """body/1 payloads keep their "fineness" key at 256; a K1 read with
    any other value is K1 and writes back the fixed bytes."""
    body = io.loads_body(io.canonical_json(payload))
    assert isinstance(bodies.resolve(body), bodies.DiskHull)
    assert io.dumps_body(body) == io.canonical_json({**payload, "fineness": 256})


def test_body_payload_kinds():
    assert io.body_payload(bodies.cube(3))["kind"] == "polytope"
    assert io.body_payload(bodies.NamedBody("cross", 4))["kind"] == "named"
    assert io.body_payload(bodies.ball(3))["kind"] == "ball"
    assert io.body_payload(bodies.DiskHull())["kind"] == "disk-hull"
    z = bodies.Zonotope(np.zeros(2), np.eye(2))
    assert io.body_payload(z)["kind"] == "zonotope"


@pytest.mark.parametrize("text,fragment", [
    ("{not json", "invalid JSON"),
    ("[1, 2, 3]", "JSON object"),
    ('{"schema": "body/2", "kind": "polytope"}', "unsupported schema"),
    ('{"schema": "body/1", "kind": "pyramid"}', "unknown body kind"),
    ('{"schema": "body/1", "kind": "polytope"}', "malformed"),
    ('{"schema": "body/1", "kind": "polytope", "vertices": [[1, "x"]]}',
     "malformed"),
    ('{"schema": "body/1", "kind": "zonotope", "center": [0, 0]}', "malformed"),
    ('{"schema": "body/1", "kind": "named", "name": "blob", "dimension": 3}',
     "malformed"),
])
def test_loads_body_failures(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        io.loads_body(text)


def test_nan_vertices_rejected_on_load():
    payload = {"schema": "body/1", "kind": "polytope",
               "vertices": [[0.0, 0.0], [1.0, float("nan")]]}
    with pytest.raises(ParseError):
        io.body_from_payload(json.loads(json.dumps(payload)))


def test_file_round_trip(tmp_path):
    path = tmp_path / "b.json"
    io.write_body(path, bodies.cross_polytope(3))
    back = io.read_body(path)
    assert isinstance(back, bodies.VPolytope)
    assert len(back.vertices) == 6
    with pytest.raises(ParseError):
        io.read_body(tmp_path / "missing.json")


def test_golden_named_cross():
    """The serialized standard cross-polytope is frozen byte-for-byte."""
    want = (GOLDEN / "cross3.json").read_text(encoding="utf-8")
    assert io.dumps_body(bodies.NamedBody("cross", 3)) == want


# ---------------------------------------------------------------------------
# reports and findings


def _sample_entries(spec3):
    r1 = iq.evaluate("loomis_whitney", bodies.cube(3), spec=spec3)
    r2 = iq.evaluate("meyer", bodies.cross_polytope(3), spec=spec3)
    return [("cube", r1), ("cross", r2)]


def test_report_json_payload(spec3):
    text = io.dumps_report(_sample_entries(spec3))
    payload = json.loads(text)
    assert payload["schema"] == "report/1"
    assert set(payload["environment"]) == {"python", "numpy", "scipy",
                                           "platform"}
    assert len(payload["reports"]) == 2
    first = payload["reports"][0]
    assert first["body"] == "cube"
    assert first["id"] == "loomis_whitney"
    assert first["satisfied"] is True
    assert first["links"][0]["name"] == "projection-product"


def test_report_csv_round_trips_floats(spec3):
    text = io.report_csv_text(_sample_entries(spec3))
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(io.REPORT_CSV_COLUMNS)
    assert len(lines) == 3
    row = lines[1].split(",")
    # repr floats parse back exactly
    assert float(row[4]) == 64.0
    assert row[8] == "1"    # satisfied flag as int


def test_finding_round_trip(tmp_path):
    path = tmp_path / "finding.json"
    io.write_finding(path, inequality_id="prob4_family",
                     params={"c2": 5.0, "m": 1}, slack=-0.25, tolerance=1e-9,
                     lhs=1.0, rhs=1.25, body=bodies.cube(3),
                     context={"body": "cube"})
    payload = io.load_finding(path)
    assert payload["schema"] == "finding/1"
    assert payload["inequality"] == "prob4_family"
    witness = io.body_from_payload(payload["witness"])
    assert isinstance(witness, bodies.VPolytope)
    assert payload["context"] == {"body": "cube"}

    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "other/1"}', encoding="utf-8")
    with pytest.raises(ParseError):
        io.load_finding(bad)
    bad.write_text('[{"schema": "finding/1"}]', encoding="utf-8")
    with pytest.raises(ParseError, match="JSON object"):
        io.load_finding(bad)


# ---------------------------------------------------------------------------
# corpus generation


@pytest.mark.parametrize("kwargs", [
    dict(family="nope", count=1, n=3, seed=0),
    dict(family="random-polytope", count=0, n=3, seed=0),
    dict(family="random-polytope", count=1, n=1, seed=0),
    dict(family="random-polytope", count=1, n=9, seed=0),
    dict(family="random-polytope", count=1, n=3, seed=-5),
    dict(family="random-polytope", count=1, n=3, seed=0, size=0),
    dict(family="random-polytope", count=1, n=3, seed=0, scale=0.0),
    dict(family="random-polytope", count=1, n=3, seed=0, scale=float("inf")),
])
def test_corpus_spec_validation(kwargs):
    with pytest.raises(InvalidArgument):
        io.CorpusSpec(**kwargs)


def test_corpus_is_deterministic():
    spec = io.CorpusSpec(family="random-zonotope", count=3, n=3, seed=11)
    a = [(name, io.dumps_body(b)) for name, b in io.generate_corpus(spec)]
    b = [(name, io.dumps_body(b)) for name, b in io.generate_corpus(spec)]
    assert a == b
    assert [name for name, _ in a] == [
        "random-zonotope-3d-000", "random-zonotope-3d-001",
        "random-zonotope-3d-002"]
    other = io.CorpusSpec(family="random-zonotope", count=3, n=3, seed=12)
    c = [io.dumps_body(b) for _, b in io.generate_corpus(other)]
    assert c != [t for _, t in a]


def test_named_corpus_contents():
    spec = io.CorpusSpec(family="named", count=4, n=3, seed=0)
    names = [name for name, _ in io.generate_corpus(spec)]
    assert names == ["cross", "cube", "K1", "K2"]
    # outside n = 3 only the two scalable bodies exist
    spec = io.CorpusSpec(family="named", count=4, n=4, seed=0)
    names = [name for name, _ in io.generate_corpus(spec)]
    assert names == ["cross", "cube"]


def test_unconditional_corpus_has_sign_symmetry():
    """Every coordinate sign flip maps an unconditional body's canonical
    vertex list onto itself bit for bit."""
    spec = io.CorpusSpec(family="unconditional", count=2, n=3, seed=4)
    flips = [symmetry.SignedPermutation((0, 1, 2), signs)
             for signs in itertools.product((-1, 1), repeat=3)]
    for _, body in io.generate_corpus(spec):
        for g in flips:
            assert symmetry.apply_symmetry(body, g).vertices.tobytes() == body.vertices.tobytes()


# ---------------------------------------------------------------------------
# CLI: corpus and golden bytes


def test_cli_make_matches_golden(tmp_path, capsys):
    code = cli.main(["make", "--family", "named", "--count", "1", "--n", "3",
                     "--out", str(tmp_path)])
    assert code == 0
    got = (tmp_path / "cross.json").read_text(encoding="utf-8")
    want = (GOLDEN / "cross3.json").read_text(encoding="utf-8")
    assert got == want
    assert "wrote" in capsys.readouterr().out


def test_cli_make_deterministic(tmp_path):
    for sub in ("a", "b"):
        code = cli.main(["make", "--family", "random-polytope", "--count", "2",
                         "--n", "3", "--seed", "7", "--out",
                         str(tmp_path / sub)])
        assert code == 0
    for name in ("random-polytope-3d-000.json", "random-polytope-3d-001.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_cli_make_rejects_bad_family(tmp_path):
    code = cli.main(["make", "--family", "florps", "--count", "1", "--n", "3",
                     "--out", str(tmp_path)])
    assert code == 64


# ---------------------------------------------------------------------------
# CLI: check


def _make_named(tmp_path) -> list[str]:
    cli.main(["make", "--family", "named", "--count", "2", "--n", "3",
              "--out", str(tmp_path)])
    return [str(tmp_path / "cross.json"), str(tmp_path / "cube.json")]


def test_cli_check_writes_report(tmp_path, capsys):
    paths = _make_named(tmp_path)
    out = tmp_path / "out"
    code = cli.main(["check", "--ineq", "loomis_whitney,meyer",
                     "--bodies", *paths, "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert text.count("PASS") == 4
    payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert len(payload["reports"]) == 4
    assert {r["body"] for r in payload["reports"]} == {"cross", "cube"}
    csv_lines = (out / "report.csv").read_text(encoding="utf-8").strip().split("\n")
    assert len(csv_lines) == 5


def test_cli_check_unknown_id(tmp_path, capsys):
    paths = _make_named(tmp_path)
    code = cli.main(["check", "--ineq", "florps", "--bodies", paths[0],
                     "--out", str(tmp_path / "out")])
    assert code == 64
    assert "unknown inequality id" in capsys.readouterr().err


def test_cli_check_bad_m(tmp_path, capsys):
    paths = _make_named(tmp_path)
    code = cli.main(["check", "--ineq", "cg_upper", "--bodies", paths[0],
                     "--out", str(tmp_path / "out")])     # m missing
    assert code == 64
    assert "error:" in capsys.readouterr().err


def test_cli_check_corrupt_body(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken", encoding="utf-8")
    code = cli.main(["check", "--ineq", "meyer", "--bodies", str(bad),
                     "--out", str(tmp_path / "out")])
    assert code == 65
    assert "parse error" in capsys.readouterr().err


def test_cli_check_records_open_violation(tmp_path, capsys):
    """A falsified candidate constant for an open family is a finding,
    not a failure exit."""
    paths = _make_named(tmp_path)
    out = tmp_path / "out"
    code = cli.main(["check", "--ineq", "prob4_family", "--m", "1",
                     "--c2", "1000.0", "--bodies", paths[1],
                     "--out", str(out)])
    assert code == 0
    assert "violation recorded" in capsys.readouterr().out
    finding = io.load_finding(out / "finding-000.json")
    assert finding["inequality"] == "prob4_family"
    assert finding["slack"] < 0
    assert finding["witness"]["kind"] == "named"


@pytest.mark.parametrize("flags", [["--c2", "nan"], ["--c2", "inf"],
                                   ["--c2", "5", "--tolerance", "nan"]])
def test_cli_check_rejects_non_finite_values(tmp_path, capsys, flags):
    paths = _make_named(tmp_path)
    out = tmp_path / "out"
    code = cli.main(["check", "--ineq", "prob4_family", "--m", "1", *flags,
                     "--bodies", paths[1], "--out", str(out)])
    assert code == 64
    assert "finite" in capsys.readouterr().err
    assert not (out / "finding-000.json").exists()


@pytest.mark.parametrize("ineq_id, lam, flags", [
    ("meyer", 1e30, []),
    ("prob5_family", 2.1e12, ["--m", "2", "--c3", "1"]),
])
def test_cli_check_refuses_a_report_that_overflows(tmp_path, capsys, ineq_id, lam, flags):
    """A power that overflows a float, or a slack that comes out inf,
    exits 64 with an error line naming the entry, and writes no report."""
    path = tmp_path / "big.json"
    io.write_body(path, bodies.scale_body(bodies.cube(4), lam))
    out = tmp_path / "out"
    code = cli.main(["check", "--ineq", ineq_id, *flags, "--bodies", str(path),
                     "--out", str(out)])
    assert code == 64
    err = capsys.readouterr().err
    assert err.startswith("error:") and ineq_id in err
    assert not (out / "report.json").exists()


def _check_report(tmp_path, ineq_id: str, flags: list, body_path: str):
    """The exit code of ``check`` with these flags, and report.json."""
    out = tmp_path / "out"
    code = cli.main(["check", "--ineq", ineq_id, *flags, "--bodies", body_path,
                     "--out", str(out)])
    return code, (out / "report.json").read_bytes() if code == 0 else None


@pytest.mark.parametrize("ineq_id, flags, kwargs", [
    ("pythagorean", ["--m", "1", "--u", "1,2,3"],
     {"m": 1, "params": {"u": [1.0, 2.0, 3.0]}}),
    ("weighted_bm", ["--a", "1,2,3"], {"params": {"a": [1.0, 2.0, 3.0]}}),
])
def test_cli_check_vector_flags_give_the_evaluate_report(tmp_path, ineq_id, flags, kwargs):
    paths = _make_named(tmp_path)
    code, got = _check_report(tmp_path, ineq_id, flags, paths[1])
    io.write_report(tmp_path / "want.json",
                    [("cube", iq.evaluate(ineq_id, io.read_body(paths[1]), **kwargs))])
    assert code == 0 and got == (tmp_path / "want.json").read_bytes()


@pytest.mark.parametrize("raw", ["1,x,3", "1,2"])
def test_cli_check_rejects_a_bad_vector(tmp_path, capsys, raw):
    paths = _make_named(tmp_path)
    assert _check_report(tmp_path, "pythagorean", ["--m", "1", "--u", raw], paths[1])[0] == 64
    assert "error:" in capsys.readouterr().err


def test_cli_check_quad_res_sets_the_resolution(tmp_path):
    """V_1 of a 5-polytope is sphere quadrature: --quad-res 16 gives
    evaluate's report at resolution 16, whose lhs is 7.306967 (the
    default resolution gives 7.307469)."""
    path = tmp_path / "hull.json"
    io.write_body(path, bodies.convex_hull(np.random.default_rng(2).standard_normal((10, 5))))
    code, got = _check_report(tmp_path, "bm_v1_lower", ["--quad-res", "16"], str(path))
    coarse = iq.evaluate("bm_v1_lower", io.read_body(path), spec=QuadratureSpec(resolution=16))
    io.write_report(tmp_path / "want.json", [("hull", coarse)])
    assert code == 0 and got == (tmp_path / "want.json").read_bytes()
    assert coarse.lhs == pytest.approx(7.306967, abs=1e-6)


def test_cli_check_pairs_each_finding_with_its_own_body(tmp_path):
    """Two files with the same stem: each finding's witness is the body
    whose report it records."""
    paths = []
    for sub, body in (("a", bodies.cross_polytope(3)), ("b", bodies.cube(3))):
        (tmp_path / sub).mkdir()
        paths.append(tmp_path / sub / "x.json")
        io.write_body(paths[-1], body)
    out = tmp_path / "out"
    code = cli.main(["check", "--ineq", "prob4_family", "--m", "1", "--c2", "5",
                     "--bodies", *map(str, paths), "--out", str(out)])
    assert code == 0
    findings = sorted(out.glob("finding-*.json"))
    assert findings
    for path in findings:
        finding = io.load_finding(path)
        witness = io.body_from_payload(finding["witness"])
        again = iq.evaluate("prob4_family", witness, m=1, params={"c2": 5.0})
        assert again.oriented_slack == finding["slack"]
    first = io.body_from_payload(io.load_finding(findings[0])["witness"])
    assert first.vertices.shape[0] == 6          # the cross-polytope


def test_cli_check_proven_violation_exits_two(tmp_path, capsys, monkeypatch):
    """A proven inequality reported as violated is a numerical defect and
    must fail the run loudly."""
    paths = _make_named(tmp_path)

    real_evaluate = iq.evaluate

    def broken(ineq_id, body, m=None, params=None, spec=None, tolerance=None):
        report = real_evaluate(ineq_id, body, m=m, params=params, spec=spec,
                               tolerance=tolerance)
        return type(report)(**{**report.__dict__, "satisfied": False,
                               "oriented_slack": -1.0})

    monkeypatch.setattr(iq, "evaluate", broken)
    code = cli.main(["check", "--ineq", "loomis_whitney", "--bodies", paths[0],
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert "numerical defect" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI: repro


def test_cli_repro_ok(tmp_path, capsys):
    code = cli.main(["repro", "c0", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "[c0]" in out
    lines = (tmp_path / "repro.csv").read_text(encoding="utf-8").split("\n")
    assert lines[0] == "target,name,computed,reference,tolerance,passed"
    assert any(line.startswith("c0,min-width-ratio") for line in lines)


def test_cli_repro_unknown_target():
    assert cli.main(["repro", "florps", "--out", "/tmp"]) == 64


def test_cli_repro_mismatch_exits_two(tmp_path, capsys, monkeypatch):
    failing = explorer.ReproReport(
        target="c0",
        rows=(explorer.ReproRow("x", 2.0, reference=1.0, tolerance=0.1),))
    monkeypatch.setattr(explorer, "run_repro", lambda target: [failing])
    code = cli.main(["repro", "c0", "--out", str(tmp_path)])
    assert code == 2
    assert "reproduction mismatch" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI: search


def _write_config(tmp_path, **overrides) -> str:
    payload = {"problem": "cg33", "n": 3, "m": 1, "family": "zonotope",
               "iterations": 40, "restarts": 2, "seed": 5}
    payload.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_cli_search_deterministic_artifacts(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    for sub in ("r1", "r2"):
        code = cli.main(["search", "--config", cfg, "--out",
                         str(tmp_path / sub)])
        assert code == 0
    for name in ("search-result.json", "trajectory.csv"):
        assert (tmp_path / "r1" / name).read_bytes() == \
            (tmp_path / "r2" / name).read_bytes()
    payload = json.loads(
        (tmp_path / "r1" / "search-result.json").read_text(encoding="utf-8"))
    assert payload["schema"] == "search-result/1"
    assert payload["best_slack"] >= 0.0
    assert payload["findings"] == []
    out = capsys.readouterr().out
    assert "best oriented slack" in out
    assert "iterations 0..39" in out


def test_cli_search_seed_override(tmp_path):
    """--seed and --quad-res override the config's values."""
    cfg = _write_config(tmp_path)
    code = cli.main(["search", "--config", cfg, "--seed", "99", "--quad-res", "20",
                     "--out", str(tmp_path / "o")])
    assert code == 0
    payload = json.loads(
        (tmp_path / "o" / "search-result.json").read_text(encoding="utf-8"))
    assert payload["stamp"]["seed"] == 99
    assert payload["config"]["seed"] == 99
    assert payload["config"]["quad_resolution"] == 20


def test_cli_search_config_errors(tmp_path, capsys):
    bad_key = tmp_path / "bad1.json"
    bad_key.write_text('{"problem": "cg33", "n": 3, "m": 1, "florp": true}',
                       encoding="utf-8")
    assert cli.main(["search", "--config", str(bad_key),
                     "--out", str(tmp_path)]) == 64
    assert "unknown search config keys" in capsys.readouterr().err

    bad_json = tmp_path / "bad2.json"
    bad_json.write_text("{oops", encoding="utf-8")
    assert cli.main(["search", "--config", str(bad_json),
                     "--out", str(tmp_path)]) == 65

    assert cli.main(["search", "--config", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path)]) == 65


@pytest.mark.parametrize("overrides", [
    {"iterations": "5"},
    {"n": None},
    {"proposal_scale": math.nan},
    {"problem": "prob4", "family": "unconditional-polytope",
     "constant": math.nan},
])
def test_cli_search_rejects_bad_config_values(tmp_path, capsys, overrides):
    cfg = _write_config(tmp_path, **overrides)
    out = tmp_path / "o"
    assert cli.main(["search", "--config", cfg, "--out", str(out)]) == 64
    assert "error:" in capsys.readouterr().err
    assert not (out / "search-result.json").exists()


def test_cli_search_rejects_a_pairing_with_no_measure_route(tmp_path, capsys):
    cfg = _write_config(tmp_path, n=6, m=2, family="cross-perturbation",
                        iterations=1, restarts=1)
    assert cli.main(["search", "--config", cfg, "--out", str(tmp_path)]) == 64
    assert "not computable" in capsys.readouterr().err


def test_cli_search_writes_findings_for_bad_constant(tmp_path):
    cfg = _write_config(tmp_path, problem="prob4", constant=1000.0,
                        family="cross-perturbation", iterations=10,
                        restarts=1)
    code = cli.main(["search", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 0
    payload = json.loads(
        (tmp_path / "o" / "search-result.json").read_text(encoding="utf-8"))
    assert payload["findings"]
    finding = io.load_finding(tmp_path / "o" / payload["findings"][0])
    assert finding["inequality"] == "prob4_family"
    assert finding["config"]["problem"] == "prob4"


# ---------------------------------------------------------------------------
# CLI: jcurve


def test_cli_jcurve(tmp_path, capsys):
    cli.main(["make", "--family", "named", "--count", "1", "--n", "3",
              "--out", str(tmp_path)])
    out_csv = tmp_path / "curve.csv"
    code = cli.main(["jcurve", "--body", str(tmp_path / "cross.json"),
                     "--points", "16", "--out", str(out_csv)])
    assert code == 0
    lines = out_csv.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "x2,ratio"
    assert len(lines) == 17
    xs = [float(line.split(",")[0]) for line in lines[1:]]
    ys = [float(line.split(",")[1]) for line in lines[1:]]
    assert xs[0] == 0.0
    assert xs[-1] == pytest.approx(1.0 / math.sqrt(2.0))
    assert ys == pytest.approx([1.0] * 16, abs=1e-12)
    assert "nondecreasing: True" in capsys.readouterr().out


def test_cli_jcurve_rejects_asymmetric_body(tmp_path):
    cli.main(["make", "--family", "random-polytope", "--count", "1", "--n", "3",
              "--seed", "3", "--out", str(tmp_path)])
    code = cli.main(["jcurve", "--body",
                     str(tmp_path / "random-polytope-3d-000.json")])
    assert code == 64


# ---------------------------------------------------------------------------
# CLI: argument plumbing


def test_cli_usage_errors():
    assert cli.main([]) == 64
    assert cli.main(["make", "--unknown-flag"]) == 64
    assert cli.main(["frobnicate"]) == 64


def test_cli_main_parses_with_one_parser_and_no_carried_state(tmp_path):
    """main builds its parser once per process; one call's options, or a
    usage error, leave the next call's defaults as a fresh parser's."""
    name = "random-polytope-3d-000.json"
    make = ["make", "--family", "random-polytope", "--count", "1", "--n", "3"]
    assert cli.main([*make, "--seed", "7", "--scale", "3", "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["make", "--unknown-flag"]) == 64
    assert cli.main([*make, "--out", str(tmp_path / "b")]) == 0
    assert cli._parser() is cli._parser()
    fresh = cli.build_parser().parse_args([*make, "--out", str(tmp_path / "c")])
    assert fresh.func(fresh) == 0
    assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "c" / name).read_bytes()
    assert (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes()
